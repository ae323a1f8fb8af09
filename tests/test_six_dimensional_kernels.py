"""Problems whose kernel has dimension six (``nu = 3``): what the
certificates and the solver give today.  The sampled margins of the beam
are upper bounds that a certified covering will replace."""

import itertools

import numpy as np
import pytest

from fde import certify, solve_best


def phase_torus_r2(prob):
    """Minimum of ``|Gamma_tilde|`` over the phase torus of a diagonal,
    one-frequency problem: over the non-empty sets ``S`` of components off a
    stratum, ``sqrt(sum_{c in S} (d_c - |a_c|)^2 + sum_{c not in S} |a_c|^2)``,
    ``d_c = |jump_c| / pi`` the square-wave coefficient and ``a_c`` that of
    the forcing at ``k = 1``."""
    d = np.array([abs(prob.g.jump(c)) for c in range(prob.n)]) / np.pi
    a = np.abs(prob.p.coeff(1))
    return min(np.sqrt(sum((d[c] - a[c]) ** 2 if c in S else a[c] ** 2 for c in range(prob.n)))
               for r in range(1, prob.n + 1) for S in itertools.combinations(range(prob.n), r))


@pytest.mark.parametrize("n_samples", [32, 256])
def test_three_mode_diagonal_certificates(three_mode_diagonal, n_samples):
    prob = three_mode_diagonal
    assert prob.resonance_report().nu == 3
    doc = certify(prob, n_samples=n_samples)
    assert abs(doc["R2"]["margin"] - 0.46040726361077366) <= 1e-14
    assert abs(doc["R2"]["margin"] - phase_torus_r2(prob)) <= 1e-12
    for margin in (doc["N2"]["margin"], doc["ll_margin"]["margin"]):
        assert abs(margin - (2.0 / np.pi - 0.25)) <= 1e-12
    assert doc["degree"]["degree"] == -1
    assert doc["conditions_pass"]


def test_three_mode_diagonal_solves(three_mode_diagonal):
    result = solve_best(three_mode_diagonal)
    assert result.converged
    assert result.pointwise_residual <= 1e-12


def test_three_frequency_beam_certificates(three_frequency_beam):
    prob = three_frequency_beam
    assert prob.resonance_report().nu == 3
    docs = [certify(prob, n_samples=n) for n in (32, 256)]
    for doc in docs:
        assert doc["degree"] is None and doc["ll_margin"] is None
        for note in (doc["degree_note"], doc["ll_note"]):
            assert "resonates at several frequencies" in note
        for key in ("R2", "N2"):
            assert doc[key]["certified"] is False and doc[key]["margin"] > 0.0
    # sampled upper bounds on the true minima; the denser design reads no higher
    for key, want in (("R2", (0.5194, 0.5027)), ("N2", (0.4927, 0.4848))):
        got = [doc[key]["margin"] for doc in docs]
        assert got[1] <= got[0]
        np.testing.assert_allclose(got, want, atol=1e-4)


def test_three_frequency_beam_solves(three_frequency_beam):
    result = solve_best(three_frequency_beam)
    assert result.converged
    assert result.pointwise_residual <= 1e-8
