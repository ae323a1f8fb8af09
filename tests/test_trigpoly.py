"""Trigonometric polynomial calculus: grids, norms, derivatives."""

import numpy as np
import pytest

from fde import TrigPoly, analyze_grid, differentiate, eval_grid
from fde.errors import GridTooSmall
from fde.trigpoly import cached_stack, sobolev_norm

TWO_PI = 2.0 * np.pi


def random_poly(rng, n=2, kmax=8) -> TrigPoly:
    coeffs = rng.standard_normal((kmax + 1, n)) \
        + 1j * rng.standard_normal((kmax + 1, n))
    coeffs[0] = coeffs[0].real
    return TrigPoly(coeffs)


def test_cosine_constructor():
    u = TrigPoly.cosine(3, amplitude=2.0, phase=0.4)
    t = np.linspace(0, TWO_PI, 50)
    assert np.max(np.abs(u.eval(t)[:, 0] - 2.0 * np.cos(3 * t - 0.4))) < 1e-13
    assert u.coeff(3)[0] == pytest.approx(np.exp(-1j * 0.4), abs=1e-14)
    assert u.coeff(-3)[0] == pytest.approx(np.exp(1j * 0.4), abs=1e-14)


def test_mean_coefficient_drift_is_zeroed():
    c = np.array([[1.0 + 1e-13j, -2.0], [0.5 + 0.5j, 0.25j]])
    u = TrigPoly(c.copy())
    assert np.array_equal(u.coeffs[0], [1.0, -2.0])
    assert np.array_equal(u.coeffs[1], c[1])


def test_mean_coefficient_drift_leaves_the_input_alone():
    c = np.array([[1 + 1e-13j], [0.5]])
    before = c.copy()
    TrigPoly(c)
    assert np.array_equal(c, before)


def test_mean_coefficient_drift_raises():
    with pytest.raises(ValueError, match="imaginary drift"):
        TrigPoly(np.array([[1.0 + 1e-9j], [0.5]]))


def test_real_mean_coefficient_passes_unchanged():
    c = np.array([[[1.5, -0.0]], [[0.5 - 0.25j, 2.0j]]]).reshape(1, 2, 2)
    before = c.copy()
    u = TrigPoly(c)
    assert u.coeffs.dtype == complex
    assert np.array_equal(u.coeffs, before)
    assert np.array_equal(c, before)


def test_grid_round_trip():
    rng = np.random.default_rng(0)
    u = random_poly(rng, n=3, kmax=11)
    for M in (2 * 11 + 1, 64, 301):
        v = analyze_grid(eval_grid(u, M), 11)
        assert np.max(np.abs(v.coeffs - u.coeffs)) < 1e-12


@pytest.mark.parametrize("M", [2 * 11 + 1, 2 * 11 + 2, 64, 301])
def test_batch_grid_matches_single_calls(M):
    # a (2, 3) batch of polynomials against the stack of single calls
    rng = np.random.default_rng(5)
    polys = [random_poly(rng, n=2, kmax=11) for _ in range(6)]
    batch = TrigPoly(np.stack([u.coeffs for u in polys]).reshape(2, 3, 12, 2))
    assert (batch.kmax, batch.n) == (11, 2)
    vals = eval_grid(batch, M)
    single = np.stack([eval_grid(u, M) for u in polys]).reshape(2, 3, M, 2)
    assert np.max(np.abs(vals - single)) <= 1e-14 * np.max(np.abs(single))
    coeffs = analyze_grid(vals, 11).coeffs
    single = np.stack([analyze_grid(v, 11).coeffs for v in vals.reshape(6, M, 2)])
    assert np.max(np.abs(coeffs.reshape(6, 12, 2) - single)) <= 1e-14
    t = np.linspace(-1.0, 7.0, M)      # off the grid, beyond one period
    single = np.stack([u.eval(t) for u in polys]).reshape(2, 3, M, 2)
    assert batch.eval(t).shape == (2, 3, M, 2)
    assert np.max(np.abs(batch.eval(t) - single)) <= 1e-14 * np.max(np.abs(single))


def test_analyze_grid_needs_resolution():
    with pytest.raises(GridTooSmall):
        analyze_grid(np.zeros((8, 1)), 4)


def test_parseval():
    rng = np.random.default_rng(1)
    for _ in range(100):
        u = random_poly(rng, n=2, kmax=6)
        vals = eval_grid(u, 4096)
        quad = np.mean(np.sum(vals ** 2, axis=1))
        assert u.norm_l2() == pytest.approx(np.sqrt(quad), abs=1e-9)


def test_differentiate():
    u = TrigPoly.cosine(4, amplitude=1.5, phase=0.2)
    du = differentiate(u)
    t = np.linspace(0, TWO_PI, 33)
    assert np.max(np.abs(du.eval(t)[:, 0]
                         + 6.0 * np.sin(4 * t - 0.2))) < 1e-12
    d2u = differentiate(u, 2)
    assert np.max(np.abs(d2u.eval(t) + 16.0 * u.eval(t))) < 1e-12


def test_shift():
    rng = np.random.default_rng(3)
    u = random_poly(rng)
    c = 0.9
    t = np.linspace(0, TWO_PI, 29)
    assert np.max(np.abs(u.shift(c).eval(t) - u.eval(t + c))) < 1e-12
    # an array of shifts gives a batch, one polynomial per shift
    both = u.shift(np.array([c, -0.4])).coeffs
    assert np.max(np.abs(both - np.stack([u.shift(c).coeffs,
                                          u.shift(-0.4).coeffs]))) <= 1e-15


def test_norm_inf():
    u = TrigPoly.cosine(1, amplitude=np.sqrt(2.0))
    assert u.norm_inf() == pytest.approx(np.sqrt(2.0), rel=1e-3)


def test_pad_truncate():
    rng = np.random.default_rng(4)
    u = random_poly(rng, kmax=5)
    assert u.pad(9).kmax == 9
    assert np.max(np.abs(u.pad(9).truncate(5).coeffs - u.coeffs)) == 0.0
    # truncate to a larger band pads instead of failing
    assert u.truncate(8).kmax == 8


def test_realness_guard():
    bad = np.zeros((2, 1), dtype=complex)
    bad[0, 0] = 1e-6j
    with pytest.raises(Exception):
        TrigPoly(bad)


def test_sobolev_norm_orders():
    # weight (1 + k^{2 order}) per signed mode; cos(2t) has 2|c_2|^2 = 1/2
    u = TrigPoly.cosine(2)
    assert sobolev_norm(u, 1) == pytest.approx(np.sqrt(0.5 * 5.0), abs=1e-12)
    assert sobolev_norm(u, 2) == pytest.approx(np.sqrt(0.5 * 17.0), abs=1e-12)
    assert sobolev_norm(u, 1) >= u.norm_l2()


def test_zero_and_constant():
    z = TrigPoly.zero(2, 4)
    assert z.norm_l2() == 0.0
    c = TrigPoly.constant([1.0, -2.0])
    vals = eval_grid(c, 16)
    assert np.max(np.abs(vals - np.array([1.0, -2.0]))) == 0.0


def test_cached_stack_builds_once_per_growth():
    class Owner:
        rows = None

    owner, built = Owner(), []

    def build(K):
        built.append(K)
        return np.arange(K + 1.0)

    assert cached_stack(owner, "rows", 8, build).tolist() == list(range(9))
    assert cached_stack(owner, "rows", 3, build).tolist() == [0, 1, 2, 3]
    assert cached_stack(owner, "rows", 8, build).shape == (9,)
    assert cached_stack(owner, "rows", 20, build).shape == (21,)
    assert built == [8, 20] and owner.rows.shape == (21,)
    with pytest.raises(ValueError):
        cached_stack(owner, "rows", 2, build)[0] = 1.0
