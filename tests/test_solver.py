"""Harmonic balance solver: residuals, Jacobians, seeding, verification."""

import numpy as np
import pytest

from fde import (BoundedNonlinearity, ConstProfile, DelayTap, Density,
                 HistoryPerturbation, MatrixPolynomial, MeasureMatrix,
                 PerturbationTerm, ProblemSpec, ScalarMeasure, SinProfile,
                 SolveConfig, TrigPoly, assemble_residual, build_example,
                 coefficient_jacobian, resonant_set, saturating, seed_kernel,
                 solve_best, solve_periodic, time_shift_gauge,
                 verify_pointwise)
from fde.errors import GridTooSmall
from fde.nonlinearity import nemytskii_eval
from fde.resonance import KernelElement, symbol
from fde.solver import pack_coeffs, pack_residual, unpack_coeffs

TWO_PI = 2.0 * np.pi

ALL_EXAMPLES = ("duffing-delay", "duffing-distributed", "gompertz-system",
                "weakly-coupled", "distributed-uniform", "distributed-sine",
                "beam")


def linear_gompertz(alpha=0.8, tau=1.0, p_val=0.6) -> ProblemSpec:
    # u'(t) = alpha u(t - tau) + p, rewritten with the delay on the left
    return ProblemSpec(
        P=MatrixPolynomial.from_scalar([0.0, 1.0]),
        Lam=MeasureMatrix.scalar(ScalarMeasure.point_delay(tau, -alpha)),
        Psi=MeasureMatrix.scalar(ScalarMeasure.dirac(0.0)),
        g=saturating(0.0, 0.0),
        p=TrigPoly.constant([p_val]),
        solve=SolveConfig(kmax=8))


def radial_two_tap() -> ProblemSpec:
    # full-matrix g' (radial field through a coupled deviation) and an h
    # term that sums two taps under a time modulation; no catalog example
    # reaches either
    psi = MeasureMatrix(2, [
        [ScalarMeasure.point_delay(0.4),
         ScalarMeasure(densities=[Density(-1.0, 0.5, ConstProfile(0.3))])],
        [ScalarMeasure.dirac(0.0, -0.5),
         ScalarMeasure(atoms=[(1.1, 0.8)],
                       densities=[Density(0.2, 2.0, SinProfile(0.6, 1.0, 0.3))])]])
    g = BoundedNonlinearity("radial", A=np.array([[1.2, 0.4], [-0.3, 0.9]]),
                            b=np.array([0.2, -0.1]))
    h = HistoryPerturbation(terms=[
        PerturbationTerm(component=1, amp=0.3, profile="tanh",
                         taps=[DelayTap(component=0, delay=0.7, weight=1.5),
                               DelayTap(component=1, delay=2.1, weight=-0.8)],
                         tmod_harmonic=2, tmod_phase=0.4)])
    p = (TrigPoly.cosine(1, amplitude=0.5, n=2, component=0)
         + TrigPoly.cosine(2, amplitude=0.3, n=2, component=1))
    coeffs = np.stack([np.diag([1.0, 2.0]), np.zeros((2, 2)), np.eye(2)])
    return ProblemSpec(P=MatrixPolynomial(coeffs),
                       Lam=MeasureMatrix.constant_matrix(0.1 * np.eye(2)),
                       Psi=psi, g=g, h=h, p=p)


# -- residual assembly -------------------------------------------------


def test_zero_residual_for_exact_linear_solution():
    prob = linear_gompertz()
    u = TrigPoly.constant([-0.6 / 0.8]).pad(8)
    F = assemble_residual(prob, u)
    assert F.norm_l2() < 1e-14


def test_residual_of_nonresonant_linear_mode():
    # u'' + 2u = cos t has solution cos t; residual linear in the error
    prob = ProblemSpec(
        P=MatrixPolynomial.from_scalar([2.0, 0.0, 1.0]),
        Lam=MeasureMatrix.zero(1),
        Psi=MeasureMatrix.scalar(ScalarMeasure.dirac(0.0)),
        g=saturating(0.0, 0.0),
        p=TrigPoly.cosine(1),
        solve=SolveConfig(kmax=4))
    res = solve_periodic(prob)
    assert res.converged and res.iterations <= 2
    expect = TrigPoly.cosine(1).pad(4)
    assert (res.u - expect).norm_l2() < 1e-13
    assert res.pointwise_residual < 1e-12


def test_perturbation_response_at_band_edge():
    prob = build_example("duffing-delay")
    sol = solve_best(prob)
    kmax = sol.u.kmax
    Lk = abs(symbol(prob.P, prob.Lam, kmax)[0, 0])
    pert = sol.u + TrigPoly.cosine(kmax, amplitude=1e-3, kmax=kmax)
    grown = assemble_residual(prob, pert).norm_l2()
    assert 0.5 * Lk * 1e-3 <= grown <= 1.5 * Lk * 1e-3


def test_residual_consistency_on_rough_iterate():
    # away from machine noise the two residual measures track each other
    prob = build_example("duffing-delay")
    rng = np.random.default_rng(0)
    decay = np.exp(-0.6 * np.arange(17))[:, None]
    coeffs = 0.4 * decay * (rng.standard_normal((17, 1))
                            + 1j * rng.standard_normal((17, 1)))
    coeffs[0] = coeffs[0].real
    u = TrigPoly(coeffs)
    coeff = assemble_residual(prob, u).norm_l2()
    ptw = verify_pointwise(prob, u, 512)
    assert coeff / 10.0 <= ptw <= 10.0 * coeff


def test_residual_consistency_converged_runs():
    # at convergence both measures sit at the arithmetic noise floor
    for ex in ALL_EXAMPLES:
        res = solve_best(build_example(ex))
        floor = 1e-11 * (1.0 + res.u.norm_l2())
        a = max(res.coeff_residual, floor)
        b = max(res.pointwise_residual, floor)
        assert a / 10.0 <= b <= 10.0 * a, ex


# -- jacobian ----------------------------------------------------------


@pytest.mark.parametrize("ex,kmax", [("duffing-delay", 12),
                                     ("weakly-coupled", 10),
                                     ("gompertz-system", 10),
                                     ("beam", 12),
                                     ("radial-two-tap", 8)])
def test_jacobian_matches_directional_fd(ex, kmax):
    prob = radial_two_tap() if ex == "radial-two-tap" else build_example(ex)
    config = SolveConfig(kmax=kmax)
    rng = np.random.default_rng(5)
    n = prob.n
    decay = np.exp(-0.4 * np.arange(kmax + 1))[:, None]
    coeffs = 0.3 * decay * (rng.standard_normal((kmax + 1, n))
                            + 1j * rng.standard_normal((kmax + 1, n)))
    coeffs[0] = coeffs[0].real
    u = TrigPoly(coeffs)
    J = coefficient_jacobian(prob, u, config)
    x = pack_coeffs(u)

    def F(xv):
        return pack_residual(assemble_residual(
            prob, unpack_coeffs(xv, kmax, n), config))

    eps = 1e-6
    for _ in range(20):
        v = rng.standard_normal(x.size)
        v /= np.linalg.norm(v)
        fd = (F(x + eps * v) - F(x - eps * v)) / (2 * eps)
        an = J @ v
        denom = np.linalg.norm(fd) + 1e-12
        assert np.linalg.norm(an - fd) / denom < 1e-5


# -- gauge -------------------------------------------------------------


def test_time_shift_gauge_detection():
    assert time_shift_gauge(linear_gompertz())
    assert not time_shift_gauge(build_example("duffing-delay"))


def test_shift_equivariance_without_forcing():
    prob = build_example("duffing-delay", c=0.0)
    rng = np.random.default_rng(7)
    decay = np.exp(-0.5 * np.arange(9))[:, None]
    coeffs = 0.3 * decay * (rng.standard_normal((9, 1))
                            + 1j * rng.standard_normal((9, 1)))
    coeffs[0] = coeffs[0].real
    u = TrigPoly(coeffs)
    base = assemble_residual(prob, u, M=256)
    scale = 1e-12 * (1.0 + base.norm_l2())
    for c in (0.4, 1.9, 3.3):
        shifted = assemble_residual(prob, u.shift(c), M=256)
        assert abs(shifted.norm_l2() - base.norm_l2()) < scale
        assert (shifted - base.shift(c)).norm_l2() < 10 * scale


# -- seeding -----------------------------------------------------------


@pytest.mark.parametrize("ex", ["gompertz-system", "radial-two-tap"])
def test_nemytskii_batch_matches_single_calls(ex):
    # h taps (gompertz-system) and a radial g through a coupled Psi
    prob = radial_two_tap() if ex == "radial-two-tap" else build_example(ex)
    rng = np.random.default_rng(6)
    coeffs = rng.standard_normal((5, 9, prob.n)) + 1j * rng.standard_normal((5, 9, prob.n))
    coeffs[:, 0] = coeffs[:, 0].real
    got = nemytskii_eval(prob, TrigPoly(coeffs), 64).coeffs
    want = np.stack([nemytskii_eval(prob, TrigPoly(c), 64).coeffs for c in coeffs])
    assert np.max(np.abs(got - want)) <= 1e-14


def test_seed_kernel_duffing():
    prob = build_example("duffing-delay")
    seeds = seed_kernel(prob)
    assert 1 <= len(seeds) <= 16
    assert all(isinstance(s, KernelElement) for s in seeds)
    # objective sorted ascending, so the leading seed drives solve_best


@pytest.mark.parametrize("example", ["duffing-delay", "distributed-uniform"])
def test_seed_kernel_ties_follow_sample_index(example):
    # mirror-image samples about the best seed tie in exact arithmetic;
    # they must come out in sample order, not in last-bit rounding order
    prob = build_example(example)
    rep = resonant_set(prob.P, prob.Lam)
    seeds = seed_kernel(prob, rep)
    amps = np.array([s.amps[0] for s in seeds])
    index = np.round(-np.angle(amps) / (TWO_PI / 64)).astype(int) % 64
    objs = np.array([np.linalg.norm(KernelElement.from_poly(
        rep, nemytskii_eval(prob, s.to_poly(), 2048)).amps) for s in seeds])
    ties = 0
    for c in range(len(seeds) - 1):
        if abs(objs[c + 1] - objs[c]) <= 1e-12 * max(objs[c], objs[c + 1]):
            ties += 1
            assert index[c] < index[c + 1], (c, index[c], index[c + 1])
    assert ties > 0


def test_seed_kernel_unforced_odd_gives_zero_route():
    prob = build_example("duffing-delay", c=0.0)
    seeds = seed_kernel(prob)
    assert seeds == []
    res = solve_best(prob)
    assert res.converged
    assert res.u.norm_l2() < 1e-12      # zero is the solution found


def test_seed_invariance_under_kernel_orthogonal_h():
    with_h = seed_kernel(build_example("gompertz-system"))
    without = seed_kernel(build_example("gompertz-system", h_amp=0.0))
    assert len(with_h) == len(without) and len(with_h) > 0
    for a, b in zip(with_h, without):
        assert np.max(np.abs(a.amps - b.amps)) < 1e-9


# -- full solves -------------------------------------------------------


def test_solve_all_examples():
    for ex in ALL_EXAMPLES:
        res = solve_best(build_example(ex))
        assert res.converged, ex
        assert res.pointwise_residual < 1e-8, ex
        assert res.u.norm_l2() > 1e-3, ex      # nontrivial solutions


def test_solve_linear_gompertz_constant():
    res = solve_periodic(linear_gompertz())
    expect = -0.6 / 0.8
    vals = res.u.eval(np.linspace(0, TWO_PI, 17))
    assert np.max(np.abs(vals - expect)) < 1e-14
    assert res.converged and res.iterations <= 2


def test_kmax_doubling_stability():
    prob = build_example("duffing-delay")
    u32 = solve_best(prob, SolveConfig(kmax=32)).u
    u64 = solve_best(prob, SolveConfig(kmax=64)).u
    diff = (u64 - u32.pad(64)).norm_l2()
    assert diff < 1e-7


def test_explicit_seed_forms():
    prob = build_example("duffing-delay")
    rep = resonant_set(prob.P, prob.Lam)
    el = KernelElement(rep, np.array([0.5 + 0.2j]))
    res1 = solve_periodic(prob, seed=el)
    assert res1.converged
    res2 = solve_periodic(prob, seed=res1.u)
    assert res2.converged and res2.iterations <= 2
    assert (res1.u - res2.u).norm_l2() < 1e-9


def test_trace_and_report_fields():
    res = solve_best(build_example("duffing-delay"))
    assert res.trace[0]["iter"] == 0
    assert res.trace[-1]["residual"] <= 1e-10
    d = res.to_dict()
    for key in ("converged", "coeff_residual", "pointwise_residual",
                "iterations", "kmax", "u", "gauge", "trace", "seed"):
        assert key in d, key


def test_verify_pointwise_grid_gate():
    prob = build_example("duffing-delay")
    u = TrigPoly.zero(1, 64)
    with pytest.raises(GridTooSmall):
        verify_pointwise(prob, u, 100)


def test_verify_pointwise_detects_wrong_solution():
    prob = build_example("duffing-delay")
    u = TrigPoly.cosine(1, amplitude=0.3, kmax=8)
    assert verify_pointwise(prob, u, 256) > 1e-2


def test_linear_duffing_residual_exact():
    # u'' + u = cos 2t is solved exactly by -cos(2t)/3 off resonance
    prob = ProblemSpec(
        P=MatrixPolynomial.from_scalar([1.0, 0.0, 1.0]),
        Lam=MeasureMatrix.zero(1),
        Psi=MeasureMatrix.scalar(ScalarMeasure.dirac(0.0)),
        g=saturating(0.0, 0.0),
        p=TrigPoly.cosine(2),
        solve=SolveConfig(kmax=8))
    u = TrigPoly.cosine(2, amplitude=-1.0 / 3.0, kmax=8)
    assert assemble_residual(prob, u).norm_l2() < 1e-14
    assert verify_pointwise(prob, u, 256) < 1e-14


def test_residual_zero_at_origin_without_forcing():
    prob = build_example("duffing-delay", c=0.0)
    assert assemble_residual(prob, TrigPoly.zero(1, 16)).norm_l2() == 0.0


def test_seed_kernel_empty_off_resonance():
    assert seed_kernel(linear_gompertz()) == []
