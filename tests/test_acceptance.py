"""End-to-end acceptance checks, one summary line per criterion.

Each test exercises one externally stated capability at its stated
tolerance and time budget.  The conftest hook prints a PASS/FAIL line
per criterion after the run.
"""

import dataclasses
import functools
import time

import numpy as np

import oracles
from fde import (MatrixPolynomial, MeasureMatrix, ProblemSpec, ScalarMeasure,
                 SolveConfig, SphereSample, TrigPoly, apply_symbol,
                 build_example, degree_product, degree_winding, differentiate,
                 gamma_convergence, gamma_tilde, ll_margin, project_kernel,
                 resonant_set, right_inverse, saturating, seed_kernel,
                 small_set_measure, solve_best, solve_periodic, sphere_samples,
                 symbol)

TWO_PI = 2.0 * np.pi
TAIL_CONSTANT = 0.1738935581

RESULTS = []


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                RESULTS.append((num, label, False))
                raise
            RESULTS.append((num, label, True))
        return wrapper
    return deco


def decaying_poly(rng, kmax, n, rate=0.4, scale=0.3):
    decay = np.exp(-rate * np.arange(kmax + 1))[:, None]
    c = scale * decay * (rng.standard_normal((kmax + 1, n))
                         + 1j * rng.standard_normal((kmax + 1, n)))
    c[0] = c[0].real
    return TrigPoly(c)


@criterion(1, "diagonal delay symbol exact over |k| <= 64 in under 1s")
def test_criterion_01_symbol_accuracy():
    rng = np.random.default_rng(11)
    n = 3
    a = rng.uniform(0.5, 2.0, n)
    b = rng.uniform(0.2, 1.5, n)
    tau = rng.uniform(0.3, 5.0, n)
    start = time.perf_counter()
    P = MatrixPolynomial(np.stack([np.diag(a), np.eye(n)]))
    Lam = MeasureMatrix.diagonal(
        [ScalarMeasure.point_delay(t, w) for t, w in zip(tau, b)])
    worst = 0.0
    for k in range(-64, 65):
        expect = np.diag(1j * k + a + b * np.exp(-1j * k * tau))
        worst = max(worst, np.max(np.abs(symbol(P, Lam, k) - expect)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12, worst
    assert elapsed < 1.0, elapsed


@criterion(2, "resonant frequencies of distributed and beam problems")
def test_criterion_02_resonant_sets():
    for m in (1, 2, 3):
        prob = build_example("distributed-sine", m=m)
        start = time.perf_counter()
        rep = resonant_set(prob.P, prob.Lam)
        assert time.perf_counter() - start < 1.0
        assert rep.K == [-m, m]
        assert rep.modes[m].sigma_min < 1e-10

    prob = build_example("beam")
    start = time.perf_counter()
    rep = resonant_set(prob.P, prob.Lam)
    assert time.perf_counter() - start < 1.0
    assert rep.K == [-2, -1, 1, 2]
    assert 2 * rep.nu == 4


@criterion(3, "scalar margin formula and verdict flip at the critical gain")
def test_criterion_03_margin_formula():
    for c in (0.5, 1.0, 1.2):
        out = ll_margin(build_example("duffing-delay", c=c))
        assert abs(out["margin"] - (2.0 / np.pi - c / 2.0)) < 1e-10
    crit = 4.0 / np.pi
    assert ll_margin(build_example("duffing-delay", c=crit - 0.02))["holds"]
    assert not ll_margin(build_example("duffing-delay", c=crit + 0.02))["holds"]


@criterion(4, "projected limit coordinate matches the jump formula")
def test_criterion_04_projection_formula():
    prob = build_example("duffing-delay", c=0.0, tau=0.0)
    rep = resonant_set(prob.P, prob.Lam)
    for phi in TWO_PI * np.arange(16) / 16:
        gt = gamma_tilde(prob, SphereSample.single_phase(rep, phi))
        assert abs(gt.amps[0] - (2.0 / np.pi) * np.exp(-1j * phi)) < 1e-12

    tau = 1.1
    prob = build_example("duffing-delay", c=0.0, tau=tau)
    rep = resonant_set(prob.P, prob.Lam)
    for phi in TWO_PI * np.arange(16) / 16:
        gt = gamma_tilde(prob, SphereSample.single_phase(rep, phi))
        target = (2.0 / np.pi) * np.exp(-1j * (phi + tau))
        assert abs(gt.amps[0] - target) < 1e-12


@criterion(5, "winding degree -1 stable; product degree +1 when decoupled")
def test_criterion_05_degrees():
    prob = build_example("duffing-delay")
    assert degree_winding(prob) == -1
    for s in (0.0, 0.25, 0.5, 0.75, 1.0):
        scaled = dataclasses.replace(prob, p=prob.p * s)
        assert degree_winding(scaled) == -1, s
    assert degree_product(build_example("weakly-coupled")) == 1


@criterion(6, "spectral solve cross-checked against method of steps")
def test_criterion_06_solve_and_dde():
    prob = build_example("duffing-delay")          # m=1, tau=pi/2, c=1
    start = time.perf_counter()
    res = solve_best(prob)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, elapsed
    assert res.converged and res.u.kmax == 64
    assert res.pointwise_residual < 1e-8

    u = res.u

    def hb(t):
        return u.eval(t)[:, 0]

    du = differentiate(u)
    sol = oracles.dde_second_order(
        1.0, np.pi / 2.0, np.tanh, np.cos,
        history=lambda t: float(hb(t)[0]),
        u0=float(hb(0.0)[0]), du0=float(du.eval(0.0)[0, 0]))
    ts = np.linspace(0.0, TWO_PI, 512)
    assert np.max(np.abs(sol(ts) - hb(ts))) < 1e-5


@criterion(7, "projector and right inverse identities on random inputs")
def test_criterion_07_operator_identities():
    prob = build_example("gompertz-system")
    rep = resonant_set(prob.P, prob.Lam)
    rng = np.random.default_rng(23)
    for _ in range(100):
        u = decaying_poly(rng, 16, prob.n)
        Pu = project_kernel(u, rep)
        assert (project_kernel(Pu, rep) - Pu).norm_l2() < 1e-13
        assert project_kernel(apply_symbol(u, rep), rep).norm_l2() < 1e-10
    for _ in range(100):
        v = decaying_poly(rng, 16, prob.n)
        phi = apply_symbol(v, rep)
        w = right_inverse(phi, rep)
        assert (apply_symbol(w, rep) - phi).norm_l2() < 1e-10


@criterion(8, "projection error follows the saturating tail law")
def test_criterion_08_tail_law():
    prob = build_example("duffing-delay")
    rep = resonant_set(prob.P, prob.Lam)
    for w in sphere_samples(rep, 32, seed=0):
        E = gamma_convergence(prob, w, [1e3, 1e4])
        assert E[1] < 0.02
        assert E[1] < E[0]
        for s, e in zip((1e3, 1e4), E):
            pred = TAIL_CONSTANT / s
            assert abs(e * e - pred) <= 0.3 * pred


@criterion(9, "arcsine small-set measure and cube-root power bound")
def test_criterion_09_small_sets():
    prob = build_example("duffing-delay")
    rep = resonant_set(prob.P, prob.Lam)
    w = SphereSample.single_phase(rep, 0.0)      # the sqrt(2) cos t sample
    assert abs(small_set_measure(w, 0.1) - 0.0450534136) < 2e-4
    eps = (0.2, 0.1, 0.05)
    vals = [small_set_measure(w, e) for e in eps]
    C = vals[0] / eps[0] ** (1.0 / 3.0)
    for e, v in zip(eps[1:], vals[1:]):
        assert v <= C * e ** (1.0 / 3.0)


@criterion(10, "constant delay solution exact; seeds ignore orthogonal h")
def test_criterion_10_constant_solution_and_seeds():
    alpha, tau, pv = 0.8, 1.0, 0.6
    prob = ProblemSpec(
        P=MatrixPolynomial.from_scalar([0.0, 1.0]),
        Lam=MeasureMatrix.scalar(ScalarMeasure.point_delay(tau, -alpha)),
        Psi=MeasureMatrix.scalar(ScalarMeasure.dirac(0.0)),
        g=saturating(0.0, 0.0),
        p=TrigPoly.constant([pv]),
        solve=SolveConfig(kmax=8))
    res = solve_periodic(prob)
    vals = res.u.eval(np.linspace(0.0, TWO_PI, 33))
    assert np.max(np.abs(vals - (-pv / alpha))) < 1e-13

    res = solve_best(build_example("gompertz-system"))
    assert res.converged and res.pointwise_residual < 1e-8
    with_h = seed_kernel(build_example("gompertz-system"))
    without = seed_kernel(build_example("gompertz-system", h_amp=0.0))
    assert len(with_h) == len(without) > 0
    for a, b in zip(with_h, without):
        assert np.max(np.abs(a.amps - b.amps)) < 1e-9
