"""Harmonic balance solver: residuals, Jacobians, seeding, verification."""

import dataclasses

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
from fde import nonlinearity
from fde.measures import apply_deviation
from fde.nonlinearity import _h_base, nemytskii_core, nemytskii_eval
from fde.trigpoly import analyze_grid, eval_grid
from fde.lazer_leach import sphere_design
from fde.resonance import KernelElement, symbol
from fde import solver
from fde.solver import _grid_sum, _unpack, pack_coeffs, pack_residual

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


def linear_duffing() -> ProblemSpec:
    # u'' + u = cos 2t with g = 0: resonant at k = 1, and solved exactly by
    # -cos(2t)/3, which has no kernel component
    return ProblemSpec(
        P=MatrixPolynomial.from_scalar([1.0, 0.0, 1.0]),
        Lam=MeasureMatrix.zero(1),
        Psi=MeasureMatrix.scalar(ScalarMeasure.dirac(0.0)),
        g=saturating(0.0, 0.0),
        p=TrigPoly.cosine(2),
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
    rng = np.random.default_rng(5)
    n = prob.n
    decay = np.exp(-0.4 * np.arange(kmax + 1))[:, None]
    coeffs = 0.3 * decay * (rng.standard_normal((kmax + 1, n))
                            + 1j * rng.standard_normal((kmax + 1, n)))
    coeffs[0] = coeffs[0].real
    u = TrigPoly(coeffs)
    J = coefficient_jacobian(prob, u)
    x = pack_coeffs(u)

    def F(xv):
        return pack_residual(assemble_residual(
            prob, TrigPoly(_unpack(xv, kmax, n))))

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


def per_tap_nemytskii(prob, c, M):
    # the formula before the spectral core: Psi u, every tap of h and the
    # forcing each sampled on their own, then one analysis of the sum
    u = TrigPoly(c)
    total = eval_grid(prob.p, M) - prob.g(eval_grid(apply_deviation(prob.Psi, u), M))
    t = TWO_PI * np.arange(M) / M
    for term in (prob.h.terms if prob.h is not None else []):
        z = sum(tap.weight * eval_grid(TrigPoly(c[..., [tap.component]]).shift(-tap.delay),
                                       M)[..., 0] for tap in term.taps)
        total[..., term.component] -= term.amp * term.tmod(t) * _h_base(term.profile, z)
    return analyze_grid(total, u.kmax).coeffs


@pytest.mark.parametrize("example", ALL_EXAMPLES + ("time-modulated-h",
                                                   "time-modulated-duffing",
                                                   "radial-two-tap"))
@pytest.mark.parametrize("batch", [(), (3,)])
def test_nemytskii_core_matches_the_per_tap_formula(example, batch):
    prob = radial_two_tap() if example == "radial-two-tap" else seed_problem(example)
    rng = np.random.default_rng(11)
    shape = batch + (13, prob.n)
    decay = np.exp(-0.4 * np.arange(13))[:, None]
    c = 0.6 * decay * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    c[..., 0, :] = c[..., 0, :].real
    N, samples = nemytskii_core(prob, c, 64)
    assert np.max(np.abs(N - per_tap_nemytskii(prob, c, 64))) <= 1e-13
    # the samples the Jacobian reads: Psi u, then one column per tap
    psi = eval_grid(apply_deviation(prob.Psi, TrigPoly(c)), 64)
    assert np.max(np.abs(samples[..., :prob.n] - psi)) <= 1e-13
    taps = prob.h.taps() if prob.h is not None else []
    assert samples.shape == batch + (64, prob.n + len(taps))


def test_seed_kernel_duffing():
    prob = build_example("duffing-delay")
    seeds = seed_kernel(prob)
    assert 1 <= len(seeds) <= 16
    assert all(isinstance(s, KernelElement) for s in seeds)
    # objective sorted ascending, so the leading seed drives solve_best


def test_default_report_is_computed_once_per_problem(monkeypatch):
    # solve_best and seed_kernel without a report read the one that the
    # problem caches; a replaced problem gets its own
    import fde.resonance
    calls = []
    original = fde.resonance.resonant_set
    monkeypatch.setattr(fde.resonance, "resonant_set",
                        lambda *args: calls.append(args) or original(*args))
    prob = build_example("weakly-coupled")
    first, second = solve_best(prob), solve_best(prob)
    seed_kernel(prob)
    assert len(calls) == 1 and prob.resonance_report() is prob.resonance_report()
    assert first.u.coeffs.tobytes() == second.u.coeffs.tobytes()
    assert prob.resonance_report().modes.keys() == resonant_set(prob.P, prob.Lam).modes.keys()
    assert dataclasses.replace(prob).resonance_report() is not prob.resonance_report()


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


@pytest.mark.parametrize("example, kmax", [(ex, None) for ex in ALL_EXAMPLES]
                         + [("duffing-delay", 8), ("weakly-coupled", 8),
                            ("gompertz-system", 256), ("weakly-coupled", 256)])
def test_seed_kernel_on_solve_grid_matches_fine_grid(example, kmax, monkeypatch):
    # by default the scan runs on the grid of the solve it seeds: that of
    # its first rung, 4 kmax up to the rung of 16 modes the ladder starts
    # on; the seeds and their order are those of a 2048-point grid, bit
    # for bit
    from fde import solver
    prob = build_example(example)
    config = None if kmax is None else SolveConfig(kmax=kmax)
    grids = []
    eval_nemytskii = solver.nemytskii_eval

    def recording(p, u, M):
        grids.append(M)
        return eval_nemytskii(p, u, M)

    monkeypatch.setattr(solver, "nemytskii_eval", recording)
    coarse = seed_kernel(prob, config=config)
    settings = config or prob.solve
    assert set(grids) == {4 * min(settings.kmax, 16)}
    fine = seed_kernel(prob, M=2048)
    assert [s.amps.tobytes() for s in coarse] == [s.amps.tobytes() for s in fine]


NU1_EXAMPLES = ("duffing-delay", "duffing-distributed", "gompertz-system",
                "distributed-uniform", "distributed-sine")


def shifted_forcing_duffing() -> ProblemSpec:
    # a time-shifted forcing gives the kernel forcing a_p a complex argument
    prob = build_example("duffing-delay")
    return dataclasses.replace(prob, p=prob.p.shift(0.7))


def time_modulated_gompertz() -> ProblemSpec:
    prob = build_example("gompertz-system")
    terms = [dataclasses.replace(t, tmod_harmonic=2) for t in prob.h.terms]
    return dataclasses.replace(prob, h=dataclasses.replace(prob.h, terms=terms))


def time_modulated_duffing() -> ProblemSpec:
    # an h that reads and drives the kernel mode, times cos(2t + 0.4)
    h = HistoryPerturbation(terms=[PerturbationTerm(
        component=0, amp=0.3, profile="tanh", taps=[DelayTap(component=0, delay=0.7)],
        tmod_harmonic=2, tmod_phase=0.4)])
    return dataclasses.replace(build_example("duffing-delay"), h=h)


def seed_problem(name: str) -> ProblemSpec:
    variants = {"shifted-forcing": shifted_forcing_duffing,
                "time-modulated-h": time_modulated_gompertz,
                "time-modulated-duffing": time_modulated_duffing}
    return variants[name]() if name in variants else build_example(name)


def brute_seed_table(prob, rep, amps, M):
    # the whole scan: the zero element, then one batched evaluation of
    # every direction per radius
    def objective(u):
        N = nemytskii_eval(prob, u, M)
        return np.linalg.norm(KernelElement.from_poly(rep, N).amps, axis=-1)

    kb = max(k for k, _ in rep.kernel_slots())
    cols = [objective(KernelElement(rep, r * amps).to_poly()) for r in solver.SEED_RADII]
    return float(objective(TrigPoly.zero(prob.n, kb))), np.stack(cols, axis=1)


@pytest.mark.parametrize("example", NU1_EXAMPLES + ("shifted-forcing",
                                                   "time-modulated-duffing",
                                                   "weakly-coupled", "beam"))
def test_seed_table_matches_the_full_scan(example):
    # on the time-shift orbits the table is read off one evaluation at the
    # orbit representatives; time-modulated-duffing, whose h has an
    # explicit t, evaluates every design element
    prob = seed_problem(example)
    rep = resonant_set(prob.P, prob.Lam)
    a_p = KernelElement.from_poly(rep, prob.p).amps[0]
    assert rep.nu == (2 if example in ("weakly-coupled", "beam") else 1)
    assert (abs(a_p.imag) > 0.1) == (example == "shifted-forcing")
    amps = sphere_design(rep, solver.SEED_SAMPLES)[0]
    # the samples are shifts by multiples of 2 pi / (P gcd(k)) (P = 64 on a
    # two-dimensional kernel, else 8), grid translations of 2048 points,
    # where the pseudospectral N commutes with them exactly (on other grids
    # the two tables differ by the aliasing error)
    M = 2048
    zero, objs = solver._seed_table(prob, rep, amps, M)
    want_zero, want = brute_seed_table(prob, rep, amps, M)
    assert objs.shape == want.shape == (64, 7)
    assert abs(zero - want_zero) <= 1e-12
    assert np.max(np.abs(objs - want)) <= 1e-12


def recorded_seed_scan(prob, monkeypatch):
    calls = []
    eval_nemytskii = solver.nemytskii_eval

    def recording(p, u, M):
        calls.append(u.coeffs.shape[:-2])
        return eval_nemytskii(p, u, M)

    monkeypatch.setattr(solver, "nemytskii_eval", recording)
    return seed_kernel(prob), calls


@pytest.mark.parametrize("example", NU1_EXAMPLES + ("shifted-forcing",))
def test_seed_scan_on_a_two_dimensional_kernel_is_one_evaluation(example, monkeypatch):
    # the zero element and the seven radii at phase 0, in one batch
    seeds, calls = recorded_seed_scan(seed_problem(example), monkeypatch)
    assert calls == [(8,)]
    assert len(seeds) > 0


@pytest.mark.parametrize("example", ["weakly-coupled", "beam"])
def test_seed_scan_on_a_four_dimensional_kernel_is_one_evaluation(example, monkeypatch):
    # the zero element once, then the seven radii at each of the eight
    # orbit representatives of the 64-element design, in one batch
    _, calls = recorded_seed_scan(seed_problem(example), monkeypatch)
    assert calls == [(57,)]


@pytest.mark.parametrize("example", ["time-modulated-h", "time-modulated-duffing"])
def test_seed_scan_off_the_orbit_is_one_evaluation(example, monkeypatch):
    # an explicit t in h breaks shift equivariance: every design element is
    # its own orbit, and the zero element once and the seven radii at each
    # of the 64 go in one batch
    prob = seed_problem(example)
    assert prob.h is not None and prob.h.time_dependent
    _, calls = recorded_seed_scan(prob, monkeypatch)
    assert calls == [(449,)]


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


@pytest.mark.parametrize("example", ["gompertz-system", "weakly-coupled"])
def test_staged_solve_matches_coarse_band_solution(example):
    # at kmax 256 Newton iterates on the rung of 16 modes, the rung of 32
    # takes no step, so the full band confirms at once: the solution is the
    # kmax 64 one, padded
    prob = build_example(example)
    wide = solve_best(prob, SolveConfig(kmax=256))
    assert wide.converged and wide.u.kmax == 256
    assert wide.pointwise_residual <= 1e-8
    assert {e["kmax"] for e in wide.trace if "kmax" in e} == {16, 32}
    assert "kmax" not in wide.trace[-1]
    narrow = solve_best(prob, SolveConfig(kmax=64))
    assert np.max(np.abs(wide.u.coeffs - narrow.u.pad(256).coeffs)) <= 1e-12


def test_staged_coarse_band_covers_the_forcing():
    # a forcing mode above COARSE_KMAX widens the first rung to reach it
    prob = build_example("duffing-delay")
    prob = dataclasses.replace(prob, p=prob.p + TrigPoly.cosine(80, amplitude=0.01))
    res = solve_best(prob, SolveConfig(kmax=128))
    assert res.converged and res.pointwise_residual <= 1e-8
    assert {e["kmax"] for e in res.trace if "kmax" in e} == {80}
    assert abs(res.u.coeffs[80, 0]) > 1e-7


def test_staged_solve_shares_the_iteration_budget():
    prob = build_example("gompertz-system")
    full = solve_best(prob, SolveConfig(kmax=256))
    coarse_iters = max(e["iter"] for e in full.trace if "kmax" in e)
    assert full.iterations == coarse_iters >= 2    # the full band only confirms
    exact = solve_periodic(prob, full.seed,
                           SolveConfig(kmax=256, max_iter=coarse_iters))
    assert exact.converged and exact.iterations == coarse_iters
    # one iteration short: the coarse stage stops and the full band gets none
    short = solve_periodic(prob, full.seed,
                           SolveConfig(kmax=256, max_iter=coarse_iters - 1))
    assert not short.converged and short.iterations == coarse_iters - 1
    assert [e["iter"] for e in short.trace if "kmax" not in e] == [coarse_iters - 1]


def test_band_ladder_climbs_when_the_narrow_rung_falls_short(monkeypatch):
    # duffing-delay at kmax 64 converges at 16 modes, but that solution
    # misses the tolerance once padded to 32: Newton iterates again there,
    # and the full band only confirms
    prob = build_example("duffing-delay")
    config = SolveConfig(kmax=64)
    res = solve_best(prob, config)
    assert res.converged and res.iterations == 4
    # each rung traces its first residual, then one entry per iteration
    rungs = [e.get("kmax", 64) for e in res.trace]
    assert [rungs.count(k) - 1 for k in (16, 32, 64)] == [3, 1, 0]
    # the same solution as Newton on the full band from the start
    monkeypatch.setattr(solver, "COARSE_KMAX", 64)
    one = solve_best(prob, config)
    assert one.converged and all("kmax" not in e for e in one.trace)
    assert np.max(np.abs(res.u.coeffs - one.u.coeffs)) <= 1e-10


@pytest.mark.parametrize("kmax", [64, 256])
def test_wide_solve_makes_one_core_call_per_iteration(kmax, monkeypatch):
    # the seed scan, the first residual at 16 modes, one per iteration, the
    # check at 32 modes, the full band and its doubled grid: the Jacobian
    # reads the samples of the residual that accepted its iterate, and the
    # rungs between 32 modes and the full band are skipped
    calls, jacobians = [], []
    core, jacobian = nonlinearity.nemytskii_core, solver.coefficient_jacobian

    def recording(p, c, M):
        calls.append(c.shape)
        return core(p, c, M)

    def recording_jacobian(p, u, samples=None):
        jacobians.append(u.kmax)
        return jacobian(p, u, samples)

    monkeypatch.setattr(nonlinearity, "nemytskii_core", recording)
    monkeypatch.setattr(solver, "nemytskii_core", recording)
    monkeypatch.setattr(solver, "coefficient_jacobian", recording_jacobian)
    res = solve_best(build_example("gompertz-system"), SolveConfig(kmax=kmax))
    assert res.converged and res.iterations == 4
    assert len(calls) == res.iterations + 5
    assert set(jacobians) == {16}


@pytest.mark.parametrize("example", ["duffing-delay", "duffing-distributed",
                                     "distributed-sine"])
def test_warm_start_from_a_converged_solution_takes_no_iteration(example):
    # the seed starts on the first rung that holds its live band (32 modes
    # here), where the padded iterate already meets the tolerance
    prob = build_example(example)
    first = solve_best(prob)
    again = solve_periodic(prob, seed=first.u)
    assert again.converged and again.iterations == 0
    assert {e.get("kmax") for e in again.trace} == {32, None}
    assert np.max(np.abs(again.u.coeffs - first.u.coeffs)) == 0.0


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


@pytest.mark.parametrize("example", ["weakly-coupled", "distributed-sine"])
def test_verify_pointwise_ignores_trailing_zero_modes(example):
    # the defect reads only the live band; the grid gate reads the declared one
    prob = build_example(example)
    u = solve_best(prob).u
    wide = u.pad(4 * u.kmax)
    M = 8 * wide.kmax
    assert abs(verify_pointwise(prob, wide) - verify_pointwise(prob, u, M)) <= 1e-15
    with pytest.raises(GridTooSmall):
        verify_pointwise(prob, wide, 8 * u.kmax)


def eval_sum(c, M):
    """``_grid_sum`` by the TrigPoly.eval route: a (points x modes) table."""
    vals = TrigPoly(np.moveaxis(c, 0, -2)).eval(TWO_PI * np.arange(M) / M)
    return np.moveaxis(vals, -2, 0)


@pytest.mark.parametrize("M, K", [(17, 8), (129, 64), (97, 20), (97, 0),
                                  (384, 40), (2048, 64), (2048, 0)])
@pytest.mark.parametrize("cols", [(1,), (2, 3)])
def test_grid_sum_matches_irfft_and_eval(M, K, cols):
    rng = np.random.default_rng(M + K + len(cols))
    shape = (K + 1,) + cols
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c[0] = c[0].real
    got = _grid_sum(c, M)
    tol = 1e-13 * (1.0 + np.sum(np.abs(c)))
    assert got.shape == (M,) + cols
    assert np.max(np.abs(got - np.fft.irfft(c, M, axis=0, norm="forward"))) <= tol
    assert np.max(np.abs(got - eval_sum(c, M))) <= tol


@pytest.mark.parametrize("example", ALL_EXAMPLES)
def test_verify_pointwise_matches_direct_evaluation(example, monkeypatch):
    # atoms and forcing are direct sums over the grid without any
    # TrigPoly.eval table, and agree with the TrigPoly.eval route, on the
    # solution and on a perturbed one whose defect is large
    prob = build_example(example)
    u = solve_best(prob).u
    wrong = u + TrigPoly.cosine(3, amplitude=0.01, n=u.n, kmax=u.kmax)

    def no_eval(self, t):
        raise AssertionError("verify_pointwise called TrigPoly.eval")

    with monkeypatch.context() as m:
        m.setattr(TrigPoly, "eval", no_eval)
        got = [verify_pointwise(prob, v) for v in (u, wrong)]
    monkeypatch.setattr(solver, "_grid_sum", eval_sum)
    want = [verify_pointwise(prob, v) for v in (u, wrong)]
    assert got[1] > 1e-3
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-14


def test_verify_pointwise_detects_wrong_solution():
    prob = build_example("duffing-delay")
    u = TrigPoly.cosine(1, amplitude=0.3, kmax=8)
    assert verify_pointwise(prob, u, 256) > 1e-2


def test_linear_duffing_residual_exact():
    prob = linear_duffing()
    u = TrigPoly.cosine(2, amplitude=-1.0 / 3.0, kmax=8)
    assert assemble_residual(prob, u).norm_l2() < 1e-14
    assert verify_pointwise(prob, u, 256) < 1e-14


def test_singular_jacobian_falls_back_to_least_squares():
    # the k = 1 rows of J vanish exactly, so the LU step raises and the
    # least-squares step lands on the minimum-norm solution
    prob = linear_duffing()
    J = coefficient_jacobian(prob, TrigPoly.zero(1, 8))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(J, np.ones(J.shape[0]))
    res = solve_periodic(prob)
    assert res.converged and res.iterations == 1
    expect = TrigPoly.cosine(2, amplitude=-1.0 / 3.0, kmax=8)
    assert (res.u - expect).norm_l2() < 1e-14


def test_residual_zero_at_origin_without_forcing():
    prob = build_example("duffing-delay", c=0.0)
    assert assemble_residual(prob, TrigPoly.zero(1, 16)).norm_l2() == 0.0


def test_seed_kernel_empty_off_resonance():
    assert seed_kernel(linear_gompertz()) == []
