"""Existence certification: projection formula, margins, degree, scans."""

import numpy as np
import pytest

from fde import (KernelElement, TrigPoly, apply_deviation, build_example,
                 certify, degree_product, eval_grid, degree_winding, gamma_convergence,
                 gamma_tilde, ll_margin, project_kernel,
                 resonant_set, small_set_measure, sphere_samples, sphere_scan)
from fde.catalog import EXAMPLE_IDS
from fde.errors import (BlockStructureError, DimensionMismatch,
                        R2ViolationError)
from fde.lazer_leach import (ORBIT_PHASES, SphereSample, _sorted_distinct, _sphere_table,
                             _strata, kernel_forcing_coords, sphere_design)
from fde.resonance import deviation_eigenvalues
from fde.sobol import _ndtri, _sobol_amps, _sobol_points

import oracles

TWO_PI = 2.0 * np.pi
TWO_OVER_PI = 2.0 / np.pi
EPS = np.finfo(float).eps

# frozen oracle constants (tests/oracles.py prints them)
TAIL_CONSTANT = 0.1738935581
ARCSINE_01 = 0.0450534136
PRED_E_1E3 = 0.0131868707
PRED_E_1E4 = 0.0041700547


def scalar_report(prob):
    return resonant_set(prob.P, prob.Lam)


def pow2_above(x):
    """Smallest power of two above ``x``, at least 1 (``R`` and ``S`` of
    :func:`gamma_convergence`)."""
    return np.ldexp(1.0, max(np.frexp(x)[1], 0))


# -- projection formula ------------------------------------------------


def test_projection_formula_plain():
    # unforced scalar problem: coordinate of the projected limit field is
    # (jump/pi) e^{-i phi} for the phase-phi kernel sample
    prob = build_example("duffing-delay", c=0.0, tau=0.0)
    rep = scalar_report(prob)
    for phi in TWO_PI * np.arange(16) / 16:
        w = SphereSample.single_phase(rep, phi)
        gt = gamma_tilde(prob, w)
        target = TWO_OVER_PI * np.exp(-1j * phi)
        assert abs(gt.amps[0] - target) < 1e-12


def test_projection_formula_delay_shift():
    tau = 1.1
    prob = build_example("duffing-delay", c=0.0, tau=tau)
    rep = scalar_report(prob)
    for phi in TWO_PI * np.arange(16) / 16:
        w = SphereSample.single_phase(rep, phi)
        gt = gamma_tilde(prob, w)
        target = TWO_OVER_PI * np.exp(-1j * (phi + tau))
        assert abs(gt.amps[0] - target) < 1e-12


def quad_gamma_tilde(prob, w):
    """Kernel coordinates of ``limit(Psi w) - p`` from the quad oracle."""
    y = apply_deviation(prob.Psi, w.to_poly())
    c = oracles.gamma_tilde_quad(prob.g, y, y.kmax) - prob.p.truncate(y.kmax).coeffs
    return KernelElement.from_poly(w.report, TrigPoly(c)).amps


def assert_gamma_tilde_matches_quad(prob, amps, tol=1e-12):
    rep = scalar_report(prob)
    got = gamma_tilde(prob, KernelElement(rep, amps)).amps
    for a, gt in zip(amps, got):
        want = quad_gamma_tilde(prob, KernelElement(rep, a))
        assert np.max(np.abs(gt - want)) < tol


@pytest.mark.parametrize("ex", EXAMPLE_IDS)
def test_gamma_tilde_matches_quad(ex):
    prob = build_example(ex)
    samples = sphere_samples(scalar_report(prob), 8, seed=5)
    assert_gamma_tilde_matches_quad(prob, np.array([w.amps for w in samples]))


def test_gamma_tilde_matches_quad_sign_table():
    # a 2-component sign table couples the components: its value on an arc
    # depends on the signs of both
    import dataclasses
    from fde import BoundedNonlinearity
    g = BoundedNonlinearity("sign_table", table={
        "++": [1.0, 0.5], "+-": [0.7, -1.2], "-+": [-0.4, 0.9],
        "--": [-1.1, -0.6]}, zero_value=[0.2, -0.1])
    prob = dataclasses.replace(build_example("weakly-coupled"), g=g)
    samples = sphere_samples(scalar_report(prob), 8, seed=5)
    assert_gamma_tilde_matches_quad(prob, np.array([w.amps for w in samples]))


def test_step_coefficients_zero_component():
    # gompertz-system's second component of Psi w is identically zero and
    # gets g(0) = value(0) = 0.4 on the whole period
    import dataclasses
    from fde import BoundedNonlinearity
    from fde.nonlinearity import ComponentProfile
    from fde.lazer_leach import _step_coefficients
    g = BoundedNonlinearity("componentwise", components=[
        ComponentProfile("tanh", -1.0, 1.0), ComponentProfile("atan", 0.2, 0.6)])
    prob = dataclasses.replace(build_example("gompertz-system"), g=g)
    for w in sphere_samples(scalar_report(prob), 8, seed=5):
        y = apply_deviation(prob.Psi, w.to_poly())
        assert not np.any(y.coeffs[:, 1])
        got = _step_coefficients(prob.g, y)
        assert got[0, 1] == pytest.approx(0.4, abs=1e-15)
        assert np.max(np.abs(got - oracles.gamma_tilde_quad(g, y, y.kmax))) < 1e-12
        assert_gamma_tilde_matches_quad(prob, w.amps[None, :])


@pytest.mark.parametrize("ex", ["weakly-coupled", "beam"])
def test_gamma_tilde_matches_quad_mixed_degree_batch(ex):
    # coordinate probes like degree_product's zero a whole component
    # (weakly-coupled: degree patterns (1, 0), (0, 1), (1, 1)) or a whole
    # frequency (beam: degrees 1 and 2 in one batch)
    prob = build_example(ex)
    probes = np.eye(2) / np.sqrt(2.0)
    samples = sphere_samples(scalar_report(prob), 6, seed=5)
    amps = np.concatenate([probes[:1], [w.amps for w in samples[:3]],
                           probes[1:], [w.amps for w in samples[3:]]])
    assert_gamma_tilde_matches_quad(prob, amps)


@pytest.mark.parametrize("eps", [1e-6, -1e-6])
def test_gamma_tilde_matches_quad_near_tangent(eps):
    # y = cos t + (1 - eps) cos 2t peaks at -eps at t = pi: two zeros
    # 1.6e-3 apart (eps < 0), or a root pair just off the circle (eps > 0)
    prob = build_example("beam")
    amps = np.array([[0.5, 0.5 * (1.0 - eps)]])
    assert_gamma_tilde_matches_quad(prob, amps)


def test_root_angles_match_np_roots():
    # the batched companion eigenvalues are np.roots of each component's
    # z^d y_c(z), bit for bit; the padding slots hold the angle 0
    from fde.lazer_leach import _root_angles
    prob = build_example("beam")
    rep = scalar_report(prob)
    amps = np.array([[0.5, 0.0], [0.0, 0.5]]
                    + [w.amps for w in sphere_samples(rep, 6, seed=5)])
    coeffs = apply_deviation(prob.Psi, KernelElement(rep, amps).to_poly()).coeffs
    got = _root_angles(coeffs)
    assert got.shape == (8, 1, 4)
    for c, angles in zip(coeffs[..., 0], got[:, 0]):
        d = np.flatnonzero(c[1:])[-1] + 1
        poly = np.concatenate([c[d:0:-1], c[:1], np.conj(c[1:d + 1])])
        want = np.angle(np.roots(poly)) % TWO_PI
        assert angles[:2 * d].tobytes() == want.tobytes()
        assert not np.any(angles[2 * d:])


def test_gamma_tilde_makes_no_grid_call(monkeypatch):
    import dataclasses
    import fde.lazer_leach
    import fde.trigpoly
    from fde import BoundedNonlinearity

    def forbidden(*args, **kwargs):
        raise AssertionError("eval_grid called")

    monkeypatch.setattr(fde.lazer_leach, "eval_grid", forbidden)
    monkeypatch.setattr(fde.trigpoly, "eval_grid", forbidden)
    prob = build_example("weakly-coupled")
    table = BoundedNonlinearity("sign_table", table={
        "++": [1.0, 1.0], "+-": [1.0, -1.0], "-+": [-1.0, 1.0],
        "--": [-1.0, -1.0]})
    for p in (prob, dataclasses.replace(prob, g=table)):
        scan = sphere_scan(p, n_samples=64)
        assert scan.r2["holds"]


ONE_FREQUENCY_EXAMPLES = ("duffing-delay", "duffing-distributed", "gompertz-system",
                          "weakly-coupled", "distributed-uniform", "distributed-sine")


def arc_gamma_tilde(prob, amps):
    """Kernel coordinates of ``g_w - p`` from the arc sum over the zeros
    of ``Psi w`` (:func:`_step_coefficients`)."""
    from fde.lazer_leach import _step_coefficients
    rep = scalar_report(prob)
    y = apply_deviation(prob.Psi, KernelElement(rep, amps).to_poly())
    coeffs = _step_coefficients(prob.g, y)
    return (KernelElement.from_poly(rep, TrigPoly(coeffs)).amps
            - kernel_forcing_coords(prob, rep))


def forbid_root_finding(monkeypatch):
    # no companion eigenvalues, no panels graded from their angles and no
    # evaluation of Psi w at the panel nodes
    import fde.lazer_leach as ll

    def forbid(owner, name):
        def forbidden(*args, **kwargs):
            raise AssertionError(f"{name} called")
        monkeypatch.setattr(owner, name, forbidden)

    forbid(ll, "_root_angles")
    forbid(ll, "_panels")
    forbid(TrigPoly, "eval")


@pytest.mark.parametrize("name,params", [(ex, {}) for ex in ONE_FREQUENCY_EXAMPLES]
                         + [("duffing-delay", {"c": 0.0}),
                            ("weakly-coupled", {"c1": 4.0 / np.pi, "c2": 0.0})])
def test_closed_form_field_matches_the_arc_sum(name, params, monkeypatch):
    # on a componentwise field with one slot frequency g_w is a square wave
    # per component; its closed-form mode matches the arc sum on random
    # batches, off the unit sphere too, and on the strata, where a
    # component of Psi w vanishes and g_w is g_c(0)
    prob = build_example(name, **params)
    rep = scalar_report(prob)
    rng = np.random.default_rng(11)
    batch = rng.standard_normal((3, 5, rep.nu)) + 1j * rng.standard_normal((3, 5, rep.nu))
    strata = _strata(prob, rep)
    orbit = np.exp(-1j * TWO_PI * np.arange(16) / 16)[:, None, None] * strata
    cases = [batch, orbit.reshape(-1, rep.nu)] if len(strata) else [batch]
    wants = [arc_gamma_tilde(prob, a) for a in cases]
    forbid_root_finding(monkeypatch)
    for amps, want in zip(cases, wants):
        got = gamma_tilde(prob, KernelElement(rep, amps)).amps
        assert got.shape == amps.shape
        assert np.max(np.abs(got - want)) <= 1e-14
    if name == "weakly-coupled":
        # each stratum zeroes one component of Psi w exactly
        y = apply_deviation(prob.Psi, KernelElement(rep, strata).to_poly()).coeffs
        assert np.count_nonzero(np.all(y == 0.0, axis=1)) == 2


@pytest.mark.parametrize("name", ONE_FREQUENCY_EXAMPLES)
def test_one_frequency_certificates_find_no_roots(name, monkeypatch, capsys):
    # every kernel slot at one frequency and a componentwise field: the
    # sphere scan, the degree, the small set and check-ll run without a
    # companion eigenvalue problem
    from fde.cli import main
    forbid_root_finding(monkeypatch)
    prob = build_example(name)
    rep = scalar_report(prob)
    doc = certify(prob, rep, n_samples=256)
    assert doc["R2"]["holds"] and doc["degree"]["degree"] == (-1) ** rep.nu
    w0 = SphereSample(rep, sphere_design(rep, 1)[0][0])
    # w0 = 2 Re(e^{ikt} v) has |w0|^2 = 2|v|^2 + 2|v.v| cos(2kt + arg v.v),
    # so {|w0| < eps} is where that cosine lies below x, an arc of measure
    # 1 - arccos(x)/pi (0 when eps is below min |w0|, as on weakly-coupled)
    poly = w0.to_poly()
    k = int(np.flatnonzero(np.any(poly.coeffs != 0, axis=-1))[0])
    v = poly.coeffs[k]
    A, B = 2.0 * np.vdot(v, v).real, np.sum(v * v)
    t = TWO_PI * np.arange(256) / 256
    assert np.allclose(np.sum(eval_grid(poly, 256) ** 2, axis=-1),
                       A + 2.0 * abs(B) * np.cos(2 * k * t + np.angle(B)), rtol=0, atol=1e-12)
    x = np.clip((0.1 ** 2 - A) / (2.0 * abs(B)), -1.0, 1.0)
    assert small_set_measure(w0, 0.1) == pytest.approx(1.0 - np.arccos(x) / np.pi, abs=1e-12)
    E = gamma_convergence(prob, w0, (1e2, 1e3, 1e4))
    assert E[0] > E[1] > E[2] > 0.0
    assert main(["check-ll", name]) == 0
    capsys.readouterr()


def test_convergence_bits_do_not_depend_on_when_the_rule_is_built():
    # the Gauss-Legendre rule is built on first use; the first call, which
    # builds it, and a later one give the same bits, pinned on beam's
    # panel path
    import fde.lazer_leach as ll
    prob = build_example("beam")
    rep = resonant_set(prob.P, prob.Lam)
    w = KernelElement(rep, (np.linspace(0.2, 0.5, rep.nu) * (1 + 0.5j))[None])
    pinned = ["0x1.88d918ba5894cp-5", "0x1.f0ea37a86a758p-7", "0x1.3a46cd0f9dd65p-8"]
    ll._gauss_legendre.cache_clear()
    first = gamma_convergence(prob, w, (1e2, 1e3, 1e4))
    assert ll._gauss_legendre.cache_info().currsize == 1
    later = gamma_convergence(prob, w, (1e2, 1e3, 1e4))
    assert [x.hex() for x in first.tolist()] == [x.hex() for x in later.tolist()] == pinned


def panel_convergence(prob, w, s_values, M, monkeypatch):
    """``gamma_convergence`` on the panel path graded from the root angles
    of ``Psi w``, which every input takes when the frequency test fails."""
    import fde.lazer_leach as ll
    with monkeypatch.context() as m:
        m.setattr(ll, "_one_frequency", lambda report: None)
        return gamma_convergence(prob, w, s_values, M=M)


@pytest.mark.parametrize("name", ONE_FREQUENCY_EXAMPLES)
def test_closed_form_convergence_matches_the_panel_path(name, monkeypatch):
    # each component of Psi w is r_c cos(k t + phi_c), so E(s)^2 is a
    # quarter-period integral in delta = k t + phi_c - pi/2.  Checked on
    # random w off the unit sphere, the strata (a component of Psi w is 0)
    # and w = 0: against the panel path at s = 1e2, 1e4, within the 2e-12
    # that its own rounding of Psi w near a zero reaches at 1e4 (1e-10 at
    # 1e6 and 1e-7 at 1e9), and against the tanh tail law
    # E^2 = (2/pi)(2 ln 2 - 1) sum_c half_c^2 / (s r_c) + O(s^-3) at
    # s = 1e6, 1e9.  A cap M leaves the value unchanged
    import fde.lazer_leach as ll
    prob = build_example(name)
    rep = scalar_report(prob)
    assert {(p.kind, p.scale, p.shift) for p in prob.g.components} == {("tanh", 1.0, 0.0)}
    half = np.array([p.half for p in prob.g.components])
    rng = np.random.default_rng(23)
    cases = [0.3 * rng.standard_normal((2, rep.nu)) + 0.3j * rng.standard_normal((2, rep.nu)),
             _strata(prob, rep), np.zeros((1, rep.nu))]
    s_values = np.array([1e2, 1e4, 1e6, 1e9])
    caps, rule = [], ll._rule

    def recording(edges, s, per_unit):
        caps.append(per_unit)
        return rule(edges, s, per_unit)

    ll._quarter_rule.cache_clear()
    monkeypatch.setattr(ll, "_rule", recording)
    for amps in np.concatenate(cases):
        w = KernelElement(rep, amps)
        E = gamma_convergence(prob, w, s_values)
        np.testing.assert_allclose(gamma_convergence(prob, w, s_values, M=64), E, rtol=1e-14)
        if not amps.any():
            assert not E.any()
            continue
        np.testing.assert_allclose(
            E[:2], panel_convergence(prob, w, s_values[:2], 4096, monkeypatch), rtol=2e-12)
        r = 2.0 * np.abs(apply_deviation(prob.Psi, w.to_poly()).coeffs[rep.K[-1]])
        tail = (2.0 / np.pi) * (2.0 * np.log(2.0) - 1.0) * np.sum(half[r > 0] ** 2 / r[r > 0])
        np.testing.assert_allclose(E[2:], np.sqrt(tail / s_values[2:]), rtol=1e-12)
    # M caps each panel at 2 pi / M in t, which is 2 pi k / M in delta
    k = rep.K[-1]
    assert sorted(set(caps) - {None, 4096 / TWO_PI}) == [64 / (TWO_PI * k)]


def test_closed_form_convergence_resolves_a_steep_layer(monkeypatch):
    # a large Psi w makes the saturation layer 1/(s r) far thinner than
    # 1/s: the closed form grades its panels from 1/(s R), R >= r a power
    # of two, and keeps the tail law.  The panel path grades from 1/(s S),
    # S >= max |(Psi w)'| = r a power of two, and keeps it too, up to the
    # rounding of Psi w near its zeros (about s S eps relative)
    prob = build_example("duffing-delay")
    rep = scalar_report(prob)
    w = KernelElement(rep, [1000.0])
    r = 2.0 * abs(apply_deviation(prob.Psi, w.to_poly()).coeffs[1, 0])
    s_values = np.array([1e4, 1e6])
    want = np.sqrt((2.0 / np.pi) * (2.0 * np.log(2.0) - 1.0) / (s_values * r))
    np.testing.assert_allclose(gamma_convergence(prob, w, s_values), want, rtol=1e-12)
    got = panel_convergence(prob, w, s_values, None, monkeypatch)
    assert np.all(np.abs(got - want) <= s_values * pow2_above(r) * EPS * want)


def test_two_frequency_kernel_keeps_the_arc_path(monkeypatch, capsys):
    # beam's slots sit at k = 1 and 2: its fields and its small set still
    # come from the roots, two calls in check-ll (the sphere scan's batch
    # and the small set), as do a mean or a second mode in w
    import fde.lazer_leach as ll
    from fde.cli import main
    calls = []
    root_angles = ll._root_angles

    def recording(coeffs):
        calls.append(np.shape(coeffs))
        return root_angles(coeffs)

    monkeypatch.setattr(ll, "_root_angles", recording)
    assert main(["check-ll", "beam"]) == 0
    capsys.readouterr()
    assert len(calls) == 2
    calls.clear()
    # and gamma_convergence grades its panels from those roots
    prob = build_example("beam")
    gamma_convergence(prob, sphere_samples(scalar_report(prob), 1, seed=0)[0], [1e2, 1e3])
    assert len(calls) == 1
    calls.clear()
    small_set_measure(TrigPoly(np.array([[0.2], [0.5]])), 0.5)
    small_set_measure(TrigPoly(np.array([[0.0], [0.5], [0.1]])), 0.5)
    const = TrigPoly(np.array([[0.3]]))
    assert small_set_measure(const, 0.5) == 1.0 and small_set_measure(const, 0.2) == 0.0
    assert len(calls) == 4


def test_gamma_tilde_radial_keeps_the_grid():
    # the radial limit field is continuous: gamma_tilde samples it on its
    # 4096-point grid, bit for bit the trapezoid formula below, and then
    # subtracts the kernel coordinates of p
    import dataclasses
    from fde import BoundedNonlinearity
    from fde.trigpoly import analyze_grid, eval_grid
    g = BoundedNonlinearity("radial", A=[[1.0, 0.3], [-0.2, 0.8]],
                            b=[0.1, -0.05])
    prob = dataclasses.replace(build_example("weakly-coupled"), g=g)
    rep = scalar_report(prob)
    w = KernelElement(rep, np.array([s.amps for s in sphere_samples(rep, 16, seed=5)]))
    M = 4096
    vals = g.limit(eval_grid(apply_deviation(prob.Psi, w.to_poly()), M))
    want = (KernelElement.from_poly(rep, analyze_grid(vals, 1)).amps
            - kernel_forcing_coords(prob, rep))
    assert gamma_tilde(prob, w).amps.tobytes() == want.tobytes()


def test_gamma_tilde_radial_on_one_line_is_exact():
    # gompertz's Psi w has one nonzero component, so y/|y| only flips sign
    # and the radial limit field is a step function, which the arc sum gets
    # exactly (a 4096-point trapezoid rule misses the coordinate by 6.8e-5
    # at phi = 0.3)
    import dataclasses
    from fde import BoundedNonlinearity
    g = BoundedNonlinearity("radial", A=[[1.0, 0.3], [-0.2, 0.8]],
                            b=[0.1, -0.05])
    prob = dataclasses.replace(build_example("gompertz-system"), g=g)
    w = SphereSample.single_phase(scalar_report(prob),
                                  np.array([0.0, 0.3, 1.7, 2.9, 5.1]))
    assert_gamma_tilde_matches_quad(prob, w.amps)


def test_gamma_tilde_lies_in_kernel():
    prob = build_example("duffing-delay")
    rep = scalar_report(prob)
    for w in sphere_samples(rep, 100, seed=4):
        gt = gamma_tilde(prob, w)
        u = gt.to_poly(kmax=8)
        assert (u - project_kernel(u, rep)).norm_l2() < 1e-12


@pytest.mark.parametrize("ex", ["duffing-delay", "weakly-coupled", "beam"])
def test_gamma_tilde_batch_matches_single_samples(ex):
    prob = build_example(ex)
    rep = scalar_report(prob)
    samples = sphere_samples(rep, 12, seed=2)
    batch = SphereSample(rep, np.array([w.amps for w in samples]).reshape(3, 4, -1))
    got = gamma_tilde(prob, batch).amps.reshape(12, -1)
    want = np.array([gamma_tilde(prob, w).amps for w in samples])
    assert np.max(np.abs(got - want)) <= 1e-14


def test_antipodal_symmetry():
    # odd g, p = 0: the projected field is odd in w
    prob = build_example("duffing-delay", c=0.0)
    rep = scalar_report(prob)
    for phi in (0.3, 1.9, 4.4):
        a = gamma_tilde(prob, SphereSample.single_phase(rep, phi)).amps
        b = gamma_tilde(prob, SphereSample.single_phase(rep, phi + np.pi)).amps
        assert np.max(np.abs(a + b)) < 1e-10


# -- margins -----------------------------------------------------------


def test_ll_margin_formula():
    for c in (0.5, 1.0, 1.2):
        prob = build_example("duffing-delay", c=c)
        out = ll_margin(prob)
        assert out["margin"] == pytest.approx(TWO_OVER_PI - c / 2.0,
                                              abs=1e-10)
    assert ll_margin(build_example("duffing-delay", c=4.0 / np.pi - 0.02))[
        "holds"]
    assert not ll_margin(build_example("duffing-delay", c=4.0 / np.pi + 0.02))[
        "holds"]


def test_ll_margin_two_components():
    prob = build_example("weakly-coupled")
    out = ll_margin(prob)
    # jumps 2 and 3, forcing amplitudes 0.25 and 0.2
    assert out["per_component"][0]["margin"] == pytest.approx(
        TWO_OVER_PI - 0.25, abs=1e-10)
    assert out["per_component"][1]["margin"] == pytest.approx(
        3.0 / np.pi - 0.2, abs=1e-10)
    assert out["margin"] == pytest.approx(TWO_OVER_PI - 0.25, abs=1e-10)


def test_sphere_scan_duffing_pass_and_fail():
    ok = sphere_scan(build_example("duffing-delay", c=1.0))
    assert ok.r2["holds"] and ok.n2["holds"]
    assert ok.r2["margin"] >= TWO_OVER_PI - 0.5 - 1e-9
    assert ok.n2["margin"] >= TWO_OVER_PI - 0.5 - 1e-9
    assert ok.r2["certified"] and ok.r2["samples"] is None
    assert ok.r2["note"] == "exact: the kernel sphere is one time-shift orbit"

    bad = sphere_scan(build_example("duffing-delay", c=2.0), n_samples=64)
    assert bad.r2["holds"]                 # |(2/pi) e^{ia} - 1| >= 1 - 2/pi
    assert not bad.n2["holds"]             # pairing gap goes negative
    assert bad.n2["margin"] < 0.0
    assert bad.n2["witness"] is not None


def test_scan_r2_dominates_ll_margin():
    for ex in ("duffing-delay", "weakly-coupled", "gompertz-system"):
        prob = build_example(ex)
        scan = sphere_scan(prob)
        assert scan.r2["margin"] >= ll_margin(prob)["margin"] - 1e-3, ex


def test_scan_deterministic_and_h_independent():
    a = sphere_scan(build_example("gompertz-system"))
    b = sphere_scan(build_example("gompertz-system"))
    assert a.to_dict() == b.to_dict()
    # h enters the N2 budget but not the sample seed
    c = sphere_scan(build_example("gompertz-system", h_amp=0.0))
    assert c.r2["margin"] == pytest.approx(a.r2["margin"], abs=1e-12)
    assert c.n2["margin"] > a.n2["margin"]  # zero budget widens the gap


def test_n2_budget_uses_h_sup():
    lo = sphere_scan(build_example("gompertz-system", h_amp=0.1))
    hi = sphere_scan(build_example("gompertz-system", h_amp=0.3))
    gap = lo.n2["margin"] - hi.n2["margin"]
    assert gap == pytest.approx(0.2 / np.sqrt(2.0), abs=1e-9)


# -- degree ------------------------------------------------------------


def test_degree_winding_duffing():
    prob = build_example("duffing-delay")
    assert degree_winding(prob) == -1


NU1_CASES = [("duffing-delay", {}, 0.0, -1), ("duffing-distributed", {}, 0.0, -1),
             ("gompertz-system", {}, 0.0, -1), ("distributed-uniform", {}, 0.0, -1),
             ("distributed-sine", {}, 0.0, -1), ("duffing-delay", {"c": 1.5}, 0.0, 0),
             ("duffing-delay", {"c": 2.0}, 0.0, 0),
             ("duffing-delay", {"c": 4.0 / np.pi}, 0.0, None),
             # a forcing phase makes a_p complex, which moves the witnesses
             ("gompertz-system", {}, 0.7, -1), ("duffing-delay", {"c": 1.5}, 2.0, 0)]


@pytest.mark.parametrize("name,params,shift,degree", NU1_CASES)
def test_two_dimensional_kernel_closed_forms(name, params, shift, degree):
    # on a 2-d kernel the sphere is one time-shift orbit, so R2, N2 and the
    # degree are closed forms: a dense phase scan approaches the margins
    # from above and winds as degree_winding says
    import dataclasses
    prob = build_example(name, **params)
    prob = dataclasses.replace(prob, p=prob.p.shift(shift))
    rep = scalar_report(prob)
    scan = sphere_scan(prob, rep)
    assert scan.r2["certified"] and scan.n2["certified"]
    mu = deviation_eigenvalues(rep, prob.Psi)[0]
    budget = scan.n2["h_budget"]

    def field_and_gap(amps):
        # the field's coordinate and the N2 pairing gap at each phase sample
        field = gamma_tilde(prob, KernelElement(rep, amps[:, None])).amps[:, 0]
        d = np.sqrt(2.0) * mu / abs(mu) * amps
        return field, np.real(np.conj(d) * field) - budget

    field, gaps = field_and_gap(np.exp(-1j * TWO_PI * np.arange(4096) / 4096)
                                / np.sqrt(2.0))
    for cert, values in ((scan.r2, np.abs(field)), (scan.n2, gaps)):
        assert cert["margin"] - 1e-12 <= values.min() <= cert["margin"] + 1e-6
        at, gap = field_and_gap(np.array(cert["witness"]["amps"]) @ [1.0, 1j])
        value = abs(at[0]) if cert is scan.r2 else gap[0]
        assert value == pytest.approx(cert["margin"], abs=1e-12)
    if degree is None:
        assert scan.r2["margin"] < 1e-9
        with pytest.raises(R2ViolationError):
            degree_winding(prob, rep)
    else:
        winding = np.sum(np.angle(np.roll(field, -1) / field)) / TWO_PI
        assert winding == pytest.approx(degree, abs=1e-9)
        assert degree_winding(prob, rep) == degree
    margin = ll_margin(prob, rep)["margin"]
    assert margin == pytest.approx(scan.n2["margin"] + budget, abs=1e-12)


def test_degree_winding_forcing_homotopy():
    for s in (0.0, 0.25, 0.5, 0.75, 1.0):
        prob = build_example("duffing-delay", c=s)
        assert degree_winding(prob) == -1, s


def test_degree_winding_needs_one_dimensional_kernel():
    with pytest.raises(DimensionMismatch):
        degree_winding(build_example("weakly-coupled"))


def test_degree_product_weakly_coupled():
    assert degree_product(build_example("weakly-coupled")) == 1


def test_degree_product_refuses_beam():
    # both resonant frequencies live in the single component
    with pytest.raises(BlockStructureError):
        degree_product(build_example("beam"))


def test_degree_product_refuses_vanishing_margin():
    # forcing above the jump bound: block margin goes nonpositive
    with pytest.raises(BlockStructureError):
        degree_product(build_example("weakly-coupled", c1=2.0))


def test_kernel_forcing_coords():
    prob = build_example("duffing-delay", c=1.0)
    rep = scalar_report(prob)
    a = kernel_forcing_coords(prob, rep)
    assert a[0] == pytest.approx(0.5, abs=1e-13)


# -- diagnostics -------------------------------------------------------


def test_small_set_arcsine():
    prob = build_example("duffing-delay")
    rep = scalar_report(prob)
    w = SphereSample.single_phase(rep, 0.0)
    val = small_set_measure(w, 0.1)
    assert val == pytest.approx(ARCSINE_01, abs=2e-4)
    assert val == pytest.approx(oracles.arcsine_measure(0.1), abs=2e-4)


@pytest.mark.parametrize("phase", [0.0, 1.3])
def test_small_set_arcsine_law_exact(phase):
    prob = build_example("duffing-delay")
    w = SphereSample.single_phase(scalar_report(prob), phase)
    for eps in (0.2, 0.1, 0.05):
        assert abs(small_set_measure(w, eps) - oracles.arcsine_measure(eps)) <= 1e-12


def test_small_set_matches_fine_grid_count_on_four_dimensional_kernel():
    # the Sobol sample check-ll reports for weakly-coupled, three more, and
    # four of gompertz-system (n = 2); a grid count is first order, within
    # a few crossings / M of the exact measure.  Some of the weakly-coupled
    # sets are empty at eps = 0.1
    M = 2 ** 20
    for name in ("weakly-coupled", "gompertz-system"):
        samples = sphere_samples(scalar_report(build_example(name)), 4, seed=0)
        assert 0.0 < small_set_measure(samples[0], 0.1) < 1.0
        for w in samples:
            sq = np.sum(eval_grid(w.to_poly(), M) ** 2, axis=1)
            for eps in (0.1, 0.3):
                frac = np.count_nonzero(sq < eps * eps) / M
                assert abs(small_set_measure(w, eps) - frac) <= 2e-6


def test_small_set_of_a_constant_modulus_element_is_exactly_zero_or_one():
    # weakly-coupled with amplitudes (1, i)/2 is (cos t, -sin t): |w| = 1
    # everywhere, so B = sum v_c^2 = 0 and the small set is empty below 1
    # and the whole circle above it
    rep = scalar_report(build_example("weakly-coupled"))
    w = KernelElement(rep, np.array([1.0, 1j]) / 2.0)
    v = w.to_poly().coeffs[1]
    assert np.sum(v * v) == 0.0
    vals = eval_grid(w.to_poly(), 64)
    assert np.max(np.abs(np.sum(vals * vals, axis=1) - 1.0)) <= 1e-15
    for eps, want in ((0.5, 0.0), (1.0 - 1e-9, 0.0), (1.0 + 1e-9, 1.0), (2.0, 1.0)):
        assert small_set_measure(w, eps) == want


def test_small_set_empty_is_exactly_zero():
    w = TrigPoly(np.array([[1.0], [0.1]]))        # |w| >= 0.8 everywhere
    assert small_set_measure(w, 0.5) == 0.0


def test_small_set_power_bound():
    prob = build_example("duffing-delay")
    rep = scalar_report(prob)
    w = SphereSample.single_phase(rep, 1.3)
    eps = [0.2, 0.1, 0.05]
    vals = [small_set_measure(w, e) for e in eps]
    assert vals[0] > vals[1] > vals[2] > 0.0          # monotone in eps
    C = vals[0] / eps[0] ** (1.0 / 3.0)               # fit at largest eps
    for e, v in zip(eps[1:], vals[1:]):
        assert v <= C * e ** (1.0 / 3.0)


def test_gamma_convergence_tail_law():
    prob = build_example("duffing-delay")
    rep = scalar_report(prob)
    w = SphereSample.single_phase(rep, 0.7)
    E = gamma_convergence(prob, w, [1e3, 1e4])
    assert E[0] == pytest.approx(PRED_E_1E3, rel=0.05)
    assert E[1] == pytest.approx(PRED_E_1E4, rel=0.05)
    assert E[1] < E[0] < 0.02
    for s, e in zip((1e3, 1e4), E):
        assert e ** 2 == pytest.approx(TAIL_CONSTANT / s, rel=0.3)


def test_gamma_convergence_nonincreasing():
    prob = build_example("gompertz-system")
    rep = scalar_report(prob)
    w = sphere_samples(rep, 3, seed=1)[2]
    E = gamma_convergence(prob, w, [10.0, 100.0, 1000.0])
    assert E[0] >= E[1] >= E[2]


def assert_matches_quad(prob, w, s_values, rel):
    y = apply_deviation(prob.Psi, w.to_poly())
    E = gamma_convergence(prob, w, s_values)
    for s, e in zip(s_values, E):
        assert e == pytest.approx(oracles.gamma_convergence_quad(prob.g, y, s),
                                  rel=rel)


@pytest.mark.parametrize("kind", ["tanh", "atan", "alg"])
def test_gamma_convergence_quad_profiles(kind):
    import dataclasses
    from fde import saturating
    prob = dataclasses.replace(build_example("duffing-delay"),
                               g=saturating(-1.0, 1.0, kind=kind))
    w = sphere_samples(scalar_report(prob), 1, seed=0)[0]
    assert_matches_quad(prob, w, [1e2, 1e4, 1e6], rel=1e-9)


def test_gamma_convergence_quad_shifted_profile():
    # a shifted profile makes g_w - g(s y) differ between y and -y, so both
    # halves of the quarter-period integral count
    import dataclasses
    from fde import saturating
    prob = dataclasses.replace(build_example("duffing-delay"),
                               g=saturating(-1.0, 1.0, shift=0.4))
    w = sphere_samples(scalar_report(prob), 1, seed=0)[0]
    assert_matches_quad(prob, w, [1e2, 1e4, 1e6], rel=1e-9)


def test_gamma_convergence_quad_radial():
    # a layer where |Psi w| vanishes (gompertz: second component is zero)
    # and none at all, only a near-tangent minimum of |Psi w| (weakly-coupled)
    import dataclasses
    from fde import BoundedNonlinearity
    g = BoundedNonlinearity("radial", A=[[1.0, 0.3], [-0.2, 0.8]],
                            b=[0.1, -0.05])
    for name, s_values in (("gompertz-system", [1e2, 1e4, 1e6]),
                           ("weakly-coupled", [1e2, 1e4, 1e6])):
        prob = dataclasses.replace(build_example(name), g=g)
        w = sphere_samples(scalar_report(prob), 1, seed=0)[0]
        assert_matches_quad(prob, w, s_values, rel=1e-9)


def test_gamma_convergence_radial_tail_without_zeros():
    # |Psi w| has no zero on weakly-coupled sample 0, so 1 - phi(s|y|)
    # ~ 1/(2 s^2 |y|^2) everywhere and E(s) s^2 -> ||G(v) / (2|y|^2)||_L2,
    # which a plain difference limit - g(s y) loses once s|y| ~ 1e8
    import dataclasses
    from fde import BoundedNonlinearity
    g = BoundedNonlinearity("radial", A=[[1.0, 0.3], [-0.2, 0.8]],
                            b=[0.1, -0.05])
    prob = dataclasses.replace(build_example("weakly-coupled"), g=g)
    w = sphere_samples(scalar_report(prob), 1, seed=0)[0]
    y = apply_deviation(prob.Psi, w.to_poly()).eval(TWO_PI * np.arange(4096) / 4096)
    r2 = np.sum(y * y, axis=1, keepdims=True)
    want = np.sqrt(np.mean(np.sum((g.limit(y) / (2.0 * r2)) ** 2, axis=1)))
    assert want == pytest.approx(16.6305543, abs=1e-7)
    E = gamma_convergence(prob, w, [1e9])
    assert E[0] * 1e18 == pytest.approx(want, rel=1e-6)


def test_gamma_convergence_quad_zero_component():
    prob = build_example("gompertz-system")
    rep = scalar_report(prob)
    w = sphere_samples(rep, 1, seed=0)[0]
    assert not np.any(apply_deviation(prob.Psi, w.to_poly()).coeffs[:, 1])
    assert_matches_quad(prob, w, [1e2, 1e4, 1e6], rel=1e-9)


def test_gamma_convergence_tail_law_large_amplitude():
    prob = build_example("duffing-delay")
    w = sphere_samples(scalar_report(prob), 1, seed=0)[0]
    s = np.array([1e6, 1e9])
    E = gamma_convergence(prob, w, s)
    np.testing.assert_allclose(E, np.sqrt(TAIL_CONSTANT / s), rtol=1e-6)


@pytest.mark.parametrize("eps", [1e-6, 0.0, -1e-6])
def test_gamma_convergence_near_tangent_zero(eps):
    # y = cos t + (1 - eps) cos 2t: at t = pi a maximum just below zero
    # (eps > 0), touching it, or just above it.  Only a root of the
    # companion polynomial off the unit circle marks the first layer.
    prob = build_example("beam")
    w = KernelElement(scalar_report(prob), [0.5, 0.5 * (1.0 - eps)])
    y = apply_deviation(prob.Psi, w.to_poly())
    assert y.eval(np.pi)[0, 0] == pytest.approx(-eps, abs=1e-15)
    assert_matches_quad(prob, w, [1e6], rel=1e-6)


def radial_gompertz():
    import dataclasses
    from fde import BoundedNonlinearity
    g = BoundedNonlinearity("radial", A=[[1.0, 0.3], [-0.2, 0.8]], b=[0.1, -0.05])
    return dataclasses.replace(build_example("gompertz-system"), g=g)


@pytest.mark.parametrize("make", [lambda: build_example("beam"), radial_gompertz],
                         ids=["beam", "radial"])
def test_panel_convergence_resolves_a_steep_layer(make):
    # the panel path grades from 1/(s S), S >= max_c sum_k 2 k |c_kc| >=
    # |(Psi w)'| a power of two, so the layer 1/(s |(Psi w)'|) stays resolved
    # when w grows (graded from 1/s, beam was off by 4e-3 at scale 30 and
    # 0.9 at 300).  E depends on s Psi w alone, so the scales 1, 30, 300 at
    # s = 1e2, 1e3 share five 20-digit mpmath values.  The float rounding
    # of Psi w near its zeros costs up to about s S eps relative
    pytest.importorskip("mpmath")
    prob = make()
    w = sphere_samples(scalar_report(prob), 1, seed=0)[0]
    y = apply_deviation(prob.Psi, w.to_poly())
    slope = 2.0 * np.max(np.arange(y.kmax + 1) @ np.abs(y.coeffs))
    ref = {}
    for scale in (1.0, 30.0, 300.0):
        for s in (1e2, 1e3):
            if s * scale not in ref:
                ref[s * scale] = oracles.gamma_convergence_mp(prob.g, y, s * scale)
            tol = max(1e-12, s * pow2_above(scale * slope) * EPS)
            assert gamma_convergence(prob, w * scale, [s])[0] == pytest.approx(
                ref[s * scale], rel=tol), (scale, s)


@pytest.mark.parametrize("s", [0.0, -10.0, np.inf, np.nan])
def test_gamma_convergence_rejects_bad_amplitude(s):
    prob = build_example("duffing-delay")
    w = sphere_samples(scalar_report(prob), 1, seed=0)[0]
    with pytest.raises(ValueError, match="positive and finite"):
        gamma_convergence(prob, w, [1e3, s])


# -- additional contract examples --------------------------------------


def test_gamma_unit_homogeneity():
    # scaling g and p together scales the projected field by the same factor
    import dataclasses
    from fde import saturating
    prob = build_example("duffing-delay")
    rep = scalar_report(prob)
    tripled = dataclasses.replace(prob, g=saturating(-3.0, 3.0), p=prob.p * 3.0)
    for w in sphere_samples(rep, 8, seed=9):
        a = gamma_tilde(prob, w).amps
        b = gamma_tilde(tripled, w).amps
        assert np.max(np.abs(b - 3.0 * a)) < 1e-12


def test_scan_r2_margin_is_projected_forcing_when_g_vanishes():
    import dataclasses
    from fde import saturating
    prob = build_example("duffing-delay")
    zero_g = dataclasses.replace(prob, g=saturating(0.0, 0.0))
    scan = sphere_scan(zero_g)
    rep = scalar_report(prob)
    expect = float(np.linalg.norm(kernel_forcing_coords(prob, rep)))
    assert scan.r2["margin"] == pytest.approx(expect, abs=1e-9)
    assert scan.r2["holds"]


def test_ll_margin_equal_limits_fails():
    import dataclasses
    from fde import saturating
    prob = dataclasses.replace(build_example("duffing-delay"),
                               g=saturating(0.3, 0.3))
    out = ll_margin(prob)
    assert out["margin"] == pytest.approx(-0.5, abs=1e-12)
    assert not out["holds"]


def test_small_set_saturates_at_full_measure():
    prob = build_example("duffing-delay")
    rep = scalar_report(prob)
    w = SphereSample.single_phase(rep, 0.4)
    assert small_set_measure(w, 2.0) == 1.0


def test_gamma_convergence_zero_for_sign_table():
    # a sign-table nonlinearity is already 0-homogeneous, so the finite
    # amplitude field equals the limit field at every grid point
    import dataclasses
    from fde import BoundedNonlinearity
    g = BoundedNonlinearity("sign_table", table={"+": [1.0], "-": [-1.0]},
                            zero_value=[0.0])
    prob = dataclasses.replace(build_example("duffing-delay"), g=g)
    rep = scalar_report(prob)
    w = SphereSample.single_phase(rep, 0.7)
    E = gamma_convergence(prob, w, [10.0, 1e3], M=4096)
    assert np.max(E) < 1e-14


def test_degree_product_single_component_matches_winding():
    prob = build_example("duffing-delay")
    assert degree_product(prob) == degree_winding(prob) == -1


def test_orbit_design_is_built_once_and_read_only():
    # element r P + l of the design is orbit representative r times the
    # shift diagonal l, and representatives lie on the unit sphere.  The
    # design and its shifts are built once per process and cannot be
    # written.  sphere_samples keeps its seed-0 scrambled Sobol draw
    from scipy.special import ndtri
    from scipy.stats import qmc
    prob = build_example("weakly-coupled")
    rep = resonant_set(prob.P, prob.Lam)
    design, shifts = sphere_design(rep, 64)
    assert design.shape == (64, 2) and shifts.shape == (ORBIT_PHASES, 2)
    reps = design[::ORBIT_PHASES]
    assert np.allclose(np.sqrt(2.0) * np.linalg.norm(reps, axis=-1), 1.0, rtol=0, atol=1e-15)
    assert design.tobytes() == (reps[:, None] * shifts).reshape(-1, 2).tobytes()
    assert sphere_design(rep, 64)[0] is design and sphere_design(rep, 64)[1] is shifts
    first = sphere_samples(rep, 1, seed=0)[0].amps
    for amps in (design, shifts, first):
        with pytest.raises(ValueError):
            amps[0] = 0.0
    z = ndtri(np.clip(qmc.Sobol(d=4, scramble=True, seed=0).random_base2(3), 1e-12, 1 - 1e-12))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    sobol = (z[:, :2] + 1j * z[:, 2:]) / np.sqrt(2.0)
    assert np.array([w.amps for w in sphere_samples(rep, 8, seed=0)]).tobytes() == sobol.tobytes()
    assert sphere_samples(rep, 1, seed=0)[0].amps.tobytes() == first.tobytes() == sobol[:1].tobytes()


def test_sobol_points_match_scipy_bit_for_bit():
    # the numpy port draws scipy's scrambled Sobol points: the same Joe-Kuo
    # direction numbers, the same LMS and shift from default_rng(seed).  The
    # last seed has five 32-bit words, one past SeedSequence's pool of four
    from scipy.stats import qmc
    for d in range(1, 9):
        for m in range(9):
            for seed in (*range(6), 2**32 + 5, 2**130 + 3):
                want = qmc.Sobol(d=d, scramble=True, seed=seed).random_base2(m)
                assert _sobol_points(d, m, seed).tobytes() == want.tobytes(), (d, m, seed)


def test_ndtri_matches_scipy_bit_for_bit():
    from scipy.special import ndtri
    # the tail sets take over below exp(-2) and above 1 - exp(-2), and
    # split at x = sqrt(-2 ln y) = 8, i.e. y = exp(-32)
    cut, tail = np.exp(-2.0), np.exp(-32.0) * np.array([1.0 - 1e-9, 1.0, 1.0 + 1e-9])
    x = np.sqrt(-2.0 * np.log(tail))
    assert x[0] > 8.0 > x[2]
    edges = [1e-12, 1.0 - 1e-12, 0.5, *tail, *(1.0 - tail)]
    for c in (cut, 1.0 - cut):
        edges += [np.nextafter(c, 0.0), c, np.nextafter(c, 1.0)]
    ys = np.concatenate([edges, [1e-15, 1e-100, 1e-300, 1.0 - 1e-16],
                         np.random.default_rng(3).random(10**5)])
    mine = np.array([_ndtri(y) for y in ys.tolist()])
    assert np.all(np.isfinite(mine))
    assert mine.tobytes() == ndtri(ys).tobytes()


def test_sobol_draw_refuses_more_than_eight_dimensions():
    # the direction numbers are tabulated for d <= 8, i.e. nu <= 4
    assert _sobol_amps(4, 2, 0).shape == (2, 4)
    with pytest.raises(ValueError):
        _sobol_amps(5, 1, 0)
    with pytest.raises(ValueError):
        _sobol_points(9, 0, 0)
    # a seed is a non-negative integer, read with operator.index: None (OS
    # entropy, then cached for the process) and floats are refused, even a
    # float equal to a seed already drawn
    prob = build_example("beam")
    rep = resonant_set(prob.P, prob.Lam)
    sphere_samples(rep, 1, 0)
    for seed in (None, 0.0, 1.5):
        with pytest.raises(TypeError):
            sphere_samples(rep, 1, seed)
        with pytest.raises(TypeError):
            _sobol_points(4, 1, seed)
    for draw in (lambda: sphere_samples(rep, 1, -1), lambda: _sobol_points(4, 1, -1)):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            draw()
    for seed, same in ((np.int64(0), 0), (True, 1), (np.uint8(1), 1)):
        assert sphere_samples(rep, 1, seed)[0].amps.tobytes() == \
            sphere_samples(rep, 1, same)[0].amps.tobytes()


def test_sorted_distinct_is_np_unique():
    rng = np.random.default_rng(0)
    for a in (np.zeros(0), np.array([3, 1, 3, 2, 1]), rng.integers(0, 5, (4, 6)),
              np.round(rng.random(200), 1), np.array([0.0, -0.0, 1.0, 0.0])):
        assert _sorted_distinct(a).tobytes() == np.unique(a).tobytes()


def test_orbit_shifts_are_time_shifts():
    # beam's slots sit at k = 1 and 2: shift l multiplies slot s by
    # e^{-i k_s phi_l}, phi_l = 2 pi l / 8, the coordinates of w(t - phi_l)
    prob = build_example("beam")
    rep = resonant_set(prob.P, prob.Lam)
    design, shifts = sphere_design(rep, 16)
    phi = TWO_PI * np.arange(ORBIT_PHASES) / ORBIT_PHASES
    w = KernelElement(rep, design[0]).to_poly()
    for l in range(ORBIT_PHASES):
        shifted = KernelElement.from_poly(rep, w.shift(-phi[l])).amps
        assert np.max(np.abs(shifted - design[l])) <= 1e-15


def sign_table_weakly_coupled():
    import dataclasses
    from fde import BoundedNonlinearity
    table = BoundedNonlinearity("sign_table", table={
        "++": [1.0, 1.0], "+-": [1.0, -1.0], "-+": [-1.0, 1.0],
        "--": [-1.0, -1.0]})
    return dataclasses.replace(build_example("weakly-coupled"), g=table)


NU1_EXAMPLES = ("duffing-delay", "duffing-distributed", "gompertz-system",
                "distributed-uniform", "distributed-sine")


def table_problem(name):
    if name == "sign-table":
        return sign_table_weakly_coupled()
    if name == "shifted-forcing":
        # a time-shifted forcing gives the kernel forcing a complex argument
        import dataclasses
        prob = build_example("duffing-delay")
        return dataclasses.replace(prob, p=prob.p.shift(0.7))
    return build_example(name)


@pytest.mark.parametrize("name", NU1_EXAMPLES + ("shifted-forcing", "weakly-coupled",
                                                 "sign-table", "beam"))
def test_sphere_table_matches_direct_evaluation(name, monkeypatch):
    # the orbit table reads every shifted field off one field evaluation
    # (_field_coords, gamma_tilde before the forcing is subtracted) at the
    # representatives and the strata; a direct gamma_tilde on every element
    # gives the same fields and N2 gaps.  Rows: the design; on one slot
    # frequency the R2 and N2 orbit minima of each representative; then
    # the strata
    import fde.lazer_leach as ll
    prob = table_problem(name)
    rep = resonant_set(prob.P, prob.Lam)
    calls = []

    field_coords = ll._field_coords

    def recording(p, w):
        calls.append(w.amps.shape)
        return field_coords(p, w)

    monkeypatch.setattr(ll, "_field_coords", recording)
    amps, gammas, gaps, first_stratum = _sphere_table(prob, rep, 256, 0.05)
    strata = len(_strata(prob, rep))
    assert strata == (2 if name in ("weakly-coupled", "sign-table") else 0)
    reps = 1 if rep.nu == 1 else 256 // ORBIT_PHASES
    assert calls == [(reps + strata, rep.nu)]
    assert amps[:256].tobytes() == sphere_design(rep, 256)[0].tobytes()
    closed = 0 if name == "beam" else 2
    assert first_stratum == 256 + closed * reps
    assert len(amps) == first_stratum + closed * strata
    direct = gamma_tilde(prob, KernelElement(rep, amps)).amps
    d = deviation_eigenvalues(rep, prob.Psi) * amps
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    want = np.real(np.sum(d.conj() * direct, axis=-1)) - 0.05
    assert np.max(np.abs(gammas - direct)) <= 1e-12
    assert np.max(np.abs(gaps - want)) <= 1e-12


@pytest.mark.parametrize("name", NU1_EXAMPLES + ("shifted-forcing",))
def test_two_dimensional_margins_are_the_phase_loop_closed_forms(name):
    # the field at phase phi is c0 e^{-i phi} - a_p, c0 read off one direct
    # gamma_tilde call at phase 0: R2 = ||c0| - |a_p|| at phase
    # arg c0 - arg a_p, and N2 = Re(conj(mu_hat) c0) - |a_p| - budget at
    # arg mu_hat - arg a_p
    prob = table_problem(name)
    rep = resonant_set(prob.P, prob.Lam)
    a_p = kernel_forcing_coords(prob, rep)[0]
    c0 = gamma_tilde(prob, SphereSample.single_phase(rep, 0.0)).amps[0] + a_p
    mu = deviation_eigenvalues(rep, prob.Psi)[0]
    budget = prob.h.sup_norm() / np.sqrt(2.0) if prob.h is not None else 0.0
    scan = sphere_scan(prob, rep)
    assert scan.n2["h_budget"] == budget
    r2 = abs(abs(c0) - abs(a_p))
    n2 = np.real(np.conj(mu / abs(mu)) * c0) - abs(a_p) - budget
    assert abs(scan.r2["margin"] - r2) <= 1e-15
    assert abs(scan.n2["margin"] - n2) <= 1e-15
    for cert, phase in ((scan.r2, np.angle(c0) - np.angle(a_p)),
                        (scan.n2, np.angle(mu) - np.angle(a_p))):
        want = SphereSample.single_phase(rep, phase).amps
        assert np.max(np.abs(witness_amps(cert) - want)) <= 1e-15


def test_orbit_minima_of_the_representatives_are_closed_forms(monkeypatch):
    # on one slot frequency each design representative adds its R2 and N2
    # orbit minima; a 720-phase scan of the orbit through each such row
    # starts at the row's value and never goes below it.  The rows come
    # before the strata, so a witness among them is off the strata
    import fde.lazer_leach as ll
    prob = build_example("weakly-coupled")
    rep = resonant_set(prob.P, prob.Lam)
    amps, gammas, gaps, first_stratum = _sphere_table(prob, rep, 32, 0.05)
    assert first_stratum == 32 + 2 * (32 // ORBIT_PHASES)
    mu = deviation_eigenvalues(rep, prob.Psi)
    phis = np.exp(-1j * TWO_PI * np.arange(720) / 720)[:, None]
    for i in range(32, first_stratum):
        orbit = phis * amps[i]
        fields = gamma_tilde(prob, KernelElement(rep, orbit)).amps
        if (i - 32) % 2 == 0:
            values, row = np.linalg.norm(fields, axis=-1), np.linalg.norm(gammas[i])
        else:
            d = mu * orbit
            d /= np.linalg.norm(d, axis=-1, keepdims=True)
            values, row = np.real(np.sum(d.conj() * fields, axis=-1)) - 0.05, gaps[i]
        assert abs(values[0] - row) <= 1e-12
        assert values.min() >= row - 1e-12
    # without the strata, both minima fall on closed-form rows
    monkeypatch.setattr(ll, "_strata", lambda prob, report: np.zeros((0, report.nu), complex))
    scan = sphere_scan(prob, rep)
    closed = amps[32:first_stratum]
    for cert in (scan.r2, scan.n2):
        assert cert["stratum"] is False
        assert np.min(np.max(np.abs(closed - witness_amps(cert)), axis=-1)) == 0.0


def witness_amps(cert):
    return np.array([complex(*z) for z in cert["witness"]["amps"]])


@pytest.mark.parametrize("c1,c2", [(0.5, 0.4), (4.0 / np.pi, 0.0)])
def test_strata_carry_the_weakly_coupled_minima(c1, c2):
    # on a_2 = 0 the second component of Psi w vanishes identically and the
    # field jumps onto g(0): both minima sit on that stratum, at phases in
    # closed form, where no sample of the design lands.  With
    # c1 = 4 / pi the field vanishes there and R2 fails
    prob = build_example("weakly-coupled", c1=c1, c2=c2)
    rep = resonant_set(prob.P, prob.Lam)
    strata = _strata(prob, rep)
    assert np.array_equal(np.abs(strata), np.eye(2)[::-1] / np.sqrt(2.0))
    scan = sphere_scan(prob, rep)
    for cert in (scan.r2, scan.n2):
        assert cert["stratum"] and cert["samples"] == 32
        assert cert["orbits"] == 4 and cert["phases"] == ORBIT_PHASES
    w = KernelElement(rep, witness_amps(scan.r2))
    assert abs(gamma_tilde(prob, w).coord_norm() - scan.r2["margin"]) <= 1e-12
    # the closed-form phase is the orbit minimum: a dense scan of the
    # stratum's time-shift orbit stays above it
    phis = np.exp(-1j * TWO_PI * np.arange(720) / 720)[:, None]
    for cert, metric in ((scan.r2, "R2"), (scan.n2, "N2")):
        orbit = KernelElement(rep, phis * witness_amps(cert))
        fields = gamma_tilde(prob, orbit).amps
        if metric == "R2":
            values = np.linalg.norm(fields, axis=-1)
        else:
            d = deviation_eigenvalues(rep, prob.Psi) * orbit.amps
            d /= np.linalg.norm(d, axis=-1, keepdims=True)
            values = np.real(np.sum(d.conj() * fields, axis=-1)) - cert["h_budget"]
        assert values.min() >= cert["margin"] - 1e-12
        assert values[0] == pytest.approx(cert["margin"], abs=1e-12)
    if c2 == 0.0:
        assert not scan.r2["holds"] and scan.r2["margin"] <= 1e-12
        assert scan.n2["margin"] == pytest.approx(-0.05, abs=1e-9)
    else:
        assert scan.r2["margin"] <= 0.4353 and scan.r2["holds"]
