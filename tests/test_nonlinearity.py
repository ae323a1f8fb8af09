"""Saturating nonlinearities, history perturbations, Nemytskii evaluation."""

import numpy as np
import pytest

from fde import (BoundedNonlinearity, ComponentProfile, DelayTap,
                 HistoryPerturbation, MatrixPolynomial, MeasureMatrix,
                 PerturbationTerm, ProblemSpec, ScalarMeasure, TrigPoly,
                 build_example, eval_grid, saturating)
from fde.nonlinearity import _PROFILES, nemytskii_eval

import oracles

TWO_PI = 2.0 * np.pi


def test_saturating_limits_and_tails():
    g = saturating(-1.0, 1.0, kind="tanh")
    assert g(np.array([[0.0]]))[0, 0] == 0.0
    for s, sign in ((1e3, 1.0), (1e4, 1.0), (-1e3, -1.0)):
        val = g(np.array([[s]]))[0, 0]
        assert abs(val - sign) < 1e-8


def test_asymmetric_limits():
    g = saturating(-0.5, 2.0, kind="tanh")
    lo, hi = g.components[0].lo, g.components[0].hi
    assert (lo, hi) == (-0.5, 2.0)
    assert g(np.array([[1e4]]))[0, 0] == pytest.approx(2.0, abs=1e-8)
    assert g(np.array([[-1e4]]))[0, 0] == pytest.approx(-0.5, abs=1e-8)
    assert g.jump(0) == pytest.approx(2.5)
    assert g.sup_norm() == pytest.approx(2.0, abs=1e-12)


def test_derivative_matches_fd():
    g = saturating(-1.0, 1.0, kind="tanh", n=2)
    rng = np.random.default_rng(0)
    y = rng.standard_normal((50, 2))
    d = g.deriv(y)
    eps = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = eps
        fd = (g(y + e) - g(y - e)) / (2 * eps)
        assert np.max(np.abs(d[:, j] - fd[:, j])) < 1e-8


def test_radial_kind():
    # g(x) = phi(r) (A x/r + b) with phi(r) = r / sqrt(1 + r^2)
    A = np.array([[1.0, 0.5], [0.0, 1.0]])
    b = np.array([0.1, -0.2])
    g = BoundedNonlinearity("radial", A=A, b=b)
    y = np.array([[3.0, 4.0]])
    limit = (np.array([3.0, 4.0]) / 5.0) @ A.T + b
    phi = 5.0 / np.sqrt(26.0)
    assert np.max(np.abs(g(y)[0] - phi * limit)) < 1e-12
    d = g.limit(np.array([[0.6, 0.8]]))[0]
    assert np.max(np.abs(d - limit)) < 1e-12
    # large radius approaches the limit field
    big = g(1e8 * y)[0]
    assert np.max(np.abs(big - limit)) < 1e-12


# leading terms of 1 - base(z) as z -> +inf; the next term is smaller by
# e^{-2z} (tanh) or z^{-4} (atan, alg)
TAILS = {"tanh": lambda z: 2.0 * np.exp(-2.0 * z) * (1.0 - np.exp(-2.0 * z)),
         "atan": lambda z: (2.0 / np.pi) * (1.0 / z - 1.0 / (3.0 * z ** 3)),
         "alg": lambda z: 1.0 / (2.0 * z ** 2) - 3.0 / (8.0 * z ** 4)}


@pytest.mark.parametrize("kind", ["tanh", "atan", "alg"])
def test_limit_gap_keeps_the_tail(kind):
    p = ComponentProfile(kind, -0.5, 2.0, scale=0.7, shift=0.3)
    g = BoundedNonlinearity("componentwise", components=[p])
    y = np.array([[-2.0], [-1.0], [0.0], [1.0], [2.0]])
    # moderate amplitude: the plain difference is accurate
    np.testing.assert_allclose(g.limit_gap(y, 0.5), g.limit(y) - g(0.5 * y),
                               rtol=0.0, atol=1e-15)
    # far out the difference has cancelled; the gap is half the tail,
    # signed toward the limit, and 0 where y is
    s = 20.0 if kind == "tanh" else 1e5
    z = p.scale * (s * np.abs(y[:, 0]) - np.sign(y[:, 0]) * p.shift)
    want = np.sign(y[:, 0]) * p.half * TAILS[kind](np.where(y[:, 0], z, 1.0))
    np.testing.assert_allclose(g.limit_gap(y, s)[:, 0], want, rtol=1e-13)


def test_limit_gap_radial_keeps_the_tail():
    # 1 - phi(x) = 1/(2 x^2) - 3/(8 x^4) + ... for phi(x) = x / sqrt(1 + x^2)
    g = BoundedNonlinearity("radial", A=[[1.0, 0.5], [0.0, 1.0]], b=[0.1, -0.2])
    y = np.array([[3.0, 4.0], [0.0, 0.0], [-0.06, 0.08]])
    s = np.array([0.5, 1e9, 1e9])
    np.testing.assert_allclose(g.limit_gap(y[:1], s[:1]),
                               g.limit(y[:1]) - g(0.5 * y[:1]), atol=1e-15)
    x = s[2] * 0.1
    want = g.limit(y[2:]) * (1.0 / (2.0 * x * x) - 3.0 / (8.0 * x ** 4))
    np.testing.assert_allclose(g.limit_gap(y[2:], s[2:]), want, rtol=1e-13)
    assert np.all(g.limit_gap(y, s)[1] == 0.0)


def test_sign_table_kind():
    table = {"+": [0.7], "-": [-0.3]}
    g = BoundedNonlinearity("sign_table", table=table, zero_value=[0.2])
    y = np.array([[5.0], [-2.0], [0.0]])
    out = g(y)
    assert out[0, 0] == pytest.approx(0.7)
    assert out[1, 0] == pytest.approx(-0.3)
    assert out[2, 0] == pytest.approx(0.2)
    assert not g.smooth


def test_sign_table_lookup_two_components():
    # key character j is the sign of x_j; rows with a zero entry lie on an
    # orthant boundary and take zero_value, and so do the limits along them
    table = {"++": [1.0, 2.0], "+-": [3.0, -1.0], "-+": [-2.0, 0.5], "--": [-1.5, -0.5]}
    zero = [0.2, -0.1]
    g = BoundedNonlinearity("sign_table", table=table, zero_value=zero)
    x = np.array([[2.0, 3.0], [1.0, -4.0], [-0.5, 7.0], [-3.0, -1e-300],
                  [0.0, 0.0], [0.0, 5.0], [-1.0, 0.0]])
    want = [table["++"], table["+-"], table["-+"], table["--"], zero, zero, zero]
    np.testing.assert_array_equal(g(x), want)
    np.testing.assert_array_equal(g(x[None]), [want])
    at_zero = g.value_at_zero()
    np.testing.assert_array_equal(at_zero, zero)
    at_zero[:] = 9.0                      # a copy, not the stored value
    np.testing.assert_array_equal(g.value_at_zero(), zero)
    y = np.array([[1.0, 0.0], [0.0, -2.0], [3.0, -0.5]])
    np.testing.assert_array_equal(g.limit(y), [zero, zero, table["+-"]])


def test_value_at_zero_is_the_field_at_zero():
    p = ComponentProfile("atan", -0.5, 2.0, scale=0.7, shift=0.3)
    g = BoundedNonlinearity("componentwise", components=[p, ComponentProfile("tanh", -1.0, 1.0)])
    np.testing.assert_array_equal(g.value_at_zero(), [p.value(0.0), 0.0])
    radial = BoundedNonlinearity("radial", A=[[1.0, 0.5], [0.0, 1.0]], b=[0.1, -0.2])
    np.testing.assert_array_equal(radial.value_at_zero(), [0.0, 0.0])


def test_nemytskii_zero_input():
    prob = build_example("duffing-delay")
    u = TrigPoly.zero(1, 8)
    out = nemytskii_eval(prob, u, 64)
    # p - g(0): forcing coefficient survives, constant is -g(0) = 0
    assert out.coeff(1)[0] == pytest.approx(0.5, abs=1e-13)
    assert abs(out.coeff(0)[0]) < 1e-13


def test_nemytskii_sup_bound():
    # coefficients are a band-limited projection, so the sup bound holds
    # only up to the spectral tail; pad the band so the tail is negligible
    prob = build_example("gompertz-system")
    rng = np.random.default_rng(1)
    bound = prob.p.norm_inf() + prob.g.sup_norm() + prob.h.sup_norm()
    for _ in range(5):
        coeffs = np.zeros((41, 2), dtype=complex)
        coeffs[:9] = 0.5 * (rng.standard_normal((9, 2))
                            + 1j * rng.standard_normal((9, 2)))
        coeffs[0] = coeffs[0].real
        u = TrigPoly(coeffs)
        out = nemytskii_eval(prob, u, 256)
        assert out.norm_l2() <= bound + 1e-12      # projection contracts L2
        grid = np.max(np.sqrt(np.sum(eval_grid(out, 512) ** 2, axis=1)))
        assert grid <= bound + 1e-6


def test_nemytskii_aliasing_guard():
    # spectrally decaying u (solver-iterate shape): 4x oversampling keeps
    # folded tanh harmonics below 1e-8
    prob = build_example("duffing-delay")
    rng = np.random.default_rng(2)
    decay = np.exp(-0.5 * np.arange(17))[:, None]
    coeffs = 0.4 * decay * (rng.standard_normal((17, 1))
                            + 1j * rng.standard_normal((17, 1)))
    coeffs[0] = coeffs[0].real
    u = TrigPoly(coeffs)
    a = nemytskii_eval(prob, u, 68)
    b = nemytskii_eval(prob, u, 136)
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-8


def test_large_amplitude_first_coefficient():
    # g(s sqrt2 cos)(t) -> sgn(cos t): -g term's first coefficient
    # approaches -(2/pi); frozen square-wave oracle value
    prob = build_example("duffing-delay", c=0.0)
    s = 1e4
    u = TrigPoly.cosine(1, amplitude=s * np.sqrt(2.0))
    out = nemytskii_eval(prob, u.pad(32), 4096)
    target = -oracles.square_wave_coefficient() * np.exp(-1j * np.pi / 2)
    assert abs(out.coeff(1)[0] - target) < 2e-3


# the profile names a problem file may give g and h
G_PROFILES = ("tanh", "atan", "alg")
H_PROFILES = ("tanh", "sech", "sin", "cos")


def test_profile_table_covers_the_accepted_names():
    assert sorted(_PROFILES) == sorted(set(G_PROFILES + H_PROFILES))
    # a tail 1 - value exists for the saturating profiles only
    assert [name for name, cols in _PROFILES.items() if len(cols) == 3] == list(G_PROFILES)


@pytest.mark.parametrize("name", sorted(_PROFILES))
def test_profile_derivative_matches_a_central_difference(name):
    value, deriv = _PROFILES[name][:2]
    z, step = np.linspace(-3.0, 3.0, 61), 1e-5
    fd = (value(z + step) - value(z - step)) / (2 * step)
    assert np.max(np.abs(deriv(z) - fd)) < 1e-9


@pytest.mark.parametrize("name", G_PROFILES)
def test_profile_tail_is_one_minus_the_value(name):
    # for z <= 0 the value is <= 0, so 1 - value loses nothing to cancellation
    value, _, tail = _PROFILES[name]
    z = np.linspace(-30.0, 0.0, 301)
    np.testing.assert_allclose(tail(z), 1.0 - value(z), rtol=1e-15, atol=0.0)


def test_profiles_do_not_overflow_far_out():
    z = np.array([800.0, -800.0])
    with np.errstate(all="raise"):
        columns = {name: [f(z) for f in cols] for name, cols in _PROFILES.items()}
    for name, values in columns.items():
        assert all(np.all(np.isfinite(v)) for v in values), name
    for v in (columns["tanh"][1], columns["sech"][0], columns["sech"][1]):
        assert np.all(v == 0.0)
    assert list(columns["tanh"][2]) == [0.0, 2.0]
    # the overflow-free forms agree with the textbook ones where both work
    z = np.linspace(-30.0, 30.0, 601)
    sech = 1.0 / np.cosh(z)
    assert np.max(np.abs(_PROFILES["tanh"][1](z) - sech ** 2)) < 1e-15
    assert np.max(np.abs(_PROFILES["sech"][1](z) + np.tanh(z) * sech)) < 1e-15
    assert np.max(np.abs(_PROFILES["sech"][0](z) - sech)) < 1e-15


def tap_samples(h, u, M):
    """``(M, T)`` samples of ``u_c(t - delay)`` for each tap of ``h``."""
    return np.stack([eval_grid(u.shift(-d), M)[:, c] for c, d in h.taps()], axis=-1)


def test_history_perturbation_tap_evaluation():
    term = PerturbationTerm(component=0, amp=0.3, profile="tanh",
                            taps=[DelayTap(0, 1.0, weight=2.0)])
    h = HistoryPerturbation([term])
    u = TrigPoly.cosine(1, amplitude=1.0)
    M = 256
    vals = h.add_to(np.zeros((M, 1)), tap_samples(h, u, M))
    t = TWO_PI * np.arange(M) / M
    expect = 0.3 * np.tanh(2.0 * np.cos(t - 1.0))
    assert np.max(np.abs(vals[:, 0] - expect)) < 1e-12
    assert h.sup_norm() <= 0.3 + 1e-12
    assert not h.time_dependent


def test_time_modulated_term():
    term = PerturbationTerm(component=0, amp=0.2, profile="sin",
                            taps=[DelayTap(0, 0.5)],
                            tmod_harmonic=2, tmod_phase=0.3)
    h = HistoryPerturbation([term])
    assert h.time_dependent
    u = TrigPoly.cosine(1)
    M = 128
    vals = h.add_to(np.zeros((M, 1)), tap_samples(h, u, M))
    t = TWO_PI * np.arange(M) / M
    expect = 0.2 * np.cos(2 * t + 0.3) * np.sin(np.cos(t - 0.5))
    assert np.max(np.abs(vals[:, 0] - expect)) < 1e-12


def test_kernel_orthogonal_declaration():
    # nothing checked the declared flag, so the format no longer carries it
    # (tests/test_cli.py loads files that still do)
    prob = build_example("gompertz-system")
    assert "kernel_orthogonal" not in prob.h.to_dict()
    assert prob.h.sup_norm() > 0.0
