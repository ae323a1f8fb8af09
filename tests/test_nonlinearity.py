"""Saturating nonlinearities, history perturbations, Nemytskii evaluation."""

import numpy as np
import pytest

from fde import (BoundedNonlinearity, ComponentProfile, DelayTap,
                 HistoryPerturbation, MatrixPolynomial, MeasureMatrix,
                 PerturbationTerm, ProblemSpec, ScalarMeasure, TrigPoly,
                 build_example, eval_grid, saturating)
from fde.nonlinearity import _base_deriv, _h_base, _h_base_deriv, nemytskii_eval

import oracles

TWO_PI = 2.0 * np.pi


def test_saturating_limits_and_tails():
    g = saturating(-1.0, 1.0, kind="tanh")
    assert g(np.array([[0.0]]))[0, 0] == 0.0
    for s, sign in ((1e3, 1.0), (1e4, 1.0), (-1e3, -1.0)):
        val = g(np.array([[s]]))[0, 0]
        assert abs(val - sign) < g.components[0].tail_bound(abs(s)) + 1e-15
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


def test_sign_table_kind():
    table = {"+": [0.7], "-": [-0.3]}
    g = BoundedNonlinearity("sign_table", table=table, zero_value=[0.2])
    y = np.array([[5.0], [-2.0], [0.0]])
    out = g(y)
    assert out[0, 0] == pytest.approx(0.7)
    assert out[1, 0] == pytest.approx(-0.3)
    assert out[2, 0] == pytest.approx(0.2)
    assert not g.smooth


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


def test_profiles_do_not_overflow_far_out():
    z = np.array([800.0, -800.0])
    with np.errstate(all="raise"):
        values = [_base_deriv("tanh", z), _h_base_deriv("tanh", z),
                  _h_base_deriv("sech", z), _h_base("sech", z)]
    for v in values:
        assert np.all(v == 0.0)
    # the overflow-free forms agree with the textbook ones where both work
    z = np.linspace(-30.0, 30.0, 601)
    sech = 1.0 / np.cosh(z)
    assert np.max(np.abs(_base_deriv("tanh", z) - sech ** 2)) < 1e-15
    assert np.max(np.abs(_h_base_deriv("tanh", z) - sech ** 2)) < 1e-15
    assert np.max(np.abs(_h_base_deriv("sech", z) + np.tanh(z) * sech)) < 1e-15
    assert np.max(np.abs(_h_base("sech", z) - sech)) < 1e-15


def test_history_perturbation_tap_evaluation():
    term = PerturbationTerm(component=0, amp=0.3, profile="tanh",
                            taps=[DelayTap(0, 1.0, weight=2.0)])
    h = HistoryPerturbation([term])
    u = TrigPoly.cosine(1, amplitude=1.0)
    M = 256
    vals = h.eval(u, M)
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
    vals = h.eval(u, M)
    t = TWO_PI * np.arange(M) / M
    expect = 0.2 * np.cos(2 * t + 0.3) * np.sin(np.cos(t - 0.5))
    assert np.max(np.abs(vals[:, 0] - expect)) < 1e-12


def test_kernel_orthogonal_declaration():
    prob = build_example("gompertz-system")
    assert prob.h.kernel_orthogonal
    assert prob.h.sup_norm() > 0.0
