"""Symbol matrices, resonant sets, kernel calculus, right inverse."""

import numpy as np
import pytest

from fde import (KernelElement, MatrixPolynomial, MeasureMatrix,
                 ScalarMeasure, TrigPoly, apply_symbol, build_example,
                 check_linear_conditions, differentiate, image_defect,
                 project_kernel, resonant_set, right_inverse,
                 right_inverse_gain, scan_bound, symbol)
from fde.errors import NotInImageError
from fde.resonance import kernel_data
from fde.trigpoly import l2_inner, sobolev_norm

TWO_PI = 2.0 * np.pi


def test_symbol_diagonal_delay_system():
    rng = np.random.default_rng(0)
    a = rng.uniform(-2, 2, size=2)
    b = rng.uniform(-2, 2, size=2)
    tau = rng.uniform(0.1, 5.0, size=2)
    P = MatrixPolynomial(np.stack([np.diag(a), np.eye(2)]))
    Lam = MeasureMatrix.diagonal(
        [ScalarMeasure.point_delay(tau[j], b[j]) for j in range(2)])
    for k in range(-64, 65):
        L = symbol(P, Lam, k)
        for j in range(2):
            expect = 1j * k + a[j] + b[j] * np.exp(-1j * k * tau[j])
            assert abs(L[j, j] - expect) < 1e-12
        assert abs(L[0, 1]) + abs(L[1, 0]) < 1e-14


def test_beam_symbol_factorization():
    # x^4 + 5x^2 + 4 at ik: (k^2-1)(k^2-4); zero at k=1,2, value 40 at k=3
    prob = build_example("beam")
    L = symbol(prob.P, prob.Lam, 3)
    assert L[0, 0] == pytest.approx(40.0, abs=1e-12)
    assert abs(symbol(prob.P, prob.Lam, 1)[0, 0]) < 1e-12
    assert abs(symbol(prob.P, prob.Lam, 2)[0, 0]) < 1e-12


def test_resonant_sets_catalog():
    expected = {
        "duffing-delay": [-1, 1],
        "duffing-distributed": [-1, 1],
        "gompertz-system": [-1, 1],
        "weakly-coupled": [-1, 1],
        "distributed-uniform": [-1, 1],
        "distributed-sine": [-2, 2],
        "beam": [-2, -1, 1, 2],
    }
    for ex, K in expected.items():
        prob = build_example(ex)
        rep = resonant_set(prob.P, prob.Lam)
        assert rep.K == K, ex


def test_distributed_sine_modes():
    for m in (1, 2, 3):
        prob = build_example("distributed-sine", m=m)
        rep = resonant_set(prob.P, prob.Lam)
        assert rep.K == [-m, m]
        assert rep.modes[m].sigma_min < 1e-10


def test_distributed_uniform_only_m1():
    rep1 = resonant_set(*[getattr(build_example("distributed-uniform", m=1), a)
                          for a in ("P", "Lam")])
    assert rep1.K == [-1, 1]
    rep2 = resonant_set(*[getattr(build_example("distributed-uniform", m=2), a)
                          for a in ("P", "Lam")])
    assert 2 not in rep2.K


def test_scan_bound_values():
    cases = {"duffing-delay": 2, "gompertz-system": 5,
             "weakly-coupled": 2, "beam": 3}
    for ex, kstar in cases.items():
        prob = build_example(ex)
        assert scan_bound(prob.P, prob.Lam) == kstar, ex


def test_no_late_resonances():
    # doubling the scan range finds no further singular symbols
    for ex in ("duffing-delay", "gompertz-system", "beam"):
        prob = build_example(ex)
        rep = resonant_set(prob.P, prob.Lam)
        for k in range(rep.k_star + 1, 2 * rep.k_star + 1):
            L = symbol(prob.P, prob.Lam, k)
            smin = np.linalg.svd(L, compute_uv=False)[-1]
            assert smin > 1e-9 * (1 + np.linalg.norm(L, 2))


def test_kernel_data_zero_matrix():
    nu, theta, sigma = kernel_data(np.zeros((2, 2), dtype=complex), 1e-9)
    assert nu == 2
    assert np.allclose(theta, np.eye(2))
    assert np.max(np.abs(sigma)) == 0.0


def test_weakly_coupled_kernel_identity_columns():
    prob = build_example("weakly-coupled")
    rep = resonant_set(prob.P, prob.Lam)
    mode = rep.modes[1]
    assert mode.nu == 2
    assert np.allclose(np.abs(mode.theta), np.eye(2), atol=1e-12)


def test_linear_conditions_pass_catalog():
    for ex in ("duffing-delay", "gompertz-system", "weakly-coupled", "beam"):
        prob = build_example(ex)
        rep = resonant_set(prob.P, prob.Lam)
        flags = check_linear_conditions(rep, prob.Psi)
        assert flags.all_pass, ex
        assert flags.c_psi > 0.0


def test_kernel_element_norms():
    prob = build_example("duffing-delay")
    rep = resonant_set(prob.P, prob.Lam)
    el = KernelElement(rep, np.array([0.5 + 0.5j]))
    assert el.norm_l2() == pytest.approx(np.sqrt(2) * abs(0.5 + 0.5j))
    assert el.coord_norm() == pytest.approx(abs(0.5 + 0.5j))
    sc = el.sphere_coords()
    assert np.linalg.norm(sc) == pytest.approx(2 * abs(0.5 + 0.5j))
    w = el.to_poly()
    back = KernelElement.from_poly(rep, w)
    assert np.max(np.abs(back.amps - el.amps)) < 1e-13
    assert w.norm_l2() == pytest.approx(el.norm_l2(), abs=1e-13)


def test_projector_idempotent_and_kills_image():
    prob = build_example("beam")
    rep = resonant_set(prob.P, prob.Lam)
    rng = np.random.default_rng(1)
    for _ in range(100):
        coeffs = rng.standard_normal((7, 1)) + 1j * rng.standard_normal((7, 1))
        coeffs[0] = coeffs[0].real
        u = TrigPoly(coeffs)
        Pu = project_kernel(u, rep)
        PPu = project_kernel(Pu, rep)
        assert (PPu - Pu).norm_l2() < 1e-13
        Lu = apply_symbol(u, rep)
        PLu = project_kernel(Lu, rep)
        assert PLu.norm_l2() < 1e-10 * (1 + sobolev_norm(u, 4))


def test_right_inverse_scalar_value():
    # u'' + u applied to -cos(2t)/3 gives cos(2t): K(cos 2t) = -cos(2t)/3
    prob = build_example("duffing-delay")
    rep = resonant_set(prob.P, prob.Lam)
    phi = TrigPoly.cosine(2)
    u = right_inverse(phi, rep)
    expect = TrigPoly.cosine(2, amplitude=-1.0 / 3.0)
    assert (u - expect).norm_l2() < 1e-12


def test_right_inverse_round_trip():
    prob = build_example("gompertz-system")
    rep = resonant_set(prob.P, prob.Lam)
    rng = np.random.default_rng(2)
    for _ in range(100):
        coeffs = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        coeffs[0] = coeffs[0].real
        phi = TrigPoly(coeffs)
        phi = phi - project_kernel(phi, rep)      # image part only
        u = right_inverse(phi, rep)
        assert (apply_symbol(u, rep) - phi).norm_l2() < 1e-10
        assert max(image_defect(phi, rep).values()) < 1e-12


def test_right_inverse_rejects_kernel_component():
    prob = build_example("duffing-delay")
    rep = resonant_set(prob.P, prob.Lam)
    with pytest.raises(NotInImageError):
        right_inverse(TrigPoly.cosine(1), rep)


def test_right_inverse_gain_bounds_derivative():
    prob = build_example("duffing-delay")
    rep = resonant_set(prob.P, prob.Lam)
    kappa = right_inverse_gain(rep, kmax=16)
    assert np.isfinite(kappa) and kappa > 0
    rng = np.random.default_rng(3)
    for _ in range(20):
        coeffs = rng.standard_normal((17, 1)) + 1j * rng.standard_normal((17, 1))
        coeffs[0] = coeffs[0].real
        phi = TrigPoly(coeffs)
        phi = phi - project_kernel(phi, rep)
        u = right_inverse(phi, rep)
        assert differentiate(u).norm_inf() <= kappa * phi.norm_inf() + 1e-9


def test_report_serialization():
    prob = build_example("beam")
    rep = resonant_set(prob.P, prob.Lam)
    rep.flags = check_linear_conditions(rep, prob.Psi)
    doc = rep.to_dict()
    assert doc["K"] == [-2, -1, 1, 2]
    assert doc["nu"] == 2
    assert set(doc) >= {"K", "k_star", "kernel", "nu"}


def test_image_defect_values():
    prob = build_example("duffing-delay")
    rep = resonant_set(prob.P, prob.Lam)
    # the resonant cosine is pure kernel: defect is its whole coefficient
    d = image_defect(TrigPoly.cosine(1), rep)
    assert d[1] == pytest.approx(0.5, abs=1e-13)
    # a nonresonant mode has no kernel component anywhere
    d = image_defect(TrigPoly.cosine(2), rep)
    assert max(d.values()) < 1e-14


def test_right_inverse_of_zero():
    prob = build_example("duffing-delay")
    rep = resonant_set(prob.P, prob.Lam)
    u = right_inverse(TrigPoly.zero(1, 8), rep)
    assert u.norm_l2() == 0.0


# -- failing structural conditions ---------------------------------------


def _image_round_trip(rep, n, kmax, seed):
    # a random real signal with its kernel part removed lies in the image
    # when the defect is normal (L2); right_inverse then undoes apply_symbol
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((kmax + 1, n)) + 1j * rng.standard_normal((kmax + 1, n))
    coeffs[0] = coeffs[0].real
    phi = TrigPoly(coeffs)
    phi = phi - project_kernel(phi, rep)
    u = right_inverse(phi, rep)
    assert (apply_symbol(u, rep) - phi).norm_l2() < 1e-12
    assert max(image_defect(u, rep).values()) < 1e-12


def test_resonant_mean_mode_fails_l1():
    # u' = ...: L_k = ik, singular at k = 0 only
    P = MatrixPolynomial(np.array([[[0.0]], [[1.0]]]))
    rep = resonant_set(P, MeasureMatrix.zero(1))
    assert rep.K == [0] and rep.nu == 0
    flags = check_linear_conditions(rep, MeasureMatrix.constant_matrix([[1.0]]))
    assert not flags.l1
    assert flags.l2 and flags.l3 and flags.l4
    assert flags.witnesses["L1"] == {"det_L0": [0.0, 0.0], "sigma_min_L0": 0.0}
    assert flags.c_psi is None and flags.witnesses["L3"]["min_abs_det_psi"] is None
    _image_round_trip(rep, 1, 5, seed=4)


def test_nilpotent_defect_fails_l2():
    # L_1 = [[0, 1], [0, 0]]: its kernel e1 is orthogonal to the kernel e2
    # of its adjoint
    P = MatrixPolynomial(np.stack([np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)]))
    Lam = MeasureMatrix.diagonal([ScalarMeasure.point_delay(np.pi / 2)] * 2)
    rep = resonant_set(P, Lam)
    assert rep.K == [-1, 1] and rep.modes[1].nu == 1
    flags = check_linear_conditions(rep, MeasureMatrix.constant_matrix(np.eye(2)))
    assert not flags.l2
    assert flags.l1 and flags.l3 and flags.l4
    assert flags.witnesses["L2"]["max_angle_sin"] == pytest.approx(1.0, abs=1e-12)
    # at k = 1 the image (e1) meets the complement of the kernel (e2) only
    # in 0, so the round trip takes a right-hand side without a k = 1 mode
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    coeffs[0] = coeffs[0].real
    coeffs[1] = 0.0
    phi = TrigPoly(coeffs)
    u = right_inverse(phi, rep)
    assert (apply_symbol(u, rep) - phi).norm_l2() < 1e-12
    with pytest.raises(NotInImageError):
        right_inverse(TrigPoly(np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)), rep)


def test_kernel_off_deviation_eigenvectors_fails_l4():
    # u'' + u with Psi = [[d, d], [0, d]], d a pi/4 delay: e2 is not an
    # eigenvector of psihat(-1) = e^{-i pi/4} [[1, 1], [0, 1]]
    P = MatrixPolynomial(np.stack([np.eye(2), np.zeros((2, 2)), np.eye(2)]))
    rep = resonant_set(P, MeasureMatrix.zero(2))
    assert rep.K == [-1, 1] and rep.nu == 2
    d = ScalarMeasure.point_delay(np.pi / 4)
    Psi = MeasureMatrix(2, [[d, d], [ScalarMeasure.zero(), d]])
    flags = check_linear_conditions(rep, Psi)
    assert not flags.l4
    assert flags.l1 and flags.l2 and flags.l3
    assert flags.witnesses["L4"]["max_eigen_defect"] == pytest.approx(1.0, abs=1e-12)
    assert flags.witnesses["L3"]["min_abs_det_psi"] == pytest.approx(1.0, abs=1e-12)
    assert flags.c_psi == pytest.approx((np.sqrt(5.0) - 1.0) / 2.0, abs=1e-12)
    _image_round_trip(rep, 2, 6, seed=6)
