"""Transform correctness for the measure catalog.

Spot values are frozen from the adaptive-quadrature oracle; the bulk
sweep checks 200 random instances against a fixed-order Gauss-Legendre
rule (the adaptive rule is spot-checked on a random subset, it is too
slow for the full sweep).
"""

import numpy as np
import pytest

from fde import (ConstProfile, Density, MeasureMatrix, PolyProfile,
                 ScalarMeasure, SinProfile, TrigPoly, apply_deviation,
                 eval_grid, matrix_transform, total_variation_bound)
from fde.errors import DimensionMismatch

import oracles

TWO_PI = 2.0 * np.pi


def random_scalar_measure(rng) -> ScalarMeasure:
    atoms = [(rng.uniform(0, TWO_PI), rng.uniform(-2, 2))
             for _ in range(rng.integers(0, 3))]
    densities = []
    for _ in range(rng.integers(0, 3)):
        a = rng.uniform(0, TWO_PI - 0.2)
        b = rng.uniform(a + 0.1, TWO_PI)
        kind = rng.integers(0, 3)
        if kind == 0:
            prof = ConstProfile(rng.uniform(-1.5, 1.5))
        elif kind == 1:
            prof = SinProfile(rng.uniform(-1.5, 1.5), rng.integers(1, 4),
                              rng.uniform(0, TWO_PI))
        else:
            prof = PolyProfile(rng.uniform(-1, 1, size=rng.integers(1, 4)))
        densities.append(Density(a, b, prof))
    if not atoms and not densities:
        atoms = [(rng.uniform(0, TWO_PI), 1.0)]
    return ScalarMeasure(atoms=atoms, densities=densities)


# -- frozen spot values (adaptive quadrature oracle) -------------------


def test_uniform_density_k1():
    # int_{-pi}^{0} e^{-is} ds = 2i; interval arrives in history convention
    mu = ScalarMeasure(densities=[Density(-np.pi, 0.0, ConstProfile(1.0))])
    assert mu.transform(1) == pytest.approx(2.0j, abs=1e-12)
    assert mu.transform(0) == pytest.approx(np.pi, abs=1e-12)
    assert mu.transform(1) == pytest.approx(
        oracles.transform_quad(mu, 1), abs=1e-12)


def test_atom_three_half_pi():
    mu = ScalarMeasure(atoms=[(1.5 * np.pi, 1.0)])
    assert mu.transform(1) == pytest.approx(1.0j, abs=1e-14)
    assert mu.transform(2) == pytest.approx(-1.0, abs=1e-14)


def test_point_delay_symbol_phase():
    # u(t - tau): transform at -k must be e^{-ik tau}
    tau = 0.7
    mu = ScalarMeasure.point_delay(tau, 1.0)
    for k in (-3, -1, 0, 1, 2, 5):
        assert mu.transform(-k) == pytest.approx(np.exp(-1j * k * tau),
                                                 abs=1e-13)


def test_sine_density_resonant_value():
    # profile -(2 m^2/pi) sin(ms) on [-pi/m, 0] has transform -im at -m
    for m in (1, 2, 3):
        mu = ScalarMeasure(densities=[
            Density(-np.pi / m, 0.0, SinProfile(-2.0 * m * m / np.pi, m))])
        assert mu.transform(-m) == pytest.approx(-1j * m, abs=1e-12)
        assert mu.transform(-m) == pytest.approx(
            oracles.transform_quad(mu, -m), abs=1e-11)


def test_uniform_density_alternating_transform():
    # m/2 on [-pi/m, 0]: value -i/k at odd -k, 0 at even nonzero -k
    m = 1
    mu = ScalarMeasure(densities=[
        Density(-np.pi / m, 0.0, ConstProfile(m / 2.0))])
    assert mu.transform(-1) == pytest.approx(-1.0j, abs=1e-12)
    assert mu.transform(-2) == pytest.approx(0.0, abs=1e-12)
    assert mu.transform(-3) == pytest.approx(-1.0j / 3.0, abs=1e-12)


def test_polynomial_density_against_quad():
    mu = ScalarMeasure(densities=[
        Density(0.5, 2.5, PolyProfile([0.3, -0.4, 0.2]))])
    for k in (-7, -1, 0, 2, 13):
        assert mu.transform(k) == pytest.approx(
            oracles.transform_quad(mu, k), abs=1e-11)


# -- bulk sweep --------------------------------------------------------


def test_bulk_transform_sweep():
    rng = np.random.default_rng(7)
    ks = np.arange(-32, 33)
    for _ in range(200):
        mu = random_scalar_measure(rng)
        closed = np.array([mu.transform(int(k)) for k in ks])
        ref = oracles.transform_gauss(mu, ks)
        assert np.max(np.abs(closed - ref)) < 1e-9


def test_bulk_spot_adaptive():
    rng = np.random.default_rng(11)
    for _ in range(8):
        mu = random_scalar_measure(rng)
        k = int(rng.integers(-32, 33))
        assert mu.transform(k) == pytest.approx(
            oracles.transform_quad(mu, k), abs=1e-10)


def test_array_modes_match_scalar_modes():
    # every profile kind, the mu = 0 branches (integer sine frequency at
    # k = +-omega, constant and polynomial at k = 0) and history intervals
    # split across 0
    measures = [
        ScalarMeasure(atoms=[(0.3, 1.2), (-1.1, -0.4)]),
        ScalarMeasure(densities=[Density(-1.0, 1.5, ConstProfile(0.7))]),
        ScalarMeasure(densities=[Density(-2.0, 0.5, SinProfile(1.3, 3.0, 0.4))]),
        ScalarMeasure(densities=[Density(0.4, 2.0, SinProfile(-0.8, 2.5))]),
        ScalarMeasure(densities=[Density(-0.8, 1.2, PolyProfile([0.3, -0.4, 0.2]))]),
        ScalarMeasure(atoms=[(1.0, 0.5)],
                      densities=[Density(-np.pi, 0.0, ConstProfile(0.5)),
                                 Density(1.0, 3.0, PolyProfile([1.0, 0.5]))]),
    ]
    ks = np.array([-5, -3, -1, 0, 1, 2, 3, 7])
    for mu in measures:
        arr = mu.transform(ks)
        assert arr.shape == ks.shape
        assert np.max(np.abs(arr - oracles.transform_gauss(mu, ks))) < 1e-9
        for k, val in zip(ks, arr):
            assert val == pytest.approx(mu.transform(int(k)), abs=1e-14)
        assert np.ndim(mu.transform(3)) == 0
    mat = MeasureMatrix(2, [measures[:2], measures[2:4]])
    stack = matrix_transform(mat, ks)
    assert stack.shape == (ks.size, 2, 2)
    for k, block in zip(ks, stack):
        assert np.max(np.abs(block - matrix_transform(mat, int(k)))) < 1e-14


def test_deviation_stack_cache():
    rng = np.random.default_rng(19)
    mat = MeasureMatrix(2, [[random_scalar_measure(rng) for _ in range(2)]
                            for _ in range(2)])

    def fresh(kmax):
        return np.array([matrix_transform(mat, -k) for k in range(kmax + 1)])

    for kmax in (3, 11, 5, 0):
        stack = mat.stack(kmax)
        assert stack.shape == (kmax + 1, 2, 2)
        assert np.max(np.abs(stack - fresh(kmax))) < 1e-14
    assert not mat.stack(4).flags.writeable


# -- structural invariants ---------------------------------------------


def test_conjugate_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(20):
        mu = random_scalar_measure(rng)
        for k in (1, 2, 9, 31):
            assert abs(mu.transform(-k) - np.conj(mu.transform(k))) < 1e-14


def test_total_variation_dominates_transform():
    rng = np.random.default_rng(5)
    for _ in range(10):
        mat = MeasureMatrix.diagonal([random_scalar_measure(rng),
                                      random_scalar_measure(rng)])
        tv = total_variation_bound(mat)
        for k in range(-256, 257, 16):
            s = np.linalg.norm(matrix_transform(mat, k), 2)
            assert s <= tv + 1e-10


def test_shift_commutation():
    rng = np.random.default_rng(9)
    mat = MeasureMatrix.diagonal([random_scalar_measure(rng),
                                  random_scalar_measure(rng)])
    coeffs = (rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2)))
    coeffs[0] = coeffs[0].real
    u = TrigPoly(coeffs)
    for c in (0.3, 1.7, -2.2):
        left = apply_deviation(mat, u.shift(c))
        right = apply_deviation(mat, u).shift(c)
        assert np.max(np.abs(left.coeffs - right.coeffs)) < 1e-12


def test_point_delay_acts_as_delay():
    tau = 1.3
    mat = MeasureMatrix.scalar(ScalarMeasure.point_delay(tau))
    rng = np.random.default_rng(13)
    coeffs = rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1))
    coeffs[0] = coeffs[0].real
    u = TrigPoly(coeffs)
    v = apply_deviation(mat, u)
    t = np.linspace(0.0, TWO_PI, 41)
    assert np.max(np.abs(v.eval(t) - u.eval(t - tau))) < 1e-12


def test_constant_matrix_action():
    A = np.array([[1.0, 2.0], [0.0, -1.0]])
    mat = MeasureMatrix.constant_matrix(A)
    rng = np.random.default_rng(17)
    coeffs = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    coeffs[0] = coeffs[0].real
    u = TrigPoly(coeffs)
    v = apply_deviation(mat, u)
    grid = eval_grid(u, 32) @ A.T
    assert np.max(np.abs(eval_grid(v, 32) - grid)) < 1e-12


def test_interval_validation():
    with pytest.raises(DimensionMismatch):
        ScalarMeasure(densities=[Density(-7.0, 0.0, ConstProfile(1.0))])
    with pytest.raises(DimensionMismatch):
        MeasureMatrix(2, [[ScalarMeasure.zero()]])


def test_straddling_interval_split():
    # [-1, 1] splits into [2pi-1, 2pi) and [0, 1); transform is unchanged
    prof = SinProfile(0.8, 2, 0.3)
    mu = ScalarMeasure(densities=[Density(-1.0, 1.0, prof)])
    assert len(mu.densities) == 2
    for k in (-5, 0, 3):
        ref = oracles.transform_quad(
            ScalarMeasure(densities=[Density(0.0, 1.0, prof)]), k)
        ref += oracles.transform_quad(
            ScalarMeasure(densities=[
                Density(TWO_PI - 1.0, TWO_PI, prof.shifted(TWO_PI))]), k)
        assert mu.transform(k) == pytest.approx(ref, abs=1e-11)
