"""Finite signed measures on the circle [0, 2pi) with closed-form transforms.

A :class:`ScalarMeasure` is a finite list of point masses plus a finite list
of absolutely continuous pieces whose densities come from a small catalog
(constant, sinusoid, polynomial).  Its transform is the unnormalized integral

    lamhat(k) = int e^{-ikt} dlam(t),   k in Z,

which is available in closed form for every catalog entry and is evaluated
elementwise over an integer array of modes (a scalar ``k`` gives a
scalar).  Matrix-valued measures collect one scalar measure per entry and
act on trigonometric polynomials through :func:`apply_deviation`:

    (Lam u)(t) = int dLam(s) u(t + s)   <=>   c_k -> lamhat(-k) c_k.

History intervals given on ``[-tau, 0]`` are normalized to ``[2pi-tau, 2pi)``;
this leaves every transform unchanged because ``e^{-ik s}`` has period 2pi.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .trigpoly import TrigPoly, cached_stack

TWO_PI = 2.0 * np.pi


def _frequencies(mu):
    """``(mask, i mu)`` with the ``mu = 0`` entries masked and replaced by
    ``i`` so the closed forms below never divide by zero."""
    mu = np.asarray(mu, dtype=float)
    zero = np.abs(mu) < 1e-14
    return zero, 1j * np.where(zero, 1.0, mu)


def _int_exp(mu, a: float, b: float):
    """int_a^b e^{i mu s} ds, elementwise in ``mu``."""
    zero, imu = _frequencies(mu)
    return np.where(zero, b - a, (np.exp(imu * b) - np.exp(imu * a)) / imu)


def _int_pow_exp(n: int, mu, a: float, b: float):
    """int_a^b s^n e^{i mu s} ds, elementwise in ``mu``."""
    zero, imu = _frequencies(mu)

    def F(s):
        acc = 0.0 + 0.0j
        fac = 1.0
        for j in range(n + 1):
            acc = acc + (-1) ** j * fac * s ** (n - j) / imu ** (j + 1)
            fac *= n - j
        return np.exp(imu * s) * acc

    return np.where(zero, (b ** (n + 1) - a ** (n + 1)) / (n + 1), F(b) - F(a))


def _abs_sin_primitive(u: float) -> float:
    """int_0^u |sin x| dx (odd in u)."""
    sgn = 1.0 if u >= 0 else -1.0
    v = abs(u)
    n = np.floor(v / np.pi)
    return sgn * (2.0 * n + 1.0 - np.cos(v - n * np.pi))


@dataclass
class ConstProfile:
    c: float

    kind = "const"

    def __call__(self, s):
        return self.c * np.ones_like(np.asarray(s, dtype=float))

    def transform(self, a, b, k):
        return self.c * _int_exp(-k, a, b)

    def abs_mass(self, a, b):
        return abs(self.c) * (b - a)

    def shifted(self, delta):
        return ConstProfile(self.c)

    def to_dict(self):
        return {"kind": "const", "c": self.c}


@dataclass
class SinProfile:
    """Density ``c * sin(omega s + phi0)``."""

    c: float
    omega: float
    phi0: float = 0.0

    kind = "sin"

    def __call__(self, s):
        return self.c * np.sin(self.omega * np.asarray(s, dtype=float) + self.phi0)

    def transform(self, a, b, k):
        # sin z = (e^{iz} - e^{-iz}) / 2i with z = omega s + phi0
        up = np.exp(1j * self.phi0) * _int_exp(self.omega - k, a, b)
        dn = np.exp(-1j * self.phi0) * _int_exp(-self.omega - k, a, b)
        return self.c * (up - dn) / 2j

    def abs_mass(self, a, b):
        if abs(self.omega) < 1e-14:
            return abs(self.c * np.sin(self.phi0)) * (b - a)
        u1, u2 = self.omega * a + self.phi0, self.omega * b + self.phi0
        return abs(self.c) * (_abs_sin_primitive(u2) - _abs_sin_primitive(u1)) / self.omega

    def shifted(self, delta):
        return SinProfile(self.c, self.omega, self.phi0 - self.omega * delta)

    def to_dict(self):
        return {"kind": "sin", "c": self.c, "omega": self.omega, "phi0": self.phi0}


@dataclass
class PolyProfile:
    """Density ``coeffs[0] + coeffs[1] s + ... `` in the lag variable."""

    coeffs: np.ndarray

    kind = "poly"

    def __post_init__(self):
        self.coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))

    def __call__(self, s):
        return np.polynomial.Polynomial(self.coeffs)(np.asarray(s, dtype=float))

    def transform(self, a, b, k):
        return sum(c * _int_pow_exp(n, -k, a, b)
                   for n, c in enumerate(self.coeffs) if c != 0.0) + 0j

    def abs_mass(self, a, b):
        poly = np.polynomial.Polynomial(self.coeffs)
        cuts = [a, b]
        if np.any(self.coeffs[1:] != 0.0):
            for r in poly.roots():
                if abs(r.imag) < 1e-10 * (1.0 + abs(r.real)) and a < r.real < b:
                    cuts.append(float(r.real))
        cuts = sorted(set(cuts))
        prim = poly.integ()
        return float(sum(abs(prim(x1) - prim(x0)) for x0, x1 in zip(cuts, cuts[1:])))

    def shifted(self, delta):
        comp = np.polynomial.Polynomial(self.coeffs)(
            np.polynomial.Polynomial([-delta, 1.0]))
        return PolyProfile(comp.coef)

    def to_dict(self):
        return {"kind": "poly", "coeffs": [float(c) for c in self.coeffs]}


def profile_from_dict(d: dict):
    kind = d.get("kind")
    if kind == "const":
        return ConstProfile(float(d["c"]))
    if kind == "sin":
        return SinProfile(float(d["c"]), float(d["omega"]), float(d.get("phi0", 0.0)))
    if kind == "poly":
        return PolyProfile(np.asarray(d["coeffs"], dtype=float))
    raise DimensionMismatch(f"unknown density profile kind {kind!r}")


@dataclass
class Density:
    """One absolutely continuous piece supported on ``[a, b) in [0, 2pi)``."""

    a: float
    b: float
    profile: object

    def to_dict(self):
        return {"a": self.a, "b": self.b, "profile": self.profile.to_dict()}


@dataclass
class ScalarMeasure:
    """Atoms plus catalog densities on the circle.

    ``atoms`` is a list of ``(theta, weight)``; ``densities`` a list of
    :class:`Density`.  Input locations may use the history convention
    (negative lags down to ``-2pi``); they are wrapped into ``[0, 2pi)``
    on construction.
    """

    atoms: list = field(default_factory=list)
    densities: list = field(default_factory=list)

    def __post_init__(self):
        self.atoms = [(float(t) % TWO_PI, float(w)) for t, w in self.atoms]
        normalized = []
        for d in self.densities:
            if not isinstance(d, Density):
                d = Density(*d)
            a, b = float(d.a), float(d.b)
            if not (-TWO_PI <= a < b <= TWO_PI):
                raise DimensionMismatch(
                    f"density interval [{a}, {b}] outside [-2pi, 2pi]")
            if b <= 0.0:
                normalized.append(Density(a + TWO_PI, b + TWO_PI,
                                          d.profile.shifted(TWO_PI)))
            elif a < 0.0 < b:
                normalized.append(Density(a + TWO_PI, TWO_PI,
                                          d.profile.shifted(TWO_PI)))
                normalized.append(Density(0.0, b, d.profile))
            else:
                normalized.append(Density(a, b, d.profile))
        self.densities = normalized

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "ScalarMeasure":
        return ScalarMeasure()

    @staticmethod
    def dirac(theta: float, weight: float = 1.0) -> "ScalarMeasure":
        return ScalarMeasure(atoms=[(theta, weight)])

    @staticmethod
    def point_delay(tau: float, weight: float = 1.0) -> "ScalarMeasure":
        """Weighted evaluation at lag ``tau``: ``u -> weight * u(t - tau)``."""
        return ScalarMeasure(atoms=[(TWO_PI - tau, weight)])

    # -- analysis ------------------------------------------------------

    def transform(self, k):
        """``lamhat(k)`` for an integer or an integer array of modes: each
        atom adds ``w e^{-ik theta}``, each density its closed-form
        ``int_a^b profile(s) e^{-iks} ds``."""
        k = np.asarray(k)
        out = np.zeros(k.shape, dtype=complex)
        for theta, w in self.atoms:
            out += w * np.exp(-1j * k * theta)
        for d in self.densities:
            out += d.profile.transform(d.a, d.b, k)
        return out[()]

    def total_variation(self) -> float:
        tv = sum(abs(w) for _, w in self.atoms)
        tv += sum(d.profile.abs_mass(d.a, d.b) for d in self.densities)
        return float(tv)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {"atoms": [{"theta": t, "weight": w} for t, w in self.atoms],
                "densities": [d.to_dict() for d in self.densities]}

    @staticmethod
    def from_dict(d: dict) -> "ScalarMeasure":
        atoms = [(a["theta"], a["weight"]) for a in d.get("atoms", [])]
        dens = [Density(e["a"], e["b"], profile_from_dict(e["profile"]))
                for e in d.get("densities", [])]
        return ScalarMeasure(atoms=atoms, densities=dens)


@dataclass
class MeasureMatrix:
    """Square matrix of scalar measures acting on n-component signals.

    :meth:`stack` caches the deviation transforms on first use, so the
    entries must not change afterwards.
    """

    n: int
    entries: list  # n x n nested list of ScalarMeasure
    _stack: np.ndarray | None = field(default=None, init=False, repr=False,
                                      compare=False)

    def __post_init__(self):
        if len(self.entries) != self.n or any(len(r) != self.n for r in self.entries):
            raise DimensionMismatch("entry grid must be n x n")

    @staticmethod
    def zero(n: int) -> "MeasureMatrix":
        return MeasureMatrix(n, [[ScalarMeasure.zero() for _ in range(n)]
                                 for _ in range(n)])

    @staticmethod
    def scalar(m: ScalarMeasure) -> "MeasureMatrix":
        return MeasureMatrix(1, [[m]])

    @staticmethod
    def diagonal(measures) -> "MeasureMatrix":
        n = len(measures)
        out = MeasureMatrix.zero(n)
        for i, m in enumerate(measures):
            out.entries[i][i] = m
        return out

    @staticmethod
    def constant_matrix(A) -> "MeasureMatrix":
        """Matrix multiple of the unit mass at 0: ``u -> A u(t)``."""
        A = np.atleast_2d(np.asarray(A, dtype=float))
        n = A.shape[0]
        out = MeasureMatrix.zero(n)
        for i in range(n):
            for j in range(n):
                if A[i, j] != 0.0:
                    out.entries[i][j] = ScalarMeasure.dirac(0.0, A[i, j])
        return out

    def stack(self, kmax: int) -> np.ndarray:
        """Read-only ``(kmax+1, n, n)`` array of ``lamhat(-k)``, ``k = 0..kmax``
        (:func:`~fde.trigpoly.cached_stack`)."""
        return cached_stack(self, "_stack", kmax,
                            lambda K: matrix_transform(self, -np.arange(K + 1)))

    def to_dict(self) -> dict:
        return {"n": self.n,
                "entries": [[m.to_dict() for m in row] for row in self.entries]}

    @staticmethod
    def from_dict(d: dict) -> "MeasureMatrix":
        return MeasureMatrix(int(d["n"]),
                             [[ScalarMeasure.from_dict(m) for m in row]
                              for row in d["entries"]])


def matrix_transform(mat: MeasureMatrix, k) -> np.ndarray:
    """Entrywise transform; complex ``k.shape + (n, n)`` array."""
    out = np.array([[m.transform(k) for m in row] for row in mat.entries],
                   dtype=complex)
    return np.moveaxis(out, (0, 1), (-2, -1))


def total_variation_bound(mat: MeasureMatrix) -> float:
    """Frobenius norm of the entrywise total variations.

    Dominates the spectral norm of ``lamhat(k)`` uniformly in ``k``.
    """
    tv = np.array([[m.total_variation() for m in row] for row in mat.entries])
    return float(np.linalg.norm(tv))


def apply_deviation(mat: MeasureMatrix, u: TrigPoly) -> TrigPoly:
    """Convolve ``u`` with the matrix measure: mode ``k`` picks ``lamhat(-k)``.

    Broadcasts over the batch axes of ``u``."""
    if mat.n != u.n:
        raise DimensionMismatch("measure matrix size differs from signal")
    return TrigPoly(np.einsum("kij,...kj->...ki", mat.stack(u.kmax), u.coeffs))
