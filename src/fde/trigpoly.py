"""Trigonometric polynomials for real vector-valued 2*pi-periodic signals.

A :class:`TrigPoly` stores the nonnegative-frequency Fourier coefficients
``c_k`` in ``C^n`` for ``0 <= k <= kmax`` under the convention

    u(t) = sum_{|k| <= kmax} c_k e^{ikt},        c_{-k} = conj(c_k),

so ``u`` is real-valued and ``c_k = (1/2pi) int_0^{2pi} u(t) e^{-ikt} dt``
(normalized Haar measure on the circle).  Parseval in this convention reads
``||u||_L2^2 = |c_0|^2 + 2 sum_{k>=1} |c_k|^2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, GridTooSmall

# imaginary mass tolerated in the mean coefficient before raising
_C0_DRIFT = 1e-12


@dataclass
class TrigPoly:
    """Real trigonometric polynomial with ``n`` components.

    Parameters
    ----------
    coeffs : ndarray, shape (..., kmax+1, n)
        Coefficients ``c_0 .. c_kmax``; ``c_0`` must be (numerically) real.
        Leading axes, when present, index a batch of polynomials that share
        ``kmax`` and ``n``; the norms and ``to_dict`` read a single
        polynomial.  Treated as immutable after construction.
    """

    coeffs: np.ndarray = field()

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.coeffs, dtype=complex))
        c0 = c[..., 0, :]
        if c0.imag.any():
            scale = 1.0 + np.max(np.abs(c0), axis=-1, keepdims=True, initial=0.0)
            if np.any(np.abs(c0.imag) > _C0_DRIFT * scale):
                raise ValueError("mean coefficient has imaginary drift "
                                 f"{np.max(np.abs(c0.imag)):.3e}")
            # the caller's array may be c itself
            c = c.copy()
            c[..., 0, :] = c0.real
        self.coeffs = c

    @property
    def n(self) -> int:
        return self.coeffs.shape[-1]

    @property
    def kmax(self) -> int:
        return self.coeffs.shape[-2] - 1

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(n: int = 1, kmax: int = 0) -> "TrigPoly":
        return TrigPoly(np.zeros((kmax + 1, n), dtype=complex))

    @staticmethod
    def constant(values) -> "TrigPoly":
        v = np.atleast_1d(np.asarray(values, dtype=float))
        return TrigPoly(v[None, :].astype(complex))

    @staticmethod
    def cosine(m: int, amplitude: float = 1.0, phase: float = 0.0,
               n: int = 1, component: int = 0, kmax: int | None = None) -> "TrigPoly":
        """``amplitude * cos(m t - phase)`` in one component."""
        if kmax is None:
            kmax = m
        if kmax < m:
            raise DimensionMismatch("kmax smaller than requested mode")
        c = np.zeros((kmax + 1, n), dtype=complex)
        if m == 0:
            c[0, component] = amplitude * np.cos(phase)
        else:
            c[m, component] = 0.5 * amplitude * np.exp(-1j * phase)
        return TrigPoly(c)

    # -- coefficient access -------------------------------------------

    def coeff(self, k: int) -> np.ndarray:
        """Coefficient ``c_k`` for signed ``k`` (zero outside the band)."""
        if abs(k) > self.kmax:
            return np.zeros(self.coeffs.shape[:-2] + (self.n,), dtype=complex)
        c = self.coeffs[..., abs(k), :]
        return c.copy() if k >= 0 else np.conj(c)

    def pad(self, kmax: int) -> "TrigPoly":
        if kmax < self.kmax:
            raise DimensionMismatch("pad target below current bandwidth")
        c = np.zeros(self.coeffs.shape[:-2] + (kmax + 1, self.n), dtype=complex)
        c[..., : self.kmax + 1, :] = self.coeffs
        return TrigPoly(c)

    def truncate(self, kmax: int) -> "TrigPoly":
        if kmax >= self.kmax:
            return self.pad(kmax)
        return TrigPoly(self.coeffs[..., : kmax + 1, :].copy())

    # -- arithmetic ----------------------------------------------------

    def _aligned(self, other: "TrigPoly"):
        if self.n != other.n:
            raise DimensionMismatch("component counts differ")
        kmax = max(self.kmax, other.kmax)
        return self.pad(kmax).coeffs, other.pad(kmax).coeffs

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        a, b = self._aligned(other)
        return TrigPoly(a + b)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        a, b = self._aligned(other)
        return TrigPoly(a - b)

    def __mul__(self, s: float) -> "TrigPoly":
        return TrigPoly(self.coeffs * float(s))

    __rmul__ = __mul__

    def __neg__(self) -> "TrigPoly":
        return TrigPoly(-self.coeffs)

    def shift(self, c) -> "TrigPoly":
        """Time translate: returns ``t -> u(t + c)``.  An array ``c``
        broadcasts against the batch axes, so a single polynomial shifted
        by ``S`` amounts becomes a batch of ``S``."""
        k = np.arange(self.kmax + 1)
        return TrigPoly(self.coeffs * np.exp(1j * np.multiply.outer(c, k))[..., None])

    # -- evaluation ----------------------------------------------------

    def eval(self, t) -> np.ndarray:
        """Evaluate at arbitrary times; shape (..., len(t), n)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        x = np.outer(t, np.arange(1, self.kmax + 1))    # (T, kmax)
        # e^{ix} as cos + i sin, which is faster than a complex np.exp
        phases = np.cos(x) + 1j * np.sin(x)
        c = self.coeffs
        out = np.broadcast_to(c[..., :1, :].real, c.shape[:-2] + (t.size, self.n)).copy()
        if self.kmax > 0:
            out += 2.0 * np.real(phases @ c[..., 1:, :])
        return out

    # -- norms ---------------------------------------------------------

    def norm_l2(self) -> float:
        c = self.coeffs
        return float(np.sqrt(np.sum(np.abs(c[0]) ** 2)
                             + 2.0 * np.sum(np.abs(c[1:]) ** 2)))

    def norm_inf(self) -> float:
        """Sup of the pointwise Euclidean norm on an 8x oversampled grid."""
        M = max(256, 8 * (2 * self.kmax + 1))
        vals = eval_grid(self, M)
        return float(np.max(np.sqrt(np.sum(vals * vals, axis=1))))

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        entries = []
        for k in range(self.kmax + 1):
            if np.any(self.coeffs[k] != 0):
                entries.append({"k": k,
                                "re": [float(x) for x in self.coeffs[k].real],
                                "im": [float(x) for x in self.coeffs[k].imag]})
        return {"n": self.n, "kmax": self.kmax, "coeffs": entries}

    @staticmethod
    def from_dict(d: dict) -> "TrigPoly":
        n, kmax = int(d["n"]), int(d["kmax"])
        if kmax < 0:
            raise DimensionMismatch(f"kmax must be nonnegative, got {kmax}")
        c = np.zeros((kmax + 1, n), dtype=complex)
        for entry in d.get("coeffs", []):
            k = int(entry["k"])
            if not 0 <= k <= kmax:
                raise DimensionMismatch(f"coefficient index {k} outside [0, {kmax}]")
            c[k] = np.asarray(entry["re"], dtype=float) + 1j * np.asarray(entry["im"], dtype=float)
        return TrigPoly(c)


def cached_stack(owner, name: str, kmax: int, build) -> np.ndarray:
    """Rows ``0 .. kmax`` of the read-only per-mode array cached in the
    attribute ``name`` of ``owner``: ``build(kmax)`` makes it on first use
    and again only when a larger ``kmax`` is asked for."""
    arr = getattr(owner, name)
    if arr is None or arr.shape[0] <= kmax:
        arr = build(kmax)
        arr.flags.writeable = False
        setattr(owner, name, arr)
    return arr[:kmax + 1]


def eval_grid(u: TrigPoly, M: int) -> np.ndarray:
    """Sample ``u`` on the uniform grid ``t_j = 2 pi j / M``.

    Requires ``M >= 2 kmax + 1`` so the samples determine ``u``.
    Returns shape ``(..., M, n)``.
    """
    if M < 2 * u.kmax + 1:
        raise GridTooSmall(f"M={M} cannot carry bandwidth kmax={u.kmax}")
    return np.fft.irfft(u.coeffs, M, axis=-2, norm="forward")


def analyze_grid(samples: np.ndarray, kmax: int) -> TrigPoly:
    """Trigonometric interpolation coefficients from uniform samples.

    ``samples`` has shape ``(M,)`` or ``(..., M, n)`` with ``M >= 2 kmax + 1``;
    exact for band-limited data, otherwise the usual aliased projection.
    """
    s = np.asarray(samples, dtype=float)
    if s.ndim == 1:
        s = s[:, None]
    M = s.shape[-2]
    if M < 2 * kmax + 1:
        raise GridTooSmall(f"M={M} cannot resolve kmax={kmax}")
    return TrigPoly(np.fft.rfft(s, axis=-2)[..., :kmax + 1, :] / M)


def differentiate(u: TrigPoly, order: int = 1) -> TrigPoly:
    """Apply ``(d/dt)^order`` coefficientwise: ``c_k -> (ik)^order c_k``."""
    if order == 0:
        return TrigPoly(u.coeffs.copy())
    k = np.arange(u.kmax + 1)
    return TrigPoly(u.coeffs * ((1j * k) ** order)[:, None])


def sobolev_norm(u: TrigPoly, order: int) -> float:
    """Norm with weight ``(1 + k^(2 order))`` per mode (all signed modes)."""
    k = np.arange(u.kmax + 1, dtype=float)
    w = 1.0 + k ** (2 * order)
    mult = np.full(u.kmax + 1, 2.0)
    mult[0] = 1.0
    e = np.sum(np.abs(u.coeffs) ** 2, axis=1)
    return float(np.sqrt(np.sum(mult * w * e)))
