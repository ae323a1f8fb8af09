"""Problem container: the periodically forced functional-differential system

    P(d/dt) u(t) + int dLam(s) u(t+s) + g(int dPsi(s) u(t+s)) + h(t, u_t) = p(t)

for 2*pi-periodic ``u`` with values in ``R^n``.  ``P`` is a matrix polynomial
with invertible leading coefficient, ``Lam`` and ``Psi`` are matrix measures
on the circle, ``g`` and ``h`` come from the bounded catalogs, and ``p`` is a
trigonometric polynomial.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DimensionMismatch, ProblemFormatError
from .measures import MeasureMatrix
from .nonlinearity import BoundedNonlinearity, HistoryPerturbation
from .trigpoly import TrigPoly


@dataclass
class MatrixPolynomial:
    """``P(x) = A_0 + A_1 x + ... + A_m x^m`` with ``A_m`` invertible; the
    coefficients must not change once :meth:`stack` has cached ``P(ik)``."""

    coeffs: np.ndarray  # (m+1, n, n)
    _stack: np.ndarray | None = field(default=None, init=False, repr=False,
                                      compare=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim == 1:
            c = c[:, None, None]
        if c.ndim != 3 or c.shape[1] != c.shape[2]:
            raise DimensionMismatch("coefficients must be a stack of square matrices")
        self.coeffs = c
        lead = c[-1]
        scale = np.linalg.norm(lead, 2)
        if scale == 0.0 or abs(np.linalg.det(lead)) <= 1e-12 * scale ** self.n:
            raise DimensionMismatch("leading coefficient A_m is singular")

    @property
    def n(self) -> int:
        return self.coeffs.shape[1]

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def __call__(self, z) -> np.ndarray:
        """``P(z)`` by Horner's rule; shape ``z.shape + (n, n)``."""
        z = np.asarray(z)[..., None, None]
        out = np.zeros(z.shape[:-2] + (self.n, self.n), dtype=complex)
        for j in range(self.degree, -1, -1):
            out = out * z + self.coeffs[j]
        return out

    def stack(self, kmax: int) -> np.ndarray:
        """Read-only ``(kmax+1, n, n)`` array of ``P(ik)``, ``k = 0..kmax``,
        cached and grown like :meth:`MeasureMatrix.stack`."""
        if self._stack is None or self._stack.shape[0] <= kmax:
            self._stack = self(1j * np.arange(kmax + 1))
            self._stack.flags.writeable = False
        return self._stack[:kmax + 1]

    @staticmethod
    def from_scalar(coeffs) -> "MatrixPolynomial":
        return MatrixPolynomial(np.asarray(coeffs, dtype=float)[:, None, None])

    def to_dict(self):
        return [a.tolist() for a in self.coeffs]

    @staticmethod
    def from_dict(data) -> "MatrixPolynomial":
        return MatrixPolynomial(np.asarray(data, dtype=float))


@dataclass
class SolveConfig:
    """Harmonic balance settings; a problem file without a ``solve`` block,
    or with ``null`` or ``{}`` there, gets the defaults.

    Problem files written by older versions may carry ``M``, ``damping``,
    ``seed_radii``, ``seed_samples``, ``jacobian`` and ``fd_step`` keys;
    they are ignored (the grid follows ``kmax``, and the damping schedule
    and the seed scan are fixed in :mod:`fde.solver`).
    """

    kmax: int = 64
    tol_residual: float = 1e-10
    max_iter: int = 100

    def __post_init__(self):
        if self.kmax < 1:
            raise DimensionMismatch("kmax must be at least 1")

    def to_dict(self):
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "SolveConfig":
        # the schema leaves ``solve`` untyped; absent keys keep the defaults
        casts = {"kmax": int, "tol_residual": float, "max_iter": int}
        return SolveConfig(**{k: cast(d[k]) for k, cast in casts.items()
                              if k in d})


@dataclass
class ProblemSpec:
    """Complete problem data; validates cross-object dimensions on build.
    ``solve`` defaults to ``SolveConfig()`` and is never ``None``."""

    P: MatrixPolynomial
    Lam: MeasureMatrix
    Psi: MeasureMatrix
    g: BoundedNonlinearity
    p: TrigPoly
    h: HistoryPerturbation | None = None
    solve: SolveConfig = field(default_factory=SolveConfig)
    _columns: np.ndarray | None = field(default=None, init=False, repr=False,
                                        compare=False)
    _report: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.P.n
        for label, size in (("Lambda", self.Lam.n), ("Psi", self.Psi.n),
                            ("g", self.g.n), ("p", self.p.n)):
            if size != n:
                raise DimensionMismatch(f"{label} has size {size}, expected {n}")
        if self.h is not None:
            for term in self.h.terms:
                if not 0 <= term.component < n:
                    raise DimensionMismatch("perturbation target outside the system")
                for tap in term.taps:
                    if not 0 <= tap.component < n:
                        raise DimensionMismatch("perturbation tap outside the system")

    @property
    def n(self) -> int:
        return self.P.n

    def column_stack(self, kmax: int) -> np.ndarray:
        """Read-only ``(kmax+1, n + T, n)`` mode multipliers of ``Psi u`` and of
        the ``T`` taps ``u_c(t - delay)`` of :meth:`HistoryPerturbation.taps`
        (``e_c e^{-ik delay}``), cached and grown like :meth:`MeasureMatrix.stack`."""
        if self._columns is None or self._columns.shape[0] <= kmax:
            k = np.arange(kmax + 1)[:, None, None]
            taps = self.h.taps() if self.h is not None else []
            rows = [np.eye(self.n)[[c]] * np.exp(-1j * k * d) for c, d in taps]
            self._columns = np.concatenate([self.Psi.stack(kmax)] + rows, axis=1)
            self._columns.flags.writeable = False
        return self._columns[:kmax + 1]

    def resonance_report(self):
        """The default-``tol`` :func:`~fde.resonance.resonant_set` of ``P`` and
        ``Lam``, computed once; shared by every caller, so not to be modified."""
        if self._report is None:
            from .resonance import resonant_set
            self._report = resonant_set(self.P, self.Lam)
        return self._report

    def to_dict(self) -> dict:
        return {"n": self.n,
                "P": self.P.to_dict(),
                "Lambda": self.Lam.to_dict(),
                "Psi": self.Psi.to_dict(),
                "g": self.g.to_dict(),
                "h": self.h.to_dict() if self.h is not None else None,
                "p": self.p.to_dict(),
                "solve": self.solve.to_dict()}

    @staticmethod
    def from_dict(d: dict) -> "ProblemSpec":
        try:
            return ProblemSpec(
                P=MatrixPolynomial.from_dict(d["P"]),
                Lam=MeasureMatrix.from_dict(d["Lambda"]),
                Psi=MeasureMatrix.from_dict(d["Psi"]),
                g=BoundedNonlinearity.from_dict(d["g"]),
                p=TrigPoly.from_dict(d["p"]),
                h=(HistoryPerturbation.from_dict(d["h"])
                   if d.get("h") is not None else None),
                solve=SolveConfig.from_dict(d.get("solve") or {}))
        except KeyError as e:
            raise ProblemFormatError(f"missing field {e.args[0]!r}") from e

    def content_hash(self) -> int:
        """Stable 63-bit hash of the problem content, solve block excluded."""
        doc = self.to_dict()
        doc.pop("solve", None)
        blob = json.dumps(doc, sort_keys=True).encode()
        return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1
