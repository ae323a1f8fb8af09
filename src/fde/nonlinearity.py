"""Bounded nonlinearities with asymptotic limits, and history perturbations.

Two catalogs are provided.  :class:`BoundedNonlinearity` covers the
state-coupled term ``g``: componentwise saturating profiles with declared
limits at +-infinity, radially homogeneous fields ``g(x) = phi(|x|) G(x/|x|)``
with ``phi -> 1``, and finite sign-pattern tables.  :class:`HistoryPerturbation`
covers the bounded remainder ``h(t, u_t)`` built from finitely many delayed
point evaluations of the state.

Every catalog entry knows its own sup norm, its radial limits, and (when
smooth) its derivative, which is what the residual Jacobian needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .trigpoly import TrigPoly


def _tanh_tail(z):
    # 2 / (1 + e^{2z}), written with e^{-2|z|} so nothing overflows
    with np.errstate(under="ignore"):
        e = np.exp(-2.0 * np.abs(z))
    return 2.0 * np.where(z > 0, e, 1.0) / (1.0 + e)


def _alg_tail(z):
    q = np.hypot(1.0, z)
    return np.where(z > 0, 1.0 / (q * (q + np.abs(z))), 1.0 - z / q)


def _sech(z):
    # 2 e^{-|z|} / (1 + e^{-2|z|}) cannot overflow; its underflow to 0
    # far out is the correctly rounded value
    with np.errstate(under="ignore"):
        e = np.exp(-np.abs(z))
        return 2.0 * e / (1.0 + e * e)


# (value, derivative[, tail]) of each profile by name.  The saturating
# profiles of ``g`` (tanh, atan, alg) run from -1 to 1 and carry a tail
# ``1 - value(z)`` that keeps full relative accuracy as ``z -> +inf``
# (pi/2 - atan z = atan2(1, z) for every z); those of ``h`` (tanh, sech,
# sin, cos) are bounded by one.  Names are checked by the constructors.
_PROFILES = {
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2, _tanh_tail),
    "atan": (lambda z: (2.0 / np.pi) * np.arctan(z),
             lambda z: (2.0 / np.pi) / (1.0 + z * z),
             lambda z: (2.0 / np.pi) * np.arctan2(1.0, z)),
    "alg": (lambda z: z / np.sqrt(1.0 + z * z), lambda z: (1.0 + z * z) ** -1.5, _alg_tail),
    "sech": (_sech, lambda z: -np.tanh(z) * _sech(z)),
    "sin": (np.sin, np.cos),
    "cos": (np.cos, lambda z: -np.sin(z)),
}


@dataclass
class ComponentProfile:
    """Scalar saturating profile ``mid + half * base(scale (x - shift))``.

    ``base`` runs from -1 to 1, so the profile has limits ``lo`` and ``hi``.
    ``tanh`` has an exponential tail, ``atan`` a 1/x tail, ``alg`` a 1/x^2
    tail.
    """

    kind: str
    lo: float
    hi: float
    scale: float = 1.0
    shift: float = 0.0

    def __post_init__(self):
        if self.kind not in ("tanh", "atan", "alg"):
            raise DimensionMismatch(f"unknown saturation profile {self.kind!r}")
        if self.scale <= 0:
            raise DimensionMismatch("profile scale must be positive")

    @property
    def mid(self):
        return 0.5 * (self.hi + self.lo)

    @property
    def half(self):
        return 0.5 * (self.hi - self.lo)

    def value(self, x):
        z = self.scale * (np.asarray(x) - self.shift)
        return self.mid + self.half * _PROFILES[self.kind][0](z)

    def deriv(self, x):
        z = self.scale * (np.asarray(x) - self.shift)
        return self.half * self.scale * _PROFILES[self.kind][1](z)

    def to_dict(self):
        return {"profile": self.kind, "lo": self.lo, "hi": self.hi,
                "scale": self.scale, "shift": self.shift}

    @staticmethod
    def from_dict(d):
        return ComponentProfile(d["profile"], float(d["lo"]), float(d["hi"]),
                                float(d.get("scale", 1.0)), float(d.get("shift", 0.0)))


@dataclass
class BoundedNonlinearity:
    """State nonlinearity from the catalog; see module docstring.

    Exactly one of the three parameter groups is populated depending on
    ``kind``: ``components`` (componentwise), ``A``/``b`` (radial with
    ``G(v) = A v + b`` and ``phi(r) = r / sqrt(1 + r^2)``), or ``table`` and
    ``zero_value`` (sign table, constant on each open orthant).  The arrays
    the field reads are built here, so these must not change afterwards.
    """

    kind: str
    components: list | None = None
    A: np.ndarray | None = None
    b: np.ndarray | None = None
    table: dict | None = None
    zero_value: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "componentwise":
            if not self.components:
                raise DimensionMismatch("componentwise nonlinearity needs profiles")
            self.lo = np.array([p.lo for p in self.components])
            self.hi = np.array([p.hi for p in self.components])
        elif self.kind == "radial":
            self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
            if self.b is None:
                self.b = np.zeros(self.A.shape[0])
            self.b = np.asarray(self.b, dtype=float)
            if self.A.shape[0] != self.A.shape[1] or self.A.shape[0] != self.b.size:
                raise DimensionMismatch("radial field needs square A and matching b")
        elif self.kind == "sign_table":
            if not self.table:
                raise DimensionMismatch("sign table is empty")
            n = len(next(iter(self.table)))
            if len(self.table) != 2 ** n:
                raise DimensionMismatch("sign table must cover all 2^n patterns")
            self.table = {k: np.asarray(v, dtype=float) for k, v in self.table.items()}
            for key, v in self.table.items():
                if len(key) != n or v.size != n:
                    raise DimensionMismatch("sign table entries are inconsistent")
            if self.zero_value is None:
                self.zero_value = np.mean(list(self.table.values()), axis=0)
            self.zero_value = np.asarray(self.zero_value, dtype=float)
            # one row per pattern; bit j of the row index set means x_j > 0
            self._lookup = np.empty((2 ** n, n))
            for key, val in self.table.items():
                self._lookup[sum(1 << j for j, s in enumerate(key) if s == "+")] = val
        else:
            raise DimensionMismatch(f"unknown nonlinearity kind {self.kind!r}")

    # -- structure -----------------------------------------------------

    @property
    def n(self) -> int:
        if self.kind == "componentwise":
            return len(self.components)
        if self.kind == "radial":
            return self.A.shape[0]
        return len(next(iter(self.table)))

    @property
    def smooth(self) -> bool:
        return self.kind != "sign_table"

    @property
    def componentwise(self) -> bool:
        return self.kind == "componentwise"

    # -- evaluation ----------------------------------------------------

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Field at each row of ``x``, shape ``(..., n)``."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[-1] != self.n:
            raise DimensionMismatch("argument width differs from field size")
        if self.kind == "componentwise":
            return np.stack([p.value(x[..., j]) for j, p in enumerate(self.components)],
                            axis=-1)
        if self.kind == "radial":
            r = np.sqrt(np.sum(x * x, axis=-1))[..., None]
            safe = np.where(r > 0, r, 1.0)
            G = (x / safe) @ self.A.T + self.b
            phi = r / np.sqrt(1.0 + r * r)
            return phi * np.where(r > 0, G, 0.0)
        idx = ((x > 0.0).astype(int) << np.arange(self.n)).sum(axis=-1)
        out = self._lookup[idx]
        null = np.any(x == 0.0, axis=-1)
        if np.any(null):
            out[null] = self.zero_value
        return out

    def deriv(self, x: np.ndarray) -> np.ndarray:
        """Jacobian of the field at each sample.

        Componentwise fields return the diagonal, shape ``(M, n)``; radial
        fields the full ``(M, n, n)``.  Sign tables are not differentiable.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.kind == "componentwise":
            return np.stack([p.deriv(x[:, j]) for j, p in enumerate(self.components)], axis=1)
        if self.kind == "sign_table":
            raise DimensionMismatch("sign-table nonlinearity is not differentiable")
        n = self.n
        r = np.sqrt(np.sum(x * x, axis=1))
        safe = np.where(r > 1e-9, r, 1.0)
        v = x / safe[:, None]
        G = v @ self.A.T + self.b
        phi = r / np.sqrt(1.0 + r * r)
        dphi = (1.0 + r * r) ** -1.5
        proj = np.eye(n)[None, :, :] - v[:, :, None] * v[:, None, :]
        out = (G[:, :, None] * (dphi[:, None] * v)[:, None, :]
               + (phi / safe)[:, None, None] * (self.A[None, :, :] @ proj))
        out[r <= 1e-9] = 0.0
        return out

    # -- limits --------------------------------------------------------

    def limit(self, y: np.ndarray) -> np.ndarray:
        """Radial limit ``lim_{s -> inf} g(s y)`` at each row of ``y``
        (shape ``(..., n)``); zero rows (and zero components, for
        componentwise and sign-table fields) fall back to ``g(0)``."""
        if self.kind == "componentwise":
            return np.where(y > 0, self.hi, np.where(y < 0, self.lo, self.value_at_zero()))
        if self.kind == "radial":
            r = np.linalg.norm(y, axis=-1)
            safe = np.where(r > 0, r, 1.0)
            out = (y / safe[..., None]) @ self.A.T + self.b
            out[r == 0.0] = self.value_at_zero()
            return out
        # the table is constant on each orthant and g(0) on its boundary
        return self(np.sign(y))

    def limit_gap(self, y: np.ndarray, s) -> np.ndarray:
        """``limit(y) - g(s y)`` at each row of ``y`` (``s`` broadcasts
        against the rows), in tail form: the gap of a saturating profile or
        of ``phi`` is computed directly, not as the difference of two
        numbers that agree to ``1/(s |y|)``."""
        y = np.asarray(y, dtype=float)
        x = np.asarray(s, dtype=float)[..., None] * y
        if self.kind == "componentwise":
            sgn = np.sign(y)
            # hi - value(x) is half (1 - base(z)), lo - value(x) is
            # -half (1 - base(-z)), and the gap is 0 where y is
            return np.stack([sgn[..., j] * p.half * _PROFILES[p.kind][2](
                sgn[..., j] * p.scale * (x[..., j] - p.shift))
                for j, p in enumerate(self.components)], axis=-1)
        if self.kind == "radial":
            # 1 - phi(r) = 1 / (sqrt(1 + r^2) (sqrt(1 + r^2) + r))
            r = np.linalg.norm(x, axis=-1, keepdims=True)
            q = np.hypot(1.0, r)
            return self.limit(y) / (q * (q + r))
        return self.limit(y) - self(x)

    def value_at_zero(self) -> np.ndarray:
        return self(np.zeros(self.n))[0]

    def jump(self, j: int) -> float:
        """Limit gap ``g_j(+inf) - g_j(-inf)`` of one component (componentwise)."""
        if self.kind != "componentwise":
            raise DimensionMismatch("per-component jumps need a componentwise field")
        return self.components[j].hi - self.components[j].lo

    # -- bounds --------------------------------------------------------

    def sup_norm(self) -> float:
        """Bound on ``sup_x |g(x)|`` (Euclidean)."""
        if self.kind == "componentwise":
            return float(np.sqrt(sum(max(abs(p.lo), abs(p.hi)) ** 2
                                     for p in self.components)))
        if self.kind == "radial":
            return float(np.linalg.norm(self.A, 2) + np.linalg.norm(self.b))
        vals = [np.linalg.norm(val) for val in self.table.values()]
        vals.append(np.linalg.norm(self.zero_value))
        return float(max(vals))

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        if self.kind == "componentwise":
            return {"kind": "componentwise",
                    "components": [p.to_dict() for p in self.components]}
        if self.kind == "radial":
            return {"kind": "radial", "A": self.A.tolist(), "b": self.b.tolist()}
        return {"kind": "sign_table",
                "table": {k: v.tolist() for k, v in sorted(self.table.items())},
                "zero_value": self.zero_value.tolist()}

    @staticmethod
    def from_dict(d: dict) -> "BoundedNonlinearity":
        kind = d.get("kind")
        if kind == "componentwise":
            return BoundedNonlinearity(kind,
                                       components=[ComponentProfile.from_dict(c)
                                                   for c in d["components"]])
        if kind == "radial":
            return BoundedNonlinearity(kind, A=np.asarray(d["A"], dtype=float),
                                       b=np.asarray(d.get("b"), dtype=float)
                                       if d.get("b") is not None else None)
        if kind == "sign_table":
            return BoundedNonlinearity(kind, table=dict(d["table"]),
                                       zero_value=d.get("zero_value"))
        raise DimensionMismatch(f"unknown nonlinearity kind {kind!r}")


def saturating(lo: float = -1.0, hi: float = 1.0, kind: str = "tanh",
               scale: float = 1.0, shift: float = 0.0, n: int = 1) -> BoundedNonlinearity:
    """Convenience: ``n`` identical componentwise saturating profiles."""
    return BoundedNonlinearity("componentwise",
                               components=[ComponentProfile(kind, lo, hi, scale, shift)
                                           for _ in range(n)])


# -- history perturbation ---------------------------------------------


@dataclass
class DelayTap:
    component: int
    delay: float
    weight: float = 1.0

    def to_dict(self):
        return {"component": self.component, "delay": self.delay, "weight": self.weight}


@dataclass
class PerturbationTerm:
    """``amp * cos(tmod_harmonic t + tmod_phase) * base(sum taps)`` added to
    one target component; each tap reads ``weight * u_c(t - delay)``."""

    component: int
    amp: float
    profile: str
    taps: list
    tmod_harmonic: int = 0
    tmod_phase: float = 0.0

    def __post_init__(self):
        if self.profile not in ("tanh", "sech", "sin", "cos"):
            raise DimensionMismatch(f"unknown perturbation profile {self.profile!r}")

    def tmod(self, t):
        if self.tmod_harmonic == 0 and self.tmod_phase == 0.0:
            return 1.0
        return np.cos(self.tmod_harmonic * t + self.tmod_phase)

    def to_dict(self):
        return {"component": self.component, "amp": self.amp,
                "profile": self.profile,
                "taps": [tp.to_dict() for tp in self.taps],
                "tmod": ({"harmonic": self.tmod_harmonic, "phase": self.tmod_phase}
                         if (self.tmod_harmonic or self.tmod_phase) else None)}


@dataclass
class HistoryPerturbation:
    """Bounded perturbation built from finitely many delayed evaluations.

    ``sup`` and ``kernel_orthogonal`` keys in a problem file are ignored:
    the bound always comes from the terms, and nothing checks a declared
    orthogonality to the kernel.  The terms must not change after
    construction, which builds each term's ``reads``: the columns of its
    taps among :meth:`taps` (a repeated tap repeats its column) and their
    weights.
    """

    terms: list = field(default_factory=list)

    def __post_init__(self):
        col = {key: i for i, key in enumerate(self.taps())}
        self.reads = [(np.array([col[tp.component, tp.delay] for tp in t.taps], dtype=int),
                       np.array([tp.weight for tp in t.taps], dtype=float))
                      for t in self.terms]

    def sup_norm(self) -> float:
        """Bound on ``sup |h|`` (profiles are bounded by one)."""
        comps: dict[int, float] = {}
        for term in self.terms:
            comps[term.component] = comps.get(term.component, 0.0) + abs(term.amp)
        return float(np.sqrt(sum(v * v for v in comps.values())))

    @property
    def time_dependent(self) -> bool:
        return any(t.tmod_harmonic != 0 or t.tmod_phase != 0.0 for t in self.terms)

    def taps(self) -> list:
        """Distinct ``(component, delay)`` pairs the terms read, in order."""
        return list(dict.fromkeys((tp.component, tp.delay) for t in self.terms for tp in t.taps))

    def profiles(self, taps: np.ndarray, order: int = 0) -> list:
        """``amp * tmod(t) * base(z)`` of each term, ``base`` column ``order`` of
        the profile table (0 the profile, 1 its derivative), from the
        ``(..., M, T)`` grid samples ``taps`` of :meth:`taps`; a term without
        taps reads ``z = 0``."""
        M = taps.shape[-2]
        t = 2.0 * np.pi * np.arange(M) / M if self.time_dependent else None
        return [term.amp * term.tmod(t) * _PROFILES[term.profile][order](sum(
            w * taps[..., c] for c, w in zip(cols, weights)))
            for term, (cols, weights) in zip(self.terms, self.reads)]

    def add_to(self, out: np.ndarray, taps: np.ndarray) -> np.ndarray:
        """Add ``h(t, u_t)`` on the grid of ``taps`` (:meth:`profiles`) to ``out``."""
        for term, v in zip(self.terms, self.profiles(taps)):
            out[..., term.component] += v
        return out

    def to_dict(self) -> dict:
        return {"terms": [t.to_dict() for t in self.terms]}

    @staticmethod
    def from_dict(d: dict) -> "HistoryPerturbation":
        terms = []
        for t in d.get("terms", []):
            tmod = t.get("tmod") or {}
            terms.append(PerturbationTerm(
                int(t["component"]), float(t["amp"]), t["profile"],
                [DelayTap(int(tp["component"]), float(tp["delay"]),
                          float(tp.get("weight", 1.0))) for tp in t["taps"]],
                int(tmod.get("harmonic", 0)), float(tmod.get("phase", 0.0))))
        return HistoryPerturbation(terms)


def nemytskii_core(prob, c: np.ndarray, M: int):
    """``(N, samples)`` at the ``(..., kmax+1, n)`` coefficients ``c`` of
    ``u``: those of ``N u = p - g(Psi u) - h(t, u_t)`` up to ``kmax`` from one
    spectral pass (one inverse FFT of ``Psi u`` and the taps of ``h`` from
    ``prob.column_stack``, ``g`` and ``h`` pointwise, one FFT back, the
    band-limited forcing added in coefficient space), and the ``(..., M, n + T)``
    samples of ``Psi u`` and the taps.  ``M >= 4 kmax`` keeps aliasing low."""
    kmax, n = c.shape[-2] - 1, c.shape[-1]
    if n != prob.n:
        raise DimensionMismatch(f"u has {n} components, the problem {prob.n}")
    need = max(2 * kmax + 1, 4 * kmax, 2 * prob.p.kmax + 1)
    if M < need:
        raise DimensionMismatch(f"M={M} undersamples kmax={kmax}; need >= {need}")
    cols = np.einsum("kij,...kj->...ki", prob.column_stack(kmax), c)
    samples = np.fft.irfft(cols, M, axis=-2, norm="forward")
    total = prob.g(samples[..., :n])
    if prob.h is not None:
        prob.h.add_to(total, samples[..., n:])
    N = np.fft.rfft(total, axis=-2)[..., :kmax + 1, :] / -M
    N[..., :prob.p.kmax + 1, :] += prob.p.coeffs[:kmax + 1]
    return N, samples


def nemytskii_slopes(prob, samples: np.ndarray) -> np.ndarray:
    """``(n, n + T, M)`` multipliers ``A(t)`` of the linearized ``g + h`` at
    the ``(M, n + T)`` samples of :func:`nemytskii_core`: ``A[i, j]`` is the
    derivative of component ``i`` by sample column ``j``, the entries of
    ``g'(Psi u)`` and, in the column of each tap, its weight times the
    profile derivative of each term that reads it."""
    n = prob.n
    A = np.zeros((n, samples.shape[-1], samples.shape[0]))
    dG = prob.g.deriv(samples[:, :n])
    A[:, :n] = dG.T * np.eye(n)[..., None] if prob.g.componentwise else dG.transpose(1, 2, 0)
    if prob.h is not None:
        derivs = prob.h.profiles(samples[:, n:], 1)
        for term, (cols, weights), fac in zip(prob.h.terms, prob.h.reads, derivs):
            # add.at sums a repeated tap into its column
            np.add.at(A[term.component], n + cols, weights[:, None] * fac)
    return A


def nemytskii_eval(prob, u: TrigPoly, M: int) -> TrigPoly:
    """Coefficients of ``N u`` up to ``u.kmax`` (:func:`nemytskii_core`); a
    batch of ``u`` gives the batch of results."""
    return TrigPoly(nemytskii_core(prob, u.coeffs, M)[0])
