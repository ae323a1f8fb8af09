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
from .measures import apply_deviation
from .trigpoly import TrigPoly, analyze_grid, eval_grid


def _base(kind: str, z):
    if kind == "tanh":
        return np.tanh(z)
    if kind == "atan":
        return (2.0 / np.pi) * np.arctan(z)
    if kind == "alg":
        return z / np.sqrt(1.0 + z * z)
    raise DimensionMismatch(f"unknown saturation profile {kind!r}")


def _base_deriv(kind: str, z):
    if kind == "tanh":
        return 1.0 - np.tanh(z) ** 2
    if kind == "atan":
        return (2.0 / np.pi) / (1.0 + z * z)
    if kind == "alg":
        return (1.0 + z * z) ** -1.5
    raise DimensionMismatch(f"unknown saturation profile {kind!r}")


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
        return self.mid + self.half * _base(self.kind, self.scale * (np.asarray(x) - self.shift))

    def deriv(self, x):
        return self.half * self.scale * _base_deriv(self.kind, self.scale * (np.asarray(x) - self.shift))

    def tail_bound(self, y: float) -> float:
        """Upper bound on ``|value(x) - nearest limit|`` for ``|x| >= y``."""
        jump = abs(self.hi - self.lo)
        z = self.scale * (y - abs(self.shift))
        if z <= 0:
            return jump
        if self.kind == "tanh":
            return jump * min(1.0, np.exp(-2.0 * z))
        if self.kind == "atan":
            return jump * min(1.0, 1.0 / (np.pi * z))
        return jump * min(1.0, 0.25 / (z * z))

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
    ``zero_value`` (sign table, constant on each open orthant).
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
        out = self._table_array()[idx]
        null = np.any(x == 0.0, axis=-1)
        if np.any(null):
            out[null] = self.zero_value
        return out

    def _table_array(self) -> np.ndarray:
        """Table flattened for vectorized lookup; bit j set means x_j > 0."""
        n = self.n
        arr = np.empty((2 ** n, n))
        for key, val in self.table.items():
            i = sum(1 << j for j, s in enumerate(key) if s == "+")
            arr[i] = val
        return arr

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
            hi = np.array([p.hi for p in self.components])
            lo = np.array([p.lo for p in self.components])
            out = np.where(y < 0, lo, self.value_at_zero())
            np.copyto(out, hi, where=y > 0)
            return out
        if self.kind == "radial":
            r = np.linalg.norm(y, axis=-1)
            safe = np.where(r > 0, r, 1.0)
            out = (y / safe[..., None]) @ self.A.T + self.b
            out[r == 0.0] = self.value_at_zero()
            return out
        # the table is constant on each orthant and g(0) on its boundary
        return self(np.sign(y))

    def value_at_zero(self) -> np.ndarray:
        if self.kind == "componentwise":
            return np.array([p.value(0.0) for p in self.components])
        if self.kind == "radial":
            return np.zeros(self.n)
        return self.zero_value.copy()

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


def _h_base(kind: str, z):
    if kind == "tanh":
        return np.tanh(z)
    if kind == "sech":
        # 2 e^{-|z|} / (1 + e^{-2|z|}) cannot overflow; its underflow to 0
        # far out is the correctly rounded value
        with np.errstate(under="ignore"):
            e = np.exp(-np.abs(z))
            return 2.0 * e / (1.0 + e * e)
    if kind == "sin":
        return np.sin(z)
    if kind == "cos":
        return np.cos(z)
    raise DimensionMismatch(f"unknown perturbation profile {kind!r}")


def _h_base_deriv(kind: str, z):
    if kind == "tanh":
        return 1.0 - np.tanh(z) ** 2
    if kind == "sech":
        return -np.tanh(z) * _h_base("sech", z)
    if kind == "sin":
        return np.cos(z)
    if kind == "cos":
        return -np.sin(z)
    raise DimensionMismatch(f"unknown perturbation profile {kind!r}")


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

    def tmod(self, t):
        if self.tmod_harmonic == 0 and self.tmod_phase == 0.0:
            return np.ones_like(t)
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

    ``kernel_orthogonal`` carries the problem file's declaration that ``h``
    misses the kernel directions; it is stored and written back, not checked.
    A ``sup`` key in a problem file is ignored: the bound always comes from
    the terms.
    """

    terms: list = field(default_factory=list)
    kernel_orthogonal: bool = False

    def sup_norm(self) -> float:
        """Bound on ``sup |h|`` (profiles are bounded by one)."""
        comps: dict[int, float] = {}
        for term in self.terms:
            comps[term.component] = comps.get(term.component, 0.0) + abs(term.amp)
        return float(np.sqrt(sum(v * v for v in comps.values())))

    @property
    def time_dependent(self) -> bool:
        return any(t.tmod_harmonic != 0 or t.tmod_phase != 0.0 for t in self.terms)

    def tap_signals(self, u: TrigPoly, M: int) -> dict:
        """Grid samples of every distinct delayed component read, each of
        shape ``(..., M)`` over the batch axes of ``u``."""
        out = {}
        for term in self.terms:
            for tap in term.taps:
                key = (tap.component, tap.delay)
                if key not in out:
                    col = TrigPoly(u.coeffs[..., [tap.component]]).shift(-tap.delay)
                    out[key] = eval_grid(col, M)[..., 0]
        return out

    def eval(self, u: TrigPoly, M: int) -> np.ndarray:
        """Samples of ``h(t, u_t)`` on the uniform grid; shape ``(..., M, n_u)``."""
        t = 2.0 * np.pi * np.arange(M) / M
        taps = self.tap_signals(u, M)
        out = np.zeros(u.coeffs.shape[:-2] + (M, u.n))
        for term in self.terms:
            z = sum(tap.weight * taps[(tap.component, tap.delay)] for tap in term.taps)
            out[..., term.component] += term.amp * term.tmod(t) * _h_base(term.profile, z)
        return out

    def to_dict(self) -> dict:
        return {"terms": [t.to_dict() for t in self.terms],
                "kernel_orthogonal": self.kernel_orthogonal}

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
        return HistoryPerturbation(terms,
                                   kernel_orthogonal=bool(d.get("kernel_orthogonal", False)))


def nemytskii_eval(prob, u: TrigPoly, M: int) -> TrigPoly:
    """Coefficients of ``N u = p - g(Psi u) - h(t, u_t)`` up to ``u.kmax``.

    Evaluated pseudospectrally: sample on ``M`` points, apply the
    nonlinearities pointwise, re-analyze.  ``M`` must oversample the band
    (``M >= 4 kmax``) to keep aliasing below the solver tolerances.  A batch
    of ``u`` gives the batch of results.
    """
    kmax = u.kmax
    if M < max(2 * kmax + 1, 4 * kmax):
        raise DimensionMismatch(f"M={M} undersamples kmax={kmax}; need >= {4 * kmax}")
    # h first and the rest in place: a batch makes every grid array large
    h = prob.h.eval(u, M) if prob.h is not None and prob.h.terms else 0.0
    total = prob.g(eval_grid(apply_deviation(prob.Psi, u), M))
    np.subtract(eval_grid(prob.p, M), total, out=total)
    total -= h
    return analyze_grid(total, kmax)
