"""Numerical certification of Lazer-Leach type existence conditions.

At resonance, solvability hinges on the projected limit field

    Gamma_tilde(w) = Proj_ker (g_w - p),    g_w = radial limit of g along Psi w,

over the unit sphere of the kernel.  This module reports quantitative
margins for the range condition (the projected field never vanishes) and
for the inner-product test, computes the Brouwer degree of the
normalized field through winding numbers, combines them into one
existence verdict (:func:`certify`), and runs the saturation
diagnostics: the small-set measure, in closed form for a ``w`` of one
frequency and otherwise exact from the roots of ``|w|^2 - eps^2``, and
the finite-amplitude distance ``||g_w - g(s Psi w)||_L2``.

Margins and gaps are stated in kernel-coordinate norm: a kernel element
with positive-frequency amplitude vector ``a`` has coordinate norm
``|a| = ||w||_L2 / sqrt(2)``.  With that normalization the scalar
saturating example with limits -+1 and no forcing has range margin
``2/pi``, the classical constant.

The sphere is scanned on time-shift orbits, read off one field
evaluation per orbit (:func:`_sphere_table`): 8 shifts of each of a few
lattice points, plus the strata where a component of ``Psi w`` vanishes
identically.  When all slots share one frequency, each orbit also adds
its closed-form minima.  A two-dimensional kernel sphere is one orbit, so
there its margins and degree are exact; elsewhere a positive verdict is
evidence, not a proof, while a failure witness is an exact counterexample
candidate.  An orbit table, here or in the seed scan, is exact when
``P gcd(k_s)`` (``P`` its shifts per orbit) divides its grid or ``g_w`` is
a step function, else it agrees with a full scan up to aliasing.

A componentwise field on slots of one frequency needs no root finding:
each component of ``Psi w`` is one sinusoid, so ``g_w`` is a square wave
read off in closed form (:func:`gamma_tilde`), and the finite-amplitude
distance is one quarter-period integral (:func:`gamma_convergence`).
Other inputs find the zeros of ``Psi w``, the unit-circle roots of one
companion polynomial per component (:func:`_root_angles`): a step ``g_w``
is summed over the arcs between them, and the distance, which lives in
layers of width ``1/(s |Psi w'|)`` around them, on panels graded from them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import BlockStructureError, DimensionMismatch, FdeError, R2ViolationError
from .measures import apply_deviation
from .resonance import (KernelElement, ResonanceReport, check_linear_conditions,
                        deviation_eigenvalues)
from .trigpoly import TrigPoly, analyze_grid, eval_grid

TWO_PI = 2.0 * np.pi

_NOTE = "sampling-based evidence, not a proof"
_ORBIT_NOTE = "exact: the kernel sphere is one time-shift orbit"
_NO_KERNEL_NOTE = ("no resonant modes: L is invertible, so bounded g and h "
                   "give a periodic solution")
# a projected field this close to zero counts as vanishing
_GATE = 1e-9
# time shifts per orbit of a sampled kernel sphere of dimension four or more
ORBIT_PHASES = 8
# product degree: distance of a kernel vector from its coordinate axis,
# and the relative off-block mass that couples two blocks
_AXIS_TOL, _COUPLING_TOL = 1e-9, 1e-8


class SphereSample(KernelElement):
    """Kernel element normalized to ``||w||_L2 = 1`` (each element of a
    batch): its real parametrization coordinates lie on the sphere of
    radius sqrt(2)."""

    def __post_init__(self):
        super().__post_init__()
        norms = np.sqrt(2.0) * np.linalg.norm(self.amps, axis=-1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise DimensionMismatch("sphere sample is not L2-normalized")

    @staticmethod
    def single_phase(report: ResonanceReport, phase) -> "SphereSample":
        """The sample shaped like ``sqrt(2) cos(k t - phase)`` when the
        kernel is two dimensional; an array of phases gives a batch.
        Public API for building a sample by its phase; the package itself
        samples kernels through :func:`sphere_design`."""
        if report.nu != 1:
            raise DimensionMismatch("phase parametrization needs a 2-d kernel")
        return SphereSample(report, np.exp(-1j * np.asarray(phase))[..., None]
                            / np.sqrt(2.0))


def _ensure_report(prob, report):
    return prob.resonance_report() if report is None else report


def _sorted_distinct(a) -> np.ndarray:
    """``np.unique(a)`` without the ``numpy.ma`` import it makes on first
    use: the sorted values of ``a``, each once."""
    a = np.sort(a, axis=None)
    keep = np.ones(a.shape, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _root_angles(coeffs) -> np.ndarray:
    """Angles in ``[0, 2 pi)`` of every root of each component's companion
    polynomial ``z^d y_c(z)`` (``d`` its degree) for the coefficients
    ``(..., kb+1, n)`` of a batch of ``y``; shape ``(..., n, 2 kb)``.

    A root on the unit circle is a zero of ``y_c``; one off it is a
    spurious breakpoint, kept because no tolerance can tell "near" from
    "far" for every use.  A component of degree ``d < kb`` fills its last
    ``2 (kb - d)`` slots, and a constant one all of them, with the angle 0,
    which repeats the breakpoint every caller has anyway.  The companion
    matrices of each degree go through one ``np.linalg.eigvals`` call.
    """
    c = np.moveaxis(np.asarray(coeffs, dtype=complex), -1, -2)  # (..., n, kb+1)
    kb = c.shape[-1] - 1
    out = np.zeros(c.shape[:-1] + (2 * kb,))
    deg = np.max(np.where(c[..., 1:] != 0, np.arange(1, kb + 1), 0), axis=-1, initial=0)
    for d in _sorted_distinct(deg[deg > 0]).tolist():
        pick = deg == d
        cd = c[pick]
        # highest power first: c_d .. c_1, c_0, c_-1 .. c_-d
        poly = np.concatenate([cd[:, d:0:-1], cd[:, :1], np.conj(cd[:, 1:d + 1])],
                              axis=1)
        # the companion matrix np.roots builds
        comp = np.zeros((len(cd), 2 * d, 2 * d), dtype=complex)
        comp[:, 0] = -poly[:, 1:] / poly[:, :1]
        comp[:, np.arange(1, 2 * d), np.arange(2 * d - 1)] = 1.0
        out[..., :2 * d][pick] = np.angle(np.linalg.eigvals(comp)) % TWO_PI
    return out


def _step_coefficients(g, y) -> np.ndarray:
    """Coefficients ``c_0 .. c_kb`` of ``g.limit(y)`` for a field that is
    constant while no component of ``y`` changes sign (componentwise and
    sign-table ``g``), as exact arc integrals; shape ``(..., kb+1, n)``.

    Each arc between sorted breakpoints (every root angle of
    :func:`_root_angles`, with 0 and 2 pi) takes the value at its midpoint
    and adds ``value (e^{-ika} - e^{-ikb}) / (2 pi i k)``, or
    ``value (b - a) / 2 pi`` at ``k = 0``.  A spurious breakpoint only
    splits an arc, and a zero component gets ``g(0)``.
    """
    c = y.coeffs
    batch = c.shape[:-2]
    cuts = np.concatenate([np.zeros(batch + (1,)),
                           _root_angles(c).reshape(batch + (-1,)),
                           np.full(batch + (1,), TWO_PI)], axis=-1)
    cuts.sort(axis=-1)
    k = np.arange(1, y.kmax + 1)
    mid = 0.5 * (cuts[..., :-1] + cuts[..., 1:])
    ymid = c[..., :1, :].real + 2.0 * np.real(
        np.exp(1j * mid[..., None] * k) @ c[..., 1:, :])
    edge = np.exp(-1j * cuts[..., None] * k)
    weights = np.concatenate([np.diff(cuts)[..., None],
                              (edge[..., :-1, :] - edge[..., 1:, :]) / (1j * k)],
                             axis=-1) / TWO_PI
    return np.einsum("...jk,...jn->...kn", weights, g.limit(ymid))


def _on_one_line(coeffs) -> np.ndarray:
    """Per ``y`` of a batch ``(m, kb+1, n)``: are all its components real
    multiples of one trigonometric polynomial (rank one up to rounding)?"""
    sv = np.linalg.svd(np.concatenate([coeffs.real, coeffs.imag], axis=-2),
                       compute_uv=False)
    return sv[:, 1:].max(axis=-1, initial=0.0) <= 1e-12 * sv[:, 0]


def _one_frequency(report: ResonanceReport) -> int | None:
    """The frequency ``k`` that every kernel slot shares, else ``None``."""
    ks = {k for k, _ in report.kernel_slots()}
    return ks.pop() if len(ks) == 1 else None


def gamma_tilde(prob, w: KernelElement) -> KernelElement:
    """Projected limit field ``Proj_ker (g_w - p)`` in kernel coordinates
    along the deviated kernel element ``Psi w``; a batch of ``w`` gives the
    batch of fields.

    On a componentwise field with every kernel slot at one frequency
    ``k``, each component of ``Psi w`` is the sinusoid
    ``2 Re(b_c e^{ikt})`` and ``g_w`` is a square wave whose mode ``k``
    is ``jump_c / pi * b_c / |b_c|`` (0 where ``b_c = 0``, where ``g_w``
    is ``g_c(0)``): the field is read off in closed form.  Otherwise,
    componentwise and sign-table fields make ``g_w`` a step function with
    jumps at the zeros of ``Psi w`` only, so its coordinates are summed
    exactly over the arcs between them (:func:`_step_coefficients`), as is
    a radial ``A y/|y| + b`` along a ``Psi w`` on one line
    (:func:`_on_one_line`).  Other radial ``g_w`` are continuous; they, and
    only they, are sampled by the trapezoid rule on
    ``max(4096, 4 kb)`` grid points, ``kb`` the kernel band.  The kernel
    coordinates of ``p`` are subtracted last, whichever path ran.
    """
    return KernelElement(w.report, _field_coords(prob, w)
                         - kernel_forcing_coords(prob, w.report))


def _field_coords(prob, w: KernelElement) -> np.ndarray:
    """:func:`gamma_tilde` before the kernel coordinates of ``p`` are subtracted."""
    report = w.report
    y = apply_deviation(prob.Psi, w.to_poly())
    c = y.coeffs.reshape((-1,) + y.coeffs.shape[-2:])
    k = _one_frequency(report)
    if prob.g.componentwise and k is not None:
        b = c[:, k]
        mag = np.abs(b)
        jumps = np.array([prob.g.jump(j) for j in range(prob.g.n)]) / np.pi
        amps = (jumps * b / np.where(mag > 0.0, mag, 1.0)) @ report.kernel_basis[:, k].conj().T
    else:
        amps = np.empty((len(c), report.nu), dtype=complex)
        step = _on_one_line(c) if prob.g.kind == "radial" else np.ones(len(c), bool)
        if step.any():
            amps[step] = KernelElement.from_poly(
                report, TrigPoly(_step_coefficients(prob.g, TrigPoly(c[step])))).amps
        if not step.all():
            kb = max(report.kernel_basis.shape[1] - 1, 1)
            vals = prob.g.limit(eval_grid(TrigPoly(c[~step]), max(4096, 4 * kb)))
            amps[~step] = KernelElement.from_poly(report, analyze_grid(vals, kb)).amps
    return amps.reshape(y.coeffs.shape[:-2] + (report.nu,))


def kernel_forcing_coords(prob, report: ResonanceReport) -> np.ndarray:
    """Coordinates of the kernel projection of the forcing ``p``."""
    return KernelElement.from_poly(report, prob.p).amps


# -- sphere certificates ----------------------------------------------


def certificate(kind: str, margin: float, degree: int | None = None,
                **fields) -> dict:
    return {"kind": kind, "margin": float(margin), "degree": degree,
            "samples": None, "witness": None, "note": _NOTE, **fields}


@dataclass
class SphereScan:
    """Range and inner-product certificates from one sphere sweep."""

    r2: dict
    n2: dict

    def to_dict(self):
        return {"R2": self.r2, "N2": self.n2}


def _lattice_amps(nu: int, count: int) -> np.ndarray:
    """``(count, nu)`` L2-unit amplitudes from the Kronecker lattice
    ``x_i = frac(i alpha)``, ``i = 1..count``, in ``[0, 1)^{2 nu}``, ``alpha_j =
    phi^-j``, ``phi^{2 nu + 1} = phi + 1``, through Box-Muller: slot ``c`` gets
    modulus ``sqrt(-2 ln(1 - x_c))`` and phase ``2 pi x_{nu+c}``."""
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (2 * nu + 1))
    x = np.arange(1, count + 1)[:, None] * phi ** -np.arange(1.0, 2 * nu + 1) % 1.0
    a = np.sqrt(-2.0 * np.log1p(-x[:, :nu])) * np.exp(TWO_PI * 1j * x[:, nu:])
    return a / (np.sqrt(2.0) * np.linalg.norm(a, axis=1, keepdims=True))


@cache
def _orbit_design(ks: tuple, count: int):
    nu, P, k = len(ks), count if len(ks) == 1 else ORBIT_PHASES, np.array(ks)
    shifts = np.exp(-1j * ((TWO_PI * np.arange(P) / P)[:, None] * (k // np.gcd.reduce(k))))
    amps = (shifts / np.sqrt(2.0) if nu == 1 else
            _lattice_amps(nu, -(-count // P))[:, None] * shifts).reshape(-1, nu)[:count]
    amps.flags.writeable = shifts.flags.writeable = False
    return amps, shifts


def sphere_design(report: ResonanceReport, count: int):
    """``(amps, shifts)``: the ``(count, nu)`` amplitudes of the unit kernel
    elements that the seed scan, the sampled sphere scan and the small-set
    diagnostic read, and the ``(P, nu)`` diagonals ``D_l = e^{-i k_s phi_l}``
    of the time shifts ``phi_l = 2 pi l / (P gcd(k_s))``.  Element
    ``r P + l`` is representative ``r`` shifted by ``phi_l``: ``P = count``
    phases of one orbit on a two-dimensional kernel, else ``P = 8`` shifts
    of each of the first ``ceil(count / 8)`` points of a Kronecker lattice
    (:func:`_lattice_amps`), deterministic and numpy only.  Both are
    read-only and built once per process."""
    return _orbit_design(tuple(k for k, _ in report.kernel_slots()), count)


def sphere_samples(report: ResonanceReport, count: int, seed: int) -> list:
    """``count`` scrambled Sobol points of a kernel sphere of dimension
    ``2 nu <= 8``, the points scipy's ``qmc.Sobol`` draws for an integer
    ``seed >= 0``; no command, solve or certificate calls it, and it is kept
    for callers that pin a seeded draw (perfbench)."""
    from .sobol import _sobol_amps
    return [SphereSample(report, a) for a in _sobol_amps(report.nu, count, operator.index(seed))]


def _strata(prob, report: ResonanceReport) -> np.ndarray:
    """Unit representatives ``(S, nu)`` of the proper kernel sub-spaces on
    which a component ``c`` of ``Psi w`` vanishes identically, the null
    spaces of ``a -> (Psi w(a))_c``, where ``g_w`` jumps to ``g_c(0)``.
    Entries below 1e-12 are zeroed, so an axis-aligned stratum is exact."""
    basis = report.kernel_basis
    _, sv, vh = np.linalg.svd(np.einsum("kcm,skm->cks", prob.Psi.stack(basis.shape[1] - 1),
                                        basis))
    rank = np.sum(sv > 1e-9 * max(sv.max(initial=0.0), 1.0), axis=-1)
    v = np.array([np.where(np.abs(v[r]) > 1e-12, v[r].conj(), 0.0)
                  for r, v in zip(rank, vh) if 0 < r < report.nu], complex).reshape(-1, report.nu)
    return v / (np.sqrt(2.0) * np.linalg.norm(v, axis=-1, keepdims=True))


def _sphere_table(prob, report: ResonanceReport, n_samples: int, budget: float):
    """``(amps, gammas, gaps, first_stratum)``: the design of
    :func:`sphere_design`, then the orbit minima of its representatives,
    then the strata (:func:`_strata`) from row ``first_stratum`` on, with
    fields and N2 gaps.  ``g`` is autonomous, so ``d(S w) = S d(w)`` and
    ``Gamma_tilde(S w) = S (Gamma_tilde(w) + a_p) - a_p``: one
    :func:`_field_coords` call at the representatives and the strata fills
    the table.  On one slot frequency ``S`` is a scalar phase, and each
    representative and stratum adds its R2 and N2 orbit minima at their
    closed-form phases, exact on a two-dimensional kernel, whose sphere is
    one orbit; else each stratum adds its ``P`` shifts."""
    amps, shifts = sphere_design(report, n_samples)
    P, nu = len(shifts), report.nu
    R, a_p = -(-n_samples // P), kernel_forcing_coords(prob, report)
    reps = np.concatenate([amps[::P], _strata(prob, report)])
    mus = deviation_eigenvalues(report, prob.Psi)
    G = _field_coords(prob, KernelElement(report, reps))
    # after the design: each stratum's P shifts, or two closed-form rows
    # per representative and stratum
    phases, extra, first_stratum = shifts, slice(R, None), n_samples
    if _one_frequency(report) is not None:
        # z G - a_p is shortest where z <a_p, G> is real positive, and the
        # gap Re <d, G> - Re <z d, a_p> least where <z d, a_p> is
        phases = np.exp(1j * np.stack([-np.angle(G @ a_p.conj()),
                                       np.angle((mus * reps).conj() @ a_p)], -1))[..., None]
        extra, first_stratum = slice(None), n_samples + 2 * R
    amps = np.concatenate([amps, (phases * reps[extra, None]).reshape(-1, nu)])
    gammas = np.concatenate([(shifts * G[:R, None]).reshape(-1, nu)[:n_samples],
                             (phases * G[extra, None]).reshape(-1, nu)]) - a_p
    d = mus * amps
    dn = np.linalg.norm(d, axis=-1)
    # a sample the deviation annihilates gets gap -inf
    d = d / np.where(dn < 1e-14, 1.0, dn)[:, None]
    gaps = np.where(dn < 1e-14, -np.inf,
                    np.real(np.sum(d.conj() * gammas, axis=-1)) - budget)
    return amps, gammas, gaps, first_stratum


def sphere_scan(prob, report: ResonanceReport | None = None,
                n_samples: int = 32) -> SphereScan:
    """Range and inner-product margins over the kernel sphere.

    The range margin is ``min |Gamma_tilde(w)|`` in coordinate norm; the
    verdict fails if the projected field (nearly) vanishes.  The
    inner-product test pairs each ``w`` against its own deviated image:
    with ``d = a(Psi w) / |a(Psi w)|`` the gap is
    ``Re <d, a(g_w) - a(p)> - |h|_inf / sqrt(2)``, ``-inf`` where the
    deviation annihilates ``w``.  Both are minima over the table of
    :func:`_sphere_table`.  On a two-dimensional kernel its closed-form rows
    are the exact minima (``certified``): ``R2 = ||c0| - |a_p||`` and
    ``N2 = Re(conj(mu_hat) c0) - |a_p| - |h|_inf / sqrt(2)``, ``c0`` the
    field plus ``a_p`` at phase 0 and ``mu_hat`` the unit deviation
    eigenvalue.  Larger kernels give an upper bound on the margins; their
    certificates add the ``samples``, ``orbits`` and ``phases`` of the
    design and whether the witness lies on a ``stratum``.  A margin holds
    when it is above the gate ``1e-9``.
    """
    report = _ensure_report(prob, report)
    if report.nu == 0:
        raise DimensionMismatch("no resonant modes; nothing to certify")
    budget = (prob.h.sup_norm() if prob.h is not None else 0.0) / np.sqrt(2.0)
    amps, gammas, gaps, first_stratum = _sphere_table(prob, report, n_samples, budget)
    mags = np.linalg.norm(gammas, axis=-1)
    # argmin keeps the first sample among ties
    i_r2, i_n2 = np.argmin(mags), np.argmin(gaps)
    common, on = {"note": _ORBIT_NOTE, "certified": True}, ({}, {})
    if report.nu > 1:
        common = {"samples": n_samples, "orbits": -(-n_samples // ORBIT_PHASES),
                  "phases": ORBIT_PHASES, "certified": False}
        on = [{"stratum": bool(i >= first_stratum)} for i in (i_r2, i_n2)]

    r2, n2 = mags[i_r2], gaps[i_n2]
    r2_cert = certificate("R2", r2, witness=KernelElement(report, amps[i_r2]).to_dict(),
                          holds=bool(r2 > _GATE), **common, **on[0])
    n2_cert = certificate("N2", n2, witness=KernelElement(report, amps[i_n2]).to_dict(),
                          holds=bool(n2 > _GATE), h_budget=float(budget), **common, **on[1])
    return SphereScan(r2=r2_cert, n2=n2_cert)


# -- degree ------------------------------------------------------------


def degree_winding(prob, report: ResonanceReport | None = None) -> int:
    """Brouwer degree of the normalized projected field, 2-d kernels only.
    ``g`` is autonomous and ``Psi`` commutes with time shifts, so the
    kernel sphere is the phase loop ``w(phi) ~ sqrt(2) cos(k t - phi)``,
    on which the field is the clockwise circle ``c0 e^{-i phi} - a_p``
    (``c0`` read at ``phi = 0``, :func:`sphere_design`).  It winds ``-1``
    when ``|c0| > |a_p|`` and 0 when ``|c0| < |a_p|``.  Raises
    :class:`R2ViolationError`, with the phase where the field vanishes as
    witness, when ``||c0| - |a_p||`` is within the gate of
    :func:`sphere_scan`."""
    report = _ensure_report(prob, report)
    if report.nu != 1:
        raise DimensionMismatch(
            "winding degree needs a 2-dimensional kernel; "
            "use degree_product for block-decoupled systems")
    a_p = kernel_forcing_coords(prob, report)[0]
    c0 = _field_coords(prob, KernelElement(report, sphere_design(report, 1)[0][0]))[0]
    gap = abs(c0) - abs(a_p)
    if abs(gap) <= _GATE:
        raise R2ViolationError("projected field vanishes on the phase circle",
                               witness=float(np.angle(c0) - np.angle(a_p)))
    return -1 if gap > 0 else 0


def _blocks(prob, report: ResonanceReport) -> dict:
    """Map component -> (frequency, slot index, classical margin
    ``|jump_c| / pi - |phat_c(k)|``) when every kernel direction is a
    coordinate axis and no component resonates twice."""
    if prob.g.kind != "componentwise":
        raise BlockStructureError("product degree needs a componentwise field")
    blocks: dict = {}
    for idx, (k, j) in enumerate(report.kernel_slots()):
        th = report.modes[k].theta[:, j]
        c = int(np.argmax(np.abs(th)))
        e = np.zeros_like(th)
        e[c] = 1.0
        if np.linalg.norm(th - e) > _AXIS_TOL:
            raise BlockStructureError(
                "kernel vector is not a coordinate direction; "
                "unsupported: provide block structure")
        if c in blocks:
            raise BlockStructureError(
                f"component {c} resonates at several frequencies; "
                "unsupported: provide block structure")
        blocks[c] = (k, idx, abs(prob.g.jump(c)) / np.pi - abs(prob.p.coeff(k)[c]))
    return dict(sorted(blocks.items()))


def degree_product(prob, report: ResonanceReport | None = None) -> int:
    """Degree as a product of per-component winding numbers.

    Valid when the kernel splits into per-component two-dimensional blocks,
    the field is componentwise with positive classical margins, and the
    sampled projected field does not couple the blocks; refuses otherwise.

    Each block's phase loop is a clockwise circle of radius ``|jump| / pi``
    about ``-phat(k)`` (:func:`degree_winding`), so a positive block margin
    ``|jump| / pi - |phat(k)|`` makes every block wind ``-1`` and the
    degree ``(-1)^blocks``.
    """
    report = _ensure_report(prob, report)
    blocks = _blocks(prob, report)

    # coupling probe: a pure block sample's g-response must stay in its block
    idxs = [idx for _, idx, _ in blocks.values()]
    amps = np.zeros((len(idxs), report.nu), dtype=complex)
    amps[np.arange(len(idxs)), idxs] = 1.0 / np.sqrt(2.0)
    responses = _field_coords(prob, SphereSample(report, amps))
    for idx, a_g in zip(idxs, responses):
        off = float(np.linalg.norm(np.delete(a_g, idx)))
        if off > _COUPLING_TOL * (1.0 + np.linalg.norm(a_g)):
            raise BlockStructureError(
                f"coupled response detected (off-block mass {off:.2e}); "
                "fall back to the sphere_scan report")

    for c, (_, _, margin) in blocks.items():
        if margin <= 0:
            raise BlockStructureError(
                f"component {c}: block margin {margin:.3e} is not positive")
    return (-1) ** len(blocks)


# -- classical margin --------------------------------------------------


def ll_margin(prob, report: ResonanceReport | None = None) -> dict:
    """Inner-product margins ``|jump_j| / pi - |phat_j(k_j)|`` per resonant
    component; the overall margin is the worst one.  Needs componentwise
    ``g`` and per-component kernel blocks."""
    per = {c: {"k": k, "margin": float(m)}
           for c, (k, _, m) in _blocks(prob, _ensure_report(prob, report)).items()}
    worst = min((m["margin"] for m in per.values()), default=np.inf)
    return {"margin": float(worst), "per_component": per,
            "holds": bool(worst > 0.0)}


# -- the existence record ----------------------------------------------


def certify(prob, report: ResonanceReport | None = None, n_samples: int = 32) -> dict:
    """The existence record that ``fde check-ll`` prints.

    ``R2`` and ``N2`` are the certificates of :func:`sphere_scan`.
    ``degree`` is an ``R3`` certificate carrying :func:`degree_winding` on a
    two-dimensional kernel and :func:`degree_product` on larger ones, or
    ``None`` with the refusal in ``degree_note``; ``ll_margin`` is
    :func:`ll_margin`, or ``None`` with its refusal in ``ll_note``.
    ``linear`` holds the flags of
    :func:`~fde.resonance.check_linear_conditions` (``report.flags`` when
    set), and ``diagnostics`` the deviation constant ``c_psi`` and the
    small-set measure at ``eps = 0.1`` of the first design element.  The
    conditions pass when R2 holds and N2 holds or the degree is nonzero
    (Mawhin's coincidence degree).  Without resonant modes ``L`` is
    invertible and bounded ``g`` and ``h`` give a solution, so the
    conditions pass with the certificates ``None`` and a ``note``.
    """
    report = _ensure_report(prob, report)
    flags = report.flags or check_linear_conditions(report, prob.Psi)
    doc = {"linear": flags.to_dict(), "diagnostics": {"c_psi": flags.c_psi, "small_set": None}}
    if report.nu == 0:
        return {**doc, "R2": None, "N2": None, "degree": None, "ll_margin": None,
                "note": _NO_KERNEL_NOTE, "conditions_pass": True}
    doc.update(sphere_scan(prob, report, n_samples).to_dict())
    try:
        deg = (degree_winding if report.nu == 1 else degree_product)(prob, report)
        doc["degree"] = certificate("R3", margin=doc["R2"]["margin"], degree=deg,
                                    note=doc["R2"]["note"])
    except FdeError as exc:
        doc["degree"], doc["degree_note"], deg = None, str(exc), 0
    try:
        doc["ll_margin"] = ll_margin(prob, report)
    except BlockStructureError as exc:
        doc["ll_margin"], doc["ll_note"] = None, str(exc)
    # on a 2-d kernel the small-set measure is the same at every phase
    w0 = SphereSample(report, sphere_design(report, 1)[0][0])
    doc["diagnostics"]["small_set"] = {"eps": 0.1, "value": small_set_measure(w0, 0.1)}
    doc["conditions_pass"] = bool(doc["R2"]["holds"] and (doc["N2"]["holds"] or deg != 0))
    return doc


# -- saturation diagnostics -------------------------------------------


def small_set_measure(w, eps: float) -> float:
    """Normalized measure of ``{t : |w(t)| < eps}``.

    A ``w`` with one nonzero mode ``k > 0``, ``v = c_k``, has
    ``|w|^2 = A + 2 |B| cos(2 k t + arg B)`` with ``A = 2 sum |v_c|^2`` and
    ``B = sum v_c^2``, so the measure is ``1 - arccos(x) / pi`` at
    ``x = (eps^2 - A) / (2 |B|)`` clipped to ``[-1, 1]``, and
    ``[A < eps^2]`` when ``B = 0``.  Any other ``w`` is summed exactly over
    the arcs between the roots of ``|w|^2 - eps^2``: that trigonometric
    polynomial has the self-convolution of each component's two-sided
    spectrum as coefficients, less ``eps^2`` at mode 0; its
    :func:`_root_angles` cut the circle into arcs on which the sign is
    constant, read at the midpoint.  Runs of arcs of one sign are merged
    before their lengths are summed.  Either way a set that is empty or
    the whole circle measures exactly 0 or 1.
    """
    poly = w.to_poly() if isinstance(w, KernelElement) else w
    c = poly.coeffs
    live = np.flatnonzero(np.any(c != 0, axis=-1))
    if len(live) == 1 and live[0] > 0:
        v = c[live[0]]
        A, B = 2.0 * np.sum(v.real ** 2 + v.imag ** 2), np.sum(v * v)
        if B == 0:
            return float(A < eps * eps)
        x = (eps * eps - A) / (2.0 * abs(B))
        return float(1.0 - np.arccos(np.clip(x, -1.0, 1.0)) / np.pi)
    two_sided = np.concatenate([np.conj(c[:0:-1]), c])         # modes -K .. K
    sq = sum(np.convolve(s, s)[2 * poly.kmax:] for s in two_sided.T)
    sq[0] -= eps * eps
    cuts = np.sort(np.concatenate([[0.0], _root_angles(sq[:, None]).ravel(), [TWO_PI]]))
    mid = poly.eval(0.5 * (cuts[:-1] + cuts[1:]))
    neg = np.sum(mid * mid, axis=-1) < eps * eps
    # keep only the cuts where the sign flips, and the two ends
    keep = np.concatenate([[True], neg[1:] != neg[:-1], [True]])
    return float(np.sum(np.diff(cuts[keep])[neg[keep[:-1]]]) / TWO_PI)


def _panels(centres: np.ndarray, s: float) -> np.ndarray:
    """Edges graded geometrically from ``1/s`` away from each centre up to
    the midpoints between centres."""
    a, b = centres[:-1], centres[1:]
    half = 0.5 * (b - a)
    d = np.exp2(np.arange(max(int(np.ceil(np.log2(s * half.max()))), 0) + 1)) / s
    inner = d < half[:, None]
    return _sorted_distinct(np.concatenate([centres, a + half, (a[:, None] + d)[inner],
                                            (b[:, None] - d)[inner]]))


@cache
def _gauss_legendre():
    """16-point Gauss-Legendre rule on [-1, 1], shared by every panel, built
    on first use: ``numpy.polynomial`` is imported only by
    :func:`gamma_convergence`."""
    return np.polynomial.legendre.leggauss(16)


def _rule(edges: list, s_values, per_unit: float | None):
    """``(nodes, weights, s at each node, first node of each s)`` of the
    Gauss-Legendre panels between the ``edges[i]`` of each ``s_values[i]``,
    each cut evenly into pieces no wider than ``1 / per_unit`` if given."""
    gl_nodes, gl_weights = _gauss_legendre()
    nodes, weights = [], []
    for e in edges:
        if per_unit is not None:
            parts = np.ceil(np.diff(e) * per_unit).astype(int)
            e = np.concatenate([np.linspace(lo, hi, p, endpoint=False)
                                for lo, hi, p in zip(e[:-1], e[1:], parts)] + [e[-1:]])
        half = 0.5 * np.diff(e)[:, None]
        # offsets from the left edge: a rounded panel midpoint would shift
        # all of a panel's nodes together
        nodes.append((e[:-1, None] + half * (1.0 + gl_nodes)).ravel())
        weights.append((half * gl_weights).ravel())
    counts = [n.size for n in nodes]
    return (np.concatenate(nodes), np.concatenate(weights),
            np.repeat(s_values, counts), np.cumsum(counts) - counts)


@cache
def _quarter_rule(s_values: tuple, per_unit: float | None):
    """Read-only :func:`_rule` on ``[0, pi/2]``, graded from the zero at 0
    (edges ``0, 1/s, 2/s, 4/s, ..., pi/2``), with ``sin`` of its nodes."""
    edges = [np.concatenate([[0.0], np.exp2(np.arange(max(np.ceil(np.log2(s * np.pi / 2)), 0)))
                             / s, [np.pi / 2]]) for s in s_values]
    nodes, *rest = _rule(edges, s_values, per_unit)
    table = (np.sin(nodes), *rest)
    for a in table:
        a.flags.writeable = False
    return table


def gamma_convergence(prob, w: KernelElement, s_values,
                      M: int | None = None) -> np.ndarray:
    """L2 distance between the limit field and the finite-amplitude field.

    Returns ``E(s) = ||g_w - g(s Psi w)||_L2`` per ``s``, whose decay
    certifies that sphere margins survive at large finite amplitude.  The
    integrand ``sum_c F_c``, ``F_c = limit_gap_c(y, s)^2`` in tail form, lives
    in layers of width ``1/(s |y'|)`` around the zeros of ``y = Psi w``.  A
    componentwise field on slots of one frequency ``k`` has
    ``y_c = r_c cos(k t + phi_c)``, so
    ``E(s)^2 = (1/pi) sum_c int_0^{pi/2} F_c(r_c sin d) + F_c(-r_c sin d) dd``
    for any ``k`` and phases, on one cached table (:func:`_quarter_rule`)
    graded from ``1/(s R)``, ``R >= max r_c`` a power of two.  Other inputs
    put 16-point Gauss-Legendre panels of width ``1/(s S)`` at every root
    angle of each component (:func:`_root_angles`), ``S > 2 max_c sum_k k
    |c_kc| >= |y'|`` a power of two, doubling up to the midpoints between
    them.  ``M``, when given, caps every panel at width ``2 pi / M`` in ``t``.
    """
    s_values = np.atleast_1d(np.asarray(s_values, dtype=float))
    if np.any(~np.isfinite(s_values) | (s_values <= 0.0)):
        raise ValueError(f"amplitudes must be positive and finite: {s_values}")
    if not s_values.size:
        return np.zeros(0)
    y = apply_deviation(prob.Psi, w.to_poly())
    k = _one_frequency(w.report)
    if prob.g.componentwise and k is not None:
        # the gap depends on s y alone, so s R and r / R (R >= max r a power
        # of two, exact) give the same integrand on panels graded from 1/(s R)
        r = 2.0 * np.abs(y.coeffs[k])
        R = np.ldexp(1.0, max(np.frexp(r.max())[1], 0))
        sines, weights, s_at, starts = _quarter_rule(
            tuple((s_values * R).tolist()), None if M is None else M / (TWO_PI * k))
        ys = sines[:, None] * (r / R)
        vals, period = np.stack([ys, -ys]), np.pi
    else:
        # every root angle, also of a root just off the unit circle: that
        # marks a near-tangent minimum of |y_c|, as thin a layer as a zero
        centres = _sorted_distinct(np.concatenate([[0.0, TWO_PI],
                                                   _root_angles(y.coeffs).ravel()]))
        # a layer is 1/(s |y'|) wide: grade from 1/(s S), S > slope >= |y'| as R above
        slope = 2.0 * np.max(np.arange(y.kmax + 1) @ np.abs(y.coeffs))
        S = np.ldexp(1.0, max(np.frexp(slope)[1], 0))
        nodes, weights, s_at, starts = _rule([_panels(centres, s * S) for s in s_values],
                                             s_values, None if M is None else M / TWO_PI)
        vals, period = y.eval(nodes), TWO_PI
    diff = prob.g.limit_gap(vals, s_at)
    sq = np.sum(diff * diff, axis=-1).reshape(-1, len(weights)).sum(axis=0)
    return np.sqrt(np.add.reduceat(weights * sq, starts) / period)
