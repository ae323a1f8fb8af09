"""Numerical certification of Lazer-Leach type existence conditions.

At resonance, solvability hinges on the projected limit field

    Gamma_tilde(w) = Proj_ker (g_w - p),    g_w = radial limit of g along Psi w,

over the unit sphere of the kernel.  This module samples that sphere,
reports quantitative margins for the range condition (the projected field
never vanishes) and for the inner-product test, computes the Brouwer degree
of the normalized field through winding numbers, and runs the saturation
diagnostics (small-set measure, finite-amplitude convergence of the limit
field).

Margins and gaps are stated in kernel-coordinate norm: a kernel element
with positive-frequency amplitude vector ``a`` has coordinate norm
``|a| = ||w||_L2 / sqrt(2)``.  With that normalization the scalar
saturating example with limits -+1 and no forcing has range margin
``2/pi``, the classical constant.

All certificates are sampling based: a positive verdict is evidence, not a
proof, while a failure witness is an exact counterexample candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BlockStructureError, DimensionMismatch, R2ViolationError,
                     RefinementError)
from .measures import apply_deviation
from .resonance import (KernelElement, ResonanceReport, deviation_eigenvalues,
                        resonant_set)
from .sampling import coords_to_amps, phase_circle, sphere_points
from .trigpoly import analyze_grid, eval_grid

TWO_PI = 2.0 * np.pi

_NOTE = "sampling-based evidence, not a proof"


class SphereSample(KernelElement):
    """Kernel element normalized to ``||w||_L2 = 1`` (each element of a
    batch).

    Its real parametrization coordinates then lie on the sphere of radius
    sqrt(2).
    """

    def __post_init__(self):
        super().__post_init__()
        norms = np.sqrt(2.0) * np.linalg.norm(self.amps, axis=-1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise DimensionMismatch("sphere sample is not L2-normalized")

    @staticmethod
    def from_amps(report: ResonanceReport, amps) -> "SphereSample":
        amps = np.atleast_1d(np.asarray(amps, dtype=complex))
        nrm = np.linalg.norm(amps)
        if nrm == 0.0:
            raise DimensionMismatch("cannot normalize the zero element")
        return SphereSample(report, amps / (np.sqrt(2.0) * nrm))

    @staticmethod
    def single_phase(report: ResonanceReport, phase) -> "SphereSample":
        """The sample shaped like ``sqrt(2) cos(k t - phase)`` when the
        kernel is two dimensional; an array of phases gives a batch."""
        if report.nu != 1:
            raise DimensionMismatch("phase parametrization needs a 2-d kernel")
        return SphereSample(report, np.exp(-1j * np.asarray(phase))[..., None]
                            / np.sqrt(2.0))


def _ensure_report(prob, report):
    return resonant_set(prob.P, prob.Lam) if report is None else report


def gamma_tilde(prob, w: KernelElement, M: int = 4096) -> KernelElement:
    """Projected limit field ``Proj_ker (g_w - p)`` in kernel coordinates,
    with ``g_w`` sampled along the deviated kernel element ``Psi w``; a
    batch of ``w`` gives the batch of fields."""
    report = w.report
    kb = max(report.kernel_basis.shape[1] - 1, 1, prob.p.kmax)
    if M < max(2 * kb + 1, 64):
        raise DimensionMismatch("grid too small for the resonant band")
    vals = prob.g.limit(eval_grid(apply_deviation(prob.Psi, w.to_poly()), M))
    vals -= eval_grid(prob.p, M)
    return KernelElement.from_poly(report, analyze_grid(vals, kb))


def gamma_unit(prob, w: KernelElement, M: int = 4096,
               tol: float = 1e-9) -> SphereSample:
    """Normalized projected limit field; raises when it (nearly) vanishes."""
    gt = gamma_tilde(prob, w, M)
    if gt.coord_norm() <= tol:
        raise R2ViolationError("projected limit field vanishes at a sample",
                              witness=w)
    return SphereSample.from_amps(w.report, gt.amps)


def kernel_forcing_coords(prob, report: ResonanceReport) -> np.ndarray:
    """Coordinates of the kernel projection of the forcing ``p``."""
    return KernelElement.from_poly(report, prob.p).amps


# -- sphere certificates ----------------------------------------------


def certificate(kind: str, margin: float, samples: int | None = None,
                degree: int | None = None, witness=None, **extra) -> dict:
    out = {"kind": kind, "margin": float(margin), "degree": degree,
           "samples": samples, "witness": witness, "note": _NOTE}
    out.update(extra)
    return out


@dataclass
class SphereScan:
    """Range and inner-product certificates from one sphere sweep."""

    r2: dict
    n2: dict

    def to_dict(self):
        return {"R2": self.r2, "N2": self.n2}


def sphere_samples(report: ResonanceReport, count: int, seed: int) -> list:
    amps = coords_to_amps(sphere_points(2 * report.nu, count, seed=seed))
    return [SphereSample(report, a) for a in amps]


def sphere_scan(prob, report: ResonanceReport | None = None,
                n_samples: int = 32, M: int = 4096,
                seed: int | None = None, gate: float = 1e-9) -> SphereScan:
    """Deterministic sweep over the kernel sphere.

    The range margin is ``min |Gamma_tilde(w)|`` in coordinate norm; the
    verdict fails if any sample (nearly) annihilates the projected field.
    The inner-product test pairs each sample against its own deviated
    image: with ``d = a(Psi w) / |a(Psi w)|`` the gap is
    ``Re <d, a(g_w) - a(p)> - |h|_inf / sqrt(2)``, which in the scalar
    delayed case reduces to the classical margin
    ``|jump| / pi - |phat(m)| cos(...)`` and is delay independent at its
    minimum.
    """
    report = _ensure_report(prob, report)
    if report.nu == 0:
        raise DimensionMismatch("no resonant modes; nothing to certify")
    if seed is None:
        # h only shifts the N2 budget; keep samples h-independent so the
        # R2 margin does not move when the perturbation is toggled
        seed = prob.content_hash(include_h=False) % (2 ** 32)
    samples = sphere_samples(report, n_samples, int(seed))
    h_sup = prob.h.sup_norm() if prob.h is not None else 0.0
    budget = h_sup / np.sqrt(2.0)
    mus = deviation_eigenvalues(report, prob.Psi)

    amps = np.array([w.amps for w in samples])
    gammas = gamma_tilde(prob, KernelElement(report, amps), M).amps
    mags = np.linalg.norm(gammas, axis=-1)
    d = mus * amps
    dn = np.linalg.norm(d, axis=-1)
    # a sample the deviation annihilates gets gap -inf
    d = d / np.where(dn < 1e-14, 1.0, dn)[:, None]
    gaps = np.where(dn < 1e-14, -np.inf,
                    np.real(np.sum(d.conj() * gammas, axis=-1)) - budget)
    # argmin keeps the first sample among ties
    i_r2, i_n2 = int(np.argmin(mags)), int(np.argmin(gaps))
    r2, r2_wit = float(mags[i_r2]), samples[i_r2]
    n2, n2_wit = float(gaps[i_n2]), samples[i_n2]

    r2_cert = certificate("R2", r2, samples=n_samples,
                          witness=r2_wit.to_dict(), holds=bool(r2 > gate),
                          seed=int(seed))
    n2_cert = certificate("N2", n2, samples=n_samples,
                          witness=n2_wit.to_dict(), holds=bool(n2 > gate),
                          h_budget=float(budget), seed=int(seed))
    return SphereScan(r2=r2_cert, n2=n2_cert)


# -- degree ------------------------------------------------------------


def accumulated_winding(values: np.ndarray) -> float:
    """Winding of a closed loop of nonzero complex values around 0.

    The loop is ``values[0], ..., values[-1], values[0]``; each angular
    step is wrapped to ``(-pi, pi]`` and counterclockwise counts positive.
    """
    v = np.asarray(values, dtype=complex)
    ang = np.angle(np.roll(v, -1) / v)
    return float(np.sum(ang) / TWO_PI)


def degree_winding(prob, report: ResonanceReport | None = None,
                   n_grid: int = 64, M: int = 4096,
                   max_points: int = 4096, tol: float = 1e-9) -> int:
    """Brouwer degree of the normalized projected field, 2-d kernels only.

    Walks the phase loop ``w(phi) ~ sqrt(2) cos(k t - phi)``, accumulating
    the angle of the coordinate of ``Gamma_tilde(w(phi))`` and bisecting
    any step of ``pi/2`` or more until the loop is resolved.
    """
    report = _ensure_report(prob, report)
    if report.nu != 1:
        raise DimensionMismatch(
            "winding degree needs a 2-dimensional kernel; "
            "use degree_product for block-decoupled systems")

    phis = np.append(phase_circle(n_grid), TWO_PI)
    vals = np.zeros(phis.size, dtype=complex)
    fresh = np.ones(phis.size, dtype=bool)      # phases not evaluated yet
    while True:
        a = gamma_tilde(prob, SphereSample.single_phase(report, phis[fresh]),
                        M).amps[:, 0]
        vanish = np.abs(a) <= tol
        if np.any(vanish):
            raise R2ViolationError(
                "projected field vanishes on the phase circle",
                witness=float(phis[fresh][np.argmax(vanish)]))
        vals[fresh] = a
        steps = np.angle(vals[1:] / vals[:-1])
        bad = np.flatnonzero(np.abs(steps) >= 0.5 * np.pi)
        if not bad.size:
            break
        if phis.size + bad.size > max_points:
            raise RefinementError("winding refinement budget exhausted")
        phis = np.insert(phis, bad + 1, 0.5 * (phis[bad] + phis[bad + 1]))
        vals = np.insert(vals, bad + 1, 0.0)
        fresh = np.insert(np.zeros(fresh.size, dtype=bool), bad + 1, True)
    total = np.sum(steps) / TWO_PI
    deg = int(np.round(total))
    if abs(total - deg) > 0.05:
        raise RefinementError(f"winding sum {total:.4f} is not near an integer")
    return deg


def _component_blocks(prob, report: ResonanceReport, tol: float = 1e-9) -> dict:
    """Map component -> (frequency, slot index) when every kernel direction
    is a coordinate axis and no component resonates twice."""
    if prob.g.kind != "componentwise":
        raise BlockStructureError("product degree needs a componentwise field")
    blocks: dict = {}
    for idx, (k, j) in enumerate(report.kernel_slots()):
        th = report.modes[k].theta[:, j]
        c = int(np.argmax(np.abs(th)))
        e = np.zeros_like(th)
        e[c] = 1.0
        if np.linalg.norm(th - e) > tol:
            raise BlockStructureError(
                "kernel vector is not a coordinate direction; "
                "unsupported: provide block structure")
        if c in blocks:
            raise BlockStructureError(
                f"component {c} resonates at several frequencies; "
                "unsupported: provide block structure")
        blocks[c] = (k, idx)
    return blocks


def _block_margin(prob, c: int, k: int) -> float:
    """Classical margin ``|jump_c| / pi - |phat_c(k)|`` of one kernel block."""
    return abs(prob.g.jump(c)) / np.pi - abs(prob.p.coeff(k)[c])


def degree_product(prob, report: ResonanceReport | None = None,
                   M: int = 2048, coupling_tol: float = 1e-8) -> int:
    """Degree as a product of per-component winding numbers.

    Valid when the kernel splits into per-component two-dimensional blocks,
    the field is componentwise with positive classical margins, and the
    sampled projected field does not couple the blocks; refuses otherwise.

    Each block's winding is known in closed form.  On its phase loop the
    block coordinate is ``(jump / pi) e^{-i(phi + arg psihat)} - phat(k)``:
    a circle of radius ``|jump| / pi`` about ``-phat(k)``, run clockwise
    once.  A positive block margin ``|jump| / pi - |phat(k)|`` puts the
    origin inside it, so every block winds ``-1`` and the degree is
    ``(-1)^blocks``.
    """
    report = _ensure_report(prob, report)
    blocks = _component_blocks(prob, report)
    nslots = report.nu
    a_p = kernel_forcing_coords(prob, report)

    # coupling probe: the g-response of a pure block sample must stay in its
    # own block (the forcing contributes off-block coordinates regardless)
    idxs = [idx for c, (k, idx) in sorted(blocks.items())]
    amps = np.zeros((len(idxs), nslots), dtype=complex)
    amps[np.arange(len(idxs)), idxs] = 1.0 / np.sqrt(2.0)
    responses = gamma_tilde(prob, SphereSample(report, amps), M).amps + a_p
    for idx, a_g in zip(idxs, responses):
        off = float(np.linalg.norm(np.delete(a_g, idx)))
        if off > coupling_tol * (1.0 + np.linalg.norm(a_g)):
            raise BlockStructureError(
                f"coupled response detected (off-block mass {off:.2e}); "
                "fall back to the sphere_scan report")

    for c, (k, _) in sorted(blocks.items()):
        margin = _block_margin(prob, c, k)
        if margin <= 0:
            raise BlockStructureError(
                f"component {c}: block margin {margin:.3e} is not positive")
    return (-1) ** len(blocks)


# -- classical margin --------------------------------------------------


def ll_margin(prob, report: ResonanceReport | None = None) -> dict:
    """Inner-product margins ``|jump_j| / pi - |phat_j(k_j)|`` per resonant
    component; the overall margin is the worst one.  Needs componentwise
    ``g`` and per-component kernel blocks."""
    report = _ensure_report(prob, report)
    blocks = _component_blocks(prob, report)
    per = {}
    worst = np.inf
    for c, (k, _) in sorted(blocks.items()):
        m = _block_margin(prob, c, k)
        per[c] = {"k": k, "margin": float(m)}
        worst = min(worst, m)
    return {"margin": float(worst), "per_component": per,
            "holds": bool(worst > 0.0)}


# -- saturation diagnostics -------------------------------------------


def small_set_measure(w, eps: float, M: int = 2 ** 16) -> float:
    """Normalized measure of ``{t : |w(t)| < eps}`` by grid counting."""
    poly = w.to_poly() if isinstance(w, KernelElement) else w
    vals = eval_grid(poly, M)
    mag = np.sqrt(np.sum(vals * vals, axis=1))
    return float(np.count_nonzero(mag < eps) / M)


def gamma_convergence(prob, w: KernelElement, s_values,
                      M: int | None = None) -> np.ndarray:
    """L2 distance between the limit field and the finite-amplitude field.

    Returns ``||g_w - g(s Psi w)||_L2`` per ``s``: the quantity whose decay
    certifies that sphere margins survive at large finite amplitude.  The
    grid must resolve the saturation layers around the zeros of ``Psi w``,
    whose width shrinks like ``1/s``, so it scales with ``s`` unless ``M``
    is pinned explicitly.  The grids are nested powers of two, so ``Psi w``
    is sampled once on the largest and each ``s`` reads every
    ``M_max / M_s``-th sample.
    """
    s_values = np.atleast_1d(np.asarray(s_values, dtype=float))
    if not s_values.size:
        return np.zeros(0)
    if M is None:
        sizes = [min(1 << int(np.ceil(np.log2(max(4096.0, 128.0 * s)))), 2 ** 22)
                 for s in s_values]
    else:
        sizes = [M] * s_values.size
    M_max = max(sizes)
    y = eval_grid(apply_deviation(prob.Psi, w.to_poly()), M_max)
    limit = prob.g.limit(y)
    out = []
    for s, Ms in zip(s_values, sizes):
        ys = y[::M_max // Ms]
        diff = limit[::M_max // Ms] - prob.g(s * ys)
        out.append(float(np.sqrt(np.mean(np.sum(diff * diff, axis=1)))))
    return np.asarray(out)
