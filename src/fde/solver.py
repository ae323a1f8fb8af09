"""Truncated harmonic balance for the periodic functional equation.

The state is the real coefficient vector of a degree ``kmax`` trig
polynomial; the residual is ``R(u) = L u - N u`` with the linear symbol
applied mode by mode and the Nemytskii part evaluated pseudospectrally.
Damped Gauss-Newton (Levenberg-Marquardt) handles the singular symbol
blocks at resonant frequencies; seeding along the kernel supplies the
resonant coordinates a zero initial guess cannot reach.

Packing convention: ``x = [c_0, Re c_1, Im c_1, ..., Re c_K, Im c_K]``
componentwise, and the packed residual carries sqrt(2) weights on the
``k >= 1`` rows so its Euclidean norm equals the L2 norm of ``R``.

The Jacobian is assembled alternating frequency and time (Krack & Gross,
*Harmonic Balance for Nonlinear Vibration Problems*, 2019): the
linearized Nemytskii part is a sum of products ``A(t) (B u)(t)`` of a grid
function with a mode multiplier -- ``g'(Psi u)`` with ``psihat(-k)``, and
for each tap of ``h`` its weight times the profile derivative with the
delay phase ``e^{-ik tau}``.  One FFT of ``A`` turns each product into a
Toeplitz block ``Ahat_{k-j} B_j`` plus a Hankel block
``Ahat_{k+j} conj(B_j)``, with indices mod ``M`` so the grid aliasing of
the residual carries over exactly; the symbol adds ``L_k`` on the
diagonal.

A run counts as converged when the coefficient residual meets
``tol_residual``, the residual does not move when the grid doubles, and
the pointwise defect meets :data:`VERIFY_TOL`, the tolerance ``fde
verify`` applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, GridTooSmall
from .measures import MeasureMatrix, ScalarMeasure, apply_deviation
from .nonlinearity import _h_base_deriv, nemytskii_eval
from .problem import SolveConfig
from .resonance import (KernelElement, ResonanceReport, resonant_set, symbol)
from .sampling import coords_to_amps, phase_circle, sphere_points
from .trigpoly import TrigPoly, differentiate, eval_grid

TWO_PI = 2.0 * np.pi

# sup-norm defect in the original equation that a solution must meet
VERIFY_TOL = 1e-8


def symbol_stack(prob, kmax: int) -> np.ndarray:
    """Symbols ``L_0 .. L_kmax`` as one ``(kmax+1, n, n)`` array."""
    return symbol(prob.P, prob.Lam, np.arange(kmax + 1))


def _grid_size(u: TrigPoly, config: SolveConfig | None, prob) -> int:
    M = 4 * u.kmax
    if config is not None and config.M:
        M = max(config.M, M)
    return max(M, 2 * prob.p.kmax + 1, 16)


def assemble_residual(prob, u: TrigPoly, config: SolveConfig | None = None,
                      stack: np.ndarray | None = None,
                      M: int | None = None) -> TrigPoly:
    """Coefficients of ``R(u) = L u - N u`` on the band of ``u``."""
    if stack is None or stack.shape[0] != u.kmax + 1:
        stack = symbol_stack(prob, u.kmax)
    if M is None:
        M = _grid_size(u, config, prob)
    N = nemytskii_eval(prob, u, M)
    R = np.einsum("kij,kj->ki", stack, u.coeffs) - N.coeffs
    return TrigPoly(R)


# -- real packing ------------------------------------------------------


def _pack(c: np.ndarray, weight: float) -> np.ndarray:
    """``[Re c_0, w Re c_1, w Im c_1, ...]`` for a ``(kmax+1, n)`` array."""
    tail = np.stack([c[1:].real, c[1:].imag], axis=1)      # (kmax, 2, n)
    return np.concatenate([c[0].real, (weight * tail).ravel()])


def pack_coeffs(u: TrigPoly) -> np.ndarray:
    return _pack(u.coeffs, 1.0)


def unpack_coeffs(x: np.ndarray, kmax: int, n: int) -> TrigPoly:
    tail = x[n:].reshape(kmax, 2, n)
    c = np.empty((kmax + 1, n), dtype=complex)
    c[0] = x[:n]
    c[1:] = tail[:, 0] + 1j * tail[:, 1]
    return TrigPoly(c)


def pack_residual(R: TrigPoly) -> np.ndarray:
    """Real residual vector whose Euclidean norm is ``||R||_L2``."""
    return _pack(R.coeffs, np.sqrt(2.0))


# -- Jacobian ----------------------------------------------------------


def _jacobian_analytic(prob, u: TrigPoly, stack: np.ndarray, M: int) -> np.ndarray:
    kmax, n = u.kmax, u.n
    k = np.arange(kmax + 1)
    # a product A(t) (B u)(t) sends c_j to mode k through Ahat_{k-j} B_j
    # and conj(c_j) through Ahat_{k+j} conj(B_j); DFT indices are mod M
    # (k + j <= 2 kmax < M needs no wrap)
    toeplitz, hankel = (k[:, None] - k) % M, k[:, None] + k

    def spectra(a):
        ahat = np.fft.fft(a, axis=-1) / M
        return np.take(ahat, toeplitz, axis=-1), np.take(ahat, hankel, axis=-1)

    # g'(Psi u) with psihat(-j), contracted over the middle component;
    # T and H are indexed [row component, column component, k, j]
    dG = prob.g.deriv(eval_grid(apply_deviation(prob.Psi, u), M))
    if prob.g.kind == "componentwise":
        dG = dG[:, :, None] * np.eye(n)
    At, Ah = spectra(dG.transpose(1, 2, 0))
    psi = prob.Psi.stack(kmax).transpose(1, 2, 0)[None, :, :, None, :]
    T = (At[:, :, None] * psi).sum(axis=1)
    H = (Ah[:, :, None] * psi.conj()).sum(axis=1)

    # each tap of h: its weight times the profile derivative, with e^{-ij tau}
    if prob.h is not None and prob.h.terms:
        t = TWO_PI * np.arange(M) / M
        taps = prob.h.tap_signals(u, M)
        for term in prob.h.terms:
            z = sum(tap.weight * taps[(tap.component, tap.delay)] for tap in term.taps)
            fac = term.amp * term.tmod(t) * _h_base_deriv(term.profile, z)
            for tap in term.taps:
                at, ah = spectra(tap.weight * fac)
                phase = np.exp(-1j * k * tap.delay)
                T[term.component, tap.component] += at * phase
                H[term.component, tap.component] += ah * phase.conj()

    H[..., 0] = 0.0                 # the real mean mode has no conjugate twin
    T[:, :, k, k] += stack.transpose(1, 2, 0)
    # split c_j = a_j + i b_j into real columns
    Da, Db = T + H, 1j * (T - H)

    # rows (k, re/im, i) and columns (j, a/b, l), then drop Im of mode 0
    # and the b-column of the real mean coefficient
    full = np.array([[Da.real, Db.real], [Da.imag, Db.imag]])
    full = full.transpose(4, 0, 2, 5, 1, 3).reshape(2 * n * (kmax + 1), -1)
    keep = np.r_[0:n, 2 * n:2 * n * (kmax + 1)]
    J = full[np.ix_(keep, keep)]
    J[n:] *= np.sqrt(2.0)
    return J


def coefficient_jacobian(prob, u: TrigPoly, config: SolveConfig | None = None,
                         stack: np.ndarray | None = None) -> np.ndarray:
    """Jacobian of the packed residual at ``u``."""
    if stack is None or stack.shape[0] != u.kmax + 1:
        stack = symbol_stack(prob, u.kmax)
    if not prob.g.smooth:
        raise DimensionMismatch(
            "sign-table nonlinearity is not differentiable; solving needs a "
            "smooth catalog profile")
    return _jacobian_analytic(prob, u, stack, _grid_size(u, config, prob))


# -- seeding -----------------------------------------------------------


def seed_kernel(prob, report: ResonanceReport | None = None,
                n_samples: int = 64, radii=None, M: int = 2048,
                threshold: float | None = None) -> list:
    """Candidate kernel components for the resonant coordinates.

    Scans ``radius x direction`` over vertical scalings of unit kernel
    elements and keeps radius-local minimizers of the projected residual
    ``|Proj_ker N(rho w)|`` (coordinate norm), the approximate zeros of the
    reduced bifurcation equation.  Candidates are returned sorted by that
    objective; those not meaningfully below the zero-element baseline are
    dropped, so the list is empty when the zero seed is already as good.
    """
    report = resonant_set(prob.P, prob.Lam) if report is None else report
    if report.nu == 0:
        return []
    radii = np.asarray((0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0) if radii is None
                       else radii, dtype=float)
    # deterministic unit kernel elements, problem independent
    if report.nu == 1:
        amps = np.exp(-1j * phase_circle(n_samples))[:, None] / np.sqrt(2.0)
    else:
        amps = coords_to_amps(sphere_points(2 * report.nu, n_samples, seed=0))

    def objective(u: TrigPoly) -> np.ndarray:
        N = nemytskii_eval(prob, u, M)
        return np.linalg.norm(KernelElement.from_poly(report, N).amps, axis=-1)

    kb = max(k for k, _ in report.kernel_slots())
    base = float(objective(TrigPoly.zero(prob.n, kb)))
    if threshold is None:
        threshold = max(1e-6, 0.5 * base)

    # objs[i, j]: sample i at radius j, one batched evaluation per radius
    objs = np.stack([objective(KernelElement(report, r * amps).to_poly())
                     for r in radii], axis=1)
    edge = np.full((objs.shape[0], 1), np.inf)
    left_ok = np.hstack([edge, objs[:, :-1]]) >= objs
    right_ok = np.hstack([objs[:, 1:], edge]) >= objs
    i, j = np.nonzero(left_ok & right_ok & (objs < threshold))
    # mirror-image samples tie in exact arithmetic: compare objectives
    # rounded to 1e-12 relative, so ties keep sample order (i ascends)
    mant, expo = np.frexp(objs[i, j])
    order = np.argsort(np.ldexp(np.round(mant, 12), expo), kind="stable")[:16]
    return [KernelElement(report, radii[j[c]] * amps[i[c]]) for c in order]


# -- result ------------------------------------------------------------


@dataclass
class SolveResult:
    u: TrigPoly
    converged: bool
    coeff_residual: float
    pointwise_residual: float | None
    iterations: int
    seed: KernelElement | None
    trace: list = field(default_factory=list)
    gauge: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"converged": self.converged,
                "coeff_residual": self.coeff_residual,
                "pointwise_residual": self.pointwise_residual,
                "iterations": self.iterations,
                "kmax": self.u.kmax,
                "seed": self.seed.to_dict() if self.seed is not None else None,
                "trace": self.trace,
                "gauge": self.gauge,
                "u": self.u.to_dict()}


def time_shift_gauge(prob) -> bool:
    """True when the equation is autonomous, so solutions come in
    time-shift continua (forcing constant in t, no explicit t in h)."""
    p_static = bool(np.all(np.abs(prob.p.coeffs[1:]) < 1e-14))
    h_static = prob.h is None or not prob.h.time_dependent
    return p_static and h_static


# -- main iteration ----------------------------------------------------


def solve_periodic(prob, seed=None, config: SolveConfig | None = None,
                   report: ResonanceReport | None = None) -> SolveResult:
    """Damped Newton on the truncated coefficient vector from one seed.

    ``seed`` is a :class:`KernelElement`, a :class:`TrigPoly` initial
    guess, or ``None`` for the zero seed.  A converged run re-evaluates the
    residual on a doubled grid; when the two disagree by more than
    ``10 * tol`` the run is not converged and its last trace entry records
    both (``residual_M``, ``residual_2M``).  The pointwise defect on an 8x
    oversampled grid must also meet :data:`VERIFY_TOL`.
    """
    if config is None:
        config = prob.solve if prob.solve is not None else SolveConfig()
    report = resonant_set(prob.P, prob.Lam) if report is None else report
    kmax, n = config.kmax, prob.n

    seed_el = None
    if seed is None:
        u = TrigPoly.zero(n, kmax)
    elif isinstance(seed, KernelElement):
        seed_el = seed
        u = seed.to_poly(kmax)
    elif isinstance(seed, TrigPoly):
        u = seed.truncate(kmax) if seed.kmax > kmax else seed.pad(kmax)
    else:
        raise DimensionMismatch("seed must be a KernelElement or TrigPoly")

    stack = symbol_stack(prob, kmax)
    M = _grid_size(u, config, prob)
    x = pack_coeffs(u)

    def fvec(xv):
        return pack_residual(assemble_residual(
            prob, unpack_coeffs(xv, kmax, n), stack=stack, M=M))

    F = fvec(x)
    res = float(np.linalg.norm(F))
    mu = config.mu0
    trace = [{"iter": 0, "residual": res, "mu": mu}]
    it = 0
    diverged = False
    while res > config.tol_residual and it < config.max_iter:
        J = coefficient_jacobian(prob, unpack_coeffs(x, kmax, n), config, stack)
        # full Gauss-Newton step first; damp only when it fails to descend
        step = np.linalg.lstsq(J, -F, rcond=None)[0]
        x_try = x + step
        F_try = fvec(x_try)
        res_try = float(np.linalg.norm(F_try))
        if np.isfinite(res_try) and res_try < res:
            x, F, res = x_try, F_try, res_try
            mu = max(mu * config.mu_shrink, 1e-14)
        else:
            JtJ = J.T @ J
            JtF = J.T @ F
            eye = np.eye(JtJ.shape[0])
            accepted = False
            while mu < 1e14:
                step = np.linalg.solve(JtJ + mu * eye, -JtF)
                F_try = fvec(x + step)
                res_try = float(np.linalg.norm(F_try))
                if np.isfinite(res_try) and res_try < res:
                    x, F, res = x + step, F_try, res_try
                    mu = max(mu * config.mu_shrink, 1e-14)
                    accepted = True
                    break
                mu *= config.mu_grow
            if not accepted:
                diverged = True
                break
        it += 1
        trace.append({"iter": it, "residual": res, "mu": mu})

    u = unpack_coeffs(x, kmax, n)
    converged = bool(res <= config.tol_residual and not diverged)

    gauge = {"time_shift_family": time_shift_gauge(prob), "pinned": False,
             "shift": 0.0}
    if converged and gauge["time_shift_family"] and report.nu > 0:
        u, shift = _pin_phase(u, report, seed_el)
        if shift != 0.0:
            x = pack_coeffs(u)
            F = fvec(x)
            res = float(np.linalg.norm(F))
        gauge["pinned"] = True
        gauge["shift"] = float(shift)

    if converged:
        r2 = float(np.linalg.norm(pack_residual(assemble_residual(
            prob, u, stack=stack, M=2 * M))))
        if abs(r2 - res) > 10.0 * config.tol_residual:
            converged = False
            trace[-1].update(residual_M=res, residual_2M=r2)

    pointwise = verify_pointwise(prob, u, max(8 * kmax, 64))
    converged = converged and pointwise <= VERIFY_TOL
    return SolveResult(u=u, converged=converged, coeff_residual=res,
                       pointwise_residual=pointwise, iterations=it,
                       seed=seed_el, trace=trace, gauge=gauge)


def _pin_phase(u: TrigPoly, report: ResonanceReport, seed_el):
    """Translate time so the dominant kernel amplitude keeps the seed's
    argument (or argument zero without a seed)."""
    a = KernelElement.from_poly(report, u).amps
    if not np.any(np.abs(a) > 1e-12):
        return u, 0.0
    i = int(np.argmax(np.abs(a)))
    k = report.kernel_slots()[i][0]
    target = 0.0
    if seed_el is not None and abs(seed_el.amps[i]) > 0:
        target = float(np.angle(seed_el.amps[i]))
    shift = (target - float(np.angle(a[i]))) / k
    shift = float(np.mod(shift, TWO_PI / k))
    if min(shift, TWO_PI / k - shift) < 1e-13:
        return u, 0.0
    return u.shift(shift), shift


def solve_best(prob, config: SolveConfig | None = None,
               report: ResonanceReport | None = None) -> SolveResult:
    """Try kernel seeds in objective order, then the zero seed; return the
    first converged run, else the lowest-residual attempt."""
    if config is None:
        config = prob.solve if prob.solve is not None else SolveConfig()
    report = resonant_set(prob.P, prob.Lam) if report is None else report
    seeds = seed_kernel(prob, report, n_samples=config.seed_samples,
                        radii=config.seed_radii)
    best = None
    for seed in seeds[:4] + [None]:
        result = solve_periodic(prob, seed, config, report)
        if result.converged:
            return result
        if best is None or result.coeff_residual < best.coeff_residual:
            best = result
    return best


# -- verification ------------------------------------------------------


def _apply_measure_grid(mat: MeasureMatrix, u: TrigPoly, M: int) -> np.ndarray:
    """Measure term on the grid by direct application: atoms evaluate the
    trig polynomial exactly at shifted points, densities go through their
    closed-form mode transforms."""
    t = TWO_PI * np.arange(M) / M
    out = np.zeros((M, mat.n))
    shifted: dict = {}
    dens = MeasureMatrix.zero(mat.n)
    any_dens = False
    for i in range(mat.n):
        for j in range(mat.n):
            m = mat.entries[i][j]
            for theta, wgt in m.atoms:
                if theta not in shifted:
                    shifted[theta] = u.eval(t + theta)
                out[:, i] += wgt * shifted[theta][:, j]
            if m.densities:
                dens.entries[i][j] = ScalarMeasure(densities=list(m.densities))
                any_dens = True
    if any_dens:
        out += eval_grid(apply_deviation(dens, u), M)
    return out


def verify_pointwise(prob, u: TrigPoly, M_fine: int | None = None) -> float:
    """Sup-norm defect of ``u`` in the original equation on a fine grid.

    Independent of the solver path: derivatives are spectral but every
    measure is applied directly and the nonlinearities are evaluated
    pointwise without re-projection.
    """
    if M_fine is None:
        M_fine = max(8 * u.kmax, 64)
    if M_fine < max(8 * u.kmax, 2 * u.kmax + 1):
        raise GridTooSmall(f"verification grid {M_fine} undersamples kmax={u.kmax}")
    t = TWO_PI * np.arange(M_fine) / M_fine
    acc = np.zeros((M_fine, u.n))
    for j in range(prob.P.degree + 1):
        acc += eval_grid(differentiate(u, j), M_fine) @ prob.P.coeffs[j].T
    acc += _apply_measure_grid(prob.Lam, u, M_fine)
    acc += prob.g(_apply_measure_grid(prob.Psi, u, M_fine))
    if prob.h is not None and prob.h.terms:
        acc += prob.h.eval(u, M_fine)
    acc -= prob.p.eval(t)
    return float(np.max(np.sqrt(np.sum(acc * acc, axis=1))))
