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
diagonal.  The full Newton step is an LU solve of that square system;
least squares (minimum norm) runs only when it is exactly singular.
A wide band iterates on a ladder of doubling bands from a narrow one,
and the full band confirms (see :func:`solve_periodic`).

A run counts as converged when the coefficient residual meets
``tol_residual``, the residual does not move when the grid doubles, and
the pointwise defect meets :data:`VERIFY_TOL`, the tolerance ``fde
verify`` applies.  :func:`verify_pointwise` evaluates every atom of the
measures directly, as ``u(t + theta)`` from one roots-of-unity sum of the
shifted polynomials over the grid (:func:`_grid_sum`), so it shares no
FFT or :func:`apply_deviation` step for atoms with the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatch, GridTooSmall
from .measures import MeasureMatrix, ScalarMeasure, apply_deviation
from .nonlinearity import _h_base_deriv, nemytskii_eval
from .problem import SolveConfig
from .lazer_leach import kernel_forcing_coords, sphere_design
from .resonance import KernelElement, ResonanceReport, resonant_set, symbol_stack
from .trigpoly import TrigPoly, differentiate, eval_grid

TWO_PI = 2.0 * np.pi

# sup-norm defect in the original equation that a solution must meet, on
# a grid that oversamples the band this many times (:func:`verify_grid`)
VERIFY_TOL = 1e-8
VERIFY_OVERSAMPLE = 8

# Levenberg-Marquardt damping: initial mu, growth and shrink factors
MU0, MU_GROW, MU_SHRINK = 1e-4, 8.0, 0.25

# kernel seed scan: radii times unit kernel directions
SEED_RADII = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
SEED_SAMPLES = 64

# narrowest first rung of the doubling band ladder of :func:`_stages`
COARSE_KMAX = 16


def _grid_size(u: TrigPoly | int, config, prob) -> int:
    """Nemytskii grid of a solve at bandwidth ``u`` (an int, or the
    ``kmax`` of a polynomial), ``4 kmax`` against aliasing; ``config`` is
    not read."""
    kmax = u.kmax if isinstance(u, TrigPoly) else u
    return max(4 * kmax, 2 * prob.p.kmax + 1, 16)


def verify_grid(kmax: int) -> int:
    """Points of the :func:`verify_pointwise` grid and of ``fde solve
    --format csv`` at bandwidth ``kmax``; ``M // VERIFY_OVERSAMPLE`` inverts it."""
    return max(VERIFY_OVERSAMPLE * kmax, 64)


def assemble_residual(prob, u: TrigPoly, M: int | None = None) -> TrigPoly:
    """Coefficients of ``R(u) = L u - N u`` on the band of ``u``, with the
    Nemytskii part on ``M`` points (default :func:`_grid_size`) and the
    symbols from :func:`~fde.resonance.symbol_stack`."""
    if M is None:
        M = _grid_size(u, None, prob)
    N = nemytskii_eval(prob, u, M)
    L = symbol_stack(prob.P, prob.Lam, u.kmax)
    R = np.einsum("kij,kj->ki", L, u.coeffs) - N.coeffs
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


def coefficient_jacobian(prob, u: TrigPoly) -> np.ndarray:
    """Jacobian of the packed residual at ``u``, on the grid of
    :func:`_grid_size`."""
    if not prob.g.smooth:
        raise DimensionMismatch(
            "sign-table nonlinearity is not differentiable; solving needs a "
            "smooth catalog profile")
    kmax, n, M = u.kmax, u.n, _grid_size(u, None, prob)
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
    T[:, :, k, k] += symbol_stack(prob.P, prob.Lam, kmax).transpose(1, 2, 0)
    # split c_j = a_j + i b_j into real columns
    Da, Db = T + H, 1j * (T - H)

    # rows (k, re/im, i) and columns (j, a/b, l), without Im of mode 0 and
    # the b-column of the real mean coefficient: the mean row and column
    # are n wide, every other mode 2n, and each block is written in place
    J = np.empty((n * (2 * kmax + 1),) * 2)
    J[:n, :n] = Da.real[:, :, 0, 0]
    top = J[:n, n:].reshape(n, kmax, 2, n)
    left = J[n:, :n].reshape(kmax, 2, n, n)
    body = J[n:, n:].reshape(kmax, 2, n, kmax, 2, n)
    left[:, 0] = Da.real[:, :, 1:, 0].transpose(2, 0, 1)
    left[:, 1] = Da.imag[:, :, 1:, 0].transpose(2, 0, 1)
    for c, D in enumerate((Da, Db)):
        top[:, :, c] = D.real[:, :, 0, 1:].transpose(0, 2, 1)
        body[:, 0, :, :, c] = D.real[:, :, 1:, 1:].transpose(2, 0, 3, 1)
        body[:, 1, :, :, c] = D.imag[:, :, 1:, 1:].transpose(2, 0, 3, 1)
    J[n:] *= np.sqrt(2.0)
    return J


# -- seeding -----------------------------------------------------------


def _seed_table(prob, report: ResonanceReport, amps: np.ndarray, M: int):
    """``(zero, objs)``: ``|Proj_ker N|`` on ``M`` points at the zero
    element and at ``SEED_RADII[j] * amps[i]``, ``amps`` the design of
    :func:`~fde.lazer_leach.sphere_design`, from one evaluation at the
    zero element and at each radius times each orbit representative.  With
    no explicit ``t`` in ``h``, ``N(S u) = S N u + p - S p``, so
    ``objs[r P + l, j] = |D_l (c_rj - a_p) + a_p|``, ``c_rj`` the kernel
    coordinates at radius ``j`` and ``a_p`` those of the forcing (exact when
    ``P gcd(k_s)`` divides ``M``, else up to aliasing).  A time-modulated
    ``h`` takes the one-element shift group: every design element is its
    own orbit.
    """
    equivariant = prob.h is None or not prob.h.time_dependent
    shifts = sphere_design(report, len(amps))[1] if equivariant else np.ones((1, report.nu))
    # the zero element once, then each radius times each representative
    scaled = (np.array(SEED_RADII)[:, None, None] * amps[::len(shifts)]).reshape(-1, report.nu)
    reps = KernelElement(report, np.vstack([np.zeros_like(scaled[:1]), scaled]))
    c = KernelElement.from_poly(report, nemytskii_eval(prob, reps.to_poly(), M)).amps
    a_p = kernel_forcing_coords(prob, report)
    rows = c[1:].reshape(len(SEED_RADII), -1, 1, report.nu)
    objs = np.hypot.reduce(np.abs(shifts * (rows - a_p) + a_p), axis=-1)
    return np.hypot.reduce(np.abs(c[0])), objs.reshape(len(SEED_RADII), -1).T[:len(amps)]


def seed_kernel(prob, report: ResonanceReport | None = None,
                M: int | None = None,
                config: SolveConfig | None = None) -> list:
    """Candidate kernel components for the resonant coordinates.

    Scans ``radius x direction`` over vertical scalings of the
    :data:`SEED_SAMPLES` unit kernel elements of
    :func:`~fde.lazer_leach.sphere_design` and keeps radius-local
    minimizers of the projected residual ``|Proj_ker N(rho w)|``
    (coordinate norm), the approximate zeros of the reduced bifurcation
    equation.  Candidates are returned sorted by that objective; those not
    meaningfully below the zero-element baseline are dropped, so the list
    is empty when the zero seed is already as good.  Unless ``h`` has an
    explicit ``t``, the whole table comes from one Nemytskii evaluation at
    the orbit representatives of the design (:func:`_seed_table`).

    ``M`` defaults to the grid of the first Newton rung of
    :func:`solve_periodic` under ``config`` (``prob.solve`` when
    ``None``), the grid of the band ``kc`` when ``config.kmax`` is above it.
    The objective is the kernel projection of the same Nemytskii map
    whose residual Newton must resolve on that grid, so the grid that
    serves the solve serves the ranking of its seeds.
    """
    report = resonant_set(prob.P, prob.Lam) if report is None else report
    if report.nu == 0:
        return []
    amps = sphere_design(report, SEED_SAMPLES)[0]
    if M is None:
        kb = max(k for k, _ in report.kernel_slots())
        first = _stages(prob, config or prob.solve, report)[0]
        # a kernel band above kmax fails in the solve, not here
        M = _grid_size(max(first.kmax, kb), None, prob)

    zero, objs = _seed_table(prob, report, amps, M)
    threshold = max(1e-6, 0.5 * zero)
    edge = np.full((objs.shape[0], 1), np.inf)
    left_ok = np.hstack([edge, objs[:, :-1]]) >= objs
    right_ok = np.hstack([objs[:, 1:], edge]) >= objs
    i, j = np.nonzero(left_ok & right_ok & (objs < threshold))
    # mirror-image samples tie in exact arithmetic: compare objectives
    # rounded to 1e-12 relative, so ties keep sample order (i ascends)
    mant, expo = np.frexp(objs[i, j])
    order = np.argsort(np.ldexp(np.round(mant, 12), expo), kind="stable")[:16]
    return [KernelElement(report, SEED_RADII[j[c]] * amps[i[c]]) for c in order]


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


def _stages(prob, config: SolveConfig, report: ResonanceReport) -> list:
    """Settings of each Newton rung of a solve under ``config``, narrowest
    first: the doubling bands ``kc, 2 kc, 4 kc, ...`` below ``config.kmax``,
    ``kc = max(COARSE_KMAX, kb, prob.p.kmax)``, each on its own ``4 k``
    grid, then ``config``."""
    kb = max((k for k, _ in report.kernel_slots()), default=0)
    k = max(COARSE_KMAX, kb, prob.p.kmax)
    rungs = []
    while k < config.kmax:
        rungs.append(replace(config, kmax=k))
        k *= 2
    return rungs + [config]


def _newton(prob, u: TrigPoly, config: SolveConfig, mu: float, it: int,
            trace: list, tag: dict):
    """Damped Newton on the band of ``u`` until ``tol_residual`` or
    ``max_iter`` iterations counted from ``it``; appends its trace entries
    (``tag`` merged in) and returns ``(u, res, mu, it, diverged)``."""
    kmax, n = u.kmax, u.n
    M = _grid_size(u, None, prob)
    x = pack_coeffs(u)

    def fvec(xv):
        return pack_residual(assemble_residual(prob, unpack_coeffs(xv, kmax, n), M))

    F = fvec(x)
    res = float(np.linalg.norm(F))
    trace.append({"iter": it, "residual": res, "mu": mu, **tag})
    diverged = False
    while res > config.tol_residual and it < config.max_iter:
        J = coefficient_jacobian(prob, unpack_coeffs(x, kmax, n))
        # full Gauss-Newton step first (LU; least squares only when J is
        # exactly singular); damp only when it fails to descend
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(J, -F, rcond=None)[0]
        F_try = fvec(x + step)
        res_try = float(np.linalg.norm(F_try))
        if not (np.isfinite(res_try) and res_try < res):
            JtJ = J.T @ J
            JtF = J.T @ F
            eye = np.eye(JtJ.shape[0])
            while mu < 1e14:
                step = np.linalg.solve(JtJ + mu * eye, -JtF)
                F_try = fvec(x + step)
                res_try = float(np.linalg.norm(F_try))
                if np.isfinite(res_try) and res_try < res:
                    break
                mu *= MU_GROW
            else:
                diverged = True
                break
        x, F, res = x + step, F_try, res_try
        mu = max(mu * MU_SHRINK, 1e-14)
        it += 1
        trace.append({"iter": it, "residual": res, "mu": mu, **tag})
    return unpack_coeffs(x, kmax, n), res, mu, it, diverged


def solve_periodic(prob, seed=None, config: SolveConfig | None = None,
                   report: ResonanceReport | None = None) -> SolveResult:
    """Damped Newton on the truncated coefficient vector from one seed.

    ``seed`` is a :class:`KernelElement`, a :class:`TrigPoly` initial
    guess, or ``None`` for the zero seed; ``config`` defaults to
    ``prob.solve``.  When ``config.kmax`` is above the first rung
    ``kc = max(COARSE_KMAX, kb, prob.p.kmax)`` (``kb`` the highest kernel
    mode), Newton climbs the doubling bands of :func:`_stages`: each rung
    pads the last iterate, evaluates its residual on its own ``4 k`` grid
    and iterates only while that misses the tolerance.  The rungs share
    the ``max_iter`` budget; trace entries below the full band carry their
    rung's ``kmax``.  The solutions occupy few modes, so the narrow rungs
    take the iterations and the wide ones usually only confirm.

    Convergence is decided on the full band only.  A converged run
    re-evaluates the residual on a doubled grid; when the two disagree by
    more than ``10 * tol`` the run is not converged and its last trace
    entry records both (``residual_M``, ``residual_2M``).  The pointwise
    defect on the :func:`verify_grid` must also meet :data:`VERIFY_TOL`.
    """
    config = config or prob.solve
    report = resonant_set(prob.P, prob.Lam) if report is None else report
    rungs = _stages(prob, config, report)
    k0 = rungs[0].kmax

    seed_el = None
    if seed is None:
        u = TrigPoly.zero(prob.n, k0)
    elif isinstance(seed, KernelElement):
        seed_el = seed
        u = seed.to_poly(k0)
    elif isinstance(seed, TrigPoly):
        u = seed.truncate(k0)
    else:
        raise DimensionMismatch("seed must be a KernelElement or TrigPoly")

    mu, it, trace = MU0, 0, []
    for rung in rungs:
        tag = {"kmax": rung.kmax} if rung is not config else {}
        u, res, mu, it, diverged = _newton(
            prob, u.pad(rung.kmax), rung, mu, it, trace, tag)
    M = _grid_size(u, None, prob)
    converged = bool(res <= config.tol_residual and not diverged)

    gauge = {"time_shift_family": time_shift_gauge(prob), "pinned": False,
             "shift": 0.0}
    if converged and gauge["time_shift_family"] and report.nu > 0:
        u, shift = _pin_phase(u, report, seed_el)
        if shift != 0.0:
            res = float(np.linalg.norm(pack_residual(assemble_residual(prob, u, M))))
        gauge["pinned"] = True
        gauge["shift"] = float(shift)

    if converged:
        r2 = float(np.linalg.norm(pack_residual(assemble_residual(prob, u, 2 * M))))
        if abs(r2 - res) > 10.0 * config.tol_residual:
            converged = False
            trace[-1].update(residual_M=res, residual_2M=r2)

    pointwise = verify_pointwise(prob, u)
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
    first converged run, else the lowest-residual attempt.  ``config``
    defaults to ``prob.solve``."""
    config = config or prob.solve
    report = resonant_set(prob.P, prob.Lam) if report is None else report
    seeds = seed_kernel(prob, report, config=config)
    best = None
    for seed in seeds[:4] + [None]:
        result = solve_periodic(prob, seed, config, report)
        if result.converged:
            return result
        if best is None or result.coeff_residual < best.coeff_residual:
            best = result
    return best


# -- verification ------------------------------------------------------


def _apply_measure_grid(mat: MeasureMatrix, u: TrigPoly, shifted: dict,
                        M: int) -> np.ndarray:
    """Measure term on the grid by direct application: atoms read the exact
    values ``u(t + theta)`` from ``shifted``, densities go through their
    closed-form mode transforms."""
    out = np.zeros((M, mat.n))
    dens = MeasureMatrix.zero(mat.n)
    any_dens = False
    for i in range(mat.n):
        for j in range(mat.n):
            m = mat.entries[i][j]
            for theta, wgt in m.atoms:
                out[:, i] += wgt * shifted[theta][:, j]
            if m.densities:
                dens.entries[i][j] = ScalarMeasure(densities=list(m.densities))
                any_dens = True
    if any_dens:
        out += eval_grid(apply_deviation(dens, u), M)
    return out


def _grid_sum(c: np.ndarray, M: int) -> np.ndarray:
    """``c_0 + 2 Re sum_{k>=1} c_k w^{jk}`` for ``j = 0 .. M-1`` with
    ``w = e^{2 pi i / M}``: the samples on the uniform grid of the
    polynomials whose coefficients ``c_0 .. c_K`` run along the first axis
    of ``c``; shape ``(M,) + c.shape[1:]``.

    A direct sum without an FFT.  The Cooley-Tukey index map ``j = r + L q``
    (``L`` the largest divisor of ``M`` not above ``sqrt(M)``, ``Q = M / L``)
    factors ``w^{jk} = w^{rk} w^{Lqk}``, so the sum is one product of an
    ``(L, K)`` table with the ``(Q, K)`` table times ``c``, and both tables
    are read from the ``M`` roots of unity by integer index.
    """
    K = c.shape[0] - 1
    out = np.broadcast_to(c[0].real, (M,) + c.shape[1:]).copy()
    if K == 0:
        return out
    L = max(d for d in range(1, math.isqrt(M) + 1) if M % d == 0)
    Q = M // L
    t = TWO_PI * np.arange(M) / M
    roots = np.cos(t) + 1j * np.sin(t)
    k = np.arange(1, K + 1)
    A = roots[np.outer(np.arange(L), k) % M]                  # (L, K)
    B = roots[np.outer(L * np.arange(Q), k) % M]              # (Q, K)
    cols = c[1:].reshape(K, 1, -1)
    S = A @ (B.T[:, :, None] * cols).reshape(K, -1)
    # row r, column (q, col) is grid point j = r + L q
    out += 2.0 * S.real.reshape(L, Q, -1).transpose(1, 0, 2).reshape(out.shape)
    return out


def verify_pointwise(prob, u: TrigPoly, M_fine: int | None = None) -> float:
    """Sup-norm defect of ``u`` in the original equation on a fine grid.

    Independent of the solver path: derivatives are spectral but every
    measure is applied directly and the nonlinearities are evaluated
    pointwise without re-projection.  Each atom ``theta`` of ``Lam`` and
    ``Psi`` reads ``u(t + theta)`` from one direct sum of the shifted
    coefficients over the grid (:func:`_grid_sum`), and so does the
    forcing.  ``M_fine`` and its check follow the declared ``u.kmax``; the
    sums run only up to the last nonzero mode.
    """
    if M_fine is None:
        M_fine = verify_grid(u.kmax)
    if M_fine < max(VERIFY_OVERSAMPLE * u.kmax, 2 * u.kmax + 1):
        raise GridTooSmall(f"verification grid {M_fine} undersamples kmax={u.kmax}")
    # trailing zero modes add exactly nothing: evaluate the live band only
    live = np.flatnonzero(np.any(u.coeffs != 0, axis=-1))
    u = u.truncate(int(live[-1]) if live.size else 0)
    acc = np.zeros((M_fine, u.n))
    for j in range(prob.P.degree + 1):
        acc += eval_grid(differentiate(u, j), M_fine) @ prob.P.coeffs[j].T
    # u(t + theta) for every atom position of Lam and Psi
    thetas = sorted({theta for mat in (prob.Lam, prob.Psi) for row in mat.entries
                     for m in row for theta, _ in m.atoms})
    shifted = {}
    if thetas:
        c = np.moveaxis(u.shift(np.array(thetas)).coeffs, 0, 1)   # (K+1, S, n)
        shifted = dict(zip(thetas, np.moveaxis(_grid_sum(c, M_fine), 1, 0)))
    acc += _apply_measure_grid(prob.Lam, u, shifted, M_fine)
    acc += prob.g(_apply_measure_grid(prob.Psi, u, shifted, M_fine))
    if prob.h is not None and prob.h.terms:
        acc += prob.h.eval(u, M_fine)
    acc -= _grid_sum(prob.p.coeffs, M_fine)
    return float(np.max(np.sqrt(np.sum(acc * acc, axis=1))))
