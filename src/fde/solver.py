"""Truncated harmonic balance for the periodic functional equation.

The state is the real coefficient vector of a degree ``kmax`` trig
polynomial; the residual is ``R(u) = L u - N u`` with the linear symbol
applied mode by mode and the Nemytskii part from one spectral pass of
:func:`~fde.nonlinearity.nemytskii_core`.  Damped Gauss-Newton
(Levenberg-Marquardt) handles the singular symbol blocks at resonant
frequencies; seeding along the kernel supplies the resonant coordinates a
zero initial guess cannot reach.  Newton stays on packed arrays,
``x = [c_0, Re c_1, Im c_1, ..., Re c_K, Im c_K]`` componentwise, and the
packed residual carries sqrt(2) weights on the ``k >= 1`` rows so its
Euclidean norm equals the L2 norm of ``R``.

The Jacobian is assembled alternating frequency and time (Krack & Gross,
*Harmonic Balance for Nonlinear Vibration Problems*, 2019) from the grid
samples of the residual evaluation at the same iterate: the linearized
Nemytskii part is a product ``A(t) (B u)(t)`` of grid functions -- the
entries of ``g'(Psi u)`` and the profile derivative of each tap of ``h``
-- with the mode multipliers ``psihat(-k)`` and ``e^{-ik tau}``.  One FFT
of ``A`` turns it into a Toeplitz block ``Ahat_{k-j} B_j`` plus a Hankel
block ``Ahat_{k+j} conj(B_j)``, with indices mod ``M`` so the grid
aliasing of the residual carries over exactly; the symbol adds ``L_k`` on
the diagonal.  The full Newton step is an LU solve of that square system;
least squares (minimum norm) runs only when it is exactly singular.  A
wide band iterates on a ladder of doubling bands from a narrow one; after
a rung that takes no step the full band confirms (:func:`solve_periodic`).

A run counts as converged when the coefficient residual meets
``tol_residual``, the residual does not move when the grid doubles, and
the pointwise defect meets :data:`VERIFY_TOL`, the tolerance ``fde
verify`` applies.  :func:`verify_pointwise` evaluates every atom of the
measures and every tap of ``h`` directly, as ``u(t + theta)`` from one
roots-of-unity sum of the shifted polynomials over the grid
(:func:`_grid_sum`), so it shares no FFT with the solver.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatch, GridTooSmall
from .measures import MeasureMatrix, ScalarMeasure, apply_deviation
from .nonlinearity import _h_base_deriv, nemytskii_core, nemytskii_eval
from .problem import SolveConfig
from .lazer_leach import kernel_forcing_coords, sphere_design
from .resonance import KernelElement, ResonanceReport, symbol_stack
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
    return TrigPoly(_residual(prob, u.coeffs, M or _grid_size(u, None, prob))[0])


def _residual(prob, c: np.ndarray, M: int):
    """``(R(u), samples of nemytskii_core)`` at the coefficients ``c`` of ``u``."""
    N, samples = nemytskii_core(prob, c, M)
    L = symbol_stack(prob.P, prob.Lam, c.shape[-2] - 1)
    return np.einsum("kij,kj->ki", L, c) - N, samples


# -- real packing ------------------------------------------------------


def _pack(c: np.ndarray, weight: float) -> np.ndarray:
    """``[Re c_0, w Re c_1, w Im c_1, ...]`` for a ``(kmax+1, n)`` array."""
    tail = np.stack([c[1:].real, c[1:].imag], axis=1)      # (kmax, 2, n)
    return np.concatenate([c[0].real, (weight * tail).ravel()])


def pack_coeffs(u: TrigPoly) -> np.ndarray:
    return _pack(u.coeffs, 1.0)


def _unpack(x: np.ndarray, kmax: int, n: int) -> np.ndarray:
    tail = x[n:].reshape(kmax, 2, n)
    c = np.empty((kmax + 1, n), dtype=complex)
    c[0] = x[:n]
    c[1:] = tail[:, 0] + 1j * tail[:, 1]
    return c


def pack_residual(R: TrigPoly) -> np.ndarray:
    """Real residual vector whose Euclidean norm is ``||R||_L2``."""
    return _pack(R.coeffs, np.sqrt(2.0))


# -- Jacobian ----------------------------------------------------------


def coefficient_jacobian(prob, u: TrigPoly, samples: np.ndarray | None = None) -> np.ndarray:
    """Jacobian of the packed residual at ``u`` on the grid of :func:`_grid_size`, from
    the ``samples`` of :func:`~fde.nonlinearity.nemytskii_core` there (computed if None)."""
    if not prob.g.smooth:
        raise DimensionMismatch(
            "sign-table nonlinearity is not differentiable; solving needs a "
            "smooth catalog profile")
    kmax, n, M = u.kmax, u.n, _grid_size(u, None, prob)
    if samples is None:
        samples = nemytskii_core(prob, u.coeffs, M)[1]
    # A(t) holds g'(Psi u) and, in the column of each tap, its weight times
    # the profile derivative of each term that reads it; B is column_stack
    A = np.zeros((n, samples.shape[-1], M))
    dG = prob.g.deriv(samples[:, :n])
    A[:, :n] = dG.T * np.eye(n)[..., None] if prob.g.componentwise else dG.transpose(1, 2, 0)
    if samples.shape[-1] > n:
        col = {key: n + f for f, key in enumerate(prob.h.taps())}
        for term, fac in zip(prob.h.terms, prob.h.profiles(samples[:, n:], _h_base_deriv)):
            for tap in term.taps:
                A[term.component, col[tap.component, tap.delay]] += tap.weight * fac
    # one FFT of A; k + j <= 2 kmax < M needs no wrap; T and H are indexed
    # [row component, column component, k, j]
    k = np.arange(kmax + 1)
    ahat = np.fft.fft(A, axis=-1) / M
    psi = prob.column_stack(kmax).transpose(1, 2, 0)[None, :, :, None, :]
    T = (np.take(ahat, (k[:, None] - k) % M, axis=-1)[:, :, None] * psi).sum(axis=1)
    H = (np.take(ahat, k[:, None] + k, axis=-1)[:, :, None] * psi.conj()).sum(axis=1)
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
    report = prob.resonance_report() if report is None else report
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

    # packed residual, and the coefficients and grid samples the Jacobian reads
    def fvec(xv):
        c = _unpack(xv, kmax, n)
        R, samples = _residual(prob, c, M)
        return _pack(R, np.sqrt(2.0)), (c, samples)

    F, at = fvec(x)
    res = float(np.linalg.norm(F))
    trace.append({"iter": it, "residual": res, "mu": mu, **tag})
    diverged = False
    while res > config.tol_residual and it < config.max_iter:
        J = coefficient_jacobian(prob, TrigPoly(at[0]), at[1])
        # full Gauss-Newton step first (LU; least squares only when J is
        # exactly singular); damp only when it fails to descend
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(J, -F, rcond=None)[0]
        F_try, at_try = fvec(x + step)
        res_try = float(np.linalg.norm(F_try))
        if not (np.isfinite(res_try) and res_try < res):
            JtJ = J.T @ J
            JtF = J.T @ F
            eye = np.eye(JtJ.shape[0])
            while mu < 1e14:
                step = np.linalg.solve(JtJ + mu * eye, -JtF)
                F_try, at_try = fvec(x + step)
                res_try = float(np.linalg.norm(F_try))
                if np.isfinite(res_try) and res_try < res:
                    break
                mu *= MU_GROW
            else:
                diverged = True
                break
        x, F, res, at = x + step, F_try, res_try, at_try
        mu = max(mu * MU_SHRINK, 1e-14)
        it += 1
        trace.append({"iter": it, "residual": res, "mu": mu, **tag})
    return TrigPoly(at[0]), res, mu, it, diverged


def solve_periodic(prob, seed=None, config: SolveConfig | None = None,
                   report: ResonanceReport | None = None) -> SolveResult:
    """Damped Newton on the truncated coefficient vector from one seed.

    ``seed`` is a :class:`KernelElement`, a :class:`TrigPoly` initial
    guess, or ``None`` for the zero seed; ``config`` defaults to
    ``prob.solve``.  Newton climbs the doubling bands of :func:`_stages`
    (one rung when ``config.kmax`` is at most ``kc = max(COARSE_KMAX, kb,
    prob.p.kmax)``, ``kb`` the highest kernel mode); a :class:`TrigPoly`
    seed starts on the first rung that holds its live band.  Each rung pads
    the last iterate, evaluates its residual on its own ``4 k`` grid and
    iterates only while that misses the tolerance; after a rung that takes
    no step the full band confirms at once.  The rungs share ``max_iter``;
    trace entries below the full band carry their rung's ``kmax``.

    Convergence is decided on the full band only.  A converged run
    re-evaluates the residual on a doubled grid; when the two disagree by
    more than ``10 * tol`` the run is not converged and its last trace
    entry records both (``residual_M``, ``residual_2M``).  The pointwise
    defect on the :func:`verify_grid` must also meet :data:`VERIFY_TOL`.
    """
    config = config or prob.solve
    report = prob.resonance_report() if report is None else report
    rungs = _stages(prob, config, report)

    seed_el = None
    if seed is None:
        u = TrigPoly.zero(prob.n, rungs[0].kmax)
    elif isinstance(seed, KernelElement):
        seed_el = seed
        u = seed.to_poly(rungs[0].kmax)
    elif isinstance(seed, TrigPoly):
        rungs = [r for r in rungs if not np.any(seed.coeffs[r.kmax + 1:])] or rungs[-1:]
        u = seed.truncate(rungs[0].kmax)
    else:
        raise DimensionMismatch("seed must be a KernelElement or TrigPoly")

    mu, it, trace, start = MU0, 0, [], None
    for rung in rungs:
        if it == start and not diverged and rung is not config:
            continue        # the last rung took no step: the full band confirms
        tag = {"kmax": rung.kmax} if rung is not config else {}
        start = it
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
    report = prob.resonance_report() if report is None else report
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
    for i, row in enumerate(mat.entries):
        for j, m in enumerate(row):
            for theta, wgt in m.atoms:
                out[:, i] += wgt * shifted[theta][:, j]
    if any(m.densities for row in mat.entries for m in row):
        dens = [[ScalarMeasure(densities=list(m.densities)) for m in row] for row in mat.entries]
        out += eval_grid(apply_deviation(MeasureMatrix(mat.n, dens), u), M)
    return out


@functools.lru_cache(maxsize=8)
def _root_tables(M: int, K: int):
    """Read-only ``(L, K)`` and ``(K, Q)`` root-of-unity tables of :func:`_grid_sum`."""
    L = max(d for d in range(1, math.isqrt(M) + 1) if M % d == 0)
    roots = np.exp(1j * TWO_PI * np.arange(M) / M)
    k = np.arange(1, K + 1)
    A, B = roots[np.outer(np.arange(L), k) % M], roots[np.outer(k, L * np.arange(M // L)) % M]
    A.flags.writeable = B.flags.writeable = False
    return A, B


def _grid_sum(c: np.ndarray, M: int) -> np.ndarray:
    """``c_0 + 2 Re sum_{k>=1} c_k w^{jk}`` for ``j = 0 .. M-1`` with
    ``w = e^{2 pi i / M}``: the samples on the uniform grid of the
    polynomials whose coefficients ``c_0 .. c_K`` run along the first axis
    of ``c``; shape ``(M,) + c.shape[1:]``.

    A direct sum without an FFT.  The Cooley-Tukey index map ``j = r + L q``
    (``L`` the largest divisor of ``M`` not above ``sqrt(M)``, ``Q = M / L``)
    factors ``w^{jk} = w^{rk} w^{Lqk}``, so each column of ``c`` is one
    ``(L, Q)`` product of an ``(L, K)`` table with the ``(K, Q)`` table times
    it, both read from the ``M`` roots of unity by integer index.
    """
    K = c.shape[0] - 1
    out = np.broadcast_to(c[0].real, (M,) + c.shape[1:]).copy()
    if K == 0:
        return out
    A, B = _root_tables(M, K)
    cols, flat = c[1:].reshape(K, -1), out.reshape(M, -1)
    for j in range(cols.shape[1]):
        # entry (r, q) is grid point r + L q
        flat[:, j] += 2.0 * (A @ (B * cols[:, j, None])).real.T.ravel()
    return out


def verify_pointwise(prob, u: TrigPoly, M_fine: int | None = None) -> float:
    """Sup-norm defect of ``u`` in the original equation on a fine grid.

    Independent of the solver path: derivatives are spectral but every
    measure is applied directly and the nonlinearities are evaluated
    pointwise without re-projection.  Each atom ``theta`` of ``Lam`` and
    ``Psi`` and each tap of ``h`` (``theta = -delay``) reads ``u(t + theta)``
    from one direct sum of the shifted coefficients over the grid
    (:func:`_grid_sum`), which also sums the forcing; no FFT of
    :func:`~fde.nonlinearity.nemytskii_core` is involved.  ``M_fine`` and
    its check follow the declared ``u.kmax``; the sums run only up to the
    last nonzero mode (or that of ``p``).
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
    # u(t + theta) at each atom and tap (-delay, wrapped like atoms), then p
    taps = prob.h.taps() if prob.h is not None else []
    thetas = sorted({theta for mat in (prob.Lam, prob.Psi) for row in mat.entries
                     for m in row for theta, _ in m.atoms} | {-d % TWO_PI for _, d in taps})
    K = max(u.kmax, prob.p.kmax)
    c = np.concatenate([u.pad(K).shift(np.array(thetas)).coeffs, prob.p.pad(K).coeffs[None]])
    sums = np.moveaxis(_grid_sum(np.moveaxis(c, 0, 1), M_fine), 1, 0)     # (S+1, M, n)
    shifted = dict(zip(thetas, sums))
    acc += _apply_measure_grid(prob.Lam, u, shifted, M_fine)
    acc += prob.g(_apply_measure_grid(prob.Psi, u, shifted, M_fine))
    if taps:
        prob.h.add_to(acc, np.stack([shifted[-d % TWO_PI][:, i] for i, d in taps], axis=-1))
    acc -= sums[-1]
    return float(np.max(np.sqrt(np.sum(acc * acc, axis=1))))
