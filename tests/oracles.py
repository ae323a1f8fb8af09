"""Independent reference computations used by the test suite.

Nothing here imports solver internals beyond plain data containers: the
transform oracles integrate numerically with adaptive and fixed-order
quadrature, and the delay-equation oracle integrates the governing
equation in the time domain with a standard ODE stepper.  Running this
module prints the frozen constants embedded in the tests.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad, quad_vec, solve_ivp
from scipy.optimize import brentq
from scipy.special import expit

TWO_PI = 2.0 * np.pi


# -- measure transforms ------------------------------------------------


def transform_quad(measure, k: int, epsabs: float = 1e-13) -> complex:
    """Adaptive quadrature value of int e^{-iks} dmu(s).

    Atoms are summed exactly; each density piece is integrated with
    Gauss-Kronrod on its real and imaginary parts separately.
    """
    out = 0.0 + 0.0j
    for theta, w in measure.atoms:
        out += w * np.exp(-1j * k * theta)
    for d in measure.densities:
        fre = lambda s: d.profile(s) * np.cos(k * s)
        fim = lambda s: -d.profile(s) * np.sin(k * s)
        re, _ = quad(fre, d.a, d.b, epsabs=epsabs, epsrel=1e-13, limit=400)
        im, _ = quad(fim, d.a, d.b, epsabs=epsabs, epsrel=1e-13, limit=400)
        out += re + 1j * im
    return out


def transform_gauss(measure, ks, order: int = 256) -> np.ndarray:
    """Fixed-order Gauss-Legendre transform, vectorized over frequencies.

    Exactness degrades for |k| * (b - a) approaching the rule order; with
    order 256 and |k| <= 32 on subintervals of length <= 2 pi the error
    is far below 1e-9, which is what the bulk sweeps assert.
    """
    ks = np.asarray(ks)
    out = np.zeros(ks.shape, dtype=complex)
    for theta, w in measure.atoms:
        out += w * np.exp(-1j * ks * theta)
    x, wts = leggauss(order)
    for d in measure.densities:
        mid, half = 0.5 * (d.a + d.b), 0.5 * (d.b - d.a)
        s = mid + half * x
        vals = d.profile(s) * half * wts
        out += np.exp(-1j * np.outer(ks, s)) @ vals
    return out


# -- method of steps delay integrator ----------------------------------


def dde_second_order(alpha0: float, tau: float, gfun, pfun, history,
                     u0: float, du0: float, t_end: float = TWO_PI,
                     rtol: float = 1e-11, atol: float = 1e-12):
    """Integrate u'' + alpha0 u + gfun(u(t - tau)) = pfun(t) by steps.

    ``history`` supplies u on [-tau, 0]; the delayed value inside window
    j comes from the dense output of window j - 1.  Returns a callable
    evaluating u on [0, t_end].
    """
    segments = []          # (t_lo, t_hi, dense sol) per window

    def delayed(t):
        s = t - tau
        if s <= 0.0:
            return history(s)
        for lo, hi, sol in segments:
            if lo - 1e-12 <= s <= hi + 1e-12:
                return float(sol.sol(np.clip(s, lo, hi))[0])
        raise RuntimeError(f"delayed time {s} not covered yet")

    def rhs(t, y):
        return [y[1], pfun(t) - alpha0 * y[0] - gfun(delayed(t))]

    n_win = int(np.ceil(t_end / tau - 1e-12))
    y = [u0, du0]
    t_lo = 0.0
    for j in range(n_win):
        t_hi = min((j + 1) * tau, t_end)
        sol = solve_ivp(rhs, (t_lo, t_hi), y, method="DOP853",
                        dense_output=True, rtol=rtol, atol=atol,
                        max_step=tau / 8)
        if not sol.success:
            raise RuntimeError(f"integration failed in window {j}: "
                               f"{sol.message}")
        segments.append((t_lo, t_hi, sol))
        y = sol.y[:, -1]
        t_lo = t_hi

    def u_of_t(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty_like(t)
        for i, ti in enumerate(t):
            for lo, hi, sol in segments:
                if lo - 1e-12 <= ti <= hi + 1e-12:
                    out[i] = sol.sol(np.clip(ti, lo, hi))[0]
                    break
            else:
                raise RuntimeError(f"time {ti} outside integrated range")
        return out

    return u_of_t


# -- saturation layers -------------------------------------------------


def _trig_poly(y):
    """Evaluator ``t -> y(t)`` of a single real trigonometric polynomial,
    summed term by term, and its coefficients."""
    c = np.asarray(y.coeffs)
    k = np.arange(c.shape[0])

    def y_of(t):
        return c[0].real + 2.0 * np.real(np.exp(1j * np.multiply.outer(t, k[1:]))
                                         @ c[1:])

    return y_of, c


def _sign_changes(y_of, n: int, grid: int):
    """``brentq`` zeros of every component at the sign changes of a
    ``grid``-point sampling, plus that sampling ``(t, y(t))``."""
    tg = TWO_PI * np.arange(grid + 1) / grid
    vals = y_of(tg)
    zeros = []
    for j in range(n):
        v = vals[:, j]
        for i in np.flatnonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0):
            zeros.append(brentq(lambda t: y_of(t)[j], tg[i], tg[i + 1],
                                xtol=1e-16, rtol=4 * np.finfo(float).eps))
    return zeros, tg, vals


def gamma_tilde_quad(g, y, kmax: int, grid: int = 2 ** 16) -> np.ndarray:
    """Adaptive quadrature values of the coefficients
    ``(1/2pi) int g.limit(y(t)) e^{-ikt} dt``, ``k = 0 .. kmax``, shape
    ``(kmax+1, n)``, for a single ``y`` (``Psi w``).

    The period is split at every component zero (``brentq`` on each sign
    change of a ``grid``-point sampling), so the limit field is constant on
    each piece, and each piece is integrated by ``quad_vec``.
    """
    y_of, c = _trig_poly(y)
    n = c.shape[1]
    k = np.arange(kmax + 1)
    zeros, _, _ = _sign_changes(y_of, n, grid)
    cuts = np.unique(np.concatenate([[0.0, TWO_PI], zeros]))

    def integrand(t):
        z = np.outer(np.exp(-1j * k * t), g.limit(y_of(t)[None, :])[0])
        return np.concatenate([z.real.ravel(), z.imag.ravel()])

    total = sum(quad_vec(integrand, lo, hi, epsabs=1e-15, epsrel=1e-14)[0]
                for lo, hi in zip(cuts[:-1], cuts[1:]))
    half = total.size // 2
    return (total[:half] + 1j * total[half:]).reshape(kmax + 1, n) / TWO_PI


def _one_minus_base(kind: str, z):
    """``1 - base(z)`` for the saturating profiles (``tanh``,
    ``(2/pi) atan``, ``z / sqrt(1 + z^2)``), in forms that keep their
    relative accuracy as ``z -> +inf``: ``2 expit(-2z)``,
    ``(2/pi) atan(1/z)`` and ``-expm1(-log1p(1/z^2) / 2)``."""
    z = np.asarray(z, dtype=float)
    if kind == "tanh":
        return 2.0 * expit(-2.0 * z)
    far = z > 1.0
    inv = 1.0 / np.where(far, z, 1.0)
    if kind == "atan":
        return np.where(far, (2.0 / np.pi) * np.arctan(inv),
                        1.0 - (2.0 / np.pi) * np.arctan(z))
    return np.where(far, -np.expm1(-0.5 * np.log1p(inv * inv)),
                    1.0 - z / np.sqrt(1.0 + z * z))


def _limit_gap(g, y, s: float) -> np.ndarray:
    """``g.limit(y) - g(s y)`` at one point ``y`` (shape ``(n,)``).

    A saturating profile ``mid + half base(scale (x - shift))`` has the gap
    ``sgn(y) half (1 - base(sgn(y) scale (s y - shift)))``; a radial field
    ``phi(r) G(v)`` the gap ``G(v) (1 - phi(s |y|))``, with ``phi`` the
    ``alg`` base; a sign table none.
    """
    if g.kind == "componentwise":
        out = np.zeros(y.size)
        for j, p in enumerate(g.components):
            sg = np.sign(y[j])
            if sg:
                out[j] = sg * 0.5 * (p.hi - p.lo) * _one_minus_base(
                    p.kind, sg * p.scale * (s * y[j] - p.shift))
        return out
    if g.kind == "radial":
        return g.limit(y[None, :])[0] * _one_minus_base("alg", s * np.linalg.norm(y))
    return g.limit(y[None, :])[0] - g(s * y[None, :])[0]


def gamma_convergence_quad(g, y, s: float, grid: int = 2 ** 16) -> float:
    """Adaptive quadrature value of ``||g_w - g(s y)||_L2`` for one ``s``.

    ``y`` is a single real trigonometric polynomial (``Psi w``), summed
    term by term here.  The period is split at every component zero
    (``brentq`` on each sign change of a ``grid``-point sampling), at every
    grid-local minimum of ``|y_c|`` (a near-tangent layer has no sign
    change), and at offsets ``10^-8 .. 10^-1`` on both sides of each, so
    every saturation layer lies across pieces that ``quad`` resolves.  The
    integrand is this module's own tail form of the gap
    (:func:`_limit_gap`), not a difference of two nearly equal values.
    """
    y_of, c = _trig_poly(y)
    zeros, tg, vals = _sign_changes(y_of, c.shape[1], grid)
    cuts = [0.0, TWO_PI] + zeros
    for j in range(c.shape[1]):
        a = np.abs(vals[:-1, j])
        if np.any(a):
            is_min = (a <= np.roll(a, 1)) & (a <= np.roll(a, -1))
            cuts.extend(tg[np.flatnonzero(is_min)])
    centres = np.array(cuts)
    offsets = 10.0 ** -np.arange(1, 9)
    cuts = np.concatenate([centres, np.add.outer(centres, offsets).ravel(),
                           np.add.outer(centres, -offsets).ravel()])
    cuts = np.unique(np.clip(cuts, 0.0, TWO_PI))

    def integrand(t):
        d = _limit_gap(g, y_of(t), s)
        return float(np.sum(d * d))

    # full_output keeps quad quiet where a touching zero leaves only the
    # rounding noise of y (relative s * eps) above the requested tolerance
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        total += quad(integrand, lo, hi, epsabs=1e-13 / s, epsrel=1e-12,
                      limit=200, full_output=1)[0]
    return float(np.sqrt(total / TWO_PI))


def gamma_convergence_mp(g, y, s: float, dps: int = 20) -> float:
    """``||g_w - g(s y)||_L2`` for one ``s`` in ``dps``-digit arithmetic.

    ``y`` (``Psi w``) is summed term by term in mpmath from its float
    coefficients, so its zeros carry no float rounding.  The period is
    split at every component zero (refined in mpmath from the sign changes
    of a 4096-point sampling), and tanh-sinh quadrature, whose nodes
    cluster at the ends of each piece, resolves the saturation layer
    there.  ``g`` is componentwise or radial.
    """
    import mpmath as mp

    with mp.workdps(dps):
        c = np.asarray(y.coeffs)
        cm = [[mp.mpc(float(z.real), float(z.imag)) for z in row] for row in c]

        def y_of(t):
            e = [mp.expj(k * t) for k in range(1, len(cm))]
            return [cm[0][j].real + 2 * sum((a[j] * b).real for a, b in zip(cm[1:], e))
                    for j in range(c.shape[1])]

        base = {"tanh": mp.tanh, "atan": lambda z: 2 * mp.atan(z) / mp.pi,
                "alg": lambda z: z / mp.sqrt(1 + z * z)}
        s = mp.mpf(s)

        def integrand(t):
            yt = y_of(t)
            if g.kind == "componentwise":
                return sum(((p.hi if v > 0 else p.lo) - p.mid - p.half * base[p.kind](
                    p.scale * (s * v - p.shift))) ** 2
                    for p, v in zip(g.components, yt) if v != 0)
            r = mp.sqrt(sum(v * v for v in yt))
            if r == 0:
                return mp.mpf(0)
            G = [sum(mp.mpf(float(a)) * v / r for a, v in zip(row, yt)) + mp.mpf(float(b))
                 for row, b in zip(np.asarray(g.A), np.asarray(g.b))]
            return sum(x * x for x in G) * (1 - base["alg"](s * r)) ** 2

        tg = TWO_PI * np.arange(4097) / 4096
        vals = _trig_poly(y)[0](tg)
        cuts = [mp.mpf(0), 2 * mp.pi]
        for j in range(c.shape[1]):
            v = vals[:, j]
            for i in np.flatnonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0):
                cuts.append(mp.findroot(lambda t: y_of(t)[j], (tg[i], tg[i + 1]),
                                        solver="anderson"))
        return float(mp.sqrt(mp.quad(integrand, sorted(cuts)) / (2 * mp.pi)))


# -- pointwise defect --------------------------------------------------


def _mode_sum(c, t, order: int = 0) -> np.ndarray:
    """``d^order/dt^order`` of ``u(t) = a_0 + 2 sum_k (a_k cos kt - b_k sin kt)``,
    ``c_k = a_k + i b_k``, at the times ``t``; shape ``t.shape + (n,)``.
    ``(d/dt)^j`` of ``cos kt`` is ``k^j cos(kt + j pi/2)``, and likewise for sin."""
    k = np.arange(1, c.shape[0])
    x = np.multiply.outer(t, k) + order * np.pi / 2
    w = 2.0 * k.astype(float) ** order
    out = (np.cos(x) * w) @ c[1:].real - (np.sin(x) * w) @ c[1:].imag
    return out + c[0].real if order == 0 else out


_G_BASE = {"tanh": np.tanh, "atan": lambda z: (2.0 / np.pi) * np.arctan(z),
           "alg": lambda z: z / np.sqrt(1.0 + z * z)}
_H_BASE = {"tanh": np.tanh, "sech": lambda z: 1.0 / np.cosh(z),
           "sin": np.sin, "cos": np.cos}


def _measure_direct(mat, c, t, epsabs: float) -> np.ndarray:
    """``int u(t + s) dmu(s)`` of the matrix measure at the times ``t``:
    atoms as ``w u_j(t + theta)``, each density piece by ``quad_vec`` of
    ``profile(s) u(t + s)`` over its interval, vectorized over ``t``."""
    out = np.zeros((t.size, c.shape[1]))
    for i, row in enumerate(mat.entries):
        for j, m in enumerate(row):
            for theta, w in m.atoms:
                out[:, i] += w * _mode_sum(c, t + theta)[:, j]
            for d in m.densities:
                val, _ = quad_vec(lambda s: d.profile(s) * _mode_sum(c, t + s)[:, j],
                                  d.a, d.b, epsabs=epsabs, epsrel=1e-13, limit=2000)
                out[:, i] += val
    return out


def defect_direct(prob, u, M: int, epsabs: float = 1e-13) -> float:
    """Sup over ``t_j = 2 pi j / M`` of the Euclidean norm of
    ``P(D)u + Lam u + g(Psi u) + h(t, u_t) - p``, from the definitions at each
    grid point: ``u``, its derivatives and ``p`` by explicit cos/sin mode
    sums (:func:`_mode_sum`), atoms as ``u(t + theta)``, densities by
    adaptive quadrature (:func:`_measure_direct`, absolute tolerance
    ``epsabs`` on the 2-norm over the grid), the componentwise ``g`` and
    each term of ``h`` from their catalog formulas."""
    if prob.g.kind != "componentwise":
        raise NotImplementedError("the oracle knows componentwise g only")
    c = np.asarray(u.coeffs)
    t = TWO_PI * np.arange(M) / M
    acc = sum(_mode_sum(c, t, j) @ A.T for j, A in enumerate(prob.P.coeffs))
    acc = acc + _measure_direct(prob.Lam, c, t, epsabs)
    y = _measure_direct(prob.Psi, c, t, epsabs)
    for j, p in enumerate(prob.g.components):
        acc[:, j] += 0.5 * (p.hi + p.lo) + 0.5 * (p.hi - p.lo) * _G_BASE[p.kind](
            p.scale * (y[:, j] - p.shift))
    for term in (prob.h.terms if prob.h is not None else []):
        z = sum(tap.weight * _mode_sum(c, t - tap.delay)[:, tap.component]
                for tap in term.taps)
        acc[:, term.component] += (term.amp * np.cos(term.tmod_harmonic * t + term.tmod_phase)
                                   * _H_BASE[term.profile](z))
    acc -= _mode_sum(np.asarray(prob.p.coeffs), t)
    return float(np.max(np.sqrt(np.sum(acc * acc, axis=1))))


# -- closed-form scalars -----------------------------------------------


def tail_constant_quad() -> float:
    """C in E(s)^2 ~ C / s for the odd saturating profile with unit limits.

    Two sign changes of sqrt(2) cos on the period each contribute a
    stretched copy of int (sgn y - tanh y)^2 dy, scaled by 1/(s sqrt 2),
    averaged over the period:   C = int_R (sgn - tanh)^2 / (sqrt 2 pi).
    """
    val, _ = quad(lambda y: (1.0 - np.tanh(y)) ** 2, 0.0, 60.0,
                  epsabs=1e-14, epsrel=1e-13, limit=200)
    return 2.0 * val / (np.sqrt(2.0) * np.pi)


def tail_constant_closed() -> float:
    """Same constant via int_0^inf (1 - tanh)^2 = 2 ln 2 - 1."""
    return (4.0 * np.log(2.0) - 2.0) / (np.sqrt(2.0) * np.pi)


def arcsine_measure(eps: float) -> float:
    """Normalized measure of {|sqrt(2) cos t| < eps} on the circle."""
    return (2.0 / np.pi) * np.arcsin(eps / np.sqrt(2.0))


def square_wave_coefficient() -> float:
    """Normalized first Fourier coefficient modulus of sgn(cos t)."""
    val, _ = quad(lambda t: np.sign(np.cos(t)) * np.cos(t), 0.0, TWO_PI,
                  epsabs=1e-14, limit=200)
    return val / TWO_PI


if __name__ == "__main__":
    np.set_printoptions(precision=17)
    print("tail constant (quad)       ", f"{tail_constant_quad():.10f}")
    print("tail constant (closed form)", f"{tail_constant_closed():.10f}")
    for s in (1e3, 1e4):
        print(f"predicted E({s:.0e})        ",
              f"{np.sqrt(tail_constant_closed() / s):.10f}")
    print("arcsine measure eps=0.1    ", f"{arcsine_measure(0.1):.10f}")
    print("arcsine measure eps=0.2    ", f"{arcsine_measure(0.2):.10f}")
    print("arcsine measure eps=0.05   ", f"{arcsine_measure(0.05):.10f}")
    print("square wave |ghat(1)|      ",
          f"{square_wave_coefficient():.10f}",
          " (2/pi =", f"{2.0 / np.pi:.10f})")
