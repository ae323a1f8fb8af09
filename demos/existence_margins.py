"""Certify existence of periodic solutions at resonance.

When the forcing frequency sits on the kernel of the linear part, the
existence of a 2pi-periodic solution hinges on the saturation limits of
the bounded nonlinearity: the classical condition compares the kernel
component of the forcing with the averaged limit field over the kernel
sphere.  This demo computes those margins, shows the verdict flipping as
the forcing grows past the critical gain, and backs the scan up with a
topological degree count.

Run with:  python3 demos/existence_margins.py
"""

import numpy as np

from fde import (SphereSample, build_example, certify, gamma_convergence,
                 ll_margin, resonant_set, small_set_measure, sphere_scan)


def banner(text):
    print()
    print(text)
    print("-" * len(text))


# ---------------------------------------------------------------------
# 1. Closed-form margin for the scalar oscillator.
#
# For  u'' + u + tanh(u(t - pi/2)) = c cos t  the sharp inequality reads
# 2/pi > c/2: the first Fourier coefficient of the saturated limit field
# has modulus 2/pi while the kernel component of the forcing is c/2.
# ---------------------------------------------------------------------

banner("margin sweep for the delayed Duffing oscillator")
crit = 4.0 / np.pi
print(f"critical gain c* = 4/pi = {crit:.6f}")
print(f"{'c':>6} {'margin':>12} {'verdict':>9}")
for c in (0.5, 1.0, 1.2, crit - 0.02, crit + 0.02, 1.5):
    out = ll_margin(build_example("duffing-delay", c=c))
    verdict = "exists" if out["holds"] else "open"
    print(f"{c:6.3f} {out['margin']:12.6f} {verdict:>9}")

# ---------------------------------------------------------------------
# 2. Sphere scan for a coupled system.
#
# R2 asks the projected limit field to stay away from zero on the kernel
# sphere, N2 asks its pairing with the deviated kernel element to beat the
# sup norm of the history perturbation.  This system's kernel is two
# dimensional, so its sphere is one time-shift orbit and both margins are
# exact; larger kernels are sampled.  Margins are in kernel coordinates.
# ---------------------------------------------------------------------

banner("kernel sphere scan, two-population system")
prob = build_example("gompertz-system")
scan = sphere_scan(prob)
print(f"certified      {scan.r2['certified']}")
print(f"R2 margin      {scan.r2['margin']:.6f}  (holds: {scan.r2['holds']})")
print(f"N2 margin      {scan.n2['margin']:.6f}  (holds: {scan.n2['holds']})")
print(f"h budget       {scan.n2['h_budget']:.6f}  (sup norm of the")
print("                perturbation, already subtracted from the margin)")

# ---------------------------------------------------------------------
# 3. Degree certificates.
#
# On a two-dimensional kernel the projected field runs once around the
# circle c0 e^{-i phi} - a_p as the phase goes round, so its winding
# number is closed form: -1 when |c0| > |a_p|, 0 otherwise.  A nonzero
# winding decides existence outright.  For kernels that split across
# components the Brouwer degree factors into a product of per-component
# windings.  `certify` picks the degree the kernel allows and returns it
# in the existence record that `fde check-ll` prints.
# ---------------------------------------------------------------------

banner("topological degree")
for label, name in (("winding degree, delayed Duffing     ", "duffing-delay"),
                    ("product degree, weakly coupled pair ", "weakly-coupled")):
    doc = certify(build_example(name))
    print(f"{label} {doc['degree']['degree']:+d}"
          f"   (conditions pass: {doc['conditions_pass']})")

# ---------------------------------------------------------------------
# 4. Why finite amplitudes inherit the sphere margins.
#
# The scan works with the limit field, but solutions live at finite
# amplitude s.  The L2 gap between the two fields decays like
# sqrt(C/s) because the nonlinearity saturates everywhere except in
# shrinking layers around the zeros of the kernel sample; the layer
# measure itself obeys an arcsine law with a cube-root envelope.
# ---------------------------------------------------------------------

banner("finite-amplitude convergence")
prob = build_example("duffing-delay")
rep = resonant_set(prob.P, prob.Lam)
w = SphereSample.single_phase(rep, 0.0)
svals = [1e2, 1e3, 1e4]
E = gamma_convergence(prob, w, svals)
print(f"{'s':>8} {'gap':>12} {'0.417/sqrt(s)':>14}")
for s, e in zip(svals, E):
    print(f"{s:8.0f} {e:12.6f} {np.sqrt(0.1739 / s):14.6f}")

print()
print("small sublevel sets of the kernel sample:")
for eps in (0.2, 0.1, 0.05):
    mu = small_set_measure(w, eps)
    print(f"  |{{ |w| < {eps:4.2f} }}| / 2pi = {mu:.5f}"
          f"   (<= C eps^(1/3) with C = {mu / eps ** (1 / 3):.4f})")
