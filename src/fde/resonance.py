"""Resonant frequency analysis of the linear part ``L_k = P(ik) + lamhat(-k)``.

On each Fourier mode the linear operator acts by the symbol matrix ``L_k``.
The resonant set collects the integer frequencies where ``L_k`` is singular;
it is finite because ``|P(ik)|`` grows like ``k^m`` while the measure term
stays bounded by the total variation.  The scan certifies its own cutoff
``k_star`` from that growth bound.

Kernel bases are extracted by SVD with a deterministic phase convention so
reports are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotInImageError, ScanBoundExceeded
from .measures import MeasureMatrix, matrix_transform, total_variation_bound
from .problem import MatrixPolynomial
from .trigpoly import TrigPoly

_HARD_CAP = 10 ** 6
# gates of L2 (principal-angle sine), L4 (eigenvector defect) and of the
# kernel-direction mass of a right-hand side (relative to 1 + |phi|)
_ANGLE_TOL, _EIG_TOL, _IMAGE_TOL = 1e-8, 1e-10, 1e-10


def symbol(P: MatrixPolynomial, Lam: MeasureMatrix, k) -> np.ndarray:
    """Mode-``k`` symbol ``P(ik) + lamhat(-k)``; complex ``k.shape + (n, n)``
    for an integer or an integer array ``k``."""
    if P.n != Lam.n:
        raise DimensionMismatch("polynomial and measure sizes differ")
    k = np.asarray(k)
    return P(1j * k) + matrix_transform(Lam, -k)


def symbol_stack(P: MatrixPolynomial, Lam: MeasureMatrix, kmax: int) -> np.ndarray:
    """Symbols ``L_0 .. L_kmax`` as one ``(kmax+1, n, n)`` array from the
    cached stacks :meth:`MatrixPolynomial.stack` and
    :meth:`MeasureMatrix.stack`."""
    if P.n != Lam.n:
        raise DimensionMismatch("polynomial and measure sizes differ")
    return P.stack(kmax) + Lam.stack(kmax)


def _fix_phase(theta: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    out = theta.copy()
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, j])))
        a = out[i, j]
        if np.abs(a) > 0:
            out[:, j] *= np.conj(a) / np.abs(a)
    return out


@dataclass
class ResonantMode:
    k: int
    L: np.ndarray
    sigma_min: float
    nu: int
    theta: np.ndarray  # (n, nu), orthonormal kernel of L
    left: np.ndarray   # (n, nu), orthonormal kernel of L^*


@dataclass
class ConditionFlags:
    """Results of the four linear checks plus the deviation lower constant."""

    l1: bool
    l2: bool
    l3: bool
    l4: bool
    c_psi: float | None
    witnesses: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return self.l1 and self.l2 and self.l3 and self.l4

    def to_dict(self):
        return {"L1": self.l1, "L2": self.l2, "L3": self.l3, "L4": self.l4,
                "c_psi": self.c_psi, "witnesses": self.witnesses}


@dataclass
class ResonanceReport:
    P: MatrixPolynomial
    Lam: MeasureMatrix
    tol: float
    k_star: int
    modes: dict            # k >= 0 -> ResonantMode
    flags: ConditionFlags | None = None

    @property
    def K(self) -> list:
        ks = sorted(self.modes)
        return sorted([-k for k in ks if k > 0] + ks)

    @property
    def nu(self) -> int:
        """Half the conjugate-paired kernel dimension (k > 0 modes only)."""
        return sum(m.nu for k, m in self.modes.items() if k > 0)

    def kernel_slots(self) -> list:
        """Ordered ``(k, j)`` labels for the positive-frequency kernel basis."""
        return [(k, j) for k in sorted(self.modes) if k > 0
                for j in range(self.modes[k].nu)]

    @cached_property
    def kernel_basis(self) -> np.ndarray:
        """Read-only coefficients of the kernel basis signals,
        ``(nu, kb+1, n)``: slot ``(k, j)`` holds ``theta_{k,j}`` at mode
        ``k``, and ``kb`` is the top slot frequency (0 without slots)."""
        slots = self.kernel_slots()
        kb = max((k for k, _ in slots), default=0)
        out = np.zeros((len(slots), kb + 1, self.P.n), dtype=complex)
        for s, (k, j) in enumerate(slots):
            out[s, k] = self.modes[k].theta[:, j]
        out.flags.writeable = False
        return out

    def to_dict(self) -> dict:
        kernel = []
        for k in sorted(self.modes):
            m = self.modes[k]
            kernel.append({"k": k, "nu_k": m.nu, "sigma_min": m.sigma_min,
                           "theta": [[[float(z.real), float(z.imag)] for z in col]
                                     for col in m.theta.T]})
        out = {"K": self.K, "k_star": self.k_star, "nu": self.nu,
               "kernel": kernel}
        if self.flags is not None:
            out.update(self.flags.to_dict())
        return out


def scan_bound(P: MatrixPolynomial, Lam: MeasureMatrix) -> int:
    """Smallest ``k`` beyond which the symbol is provably nonsingular.

    Uses ``sigma_min(P(ik)) >= sigma_min(A_m) k^m - sum_{j<m} |A_j| k^j`` and
    the total-variation bound on the measure term.
    """
    tv = total_variation_bound(Lam)
    sv = np.linalg.svd(P.coeffs, compute_uv=False)
    lead, lower_norms = sv[-1, -1], sv[:-1, 0].tolist()
    for k in range(1, _HARD_CAP + 1):
        bound = lead * float(k) ** P.degree - sum(
            a * float(k) ** j for j, a in enumerate(lower_norms))
        if bound > tv + 1.0:
            return k
    raise ScanBoundExceeded("resonance scan bound exceeds 10^6; rescale the system")


def resonant_set(P: MatrixPolynomial, Lam: MeasureMatrix,
                 tol: float = 1e-9) -> ResonanceReport:
    """Scan ``|k| <= k_star`` for singular symbols and extract kernels.

    A mode is resonant when ``sigma_min(L_k) < tol (1 + |L_k|)``.  Only
    ``k >= 0`` is scanned; negative modes follow by conjugation.  One SVD
    of the resonant symbols gives the kernels of ``L_k`` and of ``L_k^*``.
    """
    k_star = scan_bound(P, Lam)
    Ls = symbol_stack(P, Lam, k_star)
    sig = np.linalg.svd(Ls, compute_uv=False)
    ks = np.flatnonzero(sig[:, -1] < tol * (1.0 + sig[:, 0]))
    U, sigma, Vh = np.linalg.svd(Ls[ks])
    # the last nu singular vectors of each symbol span its two kernels
    cuts = P.n - np.sum(sigma < tol * (1.0 + sigma[:, :1]), axis=1)
    modes = {k: ResonantMode(k, Ls[k].copy(), float(sig[k, -1]), P.n - c,
                             _fix_phase(Vh[i, c:].conj().T), U[i, :, c:])
             for i, (k, c) in enumerate(zip(ks.tolist(), cuts.tolist()))}
    return ResonanceReport(P=P, Lam=Lam, tol=tol, k_star=k_star, modes=modes)


def check_linear_conditions(report: ResonanceReport,
                            Psi: MeasureMatrix) -> ConditionFlags:
    """Evaluate the four structural conditions on the resonant modes.

    L1: the mean mode is nonsingular.  L2: at each resonant ``k`` the kernel
    of ``L_k`` equals the kernel of ``L_k^*`` (normality of the defect),
    measured through principal angles.  L3: the deviation transform
    ``psihat(k)`` is nonsingular on the resonant set.  L4: the kernel basis
    vectors are eigenvectors of ``psihat(-k)``.
    """
    wit: dict = {}
    L0 = symbol(report.P, report.Lam, 0)
    sig0 = np.linalg.svd(L0, compute_uv=False)
    l1 = bool(sig0[-1] >= report.tol * (1.0 + sig0[0]))
    wit["L1"] = {"det_L0": _c2pair(np.linalg.det(L0)), "sigma_min_L0": float(sig0[-1])}

    ks = [k for k in sorted(report.modes) if k > 0]
    # sin of the largest principal angle between the two kernels
    worst_angle = max((float(np.linalg.norm(m.theta - m.left @ (m.left.conj().T @ m.theta), 2))
                       for m in map(report.modes.get, ks)), default=0.0)
    l2 = worst_angle < _ANGLE_TOL
    wit["L2"] = {"max_angle_sin": worst_angle}

    l3 = l4 = True
    c_psi = min_det = None
    worst_eig = 0.0
    if ks:
        # psihat(k) = conj psihat(-k) for real measures; conjugation keeps
        # the singular values and |det| (hypot rounds like the scalar abs)
        psi = Psi.stack(ks[-1])
        sig = np.linalg.svd(psi[ks], compute_uv=False)
        l3 = bool(np.all(sig[:, -1] >= report.tol * (1.0 + sig[:, 0])))
        c_psi = float(np.min(sig[:, -1]))
        det = np.linalg.det(psi[ks])
        min_det = float(np.min(np.hypot(det.real, det.imag)))
        basis = report.kernel_basis
        mus = deviation_eigenvalues(report, Psi)
        resid = np.einsum("knm,skm->skn", psi, basis) - mus[:, None, None] * basis
        worst_eig = float(np.max(np.linalg.norm(resid, axis=(1, 2))))
        l4 = worst_eig < _EIG_TOL
    wit["L3"] = {"min_abs_det_psi": min_det}
    wit["L4"] = {"max_eigen_defect": worst_eig}

    return ConditionFlags(l1, l2, l3, l4, c_psi, wit)


def deviation_eigenvalues(report: ResonanceReport, Psi: MeasureMatrix) -> np.ndarray:
    """Per-slot action of the deviation on the kernel: the eigenvalue of
    ``psihat(-k)`` on each kernel direction (exact under the eigenvector
    condition, the Rayleigh quotient otherwise)."""
    basis = report.kernel_basis
    return np.einsum("skn,knm,skm->s", basis.conj(), Psi.stack(basis.shape[1] - 1), basis)


def _c2pair(z):
    return [float(np.real(z)), float(np.imag(z))]


# -- kernel elements ---------------------------------------------------


@dataclass
class KernelElement:
    """Element of the (conjugate-symmetric) kernel in coordinate form.

    ``amps[i]`` is the complex amplitude of slot ``(k, j)`` from
    ``report.kernel_slots()``; the induced real signal is
    ``w(t) = sum 2 Re(amps[i] e^{ikt} theta_{k,j})`` with
    ``||w||_L2^2 = 2 sum |amps|^2``.  Amplitudes of shape ``(..., nu)``
    describe a batch of elements; :meth:`to_poly` and :meth:`from_poly`
    carry the batch axes, the norms and :meth:`to_dict` take one element.
    """

    report: ResonanceReport
    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.atleast_1d(np.asarray(self.amps, dtype=complex))
        if self.amps.shape[-1] != self.report.nu:
            raise DimensionMismatch("amplitude count differs from kernel dimension")

    def norm_l2(self) -> float:
        return float(np.sqrt(2.0) * np.linalg.norm(self.amps))

    def coord_norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def to_poly(self, kmax: int | None = None) -> TrigPoly:
        basis = self.report.kernel_basis
        top = basis.shape[1] - 1
        if kmax is None:
            kmax = top
        if kmax < top:
            raise DimensionMismatch("kmax below the top resonant frequency")
        c = np.zeros(self.amps.shape[:-1] + (kmax + 1, basis.shape[2]), dtype=complex)
        c[..., :top + 1, :] = np.einsum("...s,skn->...kn", self.amps, basis)
        return TrigPoly(c)

    @staticmethod
    def from_poly(report: ResonanceReport, u: TrigPoly) -> "KernelElement":
        """Kernel coordinates of ``u`` (of each ``u`` in a batch)."""
        basis = report.kernel_basis
        m = min(basis.shape[1], u.kmax + 1)
        return KernelElement(report, np.einsum("skn,...kn->...s", basis[:, :m].conj(),
                                               u.coeffs[..., :m, :]))

    def __mul__(self, s) -> "KernelElement":
        return KernelElement(self.report, self.amps * s)

    __rmul__ = __mul__

    def __neg__(self) -> "KernelElement":
        return KernelElement(self.report, -self.amps)

    def to_dict(self):
        return {"slots": [[k, j] for k, j in self.report.kernel_slots()],
                "amps": [_c2pair(a) for a in self.amps]}


def project_kernel(u: TrigPoly, report: ResonanceReport) -> TrigPoly:
    """Orthogonal projection onto the kernel of the linear part."""
    ks = sorted(report.modes)
    kmax = max(ks) if ks else 0
    c = np.zeros((kmax + 1, u.n), dtype=complex)
    for k in ks:
        th = report.modes[k].theta
        proj = th @ (th.conj().T @ u.coeff(k))
        c[k] = proj.real if k == 0 else proj
    return TrigPoly(c)


def apply_symbol(u: TrigPoly, report: ResonanceReport) -> TrigPoly:
    """``L u``: mode ``k`` picks up ``L_k``."""
    Ls = symbol_stack(report.P, report.Lam, u.kmax)
    return TrigPoly(np.einsum("kij,kj->ki", Ls, u.coeffs))


def right_inverse(phi: TrigPoly, report: ResonanceReport,
                  kmax: int | None = None) -> TrigPoly:
    """Solve ``L u = phi`` with zero kernel component.

    Each mode inverts through the SVD of its :func:`symbol_stack` symbol; on
    resonant modes singular values at or below ``10 tol sigma_max`` count as
    zero, which selects the minimal-norm (kernel-orthogonal) solution.  Raises
    :class:`NotInImageError` when ``phi`` has kernel-direction mass beyond
    ``1e-10`` relative scale.
    """
    if kmax is None:
        kmax = phi.kmax
    scale = 1.0 + phi.norm_l2()
    for k, mode in sorted(report.modes.items()):
        defect = np.linalg.norm(mode.theta.conj().T @ phi.coeff(k))
        if k <= kmax and defect > _IMAGE_TOL * scale:
            raise NotInImageError(f"mode {k} carries kernel mass {defect:.3e}")
    U, sig, Vh = np.linalg.svd(symbol_stack(report.P, report.Lam, kmax))
    cut = np.isin(np.arange(kmax + 1), list(report.modes))[:, None] & (
        sig <= 10 * report.tol * sig[:, :1])
    inv = np.divide(1.0, sig, out=np.zeros_like(sig), where=~cut)
    rhs = inv * np.einsum("kji,kj->ki", U.conj(), phi.truncate(kmax).coeffs)
    return TrigPoly(np.einsum("kji,kj->ki", Vh.conj(), rhs))
