"""Deterministic low-discrepancy sampling of kernel spheres."""

from __future__ import annotations

import numpy as np


def sphere_points(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """``count`` well-spread points on the unit sphere of ``R^dim``.

    Scrambled Sobol points pushed through the Gaussian quantile and
    normalized; fully determined by ``seed``.  scipy is imported here, on
    first use, so that importing the package does not pay its second of
    import time.
    """
    if dim < 1 or count < 1:
        raise ValueError("need dim >= 1 and count >= 1")
    if dim == 1:
        return np.array([[1.0], [-1.0]] * count)[:count]
    from scipy.special import ndtri
    from scipy.stats import qmc
    m = int(np.ceil(np.log2(max(count, 2))))
    eng = qmc.Sobol(d=dim, scramble=True, seed=seed)
    x = eng.random_base2(m)[:count]
    z = ndtri(np.clip(x, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(z, axis=1)
    norms[norms == 0.0] = 1.0
    return z / norms[:, None]


def coords_to_amps(x: np.ndarray) -> np.ndarray:
    """Real sphere points in ``R^{2 nu}`` (last axis) to complex kernel
    amplitudes.

    Unit real vectors map to amplitude vectors with ``2 sum |a|^2 = 1``,
    i.e. L2-normalized kernel elements.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] % 2:
        raise ValueError("coordinate dimension must be even")
    half = x.shape[-1] // 2
    return (x[..., :half] + 1j * x[..., half:]) / np.sqrt(2.0)


def phase_circle(count: int) -> np.ndarray:
    """Uniform phases on ``[0, 2 pi)``."""
    return 2.0 * np.pi * np.arange(count) / count
