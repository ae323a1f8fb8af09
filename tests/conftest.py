import sys

import numpy as np
import pytest

from fde import (BoundedNonlinearity, ComponentProfile, MatrixPolynomial, MeasureMatrix,
                 ProblemSpec, ScalarMeasure, SolveConfig, TrigPoly, saturating)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One verdict line per acceptance criterion after the normal summary."""
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num, label, ok in sorted(results):
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d}  {label:<56s} {verdict}")


# -- problems with a kernel of dimension six (nu = 3), kept out of the catalog


@pytest.fixture(scope="session")
def three_mode_diagonal():
    """``u_c'' + u_c + g_c(u_c(t - pi/4)) = f_c cos t`` for ``c = 0, 1, 2``:
    ``tanh`` profiles with limits +-1, +-1.5 and +-2, ``f = (0.5, 0.4, 0.3)``;
    each component resonates at ``k = 1`` on its own."""
    eye = np.eye(3)
    return ProblemSpec(
        P=MatrixPolynomial(np.stack([eye, np.zeros((3, 3)), eye])),
        Lam=MeasureMatrix.zero(3),
        Psi=MeasureMatrix.diagonal([ScalarMeasure.point_delay(np.pi / 4)] * 3),
        g=BoundedNonlinearity("componentwise",
                              components=[ComponentProfile("tanh", -a, a)
                                          for a in (1.0, 1.5, 2.0)]),
        p=(TrigPoly.cosine(1, amplitude=0.5, n=3, component=0)
           + TrigPoly.cosine(1, amplitude=0.4, n=3, component=1)
           + TrigPoly.cosine(1, amplitude=0.3, n=3, component=2)),
        solve=SolveConfig(kmax=48))


@pytest.fixture(scope="session")
def three_frequency_beam():
    """``(D^2 + 1)(D^2 + 4)(D^2 + 9) u + g(u) = 0.1 cos t + 0.05 cos 2t +
    0.05 cos 3t``, ``g`` the saturating ``tanh`` from -1 to 1 and ``Psi``
    the identity: one component resonating at ``k = 1, 2, 3``."""
    return ProblemSpec(
        P=MatrixPolynomial.from_scalar([36.0, 0.0, 49.0, 0.0, 14.0, 0.0, 1.0]),
        Lam=MeasureMatrix.zero(1),
        Psi=MeasureMatrix.scalar(ScalarMeasure.dirac(0.0)),
        g=saturating(-1.0, 1.0),
        p=(TrigPoly.cosine(1, amplitude=0.1, kmax=3) + TrigPoly.cosine(2, amplitude=0.05, kmax=3)
           + TrigPoly.cosine(3, amplitude=0.05)),
        solve=SolveConfig(kmax=64))
