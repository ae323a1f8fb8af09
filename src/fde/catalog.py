"""Built-in example problems and problem files.

Each builder returns a complete :class:`ProblemSpec`; ``emit_example``
serializes it to the problem-file dictionary, ``parse_problem`` validates
one against :data:`PROBLEM_SCHEMA` and ``load_problem`` takes a file path
or an example name.  The schema is plain data; a direct validator reads it
and reports jsonschema's messages and JSON paths.  Parameters can be
overridden by keyword (``m=2``, ``tau=1.0``, ...), with every default
chosen so the stock example is resonant and certifiable as shipped.

A note on ``distributed-uniform``: the uniform density with weight ``m/2``
ships verbatim, but its first-order symbol ``ik + (m/2) int e^{iks} ds``
only vanishes for ``m = 1``; the analyze report is authoritative about what
is and is not resonant.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import FdeError, ProblemFormatError
from .measures import (ConstProfile, Density, MeasureMatrix, ScalarMeasure,
                       SinProfile)
from .nonlinearity import (ComponentProfile, BoundedNonlinearity, DelayTap,
                           HistoryPerturbation, PerturbationTerm, saturating)
from .problem import MatrixPolynomial, ProblemSpec, SolveConfig
from .trigpoly import TrigPoly

PI = np.pi

EXAMPLE_IDS = ("duffing-delay", "duffing-distributed", "gompertz-system",
               "weakly-coupled", "distributed-uniform", "distributed-sine",
               "beam")


def _const_profile(lo_hi: float = 0.0) -> ComponentProfile:
    # degenerate saturating profile with equal limits: a constant component
    return ComponentProfile("tanh", lo_hi, lo_hi)


def duffing_delay(m: int = 1, tau: float = PI / 2, c: float = 1.0) -> ProblemSpec:
    """Scalar oscillator at exact resonance with a delayed saturation:
    ``u'' + m^2 u + g(u(t - tau)) = c cos(m t)``."""
    m = int(m)
    return ProblemSpec(
        P=MatrixPolynomial.from_scalar([m * m, 0.0, 1.0]),
        Lam=MeasureMatrix.zero(1),
        Psi=MeasureMatrix.scalar(ScalarMeasure.point_delay(tau)),
        g=saturating(-1.0, 1.0),
        p=TrigPoly.cosine(m, amplitude=c),
        solve=SolveConfig(kmax=64))


def duffing_distributed(m: int = 1, width: float = PI / 2,
                        c: float = 1.0) -> ProblemSpec:
    """Same oscillator, the delayed read replaced by a uniform average of
    the recent history over ``[-width, 0]``."""
    m = int(m)
    psi = ScalarMeasure(densities=[Density(-width, 0.0,
                                           ConstProfile(1.0 / width))])
    return ProblemSpec(
        P=MatrixPolynomial.from_scalar([m * m, 0.0, 1.0]),
        Lam=MeasureMatrix.zero(1),
        Psi=MeasureMatrix.scalar(psi),
        g=saturating(-1.0, 1.0),
        p=TrigPoly.cosine(m, amplitude=c),
        solve=SolveConfig(kmax=64))


def gompertz_system(tau: float = PI / 2, c: float = 0.5,
                    h_amp: float = 0.2) -> ProblemSpec:
    """Two first-order populations; the first is resonantly delayed
    (``u_1' + u_1(t - tau) = ...`` is singular at ``k = 1`` for
    ``tau = pi/2``), the second is damped and driven only through the
    history term, which never touches the kernel component."""
    lam = MeasureMatrix.zero(2)
    lam.entries[0][0] = ScalarMeasure.point_delay(tau)
    lam.entries[1][1] = ScalarMeasure(atoms=[(0.0, 2.0),
                                             (2.0 * PI - tau, 1.0)])
    g = BoundedNonlinearity("componentwise",
                            components=[ComponentProfile("tanh", -1.0, 1.0),
                                        _const_profile()])
    h = HistoryPerturbation(
        terms=[PerturbationTerm(component=1, amp=h_amp, profile="tanh",
                                taps=[DelayTap(component=0, delay=tau)])])
    p = TrigPoly.cosine(1, amplitude=c, n=2, component=0)
    return ProblemSpec(
        P=MatrixPolynomial(np.stack([np.zeros((2, 2)), np.eye(2)])),
        Lam=lam,
        Psi=MeasureMatrix.constant_matrix(np.eye(2)),
        g=g, h=h, p=p,
        solve=SolveConfig(kmax=48))


def weakly_coupled(tau: float = PI / 4, c1: float = 0.5, c2: float = 0.4,
                   eps: float = 0.05) -> ProblemSpec:
    """Two second-order modes, both resonant at ``k = 1``, coupled only
    through a small bounded history term; the kernel splits into
    per-component blocks, so the product degree applies."""
    psi = MeasureMatrix.diagonal([ScalarMeasure.point_delay(tau),
                                  ScalarMeasure.point_delay(tau)])
    g = BoundedNonlinearity("componentwise",
                            components=[ComponentProfile("tanh", -1.0, 1.0),
                                        ComponentProfile("tanh", -1.5, 1.5)])
    h = HistoryPerturbation(
        terms=[PerturbationTerm(component=0, amp=eps, profile="sech",
                                taps=[DelayTap(component=1, delay=1.0)]),
               PerturbationTerm(component=1, amp=eps, profile="sech",
                                taps=[DelayTap(component=0, delay=0.5)])])
    p = (TrigPoly.cosine(1, amplitude=c1, n=2, component=0)
         + TrigPoly.cosine(1, amplitude=c2, n=2, component=1))
    coeffs = np.stack([np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2)])
    return ProblemSpec(
        P=MatrixPolynomial(coeffs),
        Lam=MeasureMatrix.constant_matrix(np.eye(2)),
        Psi=psi,
        g=g, h=h, p=p,
        solve=SolveConfig(kmax=48))


def distributed_uniform(m: int = 1, c: float = 0.3) -> ProblemSpec:
    """First-order scalar equation with a uniform memory density of weight
    ``m/2`` over ``[-pi/m, 0]``; resonant at ``k = 1`` when ``m = 1``."""
    m = int(m)
    lam = ScalarMeasure(densities=[Density(-PI / m, 0.0,
                                           ConstProfile(m / 2.0))])
    return ProblemSpec(
        P=MatrixPolynomial.from_scalar([0.0, 1.0]),
        Lam=MeasureMatrix.scalar(lam),
        Psi=MeasureMatrix.scalar(ScalarMeasure.dirac(0.0)),
        g=saturating(-1.0, 1.0),
        p=TrigPoly.cosine(m, amplitude=c),
        solve=SolveConfig(kmax=48))


def distributed_sine(m: int = 2, c: float = 0.3) -> ProblemSpec:
    """First-order scalar equation with memory density
    ``-(4m/pi)(m/2) sin(m s)`` on ``[-pi/m, 0]``, built to make ``k = m``
    resonant for every ``m``."""
    m = int(m)
    profile = SinProfile(-2.0 * m * m / PI, float(m))
    lam = ScalarMeasure(densities=[Density(-PI / m, 0.0, profile)])
    return ProblemSpec(
        P=MatrixPolynomial.from_scalar([0.0, 1.0]),
        Lam=MeasureMatrix.scalar(lam),
        Psi=MeasureMatrix.scalar(ScalarMeasure.dirac(0.0)),
        g=saturating(-1.0, 1.0),
        p=TrigPoly.cosine(m, amplitude=c),
        solve=SolveConfig(kmax=48))


def beam(c1: float = 0.2, c2: float = 0.1) -> ProblemSpec:
    """Fourth-order beam-like operator ``(d^2 + 1)(d^2 + 4)`` with a kernel
    spanning two frequencies; sphere certificates apply, the product degree
    does not (one component, two resonant modes)."""
    p = (TrigPoly.cosine(1, amplitude=c1, kmax=2)
         + TrigPoly.cosine(2, amplitude=c2))
    return ProblemSpec(
        P=MatrixPolynomial.from_scalar([4.0, 0.0, 5.0, 0.0, 1.0]),
        Lam=MeasureMatrix.zero(1),
        Psi=MeasureMatrix.scalar(ScalarMeasure.dirac(0.0)),
        g=saturating(-1.0, 1.0),
        p=p,
        solve=SolveConfig(kmax=64))


_BUILDERS = {"duffing-delay": duffing_delay,
             "duffing-distributed": duffing_distributed,
             "gompertz-system": gompertz_system,
             "weakly-coupled": weakly_coupled,
             "distributed-uniform": distributed_uniform,
             "distributed-sine": distributed_sine,
             "beam": beam}


def build_example(example_id: str, **params) -> ProblemSpec:
    try:
        builder = _BUILDERS[example_id]
    except KeyError:
        known = ", ".join(EXAMPLE_IDS)
        raise ProblemFormatError(
            f"unknown example {example_id!r}; known ids: {known}") from None
    try:
        return builder(**params)
    except TypeError as exc:
        raise ProblemFormatError(f"bad parameter for {example_id}: {exc}") from None


def emit_example(example_id: str, **params) -> dict:
    """Problem-file dictionary for a named example."""
    return build_example(example_id, **params).to_dict()


# -- problem files ------------------------------------------------------

_MEASURE_SCHEMA = {
    "type": "object",
    "required": ["atoms", "densities"],
    "properties": {
        "atoms": {"type": "array",
                  "items": {"type": "object",
                            "required": ["theta", "weight"],
                            "properties": {"theta": {"type": "number"},
                                           "weight": {"type": "number"}}}},
        "densities": {"type": "array",
                      "items": {"type": "object",
                                "required": ["a", "b", "profile"],
                                "properties": {
                                    "a": {"type": "number"},
                                    "b": {"type": "number"},
                                    "profile": {"type": "object",
                                                "required": ["kind"]}}}}},
}

_MATRIX_SCHEMA = {
    "type": "object",
    "required": ["n", "entries"],
    "properties": {"n": {"type": "integer", "minimum": 1},
                   "entries": {"type": "array",
                               "items": {"type": "array",
                                         "items": _MEASURE_SCHEMA}}},
}

PROBLEM_SCHEMA = {
    "type": "object",
    "required": ["n", "P", "Lambda", "Psi", "g", "p"],
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "P": {"type": "array", "minItems": 1,
              "items": {"type": "array", "items": {"type": "array",
                                                   "items": {"type": "number"}}}},
        "Lambda": _MATRIX_SCHEMA,
        "Psi": _MATRIX_SCHEMA,
        "g": {"type": "object", "required": ["kind"],
              "properties": {"kind": {"enum": ["componentwise", "radial",
                                               "sign_table"]}}},
        "h": {"type": ["object", "null"]},
        "p": {"type": "object", "required": ["n", "kmax", "coeffs"]},
        "solve": {"type": ["object", "null"]},
    },
}


_JSON_TYPES = {"object": dict, "array": list, "number": (int, float),
               "integer": int, "null": type(None)}


def _is_type(value, name: str) -> bool:
    # a bool is neither number nor integer; an integral float is an integer
    if isinstance(value, float) and name == "integer":
        return value.is_integer()
    return isinstance(value, _JSON_TYPES[name]) and not isinstance(value, bool)


def _schema_errors(doc, schema: dict, path: str = "$", depth: int = 0):
    """``(depth, message, json_path)`` of every violation of ``schema`` by
    ``doc``, in jsonschema's order and wording.  Each of the seven keywords
    the schema uses applies to its own instance type only."""
    for key, rule in schema.items():
        if key == "type":
            types = [rule] if isinstance(rule, str) else rule
            if not any(_is_type(doc, t) for t in types):
                names = ", ".join(map(repr, types))
                yield depth, f"{doc!r} is not of type {names}", path
        elif key == "enum" and doc not in rule:    # == is JSON equality on strings
            yield depth, f"{doc!r} is not one of {rule!r}", path
        elif key == "minimum" and _is_type(doc, "number") and doc < rule:
            yield depth, f"{doc!r} is less than the minimum of {rule!r}", path
        elif key == "minItems" and isinstance(doc, list) and len(doc) < rule:
            short = "should be non-empty" if rule == 1 else "is too short"
            yield depth, f"{doc!r} {short}", path
        elif key == "required" and isinstance(doc, dict):
            for name in rule:
                if name not in doc:
                    yield depth, f"{name!r} is a required property", path
        elif key == "properties" and isinstance(doc, dict):
            for name, sub in rule.items():
                if name in doc:
                    yield from _schema_errors(doc[name], sub, f"{path}.{name}",
                                              depth + 1)
        elif key == "items" and isinstance(doc, list):
            for i, item in enumerate(doc):
                yield from _schema_errors(item, rule, f"{path}[{i}]", depth + 1)


def _schema_error(doc) -> tuple[str, str] | None:
    """``(message, json_path)`` of the first of the shallowest violations
    of :data:`PROBLEM_SCHEMA` (jsonschema's ``best_match``), or ``None``."""
    error = min(_schema_errors(doc, PROBLEM_SCHEMA), key=lambda e: e[0], default=None)
    return error and error[1:]


def finite_float(token: str) -> float:
    """``float(token)``, refusing the ``NaN``, ``Infinity`` and ``1e999`` it would read."""
    if not np.isfinite(value := float(token)):
        raise ValueError(f"non-finite number {token}")
    return value


def parse_problem(text: str) -> ProblemSpec:
    """Validated problem from JSON text.

    Schema violations and semantic rejections (singular leading
    coefficient, missing asymptotic limits, dimension mismatches) raise
    :class:`ProblemFormatError` locating the offending entry.
    """
    try:
        doc = json.loads(text, parse_float=finite_float, parse_constant=finite_float)
    except ValueError as exc:
        raise ProblemFormatError(f"not valid JSON: {exc}", path="$") from None
    error = _schema_error(doc)
    if error is not None:
        raise ProblemFormatError(*error)

    try:
        g = doc["g"]
        if g.get("kind") == "componentwise":
            for i, comp in enumerate(g.get("components", [])):
                if "lo" not in comp or "hi" not in comp:
                    raise ProblemFormatError(
                        "saturating component must declare both asymptotic "
                        "limits lo and hi (condition R1); evaluation-only "
                        "nonlinearities are not accepted",
                        path=f"$.g.components[{i}]")
        return ProblemSpec.from_dict(doc)
    except ProblemFormatError:
        raise
    except FdeError as exc:
        raise ProblemFormatError(str(exc), path="$") from None
    except (AttributeError, KeyError, ValueError, TypeError) as exc:
        # members the schema leaves untyped (g.components, h.terms, ...)
        raise ProblemFormatError(f"malformed field: {exc}", path="$") from None


def load_problem(ref: str) -> ProblemSpec:
    """Problem from a file path or a built-in example name."""
    if os.path.exists(ref):
        with open(ref, "r", encoding="utf-8") as fh:
            return parse_problem(fh.read())
    if ref in EXAMPLE_IDS:
        return build_example(ref)
    raise ProblemFormatError(f"no such file or example: {ref}")
