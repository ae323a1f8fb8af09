"""In-memory span tracer that wraps ``fde``'s public layer functions.

A span is ``[name, start, end, parent, task, info]``: ``parent`` is the
index of the enclosing span (or -1), ``task`` labels the benchmark task
the span belongs to and ``info`` holds counts read off the call's
arguments or result.  Spans stay in memory until the run writes them out.

``Tracer.install`` replaces every binding of a traced function -- in the
package namespace and in each ``fde.*`` module that imported it -- with a
wrapper, so calls made inside the package through a module's own imported
name are traced as well.  ``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) pairs; the metric prefix is "<module>.<function>"
TRACED = (
    ("cli", "load_problem"),
    ("cli", "main"),
    ("resonance", "resonant_set"),
    ("resonance", "check_linear_conditions"),
    ("lazer_leach", "sphere_scan"),
    ("lazer_leach", "gamma_tilde"),
    ("lazer_leach", "degree_winding"),
    ("lazer_leach", "degree_product"),
    ("lazer_leach", "ll_margin"),
    ("lazer_leach", "small_set_measure"),
    ("lazer_leach", "gamma_convergence"),
    ("solver", "solve_best"),
    ("solver", "solve_periodic"),
    ("solver", "seed_kernel"),
    ("solver", "coefficient_jacobian"),
    ("solver", "assemble_residual"),
    ("solver", "verify_pointwise"),
    ("nonlinearity", "nemytskii_eval"),
    ("measures", "apply_deviation"),
    ("trigpoly", "eval_grid"),
    ("trigpoly", "analyze_grid"),
)

# layers whose self time is summed into ``layer.<name>.self_s``
LAYERS = ("import", "cli", "resonance", "lazer_leach", "solver",
          "nonlinearity", "measures", "trigpoly")


# -- counts read off calls ----------------------------------------------


def _seed_candidates(args, kwargs, result):
    return {"candidates": len(result)}


def _jacobian_bytes(args, kwargs, result):
    # size of the (ncol, M, n) float64 deviation array the analytic
    # Jacobian builds, on the grid the solver itself chooses
    from fde.solver import _grid_size
    prob, u = args[0], args[1]
    config = args[2] if len(args) > 2 else kwargs.get("config")
    ncol = u.n * (2 * u.kmax + 1)
    return {"bytes_computed": 8 * ncol * _grid_size(u, config, prob) * u.n}


def _newton(args, kwargs, result):
    return {"iters": result.iterations, "converged": int(result.converged)}


def _grid(args, kwargs, result):
    return {"points": args[1] if len(args) > 1 else kwargs["M"]}


HOOKS = {
    "solver.seed_kernel": _seed_candidates,
    "solver.coefficient_jacobian": _jacobian_bytes,
    "solver.solve_periodic": _newton,
    "trigpoly.eval_grid": _grid,
}

# count metric -> (span name, key the hook records)
COUNTS = {
    "solver.seed_kernel.candidates": ("solver.seed_kernel", "candidates"),
    "solver.coefficient_jacobian.bytes_computed":
        ("solver.coefficient_jacobian", "bytes_computed"),
    "solver.newton_iters": ("solver.solve_periodic", "iters"),
}


# -- tracer -------------------------------------------------------------


class Tracer:
    """Collects spans; ``task`` labels the spans opened while it is set."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.stack: list = []
        self.task = None
        self._saved: list = []

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name) as sp:
                result = fn(*args, **kwargs)
                if hook is not None:
                    sp.info = hook(args, kwargs, result)
                return result

        return traced

    def install(self, package) -> None:
        """Wrap every binding of the traced functions under ``package``."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        prefix = package.__name__
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == prefix or key.startswith(prefix + "."))]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"{prefix}.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved = []


class _Span:
    __slots__ = ("tracer", "name", "index", "info")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.info = None

    def __enter__(self):
        tr = self.tracer
        parent = tr.stack[-1] if tr.stack else -1
        self.index = len(tr.spans)
        tr.spans.append([self.name, tr.clock(), None, parent, tr.task, None])
        tr.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        rec = tr.spans[self.index]
        rec[2] = tr.clock()
        rec[5] = self.info
        tr.stack.pop()
        return False


# -- aggregation --------------------------------------------------------


def self_times(spans: list) -> list:
    """Duration of each span minus the time its direct children cover.

    Spans on one thread nest properly, so the children of a span are
    disjoint intervals inside it and their durations simply add up.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, task, info in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def summarize(spans: list, scale: float = 1.0) -> dict:
    """Per-function and per-layer metrics, each multiplied by ``scale``.

    ``s`` is inclusive time counted once per outermost call of a name
    (a call nested inside another call of the same name adds nothing);
    ``self_s`` is time not covered by traced children.
    """
    own = self_times(spans)
    names = [f"{m}.{f}" for m, f in TRACED]
    stats = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in names}
    info: dict = {}
    layers = {layer: 0.0 for layer in LAYERS}
    for i, (name, start, end, parent, task, extra) in enumerate(spans):
        layer = name.split(".", 1)[0]
        if layer in layers:
            layers[layer] += own[i]
        st = stats.get(name)
        if st is None:
            continue
        st["calls"] += 1
        st["self_s"] += own[i]
        if not _has_ancestor(spans, parent, name):
            st["s"] += end - start
        if extra:
            acc = info.setdefault(name, {})
            for key, val in extra.items():
                acc[key] = acc.get(key, 0) + val

    out = {}
    for name in names:
        for stat, val in stats[name].items():
            out[f"{name}.{stat}"] = val * scale
    for metric, (name, key) in COUNTS.items():
        out[metric] = info.get(name, {}).get(key, 0) * scale
    out["lazer_leach.gamma_convergence.grid_points"] = \
        grid_points(spans) * scale
    out["solver.solve_best.useful_ratio"] = useful_ratio(spans)
    for layer, val in layers.items():
        out[f"layer.{layer}.self_s"] = val * scale
    return out


def _has_ancestor(spans: list, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def grid_points(spans: list) -> int:
    """Grid points of the ``eval_grid`` calls ``gamma_convergence`` makes
    itself (its direct children), as the calls' ``M`` argument."""
    return sum(extra["points"] for name, start, end, parent, task, extra in spans
               if name == "trigpoly.eval_grid" and parent >= 0
               and spans[parent][0] == "lazer_leach.gamma_convergence")


def useful_ratio(spans: list) -> float:
    """Converged ``solve_periodic`` calls per call made inside
    ``solve_best``; 0 when ``solve_best`` made none."""
    made = useful = 0
    for name, start, end, parent, task, extra in spans:
        if name == "solver.solve_periodic" and _has_ancestor(
                spans, parent, "solver.solve_best"):
            made += 1
            useful += extra["converged"]
    return useful / made if made else 0.0


# -- import breakdown ---------------------------------------------------

IMPORTS = {"fde": "import.fde.s", "scipy.stats": "import.scipy_stats.s",
           "jsonschema": "import.jsonschema.s", "numpy": "import.numpy.s"}


def parse_importtime(text: str) -> dict:
    """Cumulative import seconds of the modules in ``IMPORTS`` from the
    stderr of ``python -X importtime``; a module never imported is 0."""
    out = {metric: 0.0 for metric in IMPORTS.values()}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        name = parts[2].strip()
        if name in IMPORTS:
            try:
                out[IMPORTS[name]] = int(parts[1]) * 1e-6
            except ValueError:
                continue
    return out
