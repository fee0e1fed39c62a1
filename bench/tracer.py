"""Spans around the calls into each abdsde module, installed from outside.

`Tracer.install` replaces public functions where their callers look them up
(module globals such as `abdsde.solver.condexp`, and class attributes such
as `RegressionBackend.features`) with timing wrappers; `Tracer.uninstall`
puts the originals back.  The package attribute `abdsde.condexp` is the
function and shadows the module, so modules are reached through
`sys.modules`.

Each call records a span: layer, name, parent, start and end, plus counts
computed from argument and result shapes.  Spans stay in memory until the
run ends.  A span's self time is its duration minus that of its direct
children, so the self times of all spans sum to the duration of the root
`cli.run` spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace

LAYERS = ("cli", "paths", "condexp", "generators", "solver", "comparison",
          "duality", "tree")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str  # "<layer>.<function>"
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


# Span attributes: each takes the tracer, the call's arguments by parameter
# name, and the result.

def _draw_attrs(tracer, arguments, paths) -> dict:
    # Normal variates drawn, computed from the returned increment shapes.
    return {"bytes": paths.dW.nbytes + paths.dB.nbytes}


def _design_attrs(tracer, arguments, X) -> dict:
    # A design is the feature matrix of one path ensemble at one node;
    # the ensemble is held until the root span ends so its id stays unique.
    paths = arguments["paths"]
    key = (id(paths), arguments["k"], arguments["self"].basis.degree)
    new = key not in tracer.designs
    tracer.designs[key] = paths
    return {"new_design": new}


def _fit_attrs(tracer, arguments, result) -> dict:
    P, F = arguments["X"].shape
    c = arguments["Y"].shape[1]
    # X^T X and X^T Y products of the normal equations, computed from shapes.
    return {"columns": c, "gram_flops": 2 * P * F * (F + c)}


def _solve_attrs(tracer, arguments, result) -> dict:
    return {"nodes": arguments["scenario"].grid.n_T}


class Tracer:
    """Installs timing wrappers into a loaded abdsde package."""

    def __init__(self):
        self.spans: list[Span] = []
        self.designs: dict = {}
        self._stack: list[Span] = []
        self._patches: list = []

    def wrap(self, name: str, fn, attrs=None):
        tracer = self
        signature = inspect.signature(fn) if attrs is not None else None

        def traced(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                tracer.designs.clear()
            span = Span(id=len(tracer.spans),
                        parent=stack[-1].id if stack else None, name=name)
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child_s += span.duration
            if attrs is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                span.attrs = attrs(tracer, arguments, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, attrs=None) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, attrs))

    def _patch_generator_catalog(self, module) -> None:
        # f and g are fields of each GeneratorSpec, bound where the catalog
        # builds it, so builtin_generator's result gets wrapped copies.
        original = module.builtin_generator
        tracer = self

        def builtin_generator(*args, **kwargs):
            spec = original(*args, **kwargs)
            return replace(spec, f=tracer.wrap("generators.f", spec.f),
                           g=tracer.wrap("generators.g", spec.g))

        self._patches.append((module, "builtin_generator", original))
        module.builtin_generator = builtin_generator

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        mod = {name: sys.modules[f"abdsde.{name}"]
               for name in ("cli", "comparison", "condexp", "duality",
                            "generators", "solver", "tree")}
        cli, condexp, duality = mod["cli"], mod["condexp"], mod["duality"]
        self._patch(cli, "run", "cli.run")
        self._patch(cli, "load_scenario", "cli.load_scenario")
        for owner in (cli, duality):
            self._patch(owner, "sample_paths", "paths.sample_paths", _draw_attrs)
        self._patch(mod["solver"], "condexp", "condexp.condexp")
        self._patch(condexp.RegressionBackend, "condexp", "condexp.regression")
        self._patch(condexp.RegressionBackend, "features", "condexp.features",
                    _design_attrs)
        for owner in (condexp, duality):
            self._patch(owner, "_ridge_fit", "condexp.ridge_fit", _fit_attrs)
        self._patch(condexp.ExactTreeBackend, "condexp", "condexp.exact")
        self._patch(mod["generators"].GeneratorSpec, "eval_functionals",
                    "generators.eval_functionals")
        for owner in (cli, duality):
            self._patch_generator_catalog(owner)
        for owner in (cli, mod["comparison"], duality):
            self._patch(owner, "solve_backward_sweep", "solver.solve_backward_sweep",
                        _solve_attrs)
        self._patch(cli, "run_comparison", "comparison.run_comparison")
        self._patch(cli, "duality_check", "duality.duality_check")
        self._patch(duality, "duality_rhs", "duality.duality_rhs")
        self._patch(duality, "solve_delayed_dsde", "duality.solve_delayed_dsde")
        self._patch(mod["tree"], "build_tree", "tree.build_tree")
        self._patch(cli, "oracle_solve", "tree.oracle_solve")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.designs.clear()


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one batch of spans (whole root spans only)."""
    by_id = {span.id: span for span in spans}
    total = defaultdict(float)   # summed duration per span name
    calls = defaultdict(int)     # span count per span name
    self_s = dict.fromkeys(LAYERS, 0.0)
    attr = defaultdict(int)
    shortcuts = inner_draws = comparison_solves = 0
    for span in spans:
        total[span.name] += span.duration
        calls[span.name] += 1
        self_s[span.layer] += span.self_s
        for key, value in span.attrs.items():
            attr[key] += value
        parent = by_id.get(span.parent)
        parent_name = parent.name if parent is not None else None
        if span.name == "condexp.condexp" and span.child_s == 0.0:
            shortcuts += 1  # constant target: returned without a backend call
        if span.name == "paths.sample_paths" and parent_name == "duality.duality_rhs":
            inner_draws += 1
        if span.name == "solver.solve_backward_sweep" \
                and parent_name == "comparison.run_comparison":
            comparison_solves += 1
    designs = calls["condexp.features"]
    out = {
        "cli.load_s": total["cli.load_scenario"],
        "paths.sample_s": total["paths.sample_paths"],
        "paths.sample_calls": calls["paths.sample_paths"],
        "paths.bytes_drawn": attr["bytes"],
        "condexp.calls": calls["condexp.condexp"],
        "condexp.shortcut_share": (shortcuts / calls["condexp.condexp"]
                                   if calls["condexp.condexp"] else 0.0),
        "condexp.regression_s": total["condexp.regression"],
        "condexp.features_s": total["condexp.features"],
        "condexp.fit_s": total["condexp.ridge_fit"],
        "condexp.exact_s": total["condexp.exact"],
        "condexp.designs_built": designs,
        "condexp.design_reuse": attr["new_design"] / designs if designs else 0.0,
        "condexp.columns_fitted": attr["columns"],
        "condexp.gram_flops": attr["gram_flops"],
        "generators.eval_s": (total["generators.f"] + total["generators.g"]
                              + total["generators.eval_functionals"]),
        "generators.calls": (calls["generators.f"] + calls["generators.g"]
                             + calls["generators.eval_functionals"]),
        "solver.solve_s": total["solver.solve_backward_sweep"],
        "solver.solves": calls["solver.solve_backward_sweep"],
        "solver.nodes_swept": attr["nodes"],
        "comparison.solves": comparison_solves,
        "duality.rhs_s": total["duality.duality_rhs"],
        "duality.forward_s": total["duality.solve_delayed_dsde"],
        "duality.forward_solves": calls["duality.solve_delayed_dsde"],
        "duality.inner_draws": inner_draws,
        "tree.build_s": total["tree.build_tree"],
        "tree.build_calls": calls["tree.build_tree"],
        "tree.oracle_s": total["tree.oracle_solve"],
        "trace.wall_s": sum(s.duration for s in spans if s.parent is None),
    }
    out.update({f"{layer}.self_s": value for layer, value in self_s.items()})
    return out


def span_records(spans: list):
    """Spans as plain dicts, ready to be written out as JSON lines."""
    for span in spans:
        yield {"id": span.id, "parent": span.parent, "name": span.name,
               "start": span.start, "end": span.end, "self_s": span.self_s,
               **span.attrs}
