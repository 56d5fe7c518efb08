"""Per-layer tracing of the program, installed from the benchmark's own files.

:meth:`Tracer.install` replaces the public functions and methods of each
module of ``kmcrystals`` that a per-layer metric needs with timing
wrappers, in the defining module and in every module that imported them by
name.  Each wrapper belongs to one layer (a category such as
``quiver_model.ops``):

* hot per-element boundaries (element operators, ``key``, ``rank_complex``,
  ``pairing``, the embedding check) only aggregate calls and self time;
* coarse calls (each CLI call or closed-family call, generation, checkers,
  oracles, export, decomposition) also record a span with an id, its
  parent span and the id of the top-level call it belongs to.

Self time is a call's duration minus the time of the wrapped calls made
inside it, so the self times of all layers add up to the traced wall time
less the wrappers' own cost.  Functions left unwrapped count towards the
nearest wrapped caller.  ``<layer>.s`` is inclusive time, counted once for
nested calls of the same layer.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

OPS = ("weight", "eps", "phi", "e", "f")
MODULES = ("cli", "crystal_core", "elementary", "explorer", "quiver_model", "root_datum",
           "tensor")


def _modules():
    # import_module, because the package re-exports a function named "tensor"
    return [importlib.import_module("kmcrystals")] + [
        importlib.import_module(f"kmcrystals.{name}") for name in MODULES
    ]


def _targets():
    """(layer, owner, attribute name, is_span) for everything to wrap."""
    _, cli, crystal_core, elementary, explorer, quiver_model, root_datum, tensor = _modules()
    hot = [
        ("quiver_model.rank_complex", quiver_model, "rank_complex"),
        ("quiver_model.embedding", quiver_model, "embedding_mismatches"),
        ("quiver_model.embedding", quiver_model, "embed_psi"),
        ("crystal_core.key", crystal_core.CrystalElement, "key"),
        ("root_datum.pairing", root_datum.RootDatum, "pairing"),
    ]
    hot += [("quiver_model.ops", quiver_model.ModelElement, op) for op in OPS]
    hot += [("tensor.ops", tensor.TensorElement, op)
            for op in OPS + ("eps_profile", "phi_profile")]
    hot += [("elementary.ops", cls, op)
            for cls in (elementary.BkElement, elementary.TElement, elementary.S0Element)
            for op in OPS]
    spans = [
        ("cli", cli, "main"),
        ("explorer.closed_family", explorer, "closed_family_instance"),
        ("explorer.generate", explorer, "generate"),
        ("explorer.tensor_product_graph", explorer, "tensor_product_graph"),
        ("explorer.decompose", explorer, "decompose"),
        ("explorer.is_isomorphic", explorer, "is_isomorphic"),
        ("explorer.oracles", explorer, "weyl_dim"),
        ("explorer.oracles", explorer, "freudenthal_multiplicities"),
        ("explorer.oracles", explorer, "positive_roots"),
        ("crystal_core.check_axioms", crystal_core, "check_axioms"),
        ("crystal_core.check_normal", crystal_core, "check_normal"),
        ("crystal_core.check_strict_morphism", crystal_core, "check_strict_morphism"),
        ("crystal_core.export", crystal_core, "graph_to_json"),
        ("crystal_core.export", crystal_core, "graph_to_dot"),
    ]
    return [(*t, False) for t in hot] + [(*t, True) for t in spans]


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.counts = defaultdict(int)  # layer-specific work counts
        self.spans = []
        self._active = defaultdict(int)  # open calls per layer
        self._frames = []  # child time of each open wrapped call
        self._span_stack = []
        self._hooks = {
            "explorer.generate": self._on_generate,
            "explorer.tensor_product_graph": self._on_tensor_product_graph,
            "explorer.decompose": self._on_decompose,
            "crystal_core.check_normal": self._on_check_normal,
            "tensor.ops": self._on_tensor_op,
        }

    def install(self):
        modules = _modules()
        for layer, owner, name, is_span in _targets():
            original = owner.__dict__[name]
            wrapped = self._wrap(layer, name, original, is_span)
            setattr(owner, name, wrapped)
            for module in modules:  # names imported with "from ... import"
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def _wrap(self, layer, name, fn, is_span):
        hook = self._hooks.get(layer)
        frames = self._frames
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            outer = self._active[layer] == 0
            self._active[layer] += 1
            span = None
            if is_span:
                parent = self._span_stack[-1] if self._span_stack else None
                span = {
                    "id": len(self.spans),
                    "parent": parent["id"] if parent else None,
                    "call": parent["call"] if parent else len(self.spans),
                    "layer": layer,
                    "name": name,
                }
                self.spans.append(span)
                self._span_stack.append(span)
            frame = [0.0]
            frames.append(frame)
            raised = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                raised = exc
                raise
            finally:
                t1 = clock()
                elapsed = t1 - t0
                frames.pop()
                self._active[layer] -= 1
                self.calls[layer] += 1
                self.self_s[layer] += elapsed - frame[0]
                if outer:
                    self.inclusive_s[layer] += elapsed
                if span is not None:
                    self._span_stack.pop()
                    span["start"], span["end"] = t0, t1
                if hook is not None:
                    hook(args, None if raised else result, raised)
                # the hook's own cost is tracing overhead, not the caller's work
                if frames:
                    frames[-1][0] += clock() - t0
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _on_generate(self, args, graph, raised):
        if raised is not None:
            if type(raised).__name__ == "BudgetExceeded":
                self.counts["explorer.generate.budget_exceeded"] += 1
            return
        self.counts["explorer.generate.nodes"] += graph.node_count()
        self.counts["explorer.generate.edges"] += len(graph.edges)
        self.counts["explorer.generate.frontier"] += graph.frontier_count()

    def _on_tensor_product_graph(self, args, graph, raised):
        if graph is not None:
            self.counts["explorer.tensor_product_graph.seeds"] += len(graph.generators)

    def _on_decompose(self, args, table, raised):
        if table is not None:
            found = sum(table.entries.values()) + len(table.flagged)
            self.counts["explorer.decompose.hw"] += found
            self.counts["explorer.decompose.nodes"] += args[0].node_count()

    def _on_check_normal(self, args, report, raised):
        if report is not None:
            self.counts["crystal_core.check_normal.checked"] += report.checked
            self.counts["crystal_core.check_normal.skipped"] += report.skipped

    def _on_tensor_op(self, args, result, raised):
        self.counts["tensor.ops.factors"] += len(args[0].factors)

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "inclusive_s": dict(self.inclusive_s),
            "counts": dict(self.counts),
            "spans": self.spans,
        }


# (metric, unit) in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    "quiver_model.rank_complex.calls": "count",
    "quiver_model.rank_complex.self_s": "s",
    "quiver_model.rank_complex.calls_per_node": "calls/node",
    "quiver_model.ops.calls": "count",
    "quiver_model.ops.self_s": "s",
    "quiver_model.embedding.calls": "count",
    "quiver_model.embedding.self_s": "s",
    "quiver_model.embedding.s": "s",
    "tensor.ops.calls": "count",
    "tensor.ops.self_s": "s",
    "tensor.ops.mean_factors": "factors",
    "elementary.ops.calls": "count",
    "elementary.ops.self_s": "s",
    "crystal_core.key.calls": "count",
    "crystal_core.key.self_s": "s",
    "crystal_core.key.calls_per_node": "calls/node",
    "crystal_core.check_axioms.s": "s",
    "crystal_core.check_normal.s": "s",
    "crystal_core.check_normal.checked": "count",
    "crystal_core.check_normal.skipped": "count",
    "crystal_core.check_strict_morphism.s": "s",
    "crystal_core.export.s": "s",
    "cli.self_s": "s",
    "explorer.generate.calls": "count",
    "explorer.generate.self_s": "s",
    "explorer.generate.nodes": "count",
    "explorer.generate.edges": "count",
    "explorer.generate.frontier": "count",
    "explorer.generate.budget_exceeded": "count",
    "explorer.tensor_product_graph.seeds": "count",
    "explorer.decompose.hw_per_node": "hw/node",
    "explorer.decompose.s": "s",
    "explorer.is_isomorphic.s": "s",
    "explorer.oracles.s": "s",
    "root_datum.pairing.calls": "count",
    "root_datum.pairing.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_metrics(trace: dict, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Every metric of PER_LAYER_UNITS from one traced repetition.

    ``untraced_wall_s`` is the wall time of the same instances without
    tracing; the difference is the tracing overhead.
    """
    calls = defaultdict(int, trace["calls"])
    self_s = defaultdict(float, trace["self_s"])
    incl = defaultdict(float, trace["inclusive_s"])
    counts = defaultdict(int, trace["counts"])
    nodes = counts["explorer.generate.nodes"]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for layer in ("quiver_model.rank_complex", "quiver_model.ops", "quiver_model.embedding",
                  "tensor.ops", "elementary.ops", "crystal_core.key", "explorer.generate",
                  "root_datum.pairing"):
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    out["quiver_model.rank_complex.calls_per_node"] = ratio(
        calls["quiver_model.rank_complex"], nodes)
    out["crystal_core.key.calls_per_node"] = ratio(calls["crystal_core.key"], nodes)
    out["tensor.ops.mean_factors"] = ratio(counts["tensor.ops.factors"], calls["tensor.ops"])
    for layer in ("quiver_model.embedding", "crystal_core.check_axioms",
                  "crystal_core.check_normal", "crystal_core.check_strict_morphism",
                  "crystal_core.export",
                  "explorer.decompose", "explorer.is_isomorphic", "explorer.oracles"):
        out[f"{layer}.s"] = incl[layer]
    out["crystal_core.check_normal.checked"] = counts["crystal_core.check_normal.checked"]
    out["crystal_core.check_normal.skipped"] = counts["crystal_core.check_normal.skipped"]
    out["cli.self_s"] = self_s["cli"]
    for what in ("nodes", "edges", "frontier", "budget_exceeded"):
        out[f"explorer.generate.{what}"] = counts[f"explorer.generate.{what}"]
    out["explorer.tensor_product_graph.seeds"] = counts["explorer.tensor_product_graph.seeds"]
    out["explorer.decompose.hw_per_node"] = ratio(
        counts["explorer.decompose.hw"], counts["explorer.decompose.nodes"])
    out["trace.wall_s"] = traced_wall_s
    out["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    return {name: out[name] for name in PER_LAYER_UNITS}


def layer_shares(trace: dict) -> dict[str, float]:
    """Self time per module (the part of a layer name before the first dot)."""
    shares = defaultdict(float)
    for layer, s in trace["self_s"].items():
        shares[layer.split(".")[0]] += s
    return dict(shares)
