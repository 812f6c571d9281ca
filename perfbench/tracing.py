"""Span recording around the public callables of `tss`, for the traced run.

`Tracer.install()` replaces each listed callable by a wrapper in every `tss`
module namespace that binds it (so `tss.constructions.torus_cordalis` and
`tss.families.build_graph` are both caught), and wraps the cached properties
`Graph.adjacency` and `Graph.neighbor_masks`.  `uninstall()` puts the
originals back.  Nothing inside `src/` is changed.

Each span records its name, start, end and parent; the spans of one benchmark
operation hang under that operation's root span.  Self time is a span's time
minus the time its children cover.  Spans are folded into per-layer totals
when their operation ends, so memory stays flat however long the run is.
Folding also checks each span: it must lie inside its parent's interval and
have a non-negative self time; `bad_spans` counts those that do not.
"""

from __future__ import annotations

import functools
import importlib
import time

from tss.errors import ConstructionFailedVerification

# Layer -> public callables traced in it.  `_search_size` is the solver's one
# per-size boundary; it is the only private name and is only used to count
# the sizes tried.
TRACED = {
    "families": ("path", "cycle", "cycle_permutation", "generalized_petersen",
                 "toroidal_mesh", "torus_cordalis", "torus_serpentinus"),
    "graph": ("build_graph", "graph_from_json", "graph_to_json"),
    "thresholds": ("constant_threshold", "majority_threshold",
                   "strict_majority_threshold", "check_thresholds"),
    "activation": ("closure", "is_influencing", "parallel_trace", "sequential_closure",
                   "validate_convinced_sequence", "extract_convinced_sequence"),
    "bounds": ("lower_bound_lemma", "tss_lower_bound_torus", "flocchini_upper", "torus_bounds"),
    "constructions": ("seed_torus_cordalis", "seed_cordalis_n3", "seed_cordalis_n3s",
                      "seed_cordalis_n1mod3", "seed_cordalis_n2mod3", "seed_cordalis_m0mod3",
                      "seed_cycle_permutation", "seed_generalized_petersen", "path_seed_k2"),
    "solver": ("exact_min_seed", "verify_optimality", "_search_size"),
    "cli": ("main",),
}
CACHED_PROPERTIES = ("adjacency", "neighbor_masks")
NAMESPACES = ("tss", "tss.families", "tss.graph", "tss.thresholds", "tss.activation",
              "tss.bounds", "tss.constructions", "tss.solver", "tss.cli")

# Per-layer metric -> span names whose self time it sums.
SELF_TIME_METRICS = {
    "families.build_s": tuple(f"families.{f}" for f in TRACED["families"]),
    "graph.build_graph_s": ("graph.build_graph",),
    "graph.adjacency_s": ("graph.adjacency",),
    "graph.neighbor_masks_s": ("graph.neighbor_masks",),
    "graph.from_json_s": ("graph.graph_from_json",),
    "graph.to_json_s": ("graph.graph_to_json",),
    "thresholds.assign_s": tuple(f"thresholds.{f}" for f in TRACED["thresholds"]),
    "activation.closure_s": ("activation.closure", "activation.is_influencing"),
    "activation.trace_s": ("activation.parallel_trace", "activation.extract_convinced_sequence"),
    "activation.validate_s": ("activation.validate_convinced_sequence",),
    "activation.sequential_s": ("activation.sequential_closure",),
    "constructions.self_s": tuple(f"constructions.{f}" for f in TRACED["constructions"]),
    "bounds.s": tuple(f"bounds.{f}" for f in TRACED["bounds"]),
    "solver.search_s": tuple(f"solver.{f}" for f in TRACED["solver"]),
    "cli.self_s": ("cli.main",),
}
# Counts taken per operation (reported as means per operation).
WORK_COUNTS = ("graph.edges", "graph.json_bytes", "activation.activated",
               "activation.validated", "constructions.seed_vertices",
               "solver.nodes", "solver.sizes_tried")
# Events (reported as totals over the traced operations).
EVENT_COUNTS = ("constructions.failed_verifications", "solver.budget_exceeded", "cli.exit_2")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _counts(name, args, kwargs, ret, parent_layer):
    """(counter, amount) pairs read from a traced call's arguments and result."""
    if name == "graph.build_graph":
        return (("graph.edges", len(ret.edges)),)
    if name == "graph.graph_from_json":
        return (("graph.json_bytes", len(_arg(args, kwargs, 0, "text"))),)
    if name == "graph.graph_to_json":
        return (("graph.json_bytes", len(ret)),)
    if name == "activation.closure":
        return (("activation.activated", len(ret)),)
    if name == "activation.parallel_trace":
        return (("activation.activated", len(ret.final)),)
    if name == "activation.validate_convinced_sequence":
        return (("activation.validated", len(_arg(args, kwargs, 3, "order"))),)
    if name.startswith("constructions.seed_") and parent_layer != "constructions":
        return (("constructions.seed_vertices", ret.size),)
    if name == "solver._search_size":
        return (("solver.sizes_tried", 1),)
    if name in ("solver.exact_min_seed", "solver.verify_optimality"):
        timed_out = ret.status == "budget_exceeded" or (
            ret.status == "inconclusive" and "budget" in (ret.reason or ""))
        return (("solver.nodes", ret.nodes_explored), ("solver.budget_exceeded", int(timed_out)))
    if name == "cli.main":
        return (("cli.exit_2", int(ret == 2)),)
    return ()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.stack: list[int] = []
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.ops = 0
        self.root_self_s = 0.0  # the root spans' own time: benchmark glue
        self.bad_spans = 0
        self.node_log: list[tuple[str, int]] = []  # (operation key, nodes) per solver op
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_layer = spans[parent][0].split(".", 1)[0] if parent is not None else None
            rec = [name, parent, time.perf_counter(), 0.0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                ret = fn(*args, **kwargs)
            except ConstructionFailedVerification:
                if layer == "constructions" and parent_layer != "constructions":
                    counts["constructions.failed_verifications"] = (
                        counts.get("constructions.failed_verifications", 0) + 1)
                raise
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            for key, amount in _counts(name, args, kwargs, ret, parent_layer):
                counts[key] = counts.get(key, 0) + amount
            return ret

        return traced

    def run_op(self, key: str, fn):
        """Run one benchmark operation under a root span; returns its result."""
        self.spans.clear()
        nodes_before = self.counts.get("solver.nodes", 0)
        root = [f"op.{key}", None, 0.0, 0.0]
        self.spans.append(root)
        self.stack.append(0)
        root[2] = time.perf_counter()
        try:
            return fn()
        finally:
            root[3] = time.perf_counter()
            self.stack.pop()
            self._fold()
            nodes = self.counts.get("solver.nodes", 0) - nodes_before
            if nodes:
                self.node_log.append((key, nodes))

    def _fold(self) -> None:
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, parent, start, end in spans[1:]:
            child_time[parent] += end - start
            if start < spans[parent][2] or end > spans[parent][3]:
                self.bad_spans += 1
        for i, (name, _, start, end) in enumerate(spans):
            own = (end - start) - child_time[i]
            if own < -1e-9:  # beyond rounding
                self.bad_spans += 1
            if i:
                self.self_time[name] = self.self_time.get(name, 0.0) + own
            else:
                self.root_self_s += own
        self.ops += 1
        spans.clear()

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        modules = [importlib.import_module(m) for m in NAMESPACES]
        originals = {}
        for layer, names in TRACED.items():
            home = importlib.import_module(f"tss.{layer}")
            for fname in names:
                fn = getattr(home, fname, None)
                if callable(fn):
                    originals[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        graph_cls = importlib.import_module("tss.graph").Graph
        for prop in CACHED_PROPERTIES:
            original = graph_cls.__dict__[prop]
            replacement = functools.cached_property(self._wrap(f"graph.{prop}", original.func))
            replacement.__set_name__(graph_cls, prop)
            self._undo.append((graph_cls, prop, original))
            setattr(graph_cls, prop, replacement)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- reporting ---------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        ops = max(self.ops, 1)
        out = {}
        for metric, names in SELF_TIME_METRICS.items():
            out[metric] = sum(self.self_time.get(n, 0.0) for n in names) / ops
        for metric in WORK_COUNTS:
            out[metric] = self.counts.get(metric, 0) / ops
        for metric in EVENT_COUNTS:
            out[metric] = self.counts.get(metric, 0)
        search_total = out["solver.search_s"] * ops
        nodes_total = self.counts.get("solver.nodes", 0)
        out["solver.nodes_per_s"] = nodes_total / search_total if search_total > 0 else 0.0
        return out
