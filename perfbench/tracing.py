"""Spans around the calls into each cqgraph module, for the traced run only.

A public function is wrapped at the name its caller imports it by: for
example ``cqgraph.containment.term_to_cospan``, not the definition in
``cqgraph.cospan``.  Recursion inside a module goes through the module's own
global and so stays inside one span.  Each span records name, start, end,
parent span and op id; spans stay in memory until the run ends.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

from workloads import node_count

# (module holding the caller's name, attribute, span name).  A span name is
# also the prefix of its layer's metrics; the table in README.md gives them.
SPANS = (
    ("cqgraph.cli", "main", "cli.self"),
    ("cqgraph.cli", "parse_ccq", "ccq.parse"),
    ("cqgraph.translate", "derive", "ccq.derive"),
    ("cqgraph.cli", "eval_ccq", "ccq.eval"),
    ("cqgraph.ccq", "eval_ccq", "ccq.eval"),  # imported at call time by translate --verify
    ("cqgraph.cli", "parse_gcq", "gcq.parse"),
    ("cqgraph.cli", "print_gcq", "gcq.print"),
    ("cqgraph.cli", "eval_gcq", "gcq.eval"),
    ("cqgraph.containment", "eval_gcq", "gcq.eval"),
    ("cqgraph.cli", "theta", "translate.theta"),
    ("cqgraph.cli", "lambda_term", "translate.lambda"),
    ("cqgraph.cli", "load_model", "sigmodel.load"),
    ("cqgraph.cli", "load_signature", "sigmodel.load"),
    ("cqgraph.cli", "random_model", "sigmodel.random"),
    ("cqgraph.containment", "term_to_cospan", "cospan.compile"),
    ("cqgraph.containment", "find_morphisms", "hypergraph.search"),
    ("cqgraph", "find_morphisms", "hypergraph.search"),
    ("cqgraph.cli", "decide_inclusion", "containment.decide_self"),
    ("cqgraph.cli", "decide_equivalence", "containment.decide_self"),
    ("cqgraph", "decide_inclusion", "containment.decide_self"),
    ("cqgraph", "natural_model_check", "containment.oracle_self"),
)
COUNTERMODEL = "containment.countermodel"  # hypergraph_as_model under a decide span
LAYERS = tuple(dict.fromkeys([name for _, _, name in SPANS] + [COUNTERMODEL]))


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit.

    Spans and counts accumulate over every ``with`` block of one tracer.
    """

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.open: list = []  # indices of spans not yet closed
        self.op_id = -1
        self.counts: dict = defaultdict(float)
        self.theta_outputs: list = []  # node counts are taken after the run
        self._saved: list = []

    def _span(self, name: str, fn, after=None):
        spans, open_ = self.spans, self.open

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, open_[-1] if open_ else -1, self.op_id])
            open_.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                spans[idx][1:3] = start, end
            if after is not None:
                after(out)
            return out

        return wrapper

    def _countermodel(self, fn):
        """``hypergraph_as_model`` is a countermodel only under a decide span."""
        spanned = self._span(COUNTERMODEL, fn)

        def wrapper(*args, **kwargs):
            if self.open and self.spans[self.open[-1]][0] == "containment.decide_self":
                return spanned(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _count_tuples(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts["sigmodel.relation_tuples"] += len(out.pairs)
            return out

        return wrapper

    def _after(self, name: str):
        counts = self.counts
        if name == "ccq.eval":
            def after(out):
                counts["ccq.eval_rows"] += len(out)
        elif name == "translate.theta":
            def after(out):
                self.theta_outputs.append(out)
        elif name == "cospan.compile":
            def after(out):
                counts["cospan.apex_vertices"] += out.apex.vcount
                counts["cospan.apex_edges"] += out.apex.edge_count()
        elif name == "hypergraph.search":
            def after(out):
                counts["hypergraph.found"] += bool(out)
        else:
            after = None
        return after

    def _patch(self, module_name: str, attr: str, wrapper):
        module = sys.modules[module_name]
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def __enter__(self):
        for module_name, attr, name in SPANS:
            fn = getattr(sys.modules[module_name], attr)
            self._patch(module_name, attr, self._span(name, fn, self._after(name)))
        containment = sys.modules["cqgraph.containment"]
        self._patch("cqgraph.containment", "hypergraph_as_model",
                    self._countermodel(containment.hypergraph_as_model))
        gcq = sys.modules["cqgraph.gcq"]
        for attr in ("relation_compose", "relation_tensor"):
            self._patch("cqgraph.gcq", attr, self._count_tuples(getattr(gcq, attr)))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def layer_metrics(self, ops: int, speed: float) -> dict:
        """Per-layer figures, normalised per op of the traced passes; times
        are scaled to reference speed by ``speed`` (see ``run.Timed``)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_ms: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self_ms[name] += (end - start - child_time[idx]) * 1000 * speed
            calls[name] += 1
        out = {}
        for layer in LAYERS:
            out[f"{layer}_ms"] = (self_ms[layer] / ops, "ms/op")
            out[f"{layer}_calls"] = (calls[layer] / ops, "calls/op")

        def per(key: str, n: int) -> float:
            return self.counts[key] / n if n else 0.0

        out["ccq.eval_rows"] = (per("ccq.eval_rows", calls["ccq.eval"]), "rows/call")
        nodes = sum(node_count(t) for t in self.theta_outputs)
        out["translate.theta_nodes"] = (nodes / len(self.theta_outputs) if self.theta_outputs else 0.0,
                                        "nodes/call")
        out["sigmodel.relation_tuples"] = (self.counts["sigmodel.relation_tuples"] / ops, "tuples/op")
        out["cospan.apex_vertices"] = (per("cospan.apex_vertices", calls["cospan.compile"]),
                                       "vertices/call")
        out["cospan.apex_edges"] = (per("cospan.apex_edges", calls["cospan.compile"]), "edges/call")
        out["hypergraph.found_frac"] = (per("hypergraph.found", calls["hypergraph.search"]), "ratio")
        return out
