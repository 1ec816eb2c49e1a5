"""Spans and counters around citegrow's modules, installed only in traced rounds.

The benchmark calls citegrow through an ``api`` namespace. Untraced, it
holds the public functions themselves. Traced, it holds wrappers that
record one span per call, and the calls citegrow makes inside its own
modules are wrapped by replacing the name in the calling module's
namespace (``citegrow.simulate.sample_without_replacement`` and so on)
for the duration of the round, then restored.

A span is (name, parent span, start, end), kept in flat arrays in memory
and written out as ``.npz`` when the run ends. A span's self time is its
duration minus the durations of its direct children, so the self times of
all spans under one root add up to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import citegrow

# public functions the workloads call, by the module (layer) that owns them
PUBLIC = {
    "init_from_seed": "simulate",
    "run_simulation": "simulate",
    "classify_graph": "trajectory",
    "category_distribution": "trajectory",
    "sensitivity": "evaluation",
    "jsd2": "evaluation",
    "loads_graph": "graph",
    "parse_papers": "ingest",
    "parse_citations": "ingest",
    "build_seed_and_schedule": "ingest",
}

# calls made inside citegrow: (span name, calling module, name in its namespace).
# A name a later version no longer has is skipped, and its counts read 0.
INNER = (
    ("sampling.sample_without_replacement", "citegrow.simulate", "sample_without_replacement"),
    ("models.attachment_weights", "citegrow.simulate", "attachment_weights"),
    ("trajectory.classify", "citegrow.trajectory", "classify"),
    ("trajectory._history_matrix", "citegrow.trajectory", "_history_matrix"),
    ("trajectory._history_matrix", "citegrow.evaluation", "_history_matrix"),
    ("trajectory._classify_all", "citegrow.evaluation", "_classify_all"),
)

ROOT_SPAN = "bench.round"

PER_LAYER_UNITS = {
    "sampling.self_s": "s",
    "sampling.calls": "count",
    "sampling.draws": "count",
    "sampling.scanned_per_draw": "count",
    "models.weights_s": "s",
    "models.weight_calls": "count",
    "models.useful_weight_frac": "ratio",
    "simulate.init_s": "s",
    "simulate.grow_self_s": "s",
    "simulate.us_per_node": "us",
    "simulate.nodes": "count",
    "simulate.edges": "count",
    "simulate.fallback_fills": "count",
    "simulate.subspace_shifts": "count",
    "trajectory.classify_s": "s",
    "trajectory.classify_calls": "count",
    "trajectory.history_self_s": "s",
    "trajectory.classified_nodes": "count",
    "trajectory.ot_share": "ratio",
    "evaluation.sensitivity_self_s": "s",
    "evaluation.sensitivity_points": "count",
    "evaluation.jsd2_s": "s",
    "graph.dumps_s": "s",
    "graph.loads_s": "s",
    "graph.dump_bytes": "bytes",
    "ingest.parse_s": "s",
    "ingest.build_s": "s",
    "ingest.lines": "count",
    "ingest.dropped_same_year": "count",
    "synthetic.seed_s": "s",
    "synthetic.schedule_s": "s",
    "bench.self_s": "s",
    "trace.body_s": "s",
    "trace.overhead": "ratio",
    "trace.self_sum_frac": "ratio",
}


def plain_api() -> SimpleNamespace:
    fns = {name: getattr(citegrow, name) for name in PUBLIC}
    fns["dumps"] = citegrow.GrowthGraph.dumps
    return SimpleNamespace(**fns)


# -- counters taken from a call's arguments and result ------------------------

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _on_sample(tracer, args, kwargs, result):
    c = tracer.counts
    c["sampling.draws"] += int(_arg(args, kwargs, 1, "k"))
    c["sampling.scanned"] += len(_arg(args, kwargs, 0, "weights"))
    # the growth loop samples right after computing weights only when k > 0,
    # so a weight vector the sampler consumes counts as useful
    if tracer.weights_pending:
        c["models.useful_weights"] += 1
        tracer.weights_pending = False


def _on_weights(tracer, args, kwargs, result):
    tracer.weights_pending = True


def _on_grow(tracer, args, kwargs, result):
    seed = _arg(args, kwargs, 0, "seed")
    c = tracer.counts
    c["simulate.nodes"] += result.n_nodes - seed.n_nodes
    c["simulate.edges"] += result.n_edges - seed.n_edges
    c["simulate.fallback_fills"] += result.fallback_fills
    c["simulate.subspace_shifts"] += result.subspace_shifts


def _on_distribution(tracer, args, kwargs, result):
    tracer.counts["trajectory.classified_nodes"] += int(result.counts.sum())
    tracer.counts["trajectory.ot_nodes"] += result.count("ot")


def _on_sensitivity(tracer, args, kwargs, result):
    tracer.counts["evaluation.sensitivity_points"] += (
        len(result.rows) // len(citegrow.CATEGORY_ORDER))


def _on_dumps(tracer, args, kwargs, result):
    tracer.counts["graph.dump_bytes"] += len(result.encode("utf-8"))


def _on_papers(tracer, args, kwargs, result):
    tracer.counts["ingest.lines"] += result.total_lines


def _on_citations(tracer, args, kwargs, result):
    tracer.counts["ingest.lines"] += (len(result.edges) + result.malformed
                                      + result.dropped_unknown + result.dropped_self
                                      + result.duplicates)


def _on_build(tracer, args, kwargs, result):
    tracer.counts["ingest.dropped_same_year"] += result.dropped_same_year


OBSERVERS = {
    "sampling.sample_without_replacement": _on_sample,
    "models.attachment_weights": _on_weights,
    "simulate.run_simulation": _on_grow,
    "trajectory.category_distribution": _on_distribution,
    "evaluation.sensitivity": _on_sensitivity,
    "graph.dumps": _on_dumps,
    "ingest.parse_papers": _on_papers,
    "ingest.parse_citations": _on_citations,
    "ingest.build_seed_and_schedule": _on_build,
}


class Tracer:
    """In-memory span recorder plus the counters the observers fill."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.weights_pending = False

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        name_id = self._id(name)
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def installed(self):
        """Wrap the inner call sites and yield a wrapped api; restore on exit."""
        saved = []
        try:
            for span_name, module_name, attr in INNER:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original))
            plain = plain_api()
            wrapped = {name: self.wrap(f"{layer}.{name}", getattr(plain, name))
                       for name, layer in PUBLIC.items()}
            wrapped["dumps"] = self.wrap("graph.dumps", plain.dumps)
            yield SimpleNamespace(**wrapped)
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """{span name: (calls, total seconds, self seconds)} over all spans."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        name = np.array(self._name, dtype=np.int64)
        parent = np.array(self._parent, dtype=np.int64)
        dur = np.array(self._end) - np.array(self._start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_t = np.bincount(name, weights=own, minlength=k)
        return {n: (int(calls[i]), float(total[i]), float(self_t[i]))
                for i, n in enumerate(self.names)}

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), name=np.array(self._name),
                            parent=np.array(self._parent), start=np.array(self._start),
                            end=np.array(self._end))


def layer_metrics(tracer: Tracer, rounds: int, traced_body_s: list[float],
                  untraced_body_s: list[float], setup: dict) -> dict[str, float]:
    """Per-layer metrics, per traced round. `setup` holds the median
    synthetic seed and schedule times measured during set-up."""
    spans = tracer.by_name()
    c = tracer.counts

    def calls(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    sampler = "sampling.sample_without_replacement"
    weights = "models.attachment_weights"
    grow = "simulate.run_simulation"
    per_round = {
        "sampling.self_s": own(sampler),
        "sampling.calls": calls(sampler),
        "sampling.draws": c["sampling.draws"],
        "models.weights_s": own(weights),
        "models.weight_calls": calls(weights),
        "simulate.init_s": total("simulate.init_from_seed"),
        "simulate.grow_self_s": own(grow),
        "simulate.nodes": c["simulate.nodes"],
        "simulate.edges": c["simulate.edges"],
        "simulate.fallback_fills": c["simulate.fallback_fills"],
        "simulate.subspace_shifts": c["simulate.subspace_shifts"],
        "trajectory.classify_s": own("trajectory.classify", "trajectory._classify_all",
                                     "trajectory.classify_graph",
                                     "trajectory.category_distribution"),
        "trajectory.classify_calls": calls("trajectory.classify"),
        "trajectory.history_self_s": own("trajectory._history_matrix"),
        "trajectory.classified_nodes": c["trajectory.classified_nodes"],
        "evaluation.sensitivity_self_s": own("evaluation.sensitivity"),
        "evaluation.sensitivity_points": c["evaluation.sensitivity_points"],
        "evaluation.jsd2_s": total("evaluation.jsd2"),
        "graph.dumps_s": total("graph.dumps"),
        "graph.loads_s": total("graph.loads_graph"),
        "graph.dump_bytes": c["graph.dump_bytes"],
        "ingest.parse_s": total("ingest.parse_papers", "ingest.parse_citations"),
        "ingest.build_s": total("ingest.build_seed_and_schedule"),
        "ingest.lines": c["ingest.lines"],
        "ingest.dropped_same_year": c["ingest.dropped_same_year"],
        "bench.self_s": own(ROOT_SPAN),
    }
    out = {name: value / rounds for name, value in per_round.items()}
    out["sampling.scanned_per_draw"] = ratio(c["sampling.scanned"], c["sampling.draws"])
    out["models.useful_weight_frac"] = ratio(c["models.useful_weights"], calls(weights))
    out["simulate.us_per_node"] = 1e6 * ratio(total(grow), c["simulate.nodes"])
    out["trajectory.ot_share"] = ratio(c["trajectory.ot_nodes"],
                                       c["trajectory.classified_nodes"])
    out["synthetic.seed_s"] = setup["seed_s"]
    out["synthetic.schedule_s"] = setup["schedule_s"]
    out["trace.body_s"] = float(np.median(traced_body_s))
    out["trace.overhead"] = ratio(out["trace.body_s"], float(np.median(untraced_body_s)))
    out["trace.self_sum_frac"] = ratio(sum(s for _, _, s in spans.values()),
                                       sum(traced_body_s))
    return {name: out[name] for name in PER_LAYER_UNITS}
