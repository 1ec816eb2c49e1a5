"""The three benchmark workloads.

All use ``synthetic_seed()``, classification cutoff 1991, horizon 2000 and
the MAS reference mix. Round r of a run with workload seed s grows its
graphs from ``derive_seed(s, r, 0)`` (seed attributes) and
``derive_seed(s, r, 1)`` (growth), as the library's sweeps do, so the two
stages never share a generator.

grow-fitness   ba, af and mf on ``corpus_like_schedule(n_nodes=10000)``.
               The exponential-key sampler is most of the growth time here
               (about three quarters of the traced body), so an exact
               sublinear sampler for these models shows on this workload.
grow-spatial   lbm with the log gamma regime, lbm with the linear regime
               and lbm-g (sigma 1.5, shift every 12 months) at 6k nodes,
               where the O(n) weight rule per insertion dominates. The two
               regimes stress it differently: linear pushes
               exp(-gamma * dist) toward underflow, so a spatial sampler
               that only helps the smooth kernel shows as a loss on the
               peaked one.
reclassify-io  set-up grows a 12k lbm-g graph with the settings of
               acceptance check 9 (sigma 1.5, shift every 12 months); each
               round is the read/write side on that graph: dumps,
               loads_graph, a papers/citations TSV ingest, classify_graph,
               category_distribution, the 5x11 sensitivity grid and jsd2.
               It never calls the growth loop, so sampler and weight-rule
               changes must leave it unchanged.

The sizes are below those of acceptance checks 5-6 and 9 (20k nodes) so
that one run holds enough rounds for its medians to be steady on a shared
host, and the three set-ups of reclassify-io stay short.
"""

from __future__ import annotations

import hashlib
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter, process_time

from citegrow import (
    CATEGORY_ORDER,
    IngestConfig,
    corpus_like_schedule,
    derive_seed,
    init_from_seed,
    make_model,
    mas_reference,
    run_simulation,
    synthetic_seed,
)

from . import checks
from .reference import array_kernel, interpreter_kernel

SEED_START, SEED_END = 1960, 1975
CUTOFF, HORIZON = 1991, 2000
ACTIVATIONS = (3, 4, 5, 6, 7)
THRESHOLDS = tuple(round(0.45 + 0.05 * k, 2) for k in range(11))


@dataclass
class Outcome:
    """One pipeline: its wall time, its failed checks and, for information,
    the digest and category counts of the graph it produced or read."""

    label: str
    round: int
    wall_s: float = 0.0
    cpu_s: float = 0.0
    failures: list = field(default_factory=list)
    digest: str | None = None
    counts: dict | None = None
    jsd2: float | None = None

    def as_json_dict(self) -> dict:
        return {"model": self.label, "round": self.round, "wall_s": self.wall_s,
                "cpu_s": self.cpu_s, "digest": self.digest, "counts": self.counts,
                "jsd2": self.jsd2, "failures": self.failures}


def _counts(dist) -> dict:
    return {cat.code: int(c) for cat, c in zip(CATEGORY_ORDER, dist.counts)}


def _guarded(outcome: Outcome, body) -> Outcome:
    """Run body(outcome); an exception becomes a failure of this pipeline
    instead of ending the run."""
    t0, c0 = perf_counter(), process_time()
    try:
        body(outcome)
    except Exception:
        outcome.wall_s = outcome.wall_s or perf_counter() - t0
        outcome.cpu_s = outcome.cpu_s or process_time() - c0
        outcome.failures.append("raised:\n" + traceback.format_exc())
    return outcome


def _timed_inputs(nodes: int):
    """The synthetic seed and an n-node schedule, with their build times."""
    t0 = perf_counter()
    seed = synthetic_seed()
    t1 = perf_counter()
    schedule = corpus_like_schedule(n_nodes=nodes)
    return seed, schedule, {"seed_s": t1 - t0, "schedule_s": perf_counter() - t1}


class GrowWorkload:
    """Per round, one init -> grow -> classify -> jsd2 pipeline per model."""

    reference_kernel = staticmethod(array_kernel)

    def __init__(self, name: str, variants, nodes: int):
        self.name = name
        self.variants = variants
        self.nodes = nodes

    def setup(self, root_seed: int) -> dict:
        t0 = perf_counter()
        self.seed, self.schedule, times = _timed_inputs(self.nodes)
        self.models = [(label, make_model(kind, **options))
                       for label, kind, options in self.variants]
        self.reference = mas_reference()
        total_s = perf_counter() - t0
        fingerprint = hashlib.sha256(
            (repr(self.seed.edges) + self.schedule.dumps_tsv()).encode()).hexdigest()
        return {**times, "total_s": total_s, "fingerprint": fingerprint, "failures": []}

    def round(self, api, root_seed: int, r: int) -> list[Outcome]:
        return [_guarded(Outcome(label, r), partial(self._pipeline, api, model, root_seed))
                for label, model in self.models]

    def _pipeline(self, api, model, root_seed: int, out: Outcome) -> None:
        t0, c0 = perf_counter(), process_time()
        g0 = api.init_from_seed(self.seed.nodes, self.seed.edges, model,
                                derive_seed(root_seed, out.round, 0))
        g = api.run_simulation(g0, self.schedule, model,
                               derive_seed(root_seed, out.round, 1))
        dist = api.category_distribution(g, CUTOFF, HORIZON)
        score = api.jsd2(dist.proportions, self.reference.proportions)
        out.wall_s, out.cpu_s = perf_counter() - t0, process_time() - c0
        out.digest, out.counts, out.jsd2 = g.digest(), _counts(dist), score
        out.failures += checks.check_growth(g, self.seed, self.schedule)
        out.failures += checks.check_scores(dist, score)


class ReclassifyWorkload:
    """Set-up grows one lbm-g graph and writes it as papers/citations TSV;
    each round runs the read/write and classification side on it."""

    name = "reclassify-io"
    label = "lbm-g"
    reference_kernel = staticmethod(interpreter_kernel)

    def __init__(self, nodes: int, workdir: Path):
        self.nodes = nodes
        self.papers_path = Path(workdir) / "papers.tsv"
        self.citations_path = Path(workdir) / "citations.tsv"
        self.config = IngestConfig(seed_start=SEED_START, seed_end=SEED_END,
                                   cutoff=CUTOFF, horizon=HORIZON)

    def setup(self, root_seed: int) -> dict:
        t0 = perf_counter()
        seed, schedule, times = _timed_inputs(self.nodes)
        model = make_model("lbm-g", sigma=1.5, shift_every=12)
        g0 = init_from_seed(seed.nodes, seed.edges, model, derive_seed(root_seed, 0, 0))
        self.graph = run_simulation(g0, schedule, model, derive_seed(root_seed, 0, 1))
        self.reference = mas_reference()
        # zero-padded ids sort like node ids, so ingest keeps the node order
        with open(self.papers_path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{i:07d}\t{y}\n" for i, y in enumerate(self.graph.years.tolist()))
        with open(self.citations_path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{u:07d}\t{v:07d}\n" for u, v in self.graph.edges.tolist())
        total_s = perf_counter() - t0
        return {**times, "total_s": total_s, "fingerprint": self.graph.digest(),
                "failures": checks.check_growth(self.graph, seed, schedule)}

    def round(self, api, root_seed: int, r: int) -> list[Outcome]:
        return [_guarded(Outcome(self.label, r), partial(self._pass, api))]

    def _pass(self, api, out: Outcome) -> None:
        t0, c0 = perf_counter(), process_time()
        text = api.dumps(self.graph)
        loaded = api.loads_graph(text, seed_end=SEED_END)
        papers = api.parse_papers(self.papers_path)
        citations = api.parse_citations(self.citations_path,
                                        [rec.id for rec in papers.records])
        ingested = api.build_seed_and_schedule(papers.records, citations.edges, self.config)
        rows = api.classify_graph(loaded, CUTOFF, HORIZON)
        dist = api.category_distribution(loaded, CUTOFF, HORIZON)
        grid = api.sensitivity(loaded, CUTOFF, HORIZON, ACTIVATIONS, THRESHOLDS)
        score = api.jsd2(dist.proportions, self.reference.proportions)
        out.wall_s, out.cpu_s = perf_counter() - t0, process_time() - c0
        out.digest, out.counts, out.jsd2 = loaded.digest(), _counts(dist), score
        out.failures += checks.check_roundtrip(self.graph, loaded)
        out.failures += checks.check_ingest(ingested, papers, citations, self.graph)
        out.failures += checks.check_rows_match(rows, dist)
        out.failures += checks.check_sensitivity(grid, len(ACTIVATIONS), len(THRESHOLDS))
        out.failures += checks.check_scores(dist, score)


WORKLOADS = ("grow-fitness", "grow-spatial", "reclassify-io")


def make_workload(name: str, workdir: Path, nodes: int | None = None):
    if name == "grow-fitness":
        return GrowWorkload(name, (("ba", "ba", {}), ("af", "af", {}), ("mf", "mf", {})),
                            nodes or 10000)
    if name == "grow-spatial":
        return GrowWorkload(name, (
            ("lbm-log", "lbm", {"gamma_regime": "log"}),
            ("lbm-linear", "lbm", {"gamma_regime": "linear"}),
            ("lbm-g", "lbm-g", {"sigma": 1.5, "shift_every": 12}),
        ), nodes or 6000)
    if name == "reclassify-io":
        return ReclassifyWorkload(nodes or 12000, workdir)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
