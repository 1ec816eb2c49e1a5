"""Output checks that hold under any exact sampler.

Each check returns a list of failure messages (empty when the output is
correct). None depends on which nodes a particular RNG stream picks, so a
change to the sampler or the random stream passes them as long as the
selection stays a valid draw without replacement.
"""

from __future__ import annotations

import numpy as np

from citegrow import CATEGORY_ORDER



def expected_out_degrees(seed, schedule) -> np.ndarray:
    """Out-degree of every node a run on (seed, schedule) must produce:
    the seed's own citations, then the schedule entries in year order."""
    seed_out = np.zeros(seed.n_nodes, dtype=np.int64)
    if seed.n_edges:
        np.add.at(seed_out, np.array(seed.edges, dtype=np.int64)[:, 0], 1)
    grown = [d for year in schedule.years for d in schedule.entries[year]]
    return np.concatenate([seed_out, np.array(grown, dtype=np.int64)])


def check_growth(graph, seed, schedule) -> list[str]:
    """Totals, citation direction, distinct targets and out-degrees."""
    fails = []
    want_nodes = seed.n_nodes + schedule.total_nodes
    want_edges = seed.n_edges + schedule.total_edges
    if graph.n_nodes != want_nodes or graph.n_edges != want_edges:
        fails.append(f"graph has {graph.n_nodes} nodes / {graph.n_edges} edges, "
                     f"seed plus schedule give {want_nodes} / {want_edges}")
        return fails
    edges = graph.edges
    later = int(np.count_nonzero(edges[:, 1] >= edges[:, 0]))
    if later:
        fails.append(f"{later} edges cite the citing node itself or a later node")
    pairs = edges[:, 0] * graph.n_nodes + edges[:, 1]
    repeats = pairs.size - np.unique(pairs).size
    if repeats:
        fails.append(f"{repeats} edges repeat a target of the same citing node")
    want_out = expected_out_degrees(seed, schedule)
    got_out = np.bincount(edges[:, 0], minlength=graph.n_nodes)
    bad = np.flatnonzero((got_out != want_out) | (graph.out_degrees != want_out))
    if bad.size:
        fails.append(f"{bad.size} nodes have an out-degree other than scheduled "
                     f"(first node {int(bad[0])})")
    return fails


def check_scores(dist, score: float) -> list[str]:
    """Proportions form a distribution and jsd2 lies in [0, 1]."""
    fails = []
    total = float(np.sum(dist.proportions))
    if abs(total - 1.0) > 1e-9:
        fails.append(f"category proportions sum to {total!r}")
    if not 0.0 <= score <= 1.0:
        fails.append(f"jsd2 {score!r} outside [0, 1]")
    return fails


def check_rows_match(rows, dist) -> list[str]:
    """classify_graph rows tally to the category_distribution counts."""
    tally = {cat: 0 for cat in CATEGORY_ORDER}
    for _, _, cat in rows:
        tally[cat] += 1
    got = [tally[cat] for cat in CATEGORY_ORDER]
    want = [int(c) for c in dist.counts]
    if got != want:
        return [f"classify_graph tallies {got}, category_distribution counts {want}"]
    return []


def check_sensitivity(result, n_activations: int, n_thresholds: int) -> list[str]:
    want = n_activations * n_thresholds * len(CATEGORY_ORDER)
    if len(result.rows) != want:
        return [f"sensitivity grid has {len(result.rows)} rows, expected {want}"]
    return []


def check_roundtrip(graph, loaded) -> list[str]:
    if loaded.digest() != graph.digest():
        return ["loads_graph(dumps(g)) digest differs from g"]
    return []


def check_ingest(ingested, papers, citations, graph) -> list[str]:
    """Ingest counters agree with the graph the TSV files were written from."""
    fails = []
    n_seed = graph.n_seed
    citing, cited = graph.edges[:, 0], graph.edges[:, 1]
    same = graph.years[citing] == graph.years[cited]
    from_seed = citing < n_seed
    citation_lines = (len(citations.edges) + citations.malformed + citations.dropped_unknown
                      + citations.dropped_self + citations.duplicates)
    want = {
        "paper lines": (papers.total_lines, graph.n_nodes),
        "citation lines": (citation_lines, graph.n_edges),
        "seed_nodes": (ingested.seed.n_nodes, n_seed),
        "scheduled_nodes": (ingested.schedule.total_nodes, graph.n_nodes - n_seed),
        "seed_edges": (ingested.seed.n_edges, int(np.count_nonzero(from_seed & ~same))),
        "scheduled_edges": (ingested.schedule.total_edges,
                            int(np.count_nonzero(~from_seed & ~same))),
        "dropped_same_year": (ingested.dropped_same_year, int(np.count_nonzero(same))),
        "dropped_forward": (ingested.dropped_forward, 0),
        "dropped_out_of_window": (ingested.dropped_out_of_window, 0),
    }
    for name, (got, expected) in want.items():
        if got != expected:
            fails.append(f"ingest {name} is {got}, the graph gives {expected}")
    return fails
