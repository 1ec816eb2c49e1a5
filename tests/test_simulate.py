import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chi2

import citegrow.sampling
import citegrow.simulate
from citegrow import spatial
from citegrow import (
    GrowthGraph,
    SeedNetwork,
    SimulationError,
    ValidationError,
    YearSchedule,
    attachment_weights,
    corpus_like_schedule,
    init_from_seed,
    make_model,
    run_simulation,
    synthetic_seed,
)
from citegrow.sampling import IncrementLog

from oracles import (
    distance_decay,
    grow_reference,
    reference_set_law,
    reference_weights,
    walk_reference,
)
from test_sampling import set_probability


def grow(model, seed, schedule, rng_seed=0):
    g0 = init_from_seed(seed.nodes, seed.edges, model, rng_seed)
    return run_simulation(g0, schedule, model, rng_seed)


def cited_by(graph, node):
    """The set of nodes `node` cites, read off the edge list."""
    return set(graph.edges[graph.edges[:, 0] == node, 1].tolist())


class TestInitFromSeed:
    def test_basic(self, tiny_seed):
        g = init_from_seed(tiny_seed.nodes, tiny_seed.edges, make_model("af"), 0)
        assert g.n_nodes == 4
        assert g.n_seed == 4
        assert g.n_edges == 3
        assert g.fitness.min() >= 1.0
        assert g.locations.shape == (4, 0)

    def test_lbm_draws_locations(self, tiny_seed):
        g = init_from_seed(tiny_seed.nodes, tiny_seed.edges, make_model("lbm", dim=3), 0)
        assert g.locations.shape == (4, 3)
        assert g.locations.min() >= 0.0 and g.locations.max() <= 1.0

    def test_lbmg_seed_locations_at_the_subspace_centre(self, tiny_seed):
        # sigma 0 collapses the subspace onto its center, pinning the draw
        g = init_from_seed(tiny_seed.nodes, tiny_seed.edges,
                           make_model("lbm-g", sigma=0.0), 0)
        np.testing.assert_array_equal(g.locations, np.full((4, 2), 0.5))

    def test_ba_has_unit_fitness(self, tiny_seed):
        g = init_from_seed(tiny_seed.nodes, tiny_seed.edges, make_model("ba"), 0)
        np.testing.assert_array_equal(g.fitness, np.ones(4))

    def test_rejects_sparse_ids(self):
        with pytest.raises(ValidationError):
            init_from_seed(((0, 1970), (2, 1971)), (), make_model("ba"), 0)

    def test_rejects_unordered_ids(self):
        with pytest.raises(ValidationError):
            init_from_seed(((1, 1970), (0, 1971)), (), make_model("ba"), 0)

    def test_rejects_forward_edge(self):
        with pytest.raises(ValidationError):
            init_from_seed(((0, 1970), (1, 1971)), ((0, 1),), make_model("ba"), 0)

    def test_rejects_self_citation(self):
        with pytest.raises(ValidationError):
            init_from_seed(((0, 1970),), ((0, 0),), make_model("ba"), 0)


class TestConservation:
    @pytest.mark.parametrize("kind", ["ba", "af", "mf", "lbm", "lbm-g"])
    def test_node_and_edge_counts(self, kind, tiny_seed, tiny_schedule):
        g = grow(make_model(kind), tiny_seed, tiny_schedule)
        assert g.n_nodes == tiny_seed.n_nodes + tiny_schedule.total_nodes
        assert g.n_edges == tiny_seed.n_edges + tiny_schedule.total_edges

    def test_years_follow_schedule(self, tiny_seed, tiny_schedule):
        g = grow(make_model("ba"), tiny_seed, tiny_schedule)
        grown_years = g.years[tiny_seed.n_nodes:]
        expected = [y for y in tiny_schedule.years
                    for _ in tiny_schedule.entries[y]]
        assert grown_years.tolist() == expected

    def test_out_degrees_follow_schedule(self, tiny_seed, tiny_schedule):
        g = grow(make_model("mf"), tiny_seed, tiny_schedule)
        grown_out = g.out_degrees[tiny_seed.n_nodes:]
        expected = [d for y in tiny_schedule.years
                    for d in tiny_schedule.entries[y]]
        assert grown_out.tolist() == expected

    def test_new_edges_point_backwards(self, tiny_seed, tiny_schedule):
        g = grow(make_model("lbm"), tiny_seed, tiny_schedule)
        assert np.all(g.edges[:, 0] > g.edges[:, 1])
        # no node cites the same target twice
        pairs = {tuple(e) for e in g.edges.tolist()}
        assert len(pairs) == g.n_edges

    def test_sub_year_positions(self, tiny_seed):
        # j-th of m insertions in a year sits at j/m, so the field stays in [0, 1)
        schedule = YearSchedule({1976: [0, 0, 0, 0]})
        g = grow(make_model("ba"), tiny_seed, schedule)
        np.testing.assert_allclose(g.sub_years[4:], [0.0, 0.25, 0.5, 0.75])
        # the positions are the floats of Python's j / m, bit for bit
        g = grow(make_model("ba"), tiny_seed, YearSchedule({1976: [0] * 7, 1977: [0] * 3}))
        assert g.sub_years[4:].tolist() == [j / 7 for j in range(7)] + [j / 3 for j in range(3)]


class TestSamplerCounters:
    """Every grown edge is either drawn by one of the sampler's ways or a
    counted uniform fill; the counters describe a run and stay out of its
    digest."""

    # lbm's log decay takes the cell draw at these sizes, lbm-g's spread
    # walk the ball draw; "lbm-balls" is lbm sent to the ball draw
    @pytest.mark.parametrize("kind", ["ba", "af", "mf", "lbm", "lbm-g", "lbm-balls"])
    def test_draws_add_up_to_the_grown_edges(self, kind, monkeypatch):
        if kind == "lbm-balls":
            kind = "lbm"
            force_balls(monkeypatch)
        seed = synthetic_seed(n_nodes=60, rng_seed=3)
        schedule = corpus_like_schedule(n_nodes=600, start_year=1976, end_year=1985,
                                        rng_seed=4)
        g = grow(make_model(kind), seed, schedule, rng_seed=2)
        s = g.sampler
        drawn = (s["log_draws"] + s["heavy_draws"] + s["ball_draws"] + s["tail_draws"]
                 + s["cell_draws"] + s["race_draws"])
        assert drawn == g.n_edges - seed.n_edges - g.fallback_fills
        assert (s["log_draws"] == 0) == (kind in ("lbm", "lbm-g"))
        # ba and af gains are all equal, so only mf can keep heavy nodes
        assert s["heavy_draws"] == 0 or kind == "mf"
        if kind in ("lbm", "lbm-g"):
            assert s["log_rejects"] == 0 and s["dense_handoffs"] == 0
        cells = s["cell_draws"] > 0
        assert cells == (kind == "lbm" and spatial.CELL_DECAY > 0)
        # a cell draw tries about twice per target here, each failed try
        # an envelope miss or a repeat
        assert 0 < s["cell_rejects"] < 2 * s["cell_draws"] if cells else s["cell_rejects"] == 0
        assert s["tail_accepted"] <= s["tail_proposed"]
        assert s["race_handoffs"] <= s["race_draws"] or s["race_draws"] == 0
        assert s["seconds"] > 0
        # the parts of the drawing time spent finding lbm/lbm-g balls and
        # running their tails; a cell draw finds neither
        if kind in ("lbm", "lbm-g") and not cells:
            assert 0 < s["ball_seconds"] and 0 < s["tail_seconds"]
            assert s["ball_seconds"] + s["tail_seconds"] <= s["seconds"]
        else:
            assert s["ball_seconds"] == s["tail_seconds"] == 0

    def test_many_dimensions_race_all_earlier_nodes(self):
        seed = synthetic_seed(n_nodes=60, rng_seed=3)
        schedule = corpus_like_schedule(n_nodes=300, start_year=1976, end_year=1985,
                                        rng_seed=4)
        g = grow(make_model("lbm", dim=spatial.GRID_DIMS + 1), seed, schedule)
        s = g.sampler
        assert s["tail_proposed"] == 0 and s["tail_draws"] == 0 and s["ball_draws"] == 0
        assert s["race_handoffs"] == np.count_nonzero(g.out_degrees[seed.n_nodes:])
        assert s["race_draws"] == g.n_edges - seed.n_edges - g.fallback_fills

    def test_fills_are_not_draws(self, monkeypatch):
        # an edgeless seed under "total" gives every node weight 0: the cell
        # draw and the ball draw take the nodes of weight, none, without a
        # hand-off to the race
        seed = SeedNetwork(nodes=((0, 1970), (1, 1971)), edges=())
        for balls in (False, True):
            if balls:
                force_balls(monkeypatch)
            g = grow(make_model("lbm", degree_mode="total"), seed, YearSchedule({1976: [2]}))
            assert g.fallback_fills == 2
            assert g.sampler["race_handoffs"] == g.sampler["race_draws"] == 0
            assert g.sampler["cell_draws"] == g.sampler["ball_draws"] == 0

    # the log draw, lbm's cell draw under its default decay, and the ball
    # draw, which a decay of 5000 picks by itself
    @pytest.mark.parametrize("kind, options, way", [
        pytest.param("ba", {}, "log_draws", id="log"),
        pytest.param("lbm", {}, "cell_draws", id="cells"),
        pytest.param("lbm", {"gamma_regime": "const", "gamma_const": 5000.0}, "ball_draws",
                     id="balls"),
    ])
    def test_short_insertions_take_every_node_of_weight(self, kind, options, way):
        # under "total" only nodes 0 and 4 have weight: a k = 3 insertion
        # takes both, however far apart, and fills its third target; at a
        # decay of 5000 the factor of the farther one often underflows
        seed = SeedNetwork(nodes=((0, 1970), (1, 1971), (2, 1972), (3, 1972), (4, 1973)),
                           edges=((4, 0),))
        model = make_model(kind, degree_mode="total", **options)
        for rng_seed in range(200):
            g0 = init_from_seed(seed.nodes, seed.edges, model, rng_seed)
            g = run_simulation(g0, YearSchedule({1976: [3]}), model, rng_seed)
            assert {0, 4} <= set(g.edges[-3:, 1].tolist())
            assert g.fallback_fills == 1
            assert g.sampler[way] == 2
            assert g.sampler["race_handoffs"] == g.sampler["race_draws"] == 0

    @pytest.mark.parametrize("draw", ["balls", "cells"])
    def test_far_nodes_of_weight_are_raced(self, draw, monkeypatch):
        # under "total" nodes 0, 1, 3 and 4 have weight and node 2 has
        # none; at a decay of 5000 the factors of the far ones underflow,
        # so an insertion that needs 3 of the 4 must still race them, on
        # the ball draw's hand-off and on the cell draw's race finish
        # (which every insertion reaches, its envelope underflowing too)
        if draw == "cells":
            monkeypatch.setattr(spatial, "CELL_DECAY", math.inf)
        seed = SeedNetwork(nodes=((0, 1970), (1, 1971), (2, 1972), (3, 1972), (4, 1973)),
                           edges=((4, 0), (3, 1)))
        model = make_model("lbm", degree_mode="total", gamma_regime="const",
                           gamma_const=5000.0)
        for rng_seed in range(200):
            g0 = init_from_seed(seed.nodes, seed.edges, model, rng_seed)
            g = run_simulation(g0, YearSchedule({1976: [3]}), model, rng_seed)
            assert 2 not in g.edges[-3:, 1].tolist()
            assert g.fallback_fills == 0
            assert g.sampler["race_handoffs"] == 1

    def test_dense_handoffs_finish_with_the_race(self, monkeypatch):
        calls = count_races(monkeypatch)
        s = dominant_fitness_run().sampler
        assert s["dense_handoffs"] == len(calls) > 0
        assert s["race_handoffs"] == s["race_draws"] == 0

    def test_log_rejects_are_repeats(self):
        # a k = 2 draw from weights 2 and 1 repeats its first node until it
        # draws the other: 2/3 * (2/3) / (1/3) + 1/3 * (1/3) / (2/3) = 1.5
        # repeats on average; the new nodes gain nothing and enter at weight
        # 0, so every insertion draws from the same two weights
        runs = 4000
        log = IncrementLog([2.0, 1.0], max_nodes=2 + runs, max_entries=2 + 3 * runs)
        cited = np.full(2 * runs, -1, dtype=np.int64)
        fills = log.grow([2] * runs, [0.0] * runs, [0.0] * (2 + runs), memoryview(cited),
                         np.random.default_rng(0))
        assert fills == 0 and cited.tolist() == [0, 1] * runs
        assert log.counts["log_draws"] == 8000 and log.counts["dense_handoffs"] == 0
        assert log.counts["log_rejects"] / runs == pytest.approx(1.5, rel=0.1)

    def test_counters_stay_out_of_the_digest(self, tiny_seed, tiny_schedule):
        g = grow(make_model("lbm"), tiny_seed, tiny_schedule)
        twin = GrowthGraph(g.years, g.sub_years, g.fitness, g.locations, g.out_degrees,
                           g.edges, g.n_seed)
        assert twin.sampler == {} and twin.digest() == g.digest()


class TestDeterminism:
    def test_same_seed_identical(self, tiny_seed, tiny_schedule):
        a = grow(make_model("lbm-g"), tiny_seed, tiny_schedule, rng_seed=9)
        b = grow(make_model("lbm-g"), tiny_seed, tiny_schedule, rng_seed=9)
        assert a.digest() == b.digest()

    def test_different_seed_differs(self, tiny_seed, tiny_schedule):
        a = grow(make_model("lbm-g"), tiny_seed, tiny_schedule, rng_seed=1)
        b = grow(make_model("lbm-g"), tiny_seed, tiny_schedule, rng_seed=2)
        assert a.digest() != b.digest()


class TestSelectionMechanics:
    def test_insertions_append_their_citations(self, tiny_seed, tiny_schedule):
        # each inserted node appends exactly its out-degree of distinct
        # citations, as one contiguous run of edges in insertion order
        g = grow(make_model("af"), tiny_seed, tiny_schedule, rng_seed=3)
        new_edges = g.edges[tiny_seed.n_edges:]
        degs = [k for year in tiny_schedule.years for k in tiny_schedule.entries[year]]
        citing = [tiny_seed.n_nodes + j for j, k in enumerate(degs) for _ in range(k)]
        assert new_edges[:, 0].tolist() == citing
        for j, k in enumerate(degs):
            node = tiny_seed.n_nodes + j
            assert g.out_degrees[node] == k
            assert len(cited_by(g, node)) == k
            assert all(t < node for t in cited_by(g, node))

    def test_hand_case_two_inserts(self, tiny_seed):
        schedule = YearSchedule({1976: [1, 1]})
        g = grow(make_model("ba"), tiny_seed, schedule, rng_seed=5)
        assert g.n_nodes == 6
        # first insert chooses among the 4 seed nodes, second among 5
        assert len(cited_by(g, 4)) == 1 and all(t < 4 for t in cited_by(g, 4))
        assert len(cited_by(g, 5)) == 1 and all(t < 5 for t in cited_by(g, 5))

    def test_same_year_citation_reachable(self, tiny_seed):
        # the second node of a year may cite the first; with BA weights the
        # chance per run is sizeable, so some run in this seeded batch must
        # produce one
        schedule = YearSchedule({1976: [1, 1]})
        seen_same_year = False
        for rng_seed in range(60):
            g = grow(make_model("ba"), tiny_seed, schedule, rng_seed=rng_seed)
            if 4 in cited_by(g, 5):
                seen_same_year = True
                break
        assert seen_same_year

    def test_selection_frequency_tracks_weights(self):
        # lone seed pair with degrees 2:1 under pure preferential attachment
        seed = SeedNetwork(nodes=((0, 1970), (1, 1971)), edges=((1, 0),))
        schedule = YearSchedule({1976: [1]})
        model = make_model("ba")  # effective degree in+1: node0=2, node1=1
        hits = 0
        runs = 3000
        for rng_seed in range(runs):
            g = grow(model, seed, schedule, rng_seed=rng_seed)
            if 0 in cited_by(g, 2):
                hits += 1
        assert hits / runs == pytest.approx(2.0 / 3.0, abs=0.03)

    def test_degree_mode_total(self):
        # with in+out degrees an edgeless seed has all-zero weights; the
        # uniform fallback must fill in and count the fills
        seed = SeedNetwork(nodes=((0, 1970), (1, 1971)), edges=())
        schedule = YearSchedule({1976: [2]})
        g = grow(make_model("ba", degree_mode="total"), seed, schedule)
        assert g.n_edges == 2
        assert g.fallback_fills == 2

    def test_fallback_untouched_in_normal_runs(self, tiny_seed, tiny_schedule):
        g = grow(make_model("ba"), tiny_seed, tiny_schedule)
        assert g.fallback_fills == 0

    def test_out_degree_exceeding_network_errors(self, tiny_seed):
        schedule = YearSchedule({1976: [5]})
        with pytest.raises(SimulationError, match="5"):
            grow(make_model("ba"), tiny_seed, schedule)


def force_balls(monkeypatch) -> None:
    """Send every location-model run to the ball draw."""
    monkeypatch.setattr(spatial, "CELL_DECAY", -1.0)


def on_both_draws(monkeypatch, check) -> dict:
    """Run `check`, which returns summed sampler counters, on the draw the
    run's settings pick and, when that is the cell draw, once more on the
    ball draw. Returns the first run's counters."""
    counts = check()
    if counts["cell_draws"]:
        with monkeypatch.context() as patch:
            force_balls(patch)
            assert check()["cell_draws"] == 0
    return counts


def count_races(monkeypatch) -> list:
    """Record the k of every ba/af/mf dense-share race the sampler runs
    (the lbm/lbm-g races run `sampling._race_decayed`)."""
    race = citegrow.sampling.sample_without_replacement
    calls = []

    def counted(weights, k, rng):
        calls.append(k)
        return race(weights, k, rng)

    monkeypatch.setattr(citegrow.sampling, "sample_without_replacement", counted)
    return calls


def count_freezes(monkeypatch) -> list:
    """Record the size of the log prefix at every freeze of a ba/af/mf
    pass."""
    freeze = IncrementLog._freeze
    calls = []

    def counted(self, rng, count, size):
        calls.append(size)
        return freeze(self, rng, count, size)

    monkeypatch.setattr(IncrementLog, "_freeze", counted)
    return calls


class ScriptedUniforms:
    """A generator whose `random(size)` returns the given blocks of
    uniforms in turn, each of that size; any other draw fails."""

    def __init__(self, *blocks):
        self.blocks = iter(blocks)

    def random(self, size):
        block = np.array(next(self.blocks), dtype=np.float64)
        assert block.size == size
        return block

    def __getattr__(self, name):
        raise AssertionError(f"unscripted draw: {name}")


def two_sample_chi2(a, b) -> tuple[float, int]:
    """The chi-square statistic of two samples of small integers, with its
    degrees of freedom: values are pooled, in order, into bins that hold
    at least 10 of the two samples together."""
    values = np.union1d(a, b)
    ca = np.array([np.count_nonzero(a == v) for v in values])
    cb = np.array([np.count_nonzero(b == v) for v in values])
    bins, start = [], 0
    for end in range(1, values.size + 1):
        if (ca[start:end] + cb[start:end]).sum() >= 10:
            bins.append((start, end))
            start = end
    if start < values.size:
        # a short last bin joins the one before it
        bins[-1] = (bins[-1][0], values.size)
    oa = np.array([ca[i:j].sum() for i, j in bins])
    ob = np.array([cb[i:j].sum() for i, j in bins])
    both = oa + ob
    ea, eb = both * len(a) / (len(a) + len(b)), both * len(b) / (len(a) + len(b))
    return float(((oa - ea) ** 2 / ea + (ob - eb) ** 2 / eb).sum()), len(bins) - 1


def dominant_fitness_run(schedule=None, rng_seed=8) -> GrowthGraph:
    """An af run whose seed node 0 has fitness 1e7, almost all of the
    weight. Every af node gains 1 per citation, so none is heavy and node
    0 stays in the log: insertions that draw it first finish with the
    dense-share race."""
    n = 5
    g0 = GrowthGraph(years=np.full(n, 1970), sub_years=np.zeros(n),
                     fitness=np.array([1e7, 1.0, 2.0, 3.0, 1.5]),
                     locations=np.zeros((n, 0)), out_degrees=np.zeros(n, dtype=np.int64),
                     edges=np.zeros((0, 2), dtype=np.int64), n_seed=n)
    if schedule is None:
        schedule = YearSchedule({1976: [2, 3, 1, 2], 1977: [3, 2, 2, 4], 1978: [2, 3, 3, 2]})
    return run_simulation(g0, schedule, make_model("af"), rng_seed)


def edgeless_total_run(kind="ba", schedule=None, rng_seed=9) -> GrowthGraph:
    """A run under "total" degrees on an edgeless seed: every seed node
    starts at weight 0, so early insertions need uniform fills."""
    seed = SeedNetwork(nodes=tuple((i, 1970 + i) for i in range(6)), edges=())
    if schedule is None:
        schedule = YearSchedule({1976: [2, 3, 1], 1977: [3, 2, 4, 2], 1978: [5, 1, 3]})
    return grow(make_model(kind, degree_mode="total"), seed, schedule, rng_seed=rng_seed)


def random_schedule(rng_seed, k_max) -> YearSchedule:
    """Four years of 30 insertions each, out-degrees uniform in 1..k_max."""
    rng = np.random.default_rng(rng_seed)
    return YearSchedule({1976 + y: rng.integers(1, k_max + 1, 30).tolist() for y in range(4)})


def sampler_counts(graph) -> dict:
    """Every nonzero sampler counter of a run, and its uniform fills."""
    counts = {name: graph.sampler[name] for name in citegrow.sampling.COUNTERS
              if graph.sampler[name]}
    return {**counts, "fallback_fills": graph.fallback_fills}


def insertion_weights(graph, model, node):
    """Weights of nodes 0..node-1 when `node` was inserted into `graph`,
    recomputed from its edges and attributes: the degree/fitness rule,
    times the distance factor to `node` for lbm and lbm-g."""
    earlier = graph.edges[graph.edges[:, 0] < node]
    in_deg = np.bincount(earlier[:, 1], minlength=node).astype(np.float64)
    if model.degree_mode == "in-plus-one":
        eff = in_deg + 1.0
    else:
        eff = in_deg + graph.out_degrees[:node]
    w = attachment_weights(model.kind, eff, fitness=graph.fitness[:node])
    if model.uses_location:
        w = w * distance_decay(graph.locations[:node], graph.locations[node],
                               model.gamma_at(node))
    return w


def assert_last_insertion_law(g0, model, degs, runs):
    """Grow `degs` (one year) `runs` times and compare the frequency of
    each set the last node cites with its exact probability under the
    sequential law, given the weights the run had reached by then.
    Expected counts sum each run's exact set probabilities. Returns the
    runs' sampler counters, summed."""
    k = degs[-1]
    node = g0.n_nodes + len(degs) - 1
    sets = list(itertools.combinations(range(node), k))
    index = {s: i for i, s in enumerate(sets)}
    observed = np.zeros(len(sets))
    expected = np.zeros(len(sets))
    law: dict = {}
    schedule = YearSchedule({int(g0.years.max()) + 1: list(degs)})
    counts: dict = {}
    for rng_seed in range(runs):
        g = run_simulation(g0, schedule, model, rng_seed)
        observed[index[tuple(sorted(g.edges[-k:, 1].tolist()))]] += 1
        for name, value in g.sampler.items():
            counts[name] = counts.get(name, 0) + value
        weights = tuple(insertion_weights(g, model, node).tolist())
        if weights not in law:
            law[weights] = np.array([set_probability(weights, s) for s in sets])
            assert law[weights].sum() == pytest.approx(1.0)
        expected += law[weights]
    assert_counts_match(observed, expected, runs)
    return counts


def assert_counts_match(observed, expected, runs):
    """Chi-square test of set counts against their expected counts: sets
    expected fewer than 5 times are pooled into one bin, and the statistic
    must stay below its 99.99% quantile."""
    small = expected < 5
    observed = np.append(observed[~small], observed[small].sum())
    expected = np.append(expected[~small], expected[small].sum())
    keep = expected > 0
    stat = float((((observed - expected) ** 2)[keep] / expected[keep]).sum())
    assert stat < chi2.ppf(0.9999, keep.sum() - 1), stat
    assert np.abs(observed - expected).max() / runs < 0.01


def assert_draw_law(draw, weights, k, runs):
    """Call `draw(rng)` `runs` times and compare the frequency of each
    k-set it returns with its exact probability under the sequential law
    for `weights`."""
    sets = list(itertools.combinations(range(len(weights)), k))
    index = {s: i for i, s in enumerate(sets)}
    law = np.array([set_probability(weights, s) for s in sets])
    assert law.sum() == pytest.approx(1.0)
    observed = np.zeros(len(sets))
    for rng_seed in range(runs):
        observed[index[tuple(np.asarray(draw(np.random.default_rng(rng_seed))).tolist())]] += 1
    assert_counts_match(observed, law * runs, runs)


class TestIncrementLogSampler:
    """ba, af and mf draw from the increment log; their law must be the
    sequential weighted draw without replacement, exactly."""

    SEED = SeedNetwork(nodes=((0, 1970), (1, 1970), (2, 1971), (3, 1972), (4, 1973)),
                       edges=((2, 0), (3, 0), (3, 1), (4, 0), (4, 2)))

    @pytest.mark.parametrize("degree_mode", ["in-plus-one", "total"])
    @pytest.mark.parametrize("kind", ["ba", "af", "mf"])
    def test_matches_exact_enumeration(self, kind, degree_mode):
        model = make_model(kind, degree_mode=degree_mode)
        g0 = init_from_seed(self.SEED.nodes, self.SEED.edges, model, 1)
        assert_last_insertion_law(g0, model, [3], runs=40_000)

    @pytest.mark.parametrize("degree_mode", ["in-plus-one", "total"])
    @pytest.mark.parametrize("kind", ["ba", "af", "mf"])
    def test_later_insertion_sees_gains_and_new_node(self, kind, degree_mode):
        # the second insertion's law depends on the citation gains of the
        # first and on the first new node's initial weight
        model = make_model(kind, degree_mode=degree_mode)
        g0 = init_from_seed(self.SEED.nodes[:4], self.SEED.edges[:3], model, 2)
        assert_last_insertion_law(g0, model, [2, 2], runs=20_000)

    def test_dominant_weight_takes_the_dense_path(self, monkeypatch):
        # node 0 holds 10000 of 10007.5 (99.93%) of the mf weight, so once
        # it is chosen the rest of the insertion runs the exponential race
        n = 5
        g0 = GrowthGraph(years=np.full(n, 1970), sub_years=np.zeros(n),
                         fitness=np.array([10000.0, 1.0, 2.0, 3.0, 1.5]),
                         locations=np.zeros((n, 0)), out_degrees=np.zeros(n, dtype=np.int64),
                         edges=np.zeros((0, 2), dtype=np.int64), n_seed=n)
        race = citegrow.sampling.sample_without_replacement
        calls = []

        def counted(weights, k, rng):
            calls.append(k)
            return race(weights, k, rng)

        monkeypatch.setattr(citegrow.sampling, "sample_without_replacement", counted)
        runs = 40_000
        assert_last_insertion_law(g0, make_model("mf"), [3], runs=runs)
        assert len(calls) > 0.99 * runs
        assert set(calls) <= {1, 2}

    def test_heavy_weights_return_to_the_log(self, monkeypatch):
        # seed node 0 and the second new node gain more than twice the mean
        # gain: the pass holds their weight beside the log, then puts it back
        monkeypatch.setattr(citegrow.sampling, "HEAVY", 2.0)
        gains = [50.0, 1.0, 1.0, 1.0, 2.0, 60.0, 1.0]
        log = IncrementLog([50.0, 1.0, 2.0, 3.0], max_nodes=7, max_entries=7 + 6)
        cited = np.empty(6, dtype=np.int64)
        log.grow([1, 2, 3], [2.0, 60.0, 1.0], gains, memoryview(cited),
                 np.random.default_rng(4))
        assert log.counts["heavy_draws"] > 0
        widths = np.diff(log.cum[:log.size], prepend=0.0)
        credited = np.bincount(log.owner[:log.size], weights=widths, minlength=7)
        np.testing.assert_allclose(credited, log.weights, rtol=1e-12)
        expected = np.array([50.0, 1.0, 2.0, 3.0, 2.0, 60.0, 1.0])
        np.add.at(expected, cited, np.take(gains, cited))
        np.testing.assert_allclose(log.weights, expected)

    @pytest.mark.parametrize("point", [0.0, 1e-18, 1e-17])
    def test_no_heavy_weight_left_is_exactly_zero(self, point, monkeypatch):
        # heavy weights 0.1 and 0.2: after both are chosen, the subtractions
        # leave (0.1 + 0.2) - 0.2 - 0.1 > 0, and a third point below that
        # residue must still fall in the log, whose nodes 2 and 3 weigh 1
        monkeypatch.setattr(citegrow.sampling, "HEAVY", 1.0)
        monkeypatch.setattr(citegrow.sampling, "BLOCK", 3)
        residue = (0.1 + 0.2) - 0.2 - 0.1
        assert residue > 0.0
        heavy = 0.1 + 0.2
        # the first two points land on node 1, then node 0, in the heavy
        # weight; the frozen log finds node 2 for the 0.25 of the second
        # block of uniforms
        mass = (heavy + 2.0, heavy - 0.2 + 2.0)
        assert point * (2.0 + residue) < residue
        uniforms = ScriptedUniforms([0.2 / mass[0], 0.05 / mass[1], point],
                                    [0.25, 0.75, 0.75])
        log = IncrementLog([0.1, 0.2, 1.0, 1.0], max_nodes=5, max_entries=5 + 3)
        cited = np.empty(3, dtype=np.int64)
        fills = log.grow([3], [0.0], [0.1, 0.2, 0.0, 0.0, 0.0], memoryview(cited), uniforms)
        assert fills == 0 and cited.tolist() == [0, 1, 2]
        assert log.counts["heavy_draws"] == 2 and log.counts["log_draws"] == 1
        assert log.counts["log_rejects"] == 0

    def test_filled_heavy_node_gains_weight(self, monkeypatch):
        # under "total" seed node 2 has fitness 50 but weight 0; in a third
        # of the runs the first insertion fills it, and it joins node 0
        # (fitness 30) among the heavy nodes of weight the second
        # insertion's draw must leave in the weight drawn from
        monkeypatch.setattr(citegrow.sampling, "HEAVY", 1.0)
        seed = SeedNetwork(nodes=((0, 1970), (1, 1971), (2, 1972), (3, 1972), (4, 1973)),
                           edges=((1, 0),))
        model = make_model("mf", degree_mode="total")
        g = init_from_seed(seed.nodes, seed.edges, model, 0)
        g0 = GrowthGraph(g.years, g.sub_years, np.array([30.0, 1.0, 50.0, 1.0, 1.0]),
                         g.locations, g.out_degrees, g.edges, g.n_seed)
        counts = assert_last_insertion_law(g0, model, [3, 2], runs=10_000)
        assert counts["heavy_draws"] > 10_000

    @pytest.mark.parametrize("kind", ["ba", "mf"])
    def test_zero_weight_nodes_are_never_drawn(self, kind):
        # under "total" only nodes 0 and 1 have a degree, so nodes 2-4
        # carry weight 0 until a uniform fill cites one of them
        seed = SeedNetwork(nodes=((0, 1970), (1, 1971), (2, 1972), (3, 1972), (4, 1973)),
                           edges=((1, 0),))
        model = make_model(kind, degree_mode="total")
        for rng_seed in range(200):
            g0 = init_from_seed(seed.nodes, seed.edges, model, rng_seed)
            g = run_simulation(g0, YearSchedule({1976: [2]}), model, rng_seed)
            assert sorted(g.edges[-2:, 1].tolist()) == [0, 1]
            assert g.fallback_fills == 0

    @pytest.mark.parametrize("kind", ["ba", "mf"])
    def test_uniform_fills_are_counted(self, kind):
        seed = SeedNetwork(nodes=((0, 1970), (1, 1971), (2, 1972), (3, 1972), (4, 1973)),
                           edges=((1, 0),))
        model = make_model(kind, degree_mode="total")
        # the first insertion needs 3 targets but only 2 nodes have weight;
        # the filled node and the new node (out-degree 3) then have weight,
        # so the second insertion needs no fill
        schedule = YearSchedule({1976: [3, 3]})
        filled = set()
        for rng_seed in range(300):
            g0 = init_from_seed(seed.nodes, seed.edges, model, rng_seed)
            g = run_simulation(g0, schedule, model, rng_seed)
            assert g.fallback_fills == 1
            first = set(g.edges[1:4, 1].tolist())
            assert {0, 1} <= first
            filled |= first - {0, 1}
            second = set(g.edges[4:, 1].tolist())
            assert second <= {0, 1, 5} | first
        assert filled == {2, 3, 4}


class TestWholeRunLaw:
    """The joint law of the target sets of a run's first two insertions,
    enumerated exactly from the README weight table
    (`oracles.reference_weights`, `oracles.reference_set_law`) and, for
    lbm and lbm-g, the distance factor at each run's locations, against
    the frequencies of `run_simulation` and of the O(n^2) program
    `oracles.grow_reference`. The second insertion's law depends on the
    gains the first one wrote and on the first new node's weight, so this
    checks how a run composes its draws, appends, dense-share races and
    uniform fills. The bound is fixed in advance: a chi-square statistic
    below its quantile at a false-alarm rate of 1e-6."""

    RUNS = 3000
    FALSE_ALARM = 1e-6
    SEED = SeedNetwork(nodes=((0, 1970), (1, 1970), (2, 1971), (3, 1972)),
                       edges=((2, 0), (3, 0), (3, 1)))
    # the location models under each decay and walk clock; each runs once
    # on the draw its settings pick and once on the ball draw, with fewer
    # runs, as a location-model run costs more
    NEAR_RUNS = 1000
    NEAR = [
        pytest.param("lbm", {}, id="lbm-log"),
        pytest.param("lbm", {"degree_mode": "total"}, id="lbm-log-total"),
        pytest.param("lbm", {"gamma_regime": "const"}, id="lbm-const"),
        pytest.param("lbm", {"gamma_regime": "const", "degree_mode": "total"},
                     id="lbm-const-total"),
        pytest.param("lbm-g", {}, id="lbm-g-months"),
        pytest.param("lbm-g", {"shift_unit": "nodes", "shift_every": 1}, id="lbm-g-nodes"),
    ]

    @pytest.fixture(params=["picked", "balls"])
    def path(self, request, monkeypatch):
        """"balls" sends every location-model run to the ball draw, on
        one-node blocks so that the grid, the ball race and the tail all
        run; "picked" leaves the draw to the run's settings."""
        if request.param == "balls":
            # raising=False: where the ball draw is the only one, there is
            # no cell rule to turn off
            monkeypatch.setattr(spatial, "CELL_DECAY", -1.0, raising=False)
            monkeypatch.setattr(spatial, "MIN_BLOCK", 1)
        return request.param

    @pytest.mark.parametrize("degree_mode", ["in-plus-one", "total"])
    @pytest.mark.parametrize("kind", ["ba", "af", "mf"])
    def test_first_two_insertions(self, kind, degree_mode):
        model = make_model(kind, degree_mode=degree_mode)
        g0 = init_from_seed(self.SEED.nodes, self.SEED.edges, model, 2)
        self.check(g0, model, [2, 2])

    def test_dense_share_race(self):
        # node 0 holds 10000 of 10006 of the mf weight (99.94%), and twice
        # that after a citation, so insertions that draw it first finish
        # with the race
        n = 4
        g0 = GrowthGraph(years=np.full(n, 1970), sub_years=np.zeros(n),
                         fitness=np.array([10000.0, 1.0, 2.0, 3.0]),
                         locations=np.zeros((n, 0)), out_degrees=np.zeros(n, dtype=np.int64),
                         edges=np.zeros((0, 2), dtype=np.int64), n_seed=n)
        counts = self.check(g0, make_model("mf"), [2, 2])
        assert counts["dense_handoffs"] > self.RUNS

    @pytest.mark.parametrize("kind", ["ba", "mf"])
    def test_uniform_fill(self, kind):
        # under "total" only nodes 0 and 1 have weight: the first insertion
        # draws both from the log, then fills its third target uniformly
        seed = SeedNetwork(nodes=((0, 1970), (1, 1971), (2, 1972), (3, 1972)), edges=((1, 0),))
        model = make_model(kind, degree_mode="total")
        g0 = init_from_seed(seed.nodes, seed.edges, model, 2)
        counts = self.check(g0, model, [3, 2])
        assert counts["fallback_fills"] == self.RUNS

    @pytest.mark.parametrize("heavy_max", [citegrow.sampling.HEAVY_MAX, 1])
    @pytest.mark.parametrize("degree_mode", ["in-plus-one", "total"])
    def test_heavy_nodes_and_refills(self, degree_mode, heavy_max, monkeypatch):
        # HEAVY 1 puts every node whose gain, its fitness, is above the mean
        # gain on the heavy list, the first new node too when it draws a
        # high fitness, and HEAVY_MAX 1 keeps only the largest; BLOCK 1
        # freezes the log again before every draw
        monkeypatch.setattr(citegrow.sampling, "HEAVY", 1.0)
        monkeypatch.setattr(citegrow.sampling, "HEAVY_MAX", heavy_max)
        monkeypatch.setattr(citegrow.sampling, "BLOCK", 1)
        freezes = count_freezes(monkeypatch)
        model = make_model("mf", degree_mode=degree_mode)
        g0 = init_from_seed(self.SEED.nodes, self.SEED.edges, model, 2)
        counts = self.check(g0, model, [2, 2])
        assert counts["heavy_draws"] > 0 and counts["log_draws"] > 0
        assert len(freezes) > 2 * self.RUNS

    @pytest.mark.parametrize("degree_mode", ["in-plus-one", "total"])
    def test_every_heavy_node_chosen(self, degree_mode, monkeypatch):
        # seed nodes 0 and 1 have fitness 5 and 4, and HEAVY 1 with
        # HEAVY_MAX 2 keeps them on the heavy list unless a new node's
        # fitness tops 4; most first insertions choose both and then draw
        # their third target with no heavy weight left
        monkeypatch.setattr(citegrow.sampling, "HEAVY", 1.0)
        monkeypatch.setattr(citegrow.sampling, "HEAVY_MAX", 2)
        model = make_model("mf", degree_mode=degree_mode)
        g = init_from_seed(self.SEED.nodes, self.SEED.edges, model, 2)
        g0 = GrowthGraph(g.years, g.sub_years, np.array([5.0, 4.0, 1.0, 1.0]), g.locations,
                         g.out_degrees, g.edges, g.n_seed)
        counts = self.check(g0, model, [3, 2])
        assert counts["heavy_draws"] > 2 * self.RUNS and counts["log_draws"] > self.RUNS

    @pytest.mark.parametrize("kind", ["ba", "af", "mf"])
    def test_final_in_degrees(self, kind, monkeypatch):
        """Each node's final in-degree after ten insertions into a 20-node
        seed, `run_simulation` against `grow_reference`: a two-sample
        chi-square test per node, its bound fixed at a false-alarm rate of
        1e-6 over all nodes. Seed node 0 has fitness 200, heavy under mf,
        and BLOCK 4 freezes the log again every four draws."""
        monkeypatch.setattr(citegrow.sampling, "BLOCK", 4)
        freezes = count_freezes(monkeypatch)
        counts = self.check_final_in_degrees(make_model(kind))
        assert (counts["heavy_draws"] > 0) == (kind == "mf")
        assert len(freezes) > self.RUNS

    @pytest.mark.parametrize("kind, options", NEAR)
    def test_first_two_insertions_near(self, kind, options, path):
        model = make_model(kind, **options)
        g0 = init_from_seed(self.SEED.nodes, self.SEED.edges, model, 2)
        self.check(g0, model, [2, 2], self.NEAR_RUNS)

    @pytest.mark.parametrize("kind, options", NEAR)
    def test_final_in_degrees_near(self, kind, options, path):
        """As `test_final_in_degrees`, with `grow_reference` weighting by
        distance at each production run's locations."""
        self.check_final_in_degrees(make_model(kind, **options), self.NEAR_RUNS)

    @pytest.mark.parametrize("degree_mode", ["in-plus-one", "total"])
    def test_cell_race_finish(self, degree_mode, monkeypatch):
        # CELL_TRIES 1: as many failed cell tries as the insertion has
        # targets hand the rest of it to the race over the unchosen nodes
        monkeypatch.setattr(citegrow.sampling, "CELL_TRIES", 1)
        model = make_model("lbm", degree_mode=degree_mode)
        g0 = init_from_seed(self.SEED.nodes, self.SEED.edges, model, 2)
        counts = self.check(g0, model, [2, 2], self.NEAR_RUNS)
        assert counts["cell_draws"] > 0 and counts["race_draws"] > 0
        assert 0 < counts["race_handoffs"] < self.NEAR_RUNS

    def check_final_in_degrees(self, model, runs=RUNS) -> Counter:
        """The final in-degree test of `test_final_in_degrees` under
        `model`, over `runs` runs; returns the production runs' sampler
        counters, summed."""
        seed = synthetic_seed(n_nodes=20, rng_seed=7)
        g = init_from_seed(seed.nodes, seed.edges, model, 3)
        fitness = g.fitness.copy()
        fitness[0] = 200.0
        g0 = GrowthGraph(g.years, g.sub_years, fitness, g.locations, g.out_degrees, g.edges,
                         g.n_seed)
        schedule = YearSchedule({1980: [2, 3, 1, 4, 2], 1981: [3, 2, 4, 1, 3]})
        n = g0.n_nodes + schedule.total_nodes
        production = np.zeros((runs, n), dtype=np.int64)
        reference = np.zeros((runs, n), dtype=np.int64)
        counts: Counter = Counter()
        reference_rng = np.random.default_rng(54321)
        for run in range(runs):
            grown = run_simulation(g0, schedule, model, run)
            counts.update(grown.sampler)
            production[run] = np.bincount(grown.edges[:, 1], minlength=n)
            edges = grow_reference(g0, schedule, model, grown.fitness, reference_rng,
                                   grown.locations)
            reference[run] = np.bincount(np.append(g0.edges[:, 1], edges[:, 1]), minlength=n)
        varied = [i for i in range(n) if np.ptp(np.append(production[:, i], reference[:, i]))]
        assert len(varied) > 20
        for i in varied:
            stat, df = two_sample_chi2(production[:, i], reference[:, i])
            assert stat < chi2.isf(self.FALSE_ALARM / len(varied), df), (i, stat, df)
        return counts

    def check(self, g0, model, degs, runs=RUNS) -> Counter:
        """Grow `degs` (one year) `runs` times with each program and
        compare the frequency of each pair of target sets with its exact
        probability. Returns the production runs' sampler counters and
        fills, summed."""
        n0 = g0.n_nodes
        k1, k2 = degs
        schedule = YearSchedule({int(g0.years.max()) + 1: list(degs)})
        cells = list(itertools.product(itertools.combinations(range(n0), k1),
                                       itertools.combinations(range(n0 + 1), k2)))
        index = {cell: i for i, cell in enumerate(cells)}
        production, reference = np.zeros(len(cells)), np.zeros(len(cells))
        fitness = np.empty(runs)
        locations = np.empty((runs, n0 + 2, g0.dim))
        counts: Counter = Counter()
        reference_rng = np.random.default_rng(12345)

        def cell(cited):
            return tuple(cited[:k1].tolist()), tuple(cited[k1:].tolist())

        for run in range(runs):
            g = run_simulation(g0, schedule, model, run)
            fitness[run] = g.fitness[n0]
            locations[run] = g.locations
            production[index[cell(g.edges[g0.n_edges:, 1])]] += 1
            counts.update({**g.sampler, "fallback_fills": g.fallback_fills})
            edges = grow_reference(g0, schedule, model, g.fitness, reference_rng, g.locations)
            reference[index[cell(edges[:, 1])]] += 1

        def decay(node):
            """Per run (a column each), the distance factor of the nodes
            before `node` at `node`'s insertion; 1 without locations."""
            if not model.uses_location:
                return np.ones((node, 1))
            d = np.sqrt(((locations[:, :node] - locations[:, node, None]) ** 2).sum(axis=2))
            return np.exp(-model.gamma_at(node) * d).T

        # the exact law, given each run's fitness draw for the first new node
        # and its locations
        in_deg = np.bincount(g0.edges[:, 1], minlength=n0 + 1).astype(np.float64)
        out_deg = np.append(g0.out_degrees, k1).astype(np.float64)
        first = reference_weights(model, in_deg[:n0], out_deg[:n0], g0.fitness)
        first = first[:, None] * decay(n0)
        fit = np.vstack([np.repeat(g0.fitness[:, None], runs, axis=1), fitness])
        later = decay(n0 + 1)
        expected = np.zeros(len(cells))
        for s1 in itertools.combinations(range(n0), k1):
            p1 = reference_set_law(first, s1)
            if not np.any(p1):
                continue
            after = in_deg.copy()
            after[list(s1)] += 1
            second = reference_weights(model, after[:, None], out_deg[:, None], fit) * later
            for s2 in itertools.combinations(range(n0 + 1), k2):
                expected[index[s1, s2]] = np.sum(p1 * reference_set_law(second, s2))
        assert expected.sum() == pytest.approx(runs)
        for observed in (production, reference):
            small = expected < 5
            o = np.append(observed[~small], observed[small].sum())
            e = np.append(expected[~small], expected[small].sum())
            keep = e > 0
            assert o[~keep].sum() == 0
            stat = float((((o - e) ** 2)[keep] / e[keep]).sum())
            assert stat < chi2.isf(self.FALSE_ALARM, keep.sum() - 1), stat
        return counts


class TestSpatialSampler:
    """lbm and lbm-g draw from the increment log's weights times the
    distance factor; their law must be the sequential weighted draw without
    replacement, exactly, on the cell draw and on the ball draw."""

    SEED = TestIncrementLogSampler.SEED
    # const decay keeps lbm's distance factor the same at every network
    # size; lbm-g keeps its log decay, with one mean shift a year rather
    # than twelve to keep the runs short
    OPTIONS = {"lbm": {"gamma_regime": "const", "gamma_const": 1.0},
               "lbm-g": {"shift_every": 12.0}}
    RUNS = 20_000

    @pytest.mark.parametrize("degree_mode", ["in-plus-one", "total"])
    @pytest.mark.parametrize("kind", ["lbm", "lbm-g"])
    def test_matches_exact_enumeration(self, kind, degree_mode, monkeypatch):
        model = make_model(kind, degree_mode=degree_mode, **self.OPTIONS[kind])
        g0 = init_from_seed(self.SEED.nodes, self.SEED.edges, model, 1)
        counts = on_both_draws(
            monkeypatch, lambda: assert_last_insertion_law(g0, model, [3], runs=self.RUNS))
        # gamma times the cell side stays below 1 at these sizes
        assert counts["cell_draws"] > 0

    def test_later_insertion_sees_gains_and_new_node(self, monkeypatch):
        # the second insertion's law depends on the first insertion's gains
        # and on the first new node's weight: the fitness it drew at its
        # insertion times its out-degree
        model = make_model("lbm", degree_mode="total", **self.OPTIONS["lbm"])
        g0 = init_from_seed(self.SEED.nodes[:4], self.SEED.edges[:3], model, 2)
        counts = on_both_draws(
            monkeypatch, lambda: assert_last_insertion_law(g0, model, [2, 2], runs=self.RUNS))
        assert counts["cell_draws"] > 0

    def test_grid_balls_and_tail_in_growth(self, monkeypatch):
        # one-node blocks send these runs through the grid, the ball race
        # and the tail; the second insertion sees the first one's gains
        force_balls(monkeypatch)
        monkeypatch.setattr(spatial, "MIN_BLOCK", 1)
        model = make_model("lbm", **self.OPTIONS["lbm"])
        g0 = init_from_seed(self.SEED.nodes, self.SEED.edges, model, 3)
        counts = assert_last_insertion_law(g0, model, [2, 2], runs=self.RUNS // 2)
        assert counts["ball_draws"] > 0 and counts["tail_draws"] > 0

    def test_co_located_nodes(self, monkeypatch):
        # sigma 0 (and so rho 0) puts every node on the subspace mean, in
        # one cell
        model = make_model("lbm-g", sigma=0.0, **self.OPTIONS["lbm-g"])
        g0 = init_from_seed(self.SEED.nodes, self.SEED.edges, model, 1)
        counts = on_both_draws(
            monkeypatch, lambda: assert_last_insertion_law(g0, model, [3], runs=self.RUNS))
        assert counts["cell_draws"] > 0

    def test_cell_logs_hold_each_cells_weight(self, monkeypatch):
        # under "total" a seed node that neither cites nor is cited enters
        # the pass at weight 0 and has no entry in its cell's log; after
        # the pass each cell's log credits exactly its own nodes' weights
        made = []
        init = citegrow.sampling._CellLogs.__init__

        def recorded(self, log, cells):
            made.append((self, np.count_nonzero(log.weights[:log.n_nodes] == 0.0)))
            init(self, log, cells)

        monkeypatch.setattr(citegrow.sampling._CellLogs, "__init__", recorded)
        seed = synthetic_seed(n_nodes=60, rng_seed=3)
        schedule = corpus_like_schedule(n_nodes=600, start_year=1976, end_year=1985,
                                        rng_seed=4)
        grow(make_model("lbm", degree_mode="total"), seed, schedule, rng_seed=2)
        [(logs, zero)] = made
        assert zero > 0
        log, cells = logs.log, logs.cells
        n = log.n_nodes
        weights = log.weights[:n]
        np.testing.assert_allclose(
            logs.totals, np.bincount(cells.cell[:n], weights=weights, minlength=logs.count),
            rtol=1e-12)
        credited = np.zeros(n)
        for c, size in enumerate(logs.size):
            if not size:
                assert logs.totals[c] == 0.0
                continue
            owner = np.asarray(logs.owner[c][:size])
            cum = np.asarray(logs.cum[c][:size])
            assert np.all(cells.cell[owner] == c) and cum[-1] == logs.totals[c]
            np.add.at(credited, owner, np.diff(cum, prepend=0.0))
        np.testing.assert_allclose(credited, weights, rtol=1e-9, atol=1e-12)


class TestNearDraw:
    """`IncrementLog.sample_near` on a fixed state and ball: the ball race,
    the thinned tail drawn from the log and the hand-off to the race must
    together follow the sequential law for the log's weights times
    exp(-gamma * dist), exactly."""

    RUNS = 20_000

    @staticmethod
    def state(dim, gamma, k, weights=None, locations=None, seed=0):
        """An increment log over 8 nodes, several entries per node, and
        the ball of a ninth node at the last location, on one-node blocks.
        Returns (log, ball, exact weights)."""
        rng = np.random.default_rng(seed)
        if locations is None:
            locations = rng.random((9, dim))
        if weights is None:
            weights = rng.uniform(0.5, 3.0, size=8)
        # node 3 cites nodes 0-2 (k = 3 of 3), each gaining its other half
        log = IncrementLog(weights[:3] / 2, max_nodes=8, max_entries=32)
        gains = np.zeros(8)
        gains[:3] = weights[:3] / 2
        cited = np.empty(3, dtype=np.int64)
        log.grow([3, 0, 0, 0, 0], weights[3:].tolist(), gains.tolist(), memoryview(cited), rng)
        assert cited.tolist() == [0, 1, 2] and log.size == 11
        np.testing.assert_allclose(log.weights, weights)
        ball = next(spatial._balls(locations, np.array([8]), np.array([k]), np.array([gamma])))
        # the law's weights, relative to the nearest node's distance factor
        d = np.sqrt(((locations[:8] - locations[8]) ** 2).sum(axis=1))
        return log, ball, log.weights * np.exp(-gamma * (d - d.min()))

    @pytest.fixture(autouse=True)
    def one_node_blocks(self, monkeypatch):
        monkeypatch.setattr(spatial, "MIN_BLOCK", 1)

    def check(self, log, ball, exact, k):
        assert_draw_law(lambda rng: log.sample_near(k, log.n_nodes, log.size, rng, ball),
                        exact, k, self.RUNS)
        counts = log.counts
        drawn = counts["ball_draws"] + counts["tail_draws"] + counts["race_draws"]
        assert drawn == k * self.RUNS
        return counts

    def test_ball_only(self):
        # steep decay and three nodes next to the new one: the envelope
        # beyond the ball is far below any ball weight, so no tail arrival
        # comes before the k-th ball key
        locations = np.array([[0.5, 0.501], [0.1, 0.9], [0.5012, 0.5], [0.9, 0.1],
                              [0.9, 0.9], [0.1, 0.1], [0.4986, 0.5], [0.2, 0.5],
                              [0.5, 0.5]])
        log, ball, exact = self.state(2, 300.0, 2, locations=locations)
        assert sorted(ball.nodes.tolist()) == [0, 2, 6] and ball.envelope < 1e-20
        counts = self.check(log, ball, exact, 2)
        assert counts["tail_draws"] == 0 and counts["race_handoffs"] == 0

    @pytest.mark.parametrize("mean", [1e-17, 1e-80, 5e-324])
    def test_poisson_is_zero_when_its_exponential_rounds_to_one(self, mean):
        # the premise of the tail's skip: numpy's inversion multiplies
        # uniforms below 1 until their product is at most exp(-mean), so
        # at 1.0 the first uniform ends it with a count of 0
        assert math.exp(-mean) == 1.0
        rng = np.random.default_rng(0)
        assert not np.random.default_rng(0).poisson(mean, size=200_000).any()
        assert citegrow.sampling._poisson(rng, mean) == 0
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_ball_only_tail_reads_no_random_number(self, monkeypatch):
        # `test_ball_only`, whose tail's expected arrivals are far below a
        # uniform's resolution: the tail ends without reading the
        # generator, and the law still holds
        tail = IncrementLog._tail
        states = []

        def recorded(log, keys, nodes, t, rng, ball, rate, bound):
            before = rng.bit_generator.state
            result = tail(log, keys, nodes, t, rng, ball, rate, bound)
            states.append(before == rng.bit_generator.state)
            return result

        monkeypatch.setattr(IncrementLog, "_tail", recorded)
        self.test_ball_only()
        assert len(states) == self.RUNS and all(states)

    @pytest.mark.parametrize("dim, seed", [(1, 4), (2, 0), (3, 2)])
    def test_ball_and_tail(self, dim, seed):
        # gentle decay: every node outside the ball keeps a large share
        log, ball, exact = self.state(dim, 0.5, 2, seed=seed)
        assert 3 <= ball.nodes.size <= 6 and ball.envelope > 0.5
        counts = self.check(log, ball, exact, 2)
        assert counts["ball_draws"] > 0 and counts["tail_draws"] > 0
        assert counts["race_handoffs"] == 0
        assert counts["tail_accepted"] <= counts["tail_proposed"]

    def test_race_hand_off(self, monkeypatch):
        # HANDOFF 0 hands every insertion with a tail to the race, decided
        # before any draw
        monkeypatch.setattr(citegrow.sampling, "HANDOFF", 0.0)
        race = citegrow.sampling._race_decayed
        calls = []

        def counted(weights, log_decay, k, rng):
            calls.append(k)
            return race(weights, log_decay, k, rng)

        monkeypatch.setattr(citegrow.sampling, "_race_decayed", counted)
        log, ball, exact = self.state(2, 0.5, 3, seed=2)
        counts = self.check(log, ball, exact, 3)
        assert counts["race_handoffs"] == self.RUNS == len(calls)
        assert counts["race_draws"] == 3 * self.RUNS

    def test_zero_weights_hand_off_or_stay_out(self):
        # "total" degrees leave never-cited nodes without out-degree at
        # weight 0; they are never drawn, and a ball with fewer than k
        # positive weights hands the insertion to the race
        weights = np.array([2.0, 0.0, 1.0, 0.0, 3.0, 0.0, 1.5, 0.0])
        locations = np.array([[0.1, 0.1], [0.5, 0.52], [0.9, 0.9], [0.52, 0.5],
                              [0.2, 0.8], [0.48, 0.5], [0.8, 0.2], [0.5, 0.48],
                              [0.5, 0.5]])
        log, ball, exact = self.state(2, 0.5, 2, weights=weights, locations=locations)
        assert np.count_nonzero(log.weights[ball.nodes]) < 2
        positive = exact > 0
        law = exact[positive]
        nodes = np.flatnonzero(positive)
        assert_draw_law(lambda rng: np.searchsorted(
                            nodes, log.sample_near(2, log.n_nodes, log.size, rng, ball)),
                        law, 2, self.RUNS)
        assert log.counts["race_handoffs"] == self.RUNS

    def test_zero_weights_in_a_ball_that_races(self):
        # the ball holds zero weights next to more than k positive ones, so
        # it races without a hand-off; called directly, the draw divides by
        # those zeros and must raise no warning
        weights = np.array([2.0, 0.0, 1.0, 0.0, 3.0, 0.0, 1.5, 0.0])
        locations = np.array([[0.5, 0.52], [0.5, 0.515], [0.52, 0.5], [0.515, 0.5],
                              [0.48, 0.5], [0.485, 0.5], [0.9, 0.1], [0.1, 0.9],
                              [0.5, 0.5]])
        log, ball, exact = self.state(2, 0.5, 2, weights=weights, locations=locations)
        inside = log.weights[ball.nodes]
        assert np.count_nonzero(inside) > 2 and np.count_nonzero(inside == 0) > 0
        assert ball.envelope > 0.5
        positive = exact > 0
        nodes = np.flatnonzero(positive)
        assert_draw_law(lambda rng: np.searchsorted(
                            nodes, log.sample_near(2, log.n_nodes, log.size, rng, ball)),
                        exact[positive], 2, self.RUNS)
        assert log.counts["race_handoffs"] == 0 and log.counts["ball_draws"] > 0

    def test_subnormal_weights_hand_off(self):
        # a weight near the float minimum overflows its key E / w to inf; a
        # ball with fewer than k weights clear of that goes to the race,
        # which ranks such keys by their logarithms, before the tail could
        # start from an infinite k-th key
        weights = np.arange(1.0, 9.0) * 1e-310
        log, ball, exact = self.state(2, 0.5, 2, weights=weights)
        assert ball.nodes.size == 4 and ball.envelope > 0.5
        self.check(log, ball, exact, 2)
        assert log.counts["race_handoffs"] == self.RUNS

    def test_same_ball_same_draw(self):
        log, ball, _ = self.state(2, 0.5, 3, seed=5)
        a = log.sample_near(3, log.n_nodes, log.size, np.random.default_rng(7), ball)
        b = log.sample_near(3, log.n_nodes, log.size, np.random.default_rng(7), ball)
        assert a == b and a == sorted(a) and all(type(node) is int for node in a)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_tail_acceptance_is_zero_exactly_inside_the_ball(self, dim):
        # the tail drops a proposal inside the ball by its distance alone,
        # on the same bits the ball was gathered with
        locations = np.random.default_rng(dim).random((400, dim))
        tails = 0
        for ball in spatial._balls(locations, np.arange(40, 400), np.full(360, 2),
                                   np.full(360, 2.0)):
            earlier = np.arange(ball.node)
            inside = np.isin(earlier, ball.nodes)
            acceptance = ball.tail_acceptance(earlier)
            assert np.all(acceptance[inside] == 0.0)
            outside = acceptance[~inside]
            assert np.all((outside > 0.0) & (outside <= 1.0))
            tails += bool(ball.nodes.size) and bool(outside.size)
        assert tails > 100


class TestBallGeometry:
    """Every ball of the ball draw, checked against all earlier nodes
    by brute force, across the windows of insertions whose balls are found
    together and the pieces they are gathered in."""

    # past the first window of the default size
    NODES = spatial.MAX_QUERIES + 200

    @pytest.mark.parametrize("max_queries", [7, spatial.MAX_QUERIES])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_balls_match_brute_force(self, dim, max_queries, monkeypatch):
        force_balls(monkeypatch)
        monkeypatch.setattr(spatial, "MAX_QUERIES", max_queries)
        monkeypatch.setattr(spatial, "MAX_ENTRIES", 64)
        gather = spatial._Levels.gather
        pieces = []

        def counted(levels, queries, *args):
            pieces.append(len(queries))
            return gather(levels, queries, *args)

        monkeypatch.setattr(spatial._Levels, "gather", counted)
        n, first = self.NODES, 40
        locations = np.random.default_rng(dim).random((n, dim))
        degrees = np.random.default_rng(dim + 10).integers(0, 4, n - first)
        tails = 0
        found = []
        # a decay steep enough that radii often clear their floor, the
        # cell side of the level that sets the local density
        for ball in spatial.choose_draw(locations, degrees, lambda nodes: nodes / 10.0, first):
            node = ball.node
            found.append(node)
            assert ball.gamma == node / 10.0
            # squared distances summed axis by axis, as the grid sums them
            d2 = sum((locations[:node, a] - locations[node, a]) ** 2 for a in range(dim))
            inside = np.flatnonzero(d2 < ball.radius * ball.radius)
            assert np.array_equal(np.sort(ball.nodes), inside)
            if not inside.size:
                # an empty ball hands the insertion to the race over all
                continue
            d = np.sqrt(d2)
            factor = np.exp(-ball.gamma * (d - d[inside].min()))
            np.testing.assert_array_max_ulp(ball.decay, factor[ball.nodes], maxulp=1)
            outside = np.ones(node, dtype=bool)
            outside[inside] = False
            if outside.any():
                # d >= radius up to the rounding of d2 and its root
                assert factor[outside].max() <= ball.envelope * (1 + 1e-12)
                tails += 1
            else:
                assert ball.envelope == 0.0
        assert found == (first + np.flatnonzero(degrees)).tolist()
        assert tails > 500
        windows = -(-np.count_nonzero(degrees) // max_queries)
        assert len(pieces) > windows and max(pieces) < max_queries


class TestLogGrowthStream:
    """ba, af and mf draw only from the increment log and the heavy nodes
    beside it; the lbm/lbm-g sampler must leave their random stream, and
    so their graphs, as they are."""

    @pytest.mark.parametrize("kind, degree_mode, digest", [
        pytest.param("ba", "in-plus-one",
                     "aedc5e8a827fa961c28b845ec9b813abe1cef8f3a9c7e1371cbb50b1ada5cabb",
                     id="ba-in-plus-one"),
        pytest.param("ba", "total",
                     "03abff59b2cbfca48f522fc25b2bb6520b8591016092059016277933ed5534cb",
                     id="ba-total"),
        pytest.param("af", "in-plus-one",
                     "eb00faaccd2d0d0225c49eb2d634d0a913211c40df9f3d93fae199deb47a4fe4",
                     id="af-in-plus-one"),
        pytest.param("af", "total",
                     "6fa19dfed5431b508df9ec9ff5b7942ea64310af2c2a0c292877cd3adae3804f",
                     id="af-total"),
        pytest.param("mf", "in-plus-one",
                     "6cd16471e2cc4b15d88051ea88f71685d146a49b7642b99fb9f692bee8982506",
                     id="mf-in-plus-one"),
        pytest.param("mf", "total",
                     "1c5aa37563373573e106a731c86447cf3a113e98f4fa0495d4cc4a94bf5c7d7c",
                     id="mf-total"),
    ])
    def test_digest_is_pinned(self, kind, degree_mode, digest):
        seed = synthetic_seed(n_nodes=100, rng_seed=3)
        schedule = corpus_like_schedule(n_nodes=1500, start_year=1976, end_year=1990,
                                        rng_seed=4)
        model = make_model(kind, degree_mode=degree_mode)
        g0 = init_from_seed(seed.nodes, seed.edges, model, 5)
        assert run_simulation(g0, schedule, model, 6).digest() == digest

    def test_dense_share_finish_is_pinned(self, monkeypatch):
        calls = count_races(monkeypatch)
        g = dominant_fitness_run()
        assert g.digest() == "57872fe478621f5530ac9f6524ba0467357555e892c22cfaa42ecb5d8e126e64"
        assert len(calls) > 0

    def test_uniform_fills_are_pinned(self):
        g = edgeless_total_run()
        assert g.fallback_fills > 0
        assert g.digest() == "249e4f63c1f9e14c33524ea96ebd42960955e4267c209fb4c942232e861984a5"

    # runs whose draws span many blocks of uniforms, with heavy draws,
    # dense-share races and uniform fills between them: the digest and
    # every counter pin the stream across those other draws
    def test_dense_share_heavy_mf_is_pinned(self):
        # alpha 0.3 condenses the weight on nodes that the heavy rule
        # leaves in the log: 70 dense-share races and 183k rejected repeats
        # in 3k insertions, beside 3,475 heavy draws
        seed = synthetic_seed()
        model = make_model("mf", alpha=0.3)
        g0 = init_from_seed(seed.nodes, seed.edges, model, 5)
        g = run_simulation(g0, corpus_like_schedule(n_nodes=3000), model, 6)
        assert g.digest() == "c30ba0d892dcf4976c7848b4f6565f693055785abc8fdce0ec24df8f696861f4"
        assert sampler_counts(g) == {"log_draws": 2966, "heavy_draws": 3475,
                                     "log_rejects": 183028, "dense_handoffs": 70,
                                     "fallback_fills": 0}

    @pytest.mark.parametrize("rng_seed, digest, counts", [
        pytest.param(11, "0a28f275a8e563c1c519dd20ab802db7f593d4e44345f0315f2c097ab9e2dd1f",
                     {"log_draws": 301, "dense_handoffs": 86}, id="11"),
        pytest.param(12, "5679de5efa55408413e320a1849d5d6ac2bc81cdcfc8cea5b190707b5ca37a6b",
                     {"log_draws": 323, "dense_handoffs": 95}, id="12"),
        pytest.param(13, "a6f841e43bd8e5e875040a4d2915cf09e14f8b8a4356fa4b6cb883fe4cbac5dc",
                     {"log_draws": 327, "dense_handoffs": 97}, id="13"),
    ])
    def test_dominant_fitness_runs_are_pinned(self, rng_seed, digest, counts):
        g = dominant_fitness_run(random_schedule(rng_seed, 4), rng_seed)
        assert g.digest() == digest
        assert sampler_counts(g) == {**counts, "fallback_fills": 0}

    @pytest.mark.parametrize("kind, rng_seed, digest, counts", [
        pytest.param("ba", 21, "35c8e690ecdc820ae6a0d7c98f3d9406a10f29558a53da1ab1ad4e12fc8e223d",
                     {"log_draws": 357, "log_rejects": 18, "fallback_fills": 3}, id="ba-21"),
        pytest.param("ba", 22, "3dc827d0aaff812e35bd0ab2b7189e59ad7453b2ffe33ab660f1a4b6537868c5",
                     {"log_draws": 355, "log_rejects": 42, "fallback_fills": 4}, id="ba-22"),
        pytest.param("mf", 21, "267c35ea8eb38525a95656e2732f0c62dac63f721e157ed4d0489e520a898a8d",
                     {"log_draws": 357, "log_rejects": 138, "fallback_fills": 3}, id="mf-21"),
        pytest.param("mf", 22, "4480dd83dfb29872dd442802df84acf0c2ee317b0839573ed0c1a0ed6b143e38",
                     {"log_draws": 355, "log_rejects": 22, "fallback_fills": 4}, id="mf-22"),
    ])
    def test_edgeless_total_runs_are_pinned(self, kind, rng_seed, digest, counts):
        g = edgeless_total_run(kind, random_schedule(rng_seed, 5), rng_seed)
        assert g.digest() == digest
        assert sampler_counts(g) == counts


class TestSpatialGrowthStream:
    """lbm and lbm-g draw every fitness value and location before the first
    insertion, then each insertion draws by cells, or races its ball and
    runs its thinned tail; k = 0 insertions consume no random numbers. The
    digests pin that random stream; a change to it changes them."""

    # which draw each pinned setting takes, on the runs of
    # `test_digest_is_pinned` ("small") and `test_benchmark_variants_are_pinned`
    @pytest.mark.parametrize("size, kind, options, cells", [
        pytest.param("small", "lbm", {}, True, id="lbm"),
        pytest.param("small", "lbm-g", {}, False, id="lbm-g"),
        pytest.param("small", "lbm", {"gamma_regime": "const"}, True, id="lbm-const"),
        pytest.param("small", "lbm", {"gamma_regime": "linear"}, False, id="lbm-linear"),
        pytest.param("small", "lbm", {"gamma_regime": "sqrt"}, False, id="lbm-sqrt"),
        pytest.param("small", "lbm", {"dim": 1}, True, id="lbm-dim1"),
        pytest.param("small", "lbm", {"dim": 4}, False, id="lbm-dim4"),
        pytest.param("small", "lbm-g", {"sigma": 0.0}, True, id="lbm-g-sigma0"),
        pytest.param("small", "lbm-g", {"rho": 0.0}, False, id="lbm-g-rho0"),
        pytest.param("small", "lbm-g", {"shift_unit": "nodes", "shift_every": 5}, False,
                     id="lbm-g-nodes"),
        pytest.param("benchmark", "lbm", {"gamma_regime": "log"}, True, id="bench-lbm-log"),
        pytest.param("benchmark", "lbm", {"gamma_regime": "linear"}, False,
                     id="bench-lbm-linear"),
        pytest.param("benchmark", "lbm-g", {"sigma": 1.5, "shift_every": 12}, False,
                     id="bench-lbm-g"),
        pytest.param("benchmark", "lbm", {"degree_mode": "total"}, True, id="bench-lbm-total"),
        pytest.param("benchmark", "lbm-g", {"degree_mode": "total", "sigma": 1.5,
                                            "shift_every": 12}, False, id="bench-lbm-g-total"),
        pytest.param("benchmark", "lbm", {"dim": 3}, False, id="bench-lbm-dim3"),
    ])
    def test_draw_choice_is_pinned(self, size, kind, options, cells, monkeypatch):
        """The draw `choose_draw` picks, and the generator's state when the
        insertion pass starts, recorded without growing: the same on the
        ball draw, so the choice reads no random number."""
        if size == "small":
            seed = synthetic_seed(n_nodes=50, rng_seed=3)
            schedule = corpus_like_schedule(n_nodes=400, start_year=1976, end_year=1985,
                                            rng_seed=4)
        else:
            seed = synthetic_seed()
            schedule = corpus_like_schedule(n_nodes=3000)
        model = make_model(kind, **options)
        g0 = init_from_seed(seed.nodes, seed.edges, model, 5)
        passes = []

        class Started(Exception):
            pass

        def start(log, degrees, entry, gains, cited, rng, near=None):
            passes.append((isinstance(near, spatial.Cells), rng.bit_generator.state))
            raise Started

        monkeypatch.setattr(IncrementLog, "grow", start)
        for balls in (False, True):
            if balls:
                force_balls(monkeypatch)
            with pytest.raises(Started):
                run_simulation(g0, schedule, model, 6)
        assert [took for took, _ in passes] == [cells, False]
        assert passes[0][1] == passes[1][1]

    @pytest.mark.parametrize("kind, options, digest", [
        pytest.param("lbm", {},
                     "4a502491d0edf6073e1889cb8233df4e7cef1ae4af454492e58654b6ac6f4682",
                     id="lbm"),
        pytest.param("lbm-g", {},
                     "673db28192139cb0f54127817b3a1c612c1184a53170fd1d3c6e754e121d9bd6",
                     id="lbm-g"),
        pytest.param("lbm", {"gamma_regime": "const"},
                     "a4ede85a36e494314ebfc0f53522c5d8762195b12126e1e4ddf9d096ce48d418",
                     id="lbm-const"),
        pytest.param("lbm", {"gamma_regime": "linear"},
                     "9d41f498c5d67b89115c8f39e892b9736f89b8741a83690ac653ee15580b169a",
                     id="lbm-linear"),
        pytest.param("lbm", {"gamma_regime": "sqrt"},
                     "beae2b0789e0e8c7b7ed45bd6baca4c1175befb3cf6a9bdc56dce4fb4b3cf8e2",
                     id="lbm-sqrt"),
        pytest.param("lbm", {"dim": 1},
                     "7c215b50a629a9cf663feb2be0ffa33a28d3f06383e06c8d347c6bc77c5ad8f0",
                     id="lbm-dim1"),
        pytest.param("lbm", {"dim": 4},
                     "1097dc4fc2c2691c2ec3941cc5e3739907851c2ab7cf044bf234d61290b15004",
                     id="lbm-dim4"),
        pytest.param("lbm-g", {"sigma": 0.0},
                     "aaf8c2d47aaa489d73f632b23e8dcc5d9e61bdb4a2de1b3d7c58887948f8d83d",
                     id="lbm-g-sigma0"),
        pytest.param("lbm-g", {"rho": 0.0},
                     "da5c3e360d86ae9ca68f857583410bff0dfe6d89ad0a2d70298bfc1b0bc814cf",
                     id="lbm-g-rho0"),
        pytest.param("lbm-g", {"shift_unit": "nodes", "shift_every": 5},
                     "8a0afc654b3d0061fcbb9efc69ca1b71e21f537263fc69475607af77b9c0ef8c",
                     id="lbm-g-nodes"),
    ])
    def test_digest_is_pinned(self, kind, options, digest):
        seed = synthetic_seed(n_nodes=50, rng_seed=3)
        schedule = corpus_like_schedule(n_nodes=400, start_year=1976, end_year=1985,
                                        rng_seed=4)
        assert any(k == 0 for y in schedule.years for k in schedule.entries[y])
        model = make_model(kind, **options)
        g0 = init_from_seed(seed.nodes, seed.edges, model, 5)
        assert run_simulation(g0, schedule, model, 6).digest() == digest

    # the variants the grow-spatial benchmark runs, at half its size: enough
    # insertions to reach fine grid levels and many tail segments, or many
    # windows of cell distances; then zero-weight nodes and a
    # three-dimensional grid
    @pytest.mark.parametrize("kind, options, digest, counts", [
        pytest.param("lbm", {"gamma_regime": "log"},
                     "28a0e1bb4df787363eb8a60a9c4cf8a7dfdbfc6657d3fb0a5e4114a0aba156c7",
                     {"cell_draws": 6441, "cell_rejects": 5877},
                     id="lbm-log"),
        pytest.param("lbm", {"gamma_regime": "linear"},
                     "c02666aa026b5bb963a04fd24eb8ee9ad258394d98b6104a873f446a0be80359",
                     {"ball_draws": 6441},
                     id="lbm-linear"),
        pytest.param("lbm-g", {"sigma": 1.5, "shift_every": 12},
                     "d5818af7f276f7df018f0ad5c724969e11754dc09733d3d93e147069c5d40289",
                     {"ball_draws": 6390, "tail_draws": 51, "tail_proposed": 3863,
                      "tail_accepted": 51},
                     id="lbm-g"),
        # zero-weight nodes (k = 0 under "total") sit in the balls
        pytest.param("lbm", {"degree_mode": "total"},
                     "c3d844a80d6c2ac92b1133ad8b6be3aabcc318184d115d8482ea3377c04726e0",
                     {"cell_draws": 6441, "cell_rejects": 4535},
                     id="lbm-total"),
        pytest.param("lbm-g", {"degree_mode": "total", "sigma": 1.5, "shift_every": 12},
                     "3085b2bb7e7818d5d760193c99d667a745602703ce8b91beefd9f614c1ef960f",
                     {"ball_draws": 6403, "tail_draws": 38, "tail_proposed": 4169,
                      "tail_accepted": 38},
                     id="lbm-g-total"),
        pytest.param("lbm", {"dim": 3},
                     "4aa4f8f3e90cd6e20bdc62d8c41af421c34a4e5d55da60587257cc44154373ed",
                     {"ball_draws": 3519, "tail_draws": 2922, "tail_proposed": 62568,
                      "tail_accepted": 2922},
                     id="lbm-dim3"),
    ])
    def test_benchmark_variants_are_pinned(self, kind, options, digest, counts):
        seed = synthetic_seed()
        schedule = corpus_like_schedule(n_nodes=3000)
        model = make_model(kind, **options)
        g0 = init_from_seed(seed.nodes, seed.edges, model, 5)
        g = run_simulation(g0, schedule, model, 6)
        assert g.digest() == digest
        # every counter, the ones left out of `counts` at 0
        assert {name: g.sampler[name] for name in citegrow.sampling.COUNTERS
                if g.sampler[name]} == counts


class TestSubspaceShifts:
    def run_shifts(self, schedule, **model_kw):
        # const decay so a one-node seed is legal (log needs n >= 2)
        seed = SeedNetwork(nodes=((0, 1970),), edges=())
        model = make_model("lbm-g", gamma_regime="const", gamma_const=1.0,
                           **model_kw)
        return grow(model, seed, schedule, rng_seed=1).subspace_shifts

    def test_monthly_in_120_node_year(self):
        schedule = YearSchedule({1976: [1] * 120})
        assert self.run_shifts(schedule, shift_every=1) == 12

    def test_yearly_across_two_years(self):
        schedule = YearSchedule({1976: [1] * 4, 1977: [1] * 4})
        assert self.run_shifts(schedule, shift_every=12) == 2

    def test_zero_rho_still_counts(self):
        # a walk step of scale 0 keeps the mean where it is but is still a shift
        schedule = YearSchedule({1976: [1] * 120})
        assert self.run_shifts(schedule, shift_every=1, rho=0.0) == 12

    def test_month_schedule_tolerance(self):
        # every two months in a 12-node year: the sixth shift is owed at
        # 1977.0, which the sub-year clock reaches only to within rounding
        schedule = YearSchedule({1976: [1] * 12})
        assert self.run_shifts(schedule, shift_every=2) == 6

    def test_every_node(self):
        schedule = YearSchedule({1976: [1, 1, 1], 1978: [1, 1]})
        assert self.run_shifts(schedule, shift_unit="nodes", shift_every=1) == 5

    def test_nodes_due(self):
        schedule = YearSchedule({1976: [1] * 7})
        assert self.run_shifts(schedule, shift_unit="nodes", shift_every=3) == 2

    def test_shift_step_scale(self):
        # sigma 0 puts every node on the mean of its insertion, so the walk
        # from the centre shows in the locations; k = 0 keeps the run cheap
        seed = SeedNetwork(nodes=((0, 1970),), edges=())
        model = make_model("lbm-g", gamma_regime="const", sigma=0.0, rho=0.3,
                           shift_unit="nodes", shift_every=1)
        g = grow(model, seed, YearSchedule({1976: [0] * 20_000}), rng_seed=4)
        np.testing.assert_array_equal(g.locations[1], [0.5, 0.5])
        steps = np.diff(g.locations[1:], axis=0)
        assert g.subspace_shifts == 20_000
        assert steps.std(axis=0) == pytest.approx([0.3, 0.3], abs=0.01)

    def test_gap_years_catch_up(self):
        # 1976 ends with the clock at 1977.0 after 12 shifts; the lone 1979
        # insertion lands at 1980.0, owing all 36 months in between
        schedule = YearSchedule({1976: [1] * 12, 1979: [1]})
        shifts = self.run_shifts(schedule, shift_every=1)
        assert shifts == 12 + 36

    def test_plain_lbm_never_shifts(self, tiny_seed, tiny_schedule):
        g = grow(make_model("lbm"), tiny_seed, tiny_schedule)
        assert g.subspace_shifts == 0

    @pytest.mark.parametrize("schedule, options", [
        pytest.param(corpus_like_schedule(n_nodes=3000), {"sigma": 1.5, "shift_every": 12},
                     id="benchmark"),
        pytest.param(corpus_like_schedule(n_nodes=3000), {}, id="monthly"),
        pytest.param(YearSchedule({1976: [1] * 12}), {"shift_every": 2}, id="tolerance"),
        pytest.param(YearSchedule({1975: [], 1976: [1] * 12, 1979: [1], 1980: [], 1981: [2] * 7}),
                     {"shift_every": 0.5, "dim": 3}, id="gap-and-empty-years"),
        pytest.param(YearSchedule({1976: [1] * 50, 1977: [0] * 13}),
                     {"shift_unit": "nodes", "shift_every": 3}, id="nodes"),
        pytest.param(YearSchedule({1976: [1] * 40}), {"rho": 0.0, "dim": 1}, id="rho0"),
        pytest.param(YearSchedule({1976: [1] * 40}), {"sigma": 0.0}, id="sigma0"),
        pytest.param(YearSchedule({1976: []}), {}, id="no-insertions"),
    ])
    def test_clock_matches_the_insertion_walk(self, schedule, options):
        # the clock and the draws run over arrays; the locations, the step
        # count and the generator state after them are the walk's
        model = make_model("lbm-g", **options)
        rng, reference_rng = np.random.default_rng(3), np.random.default_rng(3)
        locations, shifts = citegrow.simulate._scheduled_locations(model, schedule, rng)
        expected, expected_shifts = walk_reference(model, schedule, reference_rng)
        assert shifts == expected_shifts
        assert locations.shape == expected.shape and np.array_equal(locations, expected)
        assert rng.bit_generator.state == reference_rng.bit_generator.state


class TestScheduleValidation:
    def test_schedule_must_start_after_seed(self, tiny_seed):
        with pytest.raises(ValidationError, match="seed"):
            grow(make_model("ba"), tiny_seed, YearSchedule({1974: [1]}))

    def test_empty_schedule_returns_seed(self, tiny_seed):
        g = grow(make_model("ba"), tiny_seed, YearSchedule({}))
        assert g.n_nodes == tiny_seed.n_nodes

    def test_later_out_degree_beyond_the_network(self, tiny_seed, monkeypatch):
        # the fourth scheduled node meets 7 nodes but asks for 8; the run
        # stops before its first draw
        def no_draw(*args):
            raise AssertionError("drew before rejecting the schedule")

        monkeypatch.setattr(IncrementLog, "grow", no_draw)
        schedule = YearSchedule({1976: [1, 1], 1977: [2, 8]})
        with pytest.raises(SimulationError, match=re.escape(
                "year 1977: scheduled out-degree 8 exceeds the 7 existing nodes")):
            grow(make_model("ba"), tiny_seed, schedule)

    def test_dim_mismatch_between_seed_and_model(self, tiny_seed, tiny_schedule):
        g0 = init_from_seed(tiny_seed.nodes, tiny_seed.edges,
                            make_model("lbm", dim=3), 0)
        with pytest.raises(ValidationError, match="dim"):
            run_simulation(g0, tiny_schedule, make_model("lbm", dim=2), 0)
