import itertools
import re

import numpy as np
import pytest
from scipy.stats import chi2

import citegrow.sampling
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

from oracles import distance_decay
from test_sampling import set_probability


_NONE = np.empty(0, dtype=np.int64)


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

    @pytest.mark.parametrize("kind", ["ba", "af", "mf", "lbm", "lbm-g"])
    def test_draws_add_up_to_the_grown_edges(self, kind):
        seed = synthetic_seed(n_nodes=60, rng_seed=3)
        schedule = corpus_like_schedule(n_nodes=600, start_year=1976, end_year=1985,
                                        rng_seed=4)
        g = grow(make_model(kind), seed, schedule, rng_seed=2)
        s = g.sampler
        drawn = s["log_draws"] + s["ball_draws"] + s["tail_draws"] + s["race_draws"]
        assert drawn == g.n_edges - seed.n_edges - g.fallback_fills
        assert (s["log_draws"] == 0) == (kind in ("lbm", "lbm-g"))
        if kind in ("lbm", "lbm-g"):
            assert s["log_rejects"] == 0 and s["dense_handoffs"] == 0
        assert s["tail_accepted"] <= s["tail_proposed"]
        assert s["race_handoffs"] <= s["race_draws"] or s["race_draws"] == 0
        assert s["seconds"] > 0

    def test_many_dimensions_race_all_earlier_nodes(self):
        seed = synthetic_seed(n_nodes=60, rng_seed=3)
        schedule = corpus_like_schedule(n_nodes=300, start_year=1976, end_year=1985,
                                        rng_seed=4)
        g = grow(make_model("lbm", dim=spatial.GRID_DIMS + 1), seed, schedule)
        s = g.sampler
        assert s["tail_proposed"] == 0 and s["tail_draws"] == 0 and s["ball_draws"] == 0
        assert s["race_handoffs"] == np.count_nonzero(g.out_degrees[seed.n_nodes:])
        assert s["race_draws"] == g.n_edges - seed.n_edges - g.fallback_fills

    def test_fills_are_not_draws(self):
        # an edgeless seed under "total" gives every node weight 0
        seed = SeedNetwork(nodes=((0, 1970), (1, 1971)), edges=())
        g = grow(make_model("lbm", degree_mode="total"), seed, YearSchedule({1976: [2]}))
        assert g.fallback_fills == 2
        assert g.sampler["race_handoffs"] == 1 and g.sampler["race_draws"] == 0

    def test_dense_handoffs_finish_with_the_race(self, monkeypatch):
        calls = count_races(monkeypatch)
        s = dominant_fitness_run().sampler
        assert s["dense_handoffs"] == len(calls) > 0
        assert s["race_handoffs"] == s["race_draws"] == 0

    def test_log_rejects_are_repeats(self):
        # a k = 2 draw from weights 2 and 1 repeats its first node until it
        # draws the other: 2/3 * (2/3) / (1/3) + 1/3 * (1/3) / (2/3) = 1.5
        # repeats on average
        log = IncrementLog([2.0, 1.0], max_nodes=2, max_entries=2)
        rng = np.random.default_rng(0)
        for _ in range(4000):
            assert log.sample(2, rng) == [0, 1]
        assert log.counts["log_draws"] == 8000 and log.counts["dense_handoffs"] == 0
        assert log.counts["log_rejects"] / 4000 == pytest.approx(1.5, rel=0.1)

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


def count_races(monkeypatch) -> list:
    """Record the k of every exponential race the sampler runs."""
    race = citegrow.sampling.sample_without_replacement
    calls = []

    def counted(weights, k, rng):
        calls.append(k)
        return race(weights, k, rng)

    monkeypatch.setattr(citegrow.sampling, "sample_without_replacement", counted)
    return calls


def dominant_fitness_run() -> GrowthGraph:
    """An mf run whose seed node 0 holds almost all of the weight and gains
    10000 per citation, so insertions that draw it first finish with the
    dense-share race."""
    n = 5
    g0 = GrowthGraph(years=np.full(n, 1970), sub_years=np.zeros(n),
                     fitness=np.array([10000.0, 1.0, 2.0, 3.0, 1.5]),
                     locations=np.zeros((n, 0)), out_degrees=np.zeros(n, dtype=np.int64),
                     edges=np.zeros((0, 2), dtype=np.int64), n_seed=n)
    schedule = YearSchedule({1976: [2, 3, 1, 2], 1977: [3, 2, 2, 4], 1978: [2, 3, 3, 2]})
    return run_simulation(g0, schedule, make_model("mf"), 8)


def edgeless_total_run() -> GrowthGraph:
    """A ba run under "total" degrees on an edgeless seed: every seed node
    starts at weight 0, so early insertions need uniform fills."""
    seed = SeedNetwork(nodes=tuple((i, 1970 + i) for i in range(6)), edges=())
    schedule = YearSchedule({1976: [2, 3, 1], 1977: [3, 2, 4, 2], 1978: [5, 1, 3]})
    return grow(make_model("ba", degree_mode="total"), seed, schedule, rng_seed=9)


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
        observed[index[tuple(draw(np.random.default_rng(rng_seed)).tolist())]] += 1
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


class TestSpatialSampler:
    """lbm and lbm-g draw from the increment log's weights times the
    distance factor; their law must be the sequential weighted draw without
    replacement, exactly."""

    SEED = TestIncrementLogSampler.SEED
    # const decay keeps lbm's distance factor the same at every network
    # size; lbm-g keeps its log decay, with one mean shift a year rather
    # than twelve to keep the runs short
    OPTIONS = {"lbm": {"gamma_regime": "const", "gamma_const": 1.0},
               "lbm-g": {"shift_every": 12.0}}
    RUNS = 20_000

    @pytest.mark.parametrize("degree_mode", ["in-plus-one", "total"])
    @pytest.mark.parametrize("kind", ["lbm", "lbm-g"])
    def test_matches_exact_enumeration(self, kind, degree_mode):
        model = make_model(kind, degree_mode=degree_mode, **self.OPTIONS[kind])
        g0 = init_from_seed(self.SEED.nodes, self.SEED.edges, model, 1)
        assert_last_insertion_law(g0, model, [3], runs=self.RUNS)

    def test_later_insertion_sees_gains_and_new_node(self):
        # the second insertion's law depends on the first insertion's gains
        # and on the first new node's weight: the fitness it drew at its
        # insertion times its out-degree
        model = make_model("lbm", degree_mode="total", **self.OPTIONS["lbm"])
        g0 = init_from_seed(self.SEED.nodes[:4], self.SEED.edges[:3], model, 2)
        assert_last_insertion_law(g0, model, [2, 2], runs=self.RUNS)

    def test_grid_balls_and_tail_in_growth(self, monkeypatch):
        # one-node blocks send these runs through the grid, the ball race
        # and the tail; the second insertion sees the first one's gains
        monkeypatch.setattr(spatial, "MIN_BLOCK", 1)
        model = make_model("lbm", **self.OPTIONS["lbm"])
        g0 = init_from_seed(self.SEED.nodes, self.SEED.edges, model, 3)
        counts = assert_last_insertion_law(g0, model, [2, 2], runs=self.RUNS // 2)
        assert counts["ball_draws"] > 0 and counts["tail_draws"] > 0

    def test_co_located_nodes(self):
        # sigma 0 (and so rho 0) puts every node on the subspace mean
        model = make_model("lbm-g", sigma=0.0, **self.OPTIONS["lbm-g"])
        g0 = init_from_seed(self.SEED.nodes, self.SEED.edges, model, 1)
        assert_last_insertion_law(g0, model, [3], runs=self.RUNS)


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
        log = IncrementLog(weights[:3] / 2, max_nodes=8, max_entries=32)
        for node in range(3, 8):
            cited = np.arange(3) if node == 3 else _NONE
            log.add_node(cited, weights[:3] / 2 if node == 3 else _NONE, weights[node])
        np.testing.assert_allclose(log.weights, weights)
        ball = next(spatial.balls(locations, np.array([k]), lambda n: gamma, 8))
        # the law's weights, relative to the nearest node's distance factor
        d = np.sqrt(((locations[:8] - locations[8]) ** 2).sum(axis=1))
        return log, ball, log.weights * np.exp(-gamma * (d - d.min()))

    @pytest.fixture(autouse=True)
    def one_node_blocks(self, monkeypatch):
        monkeypatch.setattr(spatial, "MIN_BLOCK", 1)

    def check(self, log, ball, exact, k):
        assert_draw_law(lambda rng: log.sample_near(k, rng, ball), exact, k, self.RUNS)
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
        race = citegrow.sampling.sample_without_replacement
        calls = []

        def counted(weights, k, rng):
            calls.append(k)
            return race(weights, k, rng)

        monkeypatch.setattr(citegrow.sampling, "sample_without_replacement", counted)
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
        assert_draw_law(lambda rng: np.searchsorted(nodes, log.sample_near(2, rng, ball)),
                        law, 2, self.RUNS)
        assert log.counts["race_handoffs"] == self.RUNS

    def test_same_ball_same_draw(self):
        log, ball, _ = self.state(2, 0.5, 3, seed=5)
        a = log.sample_near(3, np.random.default_rng(7), ball)
        b = log.sample_near(3, np.random.default_rng(7), ball)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_tail_acceptance_is_zero_exactly_inside_the_ball(self, dim):
        # the tail drops a proposal inside the ball by its distance alone,
        # on the same bits the ball was gathered with
        locations = np.random.default_rng(dim).random((400, dim))
        tails = 0
        for ball in spatial.balls(locations, np.full(360, 2), lambda n: 2.0, 40):
            earlier = np.arange(ball.node)
            inside = np.isin(earlier, ball.nodes)
            acceptance = ball.tail_acceptance(earlier)
            assert np.all(acceptance[inside] == 0.0)
            outside = acceptance[~inside]
            assert np.all((outside > 0.0) & (outside <= 1.0))
            tails += bool(ball.nodes.size) and bool(outside.size)
        assert tails > 100


class TestLogGrowthStream:
    """ba, af and mf draw only from the increment log; the lbm/lbm-g
    sampler must leave their random stream, and so their graphs, as they
    are."""

    @pytest.mark.parametrize("kind, degree_mode, digest", [
        pytest.param("ba", "in-plus-one",
                     "c1448378d378bf4dcb22e33f7ec22bc90b0341eeebc614ee48c3cb1bb994e7e9",
                     id="ba-in-plus-one"),
        pytest.param("ba", "total",
                     "aa6ebf86fe2e872ed17138a8632bd205856ed21e3bc3c8ca1496772899e5d5d3",
                     id="ba-total"),
        pytest.param("af", "in-plus-one",
                     "e5efc32a75d03ba2583b1f7ea206d26deea24c7eb50151cf6e8849924403cafb",
                     id="af-in-plus-one"),
        pytest.param("af", "total",
                     "a90ac7f491245f01df104b111174d1027d16cabf92f151c85602def121628e0c",
                     id="af-total"),
        pytest.param("mf", "in-plus-one",
                     "089cb49659af32a852c7b17a16cc68a736d3c771c388636fabe43cec8015e290",
                     id="mf-in-plus-one"),
        pytest.param("mf", "total",
                     "b2234ecbdf294b5dc7dda1ad5d9fabb97c37cdab95eabda406bd41995dbb23a8",
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
        assert g.digest() == "72a8fc811b5c95c91b58870b2e2c0ff2ced3e3e6088726aea04b5afc3b90655e"
        assert len(calls) > 0

    def test_uniform_fills_are_pinned(self):
        g = edgeless_total_run()
        assert g.fallback_fills > 0
        assert g.digest() == "497618a0170ee5c8312d07a542287bee397d9b6d2d80c5d2ef97f905b23ed7d6"


class TestSpatialGrowthStream:
    """lbm and lbm-g draw every fitness value and location before the first
    insertion, then each insertion races its ball and runs its thinned tail;
    k = 0 insertions consume no random numbers. The digests pin that random
    stream; a change to it changes them."""

    @pytest.mark.parametrize("kind, options, digest", [
        pytest.param("lbm", {},
                     "78372b2b662da68fe3060860657c9496bd63ab672668b74a2ab5c921ef92bef4",
                     id="lbm"),
        pytest.param("lbm-g", {},
                     "61866bc308c7dc2422e78d139881c727a483d38be0676bd70bd665b1d52c492a",
                     id="lbm-g"),
        pytest.param("lbm", {"gamma_regime": "const"},
                     "db3e0b97a369572166ba1504e04f53847fbd5965238fc0d4fd843f89db490dc4",
                     id="lbm-const"),
        pytest.param("lbm", {"gamma_regime": "linear"},
                     "b874efbe04491c6db14d812ebae4d6ee1b875a54c347ba2e6f490ac397566af3",
                     id="lbm-linear"),
        pytest.param("lbm", {"gamma_regime": "sqrt"},
                     "79f0718984c494c266034fa889cc84b5e9bf9380b6770b597b9c54a96f08f6c2",
                     id="lbm-sqrt"),
        pytest.param("lbm", {"dim": 1},
                     "5d646327647ff85f02b2dd07052f4d372a21639ef4eee1833565bba199023a49",
                     id="lbm-dim1"),
        pytest.param("lbm", {"dim": 4},
                     "1097dc4fc2c2691c2ec3941cc5e3739907851c2ab7cf044bf234d61290b15004",
                     id="lbm-dim4"),
        pytest.param("lbm-g", {"sigma": 0.0},
                     "c9efacd64f7fc73b3968efb6be58b464a138aedf8729b04c3eee7287f0819c26",
                     id="lbm-g-sigma0"),
        pytest.param("lbm-g", {"rho": 0.0},
                     "57c2e8838e93048bdee06e974c36929be28a655a410946b822bcf6e78d0ec414",
                     id="lbm-g-rho0"),
        pytest.param("lbm-g", {"shift_unit": "nodes", "shift_every": 5},
                     "bb5d88c666e55abb4cb69862ec33478adaa50e6e633995ae740d880d925c1d52",
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

        monkeypatch.setattr(IncrementLog, "sample", no_draw)
        schedule = YearSchedule({1976: [1, 1], 1977: [2, 8]})
        with pytest.raises(SimulationError, match=re.escape(
                "year 1977: scheduled out-degree 8 exceeds the 7 existing nodes")):
            grow(make_model("ba"), tiny_seed, schedule)

    def test_dim_mismatch_between_seed_and_model(self, tiny_seed, tiny_schedule):
        g0 = init_from_seed(tiny_seed.nodes, tiny_seed.edges,
                            make_model("lbm", dim=3), 0)
        with pytest.raises(ValidationError, match="dim"):
            run_simulation(g0, tiny_schedule, make_model("lbm", dim=2), 0)
