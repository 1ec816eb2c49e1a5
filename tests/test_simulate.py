import itertools

import numpy as np
import pytest
from scipy.stats import chi2

import citegrow.sampling
from citegrow import (
    GrowthGraph,
    SeedNetwork,
    SimulationError,
    ValidationError,
    YearSchedule,
    attachment_weights,
    corpus_like_schedule,
    gamma_value,
    init_from_seed,
    make_model,
    run_simulation,
    synthetic_seed,
)
from citegrow.models import distance_decay
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

    def test_lbmg_seed_locations_from_initial_subspace(self, tiny_seed):
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
                               gamma_value(model.gamma, node))
    return w


def assert_last_insertion_law(g0, model, degs, runs):
    """Grow `degs` (one year) `runs` times and compare the frequency of
    each set the last node cites with its exact probability under the
    sequential law, given the weights the run had reached by then.

    Expected counts sum each run's exact set probabilities; sets expected
    fewer than 5 times are pooled into one bin, and the chi-square
    statistic must stay below its 99.99% quantile."""
    k = degs[-1]
    node = g0.n_nodes + len(degs) - 1
    sets = list(itertools.combinations(range(node), k))
    index = {s: i for i, s in enumerate(sets)}
    observed = np.zeros(len(sets))
    expected = np.zeros(len(sets))
    law: dict = {}
    schedule = YearSchedule({int(g0.years.max()) + 1: list(degs)})
    for rng_seed in range(runs):
        g = run_simulation(g0, schedule, model, rng_seed)
        observed[index[tuple(sorted(g.edges[-k:, 1].tolist()))]] += 1
        weights = tuple(insertion_weights(g, model, node).tolist())
        if weights not in law:
            law[weights] = np.array([set_probability(weights, s) for s in sets])
            assert law[weights].sum() == pytest.approx(1.0)
        expected += law[weights]
    small = expected < 5
    observed = np.append(observed[~small], observed[small].sum())
    expected = np.append(expected[~small], expected[small].sum())
    keep = expected > 0
    stat = float((((observed - expected) ** 2)[keep] / expected[keep]).sum())
    assert stat < chi2.ppf(0.9999, keep.sum() - 1), stat
    assert np.abs(observed - expected).max() / runs < 0.01


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


class TestSpatialGrowthStream:
    """lbm and lbm-g run the exponential race over the log's weights times
    the distance factor, drawing each new node's fitness and location at its
    insertion; skipping the factor and the race on k = 0 insertions consumes
    no random numbers, so their graphs are the ones the per-insertion race
    has always produced."""

    @pytest.mark.parametrize("kind, digest", [
        ("lbm", "344b714efe8f8bfb73d57905ec08c4913a4506b4fbbf732d029b99f75b096f98"),
        ("lbm-g", "f2f874e3f5191aaf023f25c586a11be00415ab0b117af664f94780518cd46cb4"),
    ])
    def test_digest_is_pinned(self, kind, digest):
        seed = synthetic_seed(n_nodes=50, rng_seed=3)
        schedule = corpus_like_schedule(n_nodes=400, start_year=1976, end_year=1985,
                                        rng_seed=4)
        assert any(k == 0 for y in schedule.years for k in schedule.entries[y])
        model = make_model(kind)
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

    def test_every_node(self):
        schedule = YearSchedule({1976: [1, 1, 1], 1978: [1, 1]})
        assert self.run_shifts(schedule, shift_unit="nodes", shift_every=1) == 5

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

    def test_dim_mismatch_between_seed_and_model(self, tiny_seed, tiny_schedule):
        g0 = init_from_seed(tiny_seed.nodes, tiny_seed.edges,
                            make_model("lbm", dim=3), 0)
        with pytest.raises(ValidationError, match="dim"):
            run_simulation(g0, tiny_schedule, make_model("lbm", dim=2), 0)
