import numpy as np
import pytest

from citegrow import (
    SeedNetwork,
    ValidationError,
    YearSchedule,
    init_from_seed,
    load_graph,
    loads_graph,
    make_model,
    run_simulation,
)
from citegrow.trajectory import _history_matrix


def grown_example(kind="lbm-g", rng_seed=5, tiny_seed=None, tiny_schedule=None):
    seed = tiny_seed or SeedNetwork(
        nodes=((0, 1970), (1, 1971), (2, 1973)), edges=((1, 0), (2, 0)))
    schedule = tiny_schedule or YearSchedule({1976: [2, 1], 1978: [3, 1]})
    model = make_model(kind)
    g0 = init_from_seed(seed.nodes, seed.edges, model, rng_seed)
    return run_simulation(g0, schedule, model, rng_seed)


class TestSeedNetwork:
    def test_basic_properties(self, tiny_seed):
        assert tiny_seed.n_nodes == 4
        assert tiny_seed.n_edges == 3
        assert tiny_seed.years.tolist() == [1970, 1970, 1972, 1974]

    def test_coerces_to_int(self):
        seed = SeedNetwork(nodes=((np.int64(0), 1970.0),), edges=())
        assert seed.nodes == ((0, 1970),)


class TestYearSchedule:
    def test_totals(self, tiny_schedule):
        assert tiny_schedule.total_nodes == 6
        assert tiny_schedule.total_edges == 11
        assert tiny_schedule.years == [1976, 1977, 1979]

    def test_tsv_round_trip(self, tiny_schedule, tmp_path):
        path = tmp_path / "schedule.tsv"
        tiny_schedule.to_tsv(path)
        assert YearSchedule.from_tsv(path) == tiny_schedule

    def test_tsv_round_trip_with_empty_year(self, tmp_path):
        schedule = YearSchedule({1980: [], 1981: [0, 3]})
        path = tmp_path / "s.tsv"
        schedule.to_tsv(path)
        back = YearSchedule.from_tsv(path)
        assert back.entries == {1980: [], 1981: [0, 3]}

    def test_duplicate_year_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            YearSchedule.loads_tsv("1980\t1,2\n1980\t3\n")

    def test_negative_degree_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            YearSchedule({1980: [1, -2]})


class TestGrowthGraphSerialization:
    def test_round_trip_exact(self, tmp_path):
        g = grown_example()
        path = tmp_path / "g.txt"
        g.dump(path)
        back = load_graph(path, seed_end=1975)
        assert back.n_nodes == g.n_nodes
        assert back.n_seed == g.n_seed
        np.testing.assert_array_equal(back.years, g.years)
        np.testing.assert_array_equal(back.edges, g.edges)
        np.testing.assert_array_equal(back.out_degrees, g.out_degrees)
        # float columns must survive the text format bit-for-bit
        np.testing.assert_array_equal(back.sub_years, g.sub_years)
        np.testing.assert_array_equal(back.fitness, g.fitness)
        np.testing.assert_array_equal(back.locations, g.locations)
        assert back.digest() == g.digest()

    def test_round_trip_without_locations(self, tmp_path):
        g = grown_example(kind="ba")
        path = tmp_path / "g.txt"
        g.dump(path)
        back = load_graph(path, seed_end=1975)
        assert back.locations.shape == (g.n_nodes, 0)
        assert back.digest() == g.digest()

    def test_digest_distinguishes_graphs(self):
        a = grown_example(rng_seed=1)
        b = grown_example(rng_seed=2)
        assert a.digest() != b.digest()

    def test_same_seed_same_digest(self):
        assert grown_example(rng_seed=9).digest() == grown_example(rng_seed=9).digest()

    def test_loads_rejects_sparse_ids(self):
        text = "N 0 1970 0.0 1.0 \nN 2 1971 0.0 1.0 \n"
        with pytest.raises(ValidationError):
            loads_graph(text)

    def test_loads_rejects_edge_out_of_range(self):
        text = "N 0 1970 0.0 1.0 \nE 0 5\n"
        with pytest.raises(ValidationError):
            loads_graph(text)


def edge_walk_history(g, node, horizon):
    """Oracle: one node's citations per year offset, by walking the edge
    list directly."""
    manual = np.zeros(horizon - int(g.years[node]) + 1, dtype=np.int64)
    for u, v in g.edges:
        if v == node and g.years[u] <= horizon:
            manual[g.years[u] - g.years[node]] += 1
    return manual


class TestCitationHistory:
    def test_history_matches_manual_recount(self):
        g = grown_example(kind="af", rng_seed=3)
        horizon = int(g.years.max())
        hist = _history_matrix(g, horizon)
        assert hist.shape == (g.n_nodes, horizon - int(g.years.min()) + 1)
        for node in range(g.n_nodes):
            manual = edge_walk_history(g, node, horizon)
            np.testing.assert_array_equal(hist[node, :manual.size], manual)
            # offsets past the horizon stay empty
            assert not hist[node, manual.size:].any()

    def test_horizon_truncates(self):
        # citations from papers after the horizon are dropped
        g = grown_example(kind="ba", rng_seed=4)
        node = 0
        horizon = int(g.years[node]) + 2
        hist = _history_matrix(g, horizon)
        assert int(g.years.max()) > horizon
        assert hist.shape == (g.n_nodes, horizon - int(g.years.min()) + 1)
        np.testing.assert_array_equal(hist[node, :3], edge_walk_history(g, node, horizon))
        assert hist.sum() == int((g.years[g.edges[:, 0]] <= horizon).sum())

    def test_in_degrees_match_edges(self):
        g = grown_example(rng_seed=6)
        manual = np.zeros(g.n_nodes, dtype=np.int64)
        for _, v in g.edges:
            manual[v] += 1
        np.testing.assert_array_equal(g.in_degrees, manual)
