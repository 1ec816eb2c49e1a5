import hashlib

import numpy as np
import pytest

from citegrow import (
    GrowthGraph,
    SeedNetwork,
    ValidationError,
    YearSchedule,
    corpus_like_schedule,
    init_from_seed,
    load_graph,
    loads_graph,
    make_model,
    run_simulation,
    synthetic_seed,
)
from citegrow import graph as graph_module
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
        text = "N 0 1970 0.0 1.0\nN 2 1971 0.0 1.0\n"
        with pytest.raises(ValidationError, match="node id 2 out of order"):
            loads_graph(text)

    def test_loads_rejects_edge_out_of_range(self):
        text = "N 0 1970 0.0 1.0\nE 0 5\n"
        with pytest.raises(ValidationError, match=r"edge \(0, 5\) references a missing node"):
            loads_graph(text)

    @pytest.mark.parametrize("edges, reason", [
        ("E 0 1", r"edge \(0, 1\) cites a later insertion position"),
        ("E 1 1", r"edge \(1, 1\) is a self-citation"),
        ("E 2 1", r"edge \(2, 1\) cites a later year \(1995 > 1993\)"),
        ("E 1 0\nE 2 0\nE 1 0", r"edge \(1, 0\) appears twice"),
    ])
    def test_loads_rejects_citations_growth_cannot_make(self, edges, reason):
        # the classifier reads a citation of a later paper as one many years
        # after publication, so a dump holding one must not load
        text = "N 0 1990 0.0 1.0\nN 1 1995 0.0 1.0\nN 2 1993 0.0 1.0\n" + edges + "\n"
        with pytest.raises(ValidationError, match=reason):
            loads_graph(text)


# floats whose repr is easy to get wrong: a signed zero, the smallest
# subnormal, exponent forms on both sides and an inexact sum
AWKWARD = [-0.0, 5e-324, 1e-05, 1e+16, 0.1 + 0.2, -2.5, 1.0, 123456.789]


def fixed_graph(dim):
    """Five nodes, two of them seed, whose float columns cycle through
    AWKWARD; `dim` location coordinates per node."""
    n = 5
    return GrowthGraph(
        years=[1970, 1970, 1971, 1973, 1973],
        sub_years=[AWKWARD[i % 8] for i in range(n)],
        fitness=[AWKWARD[(i + 3) % 8] for i in range(n)],
        locations=np.array([[AWKWARD[(i + 2 * j + 5) % 8] for j in range(dim)]
                            for i in range(n)]).reshape(n, dim),
        out_degrees=[0, 0, 2, 1, 2],
        edges=[(2, 0), (2, 1), (3, 2), (4, 0), (4, 3)],
        n_seed=2,
    )


class TestDumpBytes:
    """Exact dump text of fixed graphs, and loads_graph's exact messages."""

    EDGES = "E 2 0\nE 2 1\nE 3 2\nE 4 0\nE 4 3\n"
    GOLDEN = {
        0: ("N 0 1970 -0.0 1e+16\n"
            "N 1 1970 5e-324 0.30000000000000004\n"
            "N 2 1971 1e-05 -2.5\n"
            "N 3 1973 1e+16 1.0\n"
            "N 4 1973 0.30000000000000004 123456.789\n"),
        1: ("N 0 1970 -0.0 1e+16 -2.5\n"
            "N 1 1970 5e-324 0.30000000000000004 1.0\n"
            "N 2 1971 1e-05 -2.5 123456.789\n"
            "N 3 1973 1e+16 1.0 -0.0\n"
            "N 4 1973 0.30000000000000004 123456.789 5e-324\n"),
        3: ("N 0 1970 -0.0 1e+16 -2.5,123456.789,5e-324\n"
            "N 1 1970 5e-324 0.30000000000000004 1.0,-0.0,1e-05\n"
            "N 2 1971 1e-05 -2.5 123456.789,5e-324,1e+16\n"
            "N 3 1973 1e+16 1.0 -0.0,1e-05,0.30000000000000004\n"
            "N 4 1973 0.30000000000000004 123456.789 5e-324,1e+16,-2.5\n"),
    }

    @pytest.mark.parametrize("dim", [0, 1, 3])
    def test_golden_text(self, dim):
        assert fixed_graph(dim).dumps() == self.GOLDEN[dim] + self.EDGES

    @pytest.mark.parametrize("dim", [0, 1, 2, 3])
    def test_round_trip_digest(self, dim):
        g = fixed_graph(dim)
        back = loads_graph(g.dumps(), seed_end=1970)
        assert back.digest() == g.digest()
        # the digest sees bits, so -0.0 and 5e-324 came back exactly
        assert np.signbit(back.sub_years[0]) and back.sub_years[1] == 5e-324

    HEAD = "N 0 1970 0.0 1.0\n"

    @pytest.mark.parametrize("text, message", [
        (HEAD + "X 0 1\n", "line 2: unknown record type 'X'"),
        ("N 0 1970 0.0 1.0 0.5 0.5\n", "line 1: malformed N record"),
        ("N 0 1970 0.0\n", "line 1: malformed record (list index out of range)"),
        ("N 0 1970 0.0 1.0 0.5\nN 1 1971 0.0 1.0 0.5,0.5\n",
         "line 2: inconsistent location dimension"),
        ("N 0 19x0 0.0 1.0\n",
         "line 1: malformed record (invalid literal for int() with base 10: '19x0')"),
        ("N 0 1970 abc 1.0\n",
         "line 1: malformed record (could not convert string to float: 'abc')"),
        ("N 0 1970 0.0 1.0 0.5,\n",
         "line 1: malformed record (could not convert string to float: '')"),
        (HEAD + "N 1 1971 0.0 1.0\nE 1 x\n",
         "line 3: malformed record (invalid literal for int() with base 10: 'x')"),
        (HEAD + "N 1 1971 0.0 1.0\nE 1\n",
         "line 3: malformed record (list index out of range)"),
        (HEAD + "N 2 1971 0.0 1.0\n", "line 2: node id 2 out of order (expected 1)"),
        ("", "graph dump contains no nodes"),
        ("E 1 0\n", "graph dump contains no nodes"),
    ], ids=["unknown-record", "malformed-n", "short-n", "dimension", "int-field",
            "float-field", "empty-coordinate", "edge-field", "short-e", "id-order",
            "empty", "edges-only"])
    def test_rejection_messages(self, text, message):
        with pytest.raises(ValidationError) as err:
            loads_graph(text)
        assert str(err.value) == message


class TestDumpPins:
    """sha256 of the dump text of grown and hand-built graphs. They pin
    the whole text, so a faster dumps must write the same bytes."""

    SEED = synthetic_seed(n_nodes=40, rng_seed=3)
    SCHEDULE = corpus_like_schedule(n_nodes=160, end_year=1985, rng_seed=3)
    PINS = {
        "ba": "449ed15a51cd2fef03161804fad7ad1f75153c916b86c98acbc84cb0ad772b8d",
        "lbm-dim1": "06b66611b6b29bf711c88ddf850656b7828c95c059e57f5ff8299ce31a1e63d9",
        "lbm-dim4": "1396e08d629cfeacbcb9f576e9d677a9344ece29bdb9f67e6cfa177c3e675eac",
        "lbm-g-dim2": "b33c1778a5635490c841bf97c1b582ae656054ffd4a2619c8115e33d897d8a2a",
        "seed-only": "f4b6acc424da3c950b307e3bd6b403633e0c483fc4eae4822e71051a0a45f595",
        "awkward": "accf74ec527616d8cf58b07cd6007cdcb7128558be2cb7aa0cc7fe8846f01f67",
    }

    def grown(self, kind, **options):
        model = make_model(kind, **options)
        g0 = init_from_seed(self.SEED.nodes, self.SEED.edges, model, 11)
        return run_simulation(g0, self.SCHEDULE, model, 11)

    def graph(self, name):
        if name == "ba":
            return self.grown("ba")
        if name == "lbm-dim1":
            return self.grown("lbm", dim=1)
        if name == "lbm-dim4":
            return self.grown("lbm", dim=4)
        if name == "lbm-g-dim2":
            return self.grown("lbm-g", dim=2)
        if name == "seed-only":
            return init_from_seed(self.SEED.nodes, (), make_model("af"), 11)
        floats = [5e-324, 1e16, 0.1 + 0.2, 1 / 3]
        return GrowthGraph(years=[1970, 1971, 1971, 1972], sub_years=floats,
                           fitness=floats[::-1], locations=np.zeros((4, 0)),
                           out_degrees=[0, 1, 1, 2], edges=[(1, 0), (2, 0), (3, 2), (3, 1)],
                           n_seed=1)

    @pytest.mark.parametrize("name", list(PINS))
    def test_dump_digest(self, name):
        text = self.graph(name).dumps()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.PINS[name]

    def test_pinned_graphs_cover_their_cases(self):
        assert self.graph("lbm-g-dim2").locations.min() < 0
        seed_only = self.graph("seed-only")
        assert seed_only.n_edges == 0 and seed_only.dumps().startswith("N 0 ")
        empty = GrowthGraph(years=[], sub_years=[], fitness=[], locations=np.zeros((0, 3)),
                            out_degrees=[], edges=np.zeros((0, 2)), n_seed=0)
        assert empty.dumps() == "\n"
        assert self.graph("awkward").dumps().startswith(
            "N 0 1970 5e-324 0.3333333333333333\nN 1 1971 1e+16 0.30000000000000004\n")


class TestLoaderGrammar:
    """loads_graph reads the grammar in graph.py and nothing looser."""

    HEAD = "N 0 1970 0.0 1.0\nN 1 1971 0.0 1.0\n"

    def test_pieces_join_up(self, monkeypatch):
        # pieces far shorter than a line, and pieces of a few lines
        g = grown_example()
        text = g.dumps()
        for piece in (1, 7, 100):
            monkeypatch.setattr(graph_module, "_PIECE", piece)
            assert loads_graph(text, seed_end=1975).digest() == g.digest()

    def test_fault_in_a_later_piece_names_its_line(self, monkeypatch):
        g = grown_example(kind="ba")
        lines = g.dumps().splitlines()
        at = len(lines) - 2
        lines[at] = lines[at].replace("E ", "E x", 1)
        monkeypatch.setattr(graph_module, "_PIECE", 20)
        with pytest.raises(ValidationError, match=rf"^line {at + 1}: malformed record"):
            loads_graph("\n".join(lines) + "\n")

    def test_last_line_may_end_the_text(self):
        text = fixed_graph(2).dumps()
        assert loads_graph(text[:-1]).digest() == loads_graph(text).digest()

    @pytest.mark.parametrize("text, message", [
        (HEAD.replace("\n", "\r\n"), "line 1: malformed N record"),
        (HEAD.replace(" 1971", "\t1971"), "line 2: malformed N record"),
        (HEAD.replace("1.0\n", "1.0 \n", 1), "line 1: malformed N record"),
        (HEAD + "\nE 1 0\n", "line 3: blank line"),
        (HEAD + "E 1 0\nN 2 1972 0.0 1.0\n", "line 4: N record after the first E record"),
        (HEAD + "E 1 0 7\n", "line 3: malformed E record"),
        (HEAD + "E +1 0\n", "line 3: malformed E record"),
        (HEAD + "E 1000000000000001 0\n", "line 3: malformed E record"),
        (HEAD.replace("1971", "01971.0"), "line 2: malformed record (invalid literal for "
                                          "int() with base 10: '01971.0')"),
        (HEAD.replace("1971", "1_971"), "line 2: malformed N record"),
        (HEAD.replace("0.0 1.0\nN 1", "NaN 1.0\nN 1"), "line 1: malformed N record"),
        (HEAD.replace("1.0\nN 1", "1_0.5\nN 1"), "line 1: malformed N record"),
        (HEAD.replace("1971", "\u0661\u0669\u0667\u0661"), "line 2: malformed N record"),
    ], ids=["crlf", "tab", "trailing-space", "blank-line", "interleaved", "extra-e-field",
            "plus-sign", "wide-integer", "decimal-year", "underscore-integer",
            "capital-nan", "underscore-float", "non-ascii-digits"])
    def test_rejects_what_the_grammar_leaves_out(self, text, message):
        with pytest.raises(ValidationError) as err:
            loads_graph(text)
        assert str(err.value) == message


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
