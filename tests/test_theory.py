import json

import numpy as np
import pytest

from citegrow import (
    TheoryGraph,
    ValidationError,
    exact_expected_change,
    random_theory_graph,
    selection_probabilities,
    theorem_formula,
    verify_theorem,
)

from oracles import entrant_expected_probability


class TestTheoryGraph:
    def test_valid_tree_profile(self):
        g = TheoryGraph(degrees=[1, 2, 1], fitness=[1.0, 1.0, 1.0])
        assert g.t == 3
        assert g.fitness_degree_mass == 4.0

    def test_rejects_bad_degree_sum(self):
        with pytest.raises(ValidationError, match="2\\(t-1\\)"):
            TheoryGraph(degrees=[2, 2, 1], fitness=[1, 1, 1])

    def test_rejects_zero_degree(self):
        with pytest.raises(ValidationError):
            TheoryGraph(degrees=[0, 2, 2], fitness=[1, 1, 1])

    def test_rejects_negative_fitness(self):
        with pytest.raises(ValidationError):
            TheoryGraph(degrees=[1, 1], fitness=[1, -1])

    def test_rejects_single_node(self):
        with pytest.raises(ValidationError):
            TheoryGraph(degrees=[0], fitness=[1])

    def test_random_profiles_valid(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            t = int(rng.integers(2, 40))
            g = random_theory_graph(rng, t)
            assert g.degrees.min() >= 1
            assert int(g.degrees.sum()) == 2 * (t - 1)
            assert g.fitness.min() >= 1.0  # Pareto(2, 1) support


class TestSelectionProbabilities:
    def test_ba_hand_case(self):
        g = TheoryGraph(degrees=[3, 1, 1, 1], fitness=[1, 1, 1, 1])
        p = selection_probabilities("ba", g)
        np.testing.assert_allclose(p, [0.5, 1 / 6, 1 / 6, 1 / 6])

    def test_mf_hand_case(self):
        g = TheoryGraph(degrees=[1, 1], fitness=[3.0, 1.0])
        p = selection_probabilities("mf", g)
        np.testing.assert_allclose(p, [0.75, 0.25])

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        for kind in ("ba", "af", "mf"):
            g = random_theory_graph(rng, 12)
            assert selection_probabilities(kind, g).sum() == pytest.approx(1.0)

    def test_lbm_not_covered(self):
        g = TheoryGraph(degrees=[1, 1], fitness=[1, 1])
        with pytest.raises(ValidationError):
            selection_probabilities("lbm", g)

    def test_unknown_kind_is_a_validation_error(self):
        # not numpy's or the enum's ValueError: the CLI maps this one to exit 1
        g = TheoryGraph(degrees=[1, 1], fitness=[1, 1])
        with pytest.raises(ValidationError, match=r"\['ba', 'af', 'mf'\], not 'foo'"):
            selection_probabilities("foo", g)
        with pytest.raises(ValidationError, match=r"\['ba', 'af', 'mf'\], not 'foo'"):
            verify_theorem("foo", trials=1)


class TestFrozenHandValues:
    def test_ba_two_nodes(self):
        # t=2, both degrees 1: -D_i/(4 t (t-1)) = -1/8
        g = TheoryGraph(degrees=[1, 1], fitness=[1, 1])
        for i in range(2):
            assert theorem_formula("ba", g, 1.0)[i] == pytest.approx(-0.125, abs=1e-15)
            assert exact_expected_change("ba", g, 1.0)[i] == pytest.approx(-0.125, abs=1e-13)

    def test_af_two_nodes(self):
        # unit fitness everywhere: -(1+1)(1+1)/((2+2)(2+1+4)) = -1/7
        g = TheoryGraph(degrees=[1, 1], fitness=[1.0, 1.0])
        for i in range(2):
            assert theorem_formula("af", g, 1.0)[i] == pytest.approx(-1.0 / 7.0, abs=1e-15)
            assert exact_expected_change("af", g, 1.0)[i] == pytest.approx(-1.0 / 7.0, abs=1e-13)


class TestEnumerationProperties:
    @pytest.mark.parametrize("kind", ["ba", "af", "mf"])
    def test_conservation_identity(self, kind):
        # total probability is conserved: what existing nodes lose in
        # expectation, the entrant claims
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = random_theory_graph(rng, int(rng.integers(2, 20)))
            new_fitness = float(rng.uniform(0.1, 3.0))
            changes = exact_expected_change(kind, g, new_fitness)
            entrant = entrant_expected_probability(kind, g, new_fitness)
            assert changes.sum() + entrant == pytest.approx(0.0, abs=1e-12)

    def test_ba_changes_all_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_theory_graph(rng, int(rng.integers(2, 25)))
            assert exact_expected_change("ba", g, 1.0).max() < 0.0

    def test_af_changes_all_negative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = random_theory_graph(rng, int(rng.integers(2, 25)))
            new_fitness = float(rng.uniform(0.5, 2.0))
            assert exact_expected_change("af", g, new_fitness).max() < 0.0

    def test_mf_zero_fitness_node_never_moves(self):
        g = TheoryGraph(degrees=[2, 1, 1], fitness=[0.0, 1.0, 2.0])
        assert exact_expected_change("mf", g, 1.0)[0] == 0.0
        assert theorem_formula("mf", g, 1.0)[0] == 0.0

    def test_ba_agreement_across_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            t = int(rng.integers(2, 31))
            g = random_theory_graph(rng, t)
            exact = exact_expected_change("ba", g, float(rng.uniform(0.1, 5)))
            np.testing.assert_allclose(exact, theorem_formula("ba", g, 1.0), atol=1e-12)

    def test_af_agreement_across_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            t = int(rng.integers(2, 31))
            g = random_theory_graph(rng, t)
            nf = float(rng.uniform(0.1, 5))
            exact = exact_expected_change("af", g, nf)
            np.testing.assert_allclose(exact, theorem_formula("af", g, nf), atol=1e-12)


class TestMultiplicativeBoundary:
    def test_tiny_graph_escapes_the_high_fitness_claim(self):
        # t=2 with a strong entrant: scaling node 0's fitness can never
        # turn its expected change positive, because the entrant (degree 1,
        # fitness 5) outweighs the rest of the network. This is why the
        # scaling check samples larger graphs.
        g = TheoryGraph(degrees=[1, 1], fitness=[1.0, 0.5])
        for factor in 10.0 ** np.arange(9):
            scaled = g.with_fitness(np.array([1.0 * factor, 0.5]))
            assert exact_expected_change("mf", scaled, 5.0)[0] <= 0.0

    def test_scaled_fitness_goes_positive_on_larger_graphs(self):
        rng = np.random.default_rng(7)
        g = random_theory_graph(rng, 15)
        top = int(np.argmax(g.fitness))
        changes = []
        for factor in 10.0 ** np.arange(7):
            scaled = g.fitness.copy()
            scaled[top] *= factor
            changes.append(exact_expected_change("mf", g.with_fitness(scaled), 1.5)[top])
        assert max(changes) > 0.0


class TestVerifyTheorem:
    def test_ba_passes_tight(self):
        report = verify_theorem("ba", trials=50, rng_seed=0)
        assert report.passed
        assert report.max_deviation < 1e-12
        assert report.violations == 0

    def test_af_passes_tight(self):
        report = verify_theorem("af", trials=50, rng_seed=0)
        assert report.passed
        assert report.max_deviation < 1e-12

    def test_mf_passes_with_slack(self):
        report = verify_theorem("mf", trials=50, rng_seed=0)
        assert report.passed
        assert report.max_deviation < 1e-2

    def test_report_json_contract(self, tmp_path):
        report = verify_theorem("ba", trials=5, rng_seed=1)
        path = tmp_path / "r.json"
        report.to_json(path)
        data = json.loads(path.read_text())
        assert set(data) == {"model", "trials", "max_deviation", "violations", "pass"}
        assert data["model"] == "ba"
        assert data["pass"] is True

    def test_rejects_lbm(self):
        with pytest.raises(ValidationError):
            verify_theorem("lbm")

    def test_seed_stability(self):
        a = verify_theorem("ba", trials=10, rng_seed=42)
        b = verify_theorem("ba", trials=10, rng_seed=42)
        assert a.max_deviation == b.max_deviation
