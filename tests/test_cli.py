import hashlib
import json

import pytest

from citegrow import (
    ModelKind,
    ValidationError,
    load_graph,
    make_model,
    mas_reference,
    trajectory,
    verify_theorem,
)
from citegrow.cli import dispatch
from citegrow.models import MODEL_OPTIONS


@pytest.fixture
def corpus(tmp_path):
    """Small papers/citations pair: 3 seed papers, 12 scheduled."""
    papers = ["s1\t1970", "s2\t1971", "s3\t1973"]
    citations = ["s2\ts1", "s3\ts1"]
    pid = 0
    prev = ["s1", "s2", "s3"]
    for year in range(1976, 1988):
        name = f"p{pid}"
        papers.append(f"{name}\t{year}")
        citations.append(f"{name}\t{prev[pid % len(prev)]}")
        prev.append(name)
        pid += 1
    ppath = tmp_path / "papers.tsv"
    cpath = tmp_path / "citations.tsv"
    ppath.write_text("\n".join(papers) + "\n")
    cpath.write_text("\n".join(citations) + "\n")
    return ppath, cpath


def run(argv):
    return dispatch([str(a) for a in argv])


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert run(["verify-theorem", "--model", "ba", "--frobnicate",
                    "--out", tmp_path / "o"]) == 1

    def test_unknown_subcommand_is_usage_error(self, tmp_path):
        assert run(["transmogrify", "--out", tmp_path / "o"]) == 1

    def test_missing_model_names_the_flag(self, tmp_path, capsys):
        code = run(["simulate", "--out", tmp_path / "o"])
        assert code == 1
        assert "--model" in capsys.readouterr().err

    def test_missing_input_file_is_input_error(self, tmp_path):
        code = run(["classify", "--graph", tmp_path / "absent.txt",
                    "--out", tmp_path / "o"])
        assert code == 2

    def test_classify_rejects_a_citation_of_a_later_paper(self, tmp_path, capsys):
        graph = tmp_path / "graph.txt"
        graph.write_text("N 0 1990 0.0 1.0\nN 1 1995 0.0 1.0\nE 0 1\n")
        code = run(["classify", "--graph", graph, "--cutoff", "1995",
                    "--horizon", "2000", "--out", tmp_path / "o"])
        assert code == 1
        assert "edge (0, 1)" in capsys.readouterr().err

    def test_bad_parameter_combination(self, tmp_path, corpus):
        ppath, cpath = corpus
        code = run(["simulate", "--papers", ppath, "--citations", cpath,
                    "--model", "ba", "--sigma", "2.0", "--out", tmp_path / "o"])
        assert code == 1

    def test_non_finite_option_is_a_bad_parameter(self, tmp_path, corpus, capsys):
        ppath, cpath = corpus
        code = run(["simulate", "--papers", ppath, "--citations", cpath,
                    "--model", "lbm-g", "--sigma", "inf", "--out", tmp_path / "o"])
        assert code == 1
        assert "sigma must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "sweep", "verify-theorem"])
    def test_negative_seed_is_a_bad_argument(self, tmp_path, corpus, capsys, command):
        ppath, cpath = corpus
        ref = tmp_path / "ref.json"
        mas_reference().to_json(ref)
        extra = {"simulate": ["--papers", ppath, "--citations", cpath, "--model", "ba"],
                 "sweep": ["--papers", ppath, "--citations", cpath, "--model", "ba",
                           "--reference", ref, "--runs", "1"],
                 "verify-theorem": ["--model", "ba", "--trials", "1"]}[command]
        code = run([command, *extra, "--seed", "-1", "--out", tmp_path / "o"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["simulate", "sweep", "verify-theorem"])
    def test_unknown_kind_gets_the_library_message(self, tmp_path, corpus, capsys, command):
        ppath, cpath = corpus
        ref = tmp_path / "ref.json"
        mas_reference().to_json(ref)
        extra = {"simulate": ["--papers", ppath, "--citations", cpath],
                 "sweep": ["--papers", ppath, "--citations", cpath, "--reference", ref],
                 "verify-theorem": []}[command]
        check = verify_theorem if command == "verify-theorem" else make_model
        with pytest.raises(ValidationError) as expected:
            check("lbm-x")
        code = run([command, *extra, "--model", "lbm-x", "--out", tmp_path / "o"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {expected.value}\n"

    @pytest.mark.parametrize("text", [
        "not json", "[1, 2]",
        '{"er": NaN, "fr": 0.2, "lr": 0.2, "sr": 0.2, "ot": 0.2}',
        '{"er": Infinity, "fr": 0.2, "lr": 0.2, "sr": 0.2, "ot": 0.2}'])
    @pytest.mark.parametrize("flag", ["--distribution", "--reference"])
    def test_unreadable_distribution_is_a_bad_input(self, tmp_path, capsys, text, flag):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        mas_reference().to_json(good)
        bad.write_text(text)
        files = {"--distribution": good, "--reference": good, flag: bad}
        code = run(["evaluate", *[x for item in files.items() for x in item],
                    "--out", tmp_path / "o"])
        assert code == 1
        assert f"distribution file {bad}" in capsys.readouterr().err

    def test_counts_that_contradict_the_proportions_are_a_bad_input(self, tmp_path, capsys):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        mas_reference().to_json(good)
        bad.write_text(json.dumps({"er": 0.2, "fr": 0.2, "lr": 0.2, "sr": 0.2, "ot": 0.2,
                                   "counts": {"er": 100, "fr": 0, "lr": 0, "sr": 0, "ot": 0}}))
        code = run(["evaluate", "--distribution", bad, "--reference", good,
                    "--out", tmp_path / "o"])
        assert code == 1
        assert f"distribution file {bad}" in capsys.readouterr().err
        assert not (tmp_path / "o" / "evaluation.json").exists()


class TestModelOptionValues:
    """The option table is the only reader of a model option value: a bad
    value exits 1 with the table's message, whichever way it comes in."""

    GOOD = {float: "1.0", int: "2"}
    BAD = {float: "x", int: "2.5", str: "bogus"}

    @pytest.mark.parametrize("opt", MODEL_OPTIONS, ids=lambda opt: opt.name)
    @pytest.mark.parametrize("way", ["simulate", "sweep", "config"])
    def test_bad_value_gets_the_table_message(self, tmp_path, corpus, capsys, opt, way):
        ppath, cpath = corpus
        kind = next(k.value for k in ModelKind if k in opt.kinds)
        bad = self.BAD[opt.type]
        with pytest.raises(ValidationError, match=opt.name) as expected:
            make_model(kind, **{opt.name: bad})
        flag = "--" + opt.name.replace("_", "-")
        inputs = ["--papers", ppath, "--citations", cpath]
        if way == "simulate":
            argv = ["simulate", *inputs, "--model", kind, flag, bad]
        elif way == "sweep":  # the bad value is the second of an axis
            ref = tmp_path / "ref.json"
            mas_reference().to_json(ref)
            good = opt.choices[0] if opt.choices else self.GOOD[opt.type]
            argv = ["sweep", *inputs, "--model", kind, flag, f"{good},{bad}",
                    "--reference", ref, "--runs", "1"]
        else:
            cfg = tmp_path / "model.cfg"
            cfg.write_text(f"model = {kind}\n{opt.name} = {bad}\n")
            argv = ["simulate", *inputs, "--config", cfg]
        assert run([*argv, "--out", tmp_path / "o"]) == 1
        assert capsys.readouterr().err == f"error: {expected.value}\n"

    def test_simulate_takes_one_value_per_option(self, tmp_path, corpus, capsys):
        ppath, cpath = corpus
        code = run(["simulate", "--papers", ppath, "--citations", cpath, "--model", "lbm",
                    "--gamma-regime", "const,log", "--out", tmp_path / "o"])
        assert code == 1
        assert "one value per option: gamma_regime" in capsys.readouterr().err

    def test_config_lists_make_sweep_axes_like_flags(self, tmp_path, corpus):
        ppath, cpath = corpus
        ref = tmp_path / "ref.json"
        mas_reference().to_json(ref)
        cfg = tmp_path / "model.cfg"
        cfg.write_text("model = lbm\ngamma_regime = const, log\ndim = 1\n")
        common = ["sweep", "--papers", ppath, "--citations", cpath, "--reference", ref,
                  "--cutoff", "1978", "--horizon", "1987", "--runs", "1"]
        assert run([*common, "--config", cfg, "--out", tmp_path / "cfg"]) == 0
        assert run([*common, "--model", "lbm", "--gamma-regime", "const,log",
                    "--dim", "1", "--out", tmp_path / "flags"]) == 0
        for name in ("sweep.csv", "sweep_summary.json"):
            assert ((tmp_path / "cfg" / name).read_bytes()
                    == (tmp_path / "flags" / name).read_bytes())
        assert (tmp_path / "cfg" / "sweep.csv").read_text().startswith("gamma_regime,")


class TestPipeline:
    def test_full_chain(self, tmp_path, corpus):
        ppath, cpath = corpus
        ing = tmp_path / "ing"
        assert run(["ingest", "--papers", ppath, "--citations", cpath,
                    "--cutoff", "1987", "--horizon", "1987",
                    "--out", ing]) == 0
        for name in ("seed.graph", "schedule.tsv", "id_map.tsv",
                     "ingest_report.json", "manifest.json"):
            assert (ing / name).exists(), name

        sim = tmp_path / "sim"
        assert run(["simulate", "--seed-graph", ing / "seed.graph",
                    "--schedule", ing / "schedule.tsv",
                    "--model", "lbm-g", "--sigma", "1.5", "--seed", "3",
                    "--out", sim]) == 0
        assert (sim / "graph.txt").exists()
        assert (sim / "model.cfg").exists()

        cls = tmp_path / "cls"
        assert run(["classify", "--graph", sim / "graph.txt",
                    "--seed-end", "1975", "--cutoff", "1978",
                    "--horizon", "1987", "--out", cls]) == 0
        dist = json.loads((cls / "distribution.json").read_text())
        assert set(dist) == {"er", "fr", "lr", "sr", "ot", "counts"}

        ref = tmp_path / "mas.json"
        mas_reference().to_json(ref)
        ev = tmp_path / "ev"
        assert run(["evaluate", "--distribution", cls / "distribution.json",
                    "--reference", ref, "--label", "demo", "--out", ev]) == 0
        payload = json.loads((ev / "evaluation.json").read_text())
        assert payload["model"] == "demo"
        assert 0.0 <= payload["jsd2"] <= 1.0

    def test_simulate_determinism(self, tmp_path, corpus):
        ppath, cpath = corpus
        ing = tmp_path / "ing"
        run(["ingest", "--papers", ppath, "--citations", cpath, "--out", ing])
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["simulate", "--seed-graph", ing / "seed.graph",
                        "--schedule", ing / "schedule.tsv",
                        "--model", "lbm-g", "--seed", "11", "--out", out]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            digests.append(manifest["outputs"])
        assert digests[0] == digests[1]

    def test_simulate_from_papers_directly(self, tmp_path, corpus):
        ppath, cpath = corpus
        out = tmp_path / "direct"
        assert run(["simulate", "--papers", ppath, "--citations", cpath,
                    "--model", "af", "--seed", "1", "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert str(ppath) in manifest["inputs"]

    def test_simulate_manifest_counts_sampler_draws(self, tmp_path, corpus):
        ppath, cpath = corpus
        out = tmp_path / "sim"
        assert run(["simulate", "--papers", ppath, "--citations", cpath,
                    "--model", "lbm", "--seed", "1", "--out", out]) == 0
        params = json.loads((out / "manifest.json").read_text())["parameters"]
        sampler = params["sampler"]
        graph = load_graph(out / "graph.txt")
        seed_edges = graph.edges[graph.years[graph.edges[:, 0]] <= 1975]
        drawn = sum(sampler[f"{way}_draws"]
                    for way in ("log", "heavy", "ball", "tail", "cell", "race"))
        assert drawn == graph.n_edges - len(seed_edges) - params["fallback_fills"]
        assert sampler["log_draws"] == 0 and sampler["seconds"] >= 0
        # lbm's log decay over 15 nodes takes the cell draw, which finds no
        # balls and runs no tails
        assert sampler["cell_draws"] > 0 and sampler["cell_rejects"] >= 0
        assert sampler["ball_seconds"] == sampler["tail_seconds"] == 0
        assert sampler["ball_draws"] == sampler["tail_draws"] == 0

    def test_simulate_seeds_attributes_and_growth_apart(self, tmp_path, corpus):
        # one generator for both would hand the first grown node the seed
        # draw that seed node 0 got
        ppath, cpath = corpus
        out = tmp_path / "af"
        assert run(["simulate", "--papers", ppath, "--citations", cpath,
                    "--model", "af", "--seed", "7", "--out", out]) == 0
        graph = load_graph(out / "graph.txt", seed_end=1975)
        assert graph.n_seed == 3
        assert graph.fitness[graph.n_seed] != graph.fitness[0]

    def test_config_file_with_flag_override(self, tmp_path, corpus):
        ppath, cpath = corpus
        cfg = tmp_path / "model.cfg"
        cfg.write_text("model = lbm-g\nsigma = 9.0\n")
        out = tmp_path / "o"
        assert run(["simulate", "--papers", ppath, "--citations", cpath,
                    "--config", cfg, "--sigma", "0.5", "--seed", "2",
                    "--out", out]) == 0
        written = (out / "model.cfg").read_text()
        assert "sigma = 0.5" in written

    def test_sweep_and_sensitivity(self, tmp_path, corpus):
        ppath, cpath = corpus
        ref = tmp_path / "ref.json"
        mas_reference().to_json(ref)

        sw = tmp_path / "sw"
        assert run(["sweep", "--papers", ppath, "--citations", cpath,
                    "--model", "lbm", "--gamma-regime", "const,log",
                    "--gamma-const", "1.0", "--reference", ref,
                    "--cutoff", "1978", "--horizon", "1987",
                    "--min-history", "10",
                    "--runs", "1", "--seed", "0", "--out", sw]) == 0
        lines = (sw / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "gamma_regime,er,fr,lr,sr,ot,jsd2"
        assert len(lines) == 3
        summary = json.loads((sw / "sweep_summary.json").read_text())
        assert "best" in summary
        # one entry per sweep.csv row; each run classifies the same nodes
        rules = json.loads((sw / "manifest.json").read_text())["parameters"]["decision_rules"]
        assert [r["params"]["gamma_regime"] for r in rules] == [
            line.split(",")[0] for line in lines[1:]]
        assert len({sum(r["rules"].values()) for r in rules}) == 1

        sim = tmp_path / "sim2"
        run(["simulate", "--papers", ppath, "--citations", cpath,
             "--model", "ba", "--seed", "4", "--out", sim])
        sens = tmp_path / "sens"
        assert run(["sensitivity", "--graph", sim / "graph.txt",
                    "--cutoff", "1978", "--horizon", "1987",
                    "--activation", "4:6", "--peak-threshold", "0.65,0.75",
                    "--out", sens]) == 0
        lines = (sens / "sensitivity.csv").read_text().strip().splitlines()
        assert lines[0] == "activation,threshold,category,ratio"
        assert len(lines) == 1 + 6 * 5

    def test_classify_classifies_once(self, tmp_path, corpus, monkeypatch):
        ppath, cpath = corpus
        sim = tmp_path / "sim"
        assert run(["simulate", "--papers", ppath, "--citations", cpath,
                    "--model", "ba", "--seed", "4", "--out", sim]) == 0
        calls = []
        inner = trajectory._classify_all
        monkeypatch.setattr(trajectory, "_classify_all",
                            lambda *a, **kw: calls.append(1) or inner(*a, **kw))
        assert run(["classify", "--graph", sim / "graph.txt", "--cutoff", "1978",
                    "--horizon", "1987", "--out", tmp_path / "cls"]) == 0
        assert len(calls) == 1
        rows = (tmp_path / "cls" / "classification.csv").read_text().splitlines()[1:]
        dist = json.loads((tmp_path / "cls" / "distribution.json").read_text())
        assert sum(dist["counts"].values()) == len(rows)

    def test_classify_manifest_counts_decision_rules(self, tmp_path, corpus):
        ppath, cpath = corpus
        sim, cls = tmp_path / "sim", tmp_path / "cls"
        assert run(["simulate", "--papers", ppath, "--citations", cpath,
                    "--model", "lbm-g", "--seed", "2", "--out", sim]) == 0
        assert run(["classify", "--graph", sim / "graph.txt", "--cutoff", "1978",
                    "--horizon", "1987", "--out", cls]) == 0
        rules = json.loads((cls / "manifest.json").read_text())["parameters"]["decision_rules"]
        counts = json.loads((cls / "distribution.json").read_text())["counts"]
        rows = (cls / "classification.csv").read_text().splitlines()[1:]
        assert sum(rules.values()) == len(rows) == sum(counts.values())
        assert {code: rules[code] for code in ("er", "fr", "lr", "sr")} == {
            code: counts[code] for code in ("er", "fr", "lr", "sr")}
        assert rules["ot_low_mean"] + rules["ot_peak_at_horizon"] == counts["ot"]

    def test_ingest_manifest_times_each_stage(self, tmp_path, corpus):
        ppath, cpath = corpus
        assert run(["ingest", "--papers", ppath, "--citations", cpath,
                    "--out", tmp_path]) == 0
        stages = json.loads((tmp_path / "manifest.json").read_text())["parameters"][
            "stage_seconds"]
        assert set(stages) == {"parse_papers", "parse_citations", "build", "write"}
        assert all(seconds >= 0 for seconds in stages.values())

    def test_sweep_list_items_may_carry_blanks(self, tmp_path, corpus):
        ppath, cpath = corpus
        ref = tmp_path / "ref.json"
        mas_reference().to_json(ref)
        sw = tmp_path / "sw"
        assert run(["sweep", "--papers", ppath, "--citations", cpath,
                    "--model", "lbm", "--gamma-regime", "const, log", "--reference", ref,
                    "--cutoff", "1978", "--horizon", "1987",
                    "--runs", "1", "--out", sw]) == 0
        lines = (sw / "sweep.csv").read_text().strip().splitlines()
        assert lines[0].startswith("gamma_regime,")
        assert sorted(line.split(",")[0] for line in lines[1:]) == ["const", "log"]

    def test_sweep_flags_take_lists(self, tmp_path, corpus):
        # one value sets a base option, several make an axis, for every flag
        ppath, cpath = corpus
        ref = tmp_path / "ref.json"
        mas_reference().to_json(ref)
        sw = tmp_path / "sw"
        assert run(["sweep", "--papers", ppath, "--citations", cpath,
                    "--model", "af", "--alpha", "1.5,3", "--xm", "2",
                    "--degree-mode", "in-plus-one,total", "--reference", ref,
                    "--cutoff", "1978", "--horizon", "1987",
                    "--runs", "1", "--out", sw]) == 0
        lines = (sw / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "alpha,degree_mode,er,fr,lr,sr,ot,jsd2"
        assert len(lines) == 1 + 4
        assert run(["sweep", "--papers", ppath, "--citations", cpath,
                    "--model", "lbm", "--dim", "2,x", "--reference", ref,
                    "--out", tmp_path / "bad"]) == 1

    def test_verify_theorem_report(self, tmp_path):
        out = tmp_path / "thm"
        assert run(["verify-theorem", "--model", "mf", "--trials", "5",
                    "--out", out]) == 0
        report = json.loads((out / "theorem_report.json").read_text())
        assert report["pass"] is True

    def test_manifest_structure(self, tmp_path):
        out = tmp_path / "thm"
        argv = ["verify-theorem", "--model", "ba", "--trials", "3",
                "--out", str(out)]
        assert dispatch(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "verify-theorem"
        assert manifest["argv"] == argv
        assert "theorem_report.json" in manifest["outputs"]
        assert manifest["duration_seconds"] >= 0


class TestPinnedOutputs:
    """Byte-for-byte outputs of one simulate -> classify -> sweep ->
    sensitivity chain on the `corpus` fixture: the sha256 of every file
    except manifest.json (which records paths and timings). A change to
    any digest is a change of CLI output and has to be deliberate."""

    PINNED = {
        "sim/graph.txt":
            "17cc224a73446474676a5e24ff196246c0e713d4f1ee843cee6c840d50d1b57a",
        "sim/model.cfg":
            "cb23da14b9212658ceff674fe3f20835126b3a799a3419407a1599f5dca8ca70",
        "cls/classification.csv":
            "f01de1abf1eb29e95ecd14193ffee31ceb4991275478447feb9e5f5ebac57093",
        "cls/distribution.json":
            "98245f6cfdac6a19a3a3b34fa5fa571b7aee30bfe8686e5f15b9bf4facfb5418",
        "sweep/sweep.csv":
            "a84a4d83b544564f54de536993c50041724b4da6312aab85692296ba3612088b",
        "sweep/sweep_summary.json":
            "405a899f77b0998972fe1ea8bda3efe59d0de97cec2892bb8e0aabd7175a420b",
        "sens/sensitivity.csv":
            "c2cc4f247a7c5286307e38bb889e91a362b5db81b5008e00bc55cecfc7b376b1",
    }

    def test_output_digests(self, tmp_path, corpus):
        ppath, cpath = corpus
        ref = tmp_path / "ref.json"
        mas_reference().to_json(ref)
        window = ["--cutoff", "1978", "--horizon", "1987"]
        assert run(["simulate", "--papers", ppath, "--citations", cpath,
                    "--model", "lbm-g", "--sigma", "0.5", "--shift-unit", "nodes",
                    "--shift-every", "3", "--seed", "5", "--out", tmp_path / "sim"]) == 0
        assert run(["classify", "--graph", tmp_path / "sim" / "graph.txt", *window,
                    "--out", tmp_path / "cls"]) == 0
        assert run(["sweep", "--papers", ppath, "--citations", cpath,
                    "--model", "lbm-g", "--sigma", "0.5,1.5", "--shift-every", "1,6",
                    "--gamma-regime", "sqrt", "--reference", ref, *window,
                    "--runs", "2", "--seed", "1", "--out", tmp_path / "sweep"]) == 0
        assert run(["sensitivity", "--graph", tmp_path / "sim" / "graph.txt", *window,
                    "--activation", "4:6", "--peak-threshold", "0.65,0.75",
                    "--out", tmp_path / "sens"]) == 0
        produced = {}
        for out in ("sim", "cls", "sweep", "sens"):
            for path in sorted((tmp_path / out).iterdir()):
                if path.name != "manifest.json":
                    produced[f"{out}/{path.name}"] = hashlib.sha256(
                        path.read_bytes()).hexdigest()
        assert produced == self.PINNED

    def test_seed_graph_input_grows_the_pinned_graph(self, tmp_path, corpus):
        # the ingested seed network read back from its dump is the one
        # --papers/--citations build, so growth gives the pinned graph
        ppath, cpath = corpus
        assert run(["ingest", "--papers", ppath, "--citations", cpath,
                    "--out", tmp_path / "ing"]) == 0
        assert run(["simulate", "--seed-graph", tmp_path / "ing" / "seed.graph",
                    "--schedule", tmp_path / "ing" / "schedule.tsv",
                    "--model", "lbm-g", "--sigma", "0.5", "--shift-unit", "nodes",
                    "--shift-every", "3", "--seed", "5", "--out", tmp_path / "sim"]) == 0
        graph = (tmp_path / "sim" / "graph.txt").read_bytes()
        assert hashlib.sha256(graph).hexdigest() == self.PINNED["sim/graph.txt"]

    def test_ingest_digests(self, tmp_path, corpus):
        # seed.graph's fitness and sub-year columns are pinned only here:
        # simulate --seed-graph reads years and edges alone
        ppath, cpath = corpus
        assert run(["ingest", "--papers", ppath, "--citations", cpath,
                    "--out", tmp_path]) == 0
        produced = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("seed.graph", "schedule.tsv", "id_map.tsv",
                                 "ingest_report.json")}
        assert produced == {
            "seed.graph":
                "25809651b24915678dee03cd43b392949dae7d10c74ec06b5008ba0184a49841",
            "schedule.tsv":
                "653d2a6437f95ee8a491072fe1af848ae00f09a6477a1fdd85a42574ef8c0320",
            "id_map.tsv":
                "c1d18e714f5dfa11d204a4a01ae0171a6797f06dfafe0ee9e6316ce7101174e4",
            "ingest_report.json":
                "30fadcc0018088faaa0ccd6efb592db53e597feb7f9557233574d6c0d49a7885",
        }

    def test_sensitivity_manifest_counts_decision_rules(self, tmp_path, corpus):
        ppath, cpath = corpus
        window = ["--cutoff", "1978", "--horizon", "1987"]
        assert run(["simulate", "--papers", ppath, "--citations", cpath,
                    "--model", "lbm-g", "--seed", "2", "--out", tmp_path / "sim"]) == 0
        assert run(["classify", "--graph", tmp_path / "sim" / "graph.txt", *window,
                    "--out", tmp_path / "cls"]) == 0
        assert run(["sensitivity", "--graph", tmp_path / "sim" / "graph.txt", *window,
                    "--activation", "4:6", "--peak-threshold", "0.65,0.75",
                    "--out", tmp_path / "sens"]) == 0
        rules = {out: json.loads((tmp_path / out / "manifest.json").read_text())
                 ["parameters"]["decision_rules"] for out in ("cls", "sens")}
        rows = (tmp_path / "cls" / "classification.csv").read_text().splitlines()[1:]
        # the defaults are classify's own settings, so the counts agree
        assert rules["sens"] == rules["cls"]
        assert sum(rules["sens"].values()) == len(rows)
