"""Command-line interface.

Subcommands: ingest, simulate, classify, evaluate, sweep, sensitivity,
verify-theorem. Every run writes its outputs plus a manifest.json (command,
parameters, rng seed, input and output sha256 digests, duration) under the
directory given by --out and touches nothing outside it.

Exit codes: 0 success, 1 bad arguments or parameter combinations,
2 missing or unusable input data, 3 internal failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from .errors import CitegrowError, IngestError, ValidationError
from .graph import SeedNetwork, YearSchedule, load_graph
from .ingest import IngestConfig, build_seed_and_schedule, parse_citations, parse_papers
from . import trajectory
from .models import MODEL_OPTIONS, ModelKind, make_model, parse_config_options
from .simulate import init_from_seed, run_simulation
from .trajectory import (
    CATEGORY_ORDER,
    CategoryDistribution,
    ClassifierParams,
    write_classification_csv,
)
from .evaluation import derive_seed, evaluate_model, model_grid, sensitivity, sweep
from .theory import verify_theorem

__all__ = ["main", "dispatch"]


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors; map onto this tool's contract
        code = exc.code if exc.code is not None else 0
        return 1 if code == 2 else int(code)
    started = time.perf_counter()
    try:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs, params, inputs = args.handler(args, out_dir)
        _write_manifest(out_dir, args, list(argv), params, inputs, outputs, started)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (IngestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CitegrowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - report, then signal internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


# -- manifest ------------------------------------------------------------------

def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: Path, args, argv: list, params: dict, inputs: list,
                    outputs: list, started: float) -> None:
    manifest = {
        "command": args.command,
        "argv": argv,
        "parameters": params,
        "inputs": {str(p): _sha256_file(p) for p in inputs},
        "outputs": {name: _sha256_file(out_dir / name) for name in outputs},
        "duration_seconds": round(time.perf_counter() - started, 3),
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


# -- shared flag groups --------------------------------------------------------

def _add_out(sp) -> None:
    sp.add_argument("--out", required=True, help="output directory (created if missing)")


def _add_window(sp) -> None:
    sp.add_argument("--seed-start", type=int, default=IngestConfig.seed_start)
    _add_classify_window(sp)


def _add_classify_window(sp) -> None:
    sp.add_argument("--seed-end", type=int, default=IngestConfig.seed_end,
                    help="last seed year; seed papers are not classified")
    sp.add_argument("--cutoff", type=int, default=IngestConfig.cutoff,
                    help="last publication year that gets classified")
    sp.add_argument("--horizon", type=int, default=IngestConfig.horizon,
                    help="last year whose citations count")


def _add_sim_inputs(sp) -> None:
    sp.add_argument("--papers", help="papers TSV (id<TAB>year)")
    sp.add_argument("--citations", help="citations TSV (citing<TAB>cited)")
    sp.add_argument("--seed-graph", help="seed network dump (alternative to --papers)")
    sp.add_argument("--schedule", help="schedule TSV (required with --seed-graph)")


def _add_model_flags(sp) -> None:
    """--model, --config and one text flag per model option, its help
    taken from the table; make_model and the table check every value."""
    sp.add_argument("--model", help="one of " + ", ".join(m.value for m in ModelKind))
    sp.add_argument("--config", help="model config file; explicit flags override it")
    for opt in MODEL_OPTIONS:
        rule = ("in {" + ", ".join(opt.choices) + "}" if opt.choices
                else f"{opt.bound[0]} {opt.bound[1]}")
        readers = ", ".join(m.value for m in ModelKind if m in opt.kinds)
        sp.add_argument("--" + opt.name.replace("_", "-"),
                        help=f"{opt.type.__name__} {rule}; read by {readers}")


def _add_classifier_flags(sp) -> None:
    sp.add_argument("--activation", type=int, default=ClassifierParams.activation_period,
                    help="activation period in years")
    sp.add_argument("--peak-threshold", type=float, default=ClassifierParams.peak_threshold)


def _add_graph_flags(sp) -> None:
    """The graph dump to classify, its window and the history it needs."""
    sp.add_argument("--graph", required=True, help="graph dump, as simulate writes it")
    _add_classify_window(sp)
    sp.add_argument("--min-history", type=int, default=ClassifierParams.min_history_years,
                    help="years of citation history a paper needs to be classified")


def _classifier_params(args) -> ClassifierParams:
    return ClassifierParams(activation_period=args.activation,
                            peak_threshold=args.peak_threshold,
                            min_history_years=args.min_history)


def _existing(path, what: str) -> Path:
    """`path` as a Path; a missing file is an input error naming `what`."""
    p = Path(path)
    if not p.exists():
        raise IngestError(f"{what} file not found: {p}")
    return p


# -- model resolution ----------------------------------------------------------

def _collect_model_options(args) -> tuple[str, dict, list]:
    """Kind plus each option's values from --config overlaid with
    explicit flags. A flag or config value is a comma list of text
    values, in table order. Returns (kind, {option: values}, input
    files consumed)."""
    inputs = []
    kind = None
    texts: dict = {}
    if args.config:
        cfg = _existing(args.config, "config")
        kind, texts = parse_config_options(cfg.read_text(encoding="utf-8"))
        inputs.append(cfg)
    kind = args.model or kind
    if kind is None:
        raise ValidationError("a model is required: pass --model or --config")
    values: dict[str, list] = {}
    for opt in MODEL_OPTIONS:
        text = getattr(args, opt.name)
        text = texts.get(opt.name) if text is None else text
        if text is not None:
            values[opt.name] = [part.strip() for part in text.split(",")]
    return kind, values, inputs


def _load_graph_input(args):
    """The --graph dump read with --seed-end, and its path."""
    gpath = _existing(args.graph, "graph")
    return load_graph(gpath, seed_end=args.seed_end), gpath


def _ingest_tsv(args):
    """Parse --papers/--citations into a seed network and schedule under
    the --seed-start/--seed-end/--cutoff/--horizon window. Returns
    (papers, citations, ingest result, input files, seconds per stage)."""
    ppath, cpath = Path(args.papers), Path(args.citations)
    config = IngestConfig(seed_start=args.seed_start, seed_end=args.seed_end,
                          cutoff=args.cutoff, horizon=args.horizon)
    t0 = time.perf_counter()
    papers = parse_papers(ppath)
    t1 = time.perf_counter()
    citations = parse_citations(cpath, {r.id for r in papers.records})
    t2 = time.perf_counter()
    result = build_seed_and_schedule(papers.records, citations.edges, config)
    seconds = {"parse_papers": t1 - t0, "parse_citations": t2 - t1,
               "build": time.perf_counter() - t2}
    return papers, citations, result, [ppath, cpath], seconds


def _load_sim_inputs(args) -> tuple[SeedNetwork, YearSchedule, list]:
    """Seed network and schedule from either input style."""
    if args.seed_graph:
        if not args.schedule:
            raise ValidationError("--seed-graph needs --schedule")
        if args.papers or args.citations:
            raise ValidationError("pass either --seed-graph/--schedule or --papers/--citations")
        gpath, spath = _existing(args.seed_graph, "input"), _existing(args.schedule, "input")
        g = load_graph(gpath)
        seed = SeedNetwork(nodes=tuple(enumerate(g.years.tolist())),
                           edges=tuple(map(tuple, g.edges.tolist())))
        return seed, YearSchedule.from_tsv(spath), [gpath, spath]
    if not (args.papers and args.citations):
        raise ValidationError("pass --papers with --citations, or --seed-graph with --schedule")
    _, _, result, inputs, _ = _ingest_tsv(args)
    return result.seed, result.schedule, inputs


def _parse_value_list(text: str, conv) -> list:
    try:
        return [conv(part.strip()) for part in str(text).split(",") if part.strip()]
    except ValueError:
        raise ValidationError(f"bad value list {text!r}") from None


def _parse_int_range(text: str) -> list[int]:
    """'3:7' (inclusive) or '3,4,5'."""
    s = str(text)
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 2:
            raise ValidationError(f"bad integer range {text!r}; expected lo:hi")
        lo, hi = (int(p) for p in parts)
        if hi < lo:
            raise ValidationError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return _parse_value_list(s, int)


def _parse_float_range(text: str) -> list[float]:
    """'0.45:0.95:0.05' (inclusive, fixed step) or a comma list."""
    s = str(text)
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise ValidationError(f"bad float range {text!r}; expected lo:hi:step")
        lo, hi, step = (float(p) for p in parts)
        if step <= 0 or hi < lo:
            raise ValidationError(f"empty range {text!r}")
        values = []
        k = 0
        while True:
            v = round(lo + k * step, 10)
            if v > hi + 1e-9:
                break
            values.append(v)
            k += 1
        return values
    return _parse_value_list(s, float)


# -- subcommand handlers ---------------------------------------------------------

def _cmd_ingest(args, out_dir: Path):
    papers, citations, result, inputs, seconds = _ingest_tsv(args)
    t0 = time.perf_counter()
    # ba draws no attributes: unit fitness, zero sub-years, no locations
    init_from_seed(result.seed.nodes, result.seed.edges, make_model("ba"), 0).dump(
        out_dir / "seed.graph")
    result.schedule.to_tsv(out_dir / "schedule.tsv")
    with open(out_dir / "id_map.tsv", "w", encoding="utf-8") as fh:
        for paper_id, idx in sorted(result.id_map.items(), key=lambda kv: kv[1]):
            fh.write(f"{paper_id}\t{idx}\n")
    report = {
        "papers_parsed": len(papers.records),
        "papers_malformed": papers.malformed,
        "citations_kept": len(citations.edges),
        "citations_malformed": citations.malformed,
        "citations_unknown": citations.dropped_unknown,
        "citations_self": citations.dropped_self,
        "citations_duplicate": citations.duplicates,
        **result.counters,
    }
    (out_dir / "ingest_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    seconds["write"] = time.perf_counter() - t0
    print(f"ingest: seed {result.seed.n_nodes} nodes / {result.seed.n_edges} edges, "
          f"schedule {result.schedule.total_nodes} nodes / {result.schedule.total_edges} edges")
    params = {"seed_start": args.seed_start, "seed_end": args.seed_end,
              "cutoff": args.cutoff, "horizon": args.horizon,
              "stage_seconds": {stage: round(t, 6) for stage, t in seconds.items()}}
    return (["seed.graph", "schedule.tsv", "id_map.tsv", "ingest_report.json"],
            params, inputs)


def _cmd_simulate(args, out_dir: Path):
    kind, values, inputs = _collect_model_options(args)
    several = [name for name, vs in values.items() if len(vs) > 1]
    if several:
        raise ValidationError(f"simulate takes one value per option: {', '.join(several)}")
    model = make_model(kind, **{name: vs[0] for name, vs in values.items()})
    seed_net, schedule, data_inputs = _load_sim_inputs(args)
    inputs = data_inputs + inputs

    seed_graph = init_from_seed(seed_net.nodes, seed_net.edges, model,
                                derive_seed(args.seed, 0))
    grown = run_simulation(seed_graph, schedule, model, derive_seed(args.seed, 1))
    grown.dump(out_dir / "graph.txt")
    config_text = model.to_config_text()
    (out_dir / "model.cfg").write_text(config_text, encoding="utf-8")
    print(f"simulate: {grown.n_nodes} nodes, {grown.n_edges} edges "
          f"(fallback fills {grown.fallback_fills}, subspace shifts {grown.subspace_shifts})")
    params = {
        "model": model.kind.value,
        "config": config_text,
        "rng_seed": args.seed,
        "fallback_fills": grown.fallback_fills,
        "subspace_shifts": grown.subspace_shifts,
        "sampler": grown.sampler,
    }
    return ["graph.txt", "model.cfg"], params, inputs


def _cmd_classify(args, out_dir: Path):
    graph, gpath = _load_graph_input(args)
    result = trajectory._classify_all(graph, args.cutoff, args.horizon,
                                      _classifier_params(args))
    write_classification_csv(result.rows(), out_dir / "classification.csv")
    dist = result.distribution()
    dist.to_json(out_dir / "distribution.json")
    print("classify: " + ", ".join(
        f"{cat.code}={p:.4f}"
        for cat, p in zip(CATEGORY_ORDER, dist.proportions)))
    run_params = {"cutoff": args.cutoff, "horizon": args.horizon,
                  "activation": args.activation, "peak_threshold": args.peak_threshold,
                  "min_history": args.min_history, "seed_end": args.seed_end,
                  "decision_rules": result.rule_counts()}
    return ["classification.csv", "distribution.json"], run_params, [gpath]


def _cmd_evaluate(args, out_dir: Path):
    dpath = _existing(args.distribution, "distribution")
    rpath = _existing(args.reference, "reference")
    dist = CategoryDistribution.from_json(dpath)
    ref = CategoryDistribution.from_json(rpath)
    report = evaluate_model(dist, ref, label=args.label)
    report.to_json(out_dir / "evaluation.json")
    print(f"evaluate: {args.label} jsd2={report.jsd2:.6f}")
    return (["evaluation.json"],
            {"label": args.label}, [dpath, rpath])


def _cmd_sweep(args, out_dir: Path):
    kind, values, cfg_inputs = _collect_model_options(args)
    # one value sets a base option, several make an axis, in table order;
    # make_model checks the kind and the base, the table each axis value
    base = {name: vs[0] for name, vs in values.items() if len(vs) == 1}
    model_kind = make_model(kind, **base).kind
    axes = {opt.name: [opt.convert(model_kind, v) for v in values[opt.name]]
            for opt in MODEL_OPTIONS if len(values.get(opt.name, ())) > 1}
    points = model_grid(kind, axes, base)

    seed_net, schedule, data_inputs = _load_sim_inputs(args)
    rpath = _existing(args.reference, "reference")
    reference = CategoryDistribution.from_json(rpath)
    result = sweep(points, seed_net, schedule, reference,
                   cutoff_year=args.cutoff, horizon_year=args.horizon,
                   classifier_params=_classifier_params(args), runs_per_point=args.runs,
                   rng_seed=args.seed, jobs=args.jobs)
    result.to_csv(out_dir / "sweep.csv")
    (out_dir / "sweep_summary.json").write_text(
        json.dumps(result.summary_json_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    best = result.best
    print(f"sweep: {len(result.rows)} points, best {best.params} jsd2={best.jsd2:.6f}")
    params = {"model": kind, "axes": {k: list(map(str, v)) for k, v in axes.items()},
              "runs_per_point": args.runs, "rng_seed": args.seed,
              "cutoff": args.cutoff, "horizon": args.horizon,
              # one entry per sweep.csv row, in its order
              "decision_rules": [{"params": {k: str(v) for k, v in row.params.items()},
                                  "rules": row.decision_rules} for row in result.rows]}
    return (["sweep.csv", "sweep_summary.json"], params,
            data_inputs + cfg_inputs + [rpath])


def _cmd_sensitivity(args, out_dir: Path):
    graph, gpath = _load_graph_input(args)
    defaults = ClassifierParams(activation_period=args.default_activation,
                                peak_threshold=args.default_threshold,
                                min_history_years=args.min_history)
    activations = _parse_int_range(args.activation)
    thresholds = _parse_float_range(args.peak_threshold)
    result = sensitivity(graph, args.cutoff, args.horizon,
                         activations, thresholds, defaults)
    result.to_csv(out_dir / "sensitivity.csv")
    print(f"sensitivity: {len(result.rows)} rows over "
          f"{len(activations)}x{len(thresholds)} grid")
    params = {"cutoff": args.cutoff, "horizon": args.horizon,
              "activation_values": activations, "threshold_values": thresholds,
              "default_activation": args.default_activation,
              "default_threshold": args.default_threshold,
              "min_history": args.min_history, "seed_end": args.seed_end,
              "decision_rules": result.decision_rules}
    return ["sensitivity.csv"], params, [gpath]


def _cmd_verify_theorem(args, out_dir: Path):
    report = verify_theorem(args.model, trials=args.trials,
                            size_range=(args.size_min, args.size_max),
                            rng_seed=args.seed)
    report.to_json(out_dir / "theorem_report.json")
    status = "pass" if report.passed else "FAIL"
    print(f"verify-theorem: {report.model} {status} "
          f"(trials {report.trials}, max deviation {report.max_deviation:.3e}, "
          f"violations {report.violations})")
    params = {"model": args.model, "trials": args.trials,
              "size_min": args.size_min, "size_max": args.size_max,
              "rng_seed": args.seed}
    return ["theorem_report.json"], params, []


# -- parser ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citegrow",
        description="Grow synthetic citation networks and score them against "
                    "real trajectory-category distributions.")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("ingest", help="parse TSVs into a seed network and schedule")
    sp.add_argument("--papers", required=True)
    sp.add_argument("--citations", required=True)
    _add_window(sp)
    _add_out(sp)
    sp.set_defaults(handler=_cmd_ingest)

    sp = subs.add_parser("simulate", help="grow one synthetic network")
    _add_sim_inputs(sp)
    _add_model_flags(sp)
    _add_window(sp)
    sp.add_argument("--seed", type=int, default=0,
                    help="root seed; seed-network attributes and growth use seeds derived from it")
    _add_out(sp)
    sp.set_defaults(handler=_cmd_simulate)

    sp = subs.add_parser("classify", help="classify trajectories of a graph dump")
    _add_graph_flags(sp)
    _add_classifier_flags(sp)
    _add_out(sp)
    sp.set_defaults(handler=_cmd_classify)

    sp = subs.add_parser("evaluate", help="score a distribution against a reference")
    sp.add_argument("--distribution", required=True)
    sp.add_argument("--reference", required=True)
    sp.add_argument("--label", default="model")
    _add_out(sp)
    sp.set_defaults(handler=_cmd_evaluate)

    sp = subs.add_parser("sweep", help="score a parameter grid against a reference",
                         description="Each model option given several comma-separated "
                                     "values (flag or config line) is a grid axis.")
    _add_sim_inputs(sp)
    _add_model_flags(sp)
    _add_window(sp)
    sp.add_argument("--reference", required=True)
    _add_classifier_flags(sp)
    sp.add_argument("--min-history", type=int, default=ClassifierParams.min_history_years)
    sp.add_argument("--runs", type=int, default=3, help="runs per grid point")
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    _add_out(sp)
    sp.set_defaults(handler=_cmd_sweep)

    sp = subs.add_parser("sensitivity", help="classifier robustness grid")
    _add_graph_flags(sp)
    sp.add_argument("--activation", default="3:7",
                    help="integer range lo:hi or comma list")
    sp.add_argument("--peak-threshold", default="0.45:0.95:0.05",
                    help="float range lo:hi:step or comma list")
    sp.add_argument("--default-activation", type=int,
                    default=ClassifierParams.activation_period)
    sp.add_argument("--default-threshold", type=float, default=ClassifierParams.peak_threshold)
    _add_out(sp)
    sp.set_defaults(handler=_cmd_sensitivity)

    sp = subs.add_parser("verify-theorem", help="check attachment dynamics by enumeration")
    sp.add_argument("--model", required=True, help="ba, af or mf")
    sp.add_argument("--trials", type=int, default=50)
    sp.add_argument("--size-min", type=int, default=2)
    sp.add_argument("--size-max", type=int, default=30)
    sp.add_argument("--seed", type=int, default=0)
    _add_out(sp)
    sp.set_defaults(handler=_cmd_verify_theorem)

    return parser


if __name__ == "__main__":
    main()
