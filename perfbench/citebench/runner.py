"""Command line, round loop and result printing."""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from importlib import metadata
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import citegrow

from . import tracing
from .reference import Reference
from .workloads import WORKLOADS, make_workload

OUT_DIR = Path(__file__).resolve().parent.parent / "out"
SETUP_REPEATS = 3
SELF_SUM_TOLERANCE = 0.01

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "pipeline_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="keep starting rounds until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--nodes", type=int, default=None,
                   help="override the schedule size (smoke tests only)")
    return p.parse_args(argv)


def version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


class Run:
    """Collects pipelines, failures and timings of one benchmark run."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.pipelines = []
        self.failures: list[str] = []

    def round(self, api, r: int, root=nullcontext()) -> float:
        """Run round r; returns its wall seconds."""
        t0 = perf_counter()
        with root:
            outcomes = self.workload.round(api, self.seed, r)
        wall = perf_counter() - t0
        for out in outcomes:
            print("pipeline " + json.dumps({"workload": self.workload.name, "seed": self.seed,
                                            **out.as_json_dict()}), flush=True)
            for msg in out.failures:
                print(f"FAILED {self.workload.name} {out.label} round {out.round}: {msg}",
                      file=sys.stderr, flush=True)
        self.pipelines += outcomes
        return wall

    def fail(self, msg: str) -> None:
        print(f"FAILED {self.workload.name}: {msg}", file=sys.stderr, flush=True)
        self.failures.append(msg)

    @property
    def failed(self) -> int:
        return sum(1 for out in self.pipelines if out.failures)


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing citegrow from these sources,
    which is what every command-line use pays before any work."""
    env = {**os.environ, "PYTHONPATH": str(Path(citegrow.__file__).parent.parent)}
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import citegrow"], env=env, check=True)
    return perf_counter() - t0


def main(argv, nproc: int) -> int:
    args = parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{args.workload}-") as workdir:
        return _main(args, nproc, Path(workdir))


def _main(args, nproc: int, workdir: Path) -> int:
    machine = {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "threads": {var: os.environ.get(var) for var in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("machine " + json.dumps(machine), flush=True)

    workload = make_workload(args.workload, workdir, args.nodes)
    run = Run(workload, args.seed)
    ref = Reference(workload.reference_kernel)
    ref.tick()
    setups = []
    for _ in range(SETUP_REPEATS):
        import_s = import_seconds()
        setups.append({**workload.setup(args.seed), "import_s": import_s})
        ref.tick()
    for msg in setups[0]["failures"]:
        run.fail(f"set-up: {msg}")
    if len({s["fingerprint"] for s in setups}) != 1:
        run.fail("repeated set-ups with one seed built different inputs")
    setup_walls = [s["import_s"] + s["total_s"] for s in setups]

    if args.trace:
        metrics, units = traced(run, args, setups), tracing.PER_LAYER_UNITS
    else:
        metrics, units = untraced(run, args, setup_walls, ref), END_TO_END_UNITS

    attempted, failed = len(run.pipelines), run.failed
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(f"metric failed_frac {failed / attempted!r} ratio")
    print(json.dumps({
        "correct": failed == 0 and not run.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }), flush=True)
    return 0


def untraced(run: Run, args, setup_walls: list[float], ref: Reference) -> dict:
    """End-to-end metrics. Rounds run until ``--seconds`` have passed; the
    reference kernel is timed after each, and every time is scaled by the
    kernel times around it (see reference.py). A round's time is the sum of
    its pipelines' times, which leaves out the checks; ``pipeline_s`` is
    the median over models of each model's median pipeline time. The
    unscaled medians are printed on an ``unscaled`` line for information."""
    api = tracing.plain_api()
    first = len(ref.wall) - 1  # the tick taken just before round 0
    start = perf_counter()
    r = 0
    while r == 0 or perf_counter() - start < args.seconds:
        run.round(api, r)
        ref.tick()
        r += 1
    rounds = [[out for out in run.pipelines if out.round == k] for k in range(r)]
    walls = [sum(out.wall_s for out in outs) for outs in rounds]
    cpus = [sum(out.cpu_s for out in outs) for outs in rounds]
    by_model: dict[str, list[float]] = {}
    for out in run.pipelines:
        by_model.setdefault(out.label, []).append(
            out.wall_s * ref.wall_factor(first + out.round))
    print("unscaled " + json.dumps({
        "setup_s": median(setup_walls),
        "run_s": median(walls),
        "pipeline_s": median(out.wall_s for out in run.pipelines),
        "cpu_s": median(cpus),
        "reference_s": median(ref.wall),
        "rounds": r,
    }), flush=True)
    return {
        "setup_s": median(w * ref.wall_factor(i) for i, w in enumerate(setup_walls)),
        "run_s": median(w * ref.wall_factor(first + k) for k, w in enumerate(walls)),
        "pipeline_s": median(median(ts) for ts in by_model.values()),
        "cpu_s": median(c * ref.cpu_factor(first + k) for k, c in enumerate(cpus)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(run: Run, args, setups) -> dict:
    """Alternate an untraced and a traced round on the same inputs, so the
    tracing overhead is measured on identical work."""
    plain = tracing.plain_api()
    tracer = tracing.Tracer()
    untraced_walls, traced_walls = [], []
    start = perf_counter()
    r = 0
    while r == 0 or perf_counter() - start < args.seconds:
        untraced_walls.append(run.round(plain, r))
        with tracer.installed() as api:
            traced_walls.append(run.round(api, r, tracer.span(tracing.ROOT_SPAN)))
        r += 1
    setup = {"seed_s": median(s["seed_s"] for s in setups),
             "schedule_s": median(s["schedule_s"] for s in setups)}
    metrics = tracing.layer_metrics(tracer, r, traced_walls, untraced_walls, setup)
    if abs(metrics["trace.self_sum_frac"] - 1.0) > SELF_SUM_TOLERANCE:
        run.fail(f"layer self times add up to {metrics['trace.self_sum_frac']:.4f} "
                 "of the traced body time")
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz"
    tracer.write(path)
    print(f"spans written to {path}", flush=True)
    return metrics
