"""Self-tests of the benchmark: a tiny smoke run of every workload, traced
and untraced, the scaling by the reference kernel, a corrupted graph that
must count as a failed pipeline, and a checkout without sources that must
fail without a result."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import citegrow  # noqa: E402
from citebench import reference, runner, tracing  # noqa: E402
from citebench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "1", "--seconds", "0", "--nodes", "300"]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_spec_lists_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == runner.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--trace", str(trace), *TINY)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert "metric failed_frac 0.0 ratio" in lines
    pipelines = [json.loads(line.split(" ", 1)[1]) for line in lines
                 if line.startswith("pipeline ")]
    assert pipelines and all(p["digest"] and p["counts"] for p in pipelines)


def test_a_unit_is_scaled_by_the_kernel_times_around_it():
    ref = reference.Reference(reference.interpreter_kernel)
    ref.wall, ref.cpu = [0.1, 0.3, 0.2], [0.2, 0.2, 0.4]
    nominal = reference.NOMINAL_S[reference.interpreter_kernel]
    assert ref.wall_factor(0) == pytest.approx(nominal / 0.2)
    assert ref.wall_factor(1) == pytest.approx(nominal / 0.25)
    assert ref.cpu_factor(1) == pytest.approx(nominal / 0.3)


def _duplicate_one_target(graph):
    edges = graph.edges.copy()
    first = int(np.flatnonzero(edges[1:, 0] == edges[:-1, 0])[0])
    edges[first + 1, 1] = edges[first, 1]
    return citegrow.GrowthGraph(
        years=graph.years, sub_years=graph.sub_years, fitness=graph.fitness,
        locations=graph.locations, out_degrees=graph.out_degrees, edges=edges,
        n_seed=graph.n_seed)


def test_duplicated_target_counts_as_failed(monkeypatch, capsys):
    plain_api = tracing.plain_api

    def corrupted_api():
        api = plain_api()
        api.run_simulation = lambda *a, **kw: _duplicate_one_target(
            citegrow.run_simulation(*a, **kw))
        return api

    monkeypatch.setattr(tracing, "plain_api", corrupted_api)
    assert runner.main(["--workload", "grow-fitness", "--trace", "0", *TINY],
                       nproc=1) == 0
    captured = capsys.readouterr()
    assert "repeat a target" in captured.err
    lines = captured.out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    frac = next(float(line.split()[2]) for line in lines
                if line.startswith("metric failed_frac "))
    assert frac > 0


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "grow-fitness", "--trace", "0", *TINY, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
