"""End-to-end acceptance checks.

Each test prints exactly one line, ``ACCEPTANCE <n> <PASS|FAIL> <detail>``,
and appends the same line to ``acceptance_report.txt`` at the repo root, so
the full scorecard survives a partially red run. The checks pin:

  1-3   exact verification of the attachment-dynamics formulas
  4     squared Jensen-Shannon distance against two independent routes
  5-9   model-behavior targets on a 20k-node corpus-shaped schedule
  10    CLI determinism
  11    optional full-corpus fidelity (needs CITEGROW_DATA_DIR)

Checks 5-9 run the full evaluation pipeline at desk scale (20,000 nodes,
25 simulated years). Checks 5 and 6 pass. Check 6 asserts that additive
fitness beats ba on early risers and that multiplicative fitness beats ba
on steady risers, not on early risers: multiplicative Pareto fitness
concentrates citations on a few dominant-fitness papers (the condensation
of Bianconi & Barabasi, PRL 86, 2001), whose attachment probability alone
can grow (check 3), so they keep rising while most other papers stay
below one citation a year.

Three behavior targets fail at this protocol. They keep their seeds and
bounds, and each detail string prints the measured cause:

  7  papers below one citation a year count as ot, so every simulated mix
     is 96-100% ot and jsd2 ranks the decay regimes by how many papers
     clear that rate; sqrt, not log, wins
  8  make_model ties the walk step rho to sigma, so the sigma axis also
     scales the walk step, and with one step per shift a longer interval
     drifts slower; the committed report reads lr~sigma +0.000,
     er~interval -0.527 and sr~interval +0.000, and the sr share rests on
     single-digit counts
  9  25 ratios miss the band: 20 fr misses at thresholds 0.45, 0.5, 0.9
     and 0.95, and 5 lr misses at thresholds 0.45-0.5, on trajectories
     that peak at a few citations a year
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import jensenshannon
from scipy.stats import spearmanr

import citegrow
from citegrow import (
    CategoryDistribution,
    ClassifierParams,
    category_distribution,
    corpus_like_schedule,
    derive_seed,
    init_from_seed,
    jsd2,
    make_model,
    mas_reference,
    model_grid,
    run_simulation,
    sensitivity,
    sweep,
    synthetic_seed,
    verify_theorem,
)

REPORT_PATH = Path(__file__).resolve().parent.parent / "acceptance_report.txt"

# shared protocol constants: one corpus-shaped schedule, fixed windows,
# fixed root seeds, three runs per model where a criterion needs averaging
CUTOFF, HORIZON = 1991, 2000
RUNS = 3
ROOT_SEED = 42
# worker processes for the sweeps of checks 7 and 8; each run's seed comes
# from its point and run index, so sweep results do not depend on this
JOBS = min(2, os.cpu_count() or 1)


@pytest.fixture(scope="module", autouse=True)
def _fresh_report():
    REPORT_PATH.write_text("")
    yield


def report(n: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    with REPORT_PATH.open("a") as fh:
        fh.write(line + "\n")


@pytest.fixture(scope="module")
def corpus():
    return synthetic_seed(), corpus_like_schedule()


@pytest.fixture(scope="module")
def shared_runs(corpus):
    """Three seeded runs per fitness-ladder model, shared by checks 5/6."""
    seed, sched = corpus
    t0 = time.perf_counter()
    dists: dict[str, list[CategoryDistribution]] = {}
    for kind in ("ba", "af", "mf"):
        model = make_model(kind)
        dists[kind] = []
        for r in range(RUNS):
            g0 = init_from_seed(seed.nodes, seed.edges, model,
                                derive_seed(ROOT_SEED, r, 0))
            g = run_simulation(g0, sched, model, derive_seed(ROOT_SEED, r, 1))
            dists[kind].append(category_distribution(g, CUTOFF, HORIZON))
    return dists, time.perf_counter() - t0


def summed(dists: list[CategoryDistribution], code: str) -> int:
    """Nodes of one category summed over runs."""
    return sum(d.count(code) for d in dists)


def aggregate_er(dists: list[CategoryDistribution]) -> tuple[int, int]:
    """(early-riser nodes, classified nodes) summed over runs."""
    return summed(dists, "er"), sum(int(d.counts.sum()) for d in dists)


def test_01_ba_expected_change_formula():
    t0 = time.perf_counter()
    rep = verify_theorem("ba", trials=50, size_range=(2, 30), rng_seed=0,
                         tolerance=1e-12)
    dt = time.perf_counter() - t0
    ok = rep.passed and rep.max_deviation < 1e-12 and dt < 5.0
    report(1, ok, f"ba dynamics formula max deviation {rep.max_deviation:.2e} "
                  f"(tolerance 1e-12) over 50 graphs, t in [2,30], {dt:.1f}s")
    assert rep.passed and rep.max_deviation < 1e-12
    assert dt < 5.0


def test_02_af_expected_change_formula():
    t0 = time.perf_counter()
    rep = verify_theorem("af", trials=50, size_range=(2, 30), rng_seed=0,
                         tolerance=1e-12)
    dt = time.perf_counter() - t0
    ok = rep.passed and rep.max_deviation < 1e-12 and dt < 5.0
    report(2, ok, f"af dynamics formula max deviation {rep.max_deviation:.2e} "
                  f"(tolerance 1e-12) over 50 graphs, t in [2,30], {dt:.1f}s")
    assert rep.passed and rep.max_deviation < 1e-12
    assert dt < 5.0


def test_03_mf_sign_and_bound():
    t0 = time.perf_counter()
    rep = verify_theorem("mf", trials=50, rng_seed=0, slack=1e-2)
    dt = time.perf_counter() - t0
    ok = rep.passed and dt < 30.0
    report(3, ok, f"mf fitness-scaling turns expected change positive on 50 "
                  f"instances (factor search <= 1e6) and the heavy-mass bound "
                  f"holds to relative slack 1e-2, worst residual "
                  f"{rep.max_deviation:.2e}, {dt:.1f}s")
    assert rep.passed
    assert dt < 30.0


def test_04_jsd2_property_suite():
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    worst_formula = 0.0
    worst_scipy = 0.0
    for _ in range(1000):
        p = rng.dirichlet(np.full(5, rng.uniform(0.3, 3.0)))
        q = rng.dirichlet(np.full(5, rng.uniform(0.3, 3.0)))
        v = jsd2(p, q)
        # independent straight-line evaluation of the definition, base 2
        m = 0.5 * (p + q)
        with np.errstate(divide="ignore", invalid="ignore"):
            kl_pm = np.where(p > 0, p * np.log2(np.divide(p, m, out=np.zeros_like(m),
                                                          where=m > 0)), 0.0)
            kl_qm = np.where(q > 0, q * np.log2(np.divide(q, m, out=np.zeros_like(m),
                                                          where=m > 0)), 0.0)
        direct = 0.5 * float(kl_pm.sum()) + 0.5 * float(kl_qm.sum())
        worst_formula = max(worst_formula, abs(v - direct))
        worst_scipy = max(worst_scipy, abs(v - jensenshannon(p, q, base=2) ** 2))
        assert 0.0 <= v <= 1.0
        assert abs(v - jsd2(q, p)) < 1e-15
        assert jsd2(p, p) < 1e-12
    dt = time.perf_counter() - t0
    ok = worst_formula < 1e-10 and worst_scipy < 1e-10 and dt < 1.0
    report(4, ok, f"1000 random pairs: symmetry, range, zero-iff-equal, "
                  f"direct-formula agreement {worst_formula:.2e}, library "
                  f"agreement {worst_scipy:.2e} (tolerance 1e-10), {dt:.2f}s")
    assert worst_formula < 1e-10
    assert worst_scipy < 1e-10
    assert dt < 1.0


def test_05_ba_cannot_produce_early_risers(shared_runs):
    dists, build_s = shared_runs
    er, total = aggregate_er(dists["ba"])
    prop = er / total
    worst = max(float(d.proportion("er")) for d in dists["ba"])
    ok = prop < 0.01 and worst < 0.01 and build_s < 120.0
    report(5, ok, f"ba early-riser proportion {prop:.5f} aggregate "
                  f"({er}/{total} nodes), worst single run {worst:.5f}, "
                  f"bound 0.01; 9 shared runs built in {build_s:.0f}s")
    assert prop < 0.01
    assert worst < 0.01
    assert build_s < 120.0


def test_06_fitness_unlocks_early_growth(shared_runs):
    # Additive fitness lets young high-fitness nodes rise early. Multiplicative
    # fitness does not: it funnels citations onto the few dominant-fitness
    # nodes, whose attachment probability alone can grow (check 3), so it
    # shows as steady risers while most other papers stay below one citation
    # a year and fall to ot.
    dists, _ = shared_runs
    models = ("ba", "af", "mf")
    er, sr, outside_ot = {}, {}, {}
    for m in models:
        # every model classifies the same nodes: the schedule fixes the years
        er[m], total = aggregate_er(dists[m])
        sr[m] = summed(dists[m], "sr")
        outside_ot[m] = total - summed(dists[m], "ot")
    af_ok = er["af"] > er["ba"]
    mf_ok = sr["mf"] > sr["ba"]

    def per_model(counts: dict) -> str:
        return ", ".join(f"{m} {counts[m]}" for m in models)

    report(6, af_ok and mf_ok,
           f"additive fitness er {er['af']} > ba er {er['ba']}: "
           f"{'ok' if af_ok else 'violated'}; multiplicative fitness sr "
           f"{sr['mf']} > ba sr {sr['ba']}: {'ok' if mf_ok else 'violated'}; "
           f"early risers {per_model(er)}; steady risers {per_model(sr)}; "
           f"papers outside ot {per_model(outside_ot)} (node counts summed "
           f"over {RUNS} runs of {total} classified per model)")
    assert af_ok, "additive fitness must beat ba on early risers"
    assert mf_ok, "multiplicative fitness must beat ba on steady risers"


def test_07_decay_regime_ordering(corpus):
    seed, sched = corpus
    t0 = time.perf_counter()
    winners = []
    tables = []
    for root in (1, 2, 3):
        points = model_grid(
            "lbm", {"gamma_regime": ["const", "linear", "sqrt", "log"]},
            {"gamma_const": 1.0})
        res = sweep(points, seed, sched, mas_reference(), CUTOFF, HORIZON,
                    runs_per_point=2, rng_seed=root, jobs=JOBS)
        winners.append(res.best.params["gamma_regime"])
        tables.append(",".join(f"{r.params['gamma_regime']}={r.jsd2:.3f} "
                               f"(ot {r.distribution.proportion('ot'):.3f})"
                               for r in res.rows))
    dt = time.perf_counter() - t0
    log_wins = winners.count("log")
    ok = log_wins >= 2 and dt < 600.0
    report(7, ok, f"log decay wins {log_wins}/3 sweep repetitions "
                  f"(winners {','.join(winners)}); per-repetition scores "
                  f"with each regime's ot share [{'; '.join(tables)}]; "
                  f"{dt:.0f}s")
    assert log_wins >= 2, (
        "log-decay regime must be the best fit in at least 2 of 3 sweeps")
    assert dt < 600.0


def test_08_subspace_trend_signs(corpus):
    seed, sched = corpus
    t0 = time.perf_counter()
    points = model_grid("lbm-g", {"shift_every": [1, 6, 12],
                                  "sigma": [0.5, 1.5, 3.0]})
    res = sweep(points, seed, sched, mas_reference(), CUTOFF, HORIZON,
                runs_per_point=5, rng_seed=7, jobs=JOBS)
    rows = sorted(res.rows,
                  key=lambda r: (r.params["shift_every"], r.params["sigma"]))
    shift = [r.params["shift_every"] for r in rows]
    sig = [r.params["sigma"] for r in rows]
    lr = [float(r.distribution.proportion("lr")) for r in rows]
    er = [float(r.distribution.proportion("er")) for r in rows]
    sr = [float(r.distribution.proportion("sr")) for r in rows]
    rho_lr, _ = spearmanr(lr, sig)
    rho_er, _ = spearmanr(er, shift)
    rho_sr, _ = spearmanr(sr, shift)
    dt = time.perf_counter() - t0
    # make_model ties the walk step rho to sigma unless rho is given
    steps = ", ".join(f"{pt.params['shift_every']}/{pt.params['sigma']}: "
                      f"{pt.model.rho}" for pt in points)
    ok = rho_lr > 0 and rho_er > 0 and rho_sr < 0 and dt < 900.0
    report(8, ok, f"spearman over 3x3 shift-interval x sigma grid (5 runs "
                  f"per point): lr~sigma {rho_lr:+.3f} (want >0), "
                  f"er~interval {rho_er:+.3f} (want >0), sr~interval "
                  f"{rho_sr:+.3f} (want <0); walk step rho per "
                  f"(interval, sigma) point [{steps}]; largest sr share "
                  f"{max(sr):.5f}; {dt:.0f}s")
    assert rho_lr > 0, "late-riser share should grow with sigma"
    assert rho_er > 0, "early-riser share should grow with the shift interval"
    assert rho_sr < 0, "steady-riser share should shrink with the shift interval"
    assert dt < 900.0


def test_09_classifier_sensitivity_band(corpus):
    seed, sched = corpus
    t0 = time.perf_counter()
    # grid-best subspace parameters from check 8's sweep, fixed run seed
    model = make_model("lbm-g", sigma=1.5, shift_every=12)
    g0 = init_from_seed(seed.nodes, seed.edges, model, derive_seed(3, 0, 0))
    g = run_simulation(g0, sched, model, derive_seed(3, 0, 1))
    acts = [3, 4, 5, 6, 7]
    ths = [round(0.45 + 0.05 * k, 2) for k in range(11)]
    res = sensitivity(g, CUTOFF, HORIZON, acts, ths)
    defined = [r.ratio for r in res.rows if r.ratio is not None]
    out = [(r.activation, r.threshold, r.category, round(r.ratio, 2))
           for r in res.rows
           if r.ratio is not None and not 0.5 <= r.ratio <= 2.0]
    dt = time.perf_counter() - t0
    # summarize the misses as blocks: one category, the activations that
    # miss at the same set of thresholds, and the ratios they reach
    missed_ths: dict[tuple[str, int], list[float]] = {}
    for a, th, cat, _ in out:
        missed_ths.setdefault((cat, a), []).append(th)
    blocks: dict[tuple[str, tuple], list[int]] = {}
    for (cat, a), th_list in sorted(missed_ths.items()):
        blocks.setdefault((cat, tuple(th_list)), []).append(a)
    misses = []
    for (cat, th_list), act_list in blocks.items():
        ratios = [x for a, th, c, x in out
                  if c == cat and a in act_list and th in th_list]
        lo, hi = min(ratios), max(ratios)
        misses.append(f"{cat} {len(ratios)} at activation "
                      f"{','.join(map(str, act_list))} x threshold "
                      f"{','.join(f'{t:g}' for t in th_list)} (ratio "
                      f"{f'{lo:g}' if lo == hi else f'{lo:g}-{hi:g}'})")
    ok = not out and dt < 300.0
    report(9, ok, f"{len(out)}/{len(defined)} defined ratios outside "
                  f"[0.5, 2.0], observed range [{min(defined):.2f}, "
                  f"{max(defined):.2f}] over activation 3-7 x threshold "
                  f"0.45-0.95; misses [{'; '.join(misses) or 'none'}]; "
                  f"{dt:.0f}s")
    assert not out, f"out-of-band sensitivity ratios: {out[:10]}"
    assert dt < 300.0


def test_10_cli_determinism(tmp_path):
    seed_graph = tmp_path / "seed.graph"
    schedule = tmp_path / "schedule.tsv"
    model = make_model("ba")
    g0 = init_from_seed(tuple((i, 1970 + i) for i in range(4)),
                        ((2, 0), (3, 1)), model, 0)
    g0.dump(seed_graph)
    schedule.write_text("1976\t1,2\n1977\t2\n")
    # the child imports the same citegrow sources as this process
    src = str(Path(citegrow.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    digests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        cmd = [sys.executable, "-m", "citegrow.cli", "simulate",
               "--seed-graph", str(seed_graph), "--schedule", str(schedule),
               "--model", "ba", "--seed", "5", "--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        digests.append(manifest["outputs"])
    ok = digests[0] == digests[1]
    report(10, ok, f"two identical simulate invocations produced "
                   f"{'identical' if ok else 'DIFFERENT'} output digests "
                   f"({len(digests[0])} artifacts compared)")
    assert digests[0] == digests[1]


DATA_DIR = os.environ.get("CITEGROW_DATA_DIR")
PUBLISHED_BEST_JSD2 = {"mas": 0.102, "aps": 0.027}


@pytest.mark.skipif(not DATA_DIR,
                    reason="CITEGROW_DATA_DIR not set; full-corpus check "
                           "needs the real datasets and hours of runtime")
def test_11_full_corpus_best_point():
    from citegrow import IngestConfig, aps_reference, build_seed_and_schedule

    checked = []
    for name in ("mas", "aps"):
        root = Path(DATA_DIR) / name
        papers, citations = root / "papers.tsv", root / "citations.tsv"
        if not papers.exists() or not citations.exists():
            continue
        cfg = IngestConfig()
        seed, sched, _ = build_seed_and_schedule(papers, citations, cfg)
        model = make_model("lbm-g", sigma=2.0, shift_every=1)
        g0 = init_from_seed(seed.nodes, seed.edges, model, derive_seed(0, 0, 0))
        g = run_simulation(g0, sched, model, derive_seed(0, 0, 1))
        dist = category_distribution(g, cfg.cutoff, cfg.horizon)
        ref = mas_reference() if name == "mas" else aps_reference()
        score = jsd2(dist.proportions, ref.proportions)
        checked.append((name, score, PUBLISHED_BEST_JSD2[name]))
    assert checked, f"no corpus found under {DATA_DIR}"
    ok = all(abs(score - best) <= 0.05 for _, score, best in checked)
    detail = "; ".join(f"{n} jsd2 {s:.3f} vs published {b:.3f}"
                       for n, s, b in checked)
    report(11, ok, f"full-corpus best-point fidelity: {detail} (band 0.05)")
    for name, score, best in checked:
        assert abs(score - best) <= 0.05, f"{name}: {score} vs {best}"
