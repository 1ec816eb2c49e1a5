"""citegrow benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload grow-fitness --seed 1 --seconds 25 --trace 0

Run from anywhere inside a source checkout; citegrow is imported from the
checkout's ``src/`` and from nowhere else, so a directory without the
sources fails with exit code 2 before printing a result.

Workloads (see ``citebench/workloads.py`` for why each exists):

  grow-fitness   init -> grow -> classify -> jsd2 for ba, af, mf at 10k nodes
  grow-spatial   the same pipeline for lbm (log), lbm (linear), lbm-g at 6k
  reclassify-io  dump/load, TSV ingest, classify, 5x11 sensitivity, jsd2 on
                 a 12k lbm-g graph grown during set-up

A run sets up three times. ``--trace 0`` then runs rounds (one pipeline
per model, or one read/write pass) until ``--seconds`` have passed, times a
reference kernel after each, and prints the end-to-end metrics with
every time scaled by the kernel times around it (``citebench/reference.py``
says why). ``--trace 1`` alternates untraced and traced rounds and prints
the per-layer metrics, unscaled. Human-readable lines (machine, one line
per pipeline with its graph digest and category counts, every metric with
its unit, failed_frac) come first; the last line of standard output is the
JSON result.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads(nproc: int) -> None:
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))


def main() -> int:
    if not (SRC / "citegrow" / "__init__.py").is_file():
        print(f"citegrow sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    pin_threads(nproc)
    sys.path.insert(0, str(SRC))
    import citegrow
    if Path(citegrow.__file__).resolve().parent != SRC / "citegrow":
        print(f"citegrow was imported from {citegrow.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from citebench.runner import main as run_main
    return run_main(sys.argv[1:], nproc=nproc)


if __name__ == "__main__":
    sys.exit(main())
