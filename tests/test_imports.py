"""What importing citegrow, growing a graph and classifying it loads.

scipy costs about half a second and 30 MiB at import; the library and
the command line must not need it (only the tests use it, as an
oracle). The process pool of a parallel sweep pulls in multiprocessing,
socket and logging, so only `sweep` with more than one job imports it."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROGRAM = """
import sys
import citegrow
import citegrow.cli
model = citegrow.make_model("lbm-g")
seed = citegrow.synthetic_seed(n_nodes=40, rng_seed=1)
schedule = citegrow.corpus_like_schedule(n_nodes=300, rng_seed=2)
g0 = citegrow.init_from_seed(seed.nodes, seed.edges, model, 3)
g = citegrow.run_simulation(g0, schedule, model, 4)
citegrow.category_distribution(g, 1991, 2000)
citegrow.sensitivity(g, 1991, 2000, [3, 5, 7], [0.5, 0.75])
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_growing_an_lbmg_graph_loads_no_scipy():
    out = subprocess.run([sys.executable, "-c", PROGRAM], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_importing_citegrow_loads_no_process_pool():
    program = ("import sys, citegrow, citegrow.cli; "
               "print('concurrent.futures.process' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
                         check=True)
    assert out.stdout.strip() == "False"
