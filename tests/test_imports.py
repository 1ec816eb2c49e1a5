"""What importing citegrow and growing a graph loads.

scipy costs about half a second and 30 MiB at import; the library must
not need it (the tests use it as an oracle)."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROGRAM = """
import sys
import citegrow
model = citegrow.make_model("lbm-g")
seed = citegrow.synthetic_seed(n_nodes=40, rng_seed=1)
schedule = citegrow.corpus_like_schedule(n_nodes=300, rng_seed=2)
g0 = citegrow.init_from_seed(seed.nodes, seed.edges, model, 3)
citegrow.run_simulation(g0, schedule, model, 4)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_growing_an_lbmg_graph_loads_no_scipy():
    out = subprocess.run([sys.executable, "-c", PROGRAM], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
                         check=True)
    assert out.stdout.strip() == "[]"
