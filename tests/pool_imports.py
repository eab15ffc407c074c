"""Check that serial runs never load the process-pool machinery.

Run it in a fresh interpreter, against whichever tcrlab is importable (the
source tree with ``PYTHONPATH=src``, or an installed package):

    python tests/pool_imports.py

It first checks that importing ``tcrlab.harness`` and ``tcrlab.cli`` loads
no ``numpy.random``, which a run loads with its first stream: importing it
costs a fresh process several MB and milliseconds. Then it runs
``simulate``, ``plot`` and ``validate`` through ``cli.main`` and a
``jobs=1`` sweep, and checks that tcrlab loaded none of POOL_MODULES; then
that a ``jobs=2`` replicate loads them and matches ``jobs=1`` byte for byte.
It exits nonzero with one message line when a check fails. numpy is imported
first and what it loads does not count, so the checks hold on a numpy that
imports ``numpy.random`` or ``multiprocessing`` itself.
"""

import sys
import tempfile
from pathlib import Path

import numpy  # noqa: F401

POOL_MODULES = ("concurrent.futures.process", "multiprocessing")
before = set(sys.modules)

from tcrlab import harness  # noqa: E402
from tcrlab.cli import main  # noqa: E402
from tcrlab.params import SimParams  # noqa: E402


def check(ok: bool, message: str) -> None:
    if not ok:
        sys.exit(f"pool_imports: {message}")


def loaded(modules=POOL_MODULES) -> list[str]:
    return [name for name in modules if name in sys.modules and name not in before]


check(not loaded(["numpy.random"]), "importing tcrlab.harness and tcrlab.cli loaded numpy.random")

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp)
    for argv in (["simulate", "--seed", "3", "--out", str(out)],
                 ["plot", str(out / "trace.csv"), "--metric", "wealth",
                  "--out", str(out / "wealth.svg")],
                 ["validate", "--out", str(out)]):
        check(main(argv) == 0, f"{argv[0]} failed")
        check(not loaded(), f"{argv[0]} loaded {loaded()}")

params = SimParams(num_items=5, num_voters=9)
spec = harness.SweepSpec(grid=(("p_informed", (0.1, 0.9)),), replications=4, base_seed=2,
                         base_params=params)
harness.run_sweep(spec, jobs=1)
serial = harness.replicate(params, 4, base_seed=2, jobs=1)
check(not loaded(), f"a jobs=1 run loaded {loaded()}")

harness._usable_cpus = lambda: 2  # start the pool on a host with one usable CPU too
parallel = harness.replicate(params, 4, base_seed=2, jobs=2)
check(loaded() == list(POOL_MODULES), f"a jobs=2 run loaded only {loaded()}")
check(parallel.tobytes() == serial.tobytes(), "jobs=2 samples differ from jobs=1")
