"""The benchmark's tracer wraps ubern attributes by name; they must resolve.

perfbench/tracer.py replaces module attributes such as
``ubern.congruences.enumerate_partitions`` or ``SparsePoly._ordered``
from outside the program.  A refactor that removes one of them breaks
``perfbench/run.py --trace 1`` without failing any other tier-1 test,
so this installs the tracer in a fresh interpreter and runs one traced
verification on both backends.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import ubern
import ubern.cli
from tracer import Tracer, install

tracer = Tracer()
install(tracer, ubern)
tracer.op = "check"
code = ubern.cli.main(["verify", "--theorem", "4.8", "--n", "12", "--backend", "both"])
assert code == 0, code
assert tracer.spans and tracer.counts["padic.vp.calls"], dict(tracer.counts)
"""


def test_tracer_installs_and_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
