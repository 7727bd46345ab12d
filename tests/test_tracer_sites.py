"""The benchmark's tracer wraps ubern attributes by name; they must resolve.

perfbench/tracer.py replaces module attributes such as
``ubern.congruences.enumerate_partitions`` or ``SparsePoly._ordered``
from outside the program.  A refactor that removes one of them breaks
``perfbench/run.py --trace 1`` without failing any other tier-1 test,
so this installs the tracer in a fresh interpreter and runs one traced
verification on both backends, plain and with ``--perturb`` (only a
failure reaches the wrapped ``vp``), one on the exact backend whose
right-hand side enumerates through the wrapped
``ubern.bernoulli.enumerate_partitions``, a ``compute`` cache miss and hit in
text and in JSON, which reach the wrapped cache writer and reader, and
one ``classical`` run, which reaches the wrapped ``SparsePoly.items``
through ``specialize``, and one small ``lemma --name 3.2``, whose
partitions must come through the wrapped
``ubern.lemmas.enumerate_partitions_bounded``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys

import ubern
import ubern.cli
from tracer import Tracer, install

tracer = Tracer()
install(tracer, ubern)
tracer.op = "check"
code = ubern.cli.main(["verify", "--theorem", "4.8", "--n", "12", "--backend", "both"])
assert code == 0, code
assert tracer.spans, dict(tracer.counts)
# vp is taken of failures alone: the perturbed run reaches the wrapped name
code = ubern.cli.main(
    ["verify", "--theorem", "4.8", "--n", "12", "--backend", "both", "--perturb"]
)
assert code == 1, code
assert tracer.counts["padic.vp.calls"], dict(tracer.counts)
# the padic work runs inside its congruences.verify span, which the
# congruences.padic_report_s figure is read from
assert any(span["name"] == "congruences.verify" and span["backend"] == "padic"
           for span in tracer.spans), [span["name"] for span in tracer.spans]
# the exact backend sweeps the partitions of n itself; divided_ubern(m) of a
# right-hand side still comes through the wrapped enumeration: at (3, 3, 3)
# that is m = 6, p(6) = 11 partitions
tracer.op = "check-3.5"
code = ubern.cli.main(["verify", "--theorem", "3.5", "--p", "3", "--s", "3", "--l", "3",
                       "--backend", "exact"])
assert code == 0, code
visited = tracer.op_counts["check-3.5"]["ubern.bernoulli.enumerate_partitions.visited"]
assert visited == 11, dict(tracer.op_counts["check-3.5"])
wanted = {"bernoulli.cache_write", "bernoulli.cache_read"}
for n, fmt in (("8", "text"), ("9", "json")):
    tracer.op = "compute-" + fmt
    for _ in range(2):
        code = ubern.cli.main(
            ["compute", "--n", n, "--format", fmt, "--cache-dir", sys.argv[1]]
        )
        assert code == 0, code
    names = {span["name"] for span in tracer.spans if span["op"] == tracer.op}
    assert wanted <= names, (fmt, sorted(wanted - names))
tracer.op = "classical"
code = ubern.cli.main(["classical", "--n-max", "4"])
assert code == 0, code
names = {span["name"] for span in tracer.spans if span["op"] == "classical"}
assert "bernoulli.canonical_sort" in names, sorted(names)
tracer.op = "lemma"
code = ubern.cli.main(["lemma", "--name", "3.2", "--s-max", "1", "--i-max", "1"])
assert code == 0, code
names = {span["name"] for span in tracer.spans if span["op"] == "lemma"}
assert any(name.startswith("lemmas.sweep") for name in names), sorted(names)
visited = tracer.op_counts["lemma"]["ubern.lemmas.enumerate_partitions_bounded.visited"]
assert visited > 0, dict(tracer.op_counts["lemma"])
"""


def test_tracer_installs_and_runs(tmp_path):
    env = dict(os.environ)
    env.pop("UBERN_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
