"""The benchmark's tracer wraps ubern attributes by name; they must resolve.

perfbench/tracer.py replaces module attributes such as
``ubern.congruences.enumerate_partitions`` or ``SparsePoly._ordered``
from outside the program.  A refactor that removes one of them breaks
``perfbench/run.py --trace 1`` without failing any other tier-1 test,
so this installs the tracer in a fresh interpreter and runs one traced
verification on both backends, plain and with ``--perturb`` (only a
failure reaches the wrapped ``vp``), one 3.5 and one 4.9 verification
on both backends, each of which must build its right-hand side through
a wrapped builder, one public 3.5 right-hand side,
whose ``divided_ubern(m)`` enumerates through the wrapped
``ubern.bernoulli.enumerate_partitions``, a ``compute`` cache miss and hit in
text and in JSON, which reach the wrapped cache writer and reader, one
``classical`` run, which reaches the wrapped ``classical_bernoulli``, one
``specialize(divided_ubern(4), ...)`` through the names ``ubern.cli``
keeps for the tracer, which reaches the wrapped ``SparsePoly.items``,
and one small ``lemma --name 3.2``, whose partitions must come through
the wrapped ``ubern.lemmas.enumerate_partitions_bounded``.
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
# each backend's run of a lifting family builds its right-hand side in a
# congruences.rhs span, which the congruences.rhs_s figure is read from:
# verify_theorem_4_9 reaches it through the private _rhs_theorem_4_9
for theorem, flags in (("3.5", ["--p", "5", "--s", "1", "--l", "5"]),
                       ("4.9", ["--m", "7", "--k", "1", "--N", "3"])):
    tracer.op = "verify-" + theorem
    code = ubern.cli.main(["verify", "--theorem", theorem, *flags, "--backend", "both"])
    assert code == 0, (theorem, code)
    names = [span["name"] for span in tracer.spans if span["op"] == tracer.op]
    assert names.count("congruences.verify") == 2, (theorem, names)
    assert names.count("congruences.rhs") == 2, (theorem, names)
# both backends sweep the partitions of n and m themselves; the public
# right-hand side builds all of divided_ubern(m) through the wrapped
# enumeration: at (3, 3, 3) that is m = 6, p(6) = 11 partitions
tracer.op = "rhs-3.5"
ubern.congruences.rhs_theorem_3_5(3, 3, 3)
visited = tracer.op_counts["rhs-3.5"]["ubern.bernoulli.enumerate_partitions.visited"]
assert visited == 11, dict(tracer.op_counts["rhs-3.5"])
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
assert "bernoulli.classical" in names, sorted(names)
# classical sums tau in integers; the materialized path is still wrapped
tracer.op = "specialize"
value = ubern.cli.specialize(ubern.cli.divided_ubern(4), {1: -1, 2: 1, 3: -1, 4: 1})
assert 4 * value == ubern.bernoulli.classical_bernoulli(4), value
names = {span["name"] for span in tracer.spans if span["op"] == "specialize"}
assert {"bernoulli.divided_ubern", "bernoulli.specialize",
        "bernoulli.canonical_sort"} <= names, sorted(names)
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
