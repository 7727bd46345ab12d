"""The benchmark's correctness gate rebuilds reports from their JSON.

perfbench/gate.py turns each pinned report back into a CongruenceReport
through ``Partition.from_pairs`` and judges the grid runs with
``reports_agree``.  Only ``python3 -m pytest perfbench`` reaches that path
otherwise, so this loads gate.py from its source, without importing the
perfbench directory or writing into it, and checks the three pinned
mutation controls against fresh ``--perturb`` runs on both backends.
"""

import types
from pathlib import Path

import pytest

from ubern.congruences import (
    reports_agree,
    verify_theorem_3_5,
    verify_theorem_4_8,
    verify_theorem_4_9,
)
from ubern.partitions import Partition

GATE = Path(__file__).resolve().parents[1] / "perfbench" / "gate.py"
VERIFY = {"3.5": verify_theorem_3_5, "4.8": verify_theorem_4_8, "4.9": verify_theorem_4_9}
CONTROLS = [("3.5", (5, 1, 5)), ("4.8", (12,)), ("4.9", (7, 1, 3))]


def _load_gate():
    gate = types.ModuleType("gate")
    gate.__file__ = str(GATE)
    exec(compile(GATE.read_text(encoding="utf-8"), str(GATE), "exec"), gate.__dict__)
    return gate


gate = _load_gate()


@pytest.mark.parametrize("backend", ["exact", "padic"])
@pytest.mark.parametrize("theorem, params", CONTROLS)
def test_gate_rebuilds_the_pinned_controls(theorem, params, backend):
    op_id = f"control/{theorem}/" + ",".join(map(str, params))
    pinned = gate.load_reference()["grid-exact"]["ops"][op_id]
    rebuilt = gate._report(pinned["report"])
    assert all(type(f.u) is Partition for f in rebuilt.failures)
    fresh = VERIFY[theorem](*params, backend=backend, perturb=True)
    assert reports_agree(rebuilt, fresh) and reports_agree(fresh, rebuilt)
    assert [f.u for f in rebuilt.failures] == [f.u for f in fresh.failures]
    op = {"id": op_id, "doc": fresh.to_json(), "exit": pinned["exit"]}
    assert gate.grid_problem(op, pinned["report"]) is None
    # the unperturbed run holds, so the pinned control must not accept it
    plain = VERIFY[theorem](*params, backend=backend)
    assert plain.holds and not reports_agree(rebuilt, plain)
