"""Correctness gate: every operation's output against the pinned reference.

An operation fails if it raised, returned another exit code than the
pinned one, or printed other bytes than the pinned digest.  On top of
that, every grid case on either backend must agree under
``ubern.congruences.reports_agree`` with the pinned exact report, each
mutation control must fail with exactly one failure record, and the
compute-cache hit must print the same bytes as the miss.  A genuine
counterexample pinned in the reference is a correct output.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
GRIDS = ("grid-exact", "grid-padic")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def report_summary(doc: dict) -> dict:
    """The part of a report JSON document that reports_agree looks at."""
    return {key: doc[key] for key in ("holds", "prime", "mod_exp", "failures")}


def _report(summary: dict):
    from ubern.congruences import CongruenceFailure, CongruenceReport
    from ubern.partitions import Partition

    failures = [
        CongruenceFailure(Partition.from_pairs(f["u"]), f["lhs"], f["rhs"], f["vp_diff"])
        for f in summary["failures"]
    ]
    return CongruenceReport(summary["holds"], summary["prime"], summary["mod_exp"], {}, failures)


def grid_problem(op: dict, exact_summary: dict) -> str | None:
    """Cross-backend and control checks for one grid case."""
    from ubern.congruences import reports_agree

    doc = op["doc"]
    if doc is None:
        return "output is not a report"
    if not reports_agree(_report(report_summary(doc)), _report(exact_summary)):
        return "verdict or failure evidence differs from the exact reference"
    if op["id"].startswith("control/") and (op["exit"] != 1 or len(doc["failures"]) != 1):
        return "mutation control did not fail with exactly one failure"
    return None


def check_pass(workload: str, ops: list[dict], reference: dict) -> dict[str, str]:
    """Map each failed operation id of one pass to the reason."""
    pinned = reference[workload]["ops"]
    problems: dict[str, str] = {}
    for op in ops:
        ref = pinned.get(op["id"])
        if ref is None:
            why = "no pinned reference"
        elif op["error"]:
            why = op["error"]
        elif op["exit"] != ref["exit"]:
            why = f"exit code {op['exit']}, pinned {ref['exit']}"
        elif op["sha256"] != ref["sha256"]:
            why = "stdout differs from the pinned digest"
        elif workload in GRIDS:
            why = grid_problem(op, reference["grid-exact"]["ops"][op["id"]]["report"])
        else:
            why = None
        if why:
            problems[op["id"]] = why
    if workload == "compute-cache":
        miss, hit = ops
        if hit["sha256"] != miss["sha256"]:
            problems.setdefault(hit["id"], "cache hit printed other bytes than the miss")
    return problems
