"""The benchmark's own tests: exact counters, the gate, seeds, a missing program.

Run from the repository root:  python3 -m pytest perfbench -q
(The traced passes take about two minutes in all.)
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gate
import workloads
from run import PER_LAYER_UNITS, Runner, per_layer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

COUNTERS = [name for name, unit in PER_LAYER_UNITS.items() if unit == "count"]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced passes of every workload, with different seeds."""
    runner = Runner(ROOT, tmp_path_factory.mktemp("runs"))
    runner.started = time.perf_counter() + 3600  # no run deadline inside the tests
    out = {}
    for workload in workloads.WORKLOADS:
        out[workload] = []
        for seed in (1, 2):
            ops = None if workload == "compute-cache" else workloads.build(workload, seed)
            out[workload].append(runner.run_pass(workload, ops, True))
    return out


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_exact_counters_repeat(traced, workload):
    first, second = (per_layer(p, p) for p in traced[workload])
    assert {n: first[n] for n in COUNTERS} == {n: second[n] for n in COUNTERS}
    assert first["partitions.visited"] > 0


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_outputs_pass_the_gate(traced, workload):
    reference = gate.load_reference()
    for run in traced[workload]:
        assert gate.check_pass(workload, run["ops"], reference) == {}


def test_padic_grid_visits_every_partition_once(traced):
    from ubern.partitions import count_partitions

    site = "ubern.congruences.enumerate_partitions.visited"
    expected = {}
    for theorem, params in workloads.grid_cases():
        if theorem == "3.5":
            p, s, l = params
            n = (s + l) * (p - 1)
        elif theorem == "4.8":
            n = params[0]
        else:
            m, k, N = params
            n = m + k * 2**N
        expected[f"verify/{theorem}/" + ",".join(map(str, params))] = count_partitions(n)
    for run in traced["grid-padic"]:
        op_counts = run["trace"]["op_counts"]
        visited = {op: op_counts[op][site] for op in expected}
        assert visited == expected
        assert sum(visited.values()) == 553_030


def test_gate_flags_wrong_outputs(traced):
    reference = gate.load_reference()
    ops = copy.deepcopy(traced["grid-padic"][0]["ops"])
    by_id = {op["id"]: op for op in ops}
    by_id["verify/4.8/12"]["exit"] = 1
    by_id["verify/4.8/14"]["sha256"] = "0" * 64
    # same bytes, other evidence: only the cross-backend check can see it
    by_id["control/4.8/12"]["doc"]["failures"][0]["vp_diff"] += 1
    by_id["verify/4.8/16"]["error"] = "RuntimeError: boom"
    assert set(gate.check_pass("grid-padic", ops, reference)) == {
        "verify/4.8/12", "verify/4.8/14", "control/4.8/12", "verify/4.8/16"}

    miss, hit = copy.deepcopy(traced["compute-cache"][0]["ops"])
    hit["sha256"] = "0" * 64
    assert set(gate.check_pass("compute-cache", [miss, hit], reference)) == {hit["id"]}


def test_seed_permutes_order_only():
    for workload in ("grid-exact", "grid-padic", "identities"):
        one, two = workloads.build(workload, 1), workloads.build(workload, 2)
        assert one == workloads.build(workload, 1)
        assert [op["id"] for op in one] != [op["id"] for op in two]
        assert sorted(map(json.dumps, one)) == sorted(map(json.dumps, two))
    assert len(workloads.build("grid-exact", 0)) == 47 + 3


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "identities", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == list(workloads.WORKLOADS.values())
