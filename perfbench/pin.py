"""Write reference.json: the pinned outputs and exact counters of every workload.

Usage, from the root of a checkout:  python3 perfbench/pin.py

For each workload it runs one untraced and one traced pass, and pins each
operation's exit code and stdout digest, the exact backend's verdict and
failure evidence per grid case, and the per-layer counters of the traced
pass.  It refuses to pin if the two passes differ, if the padic backend
disagrees with the exact one, or if a mutation control does not fail
with exactly one failure.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import gate
import workloads
from run import PER_LAYER_UNITS, Runner, per_layer


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    tmp = root / ".perfbench_tmp" / f"pin-{os.getpid()}"
    tmp.mkdir(parents=True)
    reference: dict = {}
    passes: dict[str, list[dict]] = {}
    try:
        runner = Runner(root, tmp)
        for workload in workloads.WORKLOADS:
            ops = None if workload == "compute-cache" else workloads.build(workload, 0)
            plain = runner.run_pass(workload, ops, False)
            traced = runner.run_pass(workload, ops, True)
            pinned = {}
            for op, again in zip(plain["ops"], traced["ops"]):
                if op["error"] or (op["exit"], op["sha256"]) != (again["exit"], again["sha256"]):
                    raise SystemExit(f"{workload} {op['id']}: unstable or failing output")
                pinned[op["id"]] = {"exit": op["exit"], "sha256": op["sha256"]}
                if workload == "grid-exact":
                    pinned[op["id"]]["report"] = gate.report_summary(op["doc"])
            layers = per_layer(traced, plain)
            reference[workload] = {
                "ops": dict(sorted(pinned.items())),
                "counters": {name: layers[name] for name, unit in PER_LAYER_UNITS.items()
                             if unit == "count"},
            }
            passes[workload] = plain["ops"] + traced["ops"]
            print(workload, reference[workload]["counters"], flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for workload, ops in passes.items():
        # the gate itself, applied to the passes just pinned
        half = len(ops) // 2
        for ran in (ops[:half], ops[half:]):
            problems = gate.check_pass(workload, ran, reference)
            if problems:
                raise SystemExit(f"{workload}: {problems}")
    gate.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
