"""Show that the end-to-end metrics are steady, and record the baseline.

Usage, from the root of a checkout:

    python3 perfbench/prove.py --runs 10 [--workloads grid-exact,...] [--write]

Runs the benchmark command of BENCHMARK.json once per seed (1..runs) on
each workload, then once traced, and prints each metric's median and its
spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  Each
spread is compared with the metric's bound.  ``--write`` stores the
figures, the traced-run overhead and the machine facts in baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} is not correct:\n{proc.stdout}")
    return result


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "cpu": cpu_model()},
        "run_seconds": spec["run_seconds"],
        "runs": args.runs,
        "workloads": {},
    }
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in range(1, args.runs + 1):
            result = run(spec, workload, seed, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {n: round(m["value"], 4) for n, m in result["metrics"].items()},
                  flush=True)
        traced = run(spec, workload, 1, 1)["metrics"]
        entry = {"fail_ratio": failed / attempted, "attempted": attempted,
                 "traced_overhead_s": traced["trace.overhead_s"]["value"],
                 "traced_wall_s": traced["trace.wall_s"]["value"], "metrics": {}}
        for name, series in values.items():
            median, share = spread(series)
            entry["metrics"][name] = {"median": median, "spread": share, "values": series}
            mark = "ok" if share < bounds[name] / 3 else ("WITHIN BOUND" if share <= bounds[name] else "TOO WIDE")
            if name != "setup_s" and share > bounds[name]:
                steady = False
            print(f"  {workload} {name}: median {median:.4f}, spread {share:.3f} "
                  f"(bound {bounds[name]}) {mark}", flush=True)
        print(f"  {workload} fail_ratio {entry['fail_ratio']} ({failed} of {attempted}); "
              f"traced overhead {entry['traced_overhead_s']:.3f} s", flush=True)
        baseline["workloads"][workload] = entry
    if args.write:
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
