"""The ubern benchmark: one workload, timed in fresh interpreters, outputs checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid-exact --seed 1 --seconds 18 --trace 0

Workloads are listed, with why each exists, in workloads.py.  The program
is run from source (``src/`` on ``PYTHONPATH``); nothing is installed.

``--trace 0`` measures, as a closed loop with one client: it repeats
passes over the workload, each pass in a fresh interpreter, until
``--seconds`` have gone by (at least one pass), and reports

* ``setup_s``: median time of a fresh ``python3 -c "import ubern.cli"``
  over several starts, the cost every CLI call pays;
* ``wall_s``: median over passes of the time from the first call into
  ubern to the last output byte;
* ``peak_rss_mb``: median over passes of the pass's peak resident memory
  (the larger of the two processes for compute-cache).

``--trace 1`` runs one untraced pass and one traced pass, and reports the
per-layer figures of the traced pass (see tracer.py) with the tracing
overhead.  Its spans are written to ``.perfbench_out/``.

Every output is checked against reference.json (see gate.py).  The last
stdout line is one JSON object: correct, attempted, failed and metrics.
``fail_ratio`` (failed / attempted) is printed on the line before it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import gate
import workloads
from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
# every child must end before the run's 180 s limit
DEADLINE_S = 170
SETUP_STARTS = 9

PER_LAYER_UNITS = {
    "partitions.enumerate_s": "s",
    "partitions.visited": "count",
    "bernoulli.divided_ubern_s": "s",
    "bernoulli.terms_built": "count",
    "bernoulli.canonical_sort_s": "s",
    "bernoulli.cache_write_s": "s",
    "bernoulli.cache_read_s": "s",
    "bernoulli.cache_bytes": "bytes",
    "congruences.rhs_s": "s",
    "congruences.poly_congruent_s": "s",
    "congruences.keys_compared": "count",
    "congruences.padic_report_s": "s",
    "congruences.residues_needed": "count",
    "congruences.useful_ratio": "ratio",
    "congruences.failures": "count",
    "padic.vp_calls": "count",
    "padic.vp_s": "s",
    **{"lemmas.sweep_s." + lemma: "s" for lemma in workloads.LEMMA_IDS},
    "lemmas.checked": "count",
    "cli.emit_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Runner:
    """Starts the fresh interpreters of one benchmark run, inside the checkout."""

    def __init__(self, root: Path, tmp: Path):
        self.root = root
        self.tmp = tmp
        self.started = time.perf_counter()
        self.jobs = 0
        env = {k: v for k, v in os.environ.items()
               if k not in ("UBERN_CACHE_DIR", "UBERN_N_CEILING", "PYTHONPATH")}
        env["PYTHONPATH"] = str(root / "src")
        self.env = env

    def _remaining(self) -> float:
        return max(1.0, DEADLINE_S - (time.perf_counter() - self.started))

    def setup_s(self) -> float:
        times = []
        for _ in range(SETUP_STARTS):
            t = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", "import ubern.cli"], env=self.env)
            # a wait with a timeout polls in steps of up to 50 ms, which would
            # quantize the figure; a timer kills a hung start instead
            killer = threading.Timer(self._remaining(), proc.kill)
            killer.start()
            try:
                code = proc.wait()
            finally:
                killer.cancel()
            times.append(time.perf_counter() - t)
            if code != 0:
                raise RuntimeError(f"importing ubern.cli exited {code}")
        return statistics.median(times)

    def child(self, ops: list[dict], trace: bool) -> dict:
        self.jobs += 1
        job_dir = self.tmp / f"job{self.jobs}"
        job_dir.mkdir()
        job = {"ops": ops, "trace": trace, "out_dir": str(job_dir),
               "result": str(job_dir / "result.json")}
        (job_dir / "job.json").write_text(json.dumps(job), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(job_dir / "job.json")],
            env=self.env, cwd=self.root, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=self._remaining(),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"benchmark child exited {proc.returncode}:\n"
                               + proc.stderr.decode(errors="replace")[-2000:])
        result = json.loads((job_dir / "result.json").read_text(encoding="utf-8"))
        shutil.rmtree(job_dir)
        return result

    def run_pass(self, workload: str, ops: list[dict] | None, trace: bool) -> dict:
        if workload != "compute-cache":
            return self.child(ops, trace)
        # miss and hit are two CLI calls, so two fresh interpreters, with a
        # cache directory that is new for the pass
        cache_dir = self.tmp / f"cache{self.jobs}"
        cache_dir.mkdir()
        try:
            miss, hit = workloads.compute_ops(str(cache_dir))
            halves = [self.child([miss], trace), self.child([hit], trace)]
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        merged = {
            "wall_s": sum(h["wall_s"] for h in halves),
            "peak_rss_mb": max(h["peak_rss_mb"] for h in halves),
            "ops": [op for h in halves for op in h["ops"]],
        }
        if trace:
            merged["trace"] = {
                "spans": [dict(s, process=k) for k, h in enumerate(halves)
                          for s in h["trace"]["spans"]],
                "counts": dict(sum((Counter(h["trace"]["counts"]) for h in halves), Counter())),
                "hot_s": dict(sum((Counter(h["trace"]["hot_s"]) for h in halves), Counter())),
                "op_counts": {k: v for h in halves for k, v in h["trace"]["op_counts"].items()},
            }
        return merged


def residues_needed(ops: list[dict]) -> int:
    """Monomials the padic path must give a unit residue: v_p(tau(u)) < k,
    or a right-hand-side term.  Counted here, from the reports' (n, p, k)
    and the public right-hand-side builders, not by the program."""
    from ubern import congruences
    from ubern.bernoulli import tau_valuation
    from ubern.partitions import enumerate_partitions

    total = 0
    for op in ops:
        doc = op["doc"]
        if not op["id"].startswith(("verify/", "control/")) or doc is None:
            continue
        ctx, p, k = doc["context"], doc["prime"], doc["mod_exp"]
        theorem = ctx["theorem"]
        if theorem == "3.5":
            rhs = congruences.rhs_theorem_3_5(ctx["p"], ctx["s"], ctx["l"])
        elif theorem == "4.8":
            rhs, _ = congruences.rhs_theorem_4_8(ctx["n"])
        else:
            rhs = congruences.rhs_theorem_4_9(ctx["m"], ctx["k"], ctx["N"])
        low = {u for u in enumerate_partitions(ctx["n"]) if tau_valuation(p, u) < k}
        total += len(low | set(rhs.keys()))
    return total


def failure_records(ops: list[dict]) -> int:
    return sum(len(op["doc"]["failures"]) for op in ops
               if isinstance(op["doc"], dict) and "failures" in op["doc"])


def per_layer(traced: dict, untraced: dict) -> dict[str, float]:
    trace = traced["trace"]
    out = layer_metrics(trace["spans"], trace["counts"], trace["hot_s"])
    out["congruences.residues_needed"] = residues_needed(traced["ops"])
    visited = out["partitions.visited"]
    out["congruences.useful_ratio"] = out["congruences.residues_needed"] / visited if visited else 0.0
    out["congruences.failures"] = failure_records(traced["ops"])
    out["trace.wall_s"] = traced["wall_s"]
    out["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return out


def write_spans(root: Path, workload: str, seed: int, traced: dict) -> Path:
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{workload}-seed{seed}.spans.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for span in traced["trace"]["spans"]:
            fh.write(json.dumps(span) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ubern" / "__init__.py").is_file():
        print(f"error: no ubern sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    reference = gate.load_reference()

    ops = None if args.workload == "compute-cache" else workloads.build(args.workload, args.seed)
    tmp = root / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        runner = Runner(root, tmp)
        if args.trace:
            passes = [runner.run_pass(args.workload, ops, False)]
            traced = runner.run_pass(args.workload, ops, True)
            checked = passes + [traced]
        else:
            setup_s = runner.setup_s()
            start = time.perf_counter()
            passes = []
            while not passes or time.perf_counter() - start < args.seconds:
                passes.append(runner.run_pass(args.workload, ops, False))
            checked = passes
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            tmp.parent.rmdir()

    attempted = sum(len(p["ops"]) for p in checked)
    problems: dict[str, str] = {}
    failed = 0
    for p in checked:
        found = gate.check_pass(args.workload, p["ops"], reference)
        failed += len(found)
        problems.update(found)

    print(f"workload {args.workload}: {workloads.WORKLOADS[args.workload]}")
    print(f"seed {args.seed}; operation order: "
          + (" ".join(op["id"] for op in ops) if ops else "compute miss, then hit"))
    for op_id, why in sorted(problems.items()):
        print(f"FAILED {op_id}: {why}")
    if args.trace:
        metrics = per_layer(traced, passes[0])
        units = PER_LAYER_UNITS
        print(f"spans written to {write_spans(root, args.workload, args.seed, traced)}")
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
        print("passes: wall_s " + " ".join(f"{p['wall_s']:.3f}" for p in passes)
              + "; peak_rss_mb " + " ".join(f"{p['peak_rss_mb']:.1f}" for p in passes))
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(f"fail_ratio = {failed / attempted} ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
