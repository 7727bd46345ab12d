"""Run one pass of benchmark operations in a fresh interpreter.

Usage: python3 child.py JOB.json

The job names the operations (see workloads.py), whether to trace, a
directory for each operation's stdout and the result file to write.
``wall_s`` runs from the first call into ubern to the last output byte;
importing ubern comes before it and is measured separately as setup.
Digests, parsing and the trace write-out happen after the clock stops.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def run_op(ubern, op: dict) -> int:
    if op["kind"] == "cli":
        return ubern.cli.main(op["argv"])
    report = ubern.congruences.check_corollary_3_4(*op["args"])
    print(json.dumps(report.to_json(), indent=2))
    return 0 if report.holds else 1


def main() -> None:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    out_dir = Path(job["out_dir"])

    import ubern
    import ubern.cli

    tracer = None
    if job["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer, ubern)

    outcomes = []
    paths = []
    start = perf_counter()
    for k, op in enumerate(job["ops"]):
        path = out_dir / f"{k}.out"
        paths.append(path)
        if tracer is not None:
            tracer.op = op["id"]
        error = None
        with open(path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            try:
                code = run_op(ubern, op)
            except Exception as exc:  # recorded as a failed operation
                code, error = None, f"{type(exc).__name__}: {exc}"
        outcomes.append((code, error))
    wall_s = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ops = []
    for op, path, (code, error) in zip(job["ops"], paths, outcomes):
        data = path.read_bytes()
        path.unlink()
        doc = None
        # compute prints JSONL; every other operation prints one document
        if op["kind"] == "corollary" or op["argv"][0] != "compute":
            try:
                doc = json.loads(data)
            except ValueError:
                doc = None
        ops.append({
            "id": op["id"],
            "exit": code,
            "error": error,
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
            "doc": doc,
        })
    result = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "ops": ops}
    if tracer is not None:
        result["trace"] = {
            "spans": tracer.spans,
            "counts": dict(tracer.counts),
            "hot_s": dict(tracer.hot_s),
            "op_counts": {op: dict(c) for op, c in tracer.op_counts.items()},
        }
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
