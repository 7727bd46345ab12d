"""Command-line front end: compute, verify, lemma, classical, sweep.

Exit codes are a stable contract: 0 success / verified, 1 counterexample
found (or backend disagreement), 2 usage or precondition error, 3 cache
integrity error.  JSON output is byte-identical across runs for
identical inputs; progress notes go to stderr so stdout stays canonical.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from pathlib import Path

from .bernoulli import (
    DEFAULT_N_CEILING,
    cache_file_name,
    cache_lines,
    classical_bernoulli,
    divided_ubern,
    format_rational,
    read_coefficient_cache,
    specialize,
    write_coefficient_cache,
)
from .congruences import (
    GRID_THEOREM_3_5,
    GRID_THEOREM_4_8,
    GRID_THEOREM_4_9,
    CongruenceReport,
    reports_agree,
    verify_theorem_3_5,
    verify_theorem_4_8,
    verify_theorem_4_9,
)
from .errors import CacheError, CeilingExceeded, PreconditionError
from .lemmas import SWEEPS, run_sweep

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_CACHE = 3

_MAX_TEXT_ITEMS = 20

# range bounds of the lemma sweeps: each --x-max flag reaches run_sweep
# as the keyword x_max
_LEMMA_BOUND_FLAGS = (
    "k-max", "a-max", "i-max", "n-max", "m-max", "l-max", "q-max", "r-max", "e-max", "s-max",
)


@functools.cache  # one parser per process; parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ubern",
        description="Exact divided universal Bernoulli numbers and "
        "prime-power congruence verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, ceiling: bool = True) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")
        if ceiling:
            p.add_argument("--n-ceiling", type=int, default=None)

    p = sub.add_parser("compute", help="emit one divided universal Bernoulli polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cache-dir", type=str, default=None)
    add_common(p)

    p = sub.add_parser("verify", help="verify one congruence-family instance")
    p.add_argument("--theorem", choices=("3.5", "4.8", "4.9"), required=True)
    p.add_argument("--p", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--backend", choices=("exact", "padic", "both"), default="exact")
    p.add_argument(
        "--perturb",
        action="store_true",
        help="add 1 to the first right-hand-side coefficient (mutation "
        "self-test; a healthy verifier then exits 1 with one failure)",
    )
    add_common(p)

    p = sub.add_parser("lemma", help="sweep one supporting identity family")
    p.add_argument("--name", type=str, required=True)
    for flag in _LEMMA_BOUND_FLAGS:
        p.add_argument(f"--{flag}", type=int, default=None)
    add_common(p, ceiling=False)

    p = sub.add_parser("classical", help="check the classical Bernoulli specialization")
    p.add_argument("--n-max", type=int, required=True)
    add_common(p)

    p = sub.add_parser("sweep", help="run a whole verification grid")
    p.add_argument("--theorem", choices=("3.5", "4.8", "4.9", "all"), default="all")
    p.add_argument("--backend", choices=("exact", "padic"), default="exact")
    p.add_argument("--n-min", type=int, default=None, help="least n of the 4.8 cases")
    p.add_argument("--n-max", type=int, default=None, help="largest n of the 4.8 cases")
    add_common(p)

    return parser


def _ceiling(args: argparse.Namespace) -> int:
    value = getattr(args, "n_ceiling", None)
    if value is None:
        text = os.environ.get("UBERN_N_CEILING", str(DEFAULT_N_CEILING))
        try:
            value = int(text)
        except ValueError:
            raise PreconditionError(
                f"UBERN_N_CEILING must be an integer, got {text!r}"
            ) from None
    if value < 1:
        raise PreconditionError("n-ceiling must be >= 1")
    return value


def _monomial(u) -> str:
    if not u:
        return "1"
    return " ".join(
        f"c{part}" if mult == 1 else f"c{part}^{mult}" for part, mult in u
    )


def _cmd_compute(args: argparse.Namespace) -> int:
    ceiling = _ceiling(args)
    if args.n < 1:
        raise PreconditionError("--n must be >= 1")
    if args.n > ceiling:
        raise CeilingExceeded(f"n={args.n} exceeds the ceiling {ceiling}")
    cache_dir = args.cache_dir or os.environ.get("UBERN_CACHE_DIR")
    if cache_dir:
        path = Path(cache_dir) / cache_file_name(args.n)
        if path.exists():
            lines = read_coefficient_cache(path, args.n)
            print(f"cache hit: {path}", file=sys.stderr)
        else:
            lines = write_coefficient_cache(path, args.n)
            print(f"cache write: {path}", file=sys.stderr)
    else:
        lines = cache_lines(args.n)
    if args.format == "json":
        sys.stdout.writelines(lines)
        return EXIT_OK
    lines = iter(lines)
    count = json.loads(next(lines))["count"]
    print(f"divided universal Bernoulli number, weight {args.n}: {count} terms")
    for term in map(json.loads, itertools.islice(lines, _MAX_TEXT_ITEMS)):
        print(f"  {term['c']} * {_monomial(term['u'])}")
    if count > _MAX_TEXT_ITEMS:
        print(f"  ... ({count - _MAX_TEXT_ITEMS} more terms)")
    return EXIT_OK


def _report_text(report: CongruenceReport) -> None:
    ctx = report.context
    label = ctx.get("theorem") or ctx.get("corollary") or ctx.get("check", "?")
    params = ", ".join(
        f"{k}={v}"
        for k, v in ctx.items()
        if k not in ("theorem", "corollary", "check", "backend")
    )
    verdict = "HOLDS" if report.holds else "FAILS"
    print(
        f"rule {label} ({params}) mod {report.prime}^{report.mod_exp}: {verdict}"
    )
    for f in report.failures[:_MAX_TEXT_ITEMS]:
        print(
            f"  {_monomial(f.u)}: lhs={f.lhs} rhs={f.rhs} vp_diff={f.vp_diff}"
        )
    if len(report.failures) > _MAX_TEXT_ITEMS:
        print(f"  ... ({len(report.failures) - _MAX_TEXT_ITEMS} more failures)")


def _emit_report(report: CongruenceReport, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        _report_text(report)


def _cmd_verify(args: argparse.Namespace) -> int:
    ceiling = _ceiling(args)

    def need(*names: str) -> None:
        missing = [n for n in names if getattr(args, n) is None]
        if missing:
            flags = ", ".join(f"--{n}" for n in missing)
            raise PreconditionError(
                f"theorem {args.theorem} requires {flags}"
            )

    def run(backend: str) -> CongruenceReport:
        if args.theorem == "3.5":
            need("p", "s", "l")
            return verify_theorem_3_5(
                args.p, args.s, args.l,
                backend=backend, n_ceiling=ceiling, perturb=args.perturb,
            )
        if args.theorem == "4.8":
            need("n")
            return verify_theorem_4_8(
                args.n, backend=backend, n_ceiling=ceiling, perturb=args.perturb
            )
        need("m", "k", "N")
        return verify_theorem_4_9(
            args.m, args.k, args.N,
            backend=backend, n_ceiling=ceiling, perturb=args.perturb,
        )

    if args.backend == "both":
        exact = run("exact")
        padic = run("padic")
        if not reports_agree(exact, padic):
            print("backend disagreement between exact and padic runs", file=sys.stderr)
            _emit_report(exact, args.format)
            _emit_report(padic, args.format)
            return EXIT_COUNTEREXAMPLE
        exact.context["backend"] = "both"
        report = exact
    else:
        report = run(args.backend)
    _emit_report(report, args.format)
    return EXIT_OK if report.holds else EXIT_COUNTEREXAMPLE


def _cmd_lemma(args: argparse.Namespace) -> int:
    overrides = {}
    for flag in _LEMMA_BOUND_FLAGS:
        name = flag.replace("-", "_")
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    if args.name in ("4.6", "4.7"):  # every partition of each weight up to n_max
        import inspect

        default = inspect.signature(SWEEPS[args.name]).parameters["n_max"].default
        n_max = overrides.get("n_max", default)
        ceiling = _ceiling(args)
        if n_max > ceiling:
            raise PreconditionError(f"--n-max {n_max} exceeds the ceiling {ceiling}")
    result = run_sweep(args.name, **overrides)
    if args.format == "json":
        print(json.dumps(result.to_json(), indent=2))
    else:
        verdict = "HOLDS" if result.holds else "FAILS"
        parts = ""
        if result.detail:
            parts = " (" + ", ".join(f"{k}: {v}" for k, v in result.detail.items()) + ")"
        print(f"lemma {result.lemma}: {result.checked} instances checked{parts}: {verdict}")
        for failure in result.failures[:_MAX_TEXT_ITEMS]:
            print(f"  counterexample: {failure}")
        if len(result.failures) > _MAX_TEXT_ITEMS:
            print(f"  ... ({len(result.failures) - _MAX_TEXT_ITEMS} more)")
    return EXIT_OK if result.holds else EXIT_COUNTEREXAMPLE


def _cmd_classical(args: argparse.Namespace) -> int:
    ceiling = _ceiling(args)
    if args.n_max < 1:
        raise PreconditionError("--n-max must be >= 1")
    if args.n_max > ceiling:
        raise PreconditionError(
            f"--n-max {args.n_max} exceeds the ceiling {ceiling}"
        )
    rows = []
    for n in range(1, args.n_max + 1):
        values = {i: (-1) ** i for i in range(1, n + 1)}
        recovered = n * specialize(divided_ubern(n, n_ceiling=ceiling), values)
        expected = classical_bernoulli(n)
        rows.append((n, recovered))
        if recovered != expected:
            if args.format == "json":
                print(json.dumps({"holds": False, "n": n,
                                  "specialized": format_rational(recovered),
                                  "recurrence": format_rational(expected)}))
            else:
                print(f"mismatch at n={n}: specialization gives "
                      f"{format_rational(recovered)}, recurrence gives "
                      f"{format_rational(expected)}")
            return EXIT_COUNTEREXAMPLE
    if args.format == "json":
        doc = {
            "holds": True,
            "n_max": args.n_max,
            "values": [
                {"n": n, "bernoulli": format_rational(v)} for n, v in rows
            ],
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"classical specialization matches the recurrence for n = 1..{args.n_max}")
        for n, v in rows:
            print(f"  B_{n} = {v}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    ceiling = _ceiling(args)
    backend = args.backend
    if args.theorem in ("3.5", "4.9") and (args.n_min, args.n_max) != (None, None):
        raise PreconditionError(f"--n-min and --n-max select 4.8 cases, not {args.theorem}")
    lo = args.n_min if args.n_min is not None else GRID_THEOREM_4_8[0]
    hi = args.n_max if args.n_max is not None else GRID_THEOREM_4_8[-1]
    grid_4_8 = range(lo + lo % 2, hi + 1, 2)
    if not grid_4_8:
        raise PreconditionError(f"no even n in {lo}..{hi}: the sweep would check nothing")
    reports: list[CongruenceReport] = []
    names = ("3.5", "4.8", "4.9") if args.theorem == "all" else (args.theorem,)
    for name in names:
        if name == "3.5":
            for p, s, l in GRID_THEOREM_3_5:
                reports.append(verify_theorem_3_5(
                    p, s, l, backend=backend, n_ceiling=ceiling))
        elif name == "4.8":
            for n in grid_4_8:
                reports.append(verify_theorem_4_8(
                    n, backend=backend, n_ceiling=ceiling))
        else:
            for m, k, N in GRID_THEOREM_4_9:
                reports.append(verify_theorem_4_9(
                    m, k, N, backend=backend, n_ceiling=ceiling))
    ok = all(r.holds for r in reports)
    if args.format == "json":
        print(json.dumps({
            "holds": ok,
            "cases": [r.to_json() for r in reports],
        }, indent=2))
    else:
        for r in reports:
            _report_text(r)
        print(f"sweep: {len(reports)} cases, {'all hold' if ok else 'FAILURES found'}")
    return EXIT_OK if ok else EXIT_COUNTEREXAMPLE


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    handlers = {
        "compute": _cmd_compute,
        "verify": _cmd_verify,
        "lemma": _cmd_lemma,
        "classical": _cmd_classical,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except CacheError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return EXIT_CACHE
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
