"""Command-line front end: compute, verify, lemma, classical, sweep.

Exit codes are a stable contract: 0 success / verified, 1 counterexample
found (or backend disagreement), 2 usage or precondition error, 3 cache
integrity error, 141 stdout closed by its reader (a shell's code for
SIGPIPE).  JSON output is byte-identical across runs for identical
inputs; progress notes go to stderr so stdout stays canonical.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

from .bernoulli import (  # divided_ubern, specialize: perfbench/tracer.py wraps them here
    DEFAULT_N_CEILING,
    _tau_sum,
    cache_file_name,
    cache_blocks,
    classical_bernoulli,
    divided_ubern,
    format_rational,
    read_coefficient_cache,
    specialize,
    write_coefficient_cache,
)
from .congruences import (  # verify_theorem_* are called by name: _verify
    FAMILIES,
    CongruenceReport,
    reports_agree,
    verify_theorem_3_5,
    verify_theorem_4_8,
    verify_theorem_4_9,
)
from .errors import CacheError, PreconditionError, _require_ceiling, _require_ints
from .lemmas import SWEEPS, run_sweep

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_CACHE = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE

_MAX_TEXT_ITEMS = 20
_SPOOL_CHUNK = 64 * 1024  # characters per copy from the compute spool to stdout

# range bounds of the lemma sweeps: each --x-max flag reaches run_sweep
# as the keyword x_max
_LEMMA_BOUND_FLAGS = (
    "k-max", "a-max", "i-max", "n-max", "m-max", "l-max", "q-max", "r-max", "e-max", "s-max",
)

# the flags of every congruence family, once each
_FAMILY_FLAGS = tuple(dict.fromkeys(flag for names, _ in FAMILIES.values() for flag in names))


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
    p.add_argument("--theorem", choices=tuple(FAMILIES), required=True)
    for flag in _FAMILY_FLAGS:
        p.add_argument(f"--{flag}", type=int)
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
    p.add_argument("--theorem", choices=(*FAMILIES, "all"), default="all")
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
    return value


def _monomial(u) -> str:
    if not u:
        return "1"
    return " ".join(
        f"c{part}" if mult == 1 else f"c{part}^{mult}" for part, mult in u
    )


def _cmd_compute(args: argparse.Namespace) -> int:
    """Print the weight-n cache file as JSONL, or its count and first terms.

    Without a cache the blocks of cache_blocks stream to stdout, and text
    output builds only the blocks it shows.  With one, the miss or the hit
    copies the file as it writes or checks it, JSON to an anonymous spool
    file and text to a _TextHead that keeps the header and the lines it
    shows, and the copy goes to stdout only once the cache step has
    succeeded: a cache error prints nothing, and what is printed are the
    bytes just written or checked, not a second read of the shared cache
    file.
    """
    ceiling = _ceiling(args)
    _require_ints(1, n=args.n)
    _require_ceiling(ceiling, n=args.n)
    cache_dir = args.cache_dir or os.environ.get("UBERN_CACHE_DIR")
    if not cache_dir:
        return _emit_compute(args, cache_blocks(args.n))
    path = Path(cache_dir) / cache_file_name(args.n)
    if args.format == "text":
        head = _TextHead(1 + _MAX_TEXT_ITEMS)
        _cache_step(path, args.n, head)
        return _emit_compute(args, head.lines)
    try:
        spool = tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise CacheError(f"cannot open a spool file for {path}: {exc}") from exc
    with spool:
        _cache_step(path, args.n, spool)
        spool.seek(0)
        # in fixed chunks: never the whole file at once
        return _emit_compute(args, iter(functools.partial(spool.read, _SPOOL_CHUNK), ""))


class _TextHead:
    """A write-only text stream that keeps its first lines and drops the rest."""

    def __init__(self, room: int):
        self.lines: list[str] = []
        self.room = room

    def write(self, text: str) -> None:
        if len(self.lines) < self.room:
            self.lines += text.splitlines(keepends=True)[: self.room - len(self.lines)]


def _cache_step(path: Path, n: int, out) -> None:
    # read and check the cache file at path, or write it, copying it to out
    if path.exists():
        read_coefficient_cache(path, n, out)
        print(f"cache hit: {path}", file=sys.stderr)
    else:
        write_coefficient_cache(path, n, out)
        print(f"cache write: {path}", file=sys.stderr)


def _emit_compute(args: argparse.Namespace, blocks) -> int:
    # blocks: strings that join to the cache file, in text the header first
    if args.format == "json":
        sys.stdout.writelines(blocks)
        return EXIT_OK
    blocks = iter(blocks)
    count = json.loads(next(blocks))["count"]
    print(f"divided universal Bernoulli number, weight {args.n}: {count} terms")
    lines = itertools.chain.from_iterable(map(str.splitlines, blocks))
    for term in map(json.loads, itertools.islice(lines, _MAX_TEXT_ITEMS)):
        print(f"  {term['c']} * {_monomial(term['u'])}")
    if count > _MAX_TEXT_ITEMS:
        print(f"  ... ({count - _MAX_TEXT_ITEMS} more terms)")
    return EXIT_OK


def _report_text(report: CongruenceReport) -> None:
    # only verify and sweep print here: each report is a theorem's
    ctx = report.context
    params = ", ".join(f"{k}={v}" for k, v in ctx.items() if k not in ("theorem", "backend"))
    verdict = "HOLDS" if report.holds else "FAILS"
    print(f"rule {ctx['theorem']} ({params}) mod {report.prime}^{report.mod_exp}: {verdict}")
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


def _verify(theorem: str, params, **kwargs) -> CongruenceReport:
    # the one call of each verify_theorem_*, looked up per call, so a
    # replaced module attribute (a tracer's span) is the one called
    return globals()["verify_theorem_" + theorem.replace(".", "_")](*params, **kwargs)


def _cmd_verify(args: argparse.Namespace) -> int:
    ceiling = _ceiling(args)

    def need() -> list:
        names, _ = FAMILIES[args.theorem]
        missing = [n for n in names if getattr(args, n) is None]
        if missing:
            flags = ", ".join(f"--{n}" for n in missing)
            raise PreconditionError(f"theorem {args.theorem} requires {flags}")
        # a flag of another family is refused, not silently dropped
        foreign = [
            f"--{n}" for n in _FAMILY_FLAGS if n not in names and getattr(args, n) is not None
        ]
        if foreign:
            raise PreconditionError(f"theorem {args.theorem} does not take {', '.join(foreign)}")
        return [getattr(args, n) for n in names]

    def run(backend: str) -> CongruenceReport:
        return _verify(
            args.theorem, need(), backend=backend, n_ceiling=ceiling, perturb=args.perturb
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
        (default,) = SWEEPS[args.name].__defaults__  # of n_max, its one parameter
        n_max = overrides.get("n_max", default)
        _require_ceiling(_ceiling(args), n_max=n_max)
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
    _require_ints(1, n_max=args.n_max)
    _require_ceiling(ceiling, n_max=args.n_max)
    rows = []
    for n in range(1, args.n_max + 1):
        # at c_i = (-1)**i every monomial of weight n is (-1)**n
        recovered = n * (-1) ** n * _tau_sum(n)
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
    names = tuple(FAMILIES) if args.theorem == "all" else (args.theorem,)
    if "4.8" not in names and (args.n_min, args.n_max) != (None, None):
        raise PreconditionError(f"--n-min and --n-max select 4.8 cases, not {args.theorem}")
    (lo,), *_, (hi,) = FAMILIES["4.8"][1]  # --n-min and --n-max move these bounds
    lo = args.n_min if args.n_min is not None else lo
    hi = args.n_max if args.n_max is not None else hi
    grid_4_8 = [(n,) for n in range(lo + lo % 2, hi + 1, 2)]
    if not grid_4_8:
        raise PreconditionError(f"no even n in {lo}..{hi}: the sweep would check nothing")
    reports = [
        _verify(name, params, backend=args.backend, n_ceiling=ceiling)
        for name in names
        for params in (grid_4_8 if name == "4.8" else FAMILIES[name][1])
    ]
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
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so the interpreter's last flush stays quiet, and exit as a shell
        # reports a command that SIGPIPE ended
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    raise SystemExit(code)


if __name__ == "__main__":
    entry_point()
