"""Span recorder installed from outside the program, and its per-layer roll-up.

The wrappers replace public module attributes of ``ubern`` that the
program looks up at call time (``ubern.congruences.vp``,
``ubern.cli.verify_theorem_3_5`` and so on), so nothing under ``src/``
changes.  A span is a dict with ``name``, ``op`` (the benchmark operation
it belongs to), ``parent`` (index of the enclosing span or ``None``),
``start``/``end`` (``perf_counter`` seconds) and ``child_s``: the part
of its interval covered by child spans, generator steps and hot calls.
Self time is ``end - start - child_s``.

Hot functions (``vp``, each step of the partition generators) run
hundreds of thousands of times per workload, so they get no span of
their own: their time is charged to the enclosing span and to a
per-name total.  Everything stays in memory until the workload ends.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from workloads import LEMMA_IDS


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.op: str | None = None
        self.hot_s: Counter = Counter()
        self.counts: Counter = Counter()
        # per-operation counters, for checks that need one case's figures
        self.op_counts: dict[str, Counter] = defaultdict(Counter)

    # -- recording -----------------------------------------------------

    def _open(self, name: str, attrs: dict | None) -> dict:
        span = {
            "name": name,
            "op": self.op,
            "parent": self._stack[-1]["index"] if self._stack else None,
            "index": len(self.spans),
            "start": perf_counter(),
            "end": None,
            "child_s": 0.0,
        }
        if attrs:
            span.update(attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1]["child_s"] += span["end"] - span["start"]

    def _charge(self, name: str, dt: float) -> None:
        self.hot_s[name] += dt
        if self._stack:
            self._stack[-1]["child_s"] += dt

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] += amount
        self.op_counts[self.op][key] += amount

    # -- wrappers ------------------------------------------------------

    def span(self, name, fn, attrs=None, after=None):
        """Wrap fn in a span; ``attrs(args, kwargs)`` names extra fields and
        ``after(span, args, result)`` records counters once it returns."""

        def wrapper(*args, **kwargs):
            span = self._open(name, attrs(args, kwargs) if attrs else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                # bookkeeping time is excluded from every span's self time
                t = perf_counter()
                after(span, args, result)
                if self._stack:
                    self._stack[-1]["child_s"] += perf_counter() - t
            return result

        return wrapper

    def hot(self, name, fn):
        def wrapper(*args, **kwargs):
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._charge(name, perf_counter() - t)
                self.counts[name + ".calls"] += 1

        return wrapper

    def generator(self, name, site, fn):
        """Time each step of the generator fn returns; count what it yields."""

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            creator = self._stack[-1] if self._stack else None

            def steps():
                visited = 0
                try:
                    while True:
                        t = perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            self._charge(name, perf_counter() - t)
                            return
                        self._charge(name, perf_counter() - t)
                        visited += 1
                        yield item
                finally:
                    self.count(name + ".visited", visited)
                    self.count(site + ".visited", visited)
                    if creator is not None:
                        creator["visited"] = creator.get("visited", 0) + visited

            return steps()

        return wrapper


def install(tracer: Tracer, ubern) -> None:
    """Replace the public names of ``ubern`` that the workloads reach."""
    cli = ubern.cli
    congruences = ubern.congruences
    bernoulli = ubern.bernoulli
    lemmas = ubern.lemmas

    cli.main = tracer.span("cli.main", cli.main)

    def backend(args, kwargs):
        return {"backend": kwargs.get("backend", "exact")}

    for name in ("verify_theorem_3_5", "verify_theorem_4_8", "verify_theorem_4_9"):
        setattr(cli, name, tracer.span("congruences.verify", getattr(cli, name), backend))
    congruences.check_corollary_3_4 = tracer.span(
        "congruences.corollary_3_4", congruences.check_corollary_3_4
    )
    # verify_theorem_4_9 calls the private builder, not rhs_theorem_4_9
    for name in ("rhs_theorem_3_5", "rhs_theorem_4_8", "_rhs_theorem_4_9"):
        setattr(congruences, name, tracer.span("congruences.rhs", getattr(congruences, name)))

    def keys_compared(span, args, result):
        a, b = args[0], args[1]
        shared = sum(1 for u in b.keys() if u in a)
        tracer.count("congruences.keys_compared", len(a) + len(b) - shared)

    congruences.poly_congruent = tracer.span(
        "congruences.poly_congruent", congruences.poly_congruent, after=keys_compared
    )
    congruences.vp = tracer.hot("padic.vp", congruences.vp)

    def terms_built(span, args, result):
        # a call served from the module memo enumerates nothing and builds
        # no coefficient; any other call builds one Fraction per partition
        if span.get("visited"):
            tracer.count("bernoulli.terms_built", len(result))

    for module in (cli, congruences):
        module.divided_ubern = tracer.span(
            "bernoulli.divided_ubern", module.divided_ubern, after=terms_built
        )

    def cache_bytes(span, args, result):
        tracer.count("bernoulli.cache_bytes", Path(args[0]).stat().st_size)

    cli.write_coefficient_cache = tracer.span(
        "bernoulli.cache_write", cli.write_coefficient_cache, after=cache_bytes
    )
    cli.read_coefficient_cache = tracer.span(
        "bernoulli.cache_read", cli.read_coefficient_cache, after=cache_bytes
    )
    cli.classical_bernoulli = tracer.span("bernoulli.classical", cli.classical_bernoulli)
    cli.specialize = tracer.span("bernoulli.specialize", cli.specialize)

    def sweep_name(args, kwargs):
        return {"name": "lemmas.sweep." + args[0]}

    sweep = tracer.span("lemmas.sweep", cli.run_sweep, sweep_name)

    def run_sweep(name, **overrides):
        result = sweep(name, **overrides)
        tracer.count("lemmas.checked", result.checked)
        return result

    cli.run_sweep = run_sweep

    items = bernoulli.SparsePoly.items
    sort = tracer.span("bernoulli.canonical_sort", items)

    def first_items(poly):
        # the canonical order is built on the first call and kept on the
        # polynomial; later calls return the stored list
        if poly._ordered is None:
            return sort(poly)
        return items(poly)

    bernoulli.SparsePoly.items = first_items

    for module, name in (
        (bernoulli, "enumerate_partitions"),
        (congruences, "enumerate_partitions"),
        (congruences, "enumerate_partitions_bounded"),
        (lemmas, "enumerate_partitions_bounded"),
    ):
        site = f"{module.__name__}.{name}"
        setattr(module, name, tracer.generator("partitions.enumerate", site, getattr(module, name)))


def self_s(span: dict) -> float:
    return span["end"] - span["start"] - span["child_s"]


def layer_metrics(spans: list[dict], counts: dict, hot_s: dict) -> dict[str, float]:
    """Roll spans and counters up into the per-layer figures, by name."""
    self_by_name: Counter = Counter()
    inclusive: Counter = Counter()
    padic_report = 0.0
    for span in spans:
        self_by_name[span["name"]] += self_s(span)
        inclusive[span["name"]] += span["end"] - span["start"]
        if span["name"] == "congruences.verify" and span["backend"] == "padic":
            padic_report += self_s(span)
    out = {
        "partitions.enumerate_s": hot_s.get("partitions.enumerate", 0.0),
        "partitions.visited": counts.get("partitions.enumerate.visited", 0),
        "bernoulli.divided_ubern_s": self_by_name["bernoulli.divided_ubern"],
        "bernoulli.terms_built": counts.get("bernoulli.terms_built", 0),
        "bernoulli.canonical_sort_s": self_by_name["bernoulli.canonical_sort"],
        "bernoulli.cache_write_s": self_by_name["bernoulli.cache_write"],
        "bernoulli.cache_read_s": self_by_name["bernoulli.cache_read"],
        "bernoulli.cache_bytes": counts.get("bernoulli.cache_bytes", 0),
        "congruences.rhs_s": self_by_name["congruences.rhs"],
        "congruences.poly_congruent_s": self_by_name["congruences.poly_congruent"],
        "congruences.keys_compared": counts.get("congruences.keys_compared", 0),
        "congruences.padic_report_s": padic_report,
        "padic.vp_calls": counts.get("padic.vp.calls", 0),
        "padic.vp_s": hot_s.get("padic.vp", 0.0),
        "lemmas.checked": counts.get("lemmas.checked", 0),
        "cli.emit_s": self_by_name["cli.main"],
    }
    # a sweep's figure includes its enumeration and helpers: the question
    # it answers is which sweep the identities workload waits on
    for lemma in LEMMA_IDS:
        out["lemmas.sweep_s." + lemma] = inclusive["lemmas.sweep." + lemma]
    return out
