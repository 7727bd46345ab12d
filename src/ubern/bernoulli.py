"""Divided universal Bernoulli numbers as sparse partition polynomials.

The weight-n object is a finite map from partitions of n to exact
rational coefficients, the correctness oracle.  The padic backend reads
a coefficient without forming it: tau_valuation takes v_p(tau(u)) from
digit sums, and _tau_unit takes its unit residue mod p**k from one
_unit_factorials table.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .errors import CacheError, CeilingExceeded, PreconditionError
from .padic import _require_prime, _vp_factorial, vp_int
from .partitions import Partition, count_partitions, enumerate_partitions

__all__ = [
    "DEFAULT_N_CEILING",
    "SparsePoly",
    "cache_file_name",
    "cache_lines",
    "classical_bernoulli",
    "divided_ubern",
    "format_rational",
    "gamma",
    "parse_rational",
    "read_coefficient_cache",
    "specialize",
    "tau",
    "tau_valuation",
    "tau_valuations_below",
    "write_coefficient_cache",
]

DEFAULT_N_CEILING = 60


def gamma(u: Partition) -> int:
    """Denominator attached to u: product of (i+1)**u_i * u_i! over parts."""
    if not u:
        raise PreconditionError("gamma needs a nonempty partition")
    out = 1
    for part, mult in u:
        out *= (part + 1) ** mult * math.factorial(mult)
    return out


def tau(u: Partition) -> Fraction:
    """Coefficient of c^u: (-1)**(d-1) * (n+d-2)! / gamma(u)."""
    if not u:
        raise PreconditionError("tau needs a nonempty partition")
    n = u.weight
    d = u.degree
    num = math.factorial(n + d - 2)
    if d % 2 == 0:
        num = -num
    return Fraction(num, gamma(u))


def _gamma_valuation(p: int, u: Partition) -> int:
    """v_p(gamma(u)) = sum_i [u_i v_p(i+1) + v_p(u_i!)]; the caller checks p."""
    v = 0
    for part, mult in u:
        if (part + 1) % p == 0:
            v += mult * vp_int(p, part + 1)
        v += _vp_factorial(p, mult)
    return v


def tau_valuation(p: int, u: Partition) -> int:
    """v_p(tau(u)) from digit sums alone; no factorial is formed."""
    if not u:
        raise PreconditionError("tau needs a nonempty partition")
    _require_prime(p)
    return _vp_factorial(p, u.weight + u.degree - 2) - _gamma_valuation(p, u)


def _valuation_tables(p: int, n: int) -> tuple[list[int], list[list[int]]]:
    """The two tables v_p(tau(u)) of weight <= n is read from, for a prime p.

    vfact[i] = v_p(i!) for i <= max(2n - 2, n), and gain[part][mult] =
    mult v_p(part+1) + v_p(mult!), the term of v_p(gamma(u)) from one
    run, for part * mult <= n.  So for u of weight n and degree d,
    v_p(tau(u)) = vfact[n+d-2] - sum of gain over the runs of u, the
    formula tau_valuation and _gamma_valuation state per partition.
    """
    size = max(2 * n - 2, n) + 1
    # Legendre: v_p(i!) = k + v_p(k!) for k = i // p, one value per block of p
    vfact = [0] * p
    for k in range(1, size // p + 1):
        vfact += [k + vfact[k]] * p
    del vfact[size:]
    gain = [[0]]
    for part in range(1, n + 1):
        row = vfact[: n // part + 1]  # v_p(mult!), when p does not divide part+1
        if (part + 1) % p == 0:
            v = vp_int(p, part + 1)
            row = [mult * v + f for mult, f in enumerate(row)]
        gain.append(row)
    return vfact, gain


def _runs_valuations(
    vfact: list[int], gain: list[list[int]], u: Partition
) -> tuple[int, int, int]:
    """(degree, v_p(gamma(u)), v_p(tau(u))) in one pass over the runs of u,
    from the _valuation_tables of a weight >= the weight of u."""
    n = d = g = 0
    for part, mult in u:
        n += part * mult
        d += mult
        g += gain[part][mult]
    return d, g, vfact[n + d - 2] - g


def tau_valuations_below(p: int, n: int, k: int) -> Iterator[tuple[Partition, int]]:
    """(u, tau_valuation(p, u)) for every partition u of n with v < k.

    Yields in enumerate_partitions order, by an exact branch-and-bound on
    v = v((n+d-2)!) - sum_i [u_i v(i+1) + v(u_i!)].  The walk picks the
    largest part first, multiplicity descending, and cuts a subtree only
    when no completion can fall below k.  Factorial valuations are
    superadditive, v((a+b)!) >= v(a!) + v(b!) (binomials are integers), so
    a completion of r into parts <= cap, after d parts and gain s so far,
    has v >= v((n+d-2)!) - s - most[cap][r], with most[c][r] the largest
    sum u_i v(i+1) over partitions of r into parts <= c: an unbounded
    knapsack table of O(n^2) entries.  The bound is not tight (on the
    shipped padic grid the walk checks 3,817 parts for 503 yields), but
    every cut is exact.  v(i!) and the gain of each run are read from
    _valuation_tables.
    """
    _require_prime(p)
    if not isinstance(n, int) or n < 1:
        raise PreconditionError(f"n must be a positive integer, got {n!r}")
    vfact, gain = _valuation_tables(p, n)
    most = [[0] * (n + 1)]  # seeds row 1; the walk never reads row 0
    for c in range(1, n + 1):
        row = list(most[-1])
        w = gain[c][1]  # v(c+1)
        for r in range(c, n + 1):
            if row[r - c] + w > row[r]:
                row[r] = row[r - c] + w
        most.append(row)

    def walk(r, cap, d, s, tail):
        base = vfact[max(n + d - 2, 0)] - s  # v(0!) at the root for n = 1
        for part in range(min(cap, r), 0, -1):
            if base - most[part][r] >= k:
                break  # a smaller cap only raises the bound
            gains = gain[part]
            for mult in range(r // part, 0, -1):
                rest = r - part * mult
                d2 = d + mult
                s2 = s + gains[mult]
                pairs = ((part, mult),) + tail
                if rest == 0:
                    v = vfact[n + d2 - 2] - s2
                    if v < k:
                        yield Partition._raw(pairs), v
                elif part > 1 and vfact[n + d2 - 2] - s2 - most[part - 1][rest] < k:
                    yield from walk(rest, part - 1, d2, s2, pairs)

    yield from walk(n, n, 0, 0, ())


def _tau_unit(p: int, u: Partition, ufact: list[int], m: int) -> int:
    """Unit part of tau(u) mod m = p**k.

    ufact is _unit_factorials(p, top, k) with top >= weight + degree - 2
    and top >= every multiplicity of u.
    """
    gunit = 1
    for part, mult in u:
        base = part + 1
        if base % p == 0:
            base //= p ** vp_int(p, base)
        gunit = gunit * pow(base % m, mult, m) % m
        gunit = gunit * ufact[mult] % m
    unit = ufact[u.weight + u.degree - 2] * pow(gunit, -1, m) % m
    if u.degree % 2 == 0:
        unit = (m - unit) % m
    return unit


class SparsePoly:
    """Finite map Partition -> nonzero Fraction, plus an optional weight tag.

    Instances are immutable by convention: all operations return new
    polynomials.  items() is always in canonical order (weight, then the
    enumeration order of partitions of that weight).
    """

    __slots__ = ("_terms", "weight_tag", "_ordered", "_canonical")

    def __init__(
        self,
        terms: Mapping[Partition, Fraction] | Iterable[tuple[Partition, Fraction]] = (),
        weight_tag: int | None = None,
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        d: dict[Partition, Fraction] = {}
        for u, c in items:
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if not c:
                continue
            if weight_tag is not None and u.weight != weight_tag:
                raise ValueError(
                    f"key of weight {u.weight} under weight tag {weight_tag}"
                )
            if u in d:
                raise ValueError(f"duplicate key {u!r}")
            d[u] = c
        self._terms = d
        self.weight_tag = weight_tag
        self._ordered: list[tuple[Partition, Fraction]] | None = None
        self._canonical = False

    @classmethod
    def _wrap(cls, terms: dict, weight_tag: int | None = None, canonical: bool = False):
        # terms: nonzero Fraction coefficients, taken as they are; canonical
        # if keyed in enumerate_partitions order, so items() needs no sort
        self = object.__new__(cls)
        self._terms = terms
        self.weight_tag = weight_tag
        self._ordered = None
        self._canonical = canonical
        return self

    def items(self) -> list[tuple[Partition, Fraction]]:
        # built on first use: callers that never ask for the order (the exact
        # backend's largest polynomials) pay neither the sort nor the list
        if self._ordered is None:
            if self._canonical:
                self._ordered = list(self._terms.items())
            else:
                self._ordered = sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())
        return self._ordered

    def keys(self):
        return self._terms.keys()

    def get(self, u: Partition, default: Fraction = Fraction(0)) -> Fraction:
        return self._terms.get(u, default)

    def __contains__(self, u: Partition) -> bool:
        return u in self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        return f"SparsePoly({len(self._terms)} terms, weight_tag={self.weight_tag})"

    def add_term(self, u: Partition, c: Fraction | int) -> "SparsePoly":
        terms = dict(self._terms)
        terms[u] = terms.get(u, 0) + Fraction(c)
        if not terms[u]:
            del terms[u]
        return SparsePoly._wrap(terms)


def _tau_tables(n: int) -> tuple[list[int], list[list[int]]]:
    """The two tables tau(u) of weight n is read from: fact[i] = i! for
    i <= 2n - 2, and run[part][mult] = (part+1)**mult * mult!, the factor
    of gamma(u) from one run, for part * mult <= n."""
    fact = [1] * (2 * n - 1)
    for i in range(1, 2 * n - 1):
        fact[i] = fact[i - 1] * i
    run: list[list[int]] = [[1]]
    for part in range(1, n + 1):
        row = [1]
        for mult in range(1, n // part + 1):
            row.append(row[-1] * (part + 1) * mult)
        run.append(row)
    return fact, run


def _tau_fractions(n: int) -> Iterator[tuple[Partition, int, int]]:
    """(u, num, den) with tau(u) = num/den for every partition u of n.

    Yields in enumerate_partitions order; den = gamma(u) > 0 and the pair
    is not reduced.  The (n+d-2)! numerators and the run factors of
    gamma(u) come from _tau_tables.
    """
    fact, run = _tau_tables(n)
    for u in enumerate_partitions(n):
        d = 0
        den = 1
        for part, mult in u:
            d += mult
            den *= run[part][mult]
        num = fact[n + d - 2]
        yield u, (num if d % 2 else -num), den


def divided_ubern(n: int, *, n_ceiling: int = DEFAULT_N_CEILING) -> SparsePoly:
    """The weight-n divided universal Bernoulli polynomial.

    One term per partition of n, built from _tau_fractions.  Refuses n
    above the configurable ceiling (count_partitions grows fast).
    """
    if not isinstance(n, int) or n < 1:
        raise PreconditionError(f"n must be a positive integer, got {n!r}")
    if n > n_ceiling:
        raise CeilingExceeded(f"n={n} exceeds the ceiling {n_ceiling}")
    terms = {u: Fraction(num, den) for u, num, den in _tau_fractions(n)}
    return SparsePoly._wrap(terms, n, canonical=True)


def specialize(poly: SparsePoly, values: Mapping[int, Fraction | int]) -> Fraction:
    """Evaluate the polynomial at the given part-index assignments.

    Raises KeyError if some occurring part index has no assigned value,
    and PreconditionError for a value that is not an int or a Fraction.
    """
    exact = {}
    for part, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise PreconditionError(f"c{part} must be an int or a Fraction, got {value!r}")
        exact[part] = (value.numerator, value.denominator)
    # sum of the terms a/b over one common denominator, integers only
    num, den = 0, 1
    for u, c in poly.items():
        a, b = c.numerator, c.denominator
        for part, mult in u:
            if part not in exact:
                raise KeyError(f"no value assigned for part index {part}")
            vnum, vden = exact[part]
            a *= vnum**mult
            b *= vden**mult
        if den % b:
            wider = den // math.gcd(den, b) * b
            num, den = num * (wider // den), wider
        num += a * (den // b)
    return Fraction(num, den)


_BERNOULLI: list[Fraction] = [Fraction(1)]


def classical_bernoulli(n: int) -> Fraction:
    """Classical Bernoulli number B_n (B_1 = -1/2) by the binomial recurrence."""
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * _BERNOULLI[j]
        _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[n]


# -- serialization ----------------------------------------------------

def format_rational(q: Fraction) -> str:
    """Canonical "num/den" form, lowest terms, positive denominator."""
    return f"{q.numerator}/{q.denominator}"


def parse_rational(s: str) -> Fraction:
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def cache_file_name(n: int) -> str:
    return f"ubern_{n}.jsonl"


def _tau_runs(n: int) -> Iterator[tuple[list[tuple[int, int, int, int, str]], int, int]]:
    """(runs, num, den) with tau(u) = num/den for every partition u of n.

    The cache writer's sweep, in enumerate_partitions order: the successor
    of enumerate_partitions on one stack of runs (part, mult, gamma,
    degree, text), parts strictly decreasing.  gamma, degree and text are
    taken over the runs up to and including that one, text being their
    "[part,mult]" texts joined by commas, part ascending.  A step
    multiplies in the _tau_tables factor of each run it changes and
    prepends its text, so the top run holds den = gamma(u), the degree of
    u and its serialized pairs; no Partition is built.  runs is the live
    stack, valid until the next step.  The terms are those of
    _tau_fractions: den > 0, the pair not reduced.
    """
    fact, run = _tau_tables(n)
    # "[part,mult]," for part * mult <= n; a run on an empty stack drops the comma
    label = [[]] + [
        ["[%d,%d]," % (part, mult) for mult in range(n // part + 1)]
        for part in range(1, n + 1)
    ]
    runs = [(n, 1, n + 1, 1, label[n][1][:-1])]
    den, d = n + 1, 1
    while True:
        num = fact[n + d - 2]
        yield runs, (num if d % 2 else -num), den
        # the enumerate_partitions successor: pop the trailing 1s, take one
        # copy off the smallest part > 1, refill as copies of part - 1 and
        # at most one smaller part
        part, mult, _, _, _ = runs.pop()
        rest = 0
        if part == 1:
            if not runs:
                return
            rest = mult
            part, mult, _, _, _ = runs.pop()
        _, _, den, d, text = runs[-1] if runs else (0, 0, 1, 0, "")
        if mult > 1:
            den *= run[part][mult - 1]
            d += mult - 1
            text = label[part][mult - 1] + text if text else label[part][mult - 1][:-1]
            runs.append((part, mult - 1, den, d, text))
        rest += part
        part -= 1
        q, r = divmod(rest, part)
        den *= run[part][q]
        d += q
        text = label[part][q] + text if text else label[part][q][:-1]
        runs.append((part, q, den, d, text))
        if r:
            den *= r + 1
            d += 1
            text = label[r][1] + text
            runs.append((r, 1, den, d, text))


def cache_lines(n: int) -> Iterator[str]:
    """The cache file of weight n, one newline-terminated line at a time.

    The header {"n":n,"count":p(n)}, then the line of each partition u of
    n in enumerate_partitions order, {"u":[[part,mult],...],"c":"num/den"}
    with tau(u) in lowest terms: the bytes of json.dumps with
    separators=(",", ":") and a newline.  Each line is the text, gamma and
    degree of the top run of the _tau_runs sweep, one factorial from the
    _tau_tables and one gcd: no Partition, Fraction or SparsePoly is built.
    """
    if not isinstance(n, int) or n < 1:
        raise PreconditionError(f"n must be a positive integer, got {n!r}")
    yield '{"n":%d,"count":%d}\n' % (n, count_partitions(n))
    for runs, num, den in _tau_runs(n):
        g = math.gcd(num, den)
        yield '{"u":[%s],"c":"%d/%d"}\n' % (runs[-1][4], num // g, den // g)


def write_coefficient_cache(path: Path, n: int) -> list[str]:
    """Write cache_lines(n) to path, creating its directory, and return them.

    The lines go to a fresh temporary file beside path, which then replaces
    it in one rename: a write that fails part-way leaves neither a partial
    cache file nor the temporary.  Any OSError raises CacheError.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, "x", encoding="utf-8") as f:
                lines = list(cache_lines(n))
                f.writelines(lines)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise CacheError(f"cannot write cache file {path}: {exc}") from exc
    return lines


def _clip(line: str, width: int = 80) -> str:
    # repr of at most width characters of line, so an error message stays short
    return repr(line) if len(line) <= width else repr(line[:width]) + "..."


def read_coefficient_cache(path: Path, n: int) -> list[str]:
    """The lines of a cache file written for weight n; anything else raises CacheError.

    Accepted are exactly the bytes cache_lines(n) yields, coefficient
    values included: line i of the file must equal line i of the stream,
    newline and all, and nothing may follow the last term line.  The file
    is compared in lockstep with the stream, and only its lines are kept.
    """
    expected = cache_lines(n)
    want = next(expected)  # the header; a bad n raises PreconditionError here
    try:
        # newline="\n": lines end only at "\n", and nothing is translated
        with open(path, encoding="utf-8", newline="\n") as f:
            line = f.readline()
            if line != want:
                raise CacheError(f"{path}: header {_clip(line)}, expected {_clip(want)}")
            lines = [line]
            for want, line in zip(expected, f):
                if line != want:
                    u = want[5:want.index('],"c":"') + 1]  # after {"u":
                    raise CacheError(
                        f"{path}: term line {len(lines)} is not the line of u = {u}: "
                        f"found {_clip(line)}, expected {_clip(want)}"
                    )
                lines.append(line)
            count = count_partitions(n)
            if len(lines) != count + 1 or f.readline():
                raise CacheError(f"{path}: not exactly {count} term lines")
    except OSError as exc:
        raise CacheError(f"cannot read cache file {path}: {exc}") from exc
    except ValueError as exc:
        raise CacheError(f"{path}: malformed cache line ({exc})") from exc
    return lines
