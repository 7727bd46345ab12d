"""Divided universal Bernoulli numbers as sparse partition polynomials.

The weight-n object is a finite map from partitions of n to exact
rational coefficients, the correctness oracle.  The padic backend reads
a coefficient without forming it: tau_valuation takes v_p(tau(u)) from
digit sums, and _tau_unit takes its unit residue mod p**k from one
_unit_factorials table.
"""

from __future__ import annotations

import io
import math
import os
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Mapping, TextIO

from .errors import CacheError, PreconditionError, _require_ceiling, _require_ints
from .padic import _require_prime, _vp_factorial, vp_int
from .partitions import Partition, count_partitions, enumerate_partitions

__all__ = [
    "DEFAULT_N_CEILING",
    "SparsePoly",
    "cache_file_name",
    "cache_blocks",
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


def tau_valuation(p: int, u: Partition) -> int:
    """v_p(tau(u)) from digit sums alone; no factorial is formed.

    v_p((n+d-2)!) less v_p(gamma(u)) = sum_i [u_i v_p(i+1) + v_p(u_i!)].
    """
    if not u:
        raise PreconditionError("tau needs a nonempty partition")
    _require_prime(p)
    v = _vp_factorial(p, u.weight + u.degree - 2)
    for part, mult in u:
        if (part + 1) % p == 0:
            v -= mult * vp_int(p, part + 1)
        v -= _vp_factorial(p, mult)
    return v


def _valuation_tables(p: int, n: int) -> tuple[list[int], list[list[int]]]:
    """The two tables v_p(tau(u)) of weight <= n is read from, for a prime p.

    vfact[i] = v_p(i!) for i <= max(2n - 2, n), and gain[part][mult] =
    mult v_p(part+1) + v_p(mult!), the term of v_p(gamma(u)) from one
    run, for part * mult <= n.  So for u of weight n and degree d,
    v_p(tau(u)) = vfact[n+d-2] - sum of gain over the runs of u, the
    formula tau_valuation states per partition.
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


def _gain_ceiling(p: int, c: int, r: int) -> int:
    """The largest sum u_i v_p(i+1) over the partitions of r into parts <= c:
    v_p(i+1) <= i/(p-1), since i+1 >= p**v >= 1 + v(p-1) for v = v_p(i+1),
    and parts p-1 and 1s reach it, while parts below p-1 add nothing."""
    return r // (p - 1) if c >= p - 1 else 0


def tau_valuations_below(p: int, n: int, k: int) -> Iterator[tuple[Partition, int]]:
    """(u, tau_valuation(p, u)) for every partition u of n with v < k.

    Yields in enumerate_partitions order, by an exact branch-and-bound on
    v = v((n+d-2)!) - sum_i [u_i v(i+1) + v(u_i!)].  The walk picks the
    largest part first, multiplicity descending, and cuts a subtree only
    when no completion can fall below k.  Factorial valuations are
    superadditive, v((a+b)!) >= v(a!) + v(b!) (binomials are integers), so
    a completion of r into parts <= cap, after d parts and gain s so far,
    has v >= v((n+d-2)!) - s - _gain_ceiling(p, cap, r).  The bound is not
    tight (on the shipped padic grid the walk checks 3,817 parts for 503
    yields), but every cut is exact.  v(i!) and the gain of each run are
    read from _valuation_tables.
    """
    _require_prime(p)
    _require_ints(1, n=n, k=k)
    vfact, gain = _valuation_tables(p, n)

    def walk(r, cap, d, s, tail):
        base = vfact[max(n + d - 2, 0)] - s  # v(0!) at the root for n = 1
        for part in range(min(cap, r), 0, -1):
            if base - _gain_ceiling(p, part, r) >= k:
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
                elif part > 1 and vfact[n + d2 - 2] - s2 - _gain_ceiling(p, part - 1, rest) < k:
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
    """Finite map Partition -> nonzero Fraction, the materialized polynomial.

    Built from a Mapping: each coefficient is coerced to a Fraction and the
    zeros are dropped.  Instances are immutable by convention: add_term
    returns a new polynomial.  items() is always in canonical order (weight,
    then the enumeration order of partitions of that weight).
    """

    __slots__ = ("_terms", "_ordered")

    def __init__(self, terms: Mapping[Partition, Fraction | int] = {}):
        self._terms = {u: q for u, c in terms.items() if (q := Fraction(c))}
        self._ordered: list[tuple[Partition, Fraction]] | None = None

    @classmethod
    def _wrap(cls, terms: dict):
        # terms: nonzero Fraction coefficients, taken as they are
        self = object.__new__(cls)
        self._terms = terms
        self._ordered = None
        return self

    def items(self) -> list[tuple[Partition, Fraction]]:
        # sorted on first use and kept: callers that never ask for the order
        # (the exact backend's largest polynomials) pay neither sort nor list
        if self._ordered is None:
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
        return f"SparsePoly({len(self._terms)} terms)"

    def add_term(self, u: Partition, c: Fraction | int) -> "SparsePoly":
        terms = dict(self._terms)
        terms[u] = terms.get(u, 0) + Fraction(c)
        if not terms[u]:
            del terms[u]
        return SparsePoly._wrap(terms)


def _factorials(top: int) -> list[int]:
    """fact[i] = i! for i <= top."""
    fact = [1] * (top + 1)
    for i in range(1, top + 1):
        fact[i] = fact[i - 1] * i
    return fact


def _tau_tables(n: int) -> tuple[list[int], list[list[int]]]:
    """The two tables tau(u) of weight n is read from: fact[i] = i! for
    i <= 2n, and run[part][mult] = (part+1)**mult * mult!, the factor of
    gamma(u) from one run, for part * mult <= n, part <= max(n, 2).  The
    tail 2**j 1**(rem-2j) that each _tau_prefixes yield leaves has gamma
    run[2][j] * run[1][rem-2j], as any other run product; cache_blocks
    keeps those products in a table of its own."""
    fact = _factorials(2 * n)
    run: list[list[int]] = [[1]]
    for part in range(1, max(n, 2) + 1):
        row = [1]
        for mult in range(1, n // part + 1):
            row.append(row[-1] * (part + 1) * mult)
        run.append(row)
    return fact, run


def _tau_prefixes(
    n: int, run: list[list[int]], clears: Callable[[int, int, int, int], bool] | None
) -> Iterator[tuple[list[tuple[int, int, int, int]], int]]:
    """(runs, rem) for each prefix of the partitions of n that the screen
    keeps, in enumerate_partitions order: the exact side's one prefix walk.

    A partition u of n is its prefix, the runs of parts >= 3, plus a tail
    2**j 1**(rem-2j), j falling from rem // 2 to 0, which a sweep closes in
    an inner loop from rows 1 and 2 of run.  A node's children add one run
    (part, mult), part from its least part - 1 (n at the root) or rem down
    to 3, mult descending; a node follows its children.  runs is one live
    stack of int runs (part, mult, gamma, degree) over a base (0, 0, 1, 0),
    each entry's gamma and degree covering the runs up to it.

    clears(r, c, gamma, degree) is true when nothing below a node of that
    gamma and degree, leaving r to parts <= c, is wanted; None keeps every
    prefix.  It screens each child before it is pushed, at c = part - 1,
    and each node's tail block, at c = 2, once its children are done: the
    one yield of n >= 3.  The root at n <= 2 is yielded unscreened.  runs
    is valid until the next step.  With None a step pops exactly the top
    run and pushes at most three: runs[:len(r) - 1] of the previous
    prefix's runs r are unchanged.  A screen can pop more.
    """
    runs = [(0, 0, 1, 0)]
    if n < 3:
        yield runs, n
        return
    gamma, degree, rem = 1, 0, n
    part, mult = n, 1  # the next child to try
    while True:
        # push the first kept child from (part, mult) on, and its own in turn
        while part >= 3:
            if not mult:  # every copy count of part is tried: the next part
                part -= 1
                mult = rem // part
                continue
            rest = rem - part * mult
            g = gamma * run[part][mult]
            d = degree + mult
            if clears and clears(rest, part - 1, g, d):
                mult -= 1
                continue
            runs.append((part, mult, g, d))
            gamma, degree, rem = g, d, rest
            part = part - 1 if part <= rem else rem  # the child's cap
            mult = rem // part if part >= 3 else 0  # below 3: no child
        # the top node's children are done: its own tail block
        if not (clears and clears(rem, 2, gamma, degree)):
            yield runs, rem
        # the top node is done; its parent's next child follows it
        part, mult, _, _ = runs.pop()
        if not part:
            return
        rem += part * mult
        _, _, gamma, degree = runs[-1]
        mult -= 1


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


def _tau_sum(n: int) -> Fraction:
    """sum of tau(u) over the partitions u of n, in integers over (2n)!.

    gamma(u) divides (n+d)!, so (2n)!: prod ((i+1)!)**u_i * u_i! divides
    (sum (i+1) u_i)! = (n+d)! (a multinomial), and (i+1)**u_i divides
    ((i+1)!)**u_i.  The _tau_prefixes walk adds (2n)!/gamma of each
    prefix into the group of its (rem, degree); each tail then divides a
    group's total exactly, once per group, not once per prefix.
    """
    fact, run = _tau_tables(n)
    ones, twos = run[1], run[2]
    common = fact[2 * n]
    groups: dict[tuple[int, int], int] = {}
    for runs, rem in _tau_prefixes(n, run, None):
        _, _, gamma, degree = runs[-1]
        groups[rem, degree] = groups.get((rem, degree), 0) + common // gamma
    total = 0
    for (rem, degree), share in groups.items():
        d = degree + rem  # the degree of u at j = 0, one less per 2
        for j in range(rem // 2 + 1):
            term = fact[n + d - j - 2] * (share // (twos[j] * ones[rem - 2 * j]))
            total += term if (d - j) % 2 else -term
    return Fraction(total, common)


def divided_ubern(n: int, *, n_ceiling: int = DEFAULT_N_CEILING) -> SparsePoly:
    """The weight-n divided universal Bernoulli polynomial.

    One term per partition of n, built from _tau_fractions.  Refuses n
    above the configurable ceiling (count_partitions grows fast).
    """
    _require_ints(1, n=n)
    _require_ceiling(n_ceiling, n=n)
    terms = {u: Fraction(num, den) for u, num, den in _tau_fractions(n)}
    return SparsePoly._wrap(terms)


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


def classical_bernoulli(n: int) -> Fraction:
    """Classical Bernoulli number B_n (B_1 = -1/2) by the explicit sum
    B_n = sum_{k<=n} 1/(k+1) sum_{j<=k} (-1)**j C(k, j) j**n, in integers
    over the common denominator lcm(1..n+1); nothing is kept between calls.
    """
    _require_ints(0, n=n)
    lcm = math.lcm(*range(1, n + 2))
    powers = [j**n for j in range(n + 1)]
    total = 0
    for k in range(n + 1):
        inner = sum(math.comb(k, j) * (-powers[j] if j % 2 else powers[j]) for j in range(k + 1))
        total += lcm // (k + 1) * inner
    return Fraction(total, lcm)


# -- serialization ----------------------------------------------------

def format_rational(q: Fraction) -> str:
    """Canonical "num/den" form, lowest terms, positive denominator."""
    return f"{q.numerator}/{q.denominator}"


def parse_rational(s: str) -> Fraction:
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def cache_file_name(n: int) -> str:
    return f"ubern_{n}.jsonl"


def cache_blocks(n: int) -> Iterator[str]:
    """The cache file of weight n: the header {"n":n,"count":p(n)}, then the
    line {"u":[[part,mult],...],"c":"num/den"} of each partition u of n in
    enumerate_partitions order, tau(u) in lowest terms, as json.dumps with
    separators=(",", ":") writes it, newline included.  After the header,
    each string holds the lines of one _tau_prefixes prefix, j = rem // 2
    down to 0, the tail's pairs before the prefix's, which a stack of texts
    kept in step with the walk's runs holds.  tau(u) = +-K/M, M =
    (n+d)(n+d-1), with K = (n+d)!/gamma(u) an integer (see _tau_sum), so it
    is reduced by the small gcd(K mod M, M).  The cache writer and reader
    pass each block on as it comes, so no caller holds the whole file.
    """
    _require_ints(1, n=n)
    yield '{"n":%d,"count":%d}\n' % (n, count_partitions(n))
    fact, run = _tau_tables(n)
    # label[part][mult] = ",[part,mult]", for part * mult <= n, and, for the
    # tail 2**j 1**(rem-2j), heads[rem][j] = "[1,rem-2j],[2,j]", its text,
    # and tails[rem][j] = run[2][j] * run[1][rem-2j], its gamma
    label = [[]] + [[",[%d,%d]" % (part, mult) for mult in range(n // part + 1)]
                    for part in range(1, n + 1)]
    heads = [[",".join("[%d,%d]" % pm for pm in ((1, rem - 2 * j), (2, j)) if pm[1])
              for j in range(rem // 2 + 1)] for rem in range(n + 1)]
    tails = [[run[2][j] * run[1][r - 2 * j] for j in range(r // 2 + 1)] for r in range(n + 1)]
    # texts[i]: the labels of runs[i], ..., runs[1]; one popped a step
    texts = [""]
    for runs, rem in _tau_prefixes(n, run, None):
        for part, mult, _, _ in runs[len(texts):]:
            texts.append(label[part][mult] + texts[-1])
        text = texts.pop()
        if not rem:
            text = text[1:]  # no tail: the prefix's first pair opens the list
        _, _, gamma, degree = runs[-1]
        top = n + degree + rem  # n + d of u at j = 0, one less per 2
        head, tail = heads[rem], tails[rem]
        block = []
        for j in range(rem // 2, -1, -1):
            num = fact[top - j] // (gamma * tail[j])
            den = (top - j) * (top - j - 1)
            g = math.gcd(num % den, den)
            block.append('{"u":[%s%s],"c":"%d/%d"}\n' % (
                head[j], text, (num if (top - n - j) % 2 else -num) // g, den // g
            ))
        yield "".join(block)


def write_coefficient_cache(path: Path, n: int, out: TextIO) -> None:
    """Write cache_blocks(n) to path, creating its directory, and to out.

    Each block goes to a fresh temporary file beside path and to out as it
    is made, and none is kept; the temporary then replaces path in one
    rename: a write that fails part-way leaves neither a partial cache
    file nor the temporary, but out may hold the blocks made before it.
    Any OSError raises CacheError, which names the output for one from out.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, "x", encoding="utf-8") as f:
                for block in cache_blocks(n):
                    f.write(block)
                    _copy(out, path, block)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise CacheError(f"cannot write cache file {path}: {exc}") from exc


def _copy(out: TextIO, path: Path, block: str) -> None:
    # out.write(block), an OSError from out a CacheError that names the
    # output: it is no fault of the cache file at path
    try:
        out.write(block)
    except OSError as exc:
        raise CacheError(f"cannot copy {path} to its output: {exc}") from exc


def _clip(line: str, width: int = 80) -> str:
    # repr of at most width characters of line, so an error message stays short
    return repr(line) if len(line) <= width else repr(line[:width]) + "..."


def _raise_mismatch(path: Path, f, index: int, block: str, want: str) -> None:
    # block, read from f at line index, is not the stream's want: raise for its
    # first differing term line, read to its newline, unless the file ends first
    found = io.StringIO(block + f.readline(), newline="\n")
    for index, line in enumerate(want.splitlines(keepends=True), index):
        text = found.readline()
        if text != line:
            break
    if text:
        u = line[5:line.index('],"c":"') + 1]  # after {"u":
        raise CacheError(f"{path}: term line {index} is not the line of u = {u}: "
                         f"found {_clip(text)}, expected {_clip(line)}")


def read_coefficient_cache(path: Path, n: int, out: TextIO) -> None:
    """Check a cache file written for weight n and copy it to out; anything
    else raises CacheError.

    Accepted are exactly the bytes cache_blocks(n) yields, coefficient values
    included, and nothing after them.  The file is compared with the stream
    one block at a time, and each block goes to out once it has matched, so
    out holds only checked blocks, a prefix of the file if it differs; no
    block is kept; an OSError from out is a CacheError naming the output.
    """
    expected = cache_blocks(n)
    want = next(expected)  # the header; a bad n raises PreconditionError here
    try:
        # newline="\n": nothing is translated; a non-UTF-8 byte reads as a mismatch
        with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as f:
            block = f.readline()
            if block != want:
                raise CacheError(f"{path}: header {_clip(block)}, expected {_clip(want)}")
            _copy(out, path, block)
            lines = 1
            for want in expected:
                block = f.read(len(want))
                if block != want:
                    _raise_mismatch(path, f, lines, block, want)
                    break  # the file ended at a line end, before the stream did
                _copy(out, path, block)
                lines += block.count("\n")
            if block != want or f.read(1):
                raise CacheError(f"{path}: not exactly {count_partitions(n)} term lines")
    except OSError as exc:
        raise CacheError(f"cannot read cache file {path}: {exc}") from exc
