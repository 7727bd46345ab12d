"""Integer partitions as sparse exponent vectors.

A partition u is the tuple of its (part, multiplicity) pairs, part
ascending, with every multiplicity >= 1: a Partition is that tuple, so it
equals, hashes and iterates like it.  Its weight is the partitioned
integer sum(i * u_i), its degree the number of parts counted with
multiplicity sum(u_i).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .errors import PreconditionError
from .padic import _require_odd_prime

__all__ = [
    "Partition",
    "enumerate_partitions",
    "enumerate_partitions_bounded",
    "count_partitions",
    "is_reduced",
    "reduce_partition",
]


class Partition(tuple):
    """Immutable map part-size -> multiplicity, as its validated
    (part, mult) pairs, part ascending, zero-free.

    Tuple order is not the canonical order of partitions: sort_key is.
    """

    __slots__ = ()

    def __new__(cls, parts: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = parts.items() if isinstance(parts, Mapping) else tuple(parts)
        pairs = []
        last = 0
        for part, mult in sorted(items):
            part = int(part)
            mult = int(mult)
            if part < 1:
                raise ValueError(f"part sizes must be positive, got {part}")
            if mult < 0:
                raise ValueError(f"multiplicities must be nonnegative, got {mult}")
            if part == last:
                raise ValueError(f"duplicate part {part}")
            last = part
            if mult:
                pairs.append((part, mult))
        return tuple.__new__(cls, pairs)

    @classmethod
    def _raw(cls, pairs: Iterable[tuple[int, int]]) -> "Partition":
        # internal fast path: pairs already sorted ascending and validated
        return tuple.__new__(cls, pairs)

    @classmethod
    def from_pairs(cls, pairs: Iterable[Iterable[int]]) -> "Partition":
        """Build from serialized [[part, mult], ...] pairs of integers.

        A float, a bool or a string raises ValueError instead of being
        coerced, so a serialized key cannot load as a different monomial.
        """
        checked = []
        for part, mult in pairs:
            for x in (part, mult):
                if not isinstance(x, int) or isinstance(x, bool):
                    raise ValueError(f"parts and multiplicities must be integers, got {x!r}")
            checked.append((part, mult))
        return cls(checked)

    @property
    def weight(self) -> int:
        return sum(part * mult for part, mult in self)

    @property
    def degree(self) -> int:
        return sum(mult for _, mult in self)

    def multiplicity(self, part: int) -> int:
        for p, m in self:
            if p == part:
                return m
        return 0

    def merged(self, extra: Mapping[int, int]) -> "Partition":
        """New partition with the multiplicities of `extra` added in."""
        counts = dict(self)
        for part, mult in extra.items():
            counts[part] = counts.get(part, 0) + mult
        return Partition(counts)

    def to_pairs(self) -> list[list[int]]:
        """Serialized form: [[part, mult], ...], part ascending."""
        return [[part, mult] for part, mult in self]

    def sort_key(self) -> tuple:
        """Orders by weight, then descending-lexicographic by largest part."""
        expanded = []
        for part, mult in reversed(self):
            expanded.extend([-part] * mult)
        return (self.weight, tuple(expanded))

    def __repr__(self) -> str:
        body = ", ".join(f"{p}: {m}" for p, m in self)
        return "Partition({%s})" % body


def _require_count(name: str, x: int) -> None:
    if not isinstance(x, int) or isinstance(x, bool) or x < 0:
        raise PreconditionError(f"{name} must be a nonnegative integer, got {x!r}")


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of weight n, descending-lexicographic by largest part.

    n = 0 yields the single empty partition.  The count of yielded items
    equals count_partitions(n).
    """
    _require_count("weight", n)
    if n == 0:
        yield Partition._raw(())
        return
    # (part, mult) runs, parts strictly decreasing.  The successor pops the
    # trailing 1s, takes one copy off the smallest part > 1, and refills
    # that part plus the popped 1s as copies of part - 1 and, if anything
    # is left, one smaller part.
    raw = Partition._raw
    runs = [(n, 1)]
    while True:
        yield raw(reversed(runs))
        part, mult = runs.pop()
        rest = 0
        if part == 1:
            if not runs:
                return
            rest = mult
            part, mult = runs.pop()
        if mult > 1:
            runs.append((part, mult - 1))
        rest += part
        part -= 1
        q, r = divmod(rest, part)
        runs.append((part, q))
        if r:
            runs.append((r, 1))


def enumerate_partitions_bounded(n: int, max_degree: int) -> Iterator[Partition]:
    """Partitions of weight n with degree <= max_degree, canonical order."""
    _require_count("weight", n)
    _require_count("max_degree", max_degree)
    if n == 0:
        yield Partition._raw(())
        return
    if max_degree == 0:
        return
    # The enumerate_partitions successor within the degree budget: refilling
    # rest + part as copies of part - 1 uses the fewest parts, so when that
    # does not fit, the whole run joins rest and the next larger run is tried.
    raw = Partition._raw
    runs = [(n, 1)]
    degree = 1
    while True:
        yield raw(reversed(runs))
        rest = 0
        while True:
            if not runs:
                return
            part, mult = runs.pop()
            degree -= mult
            rest += part
            if part > 1:
                q, r = divmod(rest, part - 1)
                if degree + mult - 1 + q + (r > 0) <= max_degree:
                    break
            rest += part * (mult - 1)
        if mult > 1:
            runs.append((part, mult - 1))
        runs.append((part - 1, q))
        degree += mult - 1 + q
        if r:
            runs.append((r, 1))
            degree += 1


_PCOUNT = [1]


def count_partitions(n: int) -> int:
    """Partition count p(n) via the Euler pentagonal-number recurrence."""
    _require_count("weight", n)
    while len(_PCOUNT) <= n:
        m = len(_PCOUNT)
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            total += sign * _PCOUNT[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * _PCOUNT[m - g2]
            k += 1
        _PCOUNT.append(total)
    return _PCOUNT[n]


def _power_of_p_minus_one(p: int, part: int) -> bool:
    # part == p**alpha - 1 for some alpha >= 1
    x = part + 1
    if x % p:
        return False
    while x % p == 0:
        x //= p
    return x == 1


def is_reduced(p: int, u: Partition) -> bool:
    """True iff every part is p**a - 1 except at most one, of multiplicity 1."""
    _require_odd_prime(p)
    exceptional = 0
    for part, mult in u:
        if _power_of_p_minus_one(p, part):
            continue
        exceptional += 1
        if exceptional > 1 or mult != 1:
            return False
    return True


def reduce_partition(p: int, u: Partition) -> Partition:
    """Weight-preserving transform of u onto a reduced partition.

    Parts are processed in ascending size order; the three rewrite rules are
    independent per part, so the result does not depend on the order:

    * a part eps*p**a - 1 with p not dividing eps > 1 moves its whole
      multiplicity onto the part p**a - 1;
    * a part t with multiplicity >= p and p not dividing t + 1 is replaced
      by ceil(mult / (p-1)) - 1 copies of the part p - 1;
    * a part t with multiplicity < p and p not dividing t + 1 is dropped.

    Any weight lost is restored as a single part of the residual size.
    Already-reduced inputs come back unchanged.
    """
    _require_odd_prime(p)
    if not u:
        raise PreconditionError("cannot reduce the empty partition")
    counts: dict[int, int] = {}
    residual = 0  # weight of u minus the weight of counts
    for part, mult in u:
        residual += part * mult
        succ = part + 1
        if succ % p == 0:
            alpha = 0
            while succ % p == 0:
                succ //= p
                alpha += 1
            target = part if succ == 1 else p**alpha - 1
            counts[target] = counts.get(target, 0) + mult
            residual -= target * mult
        elif mult >= p:
            moved = -(-mult // (p - 1)) - 1
            if moved:
                counts[p - 1] = counts.get(p - 1, 0) + moved
                residual -= (p - 1) * moved
        # else: dropped
    if residual > 0:
        counts[residual] = counts.get(residual, 0) + 1
    # every part is positive and every count >= 1
    return Partition._raw(sorted(counts.items()))
