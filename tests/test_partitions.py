import math
import random

import pytest

from ubern.congruences import check_corollary_3_4
from ubern.errors import PreconditionError
from ubern.partitions import (
    Partition,
    count_partitions,
    enumerate_partitions,
    enumerate_partitions_bounded,
    is_reduced,
    reduce_partition,
)


def test_partition_basics():
    u = Partition({2: 1, 3: 1})
    assert u.weight == 5
    assert u.degree == 2
    assert u.to_pairs() == [[2, 1], [3, 1]]
    assert u.multiplicity(2) == 1 and u.multiplicity(9) == 0
    assert Partition({2: 1, 3: 1}) == Partition([(3, 1), (2, 1)])
    assert hash(u) == hash(Partition({3: 1, 2: 1}))
    empty = Partition()
    assert empty.weight == 0 and empty.degree == 0 and not empty


def test_partition_drops_zero_multiplicities():
    assert Partition({2: 0, 3: 1}) == Partition({3: 1})
    with pytest.raises(ValueError):
        Partition({0: 1})
    with pytest.raises(ValueError):
        Partition({2: -1})
    with pytest.raises(ValueError):
        Partition([(2, 1), (2, 1)])


def test_from_pairs_round_trip():
    u = Partition.from_pairs([[2, 1], [3, 1]])
    assert u.to_pairs() == [[2, 1], [3, 1]]
    # serialized keys are never coerced: each would otherwise load as c1
    for pairs in ([[1.5, 1]], [[True, 1]], [[1, True]], [[1.0, 1]], [[1, 1.0]], [["1", 1]]):
        with pytest.raises(ValueError):
            Partition.from_pairs(pairs)


def test_partition_is_its_pair_tuple():
    u = Partition({3: 1, 1: 2})
    pairs = ((1, 2), (3, 1))
    assert isinstance(u, tuple) and u == pairs and pairs == u
    assert hash(u) == hash(pairs) and tuple(u) == pairs
    assert Partition() == () and Partition._raw(iter(pairs)) == u
    # the tuple's own equality, hashing and iteration serve, and no
    # per-instance dict is added
    assert Partition.__slots__ == ()
    for name in ("__eq__", "__hash__", "__iter__", "__len__", "__bool__"):
        assert name not in vars(Partition), name


def test_partition_keys_find_pair_tuples():
    table = {u: i for i, u in enumerate(enumerate_partitions(6))}
    assert table[((1, 1), (2, 1), (3, 1))] == table[Partition({1: 1, 2: 1, 3: 1})]
    assert ((6, 1),) in table and ((1, 6),) in table


def test_sort_key_is_the_canonical_order_not_tuple_order():
    us = [u for n in range(8) for u in enumerate_partitions(n)]
    shuffled = us[::-1]
    assert sorted(shuffled, key=Partition.sort_key) == us
    assert sorted(shuffled) != us


def test_enumerate_weight_zero():
    assert list(enumerate_partitions(0)) == [Partition()]


def test_enumerate_weight_four_order():
    got = [u.to_pairs() for u in enumerate_partitions(4)]
    assert got == [
        [[4, 1]],
        [[1, 1], [3, 1]],
        [[2, 2]],
        [[1, 2], [2, 1]],
        [[1, 4]],
    ]


def test_enumeration_matches_euler_counts():
    for n in range(41):
        seen = list(enumerate_partitions(n))
        assert len(seen) == count_partitions(n)
        assert all(u.weight == n for u in seen)
        # strictly increasing keys: canonical order, and no repeats
        keys = [u.sort_key() for u in seen]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def _reference_runs(n, cap):
    # recursive reference: (part, mult) runs, parts strictly decreasing, in
    # descending-lexicographic order of the expanded part list
    if n == 0:
        yield ()
        return
    for part in range(min(cap, n), 0, -1):
        for mult in range(n // part, 0, -1):
            for tail in _reference_runs(n - part * mult, part - 1):
                yield ((part, mult),) + tail


def test_enumeration_matches_recursive_reference():
    for n in range(26):
        got = list(enumerate_partitions(n))
        assert got == [tuple(reversed(runs)) for runs in _reference_runs(n, n)]


def test_enumeration_is_descending_lex():
    def expanded(u):
        out = []
        for part, mult in reversed(u):
            out.extend([part] * mult)
        return out

    rows = [expanded(u) for u in enumerate_partitions(9)]
    assert rows == sorted(rows, reverse=True)


def test_count_partitions_values():
    assert count_partitions(0) == 1
    assert count_partitions(4) == 5
    assert count_partitions(40) == 37338
    assert count_partitions(60) == 966467


def test_bounded_enumeration_agrees_with_filter():
    for n in range(13):
        for dmax in (1, 2, 3, n):
            full = [u for u in enumerate_partitions(n) if u.degree <= dmax]
            bounded = list(enumerate_partitions_bounded(n, dmax))
            assert bounded == full


def test_is_reduced_examples():
    assert is_reduced(3, Partition({2: 3})) is True
    assert is_reduced(3, Partition({2: 1, 4: 1})) is True
    assert is_reduced(3, Partition({4: 2})) is False
    assert is_reduced(3, Partition()) is True
    assert is_reduced(3, Partition({4: 1, 5: 1})) is False


def test_reduce_examples():
    assert reduce_partition(3, Partition({5: 1})) == Partition({2: 1, 3: 1})
    assert reduce_partition(3, Partition({2: 4})) == Partition({2: 4})
    assert reduce_partition(3, Partition({1: 4})) == Partition({2: 2})


def test_reduce_rejects_bad_inputs():
    with pytest.raises(PreconditionError):
        reduce_partition(2, Partition({1: 1}))
    with pytest.raises(PreconditionError):
        reduce_partition(9, Partition({1: 1}))
    with pytest.raises(PreconditionError):
        reduce_partition(3, Partition())


@pytest.mark.parametrize("p", [3.0, 2, 9, 1, -3, True, "3"])
def test_odd_prime_check_is_shared(p):
    # the partition helpers and corollary 3.4 reject the same primes: a
    # float 3.0 is not coerced, and p = 2 is refused
    u = Partition({2: 1})
    for call in (is_reduced, reduce_partition):
        with pytest.raises(PreconditionError):
            call(p, u)
    with pytest.raises(PreconditionError):
        check_corollary_3_4(p, 1, 0)


def test_reduce_is_reduced_and_weight_preserving_up_to_20():
    for p in (3, 5):
        for n in range(1, 21):
            for u in enumerate_partitions(n):
                r = reduce_partition(p, u)
                assert r.weight == n
                assert is_reduced(p, r)


def _reduce_by_displayed_formula(p, u):
    # independent oracle: the closed-form accumulation over alpha, with the
    # step-(ii) mass routed to the alpha = 1 slot only
    n = u.weight
    counts = {}
    alpha = 1
    while p**alpha - 1 <= n:
        target = p**alpha - 1
        total = 0
        for part, mult in u:
            x = part + 1
            if x % p**alpha == 0 and (x // p**alpha) % p:
                total += mult
        if alpha == 1:
            for part, mult in u:
                if (part + 1) % p and mult >= p:
                    total += math.ceil(mult / (p - 1)) - 1
        if total:
            counts[target] = total
        alpha += 1
    g = n - sum(k * v for k, v in counts.items())
    if g > 0:
        counts[g] = counts.get(g, 0) + 1
    return Partition(counts)


def test_reduce_matches_displayed_formula_exhaustively():
    for p in (3, 5):
        for n in range(1, 16):
            for u in enumerate_partitions(n):
                assert reduce_partition(p, u) == _reduce_by_displayed_formula(p, u)


def _reduce_two_passes(p, u):
    # reference: the rewrite rules per part, then the residual weight from a
    # second pass over the rewritten counts
    counts = {}
    for part, mult in u:
        succ = part + 1
        if succ % p == 0:
            alpha = 0
            while succ % p == 0:
                succ //= p
                alpha += 1
            target = part if succ == 1 else p**alpha - 1
            counts[target] = counts.get(target, 0) + mult
        elif mult >= p:
            moved = -(-mult // (p - 1)) - 1
            if moved:
                counts[p - 1] = counts.get(p - 1, 0) + moved
    residual = u.weight - sum(part * mult for part, mult in counts.items())
    if residual > 0:
        counts[residual] = counts.get(residual, 0) + 1
    return Partition(counts)


def test_reduce_matches_the_two_pass_reference():
    for p in (3, 5, 7):
        for n in range(1, 26):
            for u in enumerate_partitions(n):
                assert reduce_partition(p, u) == _reduce_two_passes(p, u)


def test_reduce_matches_displayed_formula_random():
    rng = random.Random(2024)
    for _ in range(200):
        p = rng.choice((3, 5, 7))
        parts = {}
        for _ in range(rng.randrange(1, 6)):
            parts[rng.randrange(1, 30)] = rng.randrange(1, 12)
        u = Partition(parts)
        assert reduce_partition(p, u) == _reduce_by_displayed_formula(p, u)


def test_sort_key_orders_like_enumeration():
    for n in (5, 8):
        seen = list(enumerate_partitions(n))
        assert seen == sorted(seen, key=Partition.sort_key)


def test_enumeration_matches_sympy():
    pytest.importorskip("sympy")
    from sympy.utilities.iterables import partitions

    for n in range(1, 21):
        ours = set(enumerate_partitions(n))
        # sympy reuses one dict per step, so each one is copied
        theirs = {Partition(dict(d)) for d in partitions(n)}
        assert ours == theirs
        assert len(ours) == count_partitions(n)


def _runs_bounded(n, cap, budget):
    # reference: the recursive generator the iterative successor replaced
    if n == 0:
        yield ()
        return
    if budget <= 0 or cap <= 0:
        return
    cap = min(cap, n)
    if cap * budget < n:
        return
    for part in range(cap, 0, -1):
        for mult in range(min(n // part, budget), 0, -1):
            rest = n - part * mult
            if rest == 0:
                yield ((part, mult),)
            else:
                for tail in _runs_bounded(rest, part - 1, budget - mult):
                    yield ((part, mult),) + tail


def test_bounded_enumeration_matches_recursive_reference():
    for n in range(31):
        for dmax in range(n + 2):
            want = [tuple(reversed(runs)) for runs in _runs_bounded(n, n, dmax)]
            got = list(enumerate_partitions_bounded(n, dmax))
            assert got == want, (n, dmax)


@pytest.mark.parametrize("call", [
    lambda: enumerate_partitions(2.0),
    lambda: enumerate_partitions(True),
    lambda: enumerate_partitions(-1),
    lambda: enumerate_partitions_bounded(2.0, 2),
    lambda: enumerate_partitions_bounded(True, 2),
    lambda: enumerate_partitions_bounded(-1, 2),
    lambda: enumerate_partitions_bounded(0, -3),
    lambda: enumerate_partitions_bounded(3, 2.0),
    lambda: enumerate_partitions_bounded(3, True),
    lambda: [count_partitions(2.0)],
    lambda: [count_partitions(True)],
])
def test_partition_functions_reject_bad_input(call):
    with pytest.raises(PreconditionError):
        list(call())


def test_reduce_partition_returns_canonical_partitions():
    # the result is built without Partition's validation: it must equal
    # the validated partition with the same pairs
    for p in (3, 5):
        for n in range(1, 16):
            for u in enumerate_partitions(n):
                r = reduce_partition(p, u)
                assert type(r) is Partition and r == Partition(r)
                assert all(mult >= 1 for _, mult in r)
