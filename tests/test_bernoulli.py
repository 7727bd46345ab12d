import hashlib
import json
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from ubern.bernoulli import (
    SparsePoly,
    _tau_unit,
    cache_file_name,
    cache_lines,
    classical_bernoulli,
    divided_ubern,
    format_rational,
    gamma,
    parse_rational,
    read_coefficient_cache,
    specialize,
    tau,
    tau_valuation,
    tau_valuations_below,
    write_coefficient_cache,
)
import ubern.bernoulli as bernoulli
from ubern.congruences import _exact_terms
from ubern.errors import CacheError, CeilingExceeded, PreconditionError
from ubern.padic import _unit_factorials, _vp_factorial, vp, vp_int
from ubern.partitions import Partition, count_partitions, enumerate_partitions


def test_gamma_examples():
    assert gamma(Partition({1: 1})) == 2
    assert gamma(Partition({1: 2})) == 8
    assert gamma(Partition({2: 1})) == 3
    with pytest.raises(PreconditionError):
        gamma(Partition())


def test_tau_examples():
    assert tau(Partition({1: 1})) == Fraction(1, 2)
    assert tau(Partition({1: 2})) == Fraction(-1, 4)
    assert tau(Partition({2: 1})) == Fraction(1, 3)
    assert tau(Partition({2: 3})) == Fraction(280, 9)
    assert tau(Partition({5: 1})) == 4


def test_tau_valuation_agrees_with_exact():
    for n in range(1, 15):
        for u in enumerate_partitions(n):
            t = tau(u)
            for p in (2, 3, 5, 7):
                assert tau_valuation(p, u) == vp(p, t)


def _unit_residue(p, q, k):
    """Unit part of the nonzero rational q mod p**k, read off q itself."""
    w = q / Fraction(p) ** vp(p, q)
    return w.numerator * pow(w.denominator, -1, p**k) % p**k


def test_tau_unit_examples():
    # tau({2:1}) = 1/3, tau({1:1}) = 1/2, tau({2:3}) = 280/9 = 1 mod 9 after
    # its 3**-2, and tau({1:2}) = -1/4
    for p, parts, k, v, unit in (
        (3, {2: 1}, 2, -1, 1),
        (2, {1: 1}, 3, -1, 1),
        (3, {2: 3}, 2, -2, 1),
        (2, {1: 2}, 3, -2, 7),
        (3, {1: 2}, 2, 0, 2),
    ):
        u = Partition(parts)
        ufact = _unit_factorials(p, u.weight + u.degree, k)
        assert tau_valuation(p, u) == vp(p, tau(u)) == v
        assert _tau_unit(p, u, ufact, p**k) == _unit_residue(p, tau(u), k) == unit


def test_tau_unit_matches_exact_at_high_precision():
    # the padic backend's working precision reaches 10 at p = 2 on the
    # shipped grids; the acceptance pin covers precisions 1..5
    for n in range(1, 13):
        for u in enumerate_partitions(n):
            exact = tau(u)
            for p in (2, 3, 5):
                assert tau_valuation(p, u) == vp(p, exact), (p, u)
                for k in range(6, 11):
                    ufact = _unit_factorials(p, n + u.degree, k)
                    assert _tau_unit(p, u, ufact, p**k) == _unit_residue(p, exact, k), (
                        p, u, k,
                    )


def test_divided_ubern_small():
    p1 = divided_ubern(1)
    assert p1.weight_tag == 1
    assert [(u.to_pairs(), c) for u, c in p1.items()] == [([[1, 1]], Fraction(1, 2))]
    p2 = divided_ubern(2)
    assert p2.get(Partition({1: 2})) == Fraction(-1, 4)
    assert p2.get(Partition({2: 1})) == Fraction(1, 3)
    assert len(p2) == 2


def test_tau_fractions_match_tau_in_enumeration_order():
    for n in range(1, 31):
        stream = list(bernoulli._tau_fractions(n))
        assert [u for u, _, _ in stream] == list(enumerate_partitions(n))
        for u, num, den in stream:
            assert den == gamma(u)
            assert Fraction(num, den) == tau(u)


def test_divided_ubern_term_counts():
    for n in range(1, 26):
        assert len(divided_ubern(n)) == count_partitions(n)


def test_divided_ubern_guards():
    with pytest.raises(PreconditionError):
        divided_ubern(0)
    with pytest.raises(CeilingExceeded):
        divided_ubern(61)
    with pytest.raises(CeilingExceeded):
        divided_ubern(6, n_ceiling=5)
    assert divided_ubern(5, n_ceiling=5).weight_tag == 5


def test_specialize_recovers_classical_values():
    vals = {i: (-1) ** i for i in range(1, 8)}
    assert 2 * specialize(divided_ubern(2), vals) == Fraction(1, 6)
    assert 4 * specialize(divided_ubern(4), vals) == Fraction(-1, 30)
    assert 6 * specialize(divided_ubern(6), vals) == Fraction(1, 42)


def test_specialize_missing_value():
    with pytest.raises(KeyError):
        specialize(divided_ubern(3), {1: 1, 2: 1})


def test_specialize_all_zero():
    zero = {i: 0 for i in range(1, 6)}
    assert specialize(divided_ubern(5), zero) == 0


def _specialize_reference(poly, values):
    # reference: one Fraction power and product per term
    total = Fraction(0)
    for u, c in poly.items():
        prod = Fraction(1)
        for part, mult in u:
            prod *= Fraction(values[part]) ** mult
        total += c * prod
    return total


def test_specialize_matches_fraction_reference():
    rng = random.Random(20080828)
    for n in range(1, 26):
        poly = divided_ubern(n)
        signs = {i: (-1) ** i for i in range(1, n + 1)}
        zeros = {i: 0 for i in range(1, n + 1)}
        mixed = {i: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for i in range(1, n + 1)}
        mixed[1] = rng.randint(-3, 3)
        for values in (signs, zeros, mixed):
            got = specialize(poly, values)
            assert type(got) is Fraction and got == _specialize_reference(poly, values), n


@pytest.mark.parametrize("value", [1.5, 0.1, True, False, "1", None])
def test_specialize_rejects_non_rational_values(value):
    values = {1: 1, 2: value, 3: Fraction(1, 2)}
    with pytest.raises(PreconditionError):
        specialize(divided_ubern(3), values)


def test_classical_bernoulli():
    expected = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        3: Fraction(0),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
    }
    for n, value in expected.items():
        assert classical_bernoulli(n) == value
    for n in range(3, 31, 2):
        assert classical_bernoulli(n) == 0


def test_classical_bernoulli_matches_sympy():
    sympy = pytest.importorskip("sympy")
    # sympy's convention is B_1 = +1/2; this package uses B_1 = -1/2
    assert sympy.bernoulli(1) == sympy.Rational(1, 2)
    assert classical_bernoulli(1) == Fraction(-1, 2)
    for n in range(61):
        if n != 1:
            q = sympy.bernoulli(n)
            assert classical_bernoulli(n) == Fraction(int(q.p), int(q.q)), n


def test_oracle_equivalence_prefix():
    for n in range(1, 13):
        vals = {i: (-1) ** i for i in range(1, n + 1)}
        assert n * specialize(divided_ubern(n), vals) == classical_bernoulli(n)


def test_clarke_p_integrality():
    # divided_ubern(n) is p-integral unless (p-1) | n: the least v_p of its
    # exact coefficients, which at n = 2 is -1 for p = 3 and 0 for p = 5
    def least(p, n):
        return min(vp(p, c) for _, c in divided_ubern(n).items())

    assert (least(3, 2), least(5, 2)) == (-1, 0)
    for p in (3, 5, 7):
        for n in range(1, 31):
            if n % (p - 1):
                assert least(p, n) >= 0


def test_sparse_poly_algebra():
    u1, u2 = Partition({1: 2}), Partition({2: 1})
    a = SparsePoly({u1: Fraction(1, 2), u2: Fraction(1)})
    # add_term copies once: a cancelled key is dropped, a new one inserted,
    # and a is left as it was
    cancelled = a.add_term(u2, -1)
    assert len(cancelled) == 1 and u2 not in cancelled and cancelled.get(u2) == 0
    added = a.add_term(Partition({1: 1}), 3)
    assert added.get(Partition({1: 1})) == 3 and added.get(u1) == Fraction(1, 2)
    assert len(a) == 2 and a.get(u2) == 1
    assert a.add_term(u1, Fraction(1, 2)).get(u1) == 1


def test_sparse_poly_weight_tag_enforced():
    with pytest.raises(ValueError):
        SparsePoly({Partition({1: 1}): Fraction(1)}, weight_tag=2)


def test_sparse_poly_item_order_is_canonical(tmp_path: Path):
    poly = divided_ubern(6)
    keys = [u for u, _ in poly.items()]
    assert keys == list(enumerate_partitions(6))
    # divided_ubern lists its terms without sorting; the order must still
    # be the sort_key order, and the cache round trip returns the lines of
    # cache_lines, which follow the same enumeration
    for n in range(1, 41):
        poly = divided_ubern(n)
        want = sorted(poly.items(), key=lambda kv: kv[0].sort_key())
        assert poly.items() == want, n
        path = tmp_path / cache_file_name(n)
        lines = list(cache_lines(n))
        assert write_coefficient_cache(path, n) == lines, n
        assert read_coefficient_cache(path, n) == lines, n
    # any other polynomial is still sorted
    canonical = divided_ubern(6).items()
    assert SparsePoly(list(reversed(canonical)), weight_tag=6).items() == canonical


def _json_cache_lines(poly):
    # the json.dumps formatter of the SparsePoly terms: the bytes reference
    yield json.dumps({"n": poly.weight_tag, "count": len(poly)}, separators=(",", ":")) + "\n"
    for u, c in poly.items():
        yield json.dumps({"u": u.to_pairs(), "c": format_rational(c)}, separators=(",", ":")) + "\n"


def test_cache_lines_match_json_reference():
    for n in range(1, 21):
        assert list(cache_lines(n)) == list(_json_cache_lines(divided_ubern(n))), n
    for bad in (0, -3, 2.0):
        with pytest.raises(PreconditionError):
            next(cache_lines(bad))


def test_rational_serialization():
    assert format_rational(Fraction(-1, 4)) == "-1/4"
    assert format_rational(Fraction(4)) == "4/1"
    assert parse_rational("-1/4") == Fraction(-1, 4)
    assert parse_rational("7") == 7


def test_cache_round_trip(tmp_path: Path):
    path = tmp_path / "sub" / "ubern_9.jsonl"
    lines = write_coefficient_cache(path, 9)
    assert path.read_text() == "".join(lines)
    assert read_coefficient_cache(path, 9) == lines
    # byte-for-byte stable
    text = path.read_text()
    write_coefficient_cache(path, 9)
    assert path.read_text() == text


def test_cache_rejects_corruption(tmp_path: Path):
    path = tmp_path / "ubern_7.jsonl"
    write_coefficient_cache(path, 7)

    with pytest.raises(CacheError):
        read_coefficient_cache(path, 8)  # wrong n

    lines = path.read_text().splitlines()
    (tmp_path / "short.jsonl").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(CacheError):
        read_coefficient_cache(tmp_path / "short.jsonl", 7)

    garbled = lines[:]
    garbled[3] = "{not json"
    (tmp_path / "bad.jsonl").write_text("\n".join(garbled) + "\n")
    with pytest.raises(CacheError):
        read_coefficient_cache(tmp_path / "bad.jsonl", 7)

    wrong_weight = lines[:]
    wrong_weight[1] = '{"u":[[1,1]],"c":"1/2"}'
    (tmp_path / "weight.jsonl").write_text("\n".join(wrong_weight) + "\n")
    with pytest.raises(CacheError):
        read_coefficient_cache(tmp_path / "weight.jsonl", 7)

    # valid JSON of the wrong shape, and a zero denominator
    for index, text in (
        (0, "[1,2]"),
        (0, "7"),
        (2, "[1,2]"),
        (2, '{"u":[[7,1]],"c":5}'),
        (2, '{"u":[[7,1]],"c":"1/0"}'),
    ):
        broken = lines[:]
        broken[index] = text
        (tmp_path / "shape.jsonl").write_text("\n".join(broken) + "\n")
        with pytest.raises(CacheError):
            read_coefficient_cache(tmp_path / "shape.jsonl", 7)

    # the reader accepts only the writer's bytes, in enumeration order
    assert lines[1] == '{"u":[[7,1]],"c":"90/1"}'
    assert lines[-1].startswith('{"u":[[1,7]],')
    swapped = lines[:]
    swapped[4], swapped[5] = swapped[5], swapped[4]
    duplicated = lines[:]
    duplicated[3] = duplicated[2]
    variants = [swapped, duplicated]
    for part in ("1.5", "true", "1.0"):
        variants.append(lines[:-1] + [lines[-1].replace("[[1,7]]", f"[[{part},7]]")])
    variants.append(lines[:-1] + [lines[-1].replace("[[1,7]]", "[[1,7.0]]")])
    for coeff in ("2/4", "+1/2", "180/2", "+90/1", "90", "090/1", "90/01", " 90/1", "9_0/1"):
        variants.append(lines[:1] + [f'{{"u":[[7,1]],"c":"{coeff}"}}'] + lines[2:])
    variants.append(lines[:1] + ['{"u": [[7,1]], "c": "1/2"}'] + lines[2:])
    variants.append(lines[:1] + [json.dumps(json.loads(lines[1]))] + lines[2:])
    for variant in variants:
        (tmp_path / "order.jsonl").write_text("\n".join(variant) + "\n")
        with pytest.raises(CacheError):
            read_coefficient_cache(tmp_path / "order.jsonl", 7)
    # a missing final newline, a blank line at the end and CRLF line ends
    for text in (
        "\n".join(lines),
        "\n".join(lines) + "\n\n",
        "\r\n".join(lines) + "\r\n",
    ):
        (tmp_path / "ends.jsonl").write_bytes(text.encode())
        with pytest.raises(CacheError):
            read_coefficient_cache(tmp_path / "ends.jsonl", 7)


def test_cache_rejects_wrong_values_in_canonical_form(tmp_path: Path):
    # a coefficient changed but still in lowest terms, and a flipped sign,
    # are not the writer's bytes
    path = tmp_path / "ubern_7.jsonl"
    lines = write_coefficient_cache(path, 7)
    assert lines[1] == '{"u":[[7,1]],"c":"90/1"}\n'
    for index, old, new in ((1, '"90/1"', '"91/1"'), (1, '"90/1"', '"-90/1"'), (7, '"-', '"')):
        assert old in lines[index]
        changed = lines[:index] + [lines[index].replace(old, new)] + lines[index + 1:]
        path.write_text("".join(changed))
        with pytest.raises(CacheError, match=f"term line {index} "):
            read_coefficient_cache(path, 7)
    # a weight outside the domain is the caller's error, not the file's
    for bad in (0, -3, 2.0):
        with pytest.raises(PreconditionError):
            read_coefficient_cache(path, bad)


def test_cache_error_message_is_bounded(tmp_path: Path):
    path = tmp_path / "ubern_9.jsonl"
    lines = write_coefficient_cache(path, 9)
    huge = '{"u":[[1,9]],"c":"' + "7" * 2_000_000 + '/1"}\n'
    for index, name in ((0, "header"), (3, "term line 3 ")):
        path.write_text("".join(lines[:index] + [huge] + lines[index + 1:]))
        with pytest.raises(CacheError) as info:
            read_coefficient_cache(path, 9)
        message = str(info.value)
        assert name in message and len(message) < 400 + len(str(path)), message
    # the message names the expected partition of that line
    assert lines[3].startswith('{"u":[[2,1],[7,1]],')
    assert "u = [[2,1],[7,1]]" in message


def test_tau_runs_match_tau_fractions():
    # the cache sweep against the independent reference: enumerate_partitions
    # and a gamma product per partition
    for n in range(1, 31):
        got = 0
        for (runs, num, den), (u, num2, den2) in zip(
            bernoulli._tau_runs(n), bernoulli._tau_fractions(n)
        ):
            assert tuple((part, mult) for part, mult, *_ in reversed(runs)) == u
            assert (num, den) == (num2, den2), (n, u)
            assert runs[-1][4] == ",".join("[%d,%d]" % pm for pm in u), (n, u)
            got += 1
        assert got == count_partitions(n), n
        assert sum(1 for _ in bernoulli._tau_runs(n)) == got, n


def test_cache_lines_46_digest():
    # the compute/46 sha256 pinned in perfbench/reference.json
    digest = "d44705caf8a1acda5770d00f3bd4c3a12f1d4ddb3373c72be216508b8d2691f0"
    text = "".join(cache_lines(46))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_cache_reader_streams(tmp_path: Path):
    # the reader compares the file with cache_lines(n) in lockstep, so its
    # peak is the lines it returns plus one expected line, not two lists
    path = tmp_path / "ubern_30.jsonl"
    write_coefficient_cache(path, 30)
    read_coefficient_cache(path, 30)  # warm the tables and the imports
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lines = read_coefficient_cache(path, 30)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(lines) == count_partitions(30) + 1
    assert peak - base < 1.5 * (held - base), (peak - base, held - base)


def test_tau_valuations_below_matches_full_filter():
    # the pruned walk is exact: same partitions, same valuations, same order
    for n in range(1, 33):
        parts = list(enumerate_partitions(n))
        for p in (2, 3, 5, 7):
            vals = [(u, tau_valuation(p, u)) for u in parts]
            for k in range(1, 7):
                want = [(u, v) for u, v in vals if v < k]
                assert list(tau_valuations_below(p, n, k)) == want, (p, n, k)


def test_tau_valuations_below_matches_exact_oracle_past_32():
    # the exact backend's term source tests every tau(u) with big integers;
    # the walk must name the same partitions, in the same order, past the
    # range where the full tau_valuation filter above is cheap
    for n in range(34, 49, 2):
        for k in (2, 3):
            got = list(tau_valuations_below(2, n, k))
            want = [u for u, _, _ in _exact_terms(n, SparsePoly(), 2, k)]
            assert [u for u, _ in got] == want, (n, k)
            assert all(v == vp(2, tau(u)) for u, v in got), (n, k)


def _tight_walk_reference(p, n, k):
    # the former walk: best[c][r][dd], the largest gain over partitions of r
    # into exactly dd parts <= c, gives a tight bound from an O(n^3) table
    vfact = [0] * (max(2 * n - 2, n) + 1)
    for i in range(1, len(vfact)):
        vfact[i] = vfact[i - 1] + (vp_int(p, i) if i % p == 0 else 0)
    vsucc = [0] + [vp_int(p, i + 1) if (i + 1) % p == 0 else 0 for i in range(1, n + 1)]

    def gain(part, mult):
        return mult * vsucc[part] + vfact[mult]

    best = [[[0]] + [[-math.inf] * (r + 1) for r in range(1, n + 1)]]
    for c in range(1, n + 1):
        prev = best[-1]
        row = []
        for r in range(n + 1):
            cur = list(prev[r])
            for m in range(1, r // c + 1):
                g = gain(c, m)
                rest = r - c * m
                src = prev[rest]
                lo = -(-rest // (c - 1)) if c > 1 else rest
                for dd in range(lo, rest + 1):
                    if src[dd] + g > cur[dd + m]:
                        cur[dd + m] = src[dd] + g
            row.append(cur)
        best.append(row)

    def floor(cap, r, d):
        return min(vfact[n + d + dd - 2] - b for dd, b in enumerate(best[cap][r]))

    def walk(r, cap, d, s, tail):
        for part in range(min(cap, r), 0, -1):
            if floor(part, r, d) - s >= k:
                break
            for mult in range(r // part, 0, -1):
                rest = r - part * mult
                d2 = d + mult
                s2 = s + gain(part, mult)
                pairs = ((part, mult),) + tail
                if rest == 0:
                    v = vfact[n + d2 - 2] - s2
                    if v < k:
                        yield Partition(dict(pairs)), v
                elif floor(part - 1, rest, d2) - s2 < k:
                    yield from walk(rest, part - 1, d2, s2, pairs)

    yield from walk(n, n, 0, 0, ())


def test_tau_valuations_below_matches_tight_reference():
    # the superadditive bound is looser than the former tight one, but it
    # cuts only what cannot yield: same partitions, valuations and order
    for p in (2, 3, 5, 7):
        for n in range(1, 41):
            for k in range(1, 6):
                want = list(_tight_walk_reference(p, n, k))
                assert list(tau_valuations_below(p, n, k)) == want, (p, n, k)


def test_factorial_valuation_is_superadditive():
    # v_p((a+b)!) >= v_p(a!) + v_p(b!), the walk's bound, against Legendre
    for p in (2, 3, 5, 7):
        legendre = [sum(a // p**i for i in range(1, 10)) for a in range(401)]
        assert [_vp_factorial(p, a) for a in range(401)] == legendre
        for a in range(201):
            for b in range(201):
                assert legendre[a + b] >= legendre[a] + legendre[b], (p, a, b)


def test_tau_valuations_below_past_the_grid():
    # n = 300, far past the shipped grid: keys distinct, in canonical order,
    # each v the exact valuation and below k
    p, k = 2, 3
    got = list(tau_valuations_below(p, 300, k))
    keys = [u for u, _ in got]
    assert got and len(set(keys)) == len(keys)
    assert keys == sorted(keys, key=Partition.sort_key)
    for u, v in got:
        assert u.weight == 300
        assert v == tau_valuation(p, u) < k


def test_tau_valuations_below_guards():
    with pytest.raises(PreconditionError):
        list(tau_valuations_below(2, 0, 1))
    with pytest.raises(PreconditionError):
        list(tau_valuations_below(4, 10, 1))


def test_cache_write_is_atomic(tmp_path: Path, monkeypatch):
    path = tmp_path / "ubern_9.jsonl"
    real_lines = bernoulli.cache_lines

    def failing_lines(n):
        lines = real_lines(n)
        yield next(lines)
        yield next(lines)
        raise OSError("disk full")

    monkeypatch.setattr(bernoulli, "cache_lines", failing_lines)
    with pytest.raises(CacheError, match="disk full"):
        write_coefficient_cache(path, 9)
    assert list(tmp_path.iterdir()) == []

    # a failed overwrite keeps the previous file byte for byte
    monkeypatch.setattr(bernoulli, "cache_lines", real_lines)
    write_coefficient_cache(path, 9)
    before = path.read_bytes()
    monkeypatch.setattr(bernoulli, "cache_lines", failing_lines)
    with pytest.raises(CacheError, match="disk full"):
        write_coefficient_cache(path, 9)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
