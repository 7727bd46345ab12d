import errno
import hashlib
import io
import itertools
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
    cache_blocks,
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
from ubern.congruences import _exact_terms, _sweep
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
    assert [(u.to_pairs(), c) for u, c in p1.items()] == [([[1, 1]], Fraction(1, 2))]
    p2 = divided_ubern(2)
    assert p2.get(Partition({1: 2})) == Fraction(-1, 4)
    assert p2.get(Partition({2: 1})) == Fraction(1, 3)
    assert len(p2) == 2
    assert all(u.weight == 2 for u in p2.keys())


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
    assert len(divided_ubern(5, n_ceiling=5)) == count_partitions(5)


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


def test_sparse_poly_takes_a_mapping():
    # coefficients are coerced to Fraction and zeros dropped; keys of any
    # weight are kept; a sequence of pairs is no Mapping
    u1, u2, u3 = Partition({1: 1}), Partition({1: 2}), Partition({3: 1})
    poly = SparsePoly({u1: 2, u2: Fraction(0), u3: Fraction(1, 3)})
    assert [(u, type(c)) for u, c in poly.items()] == [(u1, Fraction), (u3, Fraction)]
    assert poly.get(u1) == 2 and u2 not in poly and len(SparsePoly()) == 0
    with pytest.raises(AttributeError):
        SparsePoly([(u1, Fraction(1))])


def test_sparse_poly_item_order_is_canonical(tmp_path: Path):
    poly = divided_ubern(6)
    keys = [u for u, _ in poly.items()]
    assert keys == list(enumerate_partitions(6))
    # divided_ubern keys its terms in enumeration order, the order that
    # cache_blocks writes; that order must be the sort_key order items()
    # sorts by, and the cache round trip copies out the text of cache_blocks
    for n in range(1, 41):
        poly = divided_ubern(n)
        enumerated = list(poly._terms)
        assert enumerated == sorted(enumerated, key=Partition.sort_key), n
        assert poly.items() == list(poly._terms.items()), n
        path = tmp_path / cache_file_name(n)
        text = "".join(cache_blocks(n))
        assert _copied(write_coefficient_cache, path, n) == text, n
        assert _copied(read_coefficient_cache, path, n) == text, n
    # any other polynomial is still sorted
    canonical = divided_ubern(6).items()
    assert SparsePoly(dict(reversed(canonical))).items() == canonical


def _copied(cache_step, path, n):
    # what a cache writer or reader copies to its out; it returns nothing
    out = io.StringIO()
    assert cache_step(path, n, out) is None
    return out.getvalue()


def _json_cache_lines(n):
    # the json.dumps formatter of the divided_ubern(n) terms: the bytes reference
    poly = divided_ubern(n)
    yield json.dumps({"n": n, "count": len(poly)}, separators=(",", ":")) + "\n"
    for u, c in poly.items():
        yield json.dumps({"u": u.to_pairs(), "c": format_rational(c)}, separators=(",", ":")) + "\n"


def test_cache_lines_match_json_reference():
    for n in range(1, 21):
        lines = "".join(cache_blocks(n)).splitlines(keepends=True)
        assert lines == list(_json_cache_lines(n)), n
    for bad in (0, -3, 2.0):
        with pytest.raises(PreconditionError):
            next(cache_blocks(bad))


def _prefix(line):
    # the runs of parts >= 3 of a term line's partition
    return [pm for pm in json.loads(line)["u"] if pm[0] >= 3]


def test_cache_blocks_are_the_header_and_one_block_per_prefix():
    # after the header, a block holds the lines of one prefix, all of them:
    # the reference lines grouped by the partition's parts >= 3
    for n in range(1, 26):
        header, *lines = _json_cache_lines(n)
        groups = ["".join(g) for _, g in itertools.groupby(lines, key=_prefix)]
        assert list(cache_blocks(n)) == [header] + groups, n


def test_rational_serialization():
    assert format_rational(Fraction(-1, 4)) == "-1/4"
    assert format_rational(Fraction(4)) == "4/1"
    assert parse_rational("-1/4") == Fraction(-1, 4)
    assert parse_rational("7") == 7


def test_cache_round_trip(tmp_path: Path):
    path = tmp_path / "sub" / "ubern_9.jsonl"
    written = _copied(write_coefficient_cache, path, 9)
    assert path.read_text() == written
    assert _copied(read_coefficient_cache, path, 9) == written
    # byte-for-byte stable
    text = path.read_text()
    write_coefficient_cache(path, 9, io.StringIO())
    assert path.read_text() == text


def test_cache_rejects_corruption(tmp_path: Path):
    path = tmp_path / "ubern_7.jsonl"
    write_coefficient_cache(path, 7, io.StringIO())

    with pytest.raises(CacheError):
        read_coefficient_cache(path, 8, io.StringIO())  # wrong n

    lines = path.read_text().splitlines()
    (tmp_path / "short.jsonl").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(CacheError):
        read_coefficient_cache(tmp_path / "short.jsonl", 7, io.StringIO())

    garbled = lines[:]
    garbled[3] = "{not json"
    (tmp_path / "bad.jsonl").write_text("\n".join(garbled) + "\n")
    with pytest.raises(CacheError):
        read_coefficient_cache(tmp_path / "bad.jsonl", 7, io.StringIO())

    wrong_weight = lines[:]
    wrong_weight[1] = '{"u":[[1,1]],"c":"1/2"}'
    (tmp_path / "weight.jsonl").write_text("\n".join(wrong_weight) + "\n")
    with pytest.raises(CacheError):
        read_coefficient_cache(tmp_path / "weight.jsonl", 7, io.StringIO())

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
            read_coefficient_cache(tmp_path / "shape.jsonl", 7, io.StringIO())

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
            read_coefficient_cache(tmp_path / "order.jsonl", 7, io.StringIO())
    # a missing final newline, a blank line at the end and CRLF line ends
    for text in (
        "\n".join(lines),
        "\n".join(lines) + "\n\n",
        "\r\n".join(lines) + "\r\n",
    ):
        (tmp_path / "ends.jsonl").write_bytes(text.encode())
        with pytest.raises(CacheError):
            read_coefficient_cache(tmp_path / "ends.jsonl", 7, io.StringIO())


def test_cache_rejects_wrong_values_in_canonical_form(tmp_path: Path):
    # a coefficient changed but still in lowest terms, and a flipped sign,
    # are not the writer's bytes
    path = tmp_path / "ubern_7.jsonl"
    write_coefficient_cache(path, 7, io.StringIO())
    lines = path.read_text().splitlines(keepends=True)
    assert lines[1] == '{"u":[[7,1]],"c":"90/1"}\n'
    for index, old, new in ((1, '"90/1"', '"91/1"'), (1, '"90/1"', '"-90/1"'), (7, '"-', '"')):
        assert old in lines[index]
        changed = lines[:index] + [lines[index].replace(old, new)] + lines[index + 1:]
        path.write_text("".join(changed))
        with pytest.raises(CacheError, match=f"term line {index} "):
            read_coefficient_cache(path, 7, io.StringIO())
    # a weight outside the domain is the caller's error, not the file's
    for bad in (0, -3, 2.0):
        with pytest.raises(PreconditionError):
            read_coefficient_cache(path, bad, io.StringIO())


def test_cache_error_message_is_bounded(tmp_path: Path):
    path = tmp_path / "ubern_9.jsonl"
    write_coefficient_cache(path, 9, io.StringIO())
    lines = path.read_text().splitlines(keepends=True)
    huge = '{"u":[[1,9]],"c":"' + "7" * 2_000_000 + '/1"}\n'
    for index, name in ((0, "header"), (3, "term line 3 ")):
        path.write_text("".join(lines[:index] + [huge] + lines[index + 1:]))
        with pytest.raises(CacheError) as info:
            read_coefficient_cache(path, 9, io.StringIO())
        message = str(info.value)
        assert name in message and len(message) < 400 + len(str(path)), message
    # the message names the expected partition of that line
    assert lines[3].startswith('{"u":[[2,1],[7,1]],')
    assert "u = [[2,1],[7,1]]" in message


def test_cache_byte_that_is_not_utf8_names_its_line(tmp_path: Path):
    # a byte that is not UTF-8 is an ordinary mismatch: the error names the
    # header or the term line that holds it, not an offset in a read chunk
    path = tmp_path / "ubern_30.jsonl"
    data = _copied(write_coefficient_cache, path, 30).encode()
    for at, name in (
        (300_000, "term line 3802 is not the line of u = [[1,4],[2,1],[3,1],[7,3]]:"),
        (5, "header "),
        (len(data) - 2, "term line 5604 is not the line of u = [[1,30]]:"),
    ):
        path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
        with pytest.raises(CacheError) as info:
            read_coefficient_cache(path, 30, io.StringIO())
        assert name in str(info.value) and "\\udcff" in str(info.value), (at, info.value)


def _line_reader_messages(path, n):
    # the former line-by-line reader: the CacheError text for a term line
    # of the file that is not the reference line, or None if it matches
    want = list(_json_cache_lines(n))
    with open(path, encoding="utf-8", newline="\n") as f:
        found = list(f)
    for index, (line, expected) in enumerate(zip(found, want)):
        if index and line != expected:
            u = expected[5:expected.index('],"c":"') + 1]
            return (f"{path}: term line {index} is not the line of u = {u}: "
                    f"found {bernoulli._clip(line)}, expected {bernoulli._clip(expected)}")
    if len(found) != len(want):
        return f"{path}: not exactly {len(want) - 1} term lines"
    return None


def test_block_reader_names_the_line_the_line_reader_named(tmp_path: Path):
    # the block reader splits a block only when it differs, and must then
    # name the same term line, u and clipped texts as a line-by-line compare
    rng = random.Random(3544)
    path = tmp_path / "ubern_12.jsonl"
    write_coefficient_cache(path, 12, io.StringIO())
    text = path.read_text()
    lines = text.splitlines(keepends=True)
    variants = [text + "\n", text + "x", text[:-1]]
    # the texts of the first k blocks, for each k
    matched = list(itertools.accumulate(cache_blocks(12), initial=""))
    for i in range(1, len(lines)):
        head, line, rest = "".join(lines[:i]), lines[i], "".join(lines[i + 1:])
        variants += [
            head,  # short at a line end
            head + line[:len(line) // 2],  # cut inside a line
            head + rest,  # a line dropped
            head + line[:-1] + "x\n" + rest,  # a longer line
            head + line[:5] + rest,  # a shorter line
            head + line[:-1] + "\r\n" + rest,
            head + line + line + rest,
        ]
    for _ in range(200):  # past the header, which has its own message
        k = rng.randrange(len(lines[0]), len(text))
        variants.append(text[:k] + rng.choice('0123456789[],:"x\n') + text[k + 1:])
        variants.append(text[:k] + text[k + 1:])
    for variant in variants:
        path.write_text(variant)
        want = _line_reader_messages(path, 12)
        if want is None:
            assert _copied(read_coefficient_cache, path, 12) == variant
            continue
        out = io.StringIO()
        with pytest.raises(CacheError) as info:
            read_coefficient_cache(path, 12, out)
        assert str(info.value) == want
        # out holds the blocks that matched, whole, and nothing past them
        assert out.getvalue() == max((b for b in matched if variant.startswith(b)), key=len)


def test_tau_denominator_divides_the_cache_modulus():
    # tau(u) = +-K/M with M = (n+d)(n+d-1): why cache_blocks reduces by
    # gcd(K mod M, M) alone
    for n in range(1, 31):
        for u in enumerate_partitions(n):
            top = n + u.degree
            assert top * (top - 1) % tau(u).denominator == 0, u


def test_tau_prefixes_match_tau_fractions():
    # the shared prefix walk, each prefix closed by its tails 2**j 1**(rem-2j)
    # from rows 1 and 2 of the run table, against the independent
    # reference: enumerate_partitions and a gamma product per partition
    for n in range(1, 31):
        fact, run = bernoulli._tau_tables(n)
        want = bernoulli._tau_fractions(n)
        got = 0
        for runs, rem in bernoulli._tau_prefixes(n, run):
            _, _, g, d = runs[-1]
            prefix = tuple((part, mult) for part, mult, _, _ in reversed(runs[1:]))
            assert all(part >= 3 for part, _ in prefix), (n, prefix)
            for j in range(rem // 2, -1, -1):
                u, num, den = next(want)
                head = tuple(pm for pm in ((1, rem - 2 * j), (2, j)) if pm[1])
                assert head + prefix == u
                degree = d + rem - j
                num2 = fact[n + degree - 2]
                tail_gamma = run[2][j] * run[1][rem - 2 * j]
                assert (num2 if degree % 2 else -num2, g * tail_gamma) == (num, den), (n, u)
                got += 1
        assert next(want, None) is None, n
        assert got == count_partitions(n), n


def test_tau_prefixes_step_pops_one_run_and_holds_only_ints():
    # the walk's contract its readers rely on: each run is four ints, and a
    # step pops exactly the top run, so the runs below it are unchanged
    for n in range(1, 31):
        _, run = bernoulli._tau_tables(n)
        previous = None
        for runs, rem in bernoulli._tau_prefixes(n, run):
            assert all(len(r) == 4 and all(type(x) is int for x in r) for r in runs), n
            if previous is not None:
                kept = len(previous) - 1
                assert runs[:kept] == previous[:kept] and len(runs) - kept <= 3, (n, runs)
            previous = list(runs)


def test_gamma_divides_the_factorial_of_weight_plus_degree():
    # why (2n)! is a common denominator of every tau(u) of weight n
    for n in range(1, 21):
        for u in enumerate_partitions(n):
            assert math.factorial(n + u.degree) % gamma(u) == 0, u


def test_tau_sum_matches_the_per_partition_closed_form():
    # the prefix walk's integer sum against tau(u) term by term
    for n in range(1, 26):
        assert bernoulli._tau_sum(n) == sum(tau(u) for u in enumerate_partitions(n)), n


def test_tau_sum_recovers_classical_bernoulli():
    # at c_i = (-1)**i every monomial of weight n is (-1)**n
    for n in range(1, 41):
        assert n * (-1) ** n * bernoulli._tau_sum(n) == classical_bernoulli(n), n


def test_cache_lines_46_digest():
    # the compute/46 sha256 pinned in perfbench/reference.json
    digest = "d44705caf8a1acda5770d00f3bd4c3a12f1d4ddb3373c72be216508b8d2691f0"
    text = "".join(cache_blocks(46))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class _Sink:
    # an out that keeps no text, only its length: a StringIO may hold the
    # very strings it is sent, so it would hide a step that kept them too
    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)


# what a text file's buffers may take at once: the raw chunk, its decoded
# text and the text it replaces, in io.DEFAULT_BUFFER_SIZE reads, with room
_FILE_BUFFERS = 6 * io.DEFAULT_BUFFER_SIZE


def _traced_cache_step(cache_step, path, n):
    # (kept, peak, largest): what a cache writer or reader still holds after
    # it returns, the peak it adds to the stream cache_blocks(n) alone, and
    # the largest block; it must have copied the whole file to its out
    cache_step(path, n, _Sink())  # warm the imports and the path
    largest = max(map(len, cache_blocks(n)))
    out = _Sink()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in cache_blocks(n):  # the stream's own tables, one block at a time
            pass
        stream = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        cache_step(path, n, out)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.size == path.stat().st_size
    return held - base, peak - base - stream, largest


def test_cache_reader_streams(tmp_path: Path):
    # the reader compares the file with cache_blocks(n) in lockstep and
    # copies each checked block to out, so it keeps no block: what it holds
    # after it returns is about 0 of the file's 444,289 bytes, and its peak
    # over the stream's is its file buffers and a few blocks, not the file
    path = tmp_path / "ubern_30.jsonl"
    write_coefficient_cache(path, 30, _Sink())
    assert path.stat().st_size == 444_289
    kept, peak, largest = _traced_cache_step(read_coefficient_cache, path, 30)
    assert kept < io.DEFAULT_BUFFER_SIZE, kept
    assert peak < _FILE_BUFFERS + 4 * largest, (peak, largest)


def test_cache_writer_streams(tmp_path: Path):
    # the writer sends each block to the file and to out as it is made: the
    # same bounds as the reader's
    path = tmp_path / "ubern_30.jsonl"
    kept, peak, largest = _traced_cache_step(write_coefficient_cache, path, 30)
    assert path.stat().st_size == 444_289
    assert kept < io.DEFAULT_BUFFER_SIZE, kept
    assert peak < _FILE_BUFFERS + 4 * largest, (peak, largest)


def test_tau_valuations_below_matches_full_filter():
    # the pruned walk is exact: same partitions, same valuations, same order
    for n in range(1, 33):
        parts = list(enumerate_partitions(n))
        for p in (2, 3, 5, 7):
            vals = [(u, tau_valuation(p, u)) for u in parts]
            for k in range(1, 7):
                want = [(u, v) for u, v in vals if v < k]
                assert list(tau_valuations_below(p, n, k)) == want, (p, n, k)


def _walk_matches_exact_oracle(p, n, k):
    # the padic walk names the partitions the exact sweep keeps, in its
    # order, each with its true valuation
    got = list(tau_valuations_below(p, n, k))
    want = [u for u, _, _ in _exact_terms(n, SparsePoly(), _sweep("exact", p, n, k, n))]
    assert [u for u, _ in got] == want, (p, n, k)
    assert all(v == vp(p, tau(u)) for u, v in got), (p, n, k)


def test_tau_valuations_below_matches_exact_oracle_past_32():
    # the exact backend's term source tests every tau(u) with big integers;
    # the walk must name the same partitions, in the same order, past the
    # range where the full tau_valuation filter above is cheap
    for p, weights, exponents in (
        (2, range(34, 57, 2), (2, 3)),
        (3, (36, 42, 48, 54), (2, 3)),
        (5, (36, 44, 52), (1, 2)),
        (7, (36, 42, 48), (1, 2)),
        # past n = 56, where no other test checks that the walk misses nothing
        (2, (62, 70, 80, 90), (3,)),
        (3, (66, 90), (2,)),
        (5, (68, 90), (2,)),
        (7, (90,), (2,)),
        # past n = 90, up to where an exact sweep still takes under a second
        (2, (300, 600), (3,)),
        (3, (300, 600), (2,)),
        (5, (300, 600), (2,)),
    ):
        for n in weights:
            for k in exponents:
                _walk_matches_exact_oracle(p, n, k)


@pytest.mark.slow
@pytest.mark.parametrize("n", (1000, 2000))
@pytest.mark.parametrize("p, k", ((2, 3), (3, 2), (5, 2)))
def test_tau_valuations_below_matches_exact_oracle_at_2000(p, n, k):
    # the same check where the exact sweep takes 2-4 s (n = 1,000) and
    # 23-41 s (n = 2,000): the slow tier
    _walk_matches_exact_oracle(p, n, k)


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


def _knapsack_most(p, n):
    # most[c][r]: the largest sum u_i v_p(i+1) over the partitions of r into
    # parts <= c, by an unbounded knapsack over the parts in turn
    most = [[0] * (n + 1)]
    for c in range(1, n + 1):
        row = list(most[-1])
        w = vp_int(p, c + 1)
        for r in range(c, n + 1):
            row[r] = max(row[r], row[r - c] + w)
        most.append(row)
    return most


def test_gain_ceiling_is_the_knapsack_table():
    # the closed form r // (p-1) for c >= p-1, else 0, entry for entry
    for p in (2, 3, 5, 7, 11, 13):
        for n in (1, 2, 5, 30, 97, 200):
            most = _knapsack_most(p, n)
            for c in range(1, n + 1):
                got = [bernoulli._gain_ceiling(p, c, r) for r in range(n + 1)]
                assert got == most[c], (p, n, c)


def test_tau_valuations_below_needs_the_whole_gain_ceiling(monkeypatch):
    # mutation control: one less than the largest gain overstates the bound
    # by 1, and the walk then cuts a subtree that holds a yield
    real = bernoulli._gain_ceiling
    cases = [(p, n, k) for p in (2, 3, 5) for n in (10, 20) for k in (1, 2, 3)]
    want = {case: list(tau_valuations_below(*case)) for case in cases}
    monkeypatch.setattr(bernoulli, "_gain_ceiling", lambda p, c, r: real(p, c, r) - 1)
    dropped = [case for case in cases if list(tau_valuations_below(*case)) != want[case]]
    assert dropped
    for case in dropped:
        got = list(tau_valuations_below(*case))
        assert len(got) < len(want[case]) and set(got) < set(want[case]), case


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
    real_blocks = bernoulli.cache_blocks

    def failing_blocks(n):
        blocks = real_blocks(n)
        yield next(blocks)
        yield next(blocks)
        raise OSError("disk full")

    monkeypatch.setattr(bernoulli, "cache_blocks", failing_blocks)
    with pytest.raises(CacheError, match="disk full"):
        write_coefficient_cache(path, 9, io.StringIO())
    assert list(tmp_path.iterdir()) == []

    # a failed overwrite keeps the previous file byte for byte
    monkeypatch.setattr(bernoulli, "cache_blocks", real_blocks)
    write_coefficient_cache(path, 9, io.StringIO())
    before = path.read_bytes()
    monkeypatch.setattr(bernoulli, "cache_blocks", failing_blocks)
    with pytest.raises(CacheError, match="disk full"):
        write_coefficient_cache(path, 9, io.StringIO())
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


class _FullOutput:
    # an out on a full file system: every write raises ENOSPC
    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


def test_cache_output_error_names_the_output(tmp_path: Path):
    # an OSError from out is no fault of the cache file: the writer and the
    # reader name the output, and the writer leaves no file behind
    path = tmp_path / "ubern_9.jsonl"
    blame = f"cannot copy {path} to its output: [Errno {errno.ENOSPC}] No space"
    with pytest.raises(CacheError) as exc:
        write_coefficient_cache(path, 9, _FullOutput())
    assert str(exc.value).startswith(blame), exc.value
    assert list(tmp_path.iterdir()) == []
    write_coefficient_cache(path, 9, io.StringIO())
    before = path.read_bytes()
    with pytest.raises(CacheError) as exc:
        read_coefficient_cache(path, 9, _FullOutput())
    assert str(exc.value).startswith(blame), exc.value
    assert path.read_bytes() == before
    # an error of the cache file itself still names the cache file
    with pytest.raises(CacheError, match="^cannot write cache file "):
        write_coefficient_cache(path / "ubern_9.jsonl", 9, io.StringIO())
    with pytest.raises(CacheError, match="^cannot read cache file "):
        read_coefficient_cache(tmp_path / "ubern_8.jsonl", 8, io.StringIO())


def test_universal_von_staudt_at_large_weights():
    # Clarke's universal von Staudt theorem read on the padic walk, far past
    # the n <= 90 where it is checked against the exact walk: for p-1 | n
    # the least v_p(tau(u)) over the partitions of n is -1 - v_p(n), and the
    # pure c_(p-1)^(n/(p-1)) alone reaches it
    checked = 0
    for p in (2, 3, 5, 7):
        for n in (12, 24, 48, 60, 96, 120, 240, 480, 960, 1920):
            assert n % (p - 1) == 0
            low = dict(tau_valuations_below(p, n, 1))
            least = min(low.values())
            assert least == -1 - vp_int(p, n), (p, n)
            [u] = [u for u, v in low.items() if v == least]
            assert u == Partition({p - 1: n // (p - 1)}), (p, n)
            assert vp(p, tau(u)) == least, (p, n)
            checked += 1
    assert checked == 40
