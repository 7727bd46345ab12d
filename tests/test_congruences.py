import functools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

import ubern.bernoulli as bernoulli
import ubern.congruences as congruences
from ubern.bernoulli import (
    _tau_fractions,
    classical_bernoulli,
    divided_ubern,
    tau,
    tau_valuation,
    tau_valuations_below,
)
from ubern.congruences import (
    _congruence_report,
    _lhs,
    GRID_THEOREM_3_5,
    GRID_THEOREM_4_8,
    GRID_THEOREM_4_9,
    CongruenceReport,
    check_corollary_3_4,
    poly_congruent,
    reports_agree,
    rhs_theorem_3_5,
    rhs_theorem_4_8,
    rhs_theorem_4_9,
    tau_pure,
    verify_classical_kummer,
    verify_theorem_3_5,
    verify_theorem_4_8,
    verify_theorem_4_9,
)
from ubern.bernoulli import DEFAULT_N_CEILING, SparsePoly, format_rational
from ubern.errors import PreconditionError
from ubern.lemmas import run_sweep
from ubern.padic import (
    digit_sum,
    double_factorial,
    f_term,
    factorial_unit_mod,
    is_prime,
    vp,
    vp_factorial,
    vp_int,
)
from ubern.partitions import Partition, enumerate_partitions


def _low(backend, p, n, k, n_ceiling=DEFAULT_N_CEILING):
    # the backend's own sweep at n, as _lhs takes it
    return congruences._sweep(backend, p, n, k, n_ceiling)


def _report(backend, p, n, k, rhs, context=None, n_ceiling=DEFAULT_N_CEILING):
    # the last step of _verify_case on rhs: the backend's left-hand side
    # from its own sweep at n, checked against rhs in the one congruence test
    lhs = _lhs(backend, p, n, k, _low(backend, p, n, k, n_ceiling), rhs)
    return _congruence_report(lhs, rhs, p, k, {} if context is None else context)


def test_poly_congruent_basics():
    u = Partition({1: 1})
    a = SparsePoly({u: Fraction(3)})
    report = poly_congruent(a, a, 5, 3)
    assert report.holds and not report.failures

    at_threshold = a.add_term(u, Fraction(5**3))
    assert poly_congruent(a, at_threshold, 5, 3).holds
    assert not poly_congruent(a, at_threshold, 5, 4).holds

    non_integral = a.add_term(u, Fraction(1, 5))
    report = poly_congruent(a, non_integral, 5, 1)
    assert not report.holds
    assert report.failures[0].vp_diff == -1


def test_poly_congruent_symmetry_and_monotonicity():
    a = divided_ubern(4)
    b = a.add_term(Partition({1: 4}), Fraction(27))
    for k in (1, 2, 3, 4):
        fwd = poly_congruent(a, b, 3, k)
        rev = poly_congruent(b, a, 3, k)
        assert fwd.holds == rev.holds
    assert poly_congruent(a, b, 3, 3).holds
    assert not poly_congruent(a, b, 3, 4).holds


def _poly_congruent_reference(A, B, p, k):
    # the sorted-union loop: every key of either side, in canonical order,
    # differenced and valued with vp
    failures = []
    for u in sorted(set(A.keys()) | set(B.keys()), key=Partition.sort_key):
        a, b = A.get(u), B.get(u)
        diff = a - b
        if diff and vp(p, diff) < k:
            failures.append((u, format_rational(a), format_rational(b), vp(p, diff)))
    return failures


def _random_pair(rng, p, k):
    n = rng.randrange(5, 13)
    keys = list(enumerate_partitions(n))
    rng.shuffle(keys)

    def coeff():
        return Fraction(rng.choice((-1, 1)) * rng.randrange(1, 200), rng.choice((1, 2, 3, 7, p, p * p)))

    A, B = {}, {}
    # the first six keys take one case each, the rest a random one
    for i, u in enumerate(keys[: rng.randrange(6, 25)]):
        case = i if i < 6 else rng.randrange(6)
        a = coeff()
        if case == 0:  # only in A
            A[u] = a
        elif case == 1:  # only in B
            B[u] = a
        elif case == 2:  # exact cancellation
            A[u] = B[u] = a
        elif case == 3:  # a move across or onto the modulus boundary
            A[u], B[u] = a, a + rng.choice((p ** (k - 1), p**k, 2 * p**k))
        elif case == 4:  # a non-p-integral difference
            A[u], B[u] = a, a + Fraction(rng.choice((-1, 1)), p)
        else:
            A[u], B[u] = a, coeff()
    # keys of another weight, only in B: one failing, one holding
    shifted = [u.merged({1: 1}) for u in keys[:2]]
    B[shifted[0]] = Fraction(1)
    B[shifted[1]] = Fraction(p**k)
    return n, SparsePoly(A), SparsePoly(B)


def test_poly_congruent_matches_sorted_union_reference():
    rng = random.Random(20260)
    for _ in range(150):
        p = rng.choice((2, 3, 5))
        k = rng.randrange(1, 5)
        n, A, B = _random_pair(rng, p, k)
        for lhs, rhs in ((A, B), (B, A)):
            expected = _poly_congruent_reference(lhs, rhs, p, k)
            report = poly_congruent(lhs, rhs, p, k)
            assert [(f.u, f.lhs, f.rhs, f.vp_diff) for f in report.failures] == expected
            assert report.holds is (not expected)
        assert any(v < 0 for *_, v in expected)
        assert any(u.weight != n for u, *_ in expected)


def _assert_stream_matches_materialised(report, rhs):
    # the exact report streams tau(u); the references run on divided_ubern(n)
    n, p, k = report.context["n"], report.prime, report.mod_exp
    lhs = divided_ubern(n)
    expected = _poly_congruent_reference(lhs, rhs, p, k)
    assert [(f.u, f.lhs, f.rhs, f.vp_diff) for f in report.failures] == expected
    assert report.holds is (not expected)
    assert report.to_json() == poly_congruent(lhs, rhs, p, k, context=report.context).to_json()


def _grid_cases(n_max):
    for p, s, l in GRID_THEOREM_3_5:
        if (s + l) * (p - 1) <= n_max:
            yield verify_theorem_3_5, rhs_theorem_3_5, (p, s, l)
    for n in GRID_THEOREM_4_8:
        if n <= n_max:
            yield verify_theorem_4_8, lambda n: rhs_theorem_4_8(n)[0], (n,)
    for m, k, N in GRID_THEOREM_4_9:
        if m + k * 2**N <= n_max:
            yield verify_theorem_4_9, rhs_theorem_4_9, (m, k, N)


def test_exact_stream_matches_materialised_grid():
    cases = list(_grid_cases(32))
    assert len(cases) == 33
    for verify, build, args in cases:
        report = verify(*args)
        assert report.holds, (verify.__name__, args)
        _assert_stream_matches_materialised(report, build(*args))


# the three mutation controls: +1 on the first right-hand-side coefficient
CONTROL_CASES = (
    (verify_theorem_3_5, rhs_theorem_3_5, (5, 1, 5)),
    (verify_theorem_4_8, lambda n: rhs_theorem_4_8(n)[0], (12,)),
    (verify_theorem_4_9, rhs_theorem_4_9, (7, 1, 3)),
)


def _perturbed(rhs):
    return rhs.add_term(rhs.items()[0][0], 1)


def test_exact_stream_matches_materialised_controls():
    for verify, build, args in CONTROL_CASES:
        report = verify(*args, perturb=True)
        _assert_stream_matches_materialised(report, _perturbed(build(*args)))


def test_exact_terms_sweep_every_partition():
    # 2**k exceeds every numerator (2n-2)!, so no tau(u) is 0 mod 2**k and
    # the sweep yields each partition: the terms of _tau_fractions, in order
    for n in range(1, 31):
        k = math.factorial(2 * n - 2).bit_length()
        lhs = _lhs("exact", 2, n, k, _low("exact", 2, n, k), SparsePoly())
        want = [(u, Fraction(num, den)) for u, num, den in _tau_fractions(n)]
        assert list(lhs.items()) == want, n


def test_exact_sweep_matches_fraction_filter():
    # every (p, k) on every weight up to 30 against the Fraction of each
    # term of _tau_fractions: the unscreened root (n <= 2), nodes left with
    # weight 0, 1 and 2, and tau(u) that are not p-integral, which the
    # screen must pass on to the full test
    for n in range(1, 31):
        terms = [(u, (num, den), Fraction(num, den)) for u, num, den in _tau_fractions(n)]
        for p in (2, 3, 5, 7):
            for k in range(1, 5):
                want = [(u, pair) for u, pair, c in terms if c.numerator % p**k]
                assert list(congruences._exact_sweep(p, n, k)) == want, (p, n, k)


def test_exact_sweep_tables_are_sized_to_its_walk():
    # the factorials, the run factors and the clearing rows the walk reads:
    # at n = 600 the peak is about 8 MB, yields included; a table of every
    # tail's gamma, or clearing rows the walk cannot read, passes 16 MB
    list(congruences._exact_sweep(2, 30, 3))  # warm the imports
    tracemalloc.start()
    try:
        list(congruences._exact_sweep(2, 600, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000, peak


def _brute_clearing(r):
    # {c: the lcm of prod (i+1)**v_i over the partitions v of r into parts
    # <= c} for 1 <= c <= r + 2, by partition and lcm alone
    products = [(0, 1)] if r == 0 else [
        (max(part for part, _ in v), math.prod((part + 1) ** mult for part, mult in v))
        for v in enumerate_partitions(r)
    ]
    return {c: math.lcm(*(x for top, x in products if top <= c)) for c in range(1, r + 3)}


def test_subtree_clearing_matches_brute_force_lcm():
    # every entry of weight <= 30, caps past r included, read from one
    # table that reaches them all and from the smallest table each: L(r, c)
    # does not depend on n, and column c >= 3 of the table of weight n keeps
    # the rows r <= n - c - 1, so the table of weight r + c + 1 holds it
    brute = {r: _brute_clearing(r) for r in range(31)}
    shared = congruences._subtree_clearing(63)
    for r in range(31):
        for c in range(1, r + 3):
            want = brute[r][c]
            assert shared[c][r] == want, (r, c)
            assert congruences._subtree_clearing(r + c + 1)[c][r] == want, (r, c)


def test_subtree_clearing_keeps_the_rows_the_walk_reads():
    # columns c < max(n, 3); the c <= 2 columns keep every r <= n, for the
    # tail screens, and each column c >= 3 the r <= n - c - 1 a child of
    # part c + 1 leaves; a column c with c + 1 not prime is column c - 1
    for n in range(1, 41):
        columns = congruences._subtree_clearing(n)
        assert len(columns) == max(n, 3), n
        for c, column in enumerate(columns):
            if c <= 2 or is_prime(c + 1):
                assert len(column) == (n + 1 if c <= 2 else n - c), (n, c)
            else:
                assert column is columns[c - 1], (n, c)


def test_subtree_clearing_c_2_column_is_the_tail_factor():
    # the column the tail blocks read: 2**r 3**(r//2), the former block
    # factor, at every r <= n
    assert congruences._subtree_clearing(60)[2] == [2**r * 3 ** (r // 2) for r in range(61)]
    assert congruences._subtree_clearing(600)[2] == [2**r * 3 ** (r // 2) for r in range(601)]


def test_subtree_clearing_is_the_gain_ceiling_of_each_prime():
    # the exact oracle's closed form and the padic walk's _gain_ceiling are
    # two codings of one bound, v_q(i+1) <= i/(q-1), that share no code:
    # L(r, c) holds q**_gain_ceiling(q, c, r) for each prime q <= 61 and no
    # other prime factor, for r <= 60 and c <= 62, which the table of
    # weight 123 keeps
    primes = [q for q in range(2, 62) if is_prime(q)]
    clearing = congruences._subtree_clearing(123)
    for c in range(1, 63):
        for r in range(61):
            entry = clearing[c][r]
            for q in primes:
                v = vp_int(q, entry)
                assert v == bernoulli._gain_ceiling(q, c, r), (q, r, c)
                entry //= q**v
            assert entry == 1, (r, c)


def test_nonzero_mod_is_its_definition():
    # num/den != 0 mod p**k: the numerator of num/den in lowest terms is not
    # divisible by p**k, for zero, negative, small and factorial-sized
    # numerators over denominators that share factors with num and p**k
    rng = random.Random(35)
    heads = [0, 1, -1, 6, -45, 2**61 - 1, math.factorial(450), -math.factorial(1000),
             math.factorial(2000), -math.factorial(1998)]  # (2n)! at n = 1,000
    outcomes = set()
    for p in (2, 3, 5, 7):
        for k in range(1, 6):
            modulus = p**k
            for _ in range(150):
                shared = rng.choice([1, p, p**k, p ** (k + 2), math.factorial(rng.randrange(2, 30))])
                num = rng.choice(heads) * rng.randrange(-40, 41) * p ** rng.randrange(8) * shared
                den = rng.randrange(1, 60) * p ** rng.randrange(8) * shared
                want = Fraction(num, den).numerator % modulus != 0
                assert congruences._nonzero_mod(num, den, modulus) == want, (num, den, p, k)
                outcomes.add((num == 0, want))
    assert outcomes == {(True, False), (False, False), (False, True)}


def _walk_nodes(n):
    # every node of _exact_sweep's walk at weight n, none cut: (prefix, r,
    # c) for the root (n >= 2, so (n+D-2)! is defined), for each child,
    # and at c = 2 for the tail block of each node with children
    def walk(prefix, r, cap):
        for part in range(min(cap, r), 2, -1):
            for mult in range(r // part, 0, -1):
                child = {**prefix, part: mult}
                yield child, r - part * mult, part - 1
                yield from walk(child, r - part * mult, part - 1)
        if min(cap, r) >= 3:
            yield prefix, r, 2

    if n >= 2:
        yield {}, n, n
    yield from walk({}, n, n)


def test_subtree_screen_clears_every_partition_it_skips():
    # the lemma behind _exact_sweep's screen, on every node of every weight
    # up to 30: when p**k G L(r, c) divides (n+D-2)!, with G and D the
    # prefix's gamma and degree, every u below the node has tau(u)/p**k an
    # integer: each Fraction tau(u) of its Partition is an integer, and
    # p**k divides their gcd
    skipped = fallbacks = 0
    below = {0: [Partition()], **{r: list(enumerate_partitions(r)) for r in range(1, 31)}}
    # L(r, c) does not depend on n: one table that keeps every r, c <= 30,
    # the root's L(n, n) included, which no walk reads
    clearing = congruences._subtree_clearing(61)
    for n in range(1, 31):
        for prefix, r, c in _walk_nodes(n):
            degree = sum(prefix.values())
            gamma = math.prod(
                (part + 1) ** mult * math.factorial(mult) for part, mult in prefix.items()
            )
            factorial = math.factorial(n + degree - 2)
            taus = [
                tau(Partition({**prefix, **dict(v)}))
                for v in below[r]
                if not v or max(part for part, _ in v) <= c
            ]
            integral = all(t.denominator == 1 for t in taus)
            common = math.gcd(*(t.numerator for t in taus))
            for p in (2, 3, 5, 7):
                for k in range(1, 5):
                    if factorial % (p**k * gamma * clearing[c][r]):
                        fallbacks += 1
                        continue
                    skipped += 1
                    assert integral and common % p**k == 0, (p, n, k, prefix, r, c)
    assert skipped > 0 and fallbacks > 0, (skipped, fallbacks)


# the proved table, kept apart from the name the mutation controls replace
PROVED_CLEARING = congruences._subtree_clearing


def _columns(n, entry):
    # a _subtree_clearing(n) of full columns: entry(r, c) at every r <= n
    return [[entry(r, c) for r in range(n + 1)] for c in range(max(n, 3))]


def _weakened(n, value):
    # a _subtree_clearing(n) whose column c holds value(r, c, L) at r, c
    # read as min(c, r) and L(r, c) the proved entry, from a table that
    # keeps every r, c <= n
    table = PROVED_CLEARING(2 * n + 1)

    def proved(r, c):
        return table[c][r]

    return _columns(n, lambda r, c: value(r, min(c, r), proved))


def _clearing_without_the_part_factor(n):
    # the lcm recurrence L(r, c) = lcm(L(r, c-1), (c+1) L(r-c, c)), L(r, 1)
    # = 2**r, with its (c+1) factor dropped
    @functools.cache
    def entry(r, c):
        c = min(c, r)
        return 2**r if c <= 1 else math.lcm(entry(r, c - 1), entry(r - c, c))

    return _columns(n, entry)


@pytest.mark.parametrize("weakened, first", [
    (lambda n: _weakened(n, lambda r, c, L: 1), (2, 4, 1)),
    # one factor 2 short, and one factor 3 short, of the c = 2 column
    (lambda n: _weakened(n, lambda r, c, L: L(r, c) // (2 if c == 2 else 1)), (2, 6, 2)),
    (lambda n: _weakened(n, lambda r, c, L: L(r, c) // (3 if c == 2 else 1)), (3, 7, 1)),
    # one factor 2 short in every column c >= 3
    (lambda n: _weakened(n, lambda r, c, L: L(r, c) // (2 if c >= 3 else 1)), (2, 9, 3)),
    # the c = 2 column read for every c
    (lambda n: _weakened(n, lambda r, c, L: L(r, min(c, 2))), (5, 11, 2)),
    (_clearing_without_the_part_factor, (3, 7, 1)),
])
def test_weakened_block_screen_fails_the_fraction_filter(monkeypatch, weakened, first):
    # mutation controls: a clearing table below L(r, c) skips a subtree
    # holding a tau(u) != 0 mod p**k, and the exhaustive comparison with
    # the Fraction filter names the first (p, n, k) where it does
    monkeypatch.setattr(congruences, "_subtree_clearing", weakened)
    with pytest.raises(AssertionError) as failed:
        test_exact_sweep_matches_fraction_filter()
    assert str(failed.value).startswith(str(first)), str(failed.value)[:40]


def test_screen_only_congruence_test_fails_the_fraction_filter(monkeypatch):
    # mutation control on the one congruence test: the screen-only rule
    # p**k den | num misses a tau(u) that is 0 mod p**k with a reduced
    # denominator > 1 prime to p, first tau(c4) = 6/5 mod 2 at (2, 4, 1)
    monkeypatch.setattr(
        congruences, "_nonzero_mod", lambda num, den, modulus: num % (den * modulus) != 0
    )
    with pytest.raises(AssertionError) as failed:
        test_exact_sweep_matches_fraction_filter()
    assert str(failed.value).startswith(str((2, 4, 1))), str(failed.value)[:40]


def test_exact_and_padic_terms_name_the_same_keys():
    # the two backends' left-hand sides name the same monomials, the
    # exact sweep's and the right-hand keys of weight n, on every shipped
    # grid case and every control
    cases = [(verify, build(*args), args) for verify, build, args in _grid_cases(60)]
    assert len(cases) == 47
    cases += [(verify, _perturbed(build(*args)), args) for verify, build, args in CONTROL_CASES]
    for verify, rhs, args in cases:
        report = verify(*args, backend="padic")
        n, p, k = report.context["n"], report.prime, report.mod_exp
        low = _low("exact", p, n, k)
        exact = _lhs("exact", p, n, k, low, rhs)
        assert exact.keys() == low.keys() | {u for u in rhs.keys() if u.weight == n}, args
        padic = _lhs("padic", p, n, k, _low("padic", p, n, k), rhs)
        assert exact.keys() == padic.keys(), args
        assert all(c == tau(u) for u, c in exact.items()), args


def test_exact_backend_takes_no_valuation_shortcut(monkeypatch):
    # the oracle holds with every valuation helper of the padic backend gone
    def shortcut(*args):
        raise AssertionError("valuation shortcut called")

    for name in ("tau_valuation", "tau_valuations_below", "_tau_unit", "vp"):
        monkeypatch.setattr(congruences, name, shortcut)
    assert verify_theorem_4_8(40).holds
    assert verify_theorem_3_5(5, 1, 5).holds
    assert verify_theorem_4_9(16, 3, 3).holds
    with pytest.raises(AssertionError, match="shortcut"):
        verify_theorem_4_8(40, backend="padic")


def test_exact_stream_missing_and_wrong_weight_rhs_keys():
    # keys of another weight never meet the enumeration: one that fails
    # mod 8, and sorts first, and one that holds.  Dropping the pure-power
    # term leaves tau(c1^12) = -22!/(2^12 12!) alone, with v_2 = -3
    # although 2^3 divides the unreduced numerator 22!
    rhs = rhs_theorem_4_8(12)[0]
    pure, fails, holds = Partition({1: 12}), Partition({1: 11}), Partition({1: 3, 5: 2})
    rhs = rhs.add_term(pure, -rhs.get(pure)).add_term(fails, Fraction(3, 2)).add_term(holds, 8)
    assert pure not in rhs
    report = _report("exact", 2, 12, 3, rhs, {"n": 12})
    assert [(f.u, f.lhs, f.rhs, f.vp_diff) for f in report.failures] == [
        (fails, "0/1", "3/2", -1),
        (pure, format_rational(tau(pure)), "0/1", -3),
    ]
    _assert_stream_matches_materialised(report, rhs)
    # the padic backend feeds the same test, so it lists the same
    # failures in the same order: the lower-weight key first
    padic = _report("padic", 2, 12, 3, rhs, {"n": 12})
    assert reports_agree(report, padic)
    assert [(f.u, f.rhs, f.vp_diff) for f in padic.failures] == [
        (f.u, f.rhs, f.vp_diff) for f in report.failures]


def test_report_json_shape():
    report = verify_theorem_3_5(3, 3, 3)
    doc = report.to_json()
    assert list(doc) == ["holds", "prime", "mod_exp", "context", "failures"]
    perturbed = verify_theorem_3_5(3, 3, 3, perturb=True)
    fail = perturbed.to_json()["failures"][0]
    assert list(fail) == ["u", "lhs", "rhs", "vp_diff"]


def test_rhs_theorem_3_5_structure():
    # base shift: the c4^6 coefficient merges the shifted base with the
    # pure-power correction, giving exactly tau of the pure weight-24 term
    rhs = rhs_theorem_3_5(5, 1, 5)
    assert rhs.get(Partition({4: 6})) == tau_pure(5, 24)
    assert rhs.get(Partition({4: 5, 1: 4})) == divided_ubern(4).get(Partition({1: 4}))

    # psi branches: s = 3 carries +l, s = 4 none, s = 5 carries -l
    # (signs forced by the exact c2^(l+s-4) c8 coefficient; at s = 3 the
    # whole left-hand coefficient is the psi term)
    assert rhs_theorem_3_5(3, 3, 3).get(Partition({2: 2, 8: 1})) == 3
    # s = 4: nothing is added on top of the shifted base coefficient
    assert rhs_theorem_3_5(3, 4, 3).get(Partition({2: 3, 8: 1})) == divided_ubern(
        8
    ).get(Partition({8: 1}))
    lhs_coeff = divided_ubern(12).get(Partition({2: 2, 8: 1}))
    assert (lhs_coeff - 3) % 9 == 0

    base = divided_ubern(10).get(Partition({2: 1, 8: 1}))
    assert rhs_theorem_3_5(3, 5, 3).get(Partition({2: 4, 8: 1})) == base - 3


def test_rhs_theorem_3_5_preconditions():
    with pytest.raises(PreconditionError):
        rhs_theorem_3_5(2, 1, 2)
    with pytest.raises(PreconditionError):
        rhs_theorem_3_5(3, 2, 3)  # s < N + 2
    with pytest.raises(PreconditionError):
        rhs_theorem_3_5(3, 0, 3)


def test_verify_theorem_3_5_small():
    report = verify_theorem_3_5(3, 3, 3)
    assert report.holds
    assert report.prime == 3 and report.mod_exp == 2
    assert report.context["n"] == 12


def test_rhs_theorem_4_8_pinned_coefficients():
    poly14, k14 = rhs_theorem_4_8(14)
    assert k14 == 2
    assert poly14.get(Partition({1: 11, 3: 1})) == 6
    assert poly14.get(Partition({1: 14})) == Fraction(-1, 28)

    poly12, k12 = rhs_theorem_4_8(12)
    assert k12 == 3
    assert poly12.get(Partition({3: 4})) == 1  # (n-8)/4 at n = 12
    assert poly12.get(Partition({1: 12})) == Fraction(1, 24) - 2

    # the c1^(n-4) c4 coefficient is -2 mod 8 (only +2 mod 4): pinned by
    # the exact coefficient of divided_ubern
    poly16, _ = rhs_theorem_4_8(16)
    assert poly16.get(Partition({1: 12, 4: 1})) == -2
    lhs = divided_ubern(16).get(Partition({1: 12, 4: 1}))
    assert vp(2, lhs + 2) >= 3
    assert vp(2, lhs - 2) == 2

    # pure-power head flips sign from v(n) = 2 to v(n) >= 3
    assert poly16.get(Partition({1: 16})) == Fraction(1, 32) + 2
    lhs_head = divided_ubern(16).get(Partition({1: 16}))
    assert vp(2, lhs_head - (Fraction(1, 32) + 2)) >= 3


def test_verify_theorem_4_8():
    r14 = verify_theorem_4_8(14)
    assert r14.holds and r14.mod_exp == 2 and r14.context["case"] == "i"
    r12 = verify_theorem_4_8(12)
    assert r12.holds and r12.mod_exp == 3 and r12.context["case"] == "ii"
    with pytest.raises(PreconditionError):
        verify_theorem_4_8(7)
    with pytest.raises(PreconditionError):
        verify_theorem_4_8(10)


def test_rhs_theorem_4_9_pinned_coefficients():
    # odd m: both correction groups are summed; keys with u1 >= l merge
    # the shifted base with the correction
    rhs = rhs_theorem_4_9(7, 1, 3)
    assert rhs.get(Partition({1: 8, 7: 1})) == tau(Partition({7: 1})) + 8
    assert rhs.get(Partition({1: 15})) == tau(Partition({1: 7})) - 4
    assert rhs.get(Partition({3: 5})) == 8  # c1^(n-15) c3^5 at exponent zero

    # theta branch of the even, not-div-4 case
    rhs10 = rhs_theorem_4_9(10, 1, 3)
    assert rhs10.get(Partition({1: 6, 3: 4})) == -4
    rhs10n4 = rhs_theorem_4_9(10, 1, 4)
    assert rhs10n4.get(Partition({1: 14, 3: 4})) == 8

    # 8 | m: exact double-factorial head
    rhs16 = rhs_theorem_4_9(16, 1, 3)
    head = -(
        Fraction(double_factorial(45), 48) - Fraction(double_factorial(29), 32)
    )
    assert rhs16.get(Partition({1: 24})) == tau(Partition({1: 16})) + head


def test_theorem_4_9_correction_exponents_are_nonnegative():
    # every correction is a monomial: its c1 exponent never drops below 0
    # on the domain (m >= 2N+1, k odd, N >= 3), and reaches 0 at its edge
    exponents = [
        exps.get(1, 0)
        for N in range(3, 7)
        for k in (1, 3, 5, 7)
        for m in range(2 * N + 1, 2 * N + 60)
        for exps, _ in congruences._case_4_9(m, k, N).corrections
    ]
    assert min(exponents) == 0


def test_rhs_theorem_4_9_c3_8_term_rules():
    # m = 16 carries the c3^8 term, m = 8 must not (even when the exponent
    # is nonnegative): the exact weight-32 coefficient sits above mod 16
    assert rhs_theorem_4_9(16, 1, 3).get(Partition({3: 8})) == 8
    rhs_8_3 = rhs_theorem_4_9(8, 3, 3)
    assert Partition({1: 8, 3: 8}) not in rhs_8_3
    assert tau_valuation(2, Partition({1: 8, 3: 8})) == 4

    # the omission is reported, and both m = 8 grid cases still hold
    for k in (1, 3):
        report = verify_theorem_4_9(8, k, 3)
        assert report.holds
        assert report.context["omitted_terms"][0]["u"] == [[1, report.context["n"] - 24], [3, 8]]


def test_verify_theorem_4_9_preconditions():
    with pytest.raises(PreconditionError):
        verify_theorem_4_9(7, 1, 2)
    with pytest.raises(PreconditionError):
        verify_theorem_4_9(7, 2, 3)
    with pytest.raises(PreconditionError):
        verify_theorem_4_9(6, 1, 3)


@pytest.mark.parametrize("backend", ["exact", "padic"])
@pytest.mark.parametrize("verify, args, name", [
    (verify_theorem_3_5, (5, 1.0, 5), "s"),
    (verify_theorem_3_5, (5, 1, True), "l"),
    (verify_theorem_4_9, (7, 1, 3.0), "N"),
    (verify_theorem_4_9, (7.0, 1, 3), "m"),
    (verify_theorem_4_9, (7, True, 3), "k"),
])
def test_family_parameters_must_be_integers(backend, verify, args, name):
    # a float or bool parameter is refused by name on both backends, before
    # any sweep: not a TypeError from the coefficient tables, nor an error
    # that names the weight n
    with pytest.raises(PreconditionError, match=f"^{name} must be an integer, got "):
        verify(*args, backend=backend)


def _walk(*args):
    return list(tau_valuations_below(*args))


def _self_congruent(k):
    return poly_congruent(divided_ubern(4), divided_ubern(4), 3, k)


@pytest.mark.parametrize("check, args, name", [
    (check_corollary_3_4, (3, 1.0, 0), "s"),
    (check_corollary_3_4, (3, 1, False), "i"),
    (verify_classical_kummer, (5, 2.0, 6), "n"),
    (verify_classical_kummer, (5, 2, 6.0), "m"),
    (lambda value: divided_ubern(5, n_ceiling=value), (None,), "n_ceiling"),
    (lambda value: verify_theorem_4_8(12, n_ceiling=value), (None,), "n_ceiling"),
    (tau_pure, (3, 2.0), "w"),
    (_walk, (2, 10, 1.5), "k"),
    (_walk, (2, True, 1), "n"),
    (vp_factorial, (2, 2.5), "a"),
    (vp_factorial, (2, True), "a"),
    (digit_sum, (3, 2.5), "a"),
    (_self_congruent, (1.5,), "k"),
    (_self_congruent, (True,), "k"),
    (lambda value: run_sweep("2.2", l_max=value), (True,), "l_max"),
    (lambda value: run_sweep("4.6", n_max=value), (2.5,), "n_max"),
    (factorial_unit_mod, (3, 5, 1.5), "k"),
    (classical_bernoulli, (2.0,), "n"),
    (double_factorial, (5.0,), "a"),
    (is_prime, (2.5,), "n"),
    (is_prime, ("7",), "n"),
    (is_prime, (True,), "n"),
    (lambda value: verify_theorem_4_8(12, n_ceiling=value), (True,), "n_ceiling"),
    (lambda value: verify_theorem_4_9(7, 1, 3, backend="padic", n_ceiling=value), (2.5,), "n_ceiling"),
])
def test_check_parameters_must_be_integers(check, args, name):
    with pytest.raises(PreconditionError, match=f"^{name} must be an integer, got "):
        check(*args)


@pytest.mark.parametrize("check, args", [
    (tau_pure, (1, 2)),
    (tau_pure, (6, 5)),
    (tau_pure, (4, 6)),
    (tau_pure, (True, 2)),
    (vp, (True, 9)),
    (vp, (2.5, 9)),
    (vp, ("7", 9)),
    (vp, (None, 9)),
])
def test_prime_parameters_must_be_prime(check, args):
    # tau_pure once checked no p: ZeroDivisionError at 1, 4 at 6, -45/2 at 4.
    # is_prime refuses a value that is not an int as "n"; a check of p names p
    with pytest.raises(PreconditionError, match=f"^p must be prime, got {re.escape(repr(args[0]))}$"):
        check(*args)


@pytest.mark.parametrize("check, args, name, least, value", [
    (_walk, (2, 10, 0), "k", 1, 0),
    (_walk, (2, 0, 1), "n", 1, 0),
    (vp_factorial, (2, -1), "a", 0, -1),
    (factorial_unit_mod, (3, 5, 0), "k", 1, 0),
    (_self_congruent, (0,), "k", 1, 0),
    (lambda value: run_sweep("2.1", a_max=value), (-5,), "a_max", 0, -5),
    (lambda value: run_sweep("4.6", n_max=value), (0,), "n_max", 1, 0),
    (check_corollary_3_4, (3, 1, -1), "i", 0, -1),
    (lambda value: divided_ubern(5, n_ceiling=value), (0,), "n_ceiling", 1, 0),
    (verify_theorem_4_9, (7, 1, 2), "N", 3, 2),
    (classical_bernoulli, (-1,), "n", 0, -1),
    (double_factorial, (-3,), "a", -1, -3),
    (f_term, (0, 1, 0), "j", 1, 0),
    (lambda value: verify_theorem_3_5(5, 1, 5, n_ceiling=value), (-1,), "n_ceiling", 1, -1),
])
def test_parameters_below_their_least_value_are_refused(check, args, name, least, value):
    # one message form for every range check: name, least value, value given
    with pytest.raises(PreconditionError, match=f"^{name} must be >= {least}, got {value}$"):
        check(*args)


def test_verify_classical_kummer():
    r = verify_classical_kummer(5, 6, 2)
    assert r.holds
    diff = classical_bernoulli(6) / 6 - classical_bernoulli(2) / 2
    assert diff == Fraction(-5, 63)
    assert vp(5, diff) == 1
    assert verify_classical_kummer(7, 8, 2).holds
    assert verify_classical_kummer(5, 2, 2).holds
    with pytest.raises(PreconditionError):
        verify_classical_kummer(5, 8, 4)  # (p-1) | n
    with pytest.raises(PreconditionError):
        verify_classical_kummer(5, 6, 3)  # parity
    with pytest.raises(PreconditionError):
        verify_classical_kummer(5, 6, 4)  # residue class


def test_check_corollary_3_4_examples():
    r = check_corollary_3_4(3, 1, 0)
    assert r.holds and r.context["n"] == 6 and r.context["bound"] == 0
    r = check_corollary_3_4(3, 2, 1)
    assert r.holds and r.context["n"] == 14 and r.context["bound"] == 1
    r = check_corollary_3_4(5, 1, 2)
    assert r.holds and r.context["bound"] == 2 and r.context["degree_max"] == 3


def test_negative_control_single_failure():
    for report in (
        verify_theorem_3_5(5, 1, 5, perturb=True),
        verify_theorem_3_5(5, 1, 5, backend="padic", perturb=True),
        verify_theorem_4_8(12, perturb=True),
        verify_theorem_4_9(7, 1, 3, perturb=True),
    ):
        assert not report.holds
        assert len(report.failures) == 1
        assert report.context["perturbed"] is True


def test_backends_agree_small():
    pairs = [
        (verify_theorem_3_5(3, 3, 3), verify_theorem_3_5(3, 3, 3, backend="padic")),
        (verify_theorem_4_8(12), verify_theorem_4_8(12, backend="padic")),
        (verify_theorem_4_9(7, 1, 3), verify_theorem_4_9(7, 1, 3, backend="padic")),
    ]
    # the three mutation controls
    for verify, args in ((verify_theorem_3_5, (5, 1, 5)), (verify_theorem_4_8, (12,)),
                         (verify_theorem_4_9, (7, 1, 3))):
        pairs.append((verify(*args, perturb=True), verify(*args, backend="padic", perturb=True)))
    for exact, padic in pairs:
        assert reports_agree(exact, padic)


def test_reports_agree_discriminates():
    a = verify_theorem_3_5(3, 3, 3)
    b = verify_theorem_3_5(3, 3, 3, perturb=True)
    assert not reports_agree(a, b)


@pytest.mark.parametrize("u, v", [(Partition({1: 8, 4: 1}), 1), (Partition({1: 4, 2: 1, 3: 2}), 3)])
def test_reports_agree_checks_failure_evidence(u, v):
    # 4.8 at n = 12 is a mod-8 congruence; moving the right-hand side at u
    # by 4 fails there, with tau(u) as the left-hand evidence.  A report
    # whose lhs lost tau(u) (0/1) must be rejected, also where
    # v_2(tau(u)) = 3 >= k keeps 0/1 and tau(u) congruent mod 8
    assert tau_valuation(2, u) == v
    rhs = rhs_theorem_4_8(12)[0].add_term(u, 4)
    exact, padic = (_report(backend, 2, 12, 3, rhs) for backend in ("exact", "padic"))
    assert reports_agree(exact, padic)
    [failure] = padic.failures
    assert failure.u == u

    def with_failure(f):
        return CongruenceReport(padic.holds, padic.prime, padic.mod_exp, {}, [f])

    assert reports_agree(exact, with_failure(failure))
    assert not reports_agree(exact, with_failure(failure._replace(lhs="0/1")))
    assert not reports_agree(with_failure(failure._replace(lhs="0/1")), exact)
    # a right-hand side that differs only by p**k is other evidence
    moved = format_rational(Fraction(failure.rhs) + 8)
    assert not reports_agree(exact, with_failure(failure._replace(rhs=moved)))


BOUNDARY_CASES = {
    "3.5 (3,3,3)": (lambda: verify_theorem_3_5(3, 3, 3), lambda: rhs_theorem_3_5(3, 3, 3)),
    "4.8 n=12": (lambda: verify_theorem_4_8(12), lambda: rhs_theorem_4_8(12)[0]),
    "4.9 (7,1,3)": (lambda: verify_theorem_4_9(7, 1, 3), lambda: rhs_theorem_4_9(7, 1, 3)),
}


@pytest.mark.parametrize("case", list(BOUNDARY_CASES))
def test_boundary_mutations_on_both_backends(case):
    # moving one right-hand-side coefficient by p**(k-1) must break the
    # congruence at exactly that monomial; moving it by p**k must not
    verify, build = BOUNDARY_CASES[case]
    base = verify()
    assert base.holds
    p, k, n = base.prime, base.mod_exp, base.context["n"]
    rhs = build()
    full = divided_ubern(n)
    for u, _ in rhs.items():
        for shift, holds in ((p ** (k - 1), False), (p**k, True)):
            mutated = rhs.add_term(u, shift)
            exact, padic = (_report(backend, p, n, k, mutated) for backend in ("exact", "padic"))
            assert [(f.u, f.lhs, f.rhs, f.vp_diff) for f in exact.failures] == (
                _poly_congruent_reference(full, mutated, p, k))
            assert reports_agree(exact, padic), (case, u, shift)
            assert exact.holds is holds, (case, u, shift)
            if not holds:
                assert [(f.u, f.vp_diff) for f in exact.failures] == [(u, k - 1)]
                # the padic evidence is tau(u) itself, to working precision,
                # even where v_p(tau(u)) >= k kept u out of the pruned walk
                lhs = Fraction(padic.failures[0].lhs)
                assert vp(p, lhs) == vp(p, tau(u))
                assert vp(p, lhs - tau(u)) >= k


@pytest.mark.parametrize("case", list(BOUNDARY_CASES))
def test_padic_terms_are_tau_to_the_modulus(case):
    # the padic left-hand side names every monomial that can fail, each
    # with a Fraction congruent to tau(u) mod p**k; on the shipped right-hand
    # side and on each of its p**(k-1) moves
    verify, build = BOUNDARY_CASES[case]
    base = verify()
    p, k, n = base.prime, base.mod_exp, base.context["n"]
    rhs = build()
    low = {u for u in enumerate_partitions(n) if tau_valuation(p, u) < k}
    for mutated in [rhs] + [rhs.add_term(u, p ** (k - 1)) for u, _ in rhs.items()]:
        lhs = _lhs("padic", p, n, k, _low("padic", p, n, k), mutated)
        assert lhs.keys() == low | {u for u in mutated.keys() if u.weight == n}
        for u, c in lhs.items():
            assert isinstance(c, Fraction)
            assert vp(p, c - tau(u)) >= k


# family 3.5 at p = 3 with 3 not dividing l, off the shipped grid
_P3_L_COPRIME = [(3, 2, 2), (3, 2, 4), (3, 3, 2), (3, 4, 2), (3, 6, 2)]


@pytest.mark.parametrize("case", _P3_L_COPRIME)
def test_backends_agree_at_p_3_off_the_grid(case):
    exact = verify_theorem_3_5(*case)
    padic = verify_theorem_3_5(*case, backend="padic")
    assert reports_agree(exact, padic) and reports_agree(padic, exact)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: psi is off by [3 ∤ l]")
@pytest.mark.parametrize("case", _P3_L_COPRIME)
def test_theorem_3_5_holds_at_p_3_off_the_grid(case):
    # today each case fails once, at c2^(l+s-4) c8 with vp_diff 0
    assert verify_theorem_3_5(*case).holds


@pytest.mark.parametrize("case", [
    pytest.param(case, marks=pytest.mark.xfail(
        strict=True, reason="c1^(n-24) c3^8 is noted for every m = 8, also at n = 16 < 24"
    )) if case == (8, 1, 3) else case
    for case in GRID_THEOREM_4_9
], ids=lambda case: ",".join(map(str, case)))
def test_theorem_4_9_omits_only_monomials_that_exist(case):
    # an omitted term is a monomial of weight n: every multiplicity >= 0.
    # The (8, 1, 3) report, pinned by the benchmark, names c1^-8 c3^8
    report = verify_theorem_4_9(*case, backend="padic")
    for term in report.context.get("omitted_terms", []):
        assert all(mult >= 0 for _, mult in term["u"]), term


def test_padic_holds_past_the_grid():
    # every family past the n <= 60 grid, the ceiling raised by argument:
    # 4.8 at n = 150, 200; 3.5 at n = 64, 108, 300 and at m = 62, 80, 120,
    # 124; 4.9 at n = 56, 273 and at m = 61..64.  No divided_ubern(m) is
    # built: the right-hand sides come from the walk
    ceiling = 300
    reports = [verify_theorem_4_8(n, backend="padic", n_ceiling=ceiling) for n in (150, 200)]
    reports += [
        verify_theorem_3_5(*case, backend="padic", n_ceiling=ceiling)
        for case in ((3, 5, 27), (5, 2, 25), (7, 1, 49),
                     (3, 31, 3), (5, 20, 5), (3, 60, 27), (3, 62, 27))
    ]
    reports += [
        verify_theorem_4_9(*case, backend="padic", n_ceiling=ceiling)
        for case in ((24, 1, 5), (17, 1, 8), *((m, k, 3) for m in range(61, 65) for k in (1, 3)))
    ]
    assert [r.holds for r in reports] == [True] * 19
    assert [r.context["m"] for r in reports[5:9]] == [62, 80, 120, 124]
    # not vacuous at n = 200: moving any right-hand-side coefficient by
    # 2**(k-1) fails at exactly that monomial, moving it by 2**k does not
    rhs, k = rhs_theorem_4_8(200)
    assert len(rhs) == 9
    for u, _ in rhs.items():
        for shift, holds in ((2 ** (k - 1), False), (2**k, True)):
            report = _report("padic", 2, 200, k, rhs.add_term(u, shift), n_ceiling=ceiling)
            assert report.holds is holds, (u, shift)
            if not holds:
                assert [(f.u, f.vp_diff) for f in report.failures] == [(u, k - 1)]

    # and at m = 62 (3.5 at (3, 31, 3), n = 68), on the right-hand side the
    # padic backend builds from the walk
    report, [rhs] = _selected_rhs(verify_theorem_3_5, (3, 31, 3), "padic", n_ceiling=ceiling)
    p, k, n = report.prime, report.mod_exp, report.context["n"]
    assert report.holds and len(rhs) > 2
    for u, _ in rhs.items():
        for shift, holds in ((p ** (k - 1), False), (p**k, True)):
            moved = _report("padic", p, n, k, rhs.add_term(u, shift), n_ceiling=ceiling)
            assert moved.holds is holds, (u, shift)
            if not holds:
                assert [(f.u, f.vp_diff) for f in moved.failures] == [(u, k - 1)]


def _selected_rhs(verify, args, backend, **kwargs):
    # the report of verify(*args) on backend and a list of the one
    # right-hand side it checked, caught on the way into the one
    # congruence test
    seen = []
    report = congruences._congruence_report

    def spy(lhs, B, *rest):
        seen.append(B)
        return report(lhs, B, *rest)

    congruences._congruence_report = spy
    try:
        return verify(*args, backend=backend, **kwargs), seen
    finally:
        congruences._congruence_report = report


def _lifted_rhs(verify, args, terms=None, n_ceiling=DEFAULT_N_CEILING):
    # the public right-hand side of a 3.5 or 4.9 case on the m-part terms,
    # by default all of divided_ubern(m)
    rhs = rhs_theorem_3_5 if verify is verify_theorem_3_5 else rhs_theorem_4_9
    return rhs(*args, n_ceiling=n_ceiling, terms=terms)


def _verify_at(verify, args, k, backend, n_ceiling=DEFAULT_N_CEILING):
    # the driver on the record of a 3.5 or 4.9 case moved to modulus p**k:
    # its own sweeps at n and m select the m-part of the right-hand side
    family = congruences._case_3_5 if verify is verify_theorem_3_5 else congruences._case_4_9
    case = family(*args)._replace(k=k)

    def build(terms):
        return _lifted_rhs(verify, args, terms=terms, n_ceiling=n_ceiling)

    return case, congruences._verify_case(case, build, backend, n_ceiling, False)


LIFTED_CASES = [(verify_theorem_3_5, args) for args in GRID_THEOREM_3_5] + [
    (verify_theorem_4_9, args) for args in GRID_THEOREM_4_9
]


def test_padic_rhs_is_the_full_rhs_where_it_matters():
    # the right-hand side each backend selects with its own sweeps keeps
    # each key at its full coefficient and leaves out only keys with
    # v_p >= k on both sides; its report, with --perturb and without, is
    # the report on the full right-hand side.  4.8 has no m-part, so its
    # right-hand side is the full one: with the 32 lifted cases, that is
    # every one of the 47 grid cases
    assert len(LIFTED_CASES) + len(GRID_THEOREM_4_8) == 47
    for backend in ("exact", "padic"):
        for n in GRID_THEOREM_4_8:
            report, [rhs] = _selected_rhs(verify_theorem_4_8, (n,), backend)
            assert rhs == rhs_theorem_4_8(n)[0]
        kept = total = 0
        for verify, args in LIFTED_CASES:
            full = _lifted_rhs(verify, args)
            for perturb in (True, False):
                lazy_report, [lazy] = _selected_rhs(verify, args, backend, perturb=perturb)
                p, k, n = lazy_report.prime, lazy_report.mod_exp, lazy_report.context["n"]
                context = {key: v for key, v in lazy_report.context.items()
                           if key != "perturbed"}
                if perturb:
                    context["perturbed"] = True
                full_report = _report(
                    backend, p, n, k, _perturbed(full) if perturb else full, context
                )
                assert lazy_report.to_json() == full_report.to_json(), (args, perturb)
            # the --perturb control hits the first key of the full right-hand side
            assert lazy.items()[0][0] == full.items()[0][0], args
            for u in lazy.keys():
                assert lazy.get(u) == full.get(u), (args, u)
            for u in full.keys() - lazy.keys():
                assert tau_valuation(p, u) >= k and vp(p, full.get(u)) >= k, (args, u)
            # a correction key gets tau of its base even from no m-part terms
            corrections = _lifted_rhs(verify, args, terms=[])
            assert all(c == full.get(u) for u, c in corrections.items()), args
            kept, total = kept + len(lazy), total + len(full)
        assert (kept, total) == (453, 2150), backend


@pytest.mark.parametrize("case", [(verify_theorem_3_5, (3, 3, 3)), (verify_theorem_4_9, (7, 1, 3))])
def test_padic_rhs_boundary_moves_match_the_full_rhs(case):
    # on each backend, every p**(k-1) and p**k move of a BOUNDARY_CASES
    # right-hand side gives the same report on the right-hand side that
    # backend selects and on the full one; a key the selected side left out
    # is moved from its full coefficient
    verify, args = case
    full = _lifted_rhs(verify, args)
    for backend in ("exact", "padic"):
        report, [lazy] = _selected_rhs(verify, args, backend)
        p, k, n = report.prime, report.mod_exp, report.context["n"]
        for u, c in full.items():
            for shift in (p ** (k - 1), p**k):
                on_lazy = lazy.add_term(u, shift if u in lazy else c + shift)
                lazy_report, full_report = (
                    _report(backend, p, n, k, rhs) for rhs in (on_lazy, full.add_term(u, shift))
                )
                assert lazy_report.to_json() == full_report.to_json(), (backend, u, shift)
                assert lazy_report.holds is (shift == p**k)


def test_exact_report_on_the_selected_rhs_is_the_full_rhs_report():
    # past the modulus the congruences fail, at keys the selection must
    # keep: at k, k+1 and k+2 on the lifted grid, the exact report on the
    # right-hand side the exact sweeps select is the one on the full public
    # right-hand side, failure for failure
    failures = 0
    for verify, args in LIFTED_CASES:
        ctx = verify(*args).context
        full = _lifted_rhs(verify, args)
        for k in range(ctx["N"] + 1, ctx["N"] + 4):
            case, selected = _verify_at(verify, args, k, "exact")
            whole = _report("exact", case.p, case.n, k, full, dict(selected.context))
            assert selected.to_json() == whole.to_json(), (args, k)
            failures += len(whole.failures)
    assert failures == 1514


def test_lifted_rhs_keeps_no_cancelled_key():
    # a correction that cancels its key's lifted term leaves no zero
    # coefficient, and one whose base the terms skip gets that base's tau
    P = Partition
    terms = [(P({1: 2}), Fraction(3)), (P({2: 1}), Fraction(5))]
    corrections = [({1: 3}, Fraction(-3)), ({1: 2, 3: 1}, Fraction(1))]
    case = congruences._Case(2, 3, 1, 2, {1: 1}, corrections, {})
    rhs = congruences._lifted_rhs(case, terms)
    assert rhs == SparsePoly({P({1: 1, 2: 1}): 5, P({1: 2, 3: 1}): 1 + tau(P({1: 1, 3: 1}))})


def test_lifted_families_never_build_divided_ubern(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("divided_ubern called")

    monkeypatch.setattr(congruences, "divided_ubern", refuse)
    for verify, args in LIFTED_CASES:
        for backend in ("exact", "padic"):
            assert verify(*args, backend=backend).holds, (args, backend)
            report = verify(*args, backend=backend, perturb=True)
            assert len(report.failures) == 1, (args, backend)


def test_unknown_backend_fails_before_any_sweep(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("swept before the backend was checked")

    for name in ("divided_ubern", "tau_valuations_below", "_exact_sweep"):
        monkeypatch.setattr(congruences, name, refuse)
    for call in (
        lambda: verify_theorem_4_9(40, 1, 3, backend="foo"),
        lambda: verify_theorem_3_5(3, 3, 3, backend="foo"),
        lambda: verify_theorem_4_8(40, backend="foo"),
    ):
        with pytest.raises(PreconditionError, match="unknown backend 'foo'"):
            call()


def test_exact_lifted_verify_holds_no_divided_ubern_in_memory():
    # the exact oracle keeps only the terms that can matter, at n and at m,
    # so its peak stays far below the 3.9 MB that divided_ubern(30) took
    verify_theorem_4_9(30, 1, 3)  # warm the imports
    tracemalloc.start()
    try:
        report = verify_theorem_4_9(30, 1, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.holds
    assert peak < 1_000_000, peak


@pytest.mark.parametrize("verify, args", [(verify_theorem_3_5, (3, 31, 3)), (verify_theorem_4_9, (66, 1, 3))])
def test_padic_rhs_shows_the_full_rhs_at_real_failures(verify, args):
    # mod p**(k+1) these m > 60 cases fail (the moduli are sharp), also at
    # keys c^shift b with v_p(tau(b)) > k that only the walk at n names;
    # each failure shows the full right-hand side, tau(b) plus any
    # correction, checked here where divided_ubern(m) is out of reach
    report = verify(*args, backend="padic", n_ceiling=100)
    case, moved = _verify_at(verify, args, report.mod_exp + 1, "padic", n_ceiling=100)
    p, k = case.p, case.k
    [(part, mult)] = case.shift.items()
    failures = moved.failures
    corrections = _lifted_rhs(verify, args, terms=[])
    named_by_low = 0
    for f in failures:
        base = f.u.merged({part: -mult}) if f.u.multiplicity(part) >= mult else None
        if f.u in corrections:
            want = corrections.get(f.u)
        else:
            want = Fraction(0) if base is None else tau(base)
        assert f.rhs == format_rational(want), f.u
        named_by_low += base is not None and tau_valuation(p, base) >= k
    assert failures and named_by_low, (len(failures), named_by_low)
