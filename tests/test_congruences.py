import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import ubern.congruences as congruences
from ubern.bernoulli import _tau_fractions, classical_bernoulli, divided_ubern, tau, tau_valuation
from ubern.congruences import (
    _exact_terms,
    _padic_terms,
    _verify_against_ubern,
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
    z_func,
)
from ubern.bernoulli import DEFAULT_N_CEILING, SparsePoly, format_rational
from ubern.errors import PreconditionError
from ubern.padic import double_factorial, vp
from ubern.partitions import Partition, enumerate_partitions


def test_z_func_examples():
    assert z_func(3, 2, 2) == 1
    assert z_func(3, 6, 1) == 1
    assert z_func(5, 4, 1) == 1


def test_z_func_consistency_across_precisions():
    for p, n in ((3, 6), (3, 12), (5, 8), (5, 20), (7, 12)):
        full = z_func(p, n, 6)
        for k in range(1, 6):
            assert z_func(p, n, k) == full % p**k


def test_z_func_preconditions():
    with pytest.raises(PreconditionError):
        z_func(5, 6, 2)  # 4 does not divide 6
    with pytest.raises(PreconditionError):
        z_func(3, 4, 0)


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
    return SparsePoly(A, weight_tag=n), SparsePoly(B)


def test_poly_congruent_matches_sorted_union_reference():
    rng = random.Random(20260)
    for _ in range(150):
        p = rng.choice((2, 3, 5))
        k = rng.randrange(1, 5)
        A, B = _random_pair(rng, p, k)
        for lhs, rhs in ((A, B), (B, A)):
            expected = _poly_congruent_reference(lhs, rhs, p, k)
            report = poly_congruent(lhs, rhs, p, k)
            assert [(f.u, f.lhs, f.rhs, f.vp_diff) for f in report.failures] == expected
            assert report.holds is (not expected)
        assert any(v < 0 for *_, v in expected)
        assert any(u.weight != A.weight_tag for u, *_ in expected)


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
        assert list(_exact_terms(n, SparsePoly(), 2, k)) == list(_tau_fractions(n)), n


def test_exact_and_padic_terms_name_the_same_keys():
    # the two term sources of the one congruence test name the same
    # monomials, each once, on every shipped grid case and every control
    cases = [(verify, build(*args), args) for verify, build, args in _grid_cases(60)]
    assert len(cases) == 47
    cases += [(verify, _perturbed(build(*args)), args) for verify, build, args in CONTROL_CASES]
    for verify, rhs, args in cases:
        report = verify(*args, backend="padic")
        n, p, k = report.context["n"], report.prime, report.mod_exp
        exact = list(_exact_terms(n, rhs, p, k))
        keys = [u for u, _, _ in exact]
        assert len(keys) == len(set(keys)), args
        assert set(keys) == {u for u, _, _ in _padic_terms(n, rhs, p, k)}, args
        assert all(Fraction(num, den) == tau(u) for u, num, den in exact), args


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
    report = _verify_against_ubern(12, rhs, 2, 3, {"n": 12}, "exact", DEFAULT_N_CEILING)
    assert [(f.u, f.lhs, f.rhs, f.vp_diff) for f in report.failures] == [
        (fails, "0/1", "3/2", -1),
        (pure, format_rational(tau(pure)), "0/1", -3),
    ]
    _assert_stream_matches_materialised(report, rhs)
    # the padic backend feeds the same test, so it lists the same
    # failures in the same order: the lower-weight key first
    padic = _verify_against_ubern(12, rhs, 2, 3, {"n": 12}, "padic", DEFAULT_N_CEILING)
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
        for exps, _ in congruences._theorem_4_9_correction(m, k, N)
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
    exact, padic = (
        _verify_against_ubern(12, rhs, 2, 3, {}, backend, DEFAULT_N_CEILING)
        for backend in ("exact", "padic")
    )
    assert reports_agree(exact, padic)
    [failure] = padic.failures
    assert failure.u == u

    def with_failure(f):
        return CongruenceReport(padic.holds, padic.prime, padic.mod_exp, {}, [f])

    assert reports_agree(exact, with_failure(failure))
    assert not reports_agree(exact, with_failure(replace(failure, lhs="0/1")))
    assert not reports_agree(with_failure(replace(failure, lhs="0/1")), exact)
    # a right-hand side that differs only by p**k is other evidence
    moved = format_rational(Fraction(failure.rhs) + 8)
    assert not reports_agree(exact, with_failure(replace(failure, rhs=moved)))


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
            exact, padic = (
                _verify_against_ubern(n, mutated, p, k, {}, backend, DEFAULT_N_CEILING)
                for backend in ("exact", "padic")
            )
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
    # the padic term source names every monomial that can fail, each once,
    # with a value congruent to tau(u) mod p**k; on the shipped right-hand
    # side and on each of its p**(k-1) moves
    verify, build = BOUNDARY_CASES[case]
    base = verify()
    p, k, n = base.prime, base.mod_exp, base.context["n"]
    rhs = build()
    low = {u for u in enumerate_partitions(n) if tau_valuation(p, u) < k}
    for mutated in [rhs] + [rhs.add_term(u, p ** (k - 1)) for u, _ in rhs.items()]:
        terms = list(_padic_terms(n, mutated, p, k))
        keys = [u for u, _, _ in terms]
        assert len(keys) == len(set(keys))
        assert set(keys) == low | {u for u in mutated.keys() if u.weight == n}
        for u, num, den in terms:
            assert den > 0
            assert vp(p, Fraction(num, den) - tau(u)) >= k


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
            report = _verify_against_ubern(
                200, rhs.add_term(u, shift), 2, k, {}, "padic", ceiling
            )
            assert report.holds is holds, (u, shift)
            if not holds:
                assert [(f.u, f.vp_diff) for f in report.failures] == [(u, k - 1)]

    # and at m = 62 (3.5 at (3, 31, 3), n = 68), on the right-hand side the
    # padic backend builds from the walk
    report, [rhs] = _padic_rhs(verify_theorem_3_5, (3, 31, 3), n_ceiling=ceiling)
    p, k, n = report.prime, report.mod_exp, report.context["n"]
    assert report.holds and len(rhs) > 2
    for u, _ in rhs.items():
        for shift, holds in ((p ** (k - 1), False), (p**k, True)):
            moved = _verify_against_ubern(n, rhs.add_term(u, shift), p, k, {}, "padic", ceiling)
            assert moved.holds is holds, (u, shift)
            if not holds:
                assert [(f.u, f.vp_diff) for f in moved.failures] == [(u, k - 1)]


def _padic_rhs(verify, args, **kwargs):
    # the padic report of verify(*args) and a list of the one right-hand
    # side it checked, caught on the way into the one congruence test
    seen = []
    report = congruences._congruence_report

    def spy(terms, B, *rest):
        seen.append(B)
        return report(terms, B, *rest)

    congruences._congruence_report = spy
    try:
        return verify(*args, backend="padic", **kwargs), seen
    finally:
        congruences._congruence_report = report


def _lifted_rhs(verify, args, terms=None, n_ceiling=DEFAULT_N_CEILING):
    # the right-hand side of a 3.5 or 4.9 case on the m-part terms, by
    # default all of divided_ubern(m)
    if verify is verify_theorem_3_5:
        return rhs_theorem_3_5(*args, n_ceiling=n_ceiling, terms=terms)
    return congruences._rhs_theorem_4_9(*args, n_ceiling=n_ceiling, terms=terms)


LIFTED_CASES = [(verify_theorem_3_5, args) for args in GRID_THEOREM_3_5] + [
    (verify_theorem_4_9, args) for args in GRID_THEOREM_4_9
]


def test_padic_rhs_is_the_full_rhs_where_it_matters():
    # the padic right-hand side keeps each key at its full coefficient and
    # leaves out only keys with v_p >= k on both sides; its padic report,
    # with --perturb and without, is the report on the full right-hand side.
    # 4.8 has no m-part, so its padic right-hand side is the full one: with
    # the 32 lifted cases, that is every one of the 47 grid cases
    for n in GRID_THEOREM_4_8:
        report, [rhs] = _padic_rhs(verify_theorem_4_8, (n,))
        assert rhs == rhs_theorem_4_8(n)[0]
    assert len(LIFTED_CASES) + len(GRID_THEOREM_4_8) == 47
    kept = total = 0
    for verify, args in LIFTED_CASES:
        full = _lifted_rhs(verify, args)
        for perturb in (True, False):
            lazy_report, [lazy] = _padic_rhs(verify, args, perturb=perturb)
            p, k, n = lazy_report.prime, lazy_report.mod_exp, lazy_report.context["n"]
            context = {key: v for key, v in lazy_report.context.items() if key != "perturbed"}
            full_report = _verify_against_ubern(
                n, full, p, k, context, "padic", DEFAULT_N_CEILING, perturb=perturb
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
    assert 3 * kept < total, (kept, total)


@pytest.mark.parametrize("case", [(verify_theorem_3_5, (3, 3, 3)), (verify_theorem_4_9, (7, 1, 3))])
def test_padic_rhs_boundary_moves_match_the_full_rhs(case):
    # every p**(k-1) and p**k move of a BOUNDARY_CASES right-hand side gives
    # the same padic report on the padic and on the full right-hand side; a
    # key the padic side left out is moved from its full coefficient
    verify, args = case
    report, [lazy] = _padic_rhs(verify, args)
    p, k, n = report.prime, report.mod_exp, report.context["n"]
    full = _lifted_rhs(verify, args)
    for u, c in full.items():
        for shift in (p ** (k - 1), p**k):
            on_lazy = lazy.add_term(u, shift if u in lazy else c + shift)
            lazy_report, full_report = (
                _verify_against_ubern(n, rhs, p, k, {}, "padic", DEFAULT_N_CEILING)
                for rhs in (on_lazy, full.add_term(u, shift))
            )
            assert lazy_report.to_json() == full_report.to_json(), (args, u, shift)
            assert lazy_report.holds is (shift == p**k)


def test_padic_lifted_families_never_build_divided_ubern(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("divided_ubern called")

    monkeypatch.setattr(congruences, "divided_ubern", refuse)
    for verify, args in LIFTED_CASES:
        assert verify(*args, backend="padic").holds, args
        assert len(verify(*args, backend="padic", perturb=True).failures) == 1, args
    with pytest.raises(AssertionError, match="divided_ubern"):
        verify_theorem_3_5(3, 3, 3)


@pytest.mark.parametrize("verify, args", [(verify_theorem_3_5, (3, 31, 3)), (verify_theorem_4_9, (66, 1, 3))])
def test_padic_rhs_shows_the_full_rhs_at_real_failures(verify, args):
    # mod p**(k+1) these m > 60 cases fail (the moduli are sharp), also at
    # keys c^shift b with v_p(tau(b)) > k that only the walk at n names;
    # each failure shows the full right-hand side, tau(b) plus any
    # correction, as the exact backend would where divided_ubern(m) is
    # out of reach
    report = verify(*args, backend="padic", n_ceiling=100)
    ctx = report.context
    p, k, n, m, l = report.prime, report.mod_exp + 1, ctx["n"], ctx["m"], ctx["l"]
    part, mult = (p - 1, l) if verify is verify_theorem_3_5 else (1, l)
    low, terms = congruences._lifting_walks(p, n, m, k, {part: mult}, "padic", 100)
    rhs = _lifted_rhs(verify, args, terms=terms, n_ceiling=100)
    failures = _verify_against_ubern(n, rhs, p, k, {}, "padic", 100, low=low).failures
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
