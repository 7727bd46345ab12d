from fractions import Fraction

import pytest

from ubern.bernoulli import classical_bernoulli, divided_ubern, tau, tau_valuation
from ubern.congruences import (
    _verify_against_ubern,
    CongruenceReport,
    check_corollary_3_4,
    check_lemma_4_6,
    check_lemma_4_7,
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
from ubern.bernoulli import DEFAULT_N_CEILING, SparsePoly
from ubern.errors import PreconditionError
from ubern.padic import double_factorial, vp
from ubern.partitions import Partition


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


def test_check_lemma_4_6_and_4_7():
    assert check_lemma_4_6(16).holds
    assert check_lemma_4_7(16).holds
    # direct instances of the exceptional bucket and bound
    assert tau_valuation(2, Partition({7: 1})) == 1  # meets u3 + ceil(7/2) - 3
    assert tau_valuation(2, Partition({2: 1})) == 0  # meets 0 + 1 - 1


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
        (
            verify_theorem_4_8(12, perturb=True),
            verify_theorem_4_8(12, backend="padic", perturb=True),
        ),
    ]
    for exact, padic in pairs:
        assert reports_agree(exact, padic)


def test_reports_agree_discriminates():
    a = verify_theorem_3_5(3, 3, 3)
    b = verify_theorem_3_5(3, 3, 3, perturb=True)
    assert not reports_agree(a, b)


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
    for u, _ in rhs.items():
        for shift, holds in ((p ** (k - 1), False), (p**k, True)):
            mutated = rhs.add_term(u, shift)
            exact, padic = (
                _verify_against_ubern(n, mutated, p, k, {}, backend, DEFAULT_N_CEILING)
                for backend in ("exact", "padic")
            )
            assert reports_agree(exact, padic), (case, u, shift)
            assert exact.holds is holds, (case, u, shift)
            if not holds:
                assert [(f.u, f.vp_diff) for f in exact.failures] == [(u, k - 1)]
                # the padic evidence is tau(u) itself, to working precision,
                # even where v_p(tau(u)) >= k kept u out of the pruned walk
                lhs = Fraction(padic.failures[0].lhs)
                assert vp(p, lhs) == vp(p, tau(u))
                assert vp(p, lhs - tau(u)) >= k
