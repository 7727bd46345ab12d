import functools
import math

import pytest

import ubern.lemmas as lemmas
import ubern.padic as padic
from ubern.bernoulli import (
    _runs_valuations,
    _valuation_tables,
    gamma,
    tau_valuation,
)
from ubern.congruences import (
    CongruenceFailure,
    CongruenceReport,
    _case_4_9,
    check_corollary_3_4,
)
from ubern.errors import PreconditionError
from ubern.lemmas import SWEEPS, LemmaSweepResult, run_sweep
from ubern.padic import double_factorial, vp_factorial, vp_int
from ubern.partitions import (
    Partition,
    enumerate_partitions,
    enumerate_partitions_bounded,
    is_reduced,
    reduce_partition,
)


def test_registry_contents():
    assert set(SWEEPS) == {
        "2.1", "2.2", "2.4", "2.5", "2.6", "3.2",
        "4.1", "4.2", "4.3", "4.4", "4.5", "4.6", "4.7",
    }


def test_run_sweep_unknown_id():
    with pytest.raises(PreconditionError):
        run_sweep("9.9")


def test_run_sweep_rejects_foreign_parameters():
    with pytest.raises(PreconditionError):
        run_sweep("4.1", a_max=5)


@pytest.mark.parametrize("name", ["4.1", "4.2"])
def test_exponent_sweeps_are_capped_in_the_library(name):
    # n_max is the exponent N of k 2**N; the cap holds without the CLI
    with pytest.raises(PreconditionError, match="ceiling 10"):
        run_sweep(name, n_max=11)


def test_small_sweeps_hold():
    assert run_sweep("2.2", l_max=60).holds
    assert run_sweep("2.4", a_max=60).holds
    assert run_sweep("2.6", q_max=3).holds
    assert run_sweep("4.2", k_max=4, a_max=10, n_max=5).holds
    assert run_sweep("4.4", q_max=3, r_max=3, a_max=8, e_max=2).holds
    assert run_sweep("4.5", k_max=3, m_max=16).holds
    assert run_sweep("4.6", n_max=12).holds
    assert run_sweep("4.7", n_max=12).holds


def test_lemma_4_6_and_4_7_sweeps():
    # every partition of weight <= 24 is bucketed by 4.6; 4.7 skips ndot <= 0
    result = run_sweep("4.6", n_max=24)
    assert result.holds and result.checked == 7337
    result = run_sweep("4.7", n_max=24)
    assert result.holds and result.checked == 7221
    with pytest.raises(PreconditionError):
        run_sweep("4.6", n_max=0)
    # direct instances of the exceptional bucket and bound
    assert tau_valuation(2, Partition({7: 1})) == 1  # meets u3 + ceil(7/2) - 3
    assert tau_valuation(2, Partition({2: 1})) == 0  # meets 0 + 1 - 1


def test_lemma_4_1_instance_counts():
    result = run_sweep("4.1", k_max=199)
    assert result.holds
    assert result.detail["i"] == 100
    assert result.detail["ii"] == 199


def test_lemma_4_3_ranges():
    result = run_sweep("4.3", a_max=20, i_max=8)
    assert result.holds
    assert result.detail["sum"] == 21 * 8


def test_lemmas_4_3_and_4_5_check_no_prime_per_instance(monkeypatch):
    # both run at p = 2 and take the unchecked valuation core; before, each
    # instance paid a primality test in vp (1,281 calls at the defaults)
    calls = []

    def counted(p):
        calls.append(p)

    monkeypatch.setattr(padic, "_require_prime", counted)
    assert run_sweep("4.3").holds and run_sweep("4.5").holds
    assert calls == []


def test_lemma_3_2_small():
    result = run_sweep("3.2", s_max=2, i_max=2)
    assert result.holds
    assert result.checked > 0


def _lemma_2_2_reference(l_max=500):
    # reference: floor-divide a fresh (lp)! by l! p**l at every step
    failures = []
    checked = 0
    for p in (3, 5, 7):
        big = small = power = 1
        for l in range(1, l_max + 1):
            for j in range(p * (l - 1) + 1, p * l + 1):
                big *= j
            small *= l
            power *= p
            checked += 1
            value = big // (small * power)
            if (value - (-1) ** l) % p ** (vp_int(p, l) + 1):
                failures.append({"p": p, "l": l})
    return LemmaSweepResult("2.2", checked, failures)


def _lemma_3_2_reference(s_max=3, i_max=4):
    # reference: every check on every input, no per-image memo
    failures = []
    checked = 0
    for p in (3, 5):
        for s in range(1, s_max + 1):
            for i in range(i_max + 1):
                n = (s * (p - 1) + i) * p - i
                for u in enumerate_partitions_bounded(n, i + 1):
                    checked += 1
                    r = reduce_partition(p, u)
                    ok = (
                        is_reduced(p, r)
                        and r.weight == n
                        and r.degree <= i + 1
                        and tau_valuation(p, u) >= tau_valuation(p, r)
                    )
                    if not ok:
                        failures.append(
                            {"p": p, "s": s, "i": i, "u": u.to_pairs(), "r": r.to_pairs()}
                        )
    return LemmaSweepResult("3.2", checked, failures)


def _lemma_4_2_reference(k_max=9, a_max=30, n_max=8):
    # reference: every double-factorial product built afresh per instance
    failures = []
    detail = {"i": 0, "ii": 0, "iii": 0}
    for N in range(3, n_max + 1):
        for k in range(1, k_max + 1):
            base = k * 2**N
            for a in range(2, a_max + 1):
                ratio = math.prod(range(base + 3, base + 2 * a - 2, 2))
                dfa = double_factorial(2 * a - 3)
                detail["i"] += 1
                detail["ii"] += 1
                big = double_factorial(base + 2 * a - 3)
                if a % 2 == 0:
                    mod_i = 2 ** (N + 1 + min(vp_int(2, a), N - 1))
                    ok_i = (ratio - dfa) % mod_i == 0
                    ok_ii = (big - dfa) % 2 ** (N + 1) == 0
                else:
                    ok_i = (ratio - dfa - base) % 2 ** (N + 1) == 0
                    ok_ii = (big - dfa - base) % 2 ** (N + 1) == 0
                if not ok_i:
                    failures.append({"part": "i", "k": k, "N": N, "a": a})
                if not ok_ii:
                    failures.append({"part": "ii", "k": k, "N": N, "a": a})
            if k % 2:
                detail["iii"] += 1
                w = double_factorial(base - 3)
                exponent = (k - 1) // 2 if N == 3 else (k + 1) // 2
                sign = -1 if exponent % 2 else 1
                ok = (w + 1 - sign * 2 ** (N + 1)) % 2 ** (N + 3) == 0
                ok = ok and (w + 1 - 2 ** (N + 1)) % 2 ** (N + 2) == 0
                if not ok:
                    failures.append({"part": "iii", "k": k, "N": N})
    return LemmaSweepResult("4.2", sum(detail.values()), failures, detail)


def _lemma_4_4_reference(q_max=8, r_max=8, a_max=16, e_max=4):
    # reference: each factorial quotient by one exact division per instance
    failures = []
    detail = {"i": 0, "ii": 0, "iii": 0, "iv": 0}
    fact = [math.factorial(i) for i in range(2 * (3 * 2**6 + q_max + 2 * r_max) + a_max + 1)]
    for N in range(3, 7):
        modulus = 2 ** (N + 1)
        for k in (1, 3):
            l = k * 2**N
            for q in range(q_max + 1):
                for r in range(r_max + 1):
                    delta_r = l if r in (1, 2) else 0
                    big = l + q + 2 * r
                    small = q + 2 * r
                    lhs_i = fact[big] // (fact[l + q] * fact[r])
                    rhs_i = fact[small] // (fact[q] * fact[r])
                    detail["i"] += 1
                    if (lhs_i - rhs_i - delta_r) % modulus:
                        failures.append({"part": "i", "N": N, "k": k, "q": q, "r": r})
                    for a in range(a_max + 1):
                        lhs = fact[2 * big + a] // (2**big * fact[l + q] * fact[r])
                        rhs = fact[2 * small + a] // (2**small * fact[q] * fact[r])
                        where = {"N": N, "k": k, "q": q, "r": r, "a": a}
                        if a <= 1:
                            detail["ii"] += 1
                            if (lhs - rhs - delta_r) % modulus:
                                failures.append({"part": "ii", **where})
                        for e in range(1, e_max + 1):
                            if a >= 2 * e:
                                detail["iii"] += 1
                                if (lhs - rhs) % 2 ** (N + e):
                                    failures.append({"part": "iii", **where, "e": e})
                            if a >= 2 * (e + 1):
                                detail["iv"] += 1
                                if (lhs - rhs) % (modulus * 2**e):
                                    failures.append({"part": "iv", **where, "e": e})
    return LemmaSweepResult("4.4", sum(detail.values()), failures, detail)


def _lemma_4_6_reference(n_max=24):
    # reference: the per-partition valuation formulas on every partition
    failures = []
    checked = 0
    for n in range(1, n_max + 1):
        for u in enumerate_partitions(n):
            checked += 1
            u1, u3, u7 = u.multiplicity(1), u.multiplicity(3), u.multiplicity(7)
            e = vp_int(2, gamma(u)) - vp_factorial(2, 2 * u1) - 2 * u3 - vp_factorial(2, u3)
            offset = n + u.degree - 2 - 2 * (u1 + 2 * u3 + e)
            ndot = n - u1 - 3 * u3
            if ndot == 0:
                ok, want = offset == -2, "-2"
            elif ndot == 2:
                ok, want = offset == 1, "1"
            elif u7 and ndot == 7 * u7 and u7 & (u7 - 1) == 0:
                ok, want = offset == 0, "0"
            else:
                ok, want = offset >= 2, ">=2"
            if not ok:
                failures.append({"u": u.to_pairs(), "offset": str(offset), "want": want})
    return LemmaSweepResult("4.6", checked, failures)


def _lemma_4_7_reference(n_max=24):
    # reference: tau_valuation on every partition the bound covers
    failures = []
    checked = 0
    for n in range(1, n_max + 1):
        for u in enumerate_partitions(n):
            u1, u3, u7 = u.multiplicity(1), u.multiplicity(3), u.multiplicity(7)
            ndot = n - u1 - 3 * u3
            if ndot <= 0:
                continue
            checked += 1
            slack = 3 if (u7 and ndot == 7 * u7) else 1
            bound = u3 + (ndot + 1) // 2 - slack
            v = tau_valuation(2, u)
            if v < bound:
                failures.append({"u": u.to_pairs(), "v": str(v), "bound": str(bound)})
    return LemmaSweepResult("4.7", checked, failures)


def _check_corollary_3_4_reference(p, s, i):
    # reference: tau_valuation on every input
    m = s * (p - 1)
    n = (m + i) * p - i
    bound = s * (p - 2) - 1
    failures = []
    checked = 0
    for u in enumerate_partitions_bounded(n, i + 1):
        checked += 1
        v = tau_valuation(p, u)
        if v < bound:
            failures.append(CongruenceFailure(u, str(v), str(bound), v - bound))
    context = {
        "corollary": "3.4", "p": p, "s": s, "i": i, "n": n, "bound": bound,
        "degree_max": i + 1, "checked": checked,
    }
    return CongruenceReport(not failures, p, max(bound, 0), context, failures)


def _corollary_3_4_grid(check, grid=((3, 4, 4), (5, 2, 2))):
    # check at every (p, s, i) with 1 <= s <= s_max and 0 <= i <= i_max for
    # each (p, s_max, i_max) of grid; the default is the acceptance grid
    reports = [
        check(p, s, i).to_json()
        for p, s_max, i_max in grid
        for s in range(1, s_max + 1)
        for i in range(i_max + 1)
    ]
    checked = sum(report["context"]["checked"] for report in reports)
    return LemmaSweepResult("3.4", checked, reports)


@pytest.mark.parametrize("name, reference, bounds", [
    ("2.2", _lemma_2_2_reference, {}),
    ("2.2", _lemma_2_2_reference, {"l_max": 77}),
    ("3.2", _lemma_3_2_reference, {}),
    ("3.2", _lemma_3_2_reference, {"s_max": 4, "i_max": 1}),
    ("4.2", _lemma_4_2_reference, {}),
    ("4.2", _lemma_4_2_reference, {"k_max": 4, "a_max": 11, "n_max": 5}),
    ("4.4", _lemma_4_4_reference, {}),
    ("4.4", _lemma_4_4_reference, {"q_max": 3, "r_max": 2, "a_max": 7, "e_max": 2}),
    ("4.6", _lemma_4_6_reference, {}),
    ("4.6", _lemma_4_6_reference, {"n_max": 9}),
    ("4.7", _lemma_4_7_reference, {}),
    ("4.7", _lemma_4_7_reference, {"n_max": 9}),
    ("3.4", functools.partial(_corollary_3_4_grid, _check_corollary_3_4_reference), {}),
    ("3.4", functools.partial(_corollary_3_4_grid, _check_corollary_3_4_reference),
     {"grid": ((3, 2, 3), (5, 1, 1))}),
])
def test_sweeps_match_their_references(name, reference, bounds):
    # 3.4 is the corollary grid, one report per case, in place of a sweep
    if name == "3.4":
        got = _corollary_3_4_grid(check_corollary_3_4, **bounds)
    else:
        got = run_sweep(name, **bounds)
    want = reference(**bounds)
    assert (got.checked, got.detail, got.failures) == (want.checked, want.detail, want.failures)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_valuation_tables_match_the_per_partition_formulas(p):
    for n in range(1, 31):
        vfact, gain = _valuation_tables(p, n)
        assert vfact == [vp_factorial(p, i) for i in range(max(2 * n - 2, n) + 1)]
        assert [len(row) for row in gain] == [1] + [n // part + 1 for part in range(1, n + 1)]
        for u in enumerate_partitions(n):
            got = _runs_valuations(vfact, gain, u)
            assert got == (u.degree, vp_int(p, gamma(u)), tau_valuation(p, u))
    # lemma 3.2's largest weight, at its degree budget
    vfact, gain = _valuation_tables(p, 76)
    for u in enumerate_partitions_bounded(76, 5):
        got = _runs_valuations(vfact, gain, u)
        assert got == (u.degree, vp_int(p, gamma(u)), tau_valuation(p, u))


# the instance count of each sweep at its defaults: the work the identity
# sweeps do, which no machine changes
DEFAULT_CHECKED = {
    "2.1": 18506, "2.2": 1500, "2.4": 3015, "2.5": 800, "2.6": 1428, "3.2": 30341,
    "4.1": 454, "4.2": 3162, "4.3": 1038, "4.4": 58968, "4.5": 243, "4.6": 7337,
    "4.7": 7221,
}


def test_default_sweeps_check_pinned_counts(monkeypatch):
    calls = []

    def counted(p, u):
        calls.append((p, u))
        return tau_valuation(p, u)

    monkeypatch.setattr(lemmas, "tau_valuation", counted)
    checked = {}
    for name in SWEEPS:
        result = run_sweep(name)
        assert result.holds, name
        checked[name] = result.checked
    assert checked == DEFAULT_CHECKED
    assert sum(checked.values()) == 134013
    # lemma 3.2 reads each input's valuation from the table and calls the
    # per-partition formula once per distinct reduced image of each p
    assert len(calls) == len(set(calls)) == 142


@pytest.mark.parametrize("name, bounds", [
    ("2.1", {"a_max": -5}),
    ("2.6", {"q_max": -1}),
    ("4.3", {"a_max": -1}),
    ("4.4", {"q_max": -1}),
    ("4.1", {"n_max": -1}),
    ("2.5", {"trials": -1}),
])
def test_negative_bounds_are_refused(name, bounds):
    with pytest.raises(PreconditionError, match="must be >= 0"):
        run_sweep(name, **bounds)


def test_a_none_bound_is_the_sweep_default():
    # None is no override, as for a CLI flag left unset; before, it reached
    # the sweep and raised TypeError.  4.1's k_max=None is its own default
    assert run_sweep("4.6", n_max=None) == run_sweep("4.6")
    assert run_sweep("2.2", l_max=None) == run_sweep("2.2")
    assert run_sweep("4.1", k_max=None, n_max=3) == run_sweep("4.1", n_max=3)
    with pytest.raises(PreconditionError, match="does not take parameter 'a_max'"):
        run_sweep("4.1", a_max=None)


def test_theorem_4_9_head_is_the_lemma_4_5_increment(monkeypatch):
    # the c1^n correction of 4.9 and lemma 4.5's corr are two hand-written
    # copies of one reading.  Lemma 4.5 values g(n) - g(m) - corr, so its
    # corr is read back from the arguments of its g_func and _vp calls;
    # for 8 | m, where it claims nothing, the head is g(n) - g(m) exactly
    weights, residuals = [], []

    def g_recorded(a):
        weights.append(a)
        return padic.g_func(a)

    monkeypatch.setattr(lemmas, "g_func", g_recorded)
    monkeypatch.setattr(lemmas, "_vp", lambda p, q: residuals.append(q) or padic._vp(p, q))
    assert lemmas.lemma_4_5(k_max=5, m_max=100).holds
    corr = {}
    for (n, m), residual in zip(zip(weights[::2], weights[1::2]), residuals, strict=True):
        corr[m, n - m] = padic.g_func(n) - padic.g_func(m) - residual
    checked = 0
    for N in (3, 4, 5):
        for k in (1, 3, 5):
            l = k * 2**N
            for m in range(2 * N + 1, 101):
                n = m + l
                [head] = [c for exps, c in _case_4_9(m, k, N).corrections if exps == {1: n}]
                want = padic.g_func(n) - padic.g_func(m) if m % 8 == 0 else corr[m, l]
                assert head == want, (m, k, N)
                checked += 1
    assert checked == 828


@pytest.mark.parametrize("name, bounds", [
    ("3.2", {"s_max": 0}),
    ("2.2", {"l_max": 0}),
    ("4.5", {"k_max": 0}),
    ("4.3", {"i_max": 0}),
    ("2.5", {"trials": 0}),
])
def test_sweeps_that_check_nothing_are_refused(name, bounds):
    with pytest.raises(PreconditionError, match="checks no instance"):
        run_sweep(name, **bounds)


def test_lemma_3_2_memo_cannot_hide_a_broken_reduction(monkeypatch):
    def drops_a_part(p, u):
        r = reduce_partition(p, u)
        return Partition(r[1:]) if len(r) > 1 else r

    monkeypatch.setattr(lemmas, "_reduce_partition", drops_a_part)
    result = run_sweep("3.2", s_max=1, i_max=2)
    assert not result.holds
    broken = sum(
        1
        for p in (3, 5)
        for i in range(3)
        for u in enumerate_partitions_bounded((p - 1 + i) * p - i, i + 1)
        if len(reduce_partition(p, u)) > 1
    )
    assert len(result.failures) == broken > 0
