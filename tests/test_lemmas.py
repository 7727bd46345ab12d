import pytest

import ubern.lemmas as lemmas
from ubern.bernoulli import tau_valuation
from ubern.errors import PreconditionError
from ubern.lemmas import SWEEPS, LemmaSweepResult, run_sweep
from ubern.padic import vp_int
from ubern.partitions import (
    Partition,
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


@pytest.mark.parametrize("name, reference, bounds", [
    ("2.2", _lemma_2_2_reference, {}),
    ("2.2", _lemma_2_2_reference, {"l_max": 77}),
    ("3.2", _lemma_3_2_reference, {}),
    ("3.2", _lemma_3_2_reference, {"s_max": 4, "i_max": 1}),
])
def test_sweeps_match_their_references(name, reference, bounds):
    got = run_sweep(name, **bounds)
    want = reference(**bounds)
    assert (got.checked, got.detail, got.failures) == (want.checked, want.detail, want.failures)


def test_lemma_3_2_memo_cannot_hide_a_broken_reduction(monkeypatch):
    def drops_a_part(p, u):
        r = reduce_partition(p, u)
        return Partition(r.pairs[1:]) if len(r) > 1 else r

    monkeypatch.setattr(lemmas, "reduce_partition", drops_a_part)
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
