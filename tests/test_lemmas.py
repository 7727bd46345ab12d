import pytest

from ubern.bernoulli import tau_valuation
from ubern.errors import PreconditionError
from ubern.lemmas import SWEEPS, run_sweep
from ubern.partitions import Partition


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
