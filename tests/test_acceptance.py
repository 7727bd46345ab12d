"""End-to-end acceptance checks, one test per shipped criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
all; a FAIL line always accompanies the assertion failure).  Everything
is exact arithmetic; there are no numerical tolerances anywhere.
"""

import time

from fractions import Fraction

from ubern.bernoulli import (
    _tau_unit,
    classical_bernoulli,
    divided_ubern,
    specialize,
    tau,
    tau_valuation,
)
from ubern.cli import main as cli_main
from ubern.congruences import (
    GRID_THEOREM_3_5,
    GRID_THEOREM_4_8,
    GRID_THEOREM_4_9,
    check_corollary_3_4,
    reports_agree,
    verify_theorem_3_5,
    verify_theorem_4_8,
    verify_theorem_4_9,
)
from ubern.lemmas import run_sweep
from ubern.padic import _unit_factorials, vp
from ubern.partitions import count_partitions, enumerate_partitions


def _report(cid: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] criterion {cid}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {cid} failed: {detail}"


def test_criterion_1_classical_oracle_equivalence():
    start = time.time()
    mismatches = []
    for n in range(1, 31):
        values = {i: (-1) ** i for i in range(1, n + 1)}
        if n * specialize(divided_ubern(n), values) != classical_bernoulli(n):
            mismatches.append(n)
    spot = (
        classical_bernoulli(2) == Fraction(1, 6)
        and classical_bernoulli(4) == Fraction(-1, 30)
        and classical_bernoulli(6) == Fraction(1, 42)
    )
    _report(
        "1",
        not mismatches and spot,
        f"n=1..30 exact equality ({time.time() - start:.1f}s)",
    )


def test_criterion_2_theorem_3_5_grid():
    start = time.time()
    bad = []
    psi_branches = set()
    n_levels = set()
    for p, s, l in GRID_THEOREM_3_5:
        report = verify_theorem_3_5(p, s, l)
        assert report.context["n"] <= 48
        if p == 3:
            psi_branches.add(s % 3)
        n_levels.add(report.context["N"])
        if not report.holds:
            bad.append((p, s, l))
    coverage = psi_branches == {0, 1, 2} and {1, 2} <= n_levels
    _report(
        "2",
        not bad and coverage,
        f"{len(GRID_THEOREM_3_5)} cases, all psi branches, N in {{1,2}} "
        f"({time.time() - start:.1f}s)",
    )


def test_criterion_3_theorem_4_8_grid():
    start = time.time()
    bad = []
    cases = set()
    for n in GRID_THEOREM_4_8:
        report = verify_theorem_4_8(n)
        cases.add(report.context["case"])
        if not report.holds:
            bad.append(n)
    _report(
        "3",
        not bad and cases == {"i", "ii"},
        f"even n in [12, 40], both branches ({time.time() - start:.1f}s)",
    )


def test_criterion_4_theorem_4_9_grid():
    start = time.time()
    bad = []
    residues = set()
    for m, k, N in GRID_THEOREM_4_9:
        report = verify_theorem_4_9(m, k, N)
        if N == 3:
            assert report.context["n"] <= 40
        residues.add(m % 8)
        if not report.holds:
            bad.append((m, k, N))
    # the grid includes every odd-m case, which pins the summed reading of
    # the two correction groups
    _report(
        "4",
        not bad and residues == set(range(8)),
        f"{len(GRID_THEOREM_4_9)} cases, all m mod 8 ({time.time() - start:.1f}s)",
    )


def test_criterion_5_corollary_3_4_grid():
    start = time.time()
    bad = []
    for p, s_range, i_range in ((3, range(1, 5), range(5)), (5, range(1, 3), range(3))):
        for s in s_range:
            for i in i_range:
                if not check_corollary_3_4(p, s, i).holds:
                    bad.append((p, s, i))
    _report("5", not bad, f"exhaustive valuation bounds ({time.time() - start:.1f}s)")


def test_criterion_6_lemma_suites():
    start = time.time()
    failed = []
    for name in ("2.1", "2.2", "2.4", "2.5", "2.6", "4.1", "4.2", "4.3", "4.4", "4.5"):
        result = run_sweep(name)
        if not result.holds:
            failed.append((name, result.failures[:3]))
    for name in ("4.6", "4.7"):
        result = run_sweep(name, n_max=24)
        if not result.holds:
            failed.append((name, result.failures[:3]))
    _report("6", not failed, f"all suites on full ranges ({time.time() - start:.1f}s)")


def test_criterion_7_backend_cross_check():
    start = time.time()
    bad = 0
    for n in range(1, 21):
        for u in enumerate_partitions(n):
            exact = tau(u)
            for p in (2, 3, 5):
                v = vp(p, exact)
                bad += tau_valuation(p, u) != v
                w = exact / Fraction(p) ** v  # the exact unit part
                for k in range(1, 6):
                    m = p**k
                    ufact = _unit_factorials(p, n + u.degree, k)
                    unit = w.numerator * pow(w.denominator, -1, m) % m
                    bad += _tau_unit(p, u, ufact, m) != unit
    disagreements = []
    for p, s, l in GRID_THEOREM_3_5:
        if (s + l) * (p - 1) > 24:
            continue
        a = verify_theorem_3_5(p, s, l)
        b = verify_theorem_3_5(p, s, l, backend="padic")
        if not (reports_agree(a, b) and a.holds):
            disagreements.append(("3.5", p, s, l))
    for n in GRID_THEOREM_4_8:
        if n > 24:
            continue
        if not reports_agree(
            verify_theorem_4_8(n), verify_theorem_4_8(n, backend="padic")
        ):
            disagreements.append(("4.8", n))
    for m, k, N in GRID_THEOREM_4_9:
        if m + k * 2**N > 24:
            continue
        if not reports_agree(
            verify_theorem_4_9(m, k, N), verify_theorem_4_9(m, k, N, backend="padic")
        ):
            disagreements.append(("4.9", m, k, N))
    _report(
        "7",
        bad == 0 and not disagreements,
        f"tau valuations and units w<=20 and both-backend reports n<=24 "
        f"({time.time() - start:.1f}s)",
    )


def test_criterion_8_enumeration():
    start = time.time()
    for n in range(41):
        assert sum(1 for _ in enumerate_partitions(n)) == count_partitions(n)
    t40 = time.time()
    count = sum(1 for _ in enumerate_partitions(40))
    elapsed = time.time() - t40
    _report(
        "8",
        count == 37338 and elapsed < 5.0,
        f"counts match p(n) for n<=40; enumerate(40) in {elapsed:.2f}s "
        f"(total {time.time() - start:.1f}s)",
    )


def test_criterion_9_negative_control():
    start = time.time()
    ok = True
    for report in (
        verify_theorem_3_5(5, 1, 5, perturb=True),
        verify_theorem_4_8(12, perturb=True),
        verify_theorem_4_9(7, 1, 3, perturb=True),
    ):
        ok = ok and not report.holds and len(report.failures) == 1
    codes = (
        cli_main(["verify", "--theorem", "3.5", "--p", "5", "--s", "1", "--l", "5",
                  "--perturb", "--format", "json"]),
        cli_main(["verify", "--theorem", "4.8", "--n", "12", "--perturb",
                  "--format", "json"]),
        cli_main(["verify", "--theorem", "4.9", "--m", "7", "--k", "1", "--N", "3",
                  "--perturb", "--format", "json"]),
    )
    ok = ok and codes == (1, 1, 1)
    _report(
        "9",
        ok,
        f"one perturbed coefficient flips each verifier to exit 1 with a "
        f"single failure ({time.time() - start:.1f}s)",
    )
