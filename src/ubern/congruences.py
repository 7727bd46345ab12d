"""Right-hand sides and verifiers for the prime-power congruence families.

Three congruence families are implemented, identified by the rule ids
"3.5" (odd primes p, weight divisible by p-1), "4.8" (p = 2, a fixed
mod-4 / mod-8 shape) and "4.9" (p = 2, lifting along l = k * 2**N).
Each has an explicit right-hand-side builder and a verifier that sweeps
every partition of the target weight.  Verdicts are carried by
CongruenceReport, which serializes to a stable JSON document.

Congruence of rationals mod p**k means v_p(lhs - rhs) >= k.  A
non-p-integral difference is a hard failure (recorded with its negative
valuation), never a silent skip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator

from .bernoulli import (
    DEFAULT_N_CEILING,
    SparsePoly,
    _runs_valuations,
    _tau_tables,
    _tau_unit,
    _valuation_tables,
    classical_bernoulli,
    divided_ubern,
    format_rational,
    parse_rational,
    tau,
    tau_valuation,
    tau_valuations_below,
)
from .errors import CeilingExceeded, PreconditionError
from .padic import (
    _require_odd_prime,
    _require_prime,
    _unit_factorials,
    double_factorial,
    vp,
    vp_int,
)
from .partitions import (
    Partition,
    enumerate_partitions,  # unused here; perfbench/tracer.py wraps this name
    enumerate_partitions_bounded,
)

__all__ = [
    "CongruenceFailure",
    "CongruenceReport",
    "GRID_THEOREM_3_5",
    "GRID_THEOREM_4_8",
    "GRID_THEOREM_4_9",
    "check_corollary_3_4",
    "poly_congruent",
    "reports_agree",
    "rhs_theorem_3_5",
    "rhs_theorem_4_8",
    "rhs_theorem_4_9",
    "tau_pure",
    "verify_classical_kummer",
    "verify_theorem_3_5",
    "verify_theorem_4_8",
    "verify_theorem_4_9",
    "z_func",
]

# standard verification grids (also used by the CLI sweep command)
GRID_THEOREM_3_5 = (
    (5, 1, 5),
    (5, 2, 5),
    (5, 1, 10),
    (7, 1, 7),
    (3, 3, 3),
    (3, 4, 3),
    (3, 5, 3),
    (3, 4, 9),
)
GRID_THEOREM_4_8 = tuple(range(12, 41, 2))
GRID_THEOREM_4_9 = tuple((m, k, 3) for k in (1, 3) for m in range(7, 17)) + tuple(
    (m, 1, 4) for m in range(9, 13)
)


@dataclass
class CongruenceFailure:
    """One offending monomial: both coefficients and v_p of their difference.

    For the corollary 3.4 valuation-bound check lhs holds the observed
    value, rhs the required bound, and vp_diff the margin.
    """

    u: Partition
    lhs: str
    rhs: str
    vp_diff: int

    def to_json(self) -> dict:
        return {
            "u": self.u.to_pairs(),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "vp_diff": self.vp_diff,
        }


@dataclass
class CongruenceReport:
    """Verdict of a mod-p**k polynomial congruence with failure evidence."""

    holds: bool
    prime: int
    mod_exp: int
    context: dict
    failures: list[CongruenceFailure] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "prime": self.prime,
            "mod_exp": self.mod_exp,
            "context": self.context,
            "failures": [f.to_json() for f in self.failures],
        }


def reports_agree(a: CongruenceReport, b: CongruenceReport) -> bool:
    """Same verdict and same failure evidence.

    Failures must match one for one in key, valuation and right-hand
    side, and their left-hand sides must agree as p-adic numbers: the
    padic backend reports tau(u) to k - vmin >= k digits past v_p(tau(u)),
    so a correct pair agrees mod p**(k + max(0, v_p(lhs))).  A left-hand
    side that is missing (0/1) where the other is tau(u) != 0 fails this
    whatever v_p(tau(u)) is.
    """
    return (
        a.holds == b.holds
        and a.prime == b.prime
        and a.mod_exp == b.mod_exp
        and len(a.failures) == len(b.failures)
        and all(
            fa.u == fb.u
            and fa.vp_diff == fb.vp_diff
            and fa.rhs == fb.rhs
            and _lhs_agree(a.prime, a.mod_exp, fa.lhs, fb.lhs)
            for fa, fb in zip(a.failures, b.failures)
        )
    )


def _lhs_agree(p: int, k: int, x: str, y: str) -> bool:
    qx, qy = parse_rational(x), parse_rational(y)
    return vp(p, qx - qy) >= k + max(0, min(vp(p, qx), vp(p, qy)))


def poly_congruent(
    A: SparsePoly, B: SparsePoly, p: int, k: int, *, context: dict | None = None
) -> CongruenceReport:
    """Coefficient-wise check that v_p of every coefficient of A - B is >= k.

    The one congruence test (_congruence_report), on a materialized A.
    """
    terms = ((u, a.numerator, a.denominator) for u, a in A._terms.items())
    return _congruence_report(terms, B, p, k, context or {})


def _congruence_report(
    terms: Iterable[tuple[Partition, int, int]],
    B: SparsePoly,
    p: int,
    k: int,
    context: dict,
) -> CongruenceReport:
    """Check the left-hand terms (u, num, den), den > 0, against B mod p**k.

    The one congruence test: the exact backend feeds it the monomials
    that can fail, found by testing every tau(u) (_exact_terms), the padic
    backend the same monomials, found by a pruned walk (_padic_terms), and
    poly_congruent a materialized polynomial.  A monomial that no term
    names has left-hand side 0.  For a rational in lowest terms and
    k >= 1, v_p >= k holds exactly when p**k divides the numerator (a zero
    difference included), so each monomial costs one integer test.
    Where B has no term at u, that is the quotient of num by den when it
    divides, else num over gcd(num, den); a Fraction is built only where B
    has the key or the test fails.  The keys only in B come after.  vp is
    computed for the failures alone, and only the failure list is put in
    canonical order; keys are distinct, so that is the order of the sorted
    union of both key sets.
    """
    _require_prime(p)
    if k < 1:
        raise PreconditionError("modulus exponent k must be >= 1")
    modulus = p**k
    b_terms = B._terms
    matched = set()
    failures = []
    for u, num, den in terms:
        b = b_terms.get(u)
        if b is None:
            q, r = divmod(num, den)
            if (num // gcd(num, den) if r else q) % modulus:
                a = Fraction(num, den)
                failures.append(CongruenceFailure(u, format_rational(a), "0/1", vp(p, a)))
            continue
        matched.add(u)
        a = Fraction(num, den)
        diff = a - b
        if diff.numerator % modulus:
            failures.append(
                CongruenceFailure(u, format_rational(a), format_rational(b), vp(p, diff))
            )
    for u, b in b_terms.items():
        if u not in matched and b.numerator % modulus:
            failures.append(CongruenceFailure(u, "0/1", format_rational(b), vp(p, b)))
    failures.sort(key=lambda f: f.u.sort_key())
    return CongruenceReport(not failures, p, k, context, failures)


def _padic_terms(
    n: int, rhs: SparsePoly, p: int, k: int, low: dict | None = None
) -> Iterator[tuple[Partition, int, int]]:
    """(u, num, den) for each monomial of divided_ubern(n) that can break
    the congruence with rhs mod p**k: the padic backend's term source.

    Those are the u with v_p(tau(u)) < k, which the exact branch-and-bound
    walk tau_valuations_below (run here, or by the caller: low) finds
    without visiting the bulk of the p(n) partitions, and the keys of rhs
    of weight n.  Each value is p**v times the unit residue of tau(u) mod
    p**(k - vmin), vmin <= 0 the least valuation of a named tau(u) (the
    walk has every negative one, as k >= 1).  As v >= vmin, the value is
    tau(u) mod p**(k + max(0, v)) at least, whatever the right-hand side:
    verdicts and vp_diff below k are exact.  The unit residues share one
    unit-factorial table up to 2n - 2.
    """
    low = dict(tau_valuations_below(p, n, k) if low is None else low)
    for u in rhs.keys():
        if u.weight == n and u not in low:
            low[u] = tau_valuation(p, u)
    vmin = min([0, *low.values()])
    precision = k - vmin
    m = p**precision
    ufact = _unit_factorials(p, 2 * n - 2, precision)
    for u, v in low.items():
        unit = _tau_unit(p, u, ufact, m)
        if v >= 0:
            yield u, unit * p**v, 1
        else:
            yield u, unit, p**-v


def _exact_terms(
    n: int, rhs: SparsePoly, p: int, k: int
) -> Iterator[tuple[Partition, int, int]]:
    """(u, num, den) with tau(u) = num/den for each partition u of n with
    tau(u) != 0 mod p**k, then each key of rhs of weight n not yet named:
    the exact backend's term source, each monomial once.

    The independent oracle: all p(n) partitions are visited and each
    tau(u) = (-1)**(d-1) (n+d-2)!/gamma(u) is tested with big integers by
    the integer test of _congruence_report (the quotient when den | num,
    else num over gcd(num, den), mod p**k); no valuation is computed.  The
    sweep is the enumerate_partitions successor on one stack of runs
    (part, mult, gamma, degree), gamma and degree taken over the runs up
    to and including that one, so a step multiplies in the _tau_tables
    factor of each run it changes, and a Partition is built only for a
    yielded term.  The sweep's terms are those of _tau_fractions, in its
    order: den = gamma(u), not reduced; a key of rhs the sweep did not
    name comes as the reduced tau(u).
    """
    modulus = p**k
    fact, run = _tau_tables(n)
    pending = {u for u in rhs.keys() if u.weight == n}
    runs = [(n, 1, n + 1, 1)]  # parts strictly decreasing
    den, d = n + 1, 1
    while True:
        num = fact[n + d - 2]
        q, r = divmod(num, den)
        if (num // gcd(num, den) if r else q) % modulus:
            u = Partition._raw([(part, mult) for part, mult, _, _ in reversed(runs)])
            pending.discard(u)
            yield u, (num if d % 2 else -num), den
        # the enumerate_partitions successor: pop the trailing 1s, take one
        # copy off the smallest part > 1, refill as copies of part - 1 and
        # at most one smaller part
        part, mult, _, _ = runs.pop()
        rest = 0
        if part == 1:
            if not runs:
                break
            rest = mult
            part, mult, _, _ = runs.pop()
        _, _, den, d = runs[-1] if runs else (0, 0, 1, 0)
        if mult > 1:
            den *= run[part][mult - 1]
            d += mult - 1
            runs.append((part, mult - 1, den, d))
        rest += part
        part -= 1
        q, r = divmod(rest, part)
        den *= run[part][q]
        d += q
        runs.append((part, q, den, d))
        if r:
            den *= r + 1
            d += 1
            runs.append((r, 1, den, d))
    for u in rhs.keys():
        if u in pending:
            t = tau(u)
            yield u, t.numerator, t.denominator


def _verify_against_ubern(
    n: int,
    rhs: SparsePoly,
    p: int,
    k: int,
    context: dict,
    backend: str,
    n_ceiling: int,
    perturb: bool = False,
    low: dict | None = None,
) -> CongruenceReport:
    """Check divided_ubern(n) against rhs mod p**k on one backend.

    Both backends are term sources for _congruence_report: "exact" tests
    tau(u) of every partition of n with big integers (_exact_terms), the
    independent oracle; "padic" walks only the u with v_p(tau(u)) < k and
    reads their unit residues (_padic_terms), reusing the walk low if given.
    """
    if n > n_ceiling:
        raise CeilingExceeded(f"n={n} exceeds the ceiling {n_ceiling}")
    if perturb:
        # mutation self-test: +1 on the first coefficient in canonical order
        first = rhs.items()[0][0]
        rhs = rhs.add_term(first, 1)
        context["perturbed"] = True
    if backend == "exact":
        terms = _exact_terms(n, rhs, p, k)
    elif backend == "padic":
        terms = _padic_terms(n, rhs, p, k, low)
    else:
        raise PreconditionError(f"unknown backend {backend!r}")
    return _congruence_report(terms, rhs, p, k, context)


def _lifting_walks(
    p: int, n: int, m: int, k: int, shift: dict[int, int], backend: str, n_ceiling: int
) -> tuple[dict | None, list[tuple[Partition, Fraction]] | None]:
    """(low, terms) of a 3.5 or 4.9 case, n checked against the ceiling
    first; (None, None) off the padic backend.  low is the walk at n, terms
    the m-part (b, tau(b)) of c^shift * divided_ubern(m) that can matter:
    the walk at m, c_m (its shift is the first shifted key: --perturb) and
    each b whose shift low names, so a failure there shows the full rhs.
    Any other shifted key has v_p >= k on both sides and no term names it.
    """
    if n > n_ceiling:
        raise CeilingExceeded(f"n={n} exceeds the ceiling {n_ceiling}")
    if backend != "padic":
        return None, None
    low = dict(tau_valuations_below(p, n, k))
    [(part, mult)] = shift.items()
    bases = {Partition({m: 1}), *(b for b, _ in tau_valuations_below(p, m, k))}
    bases.update(u.merged({part: -mult}) for u in low if u.multiplicity(part) >= mult)
    return low, [(b, tau(b)) for b in bases]


def _lifted_rhs(terms: Iterable, shift: dict[int, int], corrections: list) -> SparsePoly:
    """c^shift times the m-part terms (b, tau(b)) plus the corrections
    (u, c), as one dict: the 3.5 and 4.9 right-hand sides.  A correction
    key c^shift b whose b the terms skip gets tau(b) too: every key is full.
    """
    rhs = {b.merged(shift): c for b, c in terms}
    [(part, mult)] = shift.items()
    for u, c in corrections:
        if u not in rhs and u.multiplicity(part) >= mult:
            c += tau(u.merged({part: -mult}))
        rhs[u] = rhs.get(u, 0) + c
        if not rhs[u]:
            del rhs[u]
    return SparsePoly._wrap(rhs)


# -- family 3.5 (odd primes) -------------------------------------------

def tau_pure(p: int, w: int) -> Fraction:
    """tau of the pure partition with all w/(p-1) parts equal to p-1."""
    if w < 1 or w % (p - 1):
        raise PreconditionError(f"weight {w} is not a positive multiple of p-1")
    return tau(Partition({p - 1: w // (p - 1)}))


def z_func(p: int, n: int, k: int) -> int:
    """Residue of p**(1+v(n)) * tau_pure(p, n) mod p**k.

    That rational is always p-integral (checked; violation means the
    precondition (p-1) | n was broken).  The source only pins the residue
    mod p**(N+2+v(n)); k is explicit here and callers choose it.
    """
    _require_prime(p)
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if n < 1 or n % (p - 1):
        raise PreconditionError(f"n must be a positive multiple of p-1, got {n}")
    q = p ** (1 + (vp_int(p, n) if n % p == 0 else 0)) * tau_pure(p, n)
    if vp(p, q) < 0:
        raise PreconditionError(f"p**(1+v(n)) * tau is not {p}-integral at n={n}")
    modulus = p**k
    return q.numerator * pow(q.denominator, -1, modulus) % modulus


def _theorem_3_5_params(p: int, s: int, l: int) -> tuple[int, int, int]:
    _require_odd_prime(p)
    if s < 1 or l < 1:
        raise PreconditionError("s and l must be positive")
    N = vp_int(p, l) if l % p == 0 else 0
    need = -(-(N + 2) // (p - 2))
    if s < need:
        raise PreconditionError(
            f"s >= ceil((N+2)/(p-2)) = {need} required, got s={s} (N={N})"
        )
    m = s * (p - 1)
    n = m + l * (p - 1)
    return N, m, n


def rhs_theorem_3_5(
    p: int, s: int, l: int, *, n_ceiling: int = DEFAULT_N_CEILING, terms: Iterable | None = None
) -> SparsePoly:
    """Right-hand side of family 3.5 at (p, s, l); weight n = (s+l)(p-1).

    The correction coefficient is the exact rational difference
    tau_pure(n) - tau_pure(m): each summand alone is not p-integral, only
    the difference is constrained by the congruence.  For p = 3 the extra
    c2^(l+s-4) c8 term carries 0, +l or -l according to s mod 3.  terms:
    the m-part (_lifted_rhs), by default all of divided_ubern(m).
    """
    N, m, n = _theorem_3_5_params(p, s, l)
    corrections = [(Partition({p - 1: l + s}), tau_pure(p, n) - tau_pure(p, m))]
    if p == 3 and l + s >= 4 and s % 3 != 1:
        # psi vanishes for s = 1 mod 3 and carries +-l otherwise; the signs
        # are pinned by exact arithmetic on the verification grid (at s = 3
        # the whole coefficient is psi, and it equals +l, not -l)
        psi = l if s % 3 == 0 else -l
        corrections.append((Partition({2: l + s - 4, 8: 1}), Fraction(psi)))
    if terms is None:
        terms = divided_ubern(m, n_ceiling=n_ceiling)._terms.items()
    return _lifted_rhs(terms, {p - 1: l}, corrections)


def verify_theorem_3_5(
    p: int,
    s: int,
    l: int,
    *,
    backend: str = "exact",
    n_ceiling: int = DEFAULT_N_CEILING,
    perturb: bool = False,
) -> CongruenceReport:
    """Check divided_ubern(n) against rhs_theorem_3_5 mod p**(N+1)."""
    N, m, n = _theorem_3_5_params(p, s, l)
    low, terms = _lifting_walks(p, n, m, N + 1, {p - 1: l}, backend, n_ceiling)
    rhs = rhs_theorem_3_5(p, s, l, n_ceiling=n_ceiling, terms=terms)
    context = {
        "theorem": "3.5",
        "p": p,
        "s": s,
        "l": l,
        "N": N,
        "m": m,
        "n": n,
        "backend": backend,
    }
    return _verify_against_ubern(
        n, rhs, p, N + 1, context, backend, n_ceiling, perturb=perturb, low=low
    )


# -- family 4.8 (p = 2, fixed shape) ------------------------------------

def _theorem_4_8_params(n: int) -> tuple[int, int]:
    if not isinstance(n, int) or n % 2:
        raise PreconditionError(f"n must be even, got {n!r}")
    if n < 12:
        raise PreconditionError(
            "n >= 12 required so every listed exponent is nonnegative"
        )
    v = vp_int(2, n)
    return v, (2 if v == 1 else 3)


def rhs_theorem_4_8(n: int) -> tuple[SparsePoly, int]:
    """Right-hand side and modulus exponent (2 or 4 and 8, i.e. k = 2 or 3).

    Case v(n) = 1 is read mod 4, case v(n) >= 2 mod 8.  Two mod-8
    coefficients are sensitive beyond the mod-4 picture and are pinned by
    exact arithmetic on the verification grid: the pure-power coefficient
    is 1/(2n) - 2 for v(n) = 2 but 1/(2n) + 2 for v(n) >= 3, and the
    c1^(n-4) c4 coefficient is -2 (it only looks like +2 mod 4).
    """
    v, k = _theorem_4_8_params(n)
    P = Partition
    if v == 1:
        terms = {
            P({1: n}): Fraction(-1, 2 * n),
            P({1: n - 3, 3: 1}): Fraction(n - 2, 2),
            P({1: n - 6, 3: 2}): Fraction(3 * (n - 4), 4),
            P({1: n - 2, 2: 1}): Fraction(-1),
            P({1: n - 5, 2: 1, 3: 1}): Fraction(2),
            P({1: n - 4, 4: 1}): Fraction(2),
        }
    else:
        head = Fraction(1, 2 * n) + (-2 if v == 2 else 2)
        terms = {
            P({1: n}): head,
            P({1: n - 3, 3: 1}): Fraction(-3 * (n - 2), 2),
            P({1: n - 6, 3: 2}): Fraction(n - 4, 4),
            P({1: n - 12, 3: 4}): Fraction(n - 8, 4),
            P({1: n - 2, 2: 1}): Fraction(-3),
            P({1: n - 4, 4: 1}): Fraction(-2),
            P({1: n - 4, 2: 2}): Fraction(4),
            P({1: n - 8, 2: 1, 3: 2}): Fraction(n - 4),
            P({1: n - 5, 2: 1, 3: 1}): Fraction(n - 4),
        }
    return SparsePoly(terms, weight_tag=n), k


def verify_theorem_4_8(
    n: int,
    *,
    backend: str = "exact",
    n_ceiling: int = DEFAULT_N_CEILING,
    perturb: bool = False,
) -> CongruenceReport:
    """Check divided_ubern(n) against rhs_theorem_4_8 mod 4 or mod 8.

    The difference is formed exactly, so the non-2-integral pure-power
    coefficients cancel; only the difference must clear the modulus.
    """
    v, k = _theorem_4_8_params(n)
    rhs, _ = rhs_theorem_4_8(n)
    context = {
        "theorem": "4.8",
        "n": n,
        "case": "i" if v == 1 else "ii",
        "v2_n": v,
        "backend": backend,
    }
    return _verify_against_ubern(
        n, rhs, 2, k, context, backend, n_ceiling, perturb=perturb
    )


# -- family 4.9 (p = 2, lifting along l = k * 2**N) ----------------------

def _theorem_4_9_params(m: int, k: int, N: int) -> tuple[int, int]:
    if N < 3:
        raise PreconditionError(f"N >= 3 required, got N={N}")
    if k < 1 or k % 2 == 0:
        raise PreconditionError(f"k must be a positive odd integer, got {k}")
    if m < 2 * N + 1:
        raise PreconditionError(f"m >= 2N+1 = {2 * N + 1} required, got m={m}")
    l = k * 2**N
    return l, m + l


def _theorem_4_9_correction(
    m: int, k: int, N: int
) -> list[tuple[dict[int, int], Fraction]]:
    """Correction terms added to c1^l * divided_ubern(m), keyed by m mod 8.

    Both coefficient groups of the odd-m case are summed; their monomial
    sets are disjoint, and the reading is pinned by the verification grid.
    """
    l, n = _theorem_4_9_params(m, k, N)
    half = Fraction(l, 2)
    quarter = Fraction(l, 4)
    whole = Fraction(l)
    if m % 2:
        sign = -1 if ((m + 1) // 2) % 2 else 1
        return [
            ({1: n}, -sign * half),
            ({1: n - 3, 3: 1}, sign * half),
            ({1: n - 6, 3: 2}, sign * half),
            ({1: n - 9, 3: 3}, sign * half),
            ({1: n - 12, 3: 4}, whole),
            ({1: n - 15, 3: 5}, whole),
            ({1: n - 5, 2: 1, 3: 1}, whole),
            ({1: n - 8, 2: 1, 3: 2}, whole),
            ({1: n - 7, 7: 1}, whole),
        ]
    if m % 4:
        theta = -half if N == 3 else half
        return [
            ({1: n}, whole + Fraction(l, 2 * m * n)),
            ({1: n - 3, 3: 1}, -half),
            ({1: n - 6, 3: 2}, 3 * quarter),
            ({1: n - 9, 3: 3}, whole),
            ({1: n - 12, 3: 4}, theta),
            ({1: n - 18, 3: 6}, whole),
            ({1: n - 5, 2: 1, 3: 1}, whole),
            ({1: n - 8, 2: 1, 3: 2}, whole),
        ]
    if m % 8:
        return [
            ({1: n}, whole - Fraction(l, 2 * m * n)),
            ({1: n - 3, 3: 1}, half),
            ({1: n - 6, 3: 2}, quarter),
            ({1: n - 12, 3: 4}, quarter),
            ({1: n - 5, 2: 1, 3: 1}, whole),
            ({1: n - 8, 2: 1, 3: 2}, whole),
        ]
    head = -(
        Fraction(double_factorial(2 * n - 3), 2 * n)
        - Fraction(double_factorial(2 * m - 3), 2 * m)
    )
    out = [
        ({1: n}, head),
        ({1: n - 3, 3: 1}, half),
        ({1: n - 6, 3: 2}, quarter),
        ({1: n - 12, 3: 4}, 5 * quarter),
        ({1: n - 5, 2: 1, 3: 1}, whole),
        ({1: n - 8, 2: 1, 3: 2}, whole),
    ]
    if m >= 16:
        # the c3^8 correction exists only from m = 16 on; at m = 8 the
        # matching coefficient already sits above the working modulus
        out.append(({1: n - 24, 3: 8}, whole))
    return out


def _rhs_theorem_4_9(
    m: int, k: int, N: int, *, n_ceiling: int, terms: Iterable | None = None
) -> SparsePoly:
    # every c1 exponent of a correction is >= 0 on the domain: m >= 2N+1 >= 7
    # and l >= 8, so n >= 15 (odd m), n >= 18 (m = 2 mod 4), n >= 24 (c3^8)
    l, _ = _theorem_4_9_params(m, k, N)
    corrections = [(Partition(exps), c) for exps, c in _theorem_4_9_correction(m, k, N)]
    if terms is None:
        terms = divided_ubern(m, n_ceiling=n_ceiling)._terms.items()
    return _lifted_rhs(terms, {1: l}, corrections)


def rhs_theorem_4_9(
    m: int, k: int, N: int, *, n_ceiling: int = DEFAULT_N_CEILING
) -> SparsePoly:
    """Right-hand side of family 4.9: c1^l * divided_ubern(m) plus the
    corrections of _theorem_4_9_correction."""
    return _rhs_theorem_4_9(m, k, N, n_ceiling=n_ceiling)


def verify_theorem_4_9(
    m: int,
    k: int,
    N: int,
    *,
    backend: str = "exact",
    n_ceiling: int = DEFAULT_N_CEILING,
    perturb: bool = False,
) -> CongruenceReport:
    """Check divided_ubern(m + k*2**N) against rhs_theorem_4_9 mod 2**(N+1)."""
    l, n = _theorem_4_9_params(m, k, N)
    low, terms = _lifting_walks(2, n, m, N + 1, {1: l}, backend, n_ceiling)
    rhs = _rhs_theorem_4_9(m, k, N, n_ceiling=n_ceiling, terms=terms)
    context = {
        "theorem": "4.9",
        "m": m,
        "k": k,
        "N": N,
        "l": l,
        "n": n,
        "case": ("i", "ii", "iii", "iv")[(0 if m % 2 else 1 if m % 4 else 2 if m % 8 else 3)],
        "backend": backend,
    }
    if m % 8 == 0 and m < 16:
        context["omitted_terms"] = [
            {"u": [[1, n - 24], [3, 8]], "why": "only present for m >= 16"}
        ]
    return _verify_against_ubern(
        n, rhs, 2, N + 1, context, backend, n_ceiling, perturb=perturb, low=low
    )


# -- classical check and valuation sweeps --------------------------------

def verify_classical_kummer(p: int, n: int, m: int) -> CongruenceReport:
    """B_n/n = B_m/m mod p for (p-1) not dividing n and n = m mod p-1."""
    _require_prime(p)
    for value, name in ((n, "n"), (m, "m")):
        if value < 1:
            raise PreconditionError(f"{name} must be positive")
        if value != 1 and value % 2:
            raise PreconditionError(f"{name} must be even or 1, got {value}")
    if n % (p - 1) == 0:
        raise PreconditionError(f"(p-1) must not divide n, got p={p}, n={n}")
    if (n - m) % (p - 1):
        raise PreconditionError(f"n = m mod (p-1) required, got n={n}, m={m}")
    a = classical_bernoulli(n) / n
    b = classical_bernoulli(m) / m
    v = vp(p, a - b)
    holds = v >= 1
    failures = []
    if not holds:
        failures.append(
            CongruenceFailure(Partition(), format_rational(a), format_rational(b), v)
        )
    context = {"check": "classical-kummer", "p": p, "n": n, "m": m}
    return CongruenceReport(holds, p, 1, context, failures)


def check_corollary_3_4(p: int, s: int, i: int) -> CongruenceReport:
    """v_p(tau(u)) >= s(p-2) - 1 for all u of weight (m+i)p - i, degree <= i+1."""
    _require_odd_prime(p)
    if s < 1 or i < 0:
        raise PreconditionError("need s >= 1 and i >= 0")
    m = s * (p - 1)
    n = (m + i) * p - i
    bound = s * (p - 2) - 1
    failures = []
    checked = 0
    vfact, gain = _valuation_tables(p, n)
    for u in enumerate_partitions_bounded(n, i + 1):
        checked += 1
        v = _runs_valuations(vfact, gain, u)[2]
        if v < bound:
            failures.append(CongruenceFailure(u, str(v), str(bound), v - bound))
    context = {
        "corollary": "3.4",
        "p": p,
        "s": s,
        "i": i,
        "n": n,
        "bound": bound,
        "degree_max": i + 1,
        "checked": checked,
    }
    return CongruenceReport(not failures, p, max(bound, 0), context, failures)
