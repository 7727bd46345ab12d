"""Right-hand sides and verifiers for the prime-power congruence families.

Three congruence families are implemented, identified by the rule ids
"3.5" (odd primes p, weight divisible by p-1), "4.8" (p = 2, a fixed
mod-4 / mod-8 shape) and "4.9" (p = 2, lifting along l = k * 2**N).
Each is one function that checks its parameters and returns one record,
_Case; one driver, _verify_case, checks every partition of the target
weight against any of them.  FAMILIES lists each family's parameters and
shipped grid.  Verdicts are carried by CongruenceReport, which serializes
to a stable JSON document.

Congruence of rationals mod p**k means v_p(lhs - rhs) >= k.  A
non-p-integral difference is a hard failure (recorded with its negative
valuation), never a silent skip.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Iterator, NamedTuple

from .bernoulli import (
    DEFAULT_N_CEILING,
    SparsePoly,
    _runs_valuations,
    _tau_prefixes,
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
from .errors import PreconditionError, _require_ceiling, _require_ints
from .padic import (
    _require_odd_prime,
    _require_prime,
    _unit_factorials,
    double_factorial,
    is_prime,
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
    "FAMILIES",
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
# each family's parameters, in the order its verify_theorem_* takes them
# (the CLI's flags), and its shipped grid (the CLI's sweep)
FAMILIES = {
    "3.5": (("p", "s", "l"), GRID_THEOREM_3_5),
    "4.8": (("n",), tuple((n,) for n in GRID_THEOREM_4_8)),
    "4.9": (("m", "k", "N"), GRID_THEOREM_4_9),
}


class CongruenceFailure(NamedTuple):
    """One offending monomial: both coefficients and v_p of their difference.

    For the corollary 3.4 valuation-bound check lhs holds the observed
    value, rhs the required bound, and vp_diff the margin.
    """

    u: Partition
    lhs: str
    rhs: str
    vp_diff: int

    # the field order is the JSON key order
    def to_json(self) -> dict:
        return {**self._asdict(), "u": self.u.to_pairs()}


class CongruenceReport(NamedTuple):
    """Verdict of a mod-p**k polynomial congruence with failure evidence."""

    holds: bool
    prime: int
    mod_exp: int
    context: dict
    failures: list[CongruenceFailure]

    # the field order is the JSON key order
    def to_json(self) -> dict:
        return {**self._asdict(), "failures": [f.to_json() for f in self.failures]}


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
    _require_prime(p)
    _require_ints(1, k=k)
    return _congruence_report(A._terms, B, p, k, context or {})


def _congruence_report(
    lhs: dict[Partition, Fraction], B: SparsePoly, p: int, k: int, context: dict
) -> CongruenceReport:
    """Check the left-hand side lhs, u -> coefficient, against B mod p**k.

    The one congruence test: _verify_case feeds it a backend's left-hand
    side (_lhs), the monomials that can fail, and poly_congruent a
    materialized polynomial.  One loop runs over the union of both key
    sets, a side with no term at u reading 0 there.  For a rational in
    lowest terms and k >= 1, v_p >= k holds exactly when p**k divides the
    numerator (a zero difference included), so each key costs one integer
    test, _nonzero_mod, of the difference.  vp is computed for the
    failures alone, and only the failure list is put in canonical order.
    p is prime and k >= 1: the caller checked both.
    """
    modulus = p**k
    b_terms = B._terms
    zero = Fraction(0)
    failures = []
    for u in lhs.keys() | b_terms.keys():
        a = lhs.get(u, zero)
        b = b_terms.get(u, zero)
        diff = a - b
        if _nonzero_mod(diff.numerator, diff.denominator, modulus):
            failures.append(
                CongruenceFailure(u, format_rational(a), format_rational(b), vp(p, diff))
            )
    failures.sort(key=lambda f: f.u.sort_key())
    return CongruenceReport(not failures, p, k, context, failures)


def _nonzero_mod(num: int, den: int, modulus: int) -> bool:
    """num/den != 0 mod modulus = p**k, k >= 1, den > 0: the integer
    congruence test.  In lowest terms num/den has numerator num/g, g =
    gcd(num, den), and p**k divides it exactly when p**k g divides num
    (num = 0: g = den).  num is reduced mod p**k den first, so the gcd is
    taken of numbers no larger than p**k den: p**k g divides p**k den, so
    x = num mod p**k den is num mod p**k g, and gcd(x, den) = g."""
    x = num % (modulus * den)
    return x % (modulus * gcd(x, den)) != 0


def _subtree_clearing(n: int) -> list[list[int]]:
    """columns[c][r] = L(r, c), the lcm of prod (i+1)**v_i over the
    partitions v of r into parts <= c, which stands for a whole subtree of
    _exact_sweep's walk in its screen, for c < max(n, 3) and the rows the
    walk reads: every r <= n at c <= 2 (the tail screens read column 2),
    r <= n - c - 1 at c >= 3 (what a child of part c + 1 leaves).

    L(r, c) = prod q**(r // (q-1)) over the primes q <= c+1.  The lcm has
    the largest v_q of the products.  As i+1 >= q**e >= 1 + e(q-1) for e =
    v_q(i+1), v_q(prod (i+1)**v_i) <= sum v_i i/(q-1) = r/(q-1), and only
    primes q <= c+1 divide an i+1; r // (q-1) parts q-1, then 1s, reach
    the bound.  So column c is column c-1 times q**(r // (q-1)) where c+1 =
    q is prime, else the list of column c-1; q > r+1 leaves entry r alone.
    The padic walk codes the same bound as bernoulli._gain_ceiling; the
    independent oracle does not call it, so that one wrong bound cannot
    pass both backends, and the tests tie the two codings.
    """
    columns = [[1] * (n + 1)]  # c = 0: the empty product
    for q in range(2, max(n, 3) + 1):
        column = columns[-1]
        if is_prime(q):
            rows = n + 1 if q <= 3 else n - q + 1
            column = [x * q ** (r // (q - 1)) for r, x in enumerate(column[:rows])]
        columns.append(column)
    return columns


def _exact_sweep(p: int, n: int, k: int) -> Iterator[tuple[Partition, tuple[int, int]]]:
    """(u, (num, den)) with tau(u) = num/den for each partition u of n with
    tau(u) != 0 mod p**k, in enumerate_partitions order: the exact
    backend's sweep.

    The independent oracle: every partition is settled by big-integer
    remainders of tau(u) = (-1)**(d-1) (n+d-2)!/gamma(u); no valuation is
    computed.  It is one loop over bernoulli._tau_prefixes with this
    screen, and over the tails 2**j 1**(r-2j) of each prefix it keeps.

    The screen, one remainder per node: a node has a prefix of gamma G and
    degree D, parts > c, and leaves weight r to parts <= c.  Each u below
    it is the prefix plus some v of r, so with F = (n+D-2)! and L(r, c)
    from _subtree_clearing, tau(u)/p**k = +-[F / (p**k G L)] [P / prod
    v_i!] [L / prod (i+1)**v_i], P a product of deg v consecutive
    integers: prod v_i! divides (deg v)!, which divides P, and all three
    factors are integers when p**k G L(r, c) divides F.  Then every
    tau(u) below the node is 0 mod p**k and the walk skips the whole
    subtree.  The walk asks it of each child, at c = part - 1, and of each
    node's tail block, at c = 2, leaves included; it is never asked of the
    whole root (L(n, n) holds 2**n, which (n-2)! lacks), nor of the root
    at n <= 2, where it would read fact[n - 2].  A leaf's tail screen
    repeats the verdict of its child screen: a leaf was pushed at part 3,
    so at c = 2 already, or with r <= 2, where L(r, c) = 2**r 3**(r // 2)
    = L(r, 2) for every c >= 2.

    The screen is only sufficient, so each tail of a block it keeps goes to
    the congruence test, _nonzero_mod, and the yields are that test's
    alone: gamma(u) = G * run[2][j] * run[1][r-2j].  A Partition is built
    only for a yielded term.  den = gamma(u), not reduced.
    """
    modulus = p**k
    fact, run = _tau_tables(n)
    ones, twos = run[1], run[2]
    clearing = _subtree_clearing(n)

    def clears(r, c, gamma, degree):
        return not fact[n + degree - 2] % (modulus * gamma * clearing[c][r])

    for runs, r in _tau_prefixes(n, run, clears):
        _, _, gamma, degree = runs[-1]
        d = degree + r  # the degree of u at j = 0, one less per 2
        top = n + d - 2
        for j in range(r // 2, -1, -1):
            num = fact[top - j]
            den = gamma * (twos[j] * ones[r - 2 * j])
            if _nonzero_mod(num, den, modulus):
                pairs = tuple((part, mult) for part, mult, _, _ in reversed(runs[1:]))
                head = tuple(pm for pm in ((1, r - 2 * j), (2, j)) if pm[1])
                yield Partition._raw(head + pairs), ((num if (d - j) % 2 else -num), den)


def _sweep(backend: str, p: int, n: int, k: int, n_ceiling: int) -> dict:
    """The backend's sweep at weight n, the u that can fail mod p**k: u ->
    (num, den) of tau(u) on "exact" (_exact_sweep), u -> v_p(tau(u)) on
    "padic" (tau_valuations_below).  The one place that checks the backend
    name and the ceiling, before any sweep runs; the sweeps are looked up
    as module globals at call time.
    """
    if backend not in ("exact", "padic"):
        raise PreconditionError(f"unknown backend {backend!r}")
    _require_ceiling(n_ceiling, n=n)
    return dict((_exact_sweep if backend == "exact" else tau_valuations_below)(p, n, k))


def _lhs(
    backend: str, p: int, n: int, k: int, low: dict, rhs: SparsePoly
) -> dict[Partition, Fraction]:
    """The left-hand side u -> coefficient of divided_ubern(n) that the
    congruence test needs against rhs mod p**k: the u of the backend's
    sweep low at n (_sweep, which checked backend and n) and the keys of
    rhs of weight n that low skips, each once, so only a key of another
    weight reads 0 there and a failure at a right-hand key shows its tau(u).

    "exact", the independent oracle, takes tau(u) from its sweep's (num,
    den) and tau itself for a skipped key.  "padic" reads p**v times the
    unit residue of tau(u) mod p**(k - vmin), vmin <= 0 the least
    valuation of a named tau(u) (the walk has every negative one, as k >=
    1).  As v >= vmin, the value is tau(u) mod p**(k + max(0, v)) at
    least, whatever the right-hand side: verdicts and vp_diff below k are
    exact.  The unit residues share one unit-factorial table up to 2n - 2.
    """
    skipped = [u for u in rhs.keys() if u.weight == n and u not in low]
    if backend == "exact":
        lhs = {u: Fraction(num, den) for u, (num, den) in low.items()}
        lhs.update((u, tau(u)) for u in skipped)
        return lhs
    valuations = {**low, **{u: tau_valuation(p, u) for u in skipped}}
    vmin = min([0, *valuations.values()])
    precision = k - vmin
    m = p**precision
    ufact = _unit_factorials(p, 2 * n - 2, precision)
    lhs = {}
    for u, v in valuations.items():
        unit = _tau_unit(p, u, ufact, m)
        lhs[u] = Fraction(unit * p**v) if v >= 0 else Fraction(unit, p**-v)
    return lhs


class _Case(NamedTuple):
    """One case of a family: divided_ubern(n) = c^shift divided_ubern(m) +
    corrections mod p**k, shift {part: mult} (c_(p-1)**l for 3.5, c_1**l
    for 4.9).  4.8 has no m-part (m and shift None): its listed terms are
    its corrections.  A correction is a pair ({part: mult}, Fraction), made
    a Partition only by _lifted_rhs, so a verifier, which builds its record
    and then its right-hand side, builds each monomial once.  context is
    the report's; the driver adds the backend at its end, or where a
    "backend" key is.
    """

    p: int
    n: int
    k: int
    m: int | None
    shift: dict[int, int] | None
    corrections: list[tuple[dict[int, int], Fraction]]
    context: dict


def _verify_case(
    case: _Case, build: Callable, backend: str, n_ceiling: int, perturb: bool
) -> CongruenceReport:
    """Check divided_ubern(n) against the right-hand side of case on one
    backend: the one verifier of the three families.

    The backend's sweep at n runs first (_sweep), so backend and n are
    checked before any sweep.  A lifting case hands build the m-part terms
    (b, tau(b)) of c^shift divided_ubern(m) that can matter: its sweep at
    m, c_m (its shift is the first shifted key: --perturb) and each b whose
    shift the sweep at n names, so a failure there shows the full
    right-hand side.  Any other key c^shift b has tau(b) = tau(c^shift b) =
    0 mod p**k and no term names it.  4.8 hands build None.  Each verifier
    passes a build that calls its builder by module name, so a replaced
    attribute (a tracer's span) is the one called.  --perturb moves the
    built right-hand side; the backend's left-hand side (_lhs) then meets
    it in the one congruence test.
    """
    p, n, k, m, shift, _, context = case
    low = _sweep(backend, p, n, k, n_ceiling)
    terms = None
    if shift is not None:
        [(part, mult)] = shift.items()
        bases = {Partition({m: 1}), *_sweep(backend, p, m, k, n_ceiling)}
        bases.update(u.merged({part: -mult}) for u in low if u.multiplicity(part) >= mult)
        terms = [(b, tau(b)) for b in bases]
    rhs = build(terms)
    context = {**context, "backend": backend}
    if perturb:
        # mutation self-test: +1 on the first coefficient in canonical order
        rhs = rhs.add_term(rhs.items()[0][0], 1)
        context["perturbed"] = True
    return _congruence_report(_lhs(backend, p, n, k, low, rhs), rhs, p, k, context)


def _lifted_rhs(
    case: _Case, terms: Iterable | None = None, n_ceiling: int = DEFAULT_N_CEILING
) -> SparsePoly:
    """The right-hand side of case: c^shift times the m-part terms (b,
    tau(b)), by default all of divided_ubern(m), plus the corrections,
    summed in one dict that SparsePoly rids of its zeros.  A correction key
    c^shift b whose b the terms skip gets tau(b) too: every key is full.
    4.8 (no shift) is its corrections alone.
    """
    corrections = [(Partition(exps), c) for exps, c in case.corrections]
    if case.shift is None:
        return SparsePoly(dict(corrections))
    if terms is None:
        terms = divided_ubern(case.m, n_ceiling=n_ceiling)._terms.items()
    rhs = {b.merged(case.shift): c for b, c in terms}
    [(part, mult)] = case.shift.items()
    for u, c in corrections:
        if u not in rhs and u.multiplicity(part) >= mult:
            c += tau(u.merged({part: -mult}))
        rhs[u] = rhs.get(u, 0) + c
    return SparsePoly(rhs)


# -- family 3.5 (odd primes) -------------------------------------------

def tau_pure(p: int, w: int) -> Fraction:
    """tau of the pure partition with all w/(p-1) parts equal to p-1."""
    _require_prime(p)
    _require_ints(1, w=w)
    if w % (p - 1):
        raise PreconditionError(f"w must be a multiple of p-1, got {w}")
    return tau(Partition({p - 1: w // (p - 1)}))


def _case_3_5(p: int, s: int, l: int) -> _Case:
    """Family 3.5 at (p, s, l): weight n = (s+l)(p-1) lifts along
    c_(p-1)**l from m = s(p-1), mod p**(N+1), N = v_p(l).

    The correction coefficient is the exact rational difference
    tau_pure(n) - tau_pure(m): each summand alone is not p-integral, only
    the difference is constrained by the congruence.  For p = 3 the extra
    c2^(l+s-4) c8 term carries 0, +l or -l according to s mod 3, read off
    the grid, where 3 | l.  It is wrong when 3 does not divide l: verify
    fails at c8 for (3, 2, 2), a strict xfail in the tests.
    """
    _require_odd_prime(p)
    _require_ints(1, s=s, l=l)
    N = vp_int(p, l)
    need = -(-(N + 2) // (p - 2))
    if s < need:
        raise PreconditionError(f"s >= ceil((N+2)/(p-2)) = {need} required, got s={s} (N={N})")
    m = s * (p - 1)
    n = m + l * (p - 1)
    corrections = [({p - 1: l + s}, tau_pure(p, n) - tau_pure(p, m))]
    if p == 3 and l + s >= 4 and s % 3 != 1:
        # the signs are pinned by exact arithmetic on the grid, where 3 | l
        # (at s = 3 the whole coefficient is psi, and it equals +l, not -l)
        psi = l if s % 3 == 0 else -l
        corrections.append(({2: l + s - 4, 8: 1}, Fraction(psi)))
    context = {"theorem": "3.5", "p": p, "s": s, "l": l, "N": N, "m": m, "n": n}
    return _Case(p, n, N + 1, m, {p - 1: l}, corrections, context)


def rhs_theorem_3_5(
    p: int, s: int, l: int, *, n_ceiling: int = DEFAULT_N_CEILING, terms: Iterable | None = None
) -> SparsePoly:
    """Right-hand side of family 3.5 (_case_3_5); terms: the m-part
    (_lifted_rhs), by default all of divided_ubern(m)."""
    return _lifted_rhs(_case_3_5(p, s, l), terms, n_ceiling)


def verify_theorem_3_5(
    p: int, s: int, l: int, *, backend: str = "exact", n_ceiling: int = DEFAULT_N_CEILING,
    perturb: bool = False,
) -> CongruenceReport:
    """Check divided_ubern(n) against rhs_theorem_3_5 mod p**(N+1)."""
    return _verify_case(
        _case_3_5(p, s, l), lambda terms: rhs_theorem_3_5(p, s, l, terms=terms),
        backend, n_ceiling, perturb,
    )


# -- family 4.8 (p = 2, fixed shape) ------------------------------------

def _case_4_8(n: int) -> _Case:
    """Family 4.8 at n: no m-part, read mod 4 (k = 2) for v(n) = 1 and mod
    8 (k = 3) for v(n) >= 2.

    Two mod-8 coefficients are sensitive beyond the mod-4 picture and are
    pinned by exact arithmetic on the verification grid: the pure-power
    coefficient is 1/(2n) - 2 for v(n) = 2 but 1/(2n) + 2 for v(n) >= 3,
    and the c1^(n-4) c4 coefficient is -2 (it only looks like +2 mod 4).
    """
    _require_ints(n=n)
    if n % 2:
        raise PreconditionError(f"n must be even, got {n}")
    _require_ints(12, n=n)  # so every listed exponent is nonnegative
    v = vp_int(2, n)
    if v == 1:
        terms = [
            ({1: n}, Fraction(-1, 2 * n)),
            ({1: n - 3, 3: 1}, Fraction(n - 2, 2)),
            ({1: n - 6, 3: 2}, Fraction(3 * (n - 4), 4)),
            ({1: n - 2, 2: 1}, Fraction(-1)),
            ({1: n - 5, 2: 1, 3: 1}, Fraction(2)),
            ({1: n - 4, 4: 1}, Fraction(2)),
        ]
    else:
        terms = [
            ({1: n}, Fraction(1, 2 * n) + (-2 if v == 2 else 2)),
            ({1: n - 3, 3: 1}, Fraction(-3 * (n - 2), 2)),
            ({1: n - 6, 3: 2}, Fraction(n - 4, 4)),
            ({1: n - 12, 3: 4}, Fraction(n - 8, 4)),
            ({1: n - 2, 2: 1}, Fraction(-3)),
            ({1: n - 4, 4: 1}, Fraction(-2)),
            ({1: n - 4, 2: 2}, Fraction(4)),
            ({1: n - 8, 2: 1, 3: 2}, Fraction(n - 4)),
            ({1: n - 5, 2: 1, 3: 1}, Fraction(n - 4)),
        ]
    context = {"theorem": "4.8", "n": n, "case": "i" if v == 1 else "ii", "v2_n": v}
    return _Case(2, n, 2 if v == 1 else 3, None, None, terms, context)


def rhs_theorem_4_8(n: int) -> tuple[SparsePoly, int]:
    """Right-hand side and modulus exponent k = 2 or 3 of family 4.8
    (_case_4_8)."""
    case = _case_4_8(n)
    return _lifted_rhs(case), case.k


def verify_theorem_4_8(
    n: int, *, backend: str = "exact", n_ceiling: int = DEFAULT_N_CEILING, perturb: bool = False
) -> CongruenceReport:
    """Check divided_ubern(n) against rhs_theorem_4_8 mod 4 or mod 8.

    The difference is formed exactly, so the non-2-integral pure-power
    coefficients cancel; only the difference must clear the modulus.
    """
    return _verify_case(
        _case_4_8(n), lambda terms: rhs_theorem_4_8(n)[0], backend, n_ceiling, perturb
    )


# -- family 4.9 (p = 2, lifting along l = k * 2**N) ----------------------

def _case_4_9(m: int, k: int, N: int) -> _Case:
    """Family 4.9 at (m, k, N): weight n = m + l lifts along c_1**l, l = k
    2**N, mod 2**(N+1), with corrections keyed by m mod 8.

    Both coefficient groups of the odd-m case are summed; their monomial
    sets are disjoint, and the reading is pinned by the verification grid.
    Every c1 exponent of a correction is >= 0 on the domain: m >= 2N+1 >= 7
    and l >= 8, so n >= 15 (odd m), n >= 18 (m = 2 mod 4), n >= 24 (c3^8).
    """
    _require_ints(m=m)
    _require_ints(1, k=k)
    _require_ints(3, N=N)
    if k % 2 == 0:
        raise PreconditionError(f"k must be odd, got {k}")
    if m < 2 * N + 1:
        raise PreconditionError(f"m >= 2N+1 = {2 * N + 1} required, got m={m}")
    l = k * 2**N
    n = m + l
    half = Fraction(l, 2)
    quarter = Fraction(l, 4)
    whole = Fraction(l)
    if m % 2:
        sign = -1 if ((m + 1) // 2) % 2 else 1
        terms = [
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
    elif m % 4:
        theta = -half if N == 3 else half
        terms = [
            ({1: n}, whole + Fraction(l, 2 * m * n)),
            ({1: n - 3, 3: 1}, -half),
            ({1: n - 6, 3: 2}, 3 * quarter),
            ({1: n - 9, 3: 3}, whole),
            ({1: n - 12, 3: 4}, theta),
            ({1: n - 18, 3: 6}, whole),
            ({1: n - 5, 2: 1, 3: 1}, whole),
            ({1: n - 8, 2: 1, 3: 2}, whole),
        ]
    elif m % 8:
        terms = [
            ({1: n}, whole - Fraction(l, 2 * m * n)),
            ({1: n - 3, 3: 1}, half),
            ({1: n - 6, 3: 2}, quarter),
            ({1: n - 12, 3: 4}, quarter),
            ({1: n - 5, 2: 1, 3: 1}, whole),
            ({1: n - 8, 2: 1, 3: 2}, whole),
        ]
    else:
        head = -(
            Fraction(double_factorial(2 * n - 3), 2 * n)
            - Fraction(double_factorial(2 * m - 3), 2 * m)
        )
        terms = [
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
            terms.append(({1: n - 24, 3: 8}, whole))
    case = ("i", "ii", "iii", "iv")[(0 if m % 2 else 1 if m % 4 else 2 if m % 8 else 3)]
    # the driver sets the backend, which comes before the note
    context = {"theorem": "4.9", "m": m, "k": k, "N": N, "l": l, "n": n, "case": case,
               "backend": None}
    if m % 8 == 0 and m < 16:
        context["omitted_terms"] = [
            {"u": [[1, n - 24], [3, 8]], "why": "only present for m >= 16"}
        ]
    return _Case(2, n, N + 1, m, {1: l}, terms, context)


def rhs_theorem_4_9(
    m: int, k: int, N: int, *, n_ceiling: int = DEFAULT_N_CEILING, terms: Iterable | None = None
) -> SparsePoly:
    """Right-hand side of family 4.9 (_case_4_9): c1^l times the m-part
    terms (_lifted_rhs), by default all of divided_ubern(m), plus the
    corrections."""
    return _lifted_rhs(_case_4_9(m, k, N), terms, n_ceiling)


_rhs_theorem_4_9 = rhs_theorem_4_9  # verify_theorem_4_9 calls it: perfbench/tracer.py wraps it


def verify_theorem_4_9(
    m: int, k: int, N: int, *, backend: str = "exact", n_ceiling: int = DEFAULT_N_CEILING,
    perturb: bool = False,
) -> CongruenceReport:
    """Check divided_ubern(m + k*2**N) against rhs_theorem_4_9 mod 2**(N+1)."""
    return _verify_case(
        _case_4_9(m, k, N), lambda terms: _rhs_theorem_4_9(m, k, N, terms=terms),
        backend, n_ceiling, perturb,
    )


# -- classical check and valuation sweeps --------------------------------

def verify_classical_kummer(p: int, n: int, m: int) -> CongruenceReport:
    """B_n/n = B_m/m mod p for (p-1) not dividing n and n = m mod p-1."""
    _require_prime(p)
    _require_ints(1, n=n, m=m)
    for value, name in ((n, "n"), (m, "m")):
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
    _require_ints(1, s=s)
    _require_ints(0, i=i)
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
