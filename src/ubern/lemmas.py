"""Sweep harnesses for the supporting valuation and congruence identities.

Each harness exhaustively checks one identity family over a finite grid
(the default grids match the shipped verification plan) and reports the
instance count plus any counterexamples.  All arithmetic is exact; the
factorial identities are checked against literal big-integer factorials,
never against the digit-sum shortcuts they are meant to justify.

Identity ids mirror the verifier rule ids ("2.1" .. "2.6", "3.2",
"4.1" .. "4.7") and are the names the CLI lemma command accepts.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, NamedTuple

from .bernoulli import _runs_valuations, _valuation_tables, tau_valuation
from .errors import PreconditionError, _require_ceiling, _require_ints
from .padic import (
    _vp,
    _vp_factorial,
    double_factorial,
    f_sum,
    f_term,
    g_func,
    vp_int,
)
from .partitions import (
    _is_reduced,
    _reduce_partition,
    enumerate_partitions,
    enumerate_partitions_bounded,
)

__all__ = ["LemmaSweepResult", "SWEEPS", "run_sweep"]

_SEED = 91724

# largest n_max of lemmas 4.1 and 4.2, where it is the exponent N of
# k 2**N: 4.2 takes about 0.8 s at N = 10, and each step up about triples
# the cost of both (4.1 at N = 16 had not finished after 110 s)
_EXPONENT_MAX = 10


class LemmaSweepResult(NamedTuple):
    """Outcome of one identity sweep."""

    lemma: str
    checked: int
    failures: list[dict]
    # None for a sweep with no per-part counts; no dict is shared
    detail: dict[str, int] | None = None

    @property
    def holds(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "lemma": self.lemma,
            "holds": self.holds,
            "checked": self.checked,
            "detail": self.detail or {},
            "failures": self.failures,
        }


def _brute_factorial_vp(p: int, a: int) -> int:
    # independent oracle: sum of floor(a / p**i)
    total = 0
    q = a // p
    while q:
        total += q
        q //= p
    return total


def lemma_2_1(l_max: int = 2000, a_max: int = 2000) -> LemmaSweepResult:
    """Factorial valuation basics: superadditivity, the p-shift identity,
    the digit-sum formula against brute Legendre sums, and the linear bound."""
    failures: list[dict] = []
    detail = {"products": 0, "shift": 0, "digit-sum": 0, "bound": 0}
    rng = random.Random(_SEED)
    primes = (2, 3, 5)
    for _ in range(500):
        p = primes[rng.randrange(3)]
        a = rng.randrange(0, a_max + 1)
        b = rng.randrange(0, a_max + 1)
        detail["products"] += 1
        if _vp_factorial(p, a * b) < _vp_factorial(p, a) + _vp_factorial(p, b):
            failures.append({"part": "products", "p": p, "a": a, "b": b})
    for p in primes:
        for l in range(l_max + 1):
            detail["shift"] += 1
            base = _vp_factorial(p, l)
            if _vp_factorial(p, l * p) != l + base:
                failures.append({"part": "shift", "p": p, "l": l, "t": 1})
            for t in (2, 3):
                if _vp_factorial(p, l * p**t) != l * (p**t - 1) // (p - 1) + base:
                    failures.append({"part": "shift", "p": p, "l": l, "t": t})
        for a in range(a_max + 1):
            detail["digit-sum"] += 1
            v = _vp_factorial(p, a)
            if v != _brute_factorial_vp(p, a) or v != _vp_factorial(p, (a // p) * p):
                failures.append({"part": "digit-sum", "p": p, "a": a})
            if a >= 1:
                detail["bound"] += 1
                if v * (p - 1) > a - 1:
                    failures.append({"part": "bound", "p": p, "a": a})
    return LemmaSweepResult("2.1", sum(detail.values()), failures, detail)


def lemma_2_2(l_max: int = 500) -> LemmaSweepResult:
    """(lp)! / (l! p**l) = (-1)**l mod p**(v(l)+1), odd p, by exact division."""
    failures: list[dict] = []
    checked = 0
    for p in (3, 5, 7):
        value = 1  # (lp)! / (l! p**l), advanced by exact division
        for l in range(1, l_max + 1):
            for j in range(p * (l - 1) + 1, p * l + 1):
                value *= j
            value, rem = divmod(value, l * p)
            checked += 1
            modulus = p ** (vp_int(p, l) + 1)
            sign = -1 if l % 2 else 1
            if rem or (value - sign) % modulus:
                failures.append({"p": p, "l": l})
    return LemmaSweepResult("2.2", checked, failures)


def lemma_2_4(a_max: int = 200) -> LemmaSweepResult:
    """v(a!) >= v(a+k) for 0 < k <= p, except a = p-k where it is one less."""
    failures: list[dict] = []
    checked = 0
    for p in (3, 5, 7):
        for k in range(1, p + 1):
            for a in range(a_max + 1):
                checked += 1
                va = _vp_factorial(p, a)
                vk = vp_int(p, a + k)
                ok = va == vk - 1 if a == p - k else va >= vk
                if not ok:
                    failures.append({"p": p, "k": k, "a": a})
    return LemmaSweepResult("2.4", checked, failures)


def lemma_2_5(trials: int = 400) -> LemmaSweepResult:
    """v((sum h_j p**j)!) >= sum(j h_j + v(h_j!)) on random digit vectors."""
    failures: list[dict] = []
    rng = random.Random(_SEED)
    checked = 0
    for p in (3, 5):
        for _ in range(trials):
            digits = [rng.randrange(0, 13) for _ in range(rng.randrange(1, 6))]
            total = sum(h * p**j for j, h in enumerate(digits))
            bound = sum(j * h + _vp_factorial(p, h) for j, h in enumerate(digits))
            checked += 1
            if _vp_factorial(p, total) < bound:
                failures.append({"p": p, "digits": digits})
    return LemmaSweepResult("2.5", checked, failures)


def lemma_2_6(q_max: int = 6, e_max: int = 2) -> LemmaSweepResult:
    """Factorial-quotient lifting congruences for odd p.

    All four parts are read with the quotients balanced, i.e. both sides
    are of the shape (...)! / ((...)! p**(...)); the grid exercises the
    readings and fails loudly if either is wrong.
    """
    failures: list[dict] = []
    detail = {"i": 0, "ii": 0, "iii": 0, "iv": 0}
    for p in (3, 5):
        a_max = 3 * p
        top = (p * p + q_max) * p + a_max
        fact = [1] * (top + 1)
        for i in range(1, top + 1):
            fact[i] = fact[i - 1] * i
        for l in (p, 2 * p, p * p):
            N = vp_int(p, l)
            modulus = p ** (N + 1)
            sign = -1 if l % 2 else 1
            for q in range(q_max + 1):
                lhs_base = fact[(l + q) * p] // (fact[l + q] * p ** (l + q))
                rhs_base = fact[q * p] // (fact[q] * p**q)
                detail["i"] += 1
                if (lhs_base - sign * rhs_base) % modulus:
                    failures.append({"part": "i", "p": p, "l": l, "q": q})
                for a in range(a_max + 1):
                    lhs = fact[(l + q) * p + a] // (fact[l + q] * p ** (l + q))
                    rhs = fact[q * p + a] // (fact[q] * p**q)
                    delta = lhs - sign * rhs
                    detail["ii"] += 1
                    if delta % modulus:
                        failures.append({"part": "ii", "p": p, "l": l, "q": q, "a": a})
                    for e in range(1, e_max + 1):
                        if a >= e * p:
                            detail["iii"] += 1
                            if delta % modulus:
                                failures.append(
                                    {"part": "iii", "p": p, "l": l, "q": q, "a": a, "e": e}
                                )
                        if a >= (e + 1) * p:
                            detail["iv"] += 1
                            if delta % (modulus * p**e):
                                failures.append(
                                    {"part": "iv", "p": p, "l": l, "q": q, "a": a, "e": e}
                                )
    return LemmaSweepResult("2.6", sum(detail.values()), failures, detail)


def lemma_3_2(s_max: int = 3, i_max: int = 4) -> LemmaSweepResult:
    """The reduction transform never increases the coefficient valuation.

    For weights n = (s(p-1)+i)p - i and inputs of degree <= i+1, the
    reduced image keeps the weight, stays within the degree budget, and
    v_p(tau) does not drop below the image's valuation.
    """
    failures: list[dict] = []
    checked = 0
    for p in (3, 5):
        # n grows with s and i, so one table serves every weight of p
        vfact, gain = _valuation_tables(p, (s_max * (p - 1) + i_max) * p - i_max)
        # (is_reduced, weight, degree, tau_valuation) per reduced image, read
        # from the per-partition formulas: many inputs share one image
        images = {}
        for s in range(1, s_max + 1):
            for i in range(i_max + 1):
                m = s * (p - 1)
                n = (m + i) * p - i
                for u in enumerate_partitions_bounded(n, i + 1):
                    checked += 1
                    r = _reduce_partition(p, u)
                    known = images.get(r)
                    if known is None:
                        known = images[r] = (
                            _is_reduced(p, r), r.weight, r.degree, tau_valuation(p, r)
                        )
                    ok = (
                        known[0]
                        and known[1] == n
                        and known[2] <= i + 1
                        and _runs_valuations(vfact, gain, u)[2] >= known[3]
                    )
                    if not ok:
                        failures.append(
                            {"p": p, "s": s, "i": i, "u": u.to_pairs(), "r": r.to_pairs()}
                        )
    return LemmaSweepResult("3.2", checked, failures)


def lemma_4_1(k_max: int | None = None, n_max: int = 8) -> LemmaSweepResult:
    """Double-factorial signs: (2k-1)!! mod 4, (4k-3)!! mod 16, and
    (k 2**N - 3)!! = -1 mod 2**(N+1) for N >= 3."""
    _require_ceiling(_EXPONENT_MAX, n_max=n_max)
    failures: list[dict] = []
    detail = {"i": 0, "ii": 0, "iii": 0}
    k1 = k_max if k_max is not None else 399
    k2 = k_max if k_max is not None else 200
    df = 1
    for k in range(1, k1 + 1, 2):
        df = df * (2 * k - 3) * (2 * k - 1) if k > 1 else 1
        detail["i"] += 1
        sign = -1 if ((k - 1) // 2) % 2 else 1
        if (df - sign) % 4:
            failures.append({"part": "i", "k": k})
    for k in range(1, k2 + 1):
        detail["ii"] += 1
        sign = -1 if (k - 1) % 2 else 1
        if (double_factorial(4 * k - 3) - sign) % 16:
            failures.append({"part": "ii", "k": k})
    for N in range(3, n_max + 1):
        for k in range(1, 10):
            detail["iii"] += 1
            if (double_factorial(k * 2**N - 3) + 1) % 2 ** (N + 1):
                failures.append({"part": "iii", "k": k, "N": N})
    return LemmaSweepResult("4.1", sum(detail.values()), failures, detail)


def lemma_4_2(k_max: int = 9, a_max: int = 30, n_max: int = 8) -> LemmaSweepResult:
    """Shifted double-factorial congruences along k 2**N."""
    _require_ceiling(_EXPONENT_MAX, n_max=n_max)
    failures: list[dict] = []
    detail = {"i": 0, "ii": 0, "iii": 0}
    for N in range(3, n_max + 1):
        for k in range(1, k_max + 1):
            base = k * 2**N
            w = double_factorial(base - 3)
            # the three products at a = 2; each later a multiplies one more
            # odd factor into each
            ratio = 1  # (base+3)(base+5)...(base+2a-3)
            dfa = 1  # (2a-3)!!
            big = w * (base - 1) * (base + 1)  # (base+2a-3)!!
            for a in range(2, a_max + 1):
                if a > 2:
                    ratio *= base + 2 * a - 3
                    dfa *= 2 * a - 3
                    big *= base + 2 * a - 3
                detail["i"] += 1
                detail["ii"] += 1
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
                exponent = (k - 1) // 2 if N == 3 else (k + 1) // 2
                sign = -1 if exponent % 2 else 1
                ok = (w + 1 - sign * 2 ** (N + 1)) % 2 ** (N + 3) == 0
                ok = ok and (w + 1 - 2 ** (N + 1)) % 2 ** (N + 2) == 0
                if not ok:
                    failures.append({"part": "iii", "k": k, "N": N})
    return LemmaSweepResult("4.2", sum(detail.values()), failures, detail)


def lemma_4_3(a_max: int = 50, i_max: int = 10) -> LemmaSweepResult:
    """2-adic bound on the sum of (a+1)...(a+2i)/(a+j), plus the per-term
    spot checks for large i.  p = 2 is prime, so valuations take the
    unchecked _vp."""
    failures: list[dict] = []
    detail = {"sum": 0, "term": 0}
    for a in range(a_max + 1):
        for i in range(1, i_max + 1):
            detail["sum"] += 1
            bound = i - 1 if i <= 3 else i
            if _vp(2, f_sum(a, i)) < bound:
                failures.append({"part": "sum", "a": a, "i": i})
    for i in (6, 8, 10):
        if i > i_max:
            continue
        for a in range(11):
            for j in range(1, 2 * i + 1):
                detail["term"] += 1
                bound = i + 3 if i >= 8 else i + 1
                if _vp(2, f_term(a, i, j)) < bound:
                    failures.append({"part": "term", "a": a, "i": i, "j": j})
    return LemmaSweepResult("4.3", sum(detail.values()), failures, detail)


def lemma_4_4(
    q_max: int = 8, r_max: int = 8, a_max: int = 16, e_max: int = 4
) -> LemmaSweepResult:
    """Binomial-quotient lifting congruences at p = 2.

    The shift delta is l exactly when r is 1 or 2 and only in the two
    low-a parts; the higher-a parts hold without it.
    """
    failures: list[dict] = []
    detail = {"i": 0, "ii": 0, "iii": 0, "iv": 0}
    top = 2 * (3 * 2**6 + q_max + 2 * r_max) + a_max
    fact = [1] * (top + 1)
    for i in range(1, top + 1):
        fact[i] = fact[i - 1] * i
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
                    # integers at a = 0; step a multiplies in one factor each
                    lhs = fact[2 * big] // (2**big * fact[l + q] * fact[r])
                    rhs = fact[2 * small] // (2**small * fact[q] * fact[r])
                    for a in range(a_max + 1):
                        if a:
                            lhs *= 2 * big + a
                            rhs *= 2 * small + a
                        if a <= 1:
                            detail["ii"] += 1
                            if (lhs - rhs - delta_r) % modulus:
                                failures.append(
                                    {"part": "ii", "N": N, "k": k, "q": q, "r": r, "a": a}
                                )
                        for e in range(1, e_max + 1):
                            if a >= 2 * e:
                                detail["iii"] += 1
                                if (lhs - rhs) % 2 ** (N + e):
                                    failures.append(
                                        {
                                            "part": "iii",
                                            "N": N,
                                            "k": k,
                                            "q": q,
                                            "r": r,
                                            "a": a,
                                            "e": e,
                                        }
                                    )
                            if a >= 2 * (e + 1):
                                detail["iv"] += 1
                                if (lhs - rhs) % (modulus * 2**e):
                                    failures.append(
                                        {
                                            "part": "iv",
                                            "N": N,
                                            "k": k,
                                            "q": q,
                                            "r": r,
                                            "a": a,
                                            "e": e,
                                        }
                                    )
    return LemmaSweepResult("4.4", sum(detail.values()), failures, detail)


def lemma_4_5(k_max: int = 5, m_max: int = 30) -> LemmaSweepResult:
    """Increment of g(a) = (-1)**(a-1) (2a-3)!!/(2a) along n = m + k 2**N,
    in the three stated residue classes of m (nothing is claimed for 8 | m).
    p = 2 is prime, so valuations take the unchecked _vp."""
    failures: list[dict] = []
    checked = 0
    for N in (3, 4, 5):
        for k in range(1, k_max + 1, 2):
            l = k * 2**N
            for m in range(1, m_max + 1):
                if m % 8 == 0:
                    continue
                n = m + l
                if m % 2:
                    sign = -1 if ((m - 1) // 2) % 2 else 1
                    corr = sign * Fraction(l, 2)
                elif m % 4:
                    corr = l + Fraction(l, 2 * m * n)
                else:
                    corr = l - Fraction(l, 2 * m * n)
                checked += 1
                if _vp(2, g_func(n) - g_func(m) - corr) < N + 1:
                    failures.append({"N": N, "k": k, "m": m})
    return LemmaSweepResult("4.5", checked, failures)


def _two_adic_walk(n_max: int):
    """(u, n, d, u1, u3, u7, ndot, e, v) for every partition u of each
    weight n = 1..n_max, d its degree, u_i its multiplicity of part i, v =
    v2(tau(u)), ndot and e as in lemma_4_6: the one walk of lemmas 4.6 and
    4.7."""
    vfact, gain = _valuation_tables(2, n_max)
    for n in range(1, n_max + 1):
        for u in enumerate_partitions(n):
            mults = dict(u)
            u1 = mults.get(1, 0)
            u3 = mults.get(3, 0)
            d, g, v = _runs_valuations(vfact, gain, u)
            # v2((2 u1)!) = u1 + v2(u1!)
            e = g - (u1 + vfact[u1]) - 2 * u3 - vfact[u3]
            yield u, n, d, u1, u3, mults.get(7, 0), n - u1 - 3 * u3, e, v


def lemma_4_6(n_max: int = 24) -> LemmaSweepResult:
    """Exhaustive bucket check of n+d-2 - 2(u1 + 2*u3 + e) over all weights <= n_max.

    Writing ndot = n - u1 - 3*u3 and e = v2(gamma) - v2((2*u1)!) - 2*u3 - v2(u3!),
    the offset is -2 when ndot = 0, +1 when ndot = 2, 0 when the rest of the
    weight is a power-of-two count of parts 7, and >= 2 otherwise.
    """
    failures = []
    checked = 0
    for u, n, d, u1, u3, u7, ndot, e, _ in _two_adic_walk(n_max):
        checked += 1
        offset = n + d - 2 - 2 * (u1 + 2 * u3 + e)
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


def lemma_4_7(n_max: int = 24) -> LemmaSweepResult:
    """v2(tau(u)) >= u3 + ceil(ndot/2) - 1 for ndot > 0 (-3 when ndot = 7*u7)."""
    failures = []
    checked = 0
    for u, _, _, _, u3, u7, ndot, _, v in _two_adic_walk(n_max):
        if ndot <= 0:
            continue
        checked += 1
        slack = 3 if (u7 and ndot == 7 * u7) else 1
        bound = u3 + (ndot + 1) // 2 - slack
        if v < bound:
            failures.append({"u": u.to_pairs(), "v": str(v), "bound": str(bound)})
    return LemmaSweepResult("4.7", checked, failures)


SWEEPS: dict[str, Callable[..., LemmaSweepResult]] = {
    "2.1": lemma_2_1,
    "2.2": lemma_2_2,
    "2.4": lemma_2_4,
    "2.5": lemma_2_5,
    "2.6": lemma_2_6,
    "3.2": lemma_3_2,
    "4.1": lemma_4_1,
    "4.2": lemma_4_2,
    "4.3": lemma_4_3,
    "4.4": lemma_4_4,
    "4.5": lemma_4_5,
    "4.6": lemma_4_6,
    "4.7": lemma_4_7,
}


def run_sweep(name: str, **overrides) -> LemmaSweepResult:
    """Run one sweep by id.

    An override of None is no override: the sweep runs at its default
    there, as the CLI does for a flag left unset.  An unknown id or
    parameter, a bound that is not an integer or is negative (below 1 for
    the n_max of 4.6 and 4.7, which walk the weights 1..n_max), and bounds
    under which the sweep checks nothing raise PreconditionError: a
    "holds" over no instance would read as a proof.
    """
    func = SWEEPS.get(name)
    if func is None:
        raise PreconditionError(f"unknown lemma id {name!r}")
    code = func.__code__
    accepted = code.co_varnames[: code.co_argcount]
    for key, value in overrides.items():
        if key not in accepted:
            raise PreconditionError(f"lemma {name} does not take parameter {key!r}")
        if value is not None:
            least = 1 if key == "n_max" and name in ("4.6", "4.7") else 0
            _require_ints(least, **{key: value})
    overrides = {key: value for key, value in overrides.items() if value is not None}
    result = func(**overrides)
    if not result.checked:
        bounds = ", ".join(f"{key}={value}" for key, value in overrides.items())
        raise PreconditionError(f"lemma {name} checks no instance at {bounds}")
    return result
