"""p-adic valuations, factorial units, double factorials.

All operations are pure and exact.  The valuation of zero is the
distinguished value INFINITY (it compares greater than every integer);
no integer sentinel is ever used.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PreconditionError, _require_ints

__all__ = [
    "INFINITY",
    "digit_sum",
    "double_factorial",
    "f_sum",
    "f_term",
    "factorial_unit_mod",
    "g_func",
    "is_prime",
    "vp",
    "vp_int",
    "vp_factorial",
]

INFINITY = math.inf

# the 13 primes up to 41 are Miller-Rabin witnesses for every composite
# below _MR_BOUND (Sorenson and Webster); the 12 up to 37 are not: they
# all pass 318665857834031151167461 = 399165290221 * 798330580441
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3317044064679887385961981
    (about 3.3e24); a larger n raises PreconditionError."""
    _require_ints(n=n)
    if n >= _MR_BOUND:
        raise PreconditionError(f"primality is certified only below {_MR_BOUND}, got {n}")
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> None:
    # bools and non-ints are screened here: is_prime would refuse them as "n"
    if isinstance(p, bool) or not isinstance(p, int) or not is_prime(p):
        raise PreconditionError(f"p must be prime, got {p!r}")


def _require_odd_prime(p: int) -> None:
    _require_prime(p)
    if p == 2:
        raise PreconditionError("p must be an odd prime, got 2")


def vp_int(p: int, a: int) -> int:
    """Valuation of a nonzero integer; no primality check (hot path)."""
    if a == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while True:
        q, r = divmod(a, p)
        if r:
            return v
        a = q
        v += 1


def vp(p: int, q: Fraction | int) -> int | float:
    """Normalized p-adic valuation of a rational; INFINITY for q = 0.

    q is an int or a Fraction.  Anything else, a bool, a float or a string
    included, raises PreconditionError: no valuation of a coercion of it
    is returned.
    """
    _require_prime(p)
    if isinstance(q, bool) or not isinstance(q, (int, Fraction)):
        raise PreconditionError(f"q must be an int or a Fraction, got {q!r}")
    return _vp(p, q)


def _vp(p: int, q: Fraction | int) -> int | float:
    # vp without the prime check, for callers that checked p (hot path)
    if q == 0:
        return INFINITY
    if isinstance(q, int):
        return vp_int(p, q)
    q = Fraction(q)
    num = q.numerator
    if num % p == 0:
        return vp_int(p, num)
    return -vp_int(p, q.denominator)


def digit_sum(p: int, a: int) -> int:
    """Sum of the base-p digits of a >= 0."""
    _require_prime(p)
    _require_ints(0, a=a)
    s = 0
    while a:
        a, r = divmod(a, p)
        s += r
    return s


def vp_factorial(p: int, a: int) -> int:
    """Valuation of a! as (a - digit_sum(a)) / (p - 1); a! is never formed."""
    _require_prime(p)
    _require_ints(0, a=a)
    return _vp_factorial(p, a)


def _vp_factorial(p: int, a: int) -> int:
    # vp_factorial without the checks, for callers that checked p (hot path)
    s = 0
    b = a
    while b:
        b, r = divmod(b, p)
        s += r
    return (a - s) // (p - 1)


def double_factorial(a: int) -> int:
    """a!! = a (a-2) ... 3 * 1 for odd a >= 1; (-1)!! = 1 (empty product)."""
    _require_ints(-1, a=a)
    if a % 2 == 0:
        raise PreconditionError(f"a must be odd, got {a}")
    return math.prod(range(1, a + 1, 2))


def factorial_unit_mod(p: int, a: int, k: int) -> int:
    """(a! / p**vp_factorial(p, a)) mod p**k by Wilson-style block products.

    Works level by level on a, a//p, a//p**2, ...; within a level the
    product of all units below a full period p**k is -1, except +1 for
    p = 2 with k >= 3.  a! itself is never materialized.
    """
    _require_prime(p)
    _require_ints(0, a=a)
    _require_ints(1, k=k)
    m = p**k
    block = 1 if (p == 2 and k >= 3) else m - 1
    result = 1
    while a > 0:
        full, _ = divmod(a, m)
        result = result * pow(block, full, m) % m
        for i in range(full * m + 1, a + 1):
            if i % p:
                result = result * i % m
        a //= p
    return result % m


def _unit_factorials(p: int, top: int, k: int) -> list[int]:
    """[factorial_unit_mod(p, a, k) for a in 0..top] as one running product.

    Each step multiplies in the p-free part of a, so the whole table
    costs one pass; factorial_unit_mod stays the independent reference.
    """
    m = p**k
    table = [1] * (top + 1)
    acc = 1
    for i in range(1, top + 1):
        j = i
        while j % p == 0:
            j //= p
        acc = acc * (j % m) % m
        table[i] = acc
    return table


def g_func(a: int) -> Fraction:
    """(-1)**(a-1) * (2a-3)!! / (2a) as an exact rational, a >= 1."""
    _require_ints(1, a=a)
    sign = -1 if (a - 1) % 2 else 1
    return Fraction(sign * double_factorial(2 * a - 3), 2 * a)


def f_term(a: int, i: int, j: int) -> int:
    """(a+1)...(a+2i) / (a+j), an exact integer, for 1 <= j <= 2i."""
    _require_ints(0, a=a)
    _require_ints(1, i=i, j=j)
    if j > 2 * i:
        raise PreconditionError(f"j must be <= 2i = {2 * i}, got {j}")
    return math.prod(range(a + 1, a + 2 * i + 1)) // (a + j)


def f_sum(a: int, i: int) -> int:
    """Sum over j = 1..2i of (a+1)...(a+2i) / (a+j)."""
    _require_ints(0, a=a)
    _require_ints(1, i=i)
    prod = math.prod(range(a + 1, a + 2 * i + 1))
    return sum(prod // (a + j) for j in range(1, 2 * i + 1))

