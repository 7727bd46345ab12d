import math
import random
import re
from fractions import Fraction

import pytest

from ubern.errors import PreconditionError
from ubern.padic import (
    INFINITY,
    _unit_factorials,
    _vp,
    digit_sum,
    double_factorial,
    f_sum,
    f_term,
    factorial_unit_mod,
    g_func,
    is_prime,
    vp,
    vp_factorial,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(30):
        assert is_prime(n) == (n in primes)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


# the least strong pseudoprime to the 12 primes up to 37, and the least
# one to the 13 primes up to 41, the bound of the deterministic test
PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981  # 1287836182261 * 2575672364521


def test_is_prime_refuses_strong_pseudoprimes():
    assert not is_prime(PSI_12)
    with pytest.raises(PreconditionError, match="p must be prime"):
        vp(PSI_12, PSI_12**2)
    # PSI_13 passes all 13 witnesses: past the bound nothing is certified
    for n in (PSI_13, PSI_13 + 2):
        with pytest.raises(PreconditionError, match=f"only below {PSI_13}, got {n}"):
            is_prime(n)
    with pytest.raises(PreconditionError, match=f"only below {PSI_13}"):
        vp(PSI_13, PSI_13**2)
    assert is_prime(PSI_13 - 168)  # the largest prime below the bound


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20240)
    for _ in range(20_000):
        # every magnitude up to 10**24, so small n, dense in primes, are drawn too
        n = rng.randrange(10 ** rng.randint(1, 24))
        assert is_prime(n) == sympy.isprime(n), n


def test_vp_examples():
    assert vp(3, 18) == 2
    assert vp(2, 1) == 0
    assert vp(5, Fraction(-5, 63)) == 1
    assert vp(3, Fraction(1, 9)) == -2
    assert vp(7, 0) == INFINITY
    with pytest.raises(PreconditionError):
        vp(6, 10)
    # the unchecked core: the same values, INFINITY for a zero difference
    for q in (18, 1, Fraction(-5, 63), Fraction(1, 9), 0, Fraction(2, 3) - Fraction(4, 6)):
        assert _vp(3, q) == vp(3, q)
    assert _vp(2, Fraction(1, 2) - Fraction(1, 2)) == INFINITY


@pytest.mark.parametrize("q", [0.1, 0.5, "3/4", True, False, None, 1.5, [4]])
def test_vp_refuses_what_is_not_an_int_or_a_fraction(q):
    # before: vp(2, 0.1) == -55, vp(2, "3/4") == -2, vp(2, True) == 0
    with pytest.raises(PreconditionError, match=f"^q must be an int or a Fraction, got {re.escape(repr(q))}$"):
        vp(2, q)


def test_digit_sum_examples():
    assert digit_sum(3, 0) == 0
    assert digit_sum(2, 10) == 2
    assert digit_sum(5, 24) == 8


def test_vp_factorial_examples():
    assert vp_factorial(2, 10) == 8
    assert vp_factorial(3, 0) == 0
    assert vp_factorial(3, 7) == 2


def test_vp_factorial_brute_force_oracle():
    # independent Legendre sums, the full stated range
    for p in (2, 3, 5, 7):
        for a in range(5001):
            total = 0
            q = a // p
            while q:
                total += q
                q //= p
            assert vp_factorial(p, a) == total


def test_double_factorial():
    assert double_factorial(7) == 105
    assert double_factorial(-1) == 1
    assert double_factorial(1) == 1
    assert double_factorial(9) == 945
    assert double_factorial(9) % 4 == 1
    with pytest.raises(PreconditionError):
        double_factorial(4)
    with pytest.raises(PreconditionError):
        double_factorial(-3)


def test_factorial_unit_mod_examples():
    assert factorial_unit_mod(3, 3, 1) == 2
    assert factorial_unit_mod(2, 0, 4) == 1
    brute = math.factorial(10) // 5 ** vp_factorial(5, 10)
    assert factorial_unit_mod(5, 10, 1) == brute % 5


def test_factorial_unit_mod_brute_force_oracle():
    for p in (2, 3, 5):
        running = 1
        for a in range(301):
            if a:
                running *= a
            unit = running // p ** vp_factorial(p, a)
            for k in range(1, 5):
                assert factorial_unit_mod(p, a, k) == unit % p**k


def test_unit_factorials_match_reference():
    for p in (2, 3, 5, 7):
        for k in range(1, 13):
            table = _unit_factorials(p, 150, k)
            assert len(table) == 151
            for a, unit in enumerate(table):
                assert unit == factorial_unit_mod(p, a, k), (p, a, k)


def test_g_func_examples():
    assert g_func(1) == Fraction(1, 2)
    assert g_func(2) == Fraction(-1, 4)
    assert g_func(5) == Fraction(21, 2)
    with pytest.raises(PreconditionError):
        g_func(0)


def test_f_sum_examples():
    assert f_sum(0, 1) == 3
    assert vp(2, f_sum(0, 1)) == 0
    assert f_sum(1, 1) == 5
    assert vp(2, f_sum(2, 4)) >= 4


def test_f_term_is_exact():
    for a in range(6):
        for i in range(1, 5):
            total = 0
            for j in range(1, 2 * i + 1):
                term = f_term(a, i, j)
                assert term * (a + j) == math.prod(range(a + 1, a + 2 * i + 1))
                total += term
            assert total == f_sum(a, i)

