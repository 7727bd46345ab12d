"""The closed form tau(u) = (-1)**(d-1) (n+d-2)! / gamma(u) against the
definition of the universal Bernoulli numbers, by series reversion.

With F(t) = t + sum_i c_i t**(i+1) / (i+1) and G its compositional
inverse, t / G(t) = sum_n B^_n t**n / n!, and B^_n / n is divided_ubern(n)
evaluated at the c_i.  Write F = tP and G = tH.  Lagrange inversion,
[t**m] G = (1/m) [t**(m-1)] (t/F)**m, reads H_k = [t**k] Q**(k+1) / (k+1)
with Q = 1/P, so the powers of Q give every coefficient of H; then
B^_n / n = (n-1)! [t**n] (1/H).  The helpers share no code with ubern.
At c_i = (-1)**i every weight-n monomial is (-1)**n, so the classical
check sees only the sum of the coefficients; at random rational points
(Schwartz-Zippel) every coefficient counts.
"""

import math
import random
from fractions import Fraction

import pytest

import ubern.bernoulli as bernoulli
from ubern.bernoulli import divided_ubern, specialize

N_MAX = 24


def _mul(a, b):
    # product of two power series, truncated to the length of a
    return [sum(a[j] * b[m - j] for j in range(m + 1)) for m in range(len(a))]


def _reciprocal(h):
    # 1/h for h[0] = 1
    r = [Fraction(1)]
    for m in range(1, len(h)):
        r.append(-sum(h[j] * r[m - j] for j in range(1, m + 1)))
    return r


def _reversion_quotient(c, n):
    # H = G/t to t**n, by Lagrange inversion: H_k = [t**k] Q**(k+1) / (k+1)
    q = _reciprocal([Fraction(1)] + [Fraction(c[i], i + 1) for i in range(1, n + 1)])
    h = []
    power = q
    for k in range(n + 1):
        h.append(power[k] / (k + 1))
        power = _mul(power, q)
    return h


def _points():
    rng = random.Random(80835)
    return [
        {i: Fraction(rng.randint(-999, 999), rng.randint(1, 99)) for i in range(1, N_MAX + 1)}
        for _ in range(3)
    ]


POINTS = _points()


def _check_closed_form(n_max):
    for c in POINTS:
        r = _reciprocal(_reversion_quotient(c, n_max))
        for n in range(1, n_max + 1):
            assert math.factorial(n - 1) * r[n] == specialize(divided_ubern(n), c), n


def test_closed_form_matches_series_reversion():
    _check_closed_form(N_MAX)


def _degree(u):
    return sum(mult for _, mult in u)


def _factorial_shifted(tau_fractions):
    # (n+d-1)! in place of (n+d-2)!
    def mutated(n):
        for u, num, den in tau_fractions(n):
            yield u, num * (n + _degree(u) - 1), den
    return mutated


def _multiplicity_factorials_dropped(tau_fractions):
    # gamma(u) without its u_i! factors
    def mutated(n):
        for u, num, den in tau_fractions(n):
            yield u, num, den // math.prod(math.factorial(mult) for _, mult in u)
    return mutated


def _even_degree_sign_flipped(tau_fractions):
    def mutated(n):
        for u, num, den in tau_fractions(n):
            yield u, (-num if _degree(u) % 2 == 0 else num), den
    return mutated


def _equal_degree_pair_swapped(tau_fractions):
    # the values of the first two degree-2 partitions trade places: from
    # n = 4 these are n-1+1 and n-2+2, whose gammas differ.  Both monomials
    # are (-1)**n at c_i = (-1)**i, so the classical check cannot see the swap
    def mutated(n):
        terms = list(tau_fractions(n))
        pair = [t for t, (u, _, _) in enumerate(terms) if _degree(u) == 2][:2]
        if len(pair) == 2:
            i, j = pair
            (u, *a), (v, *b) = terms[i], terms[j]
            terms[i], terms[j] = (u, *b), (v, *a)
        yield from terms
    return mutated


# each with the least n <= 10 at which the oracle catches it
MUTATIONS = {
    "factorial_shifted": (_factorial_shifted, 2),
    "multiplicity_factorials_dropped": (_multiplicity_factorials_dropped, 2),
    "even_degree_sign_flipped": (_even_degree_sign_flipped, 2),
    "equal_degree_pair_swapped": (_equal_degree_pair_swapped, 4),
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_series_oracle_catches_closed_form_mutations(monkeypatch, name):
    mutation, first = MUTATIONS[name]
    monkeypatch.setattr(bernoulli, "_tau_fractions", mutation(bernoulli._tau_fractions))
    with pytest.raises(AssertionError) as failed:
        _check_closed_form(10)
    assert str(failed.value).splitlines()[0] == str(first)


SYMBOLIC_N_MAX = 7


def _symbolic_divided_ubern(sympy, c):
    # B^_n / n for n = 1..len(c) as sympy polynomials in c, by fixed-point
    # series reversion rather than Lagrange inversion: G = tH inverts
    # F = tP exactly when H = 1/P(tH), and each pass of that map fixes one
    # more coefficient of H.  Series are lists of expanded expressions,
    # truncated at t**len(c); then t/G = 1/H
    length = len(c) + 1
    one, zero = sympy.Integer(1), sympy.Integer(0)

    def mul(a, b):
        return [sympy.expand(sum(a[j] * b[m - j] for j in range(m + 1))) for m in range(length)]

    def reciprocal(h):
        # 1/h for h[0] = 1
        r = [one]
        for m in range(1, length):
            r.append(sympy.expand(-sum(h[j] * r[m - j] for j in range(1, m + 1))))
        return r

    def p_of_th(h):
        # P(tH) = 1 + sum_i c_i (tH)**i / (i+1)
        out = [one] + [zero] * (length - 1)
        power = list(out)
        for i in range(1, length):
            power = mul(power, h)
            for m in range(i, length):
                out[m] += c[i - 1] * power[m - i] / (i + 1)
        return [sympy.expand(x) for x in out]

    h = [one] + [zero] * (length - 1)
    for _ in range(length + 1):
        nxt = reciprocal(p_of_th(h))
        if all(sympy.expand(a - b) == 0 for a, b in zip(nxt, h)):
            break
        h = nxt
    else:
        raise AssertionError("H = 1/P(tH) did not reach its fixed point")
    quotient = reciprocal(h)
    return [sympy.factorial(n - 1) * quotient[n] for n in range(1, length)]


def test_every_coefficient_matches_symbolic_reversion():
    # each coefficient of divided_ubern(n), n <= 7, against the symbolic
    # series reversion: the same monomials, the same rationals
    sympy = pytest.importorskip("sympy")
    c = sympy.symbols(f"c1:{SYMBOLIC_N_MAX + 1}")
    for n, expr in enumerate(_symbolic_divided_ubern(sympy, c), start=1):
        want = sympy.Poly(expr, *c).as_dict()
        got = {}
        for u, coeff in divided_ubern(n).items():
            exps = [0] * SYMBOLIC_N_MAX
            for part, mult in u:
                exps[part - 1] = mult
            got[tuple(exps)] = sympy.Rational(coeff.numerator, coeff.denominator)
        assert got == want, n
