"""Differential tests against sympy, an independent implementation.

The rational gcd is compared with ``sympy.gcd`` over QQ (monic there too),
and integer factorization and the squarefree test with ``factorint``.
sympy is a test-only dependency; without it these tests are skipped.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from finsep.intarith import factorize, squarefree
from finsep.poly import IntPoly, gcd_q

X = sympy.Symbol("x")


def _random_poly(rng, degree, bound=9):
    return IntPoly([rng.randint(-bound, bound) for _ in range(degree + 1)])


def _sympy_gcd(polys):
    g = sympy.Poly(0, X, domain=sympy.QQ)
    for p in polys:
        g = g.gcd(sympy.Poly(list(reversed(p.coeffs)), X, domain=sympy.QQ))
    return g.monic()


def test_gcd_q_matches_sympy_over_qq():
    rng = random.Random(51)
    nontrivial = 0
    for _ in range(300):
        # a shared factor makes most gcds nontrivial
        common = _random_poly(rng, rng.randint(0, 3))
        polys = [common * _random_poly(rng, rng.randint(0, 3))
                 for _ in range(rng.randint(1, 3))]
        if all(p.is_zero() for p in polys):
            continue
        gamma = gcd_q(polys).gamma
        want = _sympy_gcd(polys)
        got = [Fraction(c) for c in reversed(gamma.coeffs)]
        assert got == [Fraction(int(c.p), int(c.q)) for c in want.all_coeffs()]
        nontrivial += gamma.degree > 0
    assert nontrivial >= 100


def test_factorize_and_squarefree_match_factorint():
    rng = random.Random(52)
    values = list(range(1, 400)) + [
        rng.randint(1, 10**6) * rng.choice((1, 4, 9, 49, 121)) for _ in range(300)
    ] + [(10**6 + 3) * (10**6 + 33), (10**6 + 3) ** 2 * 6, 2**61 - 1]
    for n in values:
        want = tuple(sorted(sympy.factorint(n).items()))
        assert factorize(n) == want
        sf = squarefree(n)
        assert sf.is_squarefree == all(e == 1 for _, e in want)
        assert sf.factorization == want
        if not sf.is_squarefree:
            assert dict(want)[sf.offending_prime] >= 2
