"""Differential tests against sympy, an independent implementation.

The rational gcd is compared with ``sympy.gcd`` over QQ (monic there too),
``gcd_q`` of a pair and its cofactors with ``sympy.gcdex`` (the monic gcd
and its least-degree Bezout cofactors are unique, so all three must
agree), exact
division in Z[x] with ``sympy.div`` over ZZ, and integer factorization and
the squarefree test with ``factorint``.  sympy is a test-only dependency;
without it these tests are skipped.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from finsep.ideal import Presentation
from finsep.intarith import factorize, squarefree
from finsep.poly import IntPoly, gcd_q
from finsep.separability import decide

X = sympy.Symbol("x")


def _random_poly(rng, degree, bound=9):
    return IntPoly([rng.randint(-bound, bound) for _ in range(degree + 1)])


def _sympy_gcd(polys):
    g = sympy.Poly(0, X, domain=sympy.QQ)
    for p in polys:
        g = g.gcd(sympy.Poly(list(reversed(p.coeffs)), X, domain=sympy.QQ))
    return g.monic()


def _sympy_poly(p, domain=sympy.QQ):
    return sympy.Poly(list(reversed(p.coeffs)) or [0], X, domain=domain)


def _fractions(poly):
    """A sympy polynomial's coefficients, ascending, as Fractions."""
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def test_xgcd_q_matches_sympy_gcdex():
    # gcd_q([a, b]): its gamma and two cofactors are the monic gcd and the
    # least-degree Bezout cofactors, as from sympy's extended Euclid
    rng = random.Random(53)
    nonzero = lambda p: p if not p.is_zero() else IntPoly((0, 1))
    a = _random_poly(rng, 4)
    pairs = [
        (IntPoly(), nonzero(_random_poly(rng, 3))),         # a = 0
        (nonzero(_random_poly(rng, 2)), _random_poly(rng, 6)),  # deg a < deg b
        (a, a),                                             # a = b
        (IntPoly((0, 1)), IntPoly((1, 1))),                 # x, x + 1: coprime
        (IntPoly((-1, 0, 1)), IntPoly((0, 1, 1))),          # x^2 - 1, x^2 + x
    ]
    for _ in range(200):
        common = _random_poly(rng, rng.randint(0, 3))
        pairs.append((common * _random_poly(rng, rng.randint(0, 5)),
                      common * _random_poly(rng, rng.randint(0, 5))))
    coprime = 0
    for a, b in pairs:
        if b.is_zero():
            continue  # sympy's gcdex divides by b
        res = gcd_q([a, b])
        g, (s, t) = res.gamma, res.cofactors
        want_s, want_t, want_g = _sympy_poly(a).gcdex(_sympy_poly(b))
        assert list(g.coeffs) == _fractions(want_g)
        assert list(s.coeffs) == _fractions(want_s)
        assert list(t.coeffs) == _fractions(want_t)
        coprime += g.degree == 0
    assert coprime >= 10


def test_decide_gamma_matches_sympy_gcd():
    rng = random.Random(54)
    for _ in range(150):
        common = _random_poly(rng, rng.randint(0, 2), bound=6) * IntPoly((0, 1))
        relators = [common * _random_poly(rng, rng.randint(0, 3), bound=6)
                    * IntPoly((rng.choice((1, 2, 3, 6, 12)),))
                    for _ in range(rng.randint(1, 4))]
        p = Presentation(relators)
        if not p.relators:
            continue
        gamma = decide(p).rational_gcd.gamma
        assert list(gamma.coeffs) == _fractions(_sympy_gcd(p.relators))


def test_intpoly_divides_matches_sympy_div_over_zz():
    rng = random.Random(55)
    divisible = 0
    for _ in range(300):
        d = _random_poly(rng, rng.randint(0, 3), bound=6)
        if d.is_zero():
            continue
        if rng.random() < 0.5:
            p = d * _random_poly(rng, rng.randint(0, 3), bound=6)
        else:
            p = _random_poly(rng, rng.randint(0, 6))
        _, rem = sympy.div(_sympy_poly(p, sympy.ZZ), _sympy_poly(d, sympy.ZZ),
                           auto=False)
        assert d.divides(p) == rem.is_zero
        divisible += rem.is_zero
    assert divisible >= 100


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
    ] + [(10**6 + 3) * (10**6 + 33), (10**6 + 3) ** 2 * 6, 2**61 - 1] + [
        # m * q^k for primes q of 20 to 67 bits: past the trial bound,
        # rho alone cannot split the larger q^k within its budget.  Each
        # costs the whole trial division, about 40 ms, so there are 100
        rng.choice((1, 2, 3, 30, 49)) * q ** rng.randint(2, 4)
        for q in (sympy.nextprime(rng.getrandbits(rng.randint(20, 67)) | 1 << 19)
                  for _ in range(100))
    ]
    for n in values:
        want = tuple(sorted(sympy.factorint(n).items()))
        assert factorize(n) == want
        sf = squarefree(n)
        assert sf.is_squarefree == all(e == 1 for _, e in want)
        assert sf.factorization == want
        if not sf.is_squarefree:
            assert dict(want)[sf.offending_prime] >= 2
