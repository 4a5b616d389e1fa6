import random
from fractions import Fraction

import pytest

from finsep.poly import (
    IntPoly,
    PolynomialDivisionError,
    RatPoly,
    ZeroPolynomialError,
    compose,
    content_split,
    divrem_q,
    evaluate_in_ring,
    format_poly,
    gcd_q,
    xgcd_q,
)


def ip(*ascending):
    return IntPoly(ascending)


def random_intpoly(rng, max_degree=5, max_coeff=10, nonzero=False):
    while True:
        coeffs = [rng.randint(-max_coeff, max_coeff) for _ in range(max_degree + 1)]
        p = IntPoly(coeffs)
        if not nonzero or not p.is_zero():
            return p


def test_arith_examples():
    assert ip(0, -1, 1) + ip(0, 1, -1) == IntPoly()          # (x^2-x) + (x-x^2) = 0
    assert ip(0, 1) * ip(0, 1) == ip(0, 0, 1)                # x * x = x^2
    assert ip(0, 1, 2).scale(3) == ip(0, 3, 6)               # 3 * (2x^2+x)


def test_trailing_zero_trim_and_degree():
    assert IntPoly((0, 1, 0, 0)).coeffs == (0, 1)
    assert IntPoly().degree == -1
    assert IntPoly().lead == 0
    assert ip(0, 0, 5).degree == 2 and ip(0, 0, 5).lead == 5


def test_content_split_examples():
    cs = content_split(ip(0, -12, 0, 6))
    assert (cs.content, cs.primitive) == (6, ip(0, -2, 0, 1))
    cs = content_split(ip(0, -1, 1))
    assert (cs.content, cs.primitive) == (1, ip(0, -1, 1))
    cs = content_split(ip(0, -2, 4))
    assert (cs.content, cs.primitive) == (2, ip(0, -1, 2))
    # content positive, primitive keeps the sign of the input lead
    cs = content_split(ip(0, 2, -4))
    assert cs.content == 2 and cs.primitive.lead == -2


def test_content_split_zero():
    with pytest.raises(ZeroPolynomialError):
        content_split(IntPoly())


def test_content_multiplicative_gauss():
    rng = random.Random(10)
    for _ in range(200):
        p = random_intpoly(rng, nonzero=True)
        q = random_intpoly(rng, nonzero=True)
        assert (p * q).content == p.content * q.content


def test_divrem_q_examples():
    num = ip(0, 1, 0, 1).to_rational()       # x^3 + x
    den = ip(0, -1, 1).to_rational()          # x^2 - x
    q, r = divrem_q(num, den)
    assert q == ip(1, 1).to_rational()        # x + 1
    assert r == ip(0, 2).to_rational()        # 2x
    q, r = divrem_q(den, den)
    assert q == RatPoly((1,)) and r.is_zero()
    q, r = divrem_q(ip(0, 3).to_rational(), den)
    assert q.is_zero() and r == ip(0, 3).to_rational()


def test_divrem_q_reconstruction_random():
    rng = random.Random(11)
    for _ in range(300):
        num = random_intpoly(rng).to_rational()
        den = random_intpoly(rng, nonzero=True).to_rational()
        q, r = divrem_q(num, den)
        assert den * q + r == num
        assert r.is_zero() or r.degree < den.degree


def test_divrem_q_by_zero():
    with pytest.raises(PolynomialDivisionError):
        divrem_q(RatPoly((1,)), RatPoly())


def _euclid_gcd_oracle(a: RatPoly, b: RatPoly) -> RatPoly:
    # plain remainder-sequence gcd, no cofactors: independent of gcd_q
    while not b.is_zero():
        _, r = divrem_q(a, b)
        a, b = b, r
    if not a.is_zero() and a.lead != 1:
        a = a.scale(1 / a.lead)
    return a


def test_intpoly_divides_in_z():
    assert not ip(0, 2).divides(ip(0, 1))                 # 2x does not divide x over Z
    assert ip(1, 1).divides(ip(0, 1, 1))                  # x + 1 | x^2 + x
    assert ip(1, -1).divides(ip(0, 1, -1))                # -x + 1 | -x^2 + x
    assert ip(1, -1).divides(ip(0, -1, 1))                # negative lead, negative quotient
    assert not ip(1, -2).divides(ip(1, 0, -2))            # -2x + 1 vs -2x^2 + 1
    assert ip(0, 2, 4).divides(ip(0, 0, 4, 8))            # non-primitive 2x(2x + 1) divides
    assert not ip(0, 2, 4).divides(ip(0, 0, 1, 2))        # 4x^2(2x + 1), not x^2(2x + 1)
    assert ip(5).divides(ip(0, 10, -15))                  # constant divisor: its content
    assert not ip(5).divides(ip(0, 10, -14))
    assert IntPoly().divides(IntPoly())                   # zero divisor: only zero
    assert not IntPoly().divides(ip(0, 1))
    assert ip(0, 3).divides(IntPoly())                    # everything divides zero
    assert not ip(0, 0, 1).divides(ip(0, 1))              # deg divisor > deg dividend


def test_intpoly_divides_products_random():
    rng = random.Random(16)
    for _ in range(200):
        d = random_intpoly(rng, max_degree=3, max_coeff=6, nonzero=True)
        q = random_intpoly(rng, max_degree=3, max_coeff=6)
        assert d.divides(d * q)
        r = random_intpoly(rng, max_degree=d.degree - 1, max_coeff=6) if d.degree else None
        if r is not None and not r.is_zero():
            assert not d.divides(d * q + r)               # a nonzero lower remainder


def test_xgcd_q_bezout_and_edge_cases():
    rng = random.Random(17)
    zero, one = RatPoly(), RatPoly((1,))
    assert xgcd_q(zero, zero) == (zero, one, zero)
    b = RatPoly((0, Fraction(2, 3), 4))
    assert xgcd_q(zero, b) == (RatPoly((0, Fraction(1, 6), 1)), zero, RatPoly((Fraction(1, 4),)))
    assert xgcd_q(b, zero) == (RatPoly((0, Fraction(1, 6), 1)), RatPoly((Fraction(1, 4),)), zero)
    for _ in range(100):
        common = random_intpoly(rng, max_degree=2, max_coeff=5, nonzero=True)
        a = (common * random_intpoly(rng, max_degree=4, max_coeff=5)).to_rational()
        b = (common * random_intpoly(rng, max_degree=4, max_coeff=5)).to_rational()
        a = a.scale(Fraction(1, rng.choice((1, 2, 7))))
        g, s, t = xgcd_q(a, b)
        assert s * a + t * b == g
        if a.is_zero() and b.is_zero():
            continue
        assert g.is_monic()
        assert divrem_q(a, g)[1].is_zero() and divrem_q(b, g)[1].is_zero()
        assert g == _euclid_gcd_oracle(a, b)


def test_gcd_q_examples():
    res = gcd_q([ip(0, -1, 0, 1), ip(0, -6, 6)])
    assert res.gamma == ip(0, -1, 1).to_rational()           # x^2 - x
    res = gcd_q([ip(0, 1, 2)])
    assert res.gamma == RatPoly((0, Fraction(1, 2), 1))      # x^2 + x/2
    assert res.denominator_lcm == 2
    res = gcd_q([ip(0, -1, 1), IntPoly()])
    assert res.gamma == ip(0, -1, 1).to_rational()           # zero operand dropped


def test_gcd_q_all_zero():
    with pytest.raises(ZeroPolynomialError):
        gcd_q([IntPoly(), IntPoly()])


def test_gcd_q_properties_random():
    rng = random.Random(12)
    for _ in range(150):
        polys = [random_intpoly(rng, max_degree=4, max_coeff=6)
                 for _ in range(rng.randint(1, 3))]
        if not any(not p.is_zero() for p in polys):
            continue
        res = gcd_q(polys)
        gamma = res.gamma
        assert gamma.is_monic()
        # gamma divides each input exactly over Q
        for p in polys:
            if p.is_zero():
                continue
            _, r = divrem_q(p.to_rational(), gamma)
            assert r.is_zero()
        # bezout identity re-multiplies exactly
        total = RatPoly()
        for c, p in zip(res.cofactors, polys):
            total = total + c * p.to_rational()
        assert total == gamma
        # l clears every cofactor denominator
        assert res.denominator_lcm >= 1
        for c in res.cofactors:
            assert c.scale(res.denominator_lcm).is_integral()
        # agrees with a plain Euclid oracle
        oracle = RatPoly()
        for p in polys:
            if not p.is_zero():
                oracle = _euclid_gcd_oracle(oracle, p.to_rational())
        assert oracle == gamma


def test_gcd_q_common_divisor_divides_gamma():
    rng = random.Random(13)
    for _ in range(100):
        delta = random_intpoly(rng, max_degree=3, max_coeff=4, nonzero=True)
        inputs = [delta * random_intpoly(rng, max_degree=3, max_coeff=4, nonzero=True)
                  for _ in range(rng.randint(1, 3))]
        gamma = gcd_q(inputs).gamma
        _, r = divrem_q(gamma, delta.to_rational())
        assert r.is_zero()


def test_compose_examples():
    assert compose(ip(0, 0, 1), ip(0, 1)) == ip(0, 0, 1)         # x^2 at x
    assert compose(ip(0, -1, 1), ip(0, 0, 1)) == ip(0, 0, -1, 0, 1)  # x^4 - x^2
    f = ip(0, 3, -2, 7)
    assert compose(ip(0, 1), f) == f                              # x at f


def test_compose_monic_zero_constant_closure():
    rng = random.Random(14)
    for _ in range(100):
        outer = IntPoly([0] + [rng.randint(-5, 5) for _ in range(rng.randint(0, 3))] + [1])
        inner = IntPoly([0] + [rng.randint(-5, 5) for _ in range(rng.randint(0, 3))] + [1])
        c = compose(outer, inner)
        assert c.is_monic() and c.constant == 0
        # composition agrees with integer evaluation
        for x in (-3, 0, 2, 5):
            assert c.evaluate(x) == outer.evaluate(inner.evaluate(x))


class _ModRing:
    """Z/n as a minimal ring context for Horner evaluation."""

    def __init__(self, n):
        self.n = n

    def zero(self):
        return 0

    def add(self, u, v):
        return (u + v) % self.n

    def mul(self, u, v):
        return (u * v) % self.n

    def int_scale(self, k, u):
        return (k * u) % self.n


def test_evaluate_in_ring():
    ring = _ModRing(7)
    rng = random.Random(15)
    for _ in range(100):
        p = IntPoly([0] + [rng.randint(-9, 9) for _ in range(4)])
        a = rng.randrange(7)
        assert evaluate_in_ring(p, a, ring) == p.evaluate(a) % 7
    assert evaluate_in_ring(IntPoly(), 3, ring) == 0
    assert evaluate_in_ring(ip(0, 2), 1, _ModRing(2)) == 0       # 2x in char 2
    assert evaluate_in_ring(ip(0, -1, 1), 1, _ModRing(6)) == 0   # idempotent point


def test_evaluate_in_ring_rejects_constant_terms():
    with pytest.raises(ValueError):
        evaluate_in_ring(ip(1, 1), 0, _ModRing(5))


def test_format_poly():
    assert format_poly(ip(0, -4, 0, 2)) == "2x^3 - 4x"
    assert format_poly(ip(0, -1, 1)) == "x^2 - x"
    assert format_poly(IntPoly()) == "0"
    assert format_poly(ip(0, 1)) == "x"
    assert format_poly(ip(0, -1)) == "-x"
    assert format_poly(ip(5)) == "5"
    assert format_poly(RatPoly((0, Fraction(1, 2), 1))) == "x^2 + (1/2)x"
