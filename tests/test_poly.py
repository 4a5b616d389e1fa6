import random
from fractions import Fraction

import pytest

from finsep.cli import _encode
from finsep.poly import (
    IntPoly,
    RatPoly,
    ZeroPolynomialError,
    clear_denominators,
    content_split,
    format_poly,
    gcd_q,
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
    # a list, a tuple and a generator convert and trim alike, to a tuple of ints
    for coeffs in ([0, 1, 0, 0], (0, True, 0.0, 0), (c for c in (0, 1, 0, 0)),
                   ["0", "1", "0"]):
        p = IntPoly(coeffs)
        assert p.coeffs == (0, 1) and all(type(c) is int for c in p.coeffs)
    assert IntPoly([0, 0]).coeffs == IntPoly(iter(())).coeffs == ()
    assert IntPoly((2, 0, 3)).coeffs == (2, 0, 3)
    with pytest.raises(ValueError):
        IntPoly(["x"])
    with pytest.raises(TypeError):
        IntPoly([0, None])
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


def _euclid_gcd_oracle(a: list, b: list) -> list:
    """Monic gcd of two Fraction coefficient lists (ascending, trimmed) by
    the plain remainder sequence over Q, no cofactors: independent of
    gcd_q."""
    while b:
        while len(a) >= len(b):
            c, shift = a[-1] / b[-1], len(a) - len(b)
            a = [x - c * b[i - shift] if i >= shift else x for i, x in enumerate(a)]
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return [x / a[-1] for x in a] if a else []


def _cleared(p: RatPoly) -> IntPoly:
    """l * p over Z, for the least positive l that clears p's denominators."""
    return clear_denominators([p])[1][0]


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


def test_gcd_q_examples():
    res = gcd_q([ip(0, -1, 0, 1), ip(0, -6, 6)])
    assert res.gamma == RatPoly((0, -1, 1))                  # x^2 - x
    res = gcd_q([ip(0, 1, 2)])
    assert res.gamma == RatPoly((0, Fraction(1, 2), 1))      # x^2 + x/2
    assert res.denominator_lcm == 2
    res = gcd_q([ip(0, -1, 1), IntPoly()])
    assert res.gamma == RatPoly((0, -1, 1))                  # zero operand dropped
    res = gcd_q([IntPoly(), ip(0, 4, 24)])
    assert res.gamma == RatPoly((0, Fraction(1, 6), 1))      # zero operand first


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
        # gamma divides each input exactly over Q: by Gauss's lemma, the
        # primitive part of l*gamma divides it over Z
        primitive = content_split(_cleared(gamma)).primitive
        assert all(primitive.divides(p) for p in polys)
        # bezout identity re-multiplies exactly, over Z with one common
        # denominator l: sum((l*c_i) * p_i) == l*gamma
        _, (l_gamma, *l_cofs) = clear_denominators([gamma, *res.cofactors])
        total = IntPoly()
        for c, p in zip(l_cofs, polys):
            total = total + c * p
        assert total == l_gamma
        # l clears every cofactor denominator
        l = res.denominator_lcm
        assert l >= 1
        for c in res.cofactors:
            assert all((l * x).denominator == 1 for x in c.coeffs)
        # agrees with a plain Euclid oracle
        oracle = []
        for p in polys:
            if not p.is_zero():
                oracle = _euclid_gcd_oracle(oracle, [Fraction(c) for c in p.coeffs])
        assert oracle == list(gamma.coeffs)


def test_gcd_q_values_match_ratpolys_built_the_public_way():
    # gcd_q makes each Fraction once and shares one Fraction(0); its gamma
    # and cofactors must hold the values, hashes and JSON text of RatPolys
    # built through RatPoly(...) from their integers over one denominator
    rng = random.Random(28)
    for _ in range(200):
        polys = [random_intpoly(rng, max_degree=5, max_coeff=9)
                 for _ in range(rng.randint(1, 3))]
        if all(p.is_zero() for p in polys):
            continue
        res = gcd_q(polys)
        l, cleared = clear_denominators([res.gamma, *res.cofactors])
        for p, ints in zip((res.gamma, *res.cofactors), cleared):
            public = RatPoly(Fraction(x, l) for x in ints.coeffs)
            assert p == public and hash(p) == hash(public)
            assert all(type(c) is Fraction for c in p.coeffs)
            assert _encode(p) == _encode(public)
            assert RatPoly(p.coeffs) == p and RatPoly(p.coeffs).coeffs == p.coeffs


def test_gcd_q_common_divisor_divides_gamma():
    rng = random.Random(13)
    for _ in range(100):
        delta = random_intpoly(rng, max_degree=3, max_coeff=4, nonzero=True)
        inputs = [delta * random_intpoly(rng, max_degree=3, max_coeff=4, nonzero=True)
                  for _ in range(rng.randint(1, 3))]
        gamma = gcd_q(inputs).gamma
        # delta divides gamma over Q: by Gauss's lemma, its primitive part
        # divides l*gamma over Z
        assert content_split(delta).primitive.divides(_cleared(gamma))


def test_format_poly():
    assert format_poly(ip(0, -4, 0, 2)) == "2x^3 - 4x"
    assert format_poly(ip(0, -1, 1)) == "x^2 - x"
    assert format_poly(IntPoly()) == "0"
    assert format_poly(ip(0, 1)) == "x"
    assert format_poly(ip(0, -1)) == "-x"
    assert format_poly(ip(5)) == "5"
    assert format_poly(RatPoly((0, Fraction(1, 2), 1))) == "x^2 + (1/2)x"
    assert format_poly(RatPoly((Fraction(-3, 4), 0, Fraction(-1, 2)))) == "-(1/2)x^2 - (3/4)"
    assert format_poly(RatPoly((Fraction(1), Fraction(-1)))) == "-x + 1"
    assert format_poly(ip(-1, 0, -1)) == "-x^2 - 1"
    assert format_poly(ip(0, 10**30, -1)) == f"-x^2 + {10**30}x"


def test_intpoly_and_ratpoly_keep_their_own_value_semantics():
    # one shared value type; each class keeps its own equality, hash,
    # repr, immutability message and zero coefficient
    i, r = ip(0, -1, 2), RatPoly((0, -1, 2))
    assert i != r and r != i and i.coeffs == r.coeffs
    assert hash(i) == hash(("IntPoly", (0, -1, 2)))
    assert hash(r) == hash(("RatPoly", (Fraction(0), Fraction(-1), Fraction(2))))
    assert repr(i) == "IntPoly('2x^2 - x')" and repr(r) == "RatPoly('2x^2 - x')"
    for p, name in ((i, "IntPoly"), (r, "RatPoly")):
        with pytest.raises(AttributeError, match=f"{name} is immutable"):
            p.coeffs = ()
        assert p and p.degree == 2 and p.lead == 2 and p[1] == -1 and p[7] == 0
        assert not p.is_monic() and not p.is_zero()
    assert IntPoly().lead == 0 and type(IntPoly().lead) is int
    assert RatPoly().lead == 0 and type(RatPoly().lead) is Fraction
    assert type(IntPoly()[2]) is int and type(RatPoly()[2]) is Fraction
    assert RatPoly((0, 1)).is_monic() and not RatPoly() and RatPoly().degree == -1
