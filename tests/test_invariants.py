import random

from finsep.poly import IntPoly, content_split
from finsep.ideal import Presentation, membership, monic_multiple_search
from finsep.invariants import (
    certified_relation,
    minimal_polynomial,
    ring_invariants,
    torsion_data,
)


def ip(*ascending):
    return IntPoly(ascending)


def pres(*coeff_lists):
    return Presentation([IntPoly(c) for c in coeff_lists])


def random_zero_const_poly(rng, max_degree=5, max_coeff=10):
    return IntPoly([0] + [rng.randint(-max_coeff, max_coeff) for _ in range(max_degree)])


def test_minimal_polynomial_examples():
    assert minimal_polynomial(pres((0, -1, 1))) == ip(0, -1, 1)
    # degree-2 members of <2x^2, x^3> are exactly the multiples of 2x^2
    assert minimal_polynomial(pres((0, 0, 2), (0, 0, 0, 1))) == ip(0, 0, 2)
    assert minimal_polynomial(pres()) is None


def test_minimal_polynomial_is_least_degree_member():
    rng = random.Random(30)
    for _ in range(150):
        p = Presentation([random_zero_const_poly(rng, 4, 8) for _ in range(rng.randint(1, 3))])
        mp = minimal_polynomial(p)
        if mp is None:
            assert p.relators == ()
            continue
        assert mp.lead > 0
        member, cert = membership(mp, p)
        assert member and cert.verify(p)
        # nothing of smaller degree in V: any member's degree is at least deg mp
        g = IntPoly()
        for r in p.relators:
            g = g + r * random_zero_const_poly(rng, 3, 5)
        if not g.is_zero():
            assert g.degree >= mp.degree


def test_minimal_polynomial_invariant_under_presentation_changes():
    rng = random.Random(31)
    for _ in range(100):
        relators = [random_zero_const_poly(rng, 4, 8) for _ in range(rng.randint(1, 3))]
        p = Presentation(relators)
        mp = minimal_polynomial(p)
        shuffled = relators[:]
        rng.shuffle(shuffled)
        assert minimal_polynomial(Presentation(shuffled)) == mp
        # a redundant member changes nothing
        extra = IntPoly()
        for r in relators:
            extra = extra + r * random_zero_const_poly(rng, 2, 4)
        assert minimal_polynomial(Presentation(relators + [extra])) == mp


def test_prop_divisibility_of_members():
    # every member g, multiplied by a suitable k > 0, is divisible by the
    # minimal polynomial in Z[x]
    rng = random.Random(32)
    for _ in range(100):
        p = Presentation([random_zero_const_poly(rng, 4, 6) for _ in range(rng.randint(1, 2))])
        mp = minimal_polynomial(p)
        if mp is None:
            continue
        g = IntPoly()
        for r in p.relators:
            g = g + r * random_zero_const_poly(rng, 3, 5)
        if g.is_zero():
            continue
        # mp divides g over Q (Gauss: its primitive part divides g over
        # Z), and over Z once g is scaled by the content of mp
        assert content_split(mp).primitive.divides(g)
        assert mp.divides(g.scale(content_split(mp).content))


def test_torsion_examples():
    data = torsion_data(pres((0, -1, 1)))
    assert (data.torsion, data.torsion_exponent) == (1, 2)
    assert data.torsion_witness.phi == ip(0, -1, 1)
    assert data.torsion_witness.verify(pres((0, -1, 1)))

    data = torsion_data(pres((0, 4)))
    assert (data.torsion, data.torsion_exponent) == (4, 1)
    assert data.torsion_witness.phi == ip(0, 1)

    data = torsion_data(pres((0, 1, 2)))
    assert data.torsion is None and data.torsion_exponent is None

    # x^3 itself is a monic relator, so the torsion is 1 even though the
    # minimal polynomial 2x^2 has content 2; the least monic degree stays 2
    data = torsion_data(pres((0, 0, 2), (0, 0, 0, 1)))
    assert (data.torsion, data.torsion_exponent) == (1, 2)
    assert data.torsion_witness.k == 1 and data.torsion_witness.phi == ip(0, 0, 0, 1)
    assert data.exponent_witness.k == 2 and data.exponent_witness.phi == ip(0, 0, 1)


def test_torsion_minimality_and_certificates():
    rng = random.Random(33)
    checked = 0
    for _ in range(80):
        p = Presentation([random_zero_const_poly(rng, 4, 6) for _ in range(rng.randint(1, 2))])
        data = torsion_data(p)
        if data.torsion is None:
            continue
        checked += 1
        assert data.torsion_witness.verify(p)
        assert data.exponent_witness.verify(p)
        assert data.torsion_exponent == minimal_polynomial(p).degree
        # exhaustive: no smaller multiplier admits a monic multiple
        for k in range(1, data.torsion):
            assert monic_multiple_search(p, k) is None
    assert checked >= 15


def test_torsion_descent_from_a_large_content(monkeypatch):
    import finsep.invariants as inv

    calls = []

    def recording_search(presentation, k):
        calls.append(k)
        return monic_multiple_search(presentation, k)

    monkeypatch.setattr(inv, "monic_multiple_search", recording_search)
    # content 9699690 = 2*3*...*19; the successful multipliers are the
    # multiples of 30030 = 2*3*...*13, reached by shifting the second
    # relation and combining the two by Bezout
    p = pres(ip(0, -1, 1).scale(9699690).coeffs, ip(0, 0, -1, 1).scale(690690).coeffs)
    data = torsion_data(p)
    assert (data.torsion, data.torsion_exponent) == (30030, 2)
    assert data.torsion_witness.k == 30030 and data.torsion_witness.verify(p)
    assert data.exponent_witness.phi == ip(0, -1, 1)
    # the exponent witness is the content times the monic primitive part,
    # and no multiplier is searched twice
    assert data.exponent_witness.k == 9699690
    assert len(calls) == len(set(calls))
    for q in (2, 3, 5, 7, 11, 13):
        assert monic_multiple_search(p, 30030 // q) is None


def test_torsion_data_certifies_each_returned_witness_once(monkeypatch):
    # torsion_data reads search hits only; each relation it returns gets one
    # membership certificate, and a shared witness gets one in all
    import finsep.ideal as ideal_module
    import finsep.invariants as inv

    claims = []
    real = ideal_module.membership

    def counting(g, presentation):
        claims.append(g)
        return real(g, presentation)

    monkeypatch.setattr(ideal_module, "membership", counting)
    monkeypatch.setattr(inv, "membership", counting)
    cases = [
        ((0, -1, 1),),
        ((0, 0, 2), (0, 0, 0, 1)),
        (ip(0, -1, 1).scale(9699690).coeffs, ip(0, 0, -1, 1).scale(690690).coeffs),
    ]
    for relators in cases:
        claims.clear()
        data = torsion_data(pres(*relators))
        returned = [data.torsion_witness]
        if data.exponent_witness is not data.torsion_witness:
            returned.append(data.exponent_witness)
        assert claims == [w.phi.scale(w.k) for w in returned]
    assert len(returned) == 2


def test_torsion_one_never_factors_the_content(monkeypatch):
    import finsep
    from finsep.intarith import factorize

    # content (10^6 + 3)(10^6 + 33), both prime: trial division to 10^6
    # leaves it whole; x^2 - x is monic, so tau = 1 needs no factorization
    d = 1000003 * 1000033

    def no_factorize(n):
        raise AssertionError(f"factorize({n}) called")

    # every finsep module that holds it by name
    for module in [m for m in vars(finsep).values()
                   if getattr(m, "factorize", None) is factorize]:
        monkeypatch.setattr(module, "factorize", no_factorize)
    p = pres((0, d), (0, -1, 1))
    data = torsion_data(p)
    assert (data.torsion, data.torsion_exponent) == (1, 1)
    assert data.torsion_witness.k == 1 and data.torsion_witness.phi.degree == 2
    assert data.torsion_witness.verify(p)
    assert data.exponent_witness.k == d and data.exponent_witness.phi == ip(0, 1)
    assert ring_invariants(p).torsion == 1


def test_torsion_finite_implies_monic_primitive():
    rng = random.Random(34)
    for _ in range(80):
        p = Presentation([random_zero_const_poly(rng, 4, 6) for _ in range(rng.randint(1, 2))])
        data = torsion_data(p)
        if data.torsion is not None:
            assert content_split(minimal_polynomial(p)).primitive.is_monic()


def test_ring_invariants_aggregate():
    inv = ring_invariants(pres((0, 0, 2), (0, 0, 0, 1)))
    assert inv.algebraic_degree == 2
    assert inv.minimal_polynomial == ip(0, 0, 2)
    assert (inv.minimal_content, inv.minimal_primitive) == (2, ip(0, 0, 1))
    assert (inv.torsion, inv.torsion_exponent) == (1, 2)
    inv = ring_invariants(pres())
    assert inv.algebraic_degree is None and inv.torsion is None
    assert inv.minimal_polynomial is None


def test_ring_invariants_splits_the_minimal_polynomial_once(monkeypatch):
    import finsep.invariants as inv

    split = []

    def counting(f):
        split.append(f)
        return content_split(f)

    monkeypatch.setattr(inv, "content_split", counting)
    record = ring_invariants(pres((0, -6, 6)))
    assert (record.torsion, record.minimal_content) == (6, 6)
    assert split == [record.minimal_polynomial]


def relation_from_member(p, g):
    """From a nonzero member g of V: k = content(g) and the least-degree
    monic phi with k * phi in V, of degree at most deg g, certified."""
    k = content_split(g).content
    phi = monic_multiple_search(p, k)
    assert phi is not None
    return certified_relation(p, k, phi)


def test_relation_from_member_examples():
    p = pres((0, -1, 1))
    rel = relation_from_member(p, ip(0, -3, 3))
    assert (rel.k, rel.phi) == (3, ip(0, -1, 1))
    assert rel.verify(p)

    p = pres((0, -1, 0, 1), (0, -1, 1))
    g = ip(0, -1, 0, 1).scale(2) + ip(0, -1, 1) * ip(0, 1)   # 3x^3 - x^2 - 2x
    assert g == ip(0, -2, -1, 3)
    rel = relation_from_member(p, g)
    assert rel.k == 1
    assert rel.phi.degree <= 3
    assert rel.verify(p)

    p = pres((0, 0, 2), (0, 0, 0, 1), (0, 6))
    rel = relation_from_member(p, ip(0, 6))
    assert (rel.k, rel.phi) == (6, ip(0, 1))
    assert rel.verify(p)


def test_relation_from_member_random_members():
    rng = random.Random(35)
    done = 0
    while done < 60:
        p = Presentation([random_zero_const_poly(rng, 4, 6) for _ in range(rng.randint(1, 2))])
        mp = minimal_polynomial(p)
        if mp is None or not content_split(mp).primitive.is_monic():
            continue
        g = IntPoly()
        for r in p.relators:
            g = g + r * random_zero_const_poly(rng, 3, 5)
        if g.is_zero():
            continue
        rel = relation_from_member(p, g)
        assert rel.k == content_split(g).content
        assert rel.phi.degree <= g.degree
        assert rel.verify(p)
        done += 1
