import random
from fractions import Fraction

import pytest

from finsep.poly import IntPoly, RatPoly
from finsep.ideal import Presentation, canonical_basis, membership, monic_multiple_search
from finsep.intarith import gcd_list, squarefree
from finsep.invariants import certified_relation, torsion_data
from finsep.separability import (
    NON_INTEGER_GAMMA,
    NON_SQUAREFREE_GCD,
    NO_RELATORS,
    NotSquarefreeError,
    UnitInputError,
    decide,
    torsion_split,
)


def ip(*ascending):
    return IntPoly(ascending)


def pres(*coeff_lists):
    return Presentation([IntPoly(c) for c in coeff_lists])


def random_zero_const_poly(rng, max_degree=5, max_coeff=10):
    return IntPoly([0] + [rng.randint(-max_coeff, max_coeff) for _ in range(max_degree)])


def test_decide_monic_relator():
    v = decide(pres((0, -1, 1)))
    assert v.separable
    assert v.coefficient_gcd == 1
    assert v.rational_gcd.gamma == RatPoly((0, -1, 1))
    assert v.positive_witness.k == 1
    assert v.positive_witness.phi == ip(0, -1, 1)
    assert v.positive_witness.verify(v.presentation)


def test_decide_square_torsion():
    v = decide(pres((0, 4)))
    assert not v.separable
    assert v.failure_reason.kind == NON_SQUAREFREE_GCD
    assert v.failure_reason.prime == 2
    # the square really divides every relator coefficient
    for r in v.presentation.relators:
        assert all(c % 4 == 0 for c in r.coeffs)


def test_decide_non_integer_gamma():
    v = decide(pres((0, 1, 2)))
    assert not v.separable
    assert v.failure_reason.kind == NON_INTEGER_GAMMA
    assert v.failure_reason.coefficient_index == 1
    assert v.failure_reason.coefficient == Fraction(1, 2)
    assert v.rational_gcd.gamma[1] == Fraction(1, 2)


def test_decide_prime_torsion():
    v = decide(pres((0, 2)))
    assert v.separable
    assert v.coefficient_gcd == 2
    assert v.rational_gcd.gamma == RatPoly((0, 1))
    assert v.positive_witness.k == 2 and v.positive_witness.phi == ip(0, 1)


def test_decide_two_relator_separable():
    v = decide(pres((0, -1, 0, 1), (0, -6, 6)))
    assert v.separable
    assert v.coefficient_gcd == 1
    assert v.rational_gcd.gamma == RatPoly((0, -1, 1))


def test_decide_non_integer_gamma_with_unit_gcd():
    v = decide(pres((0, 2, 4), (0, 0, 1, 2)))
    assert not v.separable
    assert v.coefficient_gcd == 1
    assert v.failure_reason.kind == NON_INTEGER_GAMMA
    assert v.rational_gcd.gamma == RatPoly((0, Fraction(1, 2), 1))


def test_decide_empty_presentation():
    v = decide(pres())
    assert not v.separable
    assert v.failure_reason.kind == NO_RELATORS
    assert v.coefficient_gcd == 0
    assert v.squarefree_witness is None and v.rational_gcd is None


def test_decide_condition_order_prefers_squarefree_failure():
    # both conditions fail; the coefficient-gcd failure is reported
    v = decide(pres((0, 4, 8)))
    assert v.failure_reason.kind == NON_SQUAREFREE_GCD


def test_witness_examples():
    w = decide(pres((0, -1, 1))).positive_witness
    assert (w.k, w.phi) == (1, ip(0, -1, 1))

    v = decide(pres((0, 0, 2)))
    assert v.separable
    assert (v.positive_witness.k, v.positive_witness.phi) == (2, ip(0, 0, 1))

    # the rational gcd x^3 - x is not itself a relation here (only 6 times
    # it is); the least-degree monic relation at k = 1 is x^4 - x^2
    p = pres((0, -6, 0, 6), (0, 0, -1, 0, 1))
    v = decide(p)
    assert v.separable and v.positive_witness.k == 1
    member, _ = membership(ip(0, -1, 0, 1), p)
    assert not member
    assert v.positive_witness.phi == ip(0, 0, -1, 0, 1)
    assert v.positive_witness.verify(p)


def test_the_witness_is_the_relation_extracted_from_the_shifted_relators():
    # the relators, shifted into disjoint degree ranges and summed, form a
    # member g of V whose content is the coefficient gcd; decide searches
    # to deg g and certifies the relation that search from g yields
    rng = random.Random(40)
    contents = (1, 2, 3, 6, 30)
    checked = 0
    while checked < 300:
        k = contents[checked % len(contents)]
        p = Presentation([random_zero_const_poly(rng, 4, 9).scale(k)
                          for _ in range(rng.randint(1, 3))])
        v = decide(p)
        if not v.separable or v.coefficient_gcd != k:
            continue
        g, shift = IntPoly(), 0
        for r in p.relators:
            g, shift = g + r.shift(shift), shift + r.degree
        member, cert = membership(g, p)
        assert member and cert.verify(p)
        assert g.content == gcd_list(c for r in p.relators for c in r.coeffs) == k
        phi = monic_multiple_search(p, k)
        assert v.positive_witness == certified_relation(p, k, phi)
        checked += 1


def test_verdict_invariance_under_redundant_members():
    rng = random.Random(41)
    for _ in range(60):
        relators = [random_zero_const_poly(rng, 4, 6) for _ in range(rng.randint(1, 2))]
        p = Presentation(relators)
        if not p.relators:
            continue
        v = decide(p)
        extra = IntPoly()
        for r in relators:
            extra = extra + r * random_zero_const_poly(rng, 2, 4)
        v2 = decide(Presentation(relators + [extra]))
        assert v2.separable == v.separable
        shuffled = relators[:]
        rng.shuffle(shuffled)
        assert decide(Presentation(shuffled)).separable == v.separable


def test_separable_certificates_two_sided():
    rng = random.Random(42)
    for _ in range(80):
        p = Presentation([random_zero_const_poly(rng, 4, 8)
                          for _ in range(rng.randint(1, 3))])
        v = decide(p)
        if v.separable:
            w = v.positive_witness
            assert w.k == v.coefficient_gcd
            assert v.squarefree_witness.is_squarefree
            assert w.verify(p)
        elif v.failure_reason.kind == NON_SQUAREFREE_GCD:
            q = v.failure_reason.prime ** 2
            assert all(c % q == 0 for r in p.relators for c in r.coeffs)
        elif v.failure_reason.kind == NON_INTEGER_GAMMA:
            c = v.rational_gcd.gamma[v.failure_reason.coefficient_index]
            assert c.denominator != 1 and c == v.failure_reason.coefficient


def test_torsion_consistency_on_separable_instances():
    # Lemma-4 style consistency: the torsion divides the witness multiplier
    # and is squarefree
    rng = random.Random(43)
    for _ in range(60):
        p = Presentation([random_zero_const_poly(rng, 4, 6) for _ in range(rng.randint(1, 2))])
        v = decide(p)
        if not v.separable:
            continue
        data = torsion_data(p)
        assert data.torsion is not None
        assert v.coefficient_gcd % data.torsion == 0
        from finsep.intarith import squarefree
        assert squarefree(data.torsion).is_squarefree
        # torsion exponent equals the algebraic degree here
        from finsep.invariants import minimal_polynomial
        assert data.torsion_exponent == minimal_polynomial(p).degree


def test_separable_decide_builds_one_certificate(monkeypatch):
    # the witness is certified once: one membership call and one
    # re-multiplication, none in the search or after it
    import finsep.ideal as ideal_module
    import finsep.invariants as inv

    calls = {"membership": 0, "verify": 0}
    real_membership = ideal_module.membership
    real_verify = ideal_module.MembershipCertificate.verify

    def counting_membership(g, presentation):
        calls["membership"] += 1
        return real_membership(g, presentation)

    def counting_verify(self, presentation):
        calls["verify"] += 1
        return real_verify(self, presentation)

    monkeypatch.setattr(ideal_module, "membership", counting_membership)
    monkeypatch.setattr(inv, "membership", counting_membership)
    monkeypatch.setattr(ideal_module.MembershipCertificate, "verify", counting_verify)
    for relators in [((0, -1, 1),), ((0, 2, 4), (0, 0, 6, 6)),
                     ((0, -3, 3), (0, 0, 5, 5), (0, -1, 0, 1))]:
        p = pres(*relators)
        canonical_basis(p)  # the basis checks its own rows; count decide only
        calls.update(membership=0, verify=0)
        v = decide(p)
        assert v.separable
        assert calls == {"membership": 1, "verify": 1}


def test_torsion_split_examples():
    split = torsion_split(squarefree(6))
    assert split.parts == ((2, 3), (3, 2))
    z = split.bezout_coefficients
    assert 3 * z[0] + 2 * z[1] == 1
    split = torsion_split(squarefree(2))
    assert split.parts == ((2, 1),) and split.bezout_coefficients == (1,)
    split = torsion_split(squarefree(30))
    assert split.parts == ((2, 15), (3, 10), (5, 6))
    assert split.verify()


def test_torsion_split_errors():
    with pytest.raises(NotSquarefreeError):
        torsion_split(squarefree(12))
    with pytest.raises(UnitInputError):
        torsion_split(squarefree(1))
