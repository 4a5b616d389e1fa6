"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Expected values for the verdict corpus were derived with the
independent oracles in this file and in ``quotient_oracle`` (plain rational
Euclid, raw shift-lattice membership, exhaustive enumeration) and frozen.
"""

import itertools
import random
import time

import quotient_oracle as qo

from finsep.intarith import gcd_list, squarefree
from finsep.poly import IntPoly, RatPoly, clear_denominators, content_split, format_poly
from finsep.ideal import (
    Presentation,
    canonical_basis,
    membership,
    monic_multiple_search,
    normal_form,
    reduce_with_quotients,
)
from finsep.invariants import torsion_data
from finsep.separability import (
    NON_INTEGER_GAMMA,
    NON_SQUAREFREE_GCD,
    NO_RELATORS,
    decide,
    torsion_split,
)
from finsep.quotients import (
    FiniteRing,
    InfiniteQuotient,
    build_quotient,
    separate,
)


def ip(*ascending):
    return IntPoly(ascending)


def pres(*coeff_lists):
    return Presentation([IntPoly(c) for c in coeff_lists])


CORPUS = {
    "{x^2-x}": pres((0, -1, 1)),
    "{4x}": pres((0, 4)),
    "{2x^2+x}": pres((0, 1, 2)),
    "{2x}": pres((0, 2)),
    "{x^3-x, 6x^2-6x}": pres((0, -1, 0, 1), (0, -6, 6)),
    "{4x^2+2x, 2x^3+x^2}": pres((0, 2, 4), (0, 0, 1, 2)),
    "{2x^2, x^3}": pres((0, 0, 2), (0, 0, 0, 1)),
    "{}": pres(),
    "{6x}": pres((0, 6)),
}

SEPARABLE = {"{x^2-x}", "{2x}", "{x^3-x, 6x^2-6x}", "{2x^2, x^3}", "{6x}"}


def random_zero_const_poly(rng, max_degree, max_coeff, nonzero=False):
    while True:
        coeffs = [0] + [rng.randint(-max_coeff, max_coeff) for _ in range(max_degree)]
        p = IntPoly(coeffs)
        if not nonzero or not p.is_zero():
            return p


def random_presentation(rng, max_relators=3, max_degree=6, max_coeff=20):
    return Presentation(
        [random_zero_const_poly(rng, rng.randint(1, max_degree), max_coeff)
         for _ in range(rng.randint(1, max_relators))]
    )


def test_criterion_1_verdict_corpus():
    start = time.monotonic()
    verdicts = {name: decide(p) for name, p in CORPUS.items()}

    assert verdicts["{x^2-x}"].separable
    assert verdicts["{x^2-x}"].positive_witness.phi == ip(0, -1, 1)

    v = verdicts["{4x}"]
    assert not v.separable and v.failure_reason.kind == NON_SQUAREFREE_GCD
    assert v.failure_reason.prime == 2

    v = verdicts["{2x^2+x}"]
    assert not v.separable and v.failure_reason.kind == NON_INTEGER_GAMMA
    assert v.rational_gcd.gamma == RatPoly((0, "1/2", 1))

    v = verdicts["{2x}"]
    assert v.separable and v.coefficient_gcd == 2
    assert squarefree(2).is_squarefree
    assert v.rational_gcd.gamma == RatPoly((0, 1))

    assert verdicts["{x^3-x, 6x^2-6x}"].separable

    v = verdicts["{4x^2+2x, 2x^3+x^2}"]
    assert not v.separable and v.failure_reason.kind == NON_INTEGER_GAMMA
    assert v.coefficient_gcd == 1

    v = verdicts["{2x^2, x^3}"]
    assert v.separable
    data = torsion_data(CORPUS["{2x^2, x^3}"])
    # x^3 is itself a monic relator, so the least multiplier is 1 (not the
    # minimal-polynomial content 2); the least monic degree is 2 via 2*x^2
    assert (data.torsion, data.torsion_exponent) == (1, 2)
    assert data.torsion_witness.verify(CORPUS["{2x^2, x^3}"])

    v = verdicts["{}"]
    assert not v.separable and v.failure_reason.kind == NO_RELATORS

    v = verdicts["{6x}"]
    assert v.separable and v.coefficient_gcd == 6
    split = torsion_split(v.squarefree_witness)
    assert split.parts == ((2, 3), (3, 2))
    z = split.bezout_coefficients
    assert 3 * z[0] + 2 * z[1] == 1

    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"corpus took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 verdict corpus: PASS ({elapsed:.3f}s)")


def test_criterion_2_certificate_soundness():
    start = time.monotonic()
    rng = random.Random(101)
    presentations = list(CORPUS.values())
    presentations += [random_presentation(rng) for _ in range(200)]
    n_sep = n_neg = 0
    for p in presentations:
        v = decide(p)
        if v.separable:
            n_sep += 1
            w = v.positive_witness
            assert w.k == v.coefficient_gcd
            assert w.phi.is_monic() and w.phi.constant == 0
            # independent re-verification: multiply the cofactors out
            total = IntPoly()
            for c, r in zip(w.certificate.cofactors, p.relators):
                total = total + c * r
            assert total == w.phi.scale(w.k)
            assert squarefree(w.k).is_squarefree
        elif v.failure_reason.kind == NON_SQUAREFREE_GCD:
            n_neg += 1
            sq = v.failure_reason.prime ** 2
            assert all(c % sq == 0 for r in p.relators for c in r.coeffs)
        elif v.failure_reason.kind == NON_INTEGER_GAMMA:
            n_neg += 1
            c = v.rational_gcd.gamma[v.failure_reason.coefficient_index]
            assert c == v.failure_reason.coefficient and c.denominator > 1
            # re-multiply over Z with one common denominator l
            _, (l_gamma, *l_cofs) = clear_denominators(
                [v.rational_gcd.gamma, *v.rational_gcd.cofactors])
            total = IntPoly()
            for cof, r in zip(l_cofs, p.relators):
                total = total + cof * r
            assert total == l_gamma
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    assert n_sep >= 20 and n_neg >= 20
    print(f"\nACCEPTANCE 2 certificate soundness: PASS "
          f"({n_sep} separable, {n_neg} negative, {elapsed:.1f}s)")


def test_criterion_3_normal_form_properties():
    rng = random.Random(102)
    for _ in range(500):
        p = random_presentation(rng, max_relators=3, max_degree=5, max_coeff=12)
        basis = canonical_basis(p)
        g = random_zero_const_poly(rng, 8, 15)
        nf = normal_form(g, basis)
        assert normal_form(nf, basis) == nf
        member_part = IntPoly()
        for r in p.relators:
            member_part = member_part + r * random_zero_const_poly(rng, 3, 8)
        assert normal_form(g + member_part, basis) == nf
        is_member, cert = membership(member_part, p)
        assert is_member
        total = IntPoly()
        for c, r in zip(cert.cofactors, p.relators):
            total = total + c * r
        assert total == member_part
    print("\nACCEPTANCE 3 normal-form properties: PASS (500 pairs)")


def test_criterion_4_rational_gcd_properties():
    from finsep.poly import gcd_q

    for name, p in CORPUS.items():
        if not p.relators:
            continue
        res = gcd_q(p.relators)
        gamma = res.gamma
        # gamma divides each relator over Q: by Gauss's lemma, the
        # primitive part of gamma with its denominators cleared divides
        # it over Z
        _, (cleared, *cleared_cofs) = clear_denominators([gamma, *res.cofactors])
        primitive = content_split(cleared).primitive
        assert all(primitive.divides(r) for r in p.relators)
        # the Bezout identity re-multiplies over Z
        total = IntPoly()
        for c, r in zip(cleared_cofs, p.relators):
            total = total + c * r
        assert total == cleared
        l = res.denominator_lcm
        assert all((l * c).denominator == 1 for c in gamma.coeffs)
        l_gamma = IntPoly(int(l * c) for c in gamma.coeffs)
        basis = canonical_basis(p)
        assert normal_form(l_gamma, basis).is_zero()
    print("\nACCEPTANCE 4 rational gcd and l*gamma in V: PASS")


def _tables(ring):
    elements = list(qo.carrier(ring))
    index = {u: i for i, u in enumerate(elements)}
    add = [[index[qo.add(ring, u, v)] for v in elements] for u in elements]
    mul = [[index[ring.mul(u, v)] for v in elements] for u in elements]
    return elements, index, add, mul


def test_criterion_5_finite_quotient_suite():
    rng = random.Random(103)
    checked = 0
    for name, p in CORPUS.items():
        for q in range(2, 10):
            ring = build_quotient(p, q)
            if isinstance(ring, InfiniteQuotient) or ring.carrier_size > 512:
                continue
            checked += 1
            elements, index, add, mul = _tables(ring)
            n = len(elements)
            zero = index[qo.zero(ring)]
            neg = [index[qo.neg(ring, u)] for u in elements]
            for i in range(n):
                assert add[i][zero] == i
                assert add[i][neg[i]] == zero
                assert mul[i][zero] == zero and mul[zero][i] == zero
                for j in range(n):
                    assert add[i][j] == add[j][i]
            for i, j, k in itertools.product(range(n), repeat=3):
                assert add[add[i][j]][k] == add[i][add[j][k]]
                assert mul[mul[i][j]][k] == mul[i][mul[j][k]]
                assert mul[i][add[j][k]] == add[mul[i][j]][mul[i][k]]
                assert mul[add[i][j]][k] == add[mul[i][k]][mul[j][k]]
            for _ in range(100):
                u = random_zero_const_poly(rng, 6, 12)
                v = random_zero_const_poly(rng, 6, 12)
                assert ring.image(u + v) == qo.add(ring, ring.image(u), ring.image(v))
                assert ring.image(u * v) == ring.mul(ring.image(u), ring.image(v))
    assert checked >= 12
    print(f"\nACCEPTANCE 5 finite quotient suite: PASS ({checked} quotients)")


def _has_nontrivial_finite_quotient(p, bound):
    for q in range(2, bound + 1):
        ring = build_quotient(p, q)
        if isinstance(ring, FiniteRing) and ring.carrier_size > 1:
            return True
    return False


def test_criterion_6_separation_end_to_end():
    start = time.monotonic()
    rng = random.Random(104)
    for name in sorted(SEPARABLE):
        p = CORPUS[name]
        if not _has_nontrivial_finite_quotient(p, 64):
            # e.g. with 2a = 0, the ideal qK is {0} or everything, so all
            # quotients of this shape are infinite or one-element; no
            # (target, subring) pair can qualify
            print(f"\nACCEPTANCE 6 [{name}]: no nontrivial finite quotient "
                  "of this shape exists; vacuous")
            continue
        successes = 0
        attempts = 0
        while successes < 20:
            attempts += 1
            assert attempts <= 400, f"{name}: too many failed samples"
            target = random_zero_const_poly(rng, 4, 9, nonzero=True)
            gens = [random_zero_const_poly(rng, 4, 9)
                    for _ in range(rng.randint(0, 2))]
            result = separate(p, target, gens, 64)
            if not result.found:
                continue
            ring = result.quotient
            # independent re-verification of the separation
            closure = qo.naive_closure(ring, gens)
            assert closure == result.subring_image
            assert ring.image(target) not in closure
            assert ring.image(target) == result.image_of_target
            successes += 1
        print(f"\nACCEPTANCE 6 [{name}]: PASS "
              f"({successes}/{attempts} sampled pairs separated)")
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(f"ACCEPTANCE 6 separation end-to-end: PASS ({elapsed:.1f}s)")


def test_criterion_7_monic_relation_extraction():
    rng = random.Random(105)
    done = 0
    pool = [CORPUS[name] for name in sorted(SEPARABLE)]
    while done < 100:
        p = rng.choice(pool + [random_presentation(rng, 2, 4, 9)])
        if not decide(p).separable:
            continue
        g = IntPoly()
        for r in p.relators:
            g = g + r * random_zero_const_poly(rng, 3, 8)
        if g.is_zero():
            continue
        # g is a member of V, so content(g) times some monic of degree at
        # most deg g is one too: the search finds the least such monic
        rel = monic_multiple_search(p, g.content)
        assert rel is not None and rel.k == g.content
        assert rel.phi.is_monic() and rel.phi.constant == 0
        assert rel.phi.degree <= g.degree
        total = IntPoly()
        for c, r in zip(rel.certificate.cofactors, p.relators):
            total = total + c * r
        assert total == rel.phi.scale(rel.k)
        done += 1
    print("\nACCEPTANCE 7 constructive extraction: PASS (100 members)")
