import functools
import itertools
import math
import random

import pytest

import quotient_oracle as qo

import finsep.quotients as quotients
from finsep.poly import IntPoly
from finsep.intarith import factorize
from finsep.intarith import SelfCheckError
from finsep.ideal import Presentation, canonical_basis
from finsep.separability import decide, torsion_split
from finsep.quotients import (
    FiniteRing,
    InfiniteQuotient,
    InvalidModulusError,
    build_quotient,
    modulus_order,
    separate,
    subring_closure,
)


def ip(*ascending):
    return IntPoly(ascending)


def pres(*coeff_lists):
    return Presentation([IntPoly(c) for c in coeff_lists])


def random_zero_const_poly(rng, max_degree=5, max_coeff=10):
    return IntPoly([0] + [rng.randint(-max_coeff, max_coeff) for _ in range(max_degree)])


def exhaustive_ring_axioms(ring: FiniteRing):
    """Associativity, distributivity and the additive group, exhaustively."""
    elements = list(qo.carrier(ring))
    add, neg = functools.partial(qo.add, ring), functools.partial(qo.neg, ring)
    mul, zero = ring.mul, qo.zero(ring)
    for u in elements:
        assert add(u, zero) == u
        assert add(u, neg(u)) == zero
        assert mul(u, zero) == zero and mul(zero, u) == zero
    for u, v in itertools.product(elements, repeat=2):
        assert add(u, v) == add(v, u)
    for u, v, w in itertools.product(elements, repeat=3):
        assert add(add(u, v), w) == add(u, add(v, w))
        assert mul(mul(u, v), w) == mul(u, mul(v, w))
        assert mul(u, add(v, w)) == add(mul(u, v), mul(u, w))
        assert mul(add(u, v), w) == add(mul(u, w), mul(v, w))


def test_build_quotient_idempotent_generator():
    ring = build_quotient(pres((0, -1, 1)), 2)
    assert isinstance(ring, FiniteRing)
    assert ring.standard_monomials == (1,)
    assert ring.position_moduli == (2,)
    assert ring.carrier_size == 2
    a = ring.generator()
    assert ring.mul(a, a) == a
    assert sorted(qo.carrier(ring)) == [(0,), (1,)]


def test_build_quotient_collapses_to_zero_ring():
    # 2x^2 + x = 0 and 2 = 0 force x = 0: one-element ring
    ring = build_quotient(pres((0, 1, 2)), 2)
    assert isinstance(ring, FiniteRing)
    assert ring.standard_monomials == ()
    assert ring.carrier_size == 1
    assert ring.image(ip(0, 5, 3)) == ()


def test_build_quotient_free_ring_is_infinite():
    result = build_quotient(pres(), 2)
    assert isinstance(result, InfiniteQuotient)
    assert result.obstruction == ((1, 2),)


def test_build_quotient_rejects_bad_modulus():
    with pytest.raises(InvalidModulusError):
        build_quotient(pres((0, 1)), 1)


def test_position_moduli_divide_modulus():
    # {x^3 - x, 6x^2 - 6x} mod 4 keeps x^1 mod 4 but x^2 only mod 2
    ring = build_quotient(pres((0, -1, 0, 1), (0, -6, 6)), 4)
    assert ring.standard_monomials == (1, 2)
    assert ring.position_moduli == (4, 2)
    assert ring.carrier_size == 8
    exhaustive_ring_axioms(ring)


def test_prime_modulus_gives_full_positions():
    rng = random.Random(50)
    for _ in range(60):
        p = Presentation([random_zero_const_poly(rng, 4, 6)
                          for _ in range(rng.randint(1, 2))])
        for q in (2, 3, 5):
            ring = build_quotient(p, q)
            if isinstance(ring, InfiniteQuotient):
                continue
            assert all(m == q for m in ring.position_moduli)
            assert ring.carrier_size == q ** len(ring.standard_monomials)


SMALL_CARRIERS = [
    (pres((0, -1, 1)), 2),
    (pres((0, -1, 1)), 6),
    (pres((0, 0, 2), (0, 0, 0, 1)), 2),
    (pres((0, 0, 2), (0, 0, 0, 1)), 4),
    (pres((0, -1, 0, 1), (0, -6, 6)), 3),
    (pres((0, -1, 0, 1), (0, -6, 6)), 4),
    (pres((0, -6, 6)), 5),
    (pres((0, 1, 2)), 2),
]

# prime-power moduli; the first and last ladders have a lead strictly
# between 1 and q
PRIME_POWER_CARRIERS = [
    (pres((0, -1, 0, 1), (0, 0, 4)), 8),
    (pres((0, 1, 1, 1)), 9),
    (pres((0, 2, 0, 0, 1)), 4),
    (pres((0, 3, 0, 1), (0, 0, 9)), 27),
]


def test_ring_axioms_exhaustive_small_carriers():
    for p, q in SMALL_CARRIERS:
        ring = build_quotient(p, q)
        assert isinstance(ring, FiniteRing)
        assert ring.carrier_size <= 512
        exhaustive_ring_axioms(ring)


def test_list_arithmetic_matches_images_of_polynomial_arithmetic():
    # mul reduces a coefficient list without building an IntPoly; it must
    # agree with the image of the product done on polynomials, on every
    # pair of every small carrier
    for p, q in SMALL_CARRIERS + PRIME_POWER_CARRIERS:
        ring = build_quotient(p, q)
        assert ring.carrier_size <= 512
        for u, v in itertools.product(qo.carrier(ring), repeat=2):
            want = ring.image(ring.to_poly(u) * ring.to_poly(v))
            assert ring.mul(u, v) == want, (p, q, u, v)
    assert any(len(set(build_quotient(p, q).position_moduli)) > 1
               for p, q in PRIME_POWER_CARRIERS)


def test_carrier_size_matches_enumerated_images():
    # every coefficient vector over x^1 .. x^(n-1) with entries in [0, q)
    # is a preimage, so the distinct images are the whole carrier; on the
    # prime-power ladders, whose leads lie strictly between 1 and q, the
    # span seeded with staircase rows closes like the whole-set fixpoint
    for p, q in SMALL_CARRIERS + PRIME_POWER_CARRIERS:
        ring = build_quotient(p, q)
        vectors = itertools.product(range(q), repeat=ring.monic_degree - 1)
        images = {ring.image(IntPoly((0, *v))) for v in vectors}
        assert len(images) == ring.carrier_size, (p, q)
        assert images == set(qo.carrier(ring))
        for gens in ([], [ip(0, 3)], [ip(0, 0, 1)], [ip(0, 0, 2), ip(0, 0, 0, 3)]):
            closure = qo.naive_closure(ring, gens)
            assert subring_closure(ring, gens) == closure, (p, q, gens)


def test_torsion_only_presentations_have_no_useful_finite_quotient():
    # with 2a = 0 the ideal qK is 0 for even q and everything for odd q,
    # so the only quotients of this shape are infinite or one-element
    for q in range(2, 20):
        ring = build_quotient(pres((0, 2)), q)
        if q % 2 == 0:
            assert isinstance(ring, InfiniteQuotient)
        else:
            assert isinstance(ring, FiniteRing) and ring.carrier_size == 1


def test_quotient_is_infinite_exactly_when_the_modulus_meets_the_content():
    # separate skips a modulus sharing a prime with the coefficient gcd
    # before building it; this is the claim that makes the skip safe
    rng = random.Random(52)
    cases = [pres()]
    for content in (1, 1, 2, 3, 4, 6, 10, 12, 15, 30, 49):
        cases.append(Presentation(
            [random_zero_const_poly(rng, rng.randint(1, 4), 9).scale(content)
             for _ in range(rng.randint(1, 2))]
        ))
    for p in cases:
        content = math.gcd(*(c for r in p.relators for c in r.coeffs))
        for q in range(2, 101):
            infinite = isinstance(build_quotient(p, q), InfiniteQuotient)
            assert infinite == (math.gcd(q, content) > 1), (p, q)


def test_separate_builds_no_quotient_that_meets_the_content(monkeypatch):
    # every built modulus is coprime to the content; a batch builds one
    # quotient, at its lcm, and only the returned modulus gets its own,
    # completed once through canonical_basis after the batch that holds it
    built, completed = [], []

    def recording_build(presentation, q):
        built.append(q)
        return build_quotient(presentation, q)

    def recording_basis(presentation):
        completed.append(presentation)
        return canonical_basis(presentation)

    monkeypatch.setattr(quotients, "build_quotient", recording_build)
    monkeypatch.setattr(quotients, "canonical_basis", recording_basis)
    coprime = [q for q in modulus_order(30) if math.gcd(q, 6) == 1]
    cases = [
        (pres((0, -6, 0, 6), (0, 0, 6, 12)), ip(0, 1), [ip(0, 0, 1)], False),
        # 13x generates x modulo every q but 13
        (pres((0, -6, 6)), ip(0, 1), [ip(0, 13)], True),
    ]
    for bits in (quotients._BATCH_BITS, 8):
        monkeypatch.setattr(quotients, "_BATCH_BITS", bits)
        lcms = [lcm for _, lcm in quotients._batches(coprime)]
        for p, target, gens, found in cases:
            built.clear()
            completed.clear()
            res = separate(p, target, gens, 30)
            assert res.found == found
            assert built and all(math.gcd(q, 6) == 1 for q in built)
            assert built == lcms[:len(built)]
            if found:
                assert res.modulus == 13 and built[-1] % res.modulus == 0
                assert completed == [Presentation(p.relators + (ip(0, 13),))]
            else:
                assert completed == []
    assert len(lcms) > 1


def per_modulus_sweep(p, target, gens, bound):
    """(modulus, target image, closure) of the first separating quotient.

    One quotient and one span per modulus; the closure is materialized
    only where the target escapes the span, since a swept closure can
    hold q**dim elements.
    """
    content = math.gcd(*(c for r in p.relators for c in r.coeffs))
    for q in modulus_order(bound):
        if math.gcd(q, content) > 1:
            continue
        ring = build_quotient(p, q)
        img = ring.image(target)
        if not quotients._SubringSpan(ring, gens).contains(img):
            return q, img, subring_closure(ring, gens)
    return None


def test_batched_separate_matches_a_per_modulus_sweep(monkeypatch):
    rng = random.Random(55)
    primes = modulus_order(200)[:46]  # the primes up to 200
    cap = quotients._BATCH_BITS
    found = multi = 0
    for i in range(90):
        c = rng.choice((1, 2, 3, 6, 10, 30))
        # one or two multiples of a monic f: random relators mostly kill x
        f = IntPoly([0] + [rng.randint(-5, 5) for _ in range(rng.randint(0, 2))] + [1])
        p = Presentation([(f * IntPoly((rng.randint(-3, 3), 1))).scale(c)
                          for _ in range(rng.randint(1, 2))])
        # a cap of 12 bits splits small bounds into several batches; bound
        # 800 spans two batches at the default cap
        bound, bits = [(rng.randint(2, 40), cap), (rng.randint(20, 60), 12),
                       (800, cap)][(i // 3) % 3]
        kind = i % 3
        if kind == 0:  # inside the subring: the whole bound is swept
            gens = [random_zero_const_poly(rng, rng.randint(1, 3), 3) for _ in range(2)]
            target = gens[0] * gens[1] + gens[0].scale(rng.randint(-3, 3))
        elif kind == 1:
            gens = [random_zero_const_poly(rng, rng.randint(2, 3), 3)
                    for _ in range(rng.randint(1, 2))]
            target = random_zero_const_poly(rng, rng.randint(1, 3), 5)
        else:  # q*(x + P*h) generates x below q, P the primes below q
            q = rng.choice([q for q in primes if q <= bound and c % q] or [2])
            h = random_zero_const_poly(rng, rng.randint(1, 2), 3)
            gens = [(ip(0, 1) + h.scale(math.prod(primes[:primes.index(q)]))).scale(q)]
            target = ip(0, 1)
        monkeypatch.setattr(quotients, "_BATCH_BITS", bits)
        candidates = [q for q in modulus_order(bound) if math.gcd(q, c) == 1]
        multi += len(list(quotients._batches(candidates))) > 1
        res = separate(p, target, gens, bound)
        want = per_modulus_sweep(p, target, gens, bound)
        if want is None:
            assert not res.found and res.bound_exhausted == bound
            assert res.modulus is res.quotient is res.subring_image is None
            continue
        found += 1
        assert res.found and res.bound_exhausted is None
        assert (res.modulus, res.image_of_target, res.subring_image) == want
        assert res.quotient == build_quotient(p, res.modulus)
    assert found >= 30 and multi >= 50


def test_an_inside_target_decides_each_batch_with_one_echelon(monkeypatch):
    # the target lies in the subring, so each batch's mod-N span holds its
    # image and no modulus of the batch gets an echelon of its own
    built = []

    class CountingEchelon(quotients._Echelon):
        def __init__(self, modulus):
            built.append(modulus)
            super().__init__(modulus)

    monkeypatch.setattr(quotients, "_Echelon", CountingEchelon)
    monkeypatch.setattr(quotients, "_BATCH_BITS", 12)
    res = separate(pres((0, 2, -3, 1, 0, 1)), ip(0, 0, 3, 3, 1),
                   [ip(0, 1, 1), ip(0, 0, 2, 1)], 100)
    assert not res.found and res.bound_exhausted == 100
    lcms = [lcm for _, lcm in quotients._batches(modulus_order(100))]  # content 1
    assert len(lcms) > 1 and built == lcms


def test_span_of_one_generator_multiplies_once_per_inserted_element(monkeypatch):
    ring = build_quotient(pres((0, -1, 0, 0, 0, 1)), 2)
    calls = {"mul": 0, "add": 0}
    mul, add = FiniteRing.mul, quotients._Echelon.add

    def counting_mul(self, u, v):
        calls["mul"] += 1
        return mul(self, u, v)

    def counting_add(self, vec):
        calls["add"] += 1
        return add(self, vec)

    monkeypatch.setattr(FiniteRing, "mul", counting_mul)
    monkeypatch.setattr(quotients._Echelon, "add", counting_add)
    span = quotients._SubringSpan(ring, [ip(0, 1)])
    inserted = calls["add"] - span.dim  # the staircase rows come first
    assert inserted >= 4
    assert calls["mul"] <= inserted
    monkeypatch.undo()
    assert span.materialize() == qo.naive_closure(ring, [ip(0, 1)])


def test_batch_cap_splits_bound_3000(monkeypatch):
    order = modulus_order(3000)
    batches = list(quotients._batches(order))
    assert len(batches) > 1
    assert [q for batch, _ in batches for q in batch] == order
    for batch, lcm in batches:
        assert lcm == math.lcm(*batch)
        assert lcm.bit_length() <= quotients._BATCH_BITS
    # each batch stops only where its next modulus would pass the cap
    for (_, lcm), (after, _) in zip(batches, batches[1:]):
        assert math.lcm(lcm, after[0]).bit_length() > quotients._BATCH_BITS
    # a sweep of the whole bound builds the batch quotients only
    built = []

    def recording_build(presentation, q):
        built.append(q)
        return build_quotient(presentation, q)

    monkeypatch.setattr(quotients, "build_quotient", recording_build)
    res = separate(pres((0, -1, 0, 1)), ip(0, 0, 1), [ip(0, 1)], 3000)
    assert not res.found
    assert built == [lcm for _, lcm in batches]


def test_canonical_map_is_a_homomorphism():
    rng = random.Random(51)
    for _ in range(40):
        p = Presentation([random_zero_const_poly(rng, 4, 6)
                          for _ in range(rng.randint(1, 2))])
        q = rng.choice([2, 3, 4, 5, 6])
        ring = build_quotient(p, q)
        if isinstance(ring, InfiniteQuotient):
            continue
        # relators and q itself vanish
        for r in p.relators:
            assert ring.image(r) == qo.zero(ring)
        assert ring.image(IntPoly.x().scale(q)) == qo.zero(ring)
        for _ in range(10):
            u = random_zero_const_poly(rng, 5, 9)
            v = random_zero_const_poly(rng, 5, 9)
            assert ring.image(u + v) == qo.add(ring, ring.image(u), ring.image(v))
            assert ring.image(u * v) == ring.mul(ring.image(u), ring.image(v))


def test_subring_closure_examples():
    ring = build_quotient(pres((0, -1, 1)), 2)
    assert subring_closure(ring, []) == {qo.zero(ring)}
    assert subring_closure(ring, [ip(0, 1)]) == {(0,), (1,)}
    assert subring_closure(ring, [ip(0, 2)]) == {(0,)}


def test_subring_closure_is_closed_and_minimal():
    rng = random.Random(52)
    for _ in range(30):
        p = Presentation([random_zero_const_poly(rng, 3, 5)
                          for _ in range(rng.randint(1, 2))])
        q = rng.choice([2, 3, 4, 5])
        ring = build_quotient(p, q)
        if isinstance(ring, InfiniteQuotient) or ring.carrier_size > 128:
            continue
        gens = [random_zero_const_poly(rng, 4, 7) for _ in range(rng.randint(0, 2))]
        closure = subring_closure(ring, gens)
        assert closure == qo.naive_closure(ring, gens)
        for u in closure:
            assert qo.neg(ring, u) in closure
            for v in closure:
                assert qo.add(ring, u, v) in closure
                assert ring.mul(u, v) in closure


def test_separate_examples():
    res = separate(pres((0, -1, 1)), ip(0, 3), [ip(0, 2)], 16)
    assert res.found and res.modulus == 2
    assert res.image_of_target == (1,)
    assert res.subring_image == {(0,)}

    # a subring member can never be separated
    res = separate(pres((0, -1, 1)), ip(0, 1), [ip(0, 1)], 12)
    assert not res.found
    assert res.bound_exhausted == 12

    res = separate(pres((0, -1, 0, 1), (0, -6, 6)), ip(0, 2), [ip(0, 4)], 12)
    assert res.found and res.modulus in (3, 4)


def test_separate_completes_only_the_returned_quotient():
    # exhausting the bound runs no tracked completion; a success runs
    # exactly one, for the modulus it returns
    canonical_basis.cache_clear()
    res = separate(pres((0, -1, 1)), ip(0, 1), [ip(0, 1)], 12)
    assert not res.found
    assert canonical_basis.cache_info().misses == 0

    p = pres((0, -1, 0, 1), (0, -6, 6))
    res = separate(p, ip(0, 2), [ip(0, 4)], 12)
    assert res.found
    assert canonical_basis.cache_info().misses == 1
    extended = Presentation(p.relators + (ip(0, res.modulus),))
    canonical_basis(extended)
    assert canonical_basis.cache_info().misses == 1
    assert "basis" in vars(res.quotient)  # certified before separate returned


def test_returned_basis_equals_a_fresh_canonical_basis():
    rng = random.Random(54)
    found = 0
    for _ in range(30):
        p = Presentation([random_zero_const_poly(rng, 3, 5)
                          for _ in range(rng.randint(1, 2))])
        res = separate(p, random_zero_const_poly(rng, 4, 7),
                       [random_zero_const_poly(rng, 4, 7)], 24)
        if not res.found:
            continue
        found += 1
        canonical_basis.cache_clear()
        fresh = canonical_basis(Presentation(p.relators + (ip(0, res.modulus),)))
        basis = res.quotient.basis
        assert basis is not fresh
        assert repr(basis) == repr(fresh) and basis == fresh
        assert basis.elements == res.quotient.ladder
    assert found >= 5


def test_basis_must_match_the_ladder():
    # {x^3 - x, 6x^2 - 6x} mod 4 has the ladder 4x, 2x^2 + 2x, x^3 + 3x
    p = pres((0, -1, 0, 1), (0, -6, 6))
    ring = build_quotient(p, 4)
    basis = canonical_basis(Presentation(p.relators + (ip(0, 4),)))
    assert ring.basis is None
    assert FiniteRing(p, 4, ring.ladder, basis) == ring
    with pytest.raises(SelfCheckError):
        FiniteRing(p, 4, ring.ladder[1:], basis)
    # a top lead that is not 1, and a position modulus of 1
    with pytest.raises(SelfCheckError):
        FiniteRing(p, 4, ring.ladder[:-1])
    with pytest.raises(SelfCheckError):
        FiniteRing(p, 4, (ip(0, 1), ip(0, 0, 1)))


def test_a_normal_form_off_the_window_raises():
    # forged elements 2x + 1 and x^2 + 1 carry a constant term into the
    # normal forms of 2x and of x times x
    ring = FiniteRing(pres(), 2, (ip(1, 2), ip(1, 0, 1)))
    for reduce in (lambda: ring.image(ip(0, 2)), lambda: ring.mul((1,), (1,))):
        with pytest.raises(SelfCheckError, match="leaves the standard monomials"):
            reduce()
    # a ladder whose monic top went missing leaves x^3 above the window
    ring = build_quotient(pres((0, -1, 0, 1), (0, -6, 6)), 4)
    object.__setattr__(ring, "ladder", ring.ladder[:-1])
    with pytest.raises(SelfCheckError, match="leaves the standard monomials"):
        ring.image(ip(0, 0, 0, 1))


def test_a_ladder_lead_not_dividing_the_modulus_raises(monkeypatch):
    # a finite ladder and an infinite one, each with the lead 3 at q = 4
    for ladder in ((ip(0, 4), ip(0, 1, 3), ip(0, 0, 0, 1)), (ip(0, 4), ip(0, 1, 3))):
        monkeypatch.setattr(quotients, "basis_elements", lambda p: ladder)
        with pytest.raises(SelfCheckError, match="does not divide"):
            build_quotient(pres((0, -1, 0, 1)), 4)
        with pytest.raises(SelfCheckError):
            FiniteRing(pres((0, -1, 0, 1)), 4, ladder)


def test_an_infinite_batch_quotient_raises(monkeypatch):
    # a ladder of q*x alone, as if the relators had vanished mod q
    monkeypatch.setattr(quotients, "basis_elements", lambda p: p.relators[-1:])
    with pytest.raises(SelfCheckError, match="infinite"):
        separate(pres((0, -1, 1)), ip(0, 1), [ip(0, 2)], 8)


def test_separate_rejects_constant_terms():
    with pytest.raises(ValueError):
        separate(pres((0, 2)), ip(1, 1), [], 8)


def test_separate_success_reverified_independently():
    rng = random.Random(53)
    found = 0
    for _ in range(40):
        p = Presentation([random_zero_const_poly(rng, 3, 5)
                          for _ in range(rng.randint(1, 2))])
        if not decide(p).separable:
            continue
        target = random_zero_const_poly(rng, 4, 7)
        gens = [random_zero_const_poly(rng, 4, 7) for _ in range(rng.randint(0, 2))]
        res = separate(p, target, gens, 32)
        if not res.found:
            continue
        found += 1
        ring = res.quotient
        assert ring.image(target) not in res.subring_image
        if ring.carrier_size <= 128:
            closure = qo.naive_closure(ring, gens)
            assert closure == res.subring_image
    assert found >= 10


def test_malcev_crt_coherence():
    # with witness k = p1*...*pn > 1, an element killed by every k/p_i is 0:
    # the Bezout identity sum(z_i * k_i) = 1 forces it
    checked = 0
    for p, moduli in [
        (pres((0, -6, 6)), (5, 7, 11, 25, 35)),
        (pres((0, -6, 0, 6), (0, -6, 6)), (5, 7, 25)),
    ]:
        v = decide(p)
        assert v.separable and v.positive_witness.k > 1
        split = torsion_split(v.squarefree_witness)
        cofs = [ki for _, ki in split.parts]
        for q in moduli:
            ring = build_quotient(p, q)
            if isinstance(ring, InfiniteQuotient):
                continue
            checked += 1
            for u in qo.carrier(ring):
                if all(ring.image(ring.to_poly(u).scale(ki)) == qo.zero(ring)
                       for ki in cofs):
                    assert u == qo.zero(ring)
    assert checked >= 6


def test_modulus_order():
    order = modulus_order(16)
    assert order == [2, 3, 5, 7, 11, 13, 4, 8, 9, 16]
    # bound 1 is a valid empty search; a bound below 1 is an input error
    assert modulus_order(1) == []
    for bound in (0, -5):
        with pytest.raises(InvalidModulusError, match="must be >= 1"):
            modulus_order(bound)
    # primes come first, then prime powers; composites are never tried
    kinds = []
    for q in order:
        f = factorize(q)
        assert len(f) == 1
        kinds.append("p" if f[0][1] == 1 else "pp")
    assert kinds == sorted(kinds, key=["p", "pp"].index)


def test_modulus_order_matches_a_trial_division_definition():
    def kind(q):
        # "p" for a prime, "pp" for a higher prime power, None otherwise
        p = next(d for d in range(2, q + 1) if q % d == 0)
        rest = q
        while rest % p == 0:
            rest //= p
        return None if rest > 1 else "p" if q == p else "pp"

    kinds = {q: kind(q) for q in range(2, 1201)}
    primes = [q for q, k in kinds.items() if k == "p"]
    powers = [q for q, k in kinds.items() if k == "pp"]
    for bound in range(1, 1201):
        expected = [q for q in primes if q <= bound] + [q for q in powers if q <= bound]
        assert modulus_order(bound) == expected, bound
    # the 78,498 primes below 10^6 and its 236 higher prime powers
    assert len(modulus_order(10**6)) == 78_734


def test_composite_moduli_separate_only_through_prime_power_factors():
    # brute force over every composite q <= 30: whenever the quotient by q
    # separates the target from the subring, so does the quotient by some
    # prime-power factor of q (the CRT argument of modulus_order)
    rng = random.Random(47)
    composites = [q for q in range(2, 31) if len(factorize(q)) > 1]

    def separates(p, target, gens, q):
        ring = build_quotient(p, q)
        if isinstance(ring, InfiniteQuotient):
            return False
        return ring.image(target) not in subring_closure(ring, gens)

    hits = 0
    for _ in range(12):
        # a scaled monic relator leaves some quotients infinite
        monic = IntPoly([0, rng.randint(-4, 4), 1]).scale(rng.choice((1, 1, 2, 3)))
        other = random_zero_const_poly(rng, 3, 4).scale(rng.randint(1, 6))
        p = Presentation([monic, other])
        target = random_zero_const_poly(rng, 2, 6)
        gens = [random_zero_const_poly(rng, 2, 6) for _ in range(rng.randint(0, 2))]
        for q in composites:
            if separates(p, target, gens, q):
                hits += 1
                factors = [pp**e for pp, e in factorize(q)]
                assert any(separates(p, target, gens, f) for f in factors), (p, q)
    assert hits >= 40
