"""The division, cofactor-sum and completion kernels against naive references.

``poly._divide``, ``ideal._fold_into``, ``ideal._complete``,
``ideal._balance`` and ``check.is_combination`` work on raw coefficient
lists.  The references here are written term by term in ``IntPoly``
arithmetic, so they share no list code with the kernels.  The document
writer ``cli._json_text`` is checked against ``json.dumps(..., indent=2,
default=cli._encode)`` on plain values and the library values a document
carries: polynomials, certificates, relations and bases.
"""

import hashlib
import itertools
import json
import math
import random
import sys
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from finsep.check import is_combination
from finsep.cli import _encode, _json_text
import finsep.ideal as ideal_module
from finsep.ideal import (MembershipCertificate, MonicRelation, Presentation, _balance,
                          _fold_into, basis_elements, canonical_basis, membership,
                          monic_multiple_search)
from finsep.invariants import torsion_data
from finsep.poly import IntPoly, RatPoly, _divide as _divide_rows, content_split, gcd_q
from finsep.separability import decide
from test_ideal import _identity_corpus

SETTINGS = settings(
    max_examples=200, deadline=None, derandomize=True, database=None
)

coefficients = st.integers(-50, 50)
polys = st.lists(coefficients, max_size=12).map(IntPoly)


@st.composite
def ladders(draw):
    """Elements of strictly ascending degrees >= 1, zero constant terms and
    positive leads, as a strong basis has them."""
    degrees = sorted(draw(st.sets(st.integers(1, 8), max_size=4)))
    return [IntPoly([0, *draw(st.lists(coefficients, min_size=d - 1, max_size=d - 1)),
                     draw(st.integers(1, 30))]) for d in degrees]


def _divide(g, elements, quotients=True):
    """``poly._divide`` on the elements' coefficient tuples, top degree first."""
    return _divide_rows(g, tuple(e.coeffs for e in reversed(elements)), quotients)


def _naive_divide(g, elements):
    """Top-down division, one monomial quotient term at a time."""
    nf, qs = g, [IntPoly()] * len(elements)
    for d in range(g.degree, 0, -1):
        below = [i for i, e in enumerate(elements) if e.degree <= d]
        if below and nf[d]:
            i = below[-1]
            term = IntPoly.term(nf[d] // elements[i].lead, d - elements[i].degree)
            nf, qs[i] = nf - term * elements[i], qs[i] + term
    return nf, tuple(qs)


def _is_reduced(nf, elements):
    """Each term of degree >= 1 is a least-nonnegative residue of the lead
    of the element of largest degree not above it."""
    for d in range(1, nf.degree + 1):
        below = [e for e in elements if e.degree <= d]
        if below and not 0 <= nf[d] < below[-1].lead:
            return False
    return True


@SETTINGS
@given(polys, ladders())
def test_divide_matches_the_naive_division(g, elements):
    nf, quotients = _divide(g, elements)
    assert (nf, quotients) == _naive_divide(g, elements)
    total = nf
    for q, e in zip(quotients, elements):
        total = total + q * e
    assert total == g
    assert _is_reduced(nf, elements)
    assert _divide(g, elements, False) == (nf, ())


def test_divide_edge_cases():
    g = IntPoly((3, -7, 0, 5))
    assert _divide(g, []) == (g, ())
    assert _divide(g, [], False) == (g, ())
    # g below the lowest degree is its own normal form
    high = IntPoly((0, 0, 0, 0, 2))
    assert _divide(g, [high]) == (g, (IntPoly(),))
    assert _divide(IntPoly(), [high]) == (IntPoly(), (IntPoly(),))
    # one element of degree 1 reduces every term above the constant
    nf, (q,) = _divide(g, [IntPoly((0, 3))])
    assert nf == IntPoly((3, 2, 0, 2)) and q == IntPoly((-3, 0, 1))
    assert _divide(g, [IntPoly((0, 1))]) == (IntPoly((3,)), (IntPoly((-7, 0, 5)),))


@st.composite
def folds(draw):
    width = draw(st.integers(1, 3))
    n = draw(st.integers(0, 4))
    start = draw(st.lists(polys, min_size=width, max_size=width))
    quotients = draw(st.lists(polys, min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(polys, min_size=width, max_size=width).map(tuple),
                         min_size=n, max_size=n))
    return start, quotients, rows


@SETTINGS
@given(folds())
def test_fold_agrees_with_intpoly_arithmetic(case):
    # the sums start from the lists they are added into
    start, quotients, rows = case
    expected = start
    for q, row in zip(quotients, rows):
        expected = [s + q * p for s, p in zip(expected, row)]
    sums = _fold_into([list(p.coeffs) for p in start], [q.coeffs for q in quotients],
                      [[p.coeffs for p in row] for row in rows])
    assert [IntPoly(s) for s in sums] == expected


@SETTINGS
@given(st.lists(st.tuples(polys, polys), max_size=4), polys)
def test_is_combination_accepts_the_sum_and_nothing_else(pairs, delta):
    cofactors = [c for c, _ in pairs]
    generators = [g for _, g in pairs]
    claim = IntPoly()
    for c, g in pairs:
        claim = claim + c * g
    assert is_combination(claim, cofactors, generators)
    assert is_combination(claim + delta, cofactors, generators) == delta.is_zero()
    # a cofactor list of another length is rejected, even a zero padding
    assert not is_combination(claim, cofactors + [IntPoly()], generators)
    if pairs:
        assert not is_combination(claim, cofactors[:-1], generators)


def test_a_forged_cofactor_fails_against_zero_low_generator_coefficients():
    # the passes of the generator's zero coefficients are skipped; a change
    # to any cofactor coefficient still moves the sum
    g = IntPoly((0, 0, 0, 2, 1))
    c = IntPoly((1, -3, 0, 5))
    assert is_combination(c * g, [c], [g])
    for i in range(len(c.coeffs) + 1):
        forged = IntPoly([a + (j == i) for j, a in enumerate(c.coeffs + (0,))])
        assert not is_combination(c * g, [forged], [g])
        assert not is_combination(c * g, [c, forged - c], [g, g])


@st.composite
def relator_lists(draw):
    """1 to 3 relators of degree <= 8 with zero constant terms, each a
    content in 1..30 times a polynomial with a nonzero lead."""
    relators = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 8))
        tail = draw(st.lists(st.integers(-9, 9), min_size=d - 1, max_size=d - 1))
        lead = draw(st.integers(1, 9)) * draw(st.sampled_from((-1, 1)))
        c = draw(st.integers(1, 30))
        relators.append(IntPoly([0] + [c * x for x in tail] + [c * lead]))
    return relators


def _combination(cofactors, generators):
    total = IntPoly()
    for c, g in zip(cofactors, generators):
        total = total + c * g
    return total


@SETTINGS
@given(relator_lists())
def test_completion_gives_a_strong_basis_with_certificates(relators):
    p = Presentation(relators)
    canonical_basis.cache_clear()
    basis = canonical_basis(p)
    elements = basis.elements
    # bare rows and tracked rows decide alike
    assert basis_elements(p) == elements
    assert all(e.lead > 0 and e.constant == 0 for e in elements)
    for t, u in zip(elements, elements[1:]):
        assert t.degree < u.degree and t.lead % u.lead == 0 and t.lead > u.lead
        assert _divide(t.shift(u.degree - t.degree), elements, False)[0].is_zero()
    for r, quotients in zip(p.relators, basis.relator_quotients):
        assert _divide(r, elements, False)[0].is_zero()
        assert _combination(quotients, elements) == r
    for e, cofactors in zip(elements, basis.element_cofactors):
        assert _combination(cofactors, p.relators) == e
    canonical_basis.cache_clear()


@st.composite
def prime_power_relator_lists(draw):
    """1 to 4 relators of degree <= 8 with zero constant terms, each with a
    content that is a product of prime powers, so the leads share primes.
    The relators share a factor a*x + b, so the minimal polynomial's
    primitive part is often not monic while the basis has several elements."""
    shared = IntPoly([draw(st.integers(-3, 3)), draw(st.integers(1, 3))])
    relators = []
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.integers(1, 7))
        tail = draw(st.lists(st.integers(-9, 9), min_size=d - 1, max_size=d - 1))
        lead = draw(st.integers(1, 9)) * draw(st.sampled_from((-1, 1)))
        c = math.prod(draw(st.lists(st.sampled_from((1, 2, 3, 4, 5, 8, 9, 25, 27)),
                                    min_size=1, max_size=3)))
        relators.append((shared * IntPoly([0, *tail, lead])).scale(c))
    return relators


@SETTINGS
@given(prime_power_relator_lists())
def test_elements_are_lead_times_monic_exactly_when_the_minimal_primitive_is(relators):
    # the induction that lets ideal.monic_multiple_search read its answer
    # off the basis, checked on the basis alone: the lowest element's
    # primitive part is monic iff every element is divisible by its lead,
    # iff some element is
    elements = canonical_basis(Presentation(relators)).elements
    monic = content_split(elements[0]).primitive.is_monic()
    divisible = [all(c % t.lead == 0 for c in t.coeffs) for t in elements]
    assert monic == all(divisible) == any(divisible)


@st.composite
def divisor_content_relator_lists(draw):
    """1 to 4 relators of degree <= 10 with zero constant terms, each a
    content from the divisors of 12 times a polynomial with a nonzero lead."""
    relators = []
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.integers(1, 10))
        tail = draw(st.lists(st.integers(-9, 9), min_size=d - 1, max_size=d - 1))
        lead = draw(st.integers(1, 9)) * draw(st.sampled_from((-1, 1)))
        c = draw(st.sampled_from((1, 2, 3, 4, 6, 12)))
        relators.append(IntPoly([0, *tail, lead]).scale(c))
    return relators


@SETTINGS
@given(divisor_content_relator_lists())
def test_no_basis_element_lies_above_the_largest_relator_degree(relators):
    # the fact that lets ideal.monic_multiple_search answer at every degree
    # without a bound, checked on the completions alone
    p = Presentation(relators)
    top = max(r.degree for r in p.relators)
    for elements in (basis_elements(p), canonical_basis(p).elements):
        assert all(e.degree <= top for e in elements)


@st.composite
def finite_torsion_relator_lists(draw):
    """1 to 3 relators of degree <= 6 with zero constant terms, each a
    content from the divisors of 12 times a polynomial of lead 1 or -1, so
    the minimal polynomial's primitive part, which divides each relator's,
    is monic and the torsion finite."""
    relators = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 6))
        tail = draw(st.lists(st.integers(-9, 9), min_size=d - 1, max_size=d - 1))
        lead = draw(st.sampled_from((-1, 1)))
        c = draw(st.sampled_from((1, 2, 3, 4, 6, 12)))
        relators.append(IntPoly([0, *tail, lead]).scale(c))
    return relators


@SETTINGS
@given(finite_torsion_relator_lists())
def test_search_relations_are_membership_certificates_built_without_division(relators):
    # the search certifies k*phi as (k/lead t)*t, folding one quotient: the
    # certificate is membership's, tuple for tuple, and once the basis is
    # cached neither the search nor torsion_data divides
    p = Presentation(relators)
    elements = canonical_basis(p).elements
    multipliers = sorted({1, 2, 3, 4, 6, 12, elements[-1].lead})
    with mock.patch.object(ideal_module, "_divide", wraps=ideal_module._divide) as div, \
            mock.patch.object(ideal_module, "_divide_coeffs",
                              wraps=ideal_module._divide_coeffs) as div_coeffs:
        relations = [monic_multiple_search(p, k) for k in multipliers]
        data = torsion_data(p)
    assert div.call_count == div_coeffs.call_count == 0
    for k, relation in zip(multipliers, relations):
        if relation is None:
            continue
        assert relation.k == k and relation.phi.is_monic()
        member, cert = membership(relation.phi.scale(k), p)
        assert member and relation.certificate == cert
    # the exponent witness lands on the lowest element, the minimal polynomial
    assert data.exponent_witness.certificate.claim == elements[0] == data.minimal_polynomial
    assert data.exponent_witness.phi == data.minimal_primitive


# relators of the two-relator property: zero constant term, degree 1 to 6
small_relators = st.lists(st.integers(-12, 12), min_size=1, max_size=6).map(
    lambda c: IntPoly([0, *c])).filter(lambda r: not r.is_zero())
small_multipliers = st.lists(st.integers(-9, 9), max_size=4).map(IntPoly)


@SETTINGS
@given(small_relators, small_relators,
       st.lists(small_multipliers, min_size=6, max_size=6))
def test_balanced_cofactors_are_unique_for_two_relators(r1, r2, multipliers):
    # with G = gcd(r1, r2) in Z[x] and s_i = r_i / G, the syzygies are the
    # multiples of (s2, -s1); adding any to an element's cofactors and
    # walking the basis's pair data again gives canonical_basis's
    # cofactors, and every coefficient of c1 at or above deg s2 lies in
    # [-|l|/2, |l|/2)
    basis = canonical_basis(Presentation([r1, r2]))
    lowest = basis.elements[0]
    g = IntPoly([math.gcd(r1.content, r2.content) * (c // lowest.content)
                 for c in lowest.coeffs])
    (_, (s1,)), (_, (s2,)) = (_divide_rows(r, [g.coeffs]) for r in (r1, r2))
    assert s1 * g == r1 and s2 * g == r2
    assert basis.syzygy_pairs == ((0, 1, s1.coeffs, s2.coeffs),)
    # G is the whole gcd only if s1 and s2 are coprime over Q; checked by
    # gcd_q's pseudo-remainder Euclid, not by the completion
    assert gcd_q([s1, s2]).gamma.degree == 0
    width = abs(s2.lead)
    vectors, expected = [], []
    for (c1, c2), u in zip(basis.element_cofactors, itertools.cycle(multipliers)):
        assert all(-width <= 2 * c < width for c in c1.coeffs[s2.degree:])
        vectors.append([list((c1 + u * s2).coeffs), list((c2 - u * s1).coeffs)])
        expected.append([list(c1.coeffs), list(c2.coeffs)])
    assert [_balance(v, basis.syzygy_pairs) for v in vectors] == expected


@SETTINGS
@given(small_relators, small_relators, small_multipliers, small_multipliers,
       small_multipliers)
def test_walked_membership_certificates_are_unique_for_two_relators(r1, r2, h1, h2, u):
    # membership walks its certificate by the basis's pair data, so adding
    # any u*(s2, -s1) and walking again gives the same certificate, and so
    # does walking the cofactors (h1, h2) the member was built from
    p = Presentation([r1, r2])
    g = h1 * r1 + h2 * r2
    member, cert = membership(g, p)
    assert member and cert.verify(p)
    pairs = canonical_basis(p).syzygy_pairs
    (_, _, s1, s2), = pairs
    s1, s2 = IntPoly(s1), IntPoly(s2)
    c1, c2 = cert.cofactors
    width = abs(s2.lead)
    assert all(-width <= 2 * c < width for c in c1.coeffs[s2.degree:])
    walked = [list(c1.coeffs), list(c2.coeffs)]
    assert _balance([list((c1 + u * s2).coeffs), list((c2 - u * s1).coeffs)],
                    pairs) == walked
    assert _balance([list(h1.coeffs), list(h2.coeffs)], pairs) == walked


def _completion_corpus(seed=28):
    """Presentations of the shapes the workloads complete: x^e - x scaled
    by a content or paired with c(x^m - x), 6f and 6(x^2 + x)g, and 1 to 3
    random relators of degree <= 10 with contents up to 30."""
    rng = random.Random(seed)

    def poly(degree, bound):
        lead = rng.choice((-1, 1)) * rng.randint(1, bound)
        return IntPoly([0] + [rng.randint(-bound, bound) for _ in range(degree - 1)]
                       + [lead])

    def x_power_minus_x(e, c=1):
        return IntPoly([0, -c] + [0] * (e - 2) + [c])

    cases = []
    for i in range(90):
        kind = i % 3
        if kind == 0:
            e = rng.randint(3, 40)
            cases.append([x_power_minus_x(e, rng.randint(1, 12))] if i % 2 else
                         [x_power_minus_x(e), x_power_minus_x(rng.randint(2, e - 1),
                                                              rng.randint(2, 13))])
        elif kind == 1:
            d = rng.randint(4, 8)
            cases.append([poly(d, 1000).scale(6),
                          (IntPoly((0, 1, 1)) * poly(d, 1000)).scale(6)])
        else:
            cases.append([poly(rng.randint(1, 10), 9).scale(rng.randint(1, 30))
                          for _ in range(rng.randint(1, 3))])
    return [Presentation(c) for c in cases]


def _completion_outputs():
    """The unique outputs (elements, relator quotients and bare elements) and
    the element cofactors of the completion corpus, from a cold cache."""
    unique, cofactors = [], []
    canonical_basis.cache_clear()
    for p in _completion_corpus():
        basis = canonical_basis(p)
        for polys in (basis.elements, *basis.relator_quotients, basis_elements(p)):
            unique.append([list(q.coeffs) for q in polys])
        for polys in basis.element_cofactors:
            cofactors.append([list(q.coeffs) for q in polys])
    canonical_basis.cache_clear()
    return unique, cofactors


def test_completion_outputs_are_byte_identical_on_a_seeded_corpus():
    # digest of the elements, relator quotients and bare elements, as
    # computed when the completion ran on IntPoly rows
    digest = hashlib.sha256(repr(_completion_outputs()[0]).encode()).hexdigest()
    assert digest == "02b8597c62dfeb988c60108d3d1e0ac630f869c3b0f5a472fe8437d012d5c814"


def test_completion_cofactors_are_pinned_on_a_seeded_corpus():
    # digest of the element cofactors, re-pinned when a Euclid merge began
    # handing on one S-polynomial; only three-relator cofactors moved
    digest = hashlib.sha256(repr(_completion_outputs()[1]).encode()).hexdigest()
    assert digest == "ab7bca6e566ace1617d1ef7e1ba49fb6c88fb0860e6dd92343365a1f117ebb87"


def _two_relator_cofactors():
    """The element, membership and decide-witness cofactors of the
    presentations with at most two relators in the completion and identity
    corpora, from a cold cache."""
    out = []
    canonical_basis.cache_clear()
    for p, queries in [(p, []) for p in _completion_corpus()] + _identity_corpus():
        if len(p.relators) > 2:
            continue
        out.append([[list(q.coeffs) for q in row]
                    for row in canonical_basis(p).element_cofactors])
        for g in queries:
            member, cert = membership(g, p)
            out.append(member and [list(q.coeffs) for q in cert.cofactors])
        witness = decide(p).positive_witness
        out.append(witness and [list(q.coeffs) for q in witness.certificate.cofactors])
    canonical_basis.cache_clear()
    return out


def test_two_relator_cofactors_are_unique_outputs():
    # with at most two relators every cofactor vector is unique (one relator
    # divides exactly, two are walked by their pair syzygy); pinned before
    # the completion reduced one S-polynomial per Euclid merge instead of
    # its two remainders, and unchanged by it
    digest = hashlib.sha256(repr(_two_relator_cofactors()).encode()).hexdigest()
    assert digest == "cab8f55ba6ac48423dd51e0a7ffe56c651a74a1191498b1eb4341d56593b0801"


# document values: ints of any size (some above the 4,300-digit int/str
# limit), bools, None, strings of any characters and the library values a
# document carries, in lists and tuples of plain ints and in mixed lists,
# tuples and dicts
big_ints = st.builds(lambda sign, k: sign * (10**4300 + k), st.sampled_from((1, -1)),
                     st.integers(0, 10**6))
json_ints = st.one_of(st.integers(), st.just(0), big_ints)
certificates = st.builds(MembershipCertificate, st.lists(polys, max_size=3).map(tuple),
                         polys)
relators = st.lists(st.integers(-9, 9), max_size=4).map(lambda c: IntPoly([0, *c]))
library_values = st.one_of(
    polys,
    st.lists(st.fractions(max_denominator=30), max_size=6).map(RatPoly),
    certificates,
    st.builds(MonicRelation, json_ints, polys, certificates),
    st.lists(relators, max_size=3).map(lambda rs: canonical_basis(Presentation(rs))),
)
json_values = st.recursive(
    st.one_of(json_ints, st.booleans(), st.none(), st.text(), st.lists(json_ints),
              st.lists(json_ints).map(tuple), library_values),
    lambda children: st.one_of(st.lists(children), st.lists(children).map(tuple),
                               st.dictionaries(st.text(), children)),
    max_leaves=20,
)


@SETTINGS
@given(json_values)
def test_the_document_writer_is_json_dumps_with_indent_2(value):
    # the limit exists from Python 3.10.7 on; lift it as cli.run does
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        assert _json_text(value) == json.dumps(value, indent=2, default=_encode)
    finally:
        if limited:
            sys.set_int_max_str_digits(saved)
