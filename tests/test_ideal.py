import dataclasses
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import finsep
import finsep.ideal as ideal_module
from finsep.poly import IntPoly
from finsep.ideal import (
    ConstantTermError,
    Presentation,
    basis_elements,
    canonical_basis,
    membership,
    monic_multiple_search,
    normal_form,
    reduce_with_quotients,
)
from finsep.check import _reduces_to, is_combination
from finsep.intarith import NonPositiveError
from finsep.separability import decide


def ip(*ascending):
    return IntPoly(ascending)


def pres(*coeff_lists):
    return Presentation([IntPoly(c) for c in coeff_lists])


def random_zero_const_poly(rng, max_degree=5, max_coeff=10, nonzero=False):
    while True:
        coeffs = [0] + [rng.randint(-max_coeff, max_coeff) for _ in range(max_degree)]
        p = IntPoly(coeffs)
        if not nonzero or not p.is_zero():
            return p


def degrees_and_leads(basis):
    return (tuple(e.degree for e in basis.elements),
            tuple(e.lead for e in basis.elements))


def random_presentation(rng, max_relators=3, max_degree=5, max_coeff=10):
    return Presentation(
        [random_zero_const_poly(rng, max_degree, max_coeff)
         for _ in range(rng.randint(1, max_relators))]
    )


# --- independent oracle: leftmost-pivot integer echelon over raw shifts ----

def _oracle_xgcd(a, b):
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


class ShiftLattice:
    """Membership oracle: echelon of raw relator shifts, lowest-degree pivots.

    Exact for principal ideals; for several relators the padding leaves room
    for the cofactor-degree overshoot that integer cancellation can need.
    """

    def __init__(self, relators, degree_cap, pad=6):
        self.dim = degree_cap + pad
        self.rows = {}
        for f in relators:
            for shift in range(self.dim - f.degree + 1):
                self._insert([f[d - shift] for d in range(1, self.dim + 1)])

    def _insert(self, vec):
        for j in range(self.dim):
            if not vec[j]:
                continue
            if j not in self.rows:
                self.rows[j] = vec
                return
            row = self.rows[j]
            g, u, v = _oracle_xgcd(row[j], vec[j])
            new = [u * a + v * b for a, b in zip(row, vec)]
            vec = [(row[j] // g) * b - (vec[j] // g) * a for a, b in zip(row, vec)]
            self.rows[j] = new

    def contains(self, p: IntPoly) -> bool:
        if p.constant != 0:
            return False
        vec = [p[d] for d in range(1, self.dim + 1)]
        if p.degree > self.dim:
            return False
        for j in range(self.dim):
            if not vec[j]:
                continue
            row = self.rows.get(j)
            if row is None or vec[j] % row[j]:
                return False
            q = vec[j] // row[j]
            vec = [a - q * b for a, b in zip(vec, row)]
        return True


# --------------------------------------------------------------------------


def test_presentation_validation():
    p = pres((0, -1, 1), ())
    assert len(p.relators) == 1
    with pytest.raises(ConstantTermError):
        pres((1, 1))
    assert pres().relators == ()


def test_basis_principal_monic():
    basis = canonical_basis(pres((0, -1, 1)))
    assert basis.elements == (ip(0, -1, 1),)


def test_basis_two_generators_already_strong():
    basis = canonical_basis(pres((0, 0, 2), (0, 0, 0, 1)))
    assert basis.elements == (ip(0, 0, 2), ip(0, 0, 0, 1))


def test_basis_euclid_chain():
    # f1 - f2 = x - x^2 and 2x^3 + x - (2x+3)(x^2-x) ... the ladder bottoms
    # out at 3x: every degree-1 member is a multiple of 3 (evaluate any
    # combination h*(x^2-x) + g*3x at x=1 to see 3 | it), so x is NOT in V.
    basis = canonical_basis(pres((0, 1, 0, 2), (0, 0, 1, 2)))
    assert [e.degree for e in basis.elements] == [1, 2]
    assert basis.elements[0] == ip(0, 3)
    # auto-reduction normalizes the degree-2 tail into [0, 3)
    assert basis.elements[1] == ip(0, 2, 1)
    member, cert = membership(ip(0, 3), basis.presentation)
    assert member and cert.verify(basis.presentation)
    member, _ = membership(ip(0, 1), basis.presentation)
    assert not member


def test_basis_empty_presentation():
    basis = canonical_basis(pres())
    assert not basis.elements
    assert normal_form(ip(0, 5, 7), basis) == ip(0, 5, 7)
    member, cert = membership(ip(0, 1), pres())
    assert not member
    member, cert = membership(IntPoly(), pres())
    assert member and cert.cofactors == ()


def test_basis_ladder_invariants_random():
    rng = random.Random(20)
    for _ in range(150):
        p = random_presentation(rng)
        basis = canonical_basis(p)
        degrees, leads = degrees_and_leads(basis)
        assert list(degrees) == sorted(set(degrees))
        assert all(c > 0 for c in leads)
        # divisibility descends as degree ascends, strictly
        for i in range(len(leads) - 1):
            assert leads[i] % leads[i + 1] == 0
            assert leads[i] != leads[i + 1]
        for e, cof in zip(basis.elements, basis.element_cofactors):
            assert e.constant == 0
            total = IntPoly()
            for c, r in zip(cof, p.relators):
                total = total + c * r
            assert total == e
        # every relator reduces to zero with stored quotients
        for r, quots in zip(p.relators, basis.relator_quotients):
            total = IntPoly()
            for q, e in zip(quots, basis.elements):
                total = total + q * e
            assert total == r
        # auto-reduced: below its lead, every term sits in canonical range
        for i, e in enumerate(basis.elements):
            for d in range(e.degree - 1, 0, -1):
                applicable = [j for j in range(i) if degrees[j] <= d]
                if applicable:
                    assert 0 <= e[d] < leads[applicable[-1]]


def test_basis_canonical_across_equivalent_presentations():
    # the auto-reduced ladder depends only on the ideal: permuting relators
    # or adding redundant combinations leaves every element unchanged
    rng = random.Random(28)
    for _ in range(80):
        relators = [random_zero_const_poly(rng, 4, 8, nonzero=True)
                    for _ in range(rng.randint(1, 3))]
        base = canonical_basis(Presentation(relators))
        shuffled = relators[:]
        rng.shuffle(shuffled)
        assert canonical_basis(Presentation(shuffled)).elements == base.elements
        extra = IntPoly()
        for r in relators:
            extra = extra + r * random_zero_const_poly(rng, 2, 5)
        redundant = Presentation(relators + [extra])
        assert canonical_basis(redundant).elements == base.elements


def test_normal_form_examples():
    p = pres((0, -1, 1))
    basis = canonical_basis(p)
    assert normal_form(ip(0, -1, 1), basis).is_zero()
    assert normal_form(ip(0, 1, 0, 1), basis) == ip(0, 2)    # x^3 + x -> 2x
    p2 = pres((0, 1, 2))
    basis2 = canonical_basis(p2)
    assert normal_form(ip(0, 0, 1), basis2) == ip(0, 0, 1)   # x^2 irreducible


def test_normal_form_idempotent_and_shift_invariant():
    rng = random.Random(21)
    for _ in range(200):
        p = random_presentation(rng)
        basis = canonical_basis(p)
        g = random_zero_const_poly(rng, max_degree=7)
        nf = normal_form(g, basis)
        assert normal_form(nf, basis) == nf
        # adding an explicit combination of relators never changes the nf
        v = IntPoly()
        for r in p.relators:
            v = v + r * random_zero_const_poly(rng, max_degree=3, max_coeff=5)
        assert normal_form(g + v, basis) == nf


def test_normal_form_least_nonnegative_residues():
    rng = random.Random(22)
    for _ in range(100):
        p = random_presentation(rng)
        basis = canonical_basis(p)
        if not basis.elements:
            continue
        g = random_zero_const_poly(rng, max_degree=7)
        nf = normal_form(g, basis)
        degrees, leads = degrees_and_leads(basis)
        for d in range(1, nf.degree + 1):
            applicable = [leads[i] for i in range(len(degrees)) if degrees[i] <= d]
            if applicable:
                assert 0 <= nf[d] < applicable[-1]


def test_confluence_random_reduction_order():
    rng = random.Random(23)
    for _ in range(150):
        p = random_presentation(rng)
        basis = canonical_basis(p)
        if not basis.elements:
            continue
        g = random_zero_const_poly(rng, max_degree=7)
        nf = normal_form(g, basis)
        # reduce one randomly chosen reducible term at a time
        coeffs = list(g.coeffs) + [0] * 8
        degrees, leads = degrees_and_leads(basis)
        while True:
            reducible = []
            for d in range(1, len(coeffs)):
                idx = [i for i in range(len(degrees)) if degrees[i] <= d]
                if idx and not 0 <= coeffs[d] < leads[idx[-1]]:
                    reducible.append((d, idx[-1]))
            if not reducible:
                break
            d, i = rng.choice(reducible)
            q = coeffs[d] // leads[i]
            for j, c in enumerate(basis.elements[i].coeffs):
                coeffs[d - degrees[i] + j] -= q * c
        assert IntPoly(coeffs) == nf


def test_membership_examples():
    p = pres((0, -1, 1), (0, 0, 0, 1))
    member, cert = membership(p.relators[0], p)
    assert member and cert.verify(p) and cert.claim == p.relators[0]
    member, _ = membership(ip(0, 0, 1), pres((0, 1, 2)))
    assert not member   # x^2 not in <2x^2+x>: leads in the ideal are even
    g = ip(0, -1, 1) * ip(0, 3) + ip(0, -1, 1).scale(5)
    member, cert = membership(g, pres((0, -1, 1)))
    assert member and cert.verify(pres((0, -1, 1)))


def test_membership_constructed_members_random():
    rng = random.Random(24)
    for _ in range(200):
        p = random_presentation(rng)
        g = IntPoly()
        for r in p.relators:
            g = g + r * random_zero_const_poly(rng, max_degree=4, max_coeff=6)
        member, cert = membership(g, p)
        assert member
        assert cert.verify(p)
        assert cert.claim == g


def test_membership_agrees_with_shift_lattice_oracle():
    rng = random.Random(25)
    for _ in range(120):
        p = random_presentation(rng, max_relators=2, max_degree=4, max_coeff=6)
        oracle = ShiftLattice(p.relators, degree_cap=7)
        for _ in range(5):
            g = random_zero_const_poly(rng, max_degree=7)
            member, cert = membership(g, p)
            if member:
                assert cert.verify(p)
                assert oracle.contains(g)
            else:
                assert not oracle.contains(g)


def test_monic_multiple_search_examples():
    assert monic_multiple_search(pres((0, 0, 2)), 2).phi == ip(0, 0, 1)
    assert monic_multiple_search(pres((0, 1, 2)), 2) is None
    assert monic_multiple_search(pres((0, -1, 1)), 1).phi == ip(0, -1, 1)


def test_monic_multiple_absence_oracle_principal():
    # in <2x^2+x> the content of h*(2x^2+x) equals content(h), so 2*phi
    # forces phi = h'*(2x^2+x) with even lead: cross-check via the lattice
    oracle = ShiftLattice([ip(0, 1, 2)], degree_cap=8, pad=0)  # exact: principal
    for n in range(1, 7):
        for c1 in range(-6, 7):
            probe = IntPoly([0] + [c1] * (n - 1) + [1]).scale(2)
            assert not oracle.contains(probe) or n >= 2


def test_monic_multiple_found_is_smallest_degree():
    rng = random.Random(26)
    found = 0
    for _ in range(150):
        p = random_presentation(rng, max_relators=2, max_degree=4, max_coeff=6)
        k = rng.randint(1, 6)
        relation = monic_multiple_search(p, k)
        if relation is None:
            continue
        found += 1
        phi = relation.phi
        assert phi.is_monic() and phi.constant == 0
        member, cert = membership(phi.scale(k), p)
        assert member and cert.verify(p)
        assert relation.verify(p)
        # no smaller degree works: the independent lattice oracle, bounded
        # strictly below, finds nothing
        assert _fresh_lattice_search(p, k, phi.degree - 1) is None
    assert found >= 20


def test_monic_multiple_bad_arguments():
    with pytest.raises(NonPositiveError):
        monic_multiple_search(pres((0, 2)), 0)


class _IntegerEchelon:
    """Exact integer row echelon for the search oracle, sharing no code
    with finsep: a row's pivot is its highest nonzero coordinate, and rows
    carry sparse tails {index: coefficient} through every row operation."""

    def __init__(self):
        self.rows = {}

    @staticmethod
    def _strip(vec):
        while vec and not vec[-1]:
            vec.pop()
        return vec

    @staticmethod
    def _lin(a, s, b, t):
        out = {i: a * s.get(i, 0) + b * t.get(i, 0) for i in s.keys() | t.keys()}
        return {i: c for i, c in out.items() if c}

    def add(self, vec, tail=()):
        vec, tail = self._strip(list(vec)), dict(tail)
        while vec:
            j = len(vec) - 1
            if j not in self.rows:
                self.rows[j] = (vec, tail)
                return
            row, rtail = self.rows[j]
            g, u, v = _oracle_xgcd(row[j], vec[j])
            a, b = row[j] // g, vec[j] // g
            # [[u, v], [-b, a]] is unimodular, so the span is unchanged
            self.rows[j] = (
                self._strip([u * x + v * y for x, y in zip(row, vec)]),
                self._lin(u, rtail, v, tail),
            )
            vec = self._strip([a * y - b * x for x, y in zip(row, vec)])
            tail = self._lin(a, tail, -b, rtail)

    def solve(self, vec):
        vec, out = self._strip(list(vec)), {}
        while vec:
            j = len(vec) - 1
            if j not in self.rows or vec[j] % self.rows[j][0][j]:
                return None
            row, rtail = self.rows[j]
            q = vec[j] // row[j]
            vec = self._strip([x - q * y for x, y in zip(vec, row)])
            out = self._lin(1, out, q, rtail)
        return out


def _shift_echelon(elements, n):
    """Exact echelon of every shift of every basis element of degree <= n,
    inserted by ascending degree and then ascending shift."""
    lattice = _IntegerEchelon()
    for element in elements:
        for shift in range(n - element.degree + 1):
            lattice.add([0] * shift + list(element.coeffs[1:]))
    return lattice


def _fresh_lattice_search(p, k, degree_bound):
    """Oracle: at each degree n a fresh exact integer lattice of every shift
    of every basis element of degree <= n plus k*x^i (i < n, tail {i: 1}),
    solved for k*x^n.

    The lattice is built here, over Z and without the library's echelon
    or its staircase rows, so the oracle shares no code with the search."""
    elements = canonical_basis(p).elements
    for n in range(1, degree_bound + 1):
        lattice = _shift_echelon(elements, n)
        for i in range(1, n):
            lattice.add([0] * (i - 1) + [k], {i: 1})
        coords = lattice.solve([0] * (n - 1) + [k])
        if coords is not None:
            return IntPoly([0] + [-coords.get(i, 0) for i in range(1, n)] + [1])
    return None


def test_monic_multiple_search_matches_fresh_lattice_oracle():
    # the search reads the basis; a fresh exact lattice over every shift at
    # every degree up to twice the largest relator degree must find a hit at
    # the same degree, or none, and the same phi at the algebraic degree,
    # where phi is unique
    rng = random.Random(43)
    found = above = 0
    for _ in range(320):
        content = rng.choice((1, 1, 2, 3, 6, 10, 12, rng.randint(1, 30)))
        p = Presentation(
            [random_zero_const_poly(rng, rng.randint(1, 5), 12).scale(content)
             for _ in range(rng.randint(1, 3))]
        )
        if not p.relators:
            continue
        elements = canonical_basis(p).elements
        bound = 2 * max(r.degree for r in p.relators)
        gcd = math.gcd(*(c for r in p.relators for c in r.coeffs))
        for k in sorted({1, 2, 3, 6, gcd}):
            relation = monic_multiple_search(p, k)
            want = _fresh_lattice_search(p, k, bound)
            assert (relation is None) == (want is None)
            if relation is None:
                continue
            phi = relation.phi
            n = phi.degree
            assert n == want.degree
            assert phi.is_monic() and phi.constant == 0
            if n == elements[0].degree:
                assert phi == want
            else:
                above += phi != want
            # k*phi is k*x^n less the k*(x^n - phi) that the k*x^i rows
            # supply: it must lie in the oracle's lattice of shifts alone
            assert _shift_echelon(elements, n).solve(phi.scale(k).coeffs[1:]) is not None
            # the search hands out its hit certified
            assert relation.k == k and relation.verify(p)
            found += 1
    assert found >= 300
    assert above > 0


def test_echelon_mod_n_decides_its_span():
    # the span mod N of a few short vectors, closed by brute force, against
    # the echelon's solve.  Spans such as (1, 2) mod 4, which holds (2, 0)
    # only through the Howell remainder 2 * (1, 2), are where a plain
    # echelon answers wrongly
    rng = random.Random(44)
    for _ in range(150):
        n = rng.choice((2, 4, 6, 8, 9, 12))
        dim = rng.randint(1, 3)
        gens = [[rng.randrange(n) for _ in range(rng.randint(1, dim))]
                for _ in range(rng.randint(1, 3))]
        echelon = ideal_module._Echelon(n)
        for g in gens:
            echelon.add(g)
        span = {(0,) * dim}
        frontier = list(span)
        while frontier:
            v = frontier.pop()
            for g in gens:
                w = tuple((a + b) % n for a, b in zip(v, g + [0] * (dim - len(g))))
                if w not in span:
                    span.add(w)
                    frontier.append(w)
        for v in itertools.product(range(n), repeat=dim):
            assert echelon.solve(v) == (v in span), (n, gens, v)
    echelon = ideal_module._Echelon(4)
    echelon.add([1, 2])
    assert echelon.solve([2]) and not echelon.solve([1])


def test_echelon_add_grows_exactly_outside_its_span():
    # add's answer is solve's, negated and taken just before; a vector
    # already in the span leaves every row as it was
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    vectors = st.lists(st.integers(-200, 200), max_size=5)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.integers(2, 64), st.lists(vectors, min_size=1, max_size=8))
    def add_is_not_solve(n, vecs):
        echelon = ideal_module._Echelon(n)
        for v in vecs:
            inside = echelon.solve(v)
            before = {j: list(row) for j, row in echelon.rows.items()}
            grew = echelon.add(v)
            assert grew is not inside, (n, vecs, v)
            if not grew:
                assert echelon.rows == before, (n, vecs, v)

    add_is_not_solve()


def test_monic_multiple_search_with_k_one_reads_the_top_element():
    # with k = 1 the answer is the top basis element when it is monic,
    # read off the leads
    p = Presentation([IntPoly([0, -1] + [0] * 38 + [1]).scale(4)])
    assert monic_multiple_search(p, 1) is None
    q = pres((0, 0, 2), (0, -1, 0, 1))
    assert monic_multiple_search(q, 1).phi == canonical_basis(q).elements[-1]


def test_monic_multiple_search_none_for_a_non_monic_primitive_part():
    # here the lead 2 divides k = 2, but the relator 2x^39 + x is primitive
    # and not monic, so no degree has a monic multiple
    p = Presentation([IntPoly([0, 1] + [0] * 38 + [2])])
    assert monic_multiple_search(p, 2) is None


def test_monic_multiple_search_stops_when_the_top_lead_misses_k():
    # every member's lead is a multiple of the top lead 6, so no degree can
    # reach k = 2 or k = 3
    p = Presentation([IntPoly([0, -1] + [0] * 1998 + [1]).scale(6)])
    assert monic_multiple_search(p, 2) is None
    assert monic_multiple_search(p, 3) is None


def test_basis_elements_match_canonical_basis():
    # the cofactor-free completion returns the tracked completion's elements
    rng = random.Random(28)
    for _ in range(150):
        p = random_presentation(rng)
        assert basis_elements(p) == canonical_basis(p).elements
    assert basis_elements(pres()) == ()


def test_normal_form_matches_reduce_with_quotients():
    rng = random.Random(29)
    for _ in range(100):
        basis = canonical_basis(random_presentation(rng))
        g = random_zero_const_poly(rng, max_degree=8)
        assert normal_form(g, basis) == reduce_with_quotients(g, basis)[0]


def test_reduce_with_quotients_reconstruction():
    rng = random.Random(27)
    for _ in range(200):
        p = random_presentation(rng)
        basis = canonical_basis(p)
        g = random_zero_const_poly(rng, max_degree=7)
        nf, quotients = reduce_with_quotients(g, basis)
        total = nf
        for q, e in zip(quotients, basis.elements):
            total = total + q * e
        assert total == g


def test_completion_closes_every_shift_overlap():
    # the completion tests only the overlaps of consecutive degrees; the
    # strong-basis property that this relies on covers every pair of
    # elements and every shift
    rng = random.Random(41)
    for _ in range(220):
        p = random_presentation(rng, max_degree=rng.choice((5, 8)), max_coeff=30)
        basis = canonical_basis(p)
        elements = basis.elements
        for i, e in enumerate(elements):
            for s in range(4):
                assert normal_form(e.shift(s), basis).is_zero()
            for later in elements[i + 1 :]:
                shifted = e.shift(later.degree - e.degree)
                assert normal_form(shifted, basis).is_zero()


def test_cofactors_stay_small_at_degree_16():
    # 6f, 6(x^2 + x)g with coefficients up to 100; testing every pair of
    # overlaps gave element cofactors of about 25,000 bits here
    rng = random.Random(1)

    def draw(degree):
        lead = rng.choice((-1, 1)) * rng.randint(1, 100)
        return IntPoly([0] + [rng.randint(-100, 100) for _ in range(degree - 1)] + [lead])

    f, g = draw(16), draw(14)
    basis = canonical_basis(Presentation([f.scale(6), (ip(0, 1, 1) * g).scale(6)]))
    bits = max(abs(c).bit_length()
               for row in basis.element_cofactors for p in row for c in p.coeffs)
    assert bits < 1000


def test_three_relator_cofactors_re_multiply_after_balancing(monkeypatch):
    # balancing moves each of the three cofactor columns, and each element
    # and each member still re-multiplies over the three relators
    p = Presentation([ip(*([0, -6] + [0] * 18 + [6])),
                      ip(*([0] * 5 + [4] + [0] * 13 + [10])),
                      ip(0, 0, -3, 0, 0, 0, 0, 15)])
    moved = []
    balance = ideal_module._balance

    def spy(cofactors, pairs):
        before = [list(c) for c in cofactors]
        out = balance(cofactors, pairs)
        moved.extend(i for i in range(3) if out[i] != before[i])
        return out

    monkeypatch.setattr(ideal_module, "_balance", spy)
    canonical_basis.cache_clear()
    basis = canonical_basis(p)
    canonical_basis.cache_clear()
    assert set(moved) == {0, 1, 2}
    for e, cofactors in zip(basis.elements, basis.element_cofactors):
        assert is_combination(e, cofactors, p.relators)
    for g in (basis.elements[-1].shift(3), p.relators[2] * ip(1, 2, 3)):
        member, cert = membership(g, p)
        assert member and is_combination(g, cert.cofactors, p.relators)


def test_member_queries_pool_certificates_stay_within_8_bits():
    # the identity corpus's pairs (x^2 - x)f, (x^2 - x)g, f and g of degrees
    # 4 and 3 with coefficients up to 1000, as the member-queries pools are;
    # before membership walked them, their 71 member certificates carried
    # syzygy multiples of 58 to 345 bits
    members = 0
    for p, queries in _identity_corpus()[::2]:
        for g in queries:
            member, cert = membership(g, p)
            if member:
                members += 1
                assert max((abs(c).bit_length() for q in cert.cofactors for c in q.coeffs),
                           default=0) <= 8
    assert members == 71


def test_membership_walks_nothing_without_a_relator_pair():
    # no relator or one relator: no pair data, and membership answers
    for p, g, cofactors in ((pres(), IntPoly(), ()),
                            (pres((0, -1, 1)), ip(0, -3, 3, -5, 5), (ip(3, 0, 5),))):
        assert canonical_basis(p).syzygy_pairs == ()
        member, cert = membership(g, p)
        assert member and cert.cofactors == cofactors and cert.verify(p)
        assert membership(g + ip(0, 1), p) == (False, None)


def test_sparse_pair_witness_cofactors_stay_below_300_bits():
    # 6x^100 - 6x, 10x^99 + 4x^5: the unbalanced witness cofactors had
    # 34,521 bits, against the basis's 233
    n = 100
    p = Presentation([ip(*([0, -6] + [0] * (n - 2) + [6])),
                      ip(*([0] * 5 + [4] + [0] * (n - 7) + [10]))])
    relation = decide(p).positive_witness
    bits = max(abs(c).bit_length()
               for q in relation.certificate.cofactors for c in q.coeffs)
    assert bits < 300


def _seeded_degree_20_pair():
    # 6f, 6(x^2 + x)g with f, g of degree 20, coefficients of magnitude 500..1000
    rng = random.Random(20)

    def draw(degree):
        return IntPoly([0] + [rng.choice((-1, 1)) * rng.randint(500, 1000)
                              for _ in range(degree)])

    f, g = draw(20), draw(20)
    return Presentation([f.scale(6), (ip(0, 1, 1) * g).scale(6)])


def test_completion_folds_cofactors_only_for_nonzero_remainders(monkeypatch):
    # a tracked reduction that ends at zero adds nothing to the basis, so
    # the table rows' cofactors are folded only for a nonzero remainder;
    # the completion's own division and fold are the list kernels
    remainders, folds = [], []
    divide, fold = ideal_module._divide_coeffs, ideal_module._fold_into

    def counting_divide(rem, descending, quotients=True):
        qs = divide(rem, descending, quotients)
        if quotients:
            remainders.append(any(rem))
        return qs

    def counting_fold(sums, quotients, rows):
        folds.append(len(sums))
        return fold(sums, quotients, rows)

    monkeypatch.setattr(ideal_module, "_divide_coeffs", counting_divide)
    monkeypatch.setattr(ideal_module, "_fold_into", counting_fold)
    canonical_basis.cache_clear()
    canonical_basis(_seeded_degree_20_pair())
    canonical_basis.cache_clear()
    assert 0 < sum(remainders) < len(remainders)  # some reductions end at zero
    assert len(folds) == sum(remainders)


def test_each_euclid_merge_reduces_one_s_polynomial(monkeypatch):
    # a merge of held (lead a) and row (lead c) at degree d keeps
    # u*held + v*row and hands on S = (c/g)*held - (a/g)*row alone: the
    # remainders held - (a/g)*new and row - (c/g)*new are v*S and -u*S,
    # so reducing both would repeat one reduction
    events = []
    xgcd, reduce_row = ideal_module.xgcd, ideal_module._reduce_row

    def spying_xgcd(a, c):
        events.append(("merge", a, c))
        return xgcd(a, c)

    def spying_reduce(poly, terms, table, degs):
        events.append(("reduce", poly[:], terms))
        return reduce_row(poly, terms, table, degs)

    monkeypatch.setattr(ideal_module, "xgcd", spying_xgcd)
    monkeypatch.setattr(ideal_module, "_reduce_row", spying_reduce)
    canonical_basis.cache_clear()
    canonical_basis(_seeded_degree_20_pair())
    canonical_basis.cache_clear()
    merges = [i for i, event in enumerate(events) if event[0] == "merge"]
    # shifts, inserts and the final checks reduce one term; a merge's S two
    pairs = [event for event in events if event[0] == "reduce" and len(event[2]) == 2]
    assert merges and len(pairs) == len(merges)
    for i in merges:
        (_, a, c), (kind, poly, terms) = events[i], events[i + 1]
        g = math.gcd(a, c)
        (p, _, held), (q, _, row) = terms
        d = len(held[0]) - 1
        assert kind == "reduce" and (p, q) == (c // g, -(a // g))
        assert (held[0][-1], len(row[0]) - 1, row[0][-1]) == (a, d, c)
        assert IntPoly(poly) == IntPoly(held[0]).scale(p) + IntPoly(row[0]).scale(q)
        assert len(poly) <= d


def test_tracked_completion_is_byte_identical_at_degree_20():
    # digest of (elements, element cofactors, relator quotients) as computed
    # with cofactors built for every reduction, zero remainders included;
    # building them only for kept rows must not change a byte
    basis = canonical_basis(_seeded_degree_20_pair())
    data = [_coeffs(basis.elements),
            [_coeffs(row) for row in basis.element_cofactors],
            [_coeffs(row) for row in basis.relator_quotients]]
    digest = hashlib.sha256(repr(data).encode()).hexdigest()
    assert digest == "0453e7d7f1e1adccc5ae53cb222d4b3c9f43439ba2118bffe653d7a88771628f"



def _random_poly(rng, degree, bound, constant=False):
    return IntPoly([rng.randint(-bound, bound) if constant or i else 0
                    for i in range(degree + 1)])


def _identity_corpus(seed=21):
    """Presentations with six queries each, about half of them members:
    pairs (x^2 - x)*f, (x^2 - x)*g shaped as the member-queries pools, and
    1 to 3 random relators of degree <= 10 scaled by contents up to 30."""
    rng = random.Random(seed)
    cases = []
    for i in range(60):
        if i % 2 == 0:
            relators = [ip(0, -1, 1) * _random_poly(rng, d, 1000, constant=True)
                        for d in (4, 3)]
        else:
            relators = [_random_poly(rng, rng.randint(1, 10), 9).scale(rng.randint(1, 30))
                        for _ in range(rng.randint(1, 3))]
        queries = []
        for _ in range(6):
            g = IntPoly()
            for r in relators:
                g = g + _random_poly(rng, rng.randint(0, 2), 9, constant=True) * r
            if rng.random() < 0.5:
                g = g + IntPoly.term(rng.randint(-100, 100), rng.randint(1, 12))
            queries.append(g)
        cases.append((Presentation(relators), queries))
    return cases


def _reduction_outputs():
    """The unique outputs (basis elements, and each query's normal form,
    quotients and verdict) and the cofactors (element and membership) of
    the identity corpus."""
    unique, cofactors = [], []
    for p, queries in _identity_corpus():
        basis = canonical_basis(p)
        unique.append(_coeffs(basis.elements))
        cofactors.append([_coeffs(row) for row in basis.element_cofactors])
        for g in queries:
            nf, quotients = reduce_with_quotients(g, basis)
            member, cert = membership(g, p)
            unique.append([list(nf.coeffs), _coeffs(quotients), member])
            cofactors.append(_coeffs(cert.cofactors) if member else None)
    return unique, cofactors


def test_reduction_outputs_are_byte_identical_on_a_seeded_corpus():
    # digest of the basis elements and of each query's normal form, quotients
    # and verdict, as computed when the division looked each degree up by
    # bisection, the folds summed IntPolys and the cofactors were unbalanced
    digest = hashlib.sha256(repr(_reduction_outputs()[0]).encode()).hexdigest()
    assert digest == "66060cbe162234a5414763ef10b15f0d51021bf0aa5abf29b89b361fca1643bc"


def test_reduction_cofactors_are_pinned_on_a_seeded_corpus():
    # digest of the element cofactors and the membership cofactors, re-pinned
    # when a Euclid merge began handing on one S-polynomial: only those of
    # three-relator presentations moved (the two-relator ones are unique,
    # test_kernels.test_two_relator_cofactors_are_unique_outputs)
    digest = hashlib.sha256(repr(_reduction_outputs()[1]).encode()).hexdigest()
    assert digest == "69533fbfddf331c29290d1f2ede23aca67aac7f1e65962a09dba78427b575807"


def test_membership_folds_the_cofactor_rows_of_the_basis_it_reads(monkeypatch):
    # the basis derives its cofactor rows from element_cofactors when it is
    # built, so a basis rebuilt by replace must fold its own, wrong, rows
    p = Presentation([ip(0, -1, 0, 1), ip(0, -6, 6)])
    basis = canonical_basis(p)
    g = basis.elements[-1]  # its one nonzero quotient is 1, on the top element
    assert membership(g, p)[0]
    rows = list(basis.element_cofactors)
    rows[-1] = (rows[-1][0] + ip(0, 1), *rows[-1][1:])
    wrong = dataclasses.replace(basis, element_cofactors=tuple(rows))
    assert wrong.division_rows == basis.division_rows
    assert wrong.cofactor_rows[-1][0] == (rows[-1][0]).coeffs != basis.cofactor_rows[-1][0]
    monkeypatch.setattr(ideal_module, "canonical_basis", lambda presentation: wrong)
    with pytest.raises(ideal_module.SelfCheckError):
        membership(g, p)


def test_check_reducer_agrees_with_the_division():
    # check.py reduces with code of its own, so the basis and nf checks do
    # not judge the division with the division
    rng = random.Random(22)
    for p, queries in _identity_corpus():
        elements = canonical_basis(p).elements
        for g in queries + [IntPoly(e.coeffs[:-1]) for e in elements]:
            nf = normal_form(g, canonical_basis(p))
            assert _reduces_to(g, elements, nf)
            assert not _reduces_to(g, elements, nf + IntPoly.term(1, rng.randint(0, 12)))


# exact bases and certificates pinned as computed before the completion and
# the normal-form division shared one reducer; coefficients ascend by degree
GOLDEN_BASES = [
    (
        [[0, 1, 0, 2], [0, 0, 1, 2]],  # 2x^3 + x, 2x^3 + x^2
        [[0, 3], [0, 2, 1]],
        [[[3, 2], [-2, -2]], [[2, 2], [-1, -2]]],
        [[[3], [-4, 2]], [[2], [-3, 2]]],
    ),
    (
        [[0, -6, 6], [0, 0, 0, 4]],  # 6(x^2 - x), 4x^3
        [[0, 12], [0, 6, 6], [0, 6, 0, 2]],
        [[[-2, -2], [3]], [[-1, -2], [3]], [[-1, -1], [2]]],
        [[[-1], [1], []], [[-1], [], [2]]],
    ),
    (
        # random.Random(6), coefficients in [-9, 9]
        [[0, 9, -7, 6, -1, -8, -9], [0, -5, 9, 6, 2, 1, -9]],
        [[0, 1659911664], [0, 1637652073, 1]],
        # element cofactors are not unique; re-pinned when the completion
        # moved to consecutive overlaps (63/76-bit entries before, 28 now)
        [
            [
                [221428831, 100587950, -10389776, -97623542, -138911661],
                [66589563, -9080840, 169751834, 236535203, 138911661],
            ],
            [
                [218459447, 99239055, -10250448, -96314400, -137048841],
                [65696590, -8959065, 167475444, 233363241, 137048841],
            ],
        ],
        [
            [[63865413585857358189679068552132288655],
             [-64733496623094186563078475281446413807,
              39528235386720135494298290600, -24137138796709559378,
              14738868649, -9]],
            [[63865413624855515771789002652044861429],
             [-64733496662622421963208132335113038957,
              39528235410857274299196110342, -24137138811448428032,
              14738868658, -9]],
        ],
    ),
]


def _coeffs(polys):
    return [list(p.coeffs) for p in polys]


@pytest.mark.parametrize("relators,elements,cofactors,quotients", GOLDEN_BASES)
def test_golden_bases(relators, elements, cofactors, quotients):
    basis = canonical_basis(pres(*relators))
    assert _coeffs(basis.elements) == elements
    assert [_coeffs(row) for row in basis.element_cofactors] == cofactors
    assert [_coeffs(row) for row in basis.relator_quotients] == quotients


def test_golden_membership_certificate():
    p = pres((0, 1, 0, 2), (0, 0, 1, 2))
    g = ip(0, 3) * ip(0, 0, 1) + ip(0, 1, 0, 2) * ip(0, 5)
    member, cert = membership(g, p)
    assert member
    # walked by the pair syzygy, so unique for these two relators
    assert _coeffs(cert.cofactors) == [[0, 4], [1, 1]]


def test_self_checks_survive_optimize():
    # python -O strips assert statements; the certificate re-check must stay
    script = textwrap.dedent("""
        import sys
        from finsep import ideal
        from finsep.poly import IntPoly
        from finsep import quotients
        real_verify = ideal.MembershipCertificate.verify
        ideal.MembershipCertificate.verify = lambda self, presentation: False
        try:
            ideal.canonical_basis(ideal.Presentation([IntPoly((0, -1, 1))]))
        except ideal.SelfCheckError as exc:
            print(sys.flags.optimize, isinstance(exc, RuntimeError),
                  isinstance(exc, ValueError))
        # a corrupted closure size is caught by the quotient layer
        ring = quotients.build_quotient(ideal.Presentation([IntPoly((0, -1, 1))]), 3)
        object.__setattr__(ring, "position_moduli", (9,))
        try:
            quotients.subring_closure(ring, [IntPoly((0, 1))])
        except ideal.SelfCheckError:
            print("closure")
        # a basis element above the lowest that its lead 2 does not divide
        # is stopped by the search, on decide's path (k = 2)
        from types import SimpleNamespace
        from finsep import separability
        ideal.MembershipCertificate.verify = real_verify
        elements = (IntPoly((0, -4, 4)), IntPoly((0, 1, 0, 2)))
        ideal.canonical_basis = lambda p: SimpleNamespace(elements=elements)
        try:
            separability.decide(ideal.Presentation([IntPoly((0, -2, 2))]))
        except ideal.SelfCheckError as exc:
            print("monic" if "monic" in str(exc) else exc)
    """)
    src = str(Path(finsep.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout.split() == ["1", "True", "False", "closure", "monic"], proc.stderr


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no self-check may be one
    import ast

    package = Path(finsep.__file__).resolve().parent
    sources = sorted(package.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not found, f"{path.name}: assert at lines {found}"
