"""Canonical bases of relator ideals in Z[x] and certified reduction.

A presentation lists integer relator polynomials with zero constant term;
the ideal V they generate in Z[x] consists exactly of the polynomials that
vanish at the ring generator.  This module computes a strong Groebner-style
basis of V: one element per "jump" degree, leading coefficients positive and
dividing backward as the degree ascends, tails fully reduced.  Reduction
against such a basis (least-nonnegative residues) gives unique normal forms,
so membership in V is decidable, and every answer ships a cofactor
certificate that re-multiplies exactly.

The monic-multiple search decides, degree by degree, whether k*phi lies in V
for some monic phi of bounded degree, by solving an integer-linear system
over an echelonized lattice of shifted basis elements.  It starts at the
algebraic degree (the lowest basis degree): no nonzero member of V lies
below it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache

from .intarith import xgcd
from .poly import IntPoly


class ConstantTermError(ValueError):
    """Raised when a relator (or target element) has a nonzero constant term."""


class InvalidBoundError(ValueError):
    """Raised when a search bound is not a positive integer."""


@dataclass(frozen=True)
class Presentation:
    """A validated relator list for a monogenic ring.

    Zero relators are dropped; the empty presentation (free ring on one
    generator) is allowed.  Every relator must have zero constant term.
    """

    relators: tuple[IntPoly, ...]

    def __init__(self, relators=()):
        kept = []
        for r in relators:
            if not isinstance(r, IntPoly):
                r = IntPoly(r)
            if r.is_zero():
                continue
            if r.constant != 0:
                raise ConstantTermError(
                    f"relator {r!r} has a nonzero constant term"
                )
            kept.append(r)
        object.__setattr__(self, "relators", tuple(kept))

    @property
    def max_degree(self) -> int:
        return max((r.degree for r in self.relators), default=0)


@dataclass(frozen=True)
class MembershipCertificate:
    """Cofactors witnessing that ``claim`` lies in the relator ideal."""

    cofactors: tuple[IntPoly, ...]
    claim: IntPoly

    def verify(self, presentation: Presentation) -> bool:
        """Re-multiply the combination; uses only polynomial arithmetic.

        A cofactor list whose length differs from the relator count is
        rejected, never padded or truncated.
        """
        if len(self.cofactors) != len(presentation.relators):
            return False
        total = IntPoly()
        for c, r in zip(self.cofactors, presentation.relators):
            total = total + c * r
        return total == self.claim


class _Tracked:
    """A polynomial carried through completion with its relator cofactors."""

    __slots__ = ("poly", "cof")

    def __init__(self, poly: IntPoly, cof: tuple[IntPoly, ...]):
        self.poly = poly
        self.cof = cof

    def combine(self, other: "_Tracked", a: int, b: int) -> "_Tracked":
        """a*self + b*other, cofactors included."""
        return _Tracked(
            self.poly.scale(a) + other.poly.scale(b),
            tuple(
                u.scale(a) + v.scale(b) for u, v in zip(self.cof, other.cof)
            ),
        )

    def sub_shifted(self, other: "_Tracked", q: int, shift: int) -> "_Tracked":
        """self - q * x**shift * other, cofactors included."""
        return _Tracked(
            self.poly - other.poly.scale(q).shift(shift),
            tuple(
                u - v.scale(q).shift(shift) for u, v in zip(self.cof, other.cof)
            ),
        )

    def neg(self) -> "_Tracked":
        return _Tracked(-self.poly, tuple(-c for c in self.cof))


def _reduce_tracked(t: _Tracked, table: dict[int, _Tracked]) -> _Tracked:
    """Full normal form of t against the current table, cofactors tracked."""
    if not table:
        return t
    degrees = sorted(table)
    d = t.poly.degree
    while d >= 1:
        c = t.poly[d]
        if c:
            i = bisect_right(degrees, d)
            if i == 0:
                d -= 1
                continue
            e = degrees[i - 1]
            q = c // table[e].poly.lead
            if q:
                t = t.sub_shifted(table[e], q, d - e)
        d -= 1
    return t


def _insert_tracked(t: _Tracked, table: dict[int, _Tracked]) -> bool:
    """Merge a reduced nonzero t into the table; returns True if it changed.

    When the slot is occupied the leading coefficients are combined by
    extended Euclid, which strictly shrinks the lead; displaced remainders
    re-enter through reduction recursively.
    """
    changed = False
    while not t.poly.is_zero():
        if t.poly.lead < 0:
            t = t.neg()
        d = t.poly.degree
        if d not in table:
            table[d] = t
            return True
        h = table[d]
        a = h.poly.lead
        c = t.poly.lead
        # t is fully reduced, so 0 < c < a and the gcd strictly shrinks a
        g, u, v = xgcd(a, c)
        new = h.combine(t, u, v)
        assert new.poly.degree == d and new.poly.lead == g and g < a
        rem_h = h.sub_shifted(new, a // g, 0)
        rem_t = t.sub_shifted(new, c // g, 0)
        assert rem_h.poly.degree < d and rem_t.poly.degree < d
        table[d] = new
        changed = True
        _insert_or_drop(rem_h, table)
        t = _reduce_tracked(rem_t, table)
    return changed


def _insert_or_drop(t: _Tracked, table: dict[int, _Tracked]) -> bool:
    t = _reduce_tracked(t, table)
    if t.poly.is_zero():
        return False
    return _insert_tracked(t, table)


@dataclass(frozen=True)
class CanonicalBasis:
    """Strong basis of the relator ideal with two-way cofactor certificates.

    ``elements`` are in strictly ascending degree with positive leading
    coefficients dividing backward; ``element_cofactors[i]`` expresses
    elements[i] over the relators, and ``relator_quotients[j]`` expresses
    relators[j] over the elements.
    """

    presentation: Presentation
    elements: tuple[IntPoly, ...]
    element_cofactors: tuple[tuple[IntPoly, ...], ...]
    relator_quotients: tuple[tuple[IntPoly, ...], ...]

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(e.degree for e in self.elements)

    @property
    def leads(self) -> tuple[int, ...]:
        return tuple(e.lead for e in self.elements)

    def is_empty(self) -> bool:
        return not self.elements


@lru_cache(maxsize=256)
def canonical_basis(presentation: Presentation) -> CanonicalBasis:
    """Complete the relators to a strong basis with unique normal forms."""
    relators = presentation.relators
    n = len(relators)
    unit = lambda i: tuple(
        IntPoly((1,)) if j == i else IntPoly() for j in range(n)
    )
    table: dict[int, _Tracked] = {}
    work = [_Tracked(r, unit(i)) for i, r in enumerate(relators)]
    while work:
        for t in work:
            _insert_or_drop(t, table)
        # test every shift overlap; any nonzero residue re-enters the table
        work = []
        degs = sorted(table)
        for i, d in enumerate(degs):
            for e in degs[i + 1 :]:
                s = _Tracked(
                    table[d].poly.shift(e - d),
                    tuple(c.shift(e - d) for c in table[d].cof),
                )
                r = _reduce_tracked(s, table)
                if not r.poly.is_zero():
                    work.append(r)

    # drop entries made redundant by an equal lead at lower degree
    degs = sorted(table)
    kept: dict[int, _Tracked] = {}
    prev_lead = None
    for d in degs:
        if prev_lead is not None and table[d].poly.lead == prev_lead:
            continue
        kept[d] = table[d]
        prev_lead = table[d].poly.lead
    for d in degs:
        if d not in kept:
            assert _reduce_tracked(table[d], kept).poly.is_zero()

    # tail auto-reduction: leads are safe because no other entry divides them
    for d in sorted(kept, reverse=True):
        entry = kept.pop(d)
        reduced = _reduce_tracked(entry, kept)
        assert reduced.poly.degree == d and reduced.poly.lead == entry.poly.lead
        kept[d] = reduced

    elements = []
    cofactors = []
    for d in sorted(kept):
        t = kept[d]
        assert t.poly.constant == 0, "ideal member grew a constant term"
        assert MembershipCertificate(t.cof, t.poly).verify(presentation)
        elements.append(t.poly)
        cofactors.append(t.cof)

    basis = CanonicalBasis(
        presentation=presentation,
        elements=tuple(elements),
        element_cofactors=tuple(cofactors),
        relator_quotients=(),
    )
    back = []
    for r in relators:
        nf, quotients = reduce_with_quotients(r, basis)
        assert nf.is_zero(), "relator failed to reduce against its own basis"
        back.append(quotients)
    return replace(basis, relator_quotients=tuple(back))


def reduce_with_quotients(
    g: IntPoly, basis: CanonicalBasis
) -> tuple[IntPoly, tuple[IntPoly, ...]]:
    """Normal form of g plus quotients: g == nf + sum(q[i] * elements[i]).

    Term residues follow the least-nonnegative convention, so the result
    is the unique normal form of g modulo the ideal.
    """
    if basis.is_empty():
        return g, ()
    degrees = basis.degrees
    elements = basis.elements
    rem = list(g.coeffs)
    quotients = [dict() for _ in elements]
    for d in range(len(rem) - 1, 0, -1):
        c = rem[d]
        if not c:
            continue
        i = bisect_right(degrees, d)
        if i == 0:
            continue
        i -= 1
        q, r = divmod(c, elements[i].lead)
        if not q:
            continue
        shift = d - degrees[i]
        for j, b in enumerate(elements[i].coeffs):
            rem[shift + j] -= q * b
        rem[d] = r
        quotients[i][shift] = quotients[i].get(shift, 0) + q
    qpolys = tuple(
        IntPoly(
            [qd.get(s, 0) for s in range(max(qd, default=-1) + 1)]
        )
        for qd in quotients
    )
    return IntPoly(rem), qpolys


def normal_form(g: IntPoly, basis: CanonicalBasis) -> IntPoly:
    """Unique normal form of g against the basis."""
    nf, _ = reduce_with_quotients(g, basis)
    return nf


def membership(
    g: IntPoly, presentation: Presentation
) -> tuple[bool, MembershipCertificate | None]:
    """Decide g in V; on membership return cofactors over the relators."""
    basis = canonical_basis(presentation)
    nf, quotients = reduce_with_quotients(g, basis)
    if not nf.is_zero():
        return False, None
    n = len(presentation.relators)
    cof = [IntPoly() for _ in range(n)]
    for q, element_cof in zip(quotients, basis.element_cofactors):
        if q.is_zero():
            continue
        for i in range(n):
            cof[i] = cof[i] + q * element_cof[i]
    cert = MembershipCertificate(cofactors=tuple(cof), claim=g)
    assert cert.verify(presentation)
    return True, cert


class _Echelon:
    """Integer row echelon over coordinates indexed high-to-low degree.

    Rows optionally carry a tail of bookkeeping coordinates that follows
    every row operation, so reducing a vector to zero also yields its
    expression over the tracked generators.
    """

    def __init__(self, dim: int, tail_dim: int):
        self.dim = dim
        self.tail_dim = tail_dim
        self.rows: dict[int, list[int]] = {}
        self.tails: dict[int, list[int]] = {}

    def _pivot(self, vec) -> int:
        for j in range(self.dim - 1, -1, -1):
            if vec[j]:
                return j
        return -1

    def add(self, vec, tail=None):
        vec = list(vec) + [0] * (self.dim - len(vec))
        tail = list(tail) if tail is not None else [0] * self.tail_dim
        while True:
            j = self._pivot(vec)
            if j < 0:
                return
            if j not in self.rows:
                if vec[j] < 0:
                    vec = [-x for x in vec]
                    tail = [-x for x in tail]
                self.rows[j] = vec
                self.tails[j] = tail
                return
            row, rtail = self.rows[j], self.tails[j]
            a, b = row[j], vec[j]
            if b % a == 0:
                q = b // a
                vec = [x - q * y for x, y in zip(vec, row)]
                tail = [x - q * y for x, y in zip(tail, rtail)]
            else:
                g, u, v = xgcd(a, b)
                new = [u * x + v * y for x, y in zip(row, vec)]
                ntail = [u * x + v * y for x, y in zip(rtail, tail)]
                vec = [(a // g) * y - (b // g) * x for x, y in zip(row, vec)]
                tail = [(a // g) * y - (b // g) * x for x, y in zip(rtail, tail)]
                self.rows[j] = new
                self.tails[j] = ntail

    def solve(self, vec) -> list[int] | None:
        """If vec is in the row span, return its accumulated tail coordinates."""
        vec = list(vec) + [0] * (self.dim - len(vec))
        out = [0] * self.tail_dim
        for j in range(self.dim - 1, -1, -1):
            if not vec[j]:
                continue
            row = self.rows.get(j)
            if row is None or vec[j] % row[j]:
                return None
            q = vec[j] // row[j]
            vec = [x - q * y for x, y in zip(vec, row)]
            out = [x + q * y for x, y in zip(out, self.tails[j])]
        return out


def shift_lattice(basis: CanonicalBasis, dim: int, tail_dim: int = 0) -> _Echelon:
    """Echelon of every shift x^s * e of a basis element e with deg <= dim.

    Coordinate i holds the coefficient of x^(i+1), for degrees 1 .. dim;
    rows carry ``tail_dim`` zero bookkeeping coordinates.  Elements are
    inserted by ascending degree, then ascending shift.
    """
    lattice = _Echelon(dim, tail_dim)
    for element in basis.elements:
        for shift in range(dim - element.degree + 1):
            lattice.add([0] * shift + list(element.coeffs[1:]))
    return lattice


def monic_multiple_search(
    presentation: Presentation, k: int, degree_bound: int
) -> IntPoly | None:
    """Search for monic phi (zero constant term) with k*phi in V.

    Candidate degrees are tried ascending, so a hit has least degree.  Per
    degree n the existence of integer lower coefficients is decided exactly
    by echelonizing the lattice spanned by k*x^i (i < n) and all shifted
    basis elements of degree <= n, then solving for k*x^n.  A None result
    is a proof that no such phi of degree <= degree_bound exists.

    The degrees start at the algebraic degree m = basis.degrees[0]: the
    basis is a strong basis, so every nonzero member of V reduces by some
    element and has degree >= m, while k*phi is nonzero of degree n.
    Below m the lattice holds only the k*x^i, whose span misses k*x^n.
    """
    if degree_bound < 1:
        raise InvalidBoundError(f"degree bound must be >= 1, got {degree_bound}")
    if k < 1:
        raise InvalidBoundError(f"k must be >= 1, got {k}")
    basis = canonical_basis(presentation)
    if basis.is_empty():
        return None
    for n in range(basis.degrees[0], degree_bound + 1):
        phi = _monic_multiple_at_degree(basis, k, n)
        if phi is not None:
            member, _ = membership(phi.scale(k), presentation)
            assert member and phi.is_monic() and phi.constant == 0
            return phi
    return None


def _monic_multiple_at_degree(
    basis: CanonicalBasis, k: int, n: int
) -> IntPoly | None:
    # coordinates are degrees 1..n; tails track the free lower coefficients
    lattice = shift_lattice(basis, n, tail_dim=n - 1)
    for i in range(1, n):
        vec = [0] * n
        vec[i - 1] = k
        tail = [0] * (n - 1)
        tail[i - 1] = 1
        lattice.add(vec, tail)
    target = [0] * n
    target[n - 1] = k
    coords = lattice.solve(target)
    if coords is None:
        return None
    # k*x^n = sum(coords[i-1] * k*x^i) + (ideal member)
    phi = [0] + [-coords[i - 1] for i in range(1, n)] + [1]
    return IntPoly(phi)
