"""Canonical bases of relator ideals in Z[x] and certified reduction.

A presentation lists integer relator polynomials with zero constant term;
the ideal V they generate in Z[x] consists exactly of the polynomials that
vanish at the ring generator.  This module computes a strong Groebner-style
basis of V: one element per "jump" degree, leading coefficients positive and
dividing backward as the degree ascends, tails fully reduced.  Reduction
against such a basis (least-nonnegative residues) gives unique normal forms,
so membership in V is decidable, and every answer ships a cofactor
certificate that re-multiplies exactly.

One division, ``_divide``, does all reduction: it returns the normal form
and, when asked, the quotients over the elements it divides by.  One
completion, ``_complete``, builds every basis.  It works on rows
(poly, cof_1, ..., cof_n) with poly == sum(cof_j * relators[j]), or on
bare rows (poly,) when no certificate is wanted; reducing a row divides
its poly and subtracts the quotients' fold (``_fold``) of the table rows'
cofactors.  ``canonical_basis`` runs it with cofactors and is cached;
membership folds the division's quotients over its basis cofactors, and
every certificate is re-checked before it is returned.
``basis_elements`` runs it on bare rows, uncached, for callers that need
only the elements (the finite quotients of the separation search).  A
failed re-check raises ``SelfCheckError``.

The monic-multiple search decides, degree by degree, whether k*phi lies in V
for some monic phi of bounded degree, by solving an integer-linear system
over one lattice that grows with the degree.  The strong basis already
holds V in echelon form, one staircase row x^(n-d) * t_d per degree n, so
each degree adds its staircase row and, when k*x^n is not yet reached,
k*x^n itself; the staircase rows of degree <= n span the members of V of
degree <= n.  It starts at the algebraic degree (the lowest basis degree):
no nonzero member of V lies below it.  The search reads basis elements
only and builds no certificate; the relations handed out are certified
once each, by ``invariants.certified_relation``.

One helper, ``staircase_row``, builds the staircase rows for both
lattices of the library: this search and the subring span of a finite
quotient (``quotients._SubringSpan``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

from .intarith import SelfCheckError, xgcd
from .poly import IntPoly, _trim


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


def _divide(
    g: IntPoly, elements, quotients: bool = True
) -> tuple[IntPoly, tuple[IntPoly, ...]]:
    """Normal form of g plus quotients: g == nf + sum(q[i] * elements[i]).

    ``elements`` ascend strictly in degree.  Terms are reduced from the top
    down by the element of largest degree not above them, to the
    least-nonnegative residue of that element's lead.  With ``quotients``
    false the quotients are not built and () is returned in their place.
    """
    if not elements:
        return g, ()
    degrees = [e.degree for e in elements]
    rem = list(g.coeffs)
    qs = [dict() for _ in elements] if quotients else None
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
        if qs is not None:
            qs[i][shift] = qs[i].get(shift, 0) + q
    if qs is None:
        return IntPoly(rem), ()
    qpolys = tuple(
        IntPoly([qd.get(s, 0) for s in range(max(qd, default=-1) + 1)])
        for qd in qs
    )
    return IntPoly(rem), qpolys


def _fold(quotients, rows) -> tuple[IntPoly, ...]:
    """Componentwise sum of quotients[i] * rows[i] over rows of one width."""
    sums = [IntPoly()] * (len(rows[0]) if rows else 0)
    for q, row in zip(quotients, rows):
        if q:
            sums = [s + q * p for s, p in zip(sums, row)]
    return tuple(sums)


# row operations are linear, so a row keeps poly == sum(cof_j * relators[j])

def _combine(a: int, row, b: int, other) -> tuple[IntPoly, ...]:
    """The row a*row + b*other."""
    return tuple(p.scale(a) + q.scale(b) for p, q in zip(row, other))


def _reduce_row(row, table: dict) -> tuple[IntPoly, ...]:
    """Full normal form of row[0] against the table, cofactors carried."""
    if not table:
        return row
    held = [table[d] for d in sorted(table)]
    nf, quotients = _divide(row[0], [h[0] for h in held], len(row) > 1)
    folded = _fold(quotients, [h[1:] for h in held])
    return (nf, *(c - f for c, f in zip(row[1:], folded)))


def _insert(row, table: dict) -> None:
    """Reduce a row against the table and merge what is left into it.

    When the degree slot is occupied the two leads are combined by extended
    Euclid, which strictly shrinks the lead; the two remainders fall below
    that degree and re-enter through reduction recursively.
    """
    row = _reduce_row(row, table)
    while not row[0].is_zero():
        if row[0].lead < 0:
            row = tuple(-p for p in row)
        d = row[0].degree
        if d not in table:
            table[d] = row
            return
        held = table[d]
        a = held[0].lead
        c = row[0].lead
        # row is fully reduced, so 0 < c < a and the gcd strictly shrinks a
        g, u, v = xgcd(a, c)
        new = _combine(u, held, v, row)
        rem_held = _combine(1, held, -(a // g), new)
        rem_row = _combine(1, row, -(c // g), new)
        if not (new[0].degree == d and new[0].lead == g < a
                and rem_held[0].degree < d and rem_row[0].degree < d):
            raise SelfCheckError(f"Euclid merge at degree {d} kept its lead")
        table[d] = new
        _insert(rem_held, table)
        row = _reduce_row(rem_row, table)


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


def _complete(rows) -> list[tuple[IntPoly, ...]]:
    """Complete relator rows to the rows of the strong basis, ascending.

    Rows are (poly,) or (poly, cof_1, ..., cof_n); every decision reads
    the poly alone, so both widths give the same polys.

    Only the shifts x^(e-d) * t_d between consecutive table degrees d < e
    are tested.  At the fixpoint each of them reduces to zero, and that is
    enough for the table to be a strong basis of the ideal V it spans:

    - For each degree D at or above the lowest table degree, let d(D) be
      the largest table degree <= D and call x^(D-d(D)) * t_d(D) the
      staircase row of degree D.  By induction on D, x times the staircase
      row of degree D is either the staircase row of degree D+1 (no table
      entry at D+1) or the tested shift x^(e-d) * t_d with e = D+1, which
      reduces to zero, so it lies in the span of the staircase rows (a
      reduction subtracts staircase rows only).  That span is therefore
      an ideal.  It lies in V and contains every table row, and every row
      ever inserted is a combination of table rows, so it is V.
    - The staircase row of degree D reduces to zero by t_d(D) alone, and
      a consecutive shift reducing to zero means lead(t_e) divides
      lead(t_d): the leads divide backward.  So the staircase rows form an
      echelon basis of V whose lead at each degree generates the lead
      ideal there (Szekeres, A canonical basis for the ideals of a
      polynomial domain, 1952), and every member of V reduces to zero.
      This is the univariate case of the strong Groebner criterion of
      Kandri-Rody and Kapur (J. Symbolic Comput., 1988).

    Testing every pair instead gives the same elements, but each wasted
    Euclid merge multiplies the tracked cofactors.
    """
    table: dict[int, tuple[IntPoly, ...]] = {}
    work = list(rows)
    while work:
        for row in work:
            _insert(row, table)
        # test consecutive shift overlaps; a nonzero residue re-enters
        work = []
        degs = sorted(table)
        for d, e in zip(degs, degs[1:]):
            r = _reduce_row(tuple(p.shift(e - d) for p in table[d]), table)
            if not r[0].is_zero():
                work.append(r)

    # drop entries made redundant by an equal lead at lower degree
    degs = sorted(table)
    kept: dict[int, tuple[IntPoly, ...]] = {}
    prev_lead = None
    for d in degs:
        if table[d][0].lead == prev_lead:
            continue
        kept[d] = table[d]
        prev_lead = table[d][0].lead
    kept_polys = [kept[d][0] for d in sorted(kept)]
    for d in degs:
        if d not in kept and not _divide(
            table[d][0], kept_polys, False
        )[0].is_zero():
            raise SelfCheckError(f"dropped degree-{d} entry is not redundant")

    # tail auto-reduction: leads are safe because no other entry divides them
    for d in sorted(kept, reverse=True):
        entry = kept.pop(d)
        reduced = _reduce_row(entry, kept)
        if reduced[0].degree != d or reduced[0].lead != entry[0].lead:
            raise SelfCheckError(f"tail reduction changed the degree-{d} lead")
        kept[d] = reduced
    return [kept[d] for d in sorted(kept)]


def basis_elements(presentation: Presentation) -> tuple[IntPoly, ...]:
    """The elements of ``canonical_basis(presentation)``, without cofactors.

    The completion runs on bare polys and is not cached.  It keeps the
    lead, Euclid and redundancy checks, and every relator must reduce to
    zero; there is no certificate to re-multiply.
    """
    elements = tuple(row[0] for row in _complete((r,) for r in presentation.relators))
    for j, r in enumerate(presentation.relators):
        if not _divide(r, elements, False)[0].is_zero():
            raise SelfCheckError(f"relator {j} does not reduce to zero")
    return elements


@lru_cache(maxsize=256)
def canonical_basis(presentation: Presentation) -> CanonicalBasis:
    """Complete the relators to a strong basis with unique normal forms."""
    relators = presentation.relators
    n = len(relators)
    zero, one = IntPoly(), IntPoly((1,))
    rows = _complete(
        (r, *(one if j == i else zero for j in range(n)))
        for i, r in enumerate(relators)
    )
    for row in rows:
        if row[0].constant != 0 or not MembershipCertificate(
            row[1:], row[0]
        ).verify(presentation):
            raise SelfCheckError(f"degree-{row[0].degree} element fails a check")
    elements = tuple(row[0] for row in rows)
    back = []
    for j, r in enumerate(relators):
        nf, quotients = _divide(r, elements)
        if not nf.is_zero():
            raise SelfCheckError(f"relator {j} does not reduce to zero")
        back.append(quotients)
    return CanonicalBasis(
        presentation=presentation,
        elements=elements,
        element_cofactors=tuple(row[1:] for row in rows),
        relator_quotients=tuple(back),
    )


def reduce_with_quotients(
    g: IntPoly, basis: CanonicalBasis
) -> tuple[IntPoly, tuple[IntPoly, ...]]:
    """Unique normal form of g plus quotients over the basis elements."""
    return _divide(g, basis.elements)


def normal_form(g: IntPoly, basis: CanonicalBasis) -> IntPoly:
    """Unique normal form of g against the basis."""
    return _divide(g, basis.elements, False)[0]


def membership(
    g: IntPoly, presentation: Presentation
) -> tuple[bool, MembershipCertificate | None]:
    """Decide g in V; on membership return cofactors over the relators."""
    basis = canonical_basis(presentation)
    nf, quotients = reduce_with_quotients(g, basis)
    if not nf.is_zero():
        return False, None
    cert = MembershipCertificate(
        cofactors=_fold(quotients, basis.element_cofactors), claim=g
    )
    if not cert.verify(presentation):
        raise SelfCheckError("membership certificate fails to re-multiply")
    return True, cert


def _lin(a: int, s: dict, b: int, t: dict) -> dict:
    """The sparse vector a*s + b*t."""
    out = {}
    for i in s.keys() | t.keys():
        c = a * s.get(i, 0) + b * t.get(i, 0)
        if c:
            out[i] = c
    return out


class _Echelon:
    """Integer row echelon; a row's pivot is its highest nonzero coordinate.

    A row with pivot j stores coordinates 0..j only, so the echelon grows
    with its input and has no fixed dimension.  Rows optionally carry a
    sparse tail {index: coefficient} of bookkeeping coordinates that
    follows every row operation, so reducing a vector to zero also yields
    its expression over the tracked generators.
    """

    def __init__(self):
        self.rows: dict[int, list[int]] = {}
        self.tails: dict[int, dict[int, int]] = {}

    def add(self, vec, tail=None) -> None:
        vec = _trim(list(vec))
        tail = dict(tail) if tail else {}
        while vec:
            j = len(vec) - 1
            row = self.rows.get(j)
            if row is None:
                if vec[j] < 0:
                    vec = [-x for x in vec]
                    tail = {i: -c for i, c in tail.items()}
                self.rows[j] = vec
                self.tails[j] = tail
                return
            rtail = self.tails[j]
            a, b = row[j], vec[j]
            if b % a == 0:
                q = b // a
                vec = [x - q * y for x, y in zip(vec, row)]
                tail = _lin(1, tail, -q, rtail)
            else:
                g, u, v = xgcd(a, b)
                self.rows[j] = [u * x + v * y for x, y in zip(row, vec)]
                self.tails[j] = _lin(u, rtail, v, tail)
                vec = [(a // g) * y - (b // g) * x for x, y in zip(row, vec)]
                tail = _lin(-(b // g), rtail, a // g, tail)
            _trim(vec)

    def solve(self, vec) -> dict[int, int] | None:
        """If vec is in the row span, return its accumulated sparse tail."""
        vec = _trim(list(vec))
        out: dict[int, int] = {}
        while vec:
            j = len(vec) - 1
            row = self.rows.get(j)
            if row is None or vec[j] % row[j]:
                return None
            q = vec[j] // row[j]
            vec = _trim([x - q * y for x, y in zip(vec, row)])
            if self.tails[j]:
                out = _lin(1, out, q, self.tails[j])
        return out


def staircase_row(elements, n: int) -> list[int]:
    """Coordinates of the staircase row of degree n, x^(n-d) * t_d.

    t_d is the element of largest degree d <= n; ``elements`` ascend in
    degree and the lowest is at most n.  Coordinate i - 1 holds the
    coefficient of x^i, for degrees 1 .. n, so the row's pivot is n - 1.
    """
    t = next(e for e in reversed(elements) if e.degree <= n)
    return [0] * (n - t.degree) + list(t.coeffs[1:])


def monic_multiple_search(
    presentation: Presentation, k: int, degree_bound: int
) -> IntPoly | None:
    """Search for monic phi (zero constant term) with k*phi in V.

    Candidate degrees are tried ascending, so a hit has least degree.  At
    degree n, integer lower coefficients exist exactly when k*x^n lies in
    the lattice L_n spanned by k*x^i (i < n) and V_{<=n}, the members of V
    of degree <= n; coordinate i - 1 holds the coefficient of x^i, and
    each k*x^i carries the tail {i: 1}, so solving for k*x^n reads off the
    lower coefficients.  A None result is a proof that no such phi of
    degree <= degree_bound exists.  A hit is returned uncertified: callers
    that hand it out pass it through ``invariants.certified_relation``,
    which checks it and builds its membership certificate.

    One echelon grows across the degrees.  It starts with k*x^i for
    i < m, where m = basis.degrees[0] is the algebraic degree: the basis
    is a strong basis, so every nonzero member of V reduces by some
    element and has degree >= m, while k*phi is nonzero of degree n.  At
    each n >= m it gains the staircase row of degree n, x^(n-d) * t_d with
    d the largest basis degree <= n (``staircase_row``), then solves for
    k*x^n, and on failure gains k*x^n before moving to n + 1.  The
    lattice at degree n is then L_n: the shifts of the basis elements of
    degree <= n span V_{<=n}, and the staircase rows of degree <= n,
    which are among those shifts, span it too, because every member of V
    reduces to zero against them from the top down (see ``_complete``).
    Each staircase row brings a new pivot, so a degree costs one merge
    and one solve, and a row ends at its pivot, so it costs no more than
    its degree.
    """
    if degree_bound < 1:
        raise InvalidBoundError(f"degree bound must be >= 1, got {degree_bound}")
    if k < 1:
        raise InvalidBoundError(f"k must be >= 1, got {k}")
    basis = canonical_basis(presentation)
    if basis.is_empty():
        return None
    degrees = basis.degrees
    lattice = _Echelon()
    for i in range(1, degrees[0]):
        lattice.add([0] * (i - 1) + [k], {i: 1})
    for n in range(degrees[0], degree_bound + 1):
        lattice.add(staircase_row(basis.elements, n))
        target = [0] * (n - 1) + [k]
        coords = lattice.solve(target)
        if coords is None:
            lattice.add(target, {n: 1})
            continue
        # k*x^n = sum(coords[i] * k*x^i) + (member of V)
        return IntPoly([0] + [-coords.get(i, 0) for i in range(1, n)] + [1])
    return None
