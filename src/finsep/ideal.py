"""Canonical bases of relator ideals in Z[x] and certified reduction.

A presentation lists integer relator polynomials with zero constant term;
the ideal V they generate in Z[x] consists exactly of the polynomials that
vanish at the ring generator.  This module computes a strong Groebner-style
basis of V: one element per "jump" degree, leading coefficients positive and
dividing backward as the degree ascends, tails fully reduced.  Reduction
against such a basis (least-nonnegative residues) gives unique normal forms,
so membership in V is decidable, and every answer ships a cofactor
certificate that re-multiplies exactly.

One division does all reduction: one top-down walk over the elements,
``poly._divide_coeffs`` on coefficient lists, returns the normal form and,
when asked, the quotients; ``poly._divide`` is its IntPoly wrapper, and
``quotients.FiniteRing`` reduces its images and products with it.
One completion, ``_complete``, builds every basis on plain int lists, with
IntPolys made once, from the rows it returns.  It works on rows
[poly, cof_1, ..., cof_n] with poly == sum(cof_j * relators[j]), or on
bare rows [poly] when no certificate is wanted; a row's cofactors are
built only once its reduced poly is known to be nonzero.
``canonical_basis`` runs it with cofactors, balances them by the relators'
syzygies (``_balance``) and is cached on the presentation's hash.  The basis
keeps the coefficient rows the read path walks: ``normal_form`` and
``reduce_with_quotients`` divide on its elements' rows, and ``membership``
divides through ``reduce_with_quotients`` (the function a tracer counts) and
folds the quotients over its cofactor rows (``_fold_into``).  Every
certificate is re-checked (``check.is_combination``) before it is returned.
``basis_elements`` runs it on bare rows, uncached, for callers that need
only the elements (the finite quotients of the separation search).  A failed
re-check raises ``SelfCheckError``.

The monic-multiple search, whether k*phi lies in V for some monic phi,
reads the basis: the answer is t/lead(t) for the lowest element t whose
lead divides k, or none when the minimal polynomial's primitive part is
not monic (the argument is in ``monic_multiple_search``).
The relations handed out are certified once each, by
``invariants.certified_relation``.  One helper, ``staircase_row``, builds
the staircase rows x^(n-d) * t_d of a basis, and one echelon over Z/N,
``_Echelon``, holds their span for the subring span of a finite quotient
(``quotients._SubringSpan``, N = q).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

from .check import is_combination
from .intarith import NonPositiveError, SelfCheckError, gcd_list, xgcd
from .poly import _COEFFS, IntPoly, _divide, _divide_coeffs, _intpoly, _trim


class ConstantTermError(ValueError):
    """Raised when a relator (or target element) has a nonzero constant term."""


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
        # hashed once: canonical_basis looks every presentation up in its cache
        object.__setattr__(self, "_hash", hash(tuple(r.coeffs for r in kept)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class MembershipCertificate:
    """Cofactors witnessing that ``claim`` lies in the relator ideal."""

    cofactors: tuple[IntPoly, ...]
    claim: IntPoly

    def verify(self, presentation: Presentation) -> bool:
        """Re-multiply the combination (``check.is_combination``)."""
        return is_combination(self.claim, self.cofactors, presentation.relators)


def _fold_into(sums: list, quotients, rows) -> list:
    """Add quotients[i] * rows[i] componentwise into the lists ``sums``, over
    coefficient sequences, each component into one list; left untrimmed."""
    for q, row in zip(quotients, rows):
        if q:
            for acc, p in zip(sums, row):
                acc += [0] * (len(q) + len(p) - len(acc))
                for i, a in enumerate(q):
                    if a:
                        for t, b in enumerate(p, i):
                            acc[t] += a * b
    return sums


def _combine(terms, j: int) -> list:
    """Component j of sum(a * x^s * row) over terms (a, s, row), a fresh list."""
    if len(terms) == 1 and terms[0][0] == 1:
        _, s, row = terms[0]
        return [0] * s + row[j] if row[j] else []
    out = [0] * max(s + len(row[j]) for _, s, row in terms)
    for a, s, row in terms:
        for i, c in enumerate(row[j], s):
            out[i] += a * c
    return _trim(out)


def _reduce_row(poly: list, terms, table: dict, degs) -> list | None:
    """Full normal form of a row against the table rows of degrees ``degs``.

    The row is poly == sum(a * x^s * row[0]) over ``terms`` (a, s, row),
    and its cofactors are the same sum over row[1:].  Only the poly, a list
    handed over, is divided first, in place.  A zero normal form returns
    None and builds no cofactor; otherwise the cofactors are summed, minus
    the quotients' fold (``_fold_into``) of the table rows' cofactors.
    """
    held = [table[d] for d in reversed(degs)]
    width = len(terms[0][2])
    quotients = _divide_coeffs(poly, [h[0] for h in held], width > 1)
    if not _trim(poly):
        return None
    cofactors = [_combine(terms, j) for j in range(1, width)]
    if cofactors:
        negated = [[-k for k in q] for q in quotients]
        _fold_into(cofactors, negated, [h[1:] for h in held])
    return [poly, *map(_trim, cofactors)]


def _insert(poly: list, terms, table: dict, degs: list) -> None:
    """Reduce a row (as in ``_reduce_row``) and merge what is left into the table.

    When the degree slot is occupied the two leads are combined by extended
    Euclid, which strictly shrinks the lead; the two remainders fall below
    that degree and re-enter through reduction recursively, each one's
    cofactors built only if it does not reduce to zero.
    """
    row = _reduce_row(poly, terms, table, degs)
    while row:
        if row[0][-1] < 0:
            row = [[-c for c in p] for p in row]
        d = len(row[0]) - 1
        held = table.get(d)
        if held is None:
            table[d] = row
            insort(degs, d)
            return
        a, c = held[0][-1], row[0][-1]
        # row is fully reduced, so 0 < c < a and the gcd strictly shrinks a
        g, u, v = xgcd(a, c)
        pair = ((u, 0, held), (v, 0, row))
        new = [_combine(pair, j) for j in range(len(row))]
        held_terms = ((1, 0, held), (-(a // g), 0, new))
        row_terms = ((1, 0, row), (-(c // g), 0, new))
        rem_held, rem_row = _combine(held_terms, 0), _combine(row_terms, 0)
        if not (len(new[0]) - 1 == d and new[0][-1] == g < a
                and len(rem_held) <= d and len(rem_row) <= d):
            raise SelfCheckError(f"Euclid merge at degree {d} kept its lead")
        table[d] = new
        _insert(rem_held, held_terms, table, degs)
        row = _reduce_row(rem_row, row_terms, table, degs)


@dataclass(frozen=True)
class CanonicalBasis:
    """Strong basis of the relator ideal with two-way cofactor certificates.

    ``elements`` are in strictly ascending degree with positive leading
    coefficients dividing backward; ``element_cofactors[i]`` expresses
    elements[i] over the relators, and ``relator_quotients[j]`` expresses
    relators[j] over the elements.

    Derived once: ``division_rows``, the elements' coefficient tuples from
    the top degree down (``poly._divide`` walks them), and
    ``cofactor_rows[i]``, those of element_cofactors[i] (``membership``).
    """

    presentation: Presentation
    elements: tuple[IntPoly, ...]
    element_cofactors: tuple[tuple[IntPoly, ...], ...]
    relator_quotients: tuple[tuple[IntPoly, ...], ...]
    division_rows: tuple = field(init=False, repr=False, compare=False)
    cofactor_rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "division_rows",
                           tuple(map(_COEFFS, reversed(self.elements))))
        object.__setattr__(self, "cofactor_rows", tuple(
            tuple(map(_COEFFS, row)) for row in self.element_cofactors))


def _complete(rows) -> list[list]:
    """Complete relator rows to the rows of the strong basis, ascending.

    Rows are [poly] or [poly, cof_1, ..., cof_n], trimmed coefficient
    lists kept linear, poly == sum(cof_j * relators[j]), in a table from
    degree to row whose degrees one list holds ascending.  Every decision
    reads the poly alone, so both widths give the same polys.  A shift or
    a Euclid remainder is formed as a poly and handed to ``_reduce_row``
    with the terms its cofactors are summed from, so a kept row gets the
    same cofactors as when they are built up front, and one reducing to
    zero builds none.

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

    No table degree exceeds D, the largest relator degree.  The table
    starts from the relators, and a row enters it only reduced, which
    never raises a degree; a Euclid merge stays at its degree d, and its
    two remainders fall below d; a tested shift x^(e-d) * t_d has degree
    e, already a table degree.  So every basis element has degree <= D,
    and ``monic_multiple_search`` answers at every degree without a bound.

    Testing every pair instead gives the same elements, but each wasted
    Euclid merge multiplies the tracked cofactors.
    """
    table, degs, work = {}, [], list(rows)
    while work:
        for row in work:
            _insert(row[0][:], ((1, 0, row),), table, degs)
        # test consecutive shift overlaps; a nonzero residue re-enters
        work = [r for d, e in zip(degs, degs[1:]) if (r := _reduce_row(
            [0] * (e - d) + table[d][0], ((1, e - d, table[d]),), table, degs))]

    # drop entries made redundant by an equal lead at lower degree
    kept: dict[int, list] = {}
    prev_lead = None
    for d in degs:
        if table[d][0][-1] != prev_lead:
            kept[d] = table[d]
            prev_lead = table[d][0][-1]
    kdegs = list(kept)
    for d in degs:
        bare = ((1, 0, table[d][:1]),)  # the poly alone: no cofactor is built
        if d not in kept and _reduce_row(table[d][0][:], bare, kept, kdegs):
            raise SelfCheckError(f"dropped degree-{d} entry is not redundant")

    # tail auto-reduction, from the top, of each entry by the entries below
    # it (those above leave it as it is); no other entry divides its lead
    for i, d in reversed(list(enumerate(kdegs))):
        poly = kept[d][0]
        reduced = _reduce_row(poly[:], ((1, 0, kept[d]),), kept, kdegs[:i])
        if not reduced or len(reduced[0]) - 1 != d or reduced[0][-1] != poly[-1]:
            raise SelfCheckError(f"tail reduction changed the degree-{d} lead")
        kept[d] = reduced
    return list(kept.values())


def basis_elements(presentation: Presentation) -> tuple[IntPoly, ...]:
    """The elements of ``canonical_basis(presentation)``, without cofactors.

    The completion runs on bare polys and is not cached.  It keeps the
    lead, Euclid and redundancy checks, and every relator must reduce to
    zero; there is no certificate to re-multiply.
    """
    rows = _complete([list(r.coeffs)] for r in presentation.relators)
    elements = tuple(_intpoly(row[0]) for row in rows)
    descending = tuple(map(_COEFFS, reversed(elements)))
    for j, r in enumerate(presentation.relators):
        if not _divide(r, descending, False)[0].is_zero():
            raise SelfCheckError(f"relator {j} does not reduce to zero")
    return elements


def _balance(rows: list, relators) -> list:
    """Reduce each row's cofactors by the relators' syzygies, in place.

    P, the primitive part of the lowest element, divides each relator
    (Gauss).  For i < j in order, with G = gcd(cont r_i, cont r_j)*P, s = r/G
    and l = lead(s_j), c_i is walked from its top degree D down to deg s_j:
    the t leaving c_i[D] - t*l in [-|l|/2, |l|/2) moves t*x^(D - deg s_j)
    times the syzygy (s_j, -s_i) off (c_i, c_j).  For two relators G is
    their gcd in Z[x], the syzygies are Z[x]*(s_2, -s_1), and c_1 (so c_2)
    is unique: two balanced c_1 differing by u*s_2, u != 0, would differ by
    lead(u)*l at degree deg u + deg s_2, yet both lie in [-|l|/2, |l|/2).
    """
    lowest = rows[0][0] if rows else []
    content = gcd_list(lowest)
    for i, j in combinations(range(len(relators)), 2):
        k = gcd_list((*relators[i], *relators[j]))
        g = [k * c // content for c in lowest]
        rems = [list(relators[i]), list(relators[j])]
        s_i, s_j = (_divide_coeffs(rem, [g])[0] for rem in rems)
        if any(map(any, rems)):
            raise SelfCheckError(f"relator {i} or {j} is no multiple of {g}")
        n, width, sign = len(s_j) - 1, abs(s_j[-1]), 1 if s_j[-1] > 0 else -1
        for row in rows:
            c, other = row[1 + i], row[1 + j]
            other += [0] * (len(c) - n + len(s_i) - 1 - len(other))
            for d in range(len(c) - 1, n - 1, -1):
                if t := (c[d] + width // 2) // width * sign:
                    for e, b in enumerate(s_j, d - n):
                        c[e] -= t * b
                    for e, b in enumerate(s_i, d - n):
                        other[e] += t * b
            _trim(c)
            _trim(other)
    return rows


@lru_cache(maxsize=256)
def canonical_basis(presentation: Presentation) -> CanonicalBasis:
    """Complete the relators to a strong basis with unique normal forms."""
    relators = presentation.relators
    rows = [tuple(map(_intpoly, row)) for row in _balance(_complete(
        [list(r.coeffs), *([1] if j == i else [] for j in range(len(relators)))]
        for i, r in enumerate(relators)), [r.coeffs for r in relators])]
    for row in rows:
        cert = MembershipCertificate(row[1:], row[0])
        if row[0].constant != 0 or not cert.verify(presentation):
            raise SelfCheckError(f"degree-{row[0].degree} element fails a check")
    elements = tuple(row[0] for row in rows)
    descending = tuple(map(_COEFFS, reversed(elements)))
    back = []
    for j, r in enumerate(relators):
        nf, quotients = _divide(r, descending)
        if not nf.is_zero():
            raise SelfCheckError(f"relator {j} does not reduce to zero")
        back.append(quotients)
    return CanonicalBasis(presentation, elements, tuple(row[1:] for row in rows),
                          tuple(back))


def reduce_with_quotients(
    g: IntPoly, basis: CanonicalBasis
) -> tuple[IntPoly, tuple[IntPoly, ...]]:
    """Unique normal form of g plus quotients over the basis elements."""
    return _divide(g, basis.division_rows)


def normal_form(g: IntPoly, basis: CanonicalBasis) -> IntPoly:
    """Unique normal form of g against the basis."""
    return _divide(g, basis.division_rows, False)[0]


def membership(
    g: IntPoly, presentation: Presentation
) -> tuple[bool, MembershipCertificate | None]:
    """Decide g in V; on membership return cofactors over the relators."""
    basis = canonical_basis(presentation)
    nf, quotients = reduce_with_quotients(g, basis)
    if not nf.is_zero():
        return False, None
    cofactors = _fold_into([[] for _ in presentation.relators], map(_COEFFS, quotients),
                           basis.cofactor_rows)
    cert = MembershipCertificate(tuple(map(_intpoly, cofactors)), g)
    if not cert.verify(presentation):
        raise SelfCheckError("membership certificate fails to re-multiply")
    return True, cert


class _Echelon:
    """Row echelon over Z/N; a row's pivot is its highest nonzero coordinate.

    An empty pivot slot j stands for the row N*e_j, so the rows and the
    empty slots together form a triangular basis of the integer lattice
    spanned by the inserted vectors and N*Z^dim, and entries are kept in
    [0, N).  Inserting at an empty slot merges with N*e_j by the same
    extended-gcd step as at a held row: the slot gets lead g = gcd(N, b)
    and the remainder (N/g) * vec re-enters below.  That remainder step is
    the Howell closure (Howell, Spans in the module (Z_m)^s, 1986;
    Storjohann-Mulders, Fast algorithms for linear algebra modulo N, 1998):
    every held lead divides N, and a vector lies in the span exactly when
    top-down reduction clears it, an empty slot clearing only 0.

    A row with pivot j stores coordinates 0..j only, so the echelon grows
    with its input and has no fixed dimension.
    """

    def __init__(self, modulus: int):
        self.modulus = modulus
        self.rows: dict[int, list[int]] = {}

    def add(self, vec) -> None:
        n = self.modulus
        vec = _trim([x % n for x in vec])
        while vec:
            j = len(vec) - 1
            row = self.rows.get(j)
            if row is None:
                row = [0] * j + [n]
            a, b = row[j], vec[j]
            if b % a == 0:
                q = b // a
                vec = [(x - q * y) % n for x, y in zip(vec, row)]
            else:
                g, u, v = xgcd(a, b)
                self.rows[j] = [(u * x + v * y) % n for x, y in zip(row, vec)]
                vec = [((a // g) * y - (b // g) * x) % n for x, y in zip(row, vec)]
            _trim(vec)

    def solve(self, vec) -> bool:
        """Whether vec lies in the span mod N."""
        n = self.modulus
        vec = _trim([x % n for x in vec])
        while vec:
            j = len(vec) - 1
            row = self.rows.get(j)
            if row is None or vec[j] % row[j]:
                return False
            q = vec[j] // row[j]
            vec = _trim([(x - q * y) % n for x, y in zip(vec, row)])
        return True


def staircase_row(elements, n: int) -> list[int]:
    """Coordinates of the staircase row of degree n, x^(n-d) * t_d.

    t_d is the element of largest degree d <= n; ``elements`` ascend in
    degree and the lowest is at most n.  Coordinate i - 1 holds the
    coefficient of x^i, for degrees 1 .. n, so the row's pivot is n - 1.
    ``quotients._SubringSpan`` starts from these rows.
    """
    t = next(e for e in reversed(elements) if e.degree <= n)
    return [0] * (n - t.degree) + list(t.coeffs[1:])


def monic_multiple_search(presentation: Presentation, k: int) -> IntPoly | None:
    """Search for monic phi (zero constant term) with k*phi in V.

    A hit has least degree, and a None result is a proof that no such phi
    exists at any degree.  A hit is returned uncertified:
    callers that hand it out pass it through
    ``invariants.certified_relation``, which checks it and builds its
    membership certificate.

    Over the strong basis t_1, ..., t_r (ascending degree, leads l_i > 0,
    each a proper multiple of l_(i+1); see ``_complete``), the hit is
    t/lead(t) for the lowest t whose lead divides k, and (k/lead t)*t is
    k*phi:

    - Leads.  A member of V of degree n has its lead in l(n)*Z, l(n) the
      lead of the last t_i of degree <= n (the strong-basis property), so
      no k*phi with phi monic lies below deg t.
    - Induction.  If l_1 divides t_1, then l_i divides t_i for every i.
      With q = l_(i-1)/l_i, q*t_i - x^(deg t_i - deg t_(i-1)) * t_(i-1)
      lies in V below deg t_i, so it is a Z-sum of staircase rows
      x^s * t_j with j < i, each t_j a multiple of l_j (induction), which
      l_(i-1) divides.  So q*t_i = 0 mod q*l_i, and l_i divides t_i.
    - Gauss.  l_1 divides t_1 exactly when the primitive part P of t_1
      (the minimal polynomial) is monic.  When it is not, P divides every
      member of V in Z[x], so it would divide phi and lead(P) would
      divide 1: no k*phi lies in V at any degree.

    An element that its lead does not divide contradicts the induction
    and raises ``SelfCheckError``.
    """
    if k < 1:
        raise NonPositiveError(f"monic_multiple_search needs k >= 1, got {k}")
    elements = canonical_basis(presentation).elements
    t = next((e for e in elements if k % e.lead == 0), None)
    if t is None:
        return None  # no member of V has a lead dividing k
    if gcd_list(elements[0].coeffs) != elements[0].lead:
        return None  # Gauss: a non-monic primitive part divides all of V
    lead = t.lead
    if any(c % lead for c in t.coeffs):
        raise SelfCheckError(f"degree-{t.degree} element is not lead times monic")
    return IntPoly(c // lead for c in t.coeffs)
