"""Finite quotient rings and the separation search.

The quotient of a presented monogenic ring by q times everything is again a
presented ring: its relation ideal is generated by the relators plus q*x.
Its canonical basis is finite as a ring exactly when the ladder tops out
with a monic element, say of degree n; normal forms then live on the
monomials x^1 .. x^(n-1) whose coefficients are bounded by the ladder's
per-degree leading coefficients.  The canonical map (generator to the image
of x) is a ring homomorphism, which makes every successful separation an
explicit, checkable certificate.

The search builds each quotient from ``basis_elements``: the same ladder as
the canonical basis, completed without cofactors and not cached, from which
``FiniteRing`` derives the rest.  It does not build one quotient per
candidate modulus: it splits the candidates into consecutive batches,
builds one quotient at the lcm N of each batch, and decides every modulus q
of the batch by one solve over Z/q against the subring span of the mod-N
quotient (R/qR is a quotient of R/NR when q divides N; the proof is in
``separate``).  A batch whose mod-N span holds the target's image is
decided whole by that one solve: no modulus of it separates.  Only the
first modulus that separates gets its own quotient, built once from the
certified ``canonical_basis`` that it carries as ``FiniteRing.basis``.
The subring span is the ``ideal._Echelon`` of the generators' closure
(``_subring_span``), and ``subring_closure`` enumerates its elements.
Products and images in the quotient each take one division of a
coefficient list by the ladder.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .intarith import SelfCheckError, gcd_list
from .poly import _COEFFS, IntPoly, _divide_coeffs, _mul
from .ideal import (
    CanonicalBasis,
    Presentation,
    _Echelon,
    basis_elements,
    canonical_basis,
    staircase_row,
)


# the largest modulus bound ``separate`` accepts; its sieve holds one int
# per modulus up to the bound
MAX_MODULUS_BOUND = 10**6

# the bit length the lcm of one batch of ``separate``'s candidate moduli may
# reach.  A wider batch builds fewer quotients, each costlier: the sweep of
# the whole bound 10**6 timed in ``separate`` took about 1.7 s with a cap of
# 256 bits, 0.9 s at 1,024, 1.1 s at 4,096, 2.3 s at 16,384 and, before a
# batch was decided by one solve, 272 s with no cap.  Bounds to 708 fit one batch.
_BATCH_BITS = 1024


class InvalidModulusError(ValueError):
    """Raised for moduli below 2 and modulus bounds below 1 or above the limit."""


@dataclass(frozen=True)
class InfiniteQuotient:
    """Marker result: no monic element appears in the mod-q ladder.

    ``obstruction`` lists the (degree, leading coefficient) ladder of the
    extended ideal; every lead exceeds 1, so normal forms of arbitrarily
    high degree survive and the carrier is infinite.
    """

    presentation: Presentation
    modulus: int
    obstruction: tuple[tuple[int, int], ...]


def _extended(presentation: Presentation, q: int) -> Presentation:
    """The relators together with q*x."""
    return Presentation(presentation.relators + (IntPoly((0, q)),))


@dataclass(frozen=True)
class FiniteRing:
    """The quotient ring with carrier enumerable from its normal forms.

    Built from the presentation, the modulus q and the ``ladder`` (the
    elements of the canonical basis of the relators plus q*x, topped by a
    monic element of degree n, ``monic_degree``), it derives the rest.
    Elements are coefficient tuples over ``standard_monomials``, x^1 ..
    x^(n-1); the entry for degree d ranges over 0 .. position_moduli[i]-1,
    the lead of the ladder element of largest degree not above d, which
    divides q.  The carrier has the product of the position moduli as its
    size, q**len(standard_monomials) for prime q.

    ``basis`` is the certified canonical basis of the relators plus q*x on
    the quotient ``separate`` returns, and None from ``build_quotient``.
    A basis other than the ladder, a lead not dividing q, a top that is not
    monic and a position modulus of 1 raise ``SelfCheckError``.
    """

    presentation: Presentation
    modulus: int
    ladder: tuple[IntPoly, ...] = field(repr=False)
    basis: CanonicalBasis | None = field(default=None, repr=False, compare=False)
    standard_monomials: tuple[int, ...] = field(init=False)
    position_moduli: tuple[int, ...] = field(init=False)
    monic_degree: int = field(init=False)

    def __post_init__(self):
        q, ladder = self.modulus, self.ladder
        if self.basis is not None and self.basis.elements != ladder:
            raise SelfCheckError(f"mod-{q} basis differs from its ladder")
        if any(q % e.lead for e in ladder) or ladder[-1].lead != 1:
            raise SelfCheckError(f"the mod-{q} ladder has a lead not dividing {q} "
                                 "or no monic top")
        n = ladder[-1].degree
        leads, moduli, m = {e.degree: e.lead for e in ladder}, [], q
        for d in range(1, n):
            m = leads.get(d, m)
            moduli.append(m)
        if not all(m > 1 for m in moduli):
            raise SelfCheckError(f"a mod-{q} position modulus is 1")
        object.__setattr__(self, "standard_monomials", tuple(range(1, n)))
        object.__setattr__(self, "position_moduli", tuple(moduli))
        object.__setattr__(self, "monic_degree", n)

    @property
    def carrier_size(self) -> int:
        return math.prod(self.position_moduli)

    def _reduce(self, coeffs: list) -> tuple[int, ...]:
        """Normal form of a coefficient list, read on x^1 .. x^(n-1)."""
        n = self.monic_degree
        coeffs += [0] * (n - len(coeffs))
        _divide_coeffs(coeffs, map(_COEFFS, reversed(self.ladder)), False)
        if coeffs[0] or any(coeffs[n:]):
            raise SelfCheckError(f"a mod-{self.modulus} normal form leaves the "
                                 "standard monomials")
        return tuple(coeffs[1:n])

    def image(self, p: IntPoly) -> tuple[int, ...]:
        """Image of an integer polynomial (zero constant term) in the quotient."""
        if p.constant != 0:
            raise ValueError("quotient elements come from zero-constant polynomials")
        return self._reduce(list(p.coeffs))

    def to_poly(self, u: tuple[int, ...]) -> IntPoly:
        return IntPoly((0, *u))

    def generator(self) -> tuple[int, ...]:
        return self.image(IntPoly.x())

    def mul(self, u, v) -> tuple[int, ...]:
        return self._reduce(_mul((0, *u), (0, *v)))


def build_quotient(
    presentation: Presentation, q: int
) -> FiniteRing | InfiniteQuotient:
    """Quotient by the relators together with q times everything.

    The ladder comes from ``basis_elements`` and nothing is cached; no
    certified basis is built, so ``FiniteRing.basis`` is None.
    """
    if q < 2:
        raise InvalidModulusError(f"modulus must be >= 2, got {q}")
    ladder = basis_elements(_extended(presentation, q))
    if any(q % e.lead for e in ladder):
        raise SelfCheckError(f"a mod-{q} ladder lead does not divide {q}")
    if ladder[-1].lead != 1:
        return InfiniteQuotient(
            presentation=presentation,
            modulus=q,
            obstruction=tuple((e.degree, e.lead) for e in ladder),
        )
    return FiniteRing(presentation, q, ladder)


def _subring_span(ring: FiniteRing, generators) -> _Echelon:
    """The subring generated by polynomials' images, as an additive lattice.

    The additive group of the quotient is Z^(positions) modulo the lattice
    of in-window relation vectors.  That lattice contains q*Z^(positions),
    so the span is kept over Z/q, in one ``_Echelon(q)``.  It starts with
    the ladder's staircase rows of degree 1 .. dim (``ideal.staircase_row``),
    which span the ladder's ideal below the monic degree (see
    ``ideal._complete``).  The ladder holds q*x, so its lowest degree is 1
    and each row brings a fresh pivot; the rows q*x^i are zero mod q, and
    their slots stay empty, which stands for pivot q.

    Each element that enters the span is multiplied by the generators
    only.  The closure S of the generators g_i is
    the least additive subgroup T that holds them and is closed under
    multiplication by each g_i.  T lies in S, and T holds every monomial
    g_(i1)*...*g_(ik) (k >= 1), by induction on k; the Z-combinations of
    those monomials form an additive group that holds the g_i and is
    closed under multiplication by each, so they are T.  A product of two
    monomials is a monomial, so by bilinearity T is closed under products:
    T is a subring and T = S.  The span reaches T: every element pushed is
    in S, and when the work list is empty each inserted u has had each
    u*g_i either inserted or found inside, so the final span, spanned by
    the inserted elements over the relation lattice, holds the g_i and is
    closed under multiplication by each.  Each element is reduced once, by
    ``_Echelon.add``, which says whether it grew the span; a span of m
    inserted elements costs m * len(generators) products.
    """
    echelon = _Echelon(ring.modulus)
    for n in range(1, len(ring.standard_monomials) + 1):
        echelon.add(staircase_row(ring.ladder, n))
    gens = [ring.image(g) for g in generators]
    work = list(gens)
    while work:
        u = work.pop()
        if echelon.add(u):
            work.extend(ring.mul(u, g) for g in gens)
    return echelon


def subring_closure(ring: FiniteRing, generators) -> frozenset:
    """Least subset containing the generators, closed under +, -, *.

    Subrings here never adjoin a unit; the empty generator list closes to
    {0}.  The closure is enumerated from the span's echelon
    (``_subring_span``): the row at position j, q*e_j for an empty slot,
    takes the multiples below position_moduli[j] / its lead, and their sums,
    reduced in the quotient, are the closure.  A closure whose size is not
    the product of those counts raises ``SelfCheckError``.
    """
    q, moduli = ring.modulus, ring.position_moduli
    echelon = _subring_span(ring, generators)
    rows = [echelon.rows.get(j, [0] * j + [q]) for j in range(len(moduli))]
    ranges = [range(m // row[-1]) for row, m in zip(rows, moduli)]
    out = []
    for combo in itertools.product(*ranges):
        vec = [0] * len(moduli)
        for t, row in zip(combo, rows):
            if t:
                for j, c in enumerate(row):
                    vec[j] += t * c
        out.append(ring._reduce([0] + vec))
    closure = frozenset(out)
    if len(closure) != math.prod(map(len, ranges)):
        raise SelfCheckError("subring closure size disagrees with its lattice")
    return closure


@dataclass(frozen=True)
class SeparationResult:
    """Outcome of a separation search over moduli up to a bound.

    When found, the canonical map onto ``quotient`` sends the target
    outside the closure of the generators' images; absence of success is
    reported with the exhausted bound, never as a non-separability claim.
    """

    found: bool
    quotient: FiniteRing | None
    modulus: int | None
    image_of_target: tuple[int, ...] | None
    subring_image: frozenset | None
    bound_exhausted: int | None


def modulus_order(bound: int) -> list[int]:
    """The moduli worth trying up to bound: primes, then prime powers.

    No other modulus can separate first.  Take coprime a, b with q = ab.
    Then K/qK is K/aK x K/bK, and the CRT idempotents (1 mod a, 0 mod b
    and the reverse) are integers, so the image S of a subring splits as
    S_a x S_b: integer multiples of a subring element stay in the subring.
    K/qK is finite iff both factors are, and the target's image lies in S
    iff each component lies in its factor.  So if q separates, a or b
    does, and by induction some prime-power factor of q does, which is
    tried before q would be.
    """
    if bound < 1:
        raise InvalidModulusError(f"modulus bound must be >= 1, got {bound}")
    if bound > MAX_MODULUS_BOUND:
        raise InvalidModulusError(
            f"modulus bound {bound} exceeds the limit of {MAX_MODULUS_BOUND}"
        )
    # the primes up to bound by one sieve; the other candidates are the
    # powers p^e <= bound, e >= 2, of the primes p <= sqrt(bound)
    root = math.isqrt(bound)
    sieve = bytearray(2) + bytearray([1]) * (bound - 1)
    for p in range(2, root + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes((bound - p * p) // p + 1)
    powers = []
    for p in itertools.compress(range(root + 1), sieve):
        q = p * p
        while q <= bound:
            powers.append(q)
            q *= p
    return list(itertools.compress(range(bound + 1), sieve)) + sorted(powers)


def _batches(moduli):
    """Consecutive runs of the moduli, each with its lcm N.

    A run grows while N stays within ``_BATCH_BITS`` bits; a single
    modulus always makes a run.
    """
    batch, lcm = [], 1
    for q in moduli:
        wider = math.lcm(lcm, q)
        if batch and wider.bit_length() > _BATCH_BITS:
            yield batch, lcm
            batch, wider = [], q
        batch.append(q)
        lcm = wider
    if batch:
        yield batch, lcm


def separate(
    presentation: Presentation,
    target: IntPoly,
    subring_generators,
    modulus_bound: int,
) -> SeparationResult:
    """Search for a finite quotient separating target from a subring.

    Tries the primes up to the bound, then the prime powers (a composite
    modulus separates only when one of its prime-power factors does; see
    ``modulus_order``).  A modulus that shares a prime with the content c
    (the gcd of all relator coefficients, 0 for no relator) is skipped
    before any quotient is built, because its quotient is infinite, and no
    other modulus gives an infinite one.  Write R for the presented ring
    and p for a prime dividing q:

    - R/qR is finite iff R/pR is, for every such p: by the CRT R/qR is the
      product of the R/p^aR, and each p^iR/p^(i+1)R is a quotient of R/pR.
    - R/pR is xF_p[x] modulo the image of V, so it is finite iff that
      image is nonzero: a nonzero member f, made monic over F_p, reduces
      every x^n with n >= deg f, and a zero image leaves every power of x
      free.
    - The image of V is nonzero iff some relator is nonzero mod p, iff p
      does not divide c.

    The remaining moduli are split, in order, into consecutive batches
    whose lcm N stays within ``_BATCH_BITS`` bits (``_batches``).  Each
    batch builds one quotient R/NR, finite because N is coprime to c, with
    the subring span of the generator images (``_subring_span``, an
    ``_Echelon(N)``) and the target's image t.
    Each q of the batch is then decided by one solve of t in an
    ``_Echelon(q)`` holding the span's echelon rows.  This is exact.  In
    the window coordinates of R/NR (the coefficients of x^1 .. x^(n-1)),
    R/NR is Z^dim modulo L, the span of the staircase rows of its ladder
    and N*Z^dim.  As q divides N, R/qR = (R/NR)/q(R/NR) is Z^dim modulo
    L + q*Z^dim.  Every vector z is congruent modulo V + N*Z^inf to some
    z' in the window, so q*z - q*z' lies in q*(V + N*Z^inf), inside
    V + N*Z^inf; a member v + q*z of V + q*Z^inf that lies in the window
    is then q*z' plus a member of (V + N*Z^inf) ∩ window = L.  The image
    of the subring in R/qR is the image of its image in R/NR, which the
    span's rows generate over L.
    The span's rows hold the staircase rows, and an empty slot j stands
    for N*e_j, zero mod q.  So t lies in the image of the subring in R/qR
    exactly when it lies in the span's rows + q*Z^dim, the lattice that
    the ``_Echelon(q)`` holds.

    One solve in the span itself, an ``_Echelon(N)`` that holds rows +
    N*Z^dim, decides a whole batch first: each q of the batch divides N,
    so rows + N*Z^dim lies inside rows + q*Z^dim, and when t lies in the
    former no modulus of the batch separates and none gets an echelon.

    A modulus whose solve succeeds does not separate and gets no quotient.
    The first one whose solve fails gets its own quotient, built once from
    the certified ``canonical_basis`` of the relators plus q*x, and its
    subring closure, enumerated by ``subring_closure``; that the target's
    image lies outside it is checked again before the result is returned.
    No other modulus gets one.  A quotient that comes out infinite, at a
    batch lcm or at the returned modulus, raises ``SelfCheckError``.  The
    modulus bound is reported when none succeeds; a bound below 1 or
    above ``MAX_MODULUS_BOUND`` raises ``InvalidModulusError`` before any
    work.

    A sweep of the whole bound 10**6 (relator x^5 + x^3 - 3x^2 + 2x,
    target (x^2 + x)^2 + (x^3 + 2x^2), generators x^2 + x and x^3 + 2x^2)
    takes about 1.1 s on one core of a 2-core Intel Xeon.
    """
    subring_generators = list(subring_generators)
    for p in [target, *subring_generators]:
        if p.constant != 0:
            raise ValueError("targets and generators need zero constant terms")
    content = gcd_list(c for r in presentation.relators for c in r.coeffs)
    candidates = [q for q in modulus_order(modulus_bound) if math.gcd(q, content) == 1]
    for batch, lcm in _batches(candidates):
        wide = build_quotient(presentation, lcm)
        if isinstance(wide, InfiniteQuotient):
            raise SelfCheckError(f"mod-{lcm} quotient is infinite, content {content}")
        wide_img = wide.image(target)
        span = _subring_span(wide, subring_generators)
        if span.solve(wide_img):
            continue  # no modulus of the batch separates
        rows = list(span.rows.values())
        for q in batch:
            echelon = _Echelon(q)
            for row in rows:
                echelon.add(row)
            if echelon.solve(wide_img):
                continue
            basis = canonical_basis(_extended(presentation, q))
            ring = FiniteRing(presentation, q, basis.elements, basis)
            img = ring.image(target)
            closure = subring_closure(ring, subring_generators)
            if img in closure:
                raise SelfCheckError(f"mod-{q} target image lies in the closure")
            return SeparationResult(
                found=True,
                quotient=ring,
                modulus=q,
                image_of_target=img,
                subring_image=closure,
                bound_exhausted=None,
            )
    return SeparationResult(
        found=False,
        quotient=None,
        modulus=None,
        image_of_target=None,
        subring_image=None,
        bound_exhausted=modulus_bound,
    )
