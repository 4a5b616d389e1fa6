"""Ring invariants of a monogenic presentation.

Computes the algebraic degree and minimal polynomial of the generator, its
integer torsion (least k such that k times some monic polynomial in the
generator vanishes) and torsion exponent (least degree of such a monic
polynomial over all admissible k), together with certified witnesses.

The torsion search space: within a degree bound, the multipliers k with a
monic multiple form the set tau*Z+ of multiples of the least one, and the
minimal polynomial's content d always works when its primitive part is
monic, so tau divides d and is found by stripping prime factors from d.
Degree bounds are recorded in every answer; an infinite verdict is always
bound-relative, never a claim about all degrees.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

from .check import relation_checks
from .intarith import SelfCheckError, factorize
from .poly import IntPoly, content_split
from .ideal import (
    MembershipCertificate,
    Presentation,
    canonical_basis,
    membership,
    monic_multiple_search,
)


@dataclass(frozen=True)
class MonicRelation:
    """A certified relation k * phi in V with phi monic, zero constant term."""

    k: int
    phi: IntPoly
    certificate: MembershipCertificate

    def verify(self, presentation: Presentation) -> bool:
        """The checks of ``check.relation_checks``, all of them passing."""
        cert = self.certificate
        checks = relation_checks("witness", "witness certificate", self.k, self.phi,
                                 cert.claim, cert.cofactors, presentation.relators)
        return all(ok for _, ok in checks)


@dataclass(frozen=True)
class RingInvariants:
    """All invariants of the generator, None standing for infinite or absent.

    The fields, in this order, are the keys of the ``invariants`` document.
    ``torsion`` is None when no monic multiple exists within
    ``search_bound``; the bound is always recorded so an infinite verdict
    stays auditable.  With no nonzero relator every field is None and the
    bound 0.
    """

    algebraic_degree: int | None = None
    minimal_polynomial: IntPoly | None = None
    minimal_content: int | None = None
    minimal_primitive: IntPoly | None = None
    torsion: int | None = None
    torsion_exponent: int | None = None
    torsion_witness: MonicRelation | None = None
    exponent_witness: MonicRelation | None = None
    search_bound: int = 0


def minimal_polynomial(presentation: Presentation) -> IntPoly | None:
    """Least-degree nonzero ideal member, least positive leading coefficient.

    Read off the canonical basis: its lowest-degree element.  Absent exactly
    when the presentation has no nonzero relator (transcendental generator).
    """
    basis = canonical_basis(presentation)
    if not basis.elements:
        return None
    return basis.elements[0]


def _least_successful_multiplier(
    search: Callable[[int], IntPoly | None], d: int
) -> int | None:
    """Least k with a monic multiple within the degree bound, by descent from d.

    The successful k form tau*Z+.  They are closed under multiples, and
    under gcd: shift k1*phi1 and k2*phi2 to a common degree and combine
    them with Bezout, u*k1 + v*k2 = g; the lead becomes g while every lower
    coefficient stays divisible by g, so g times a monic lies in V.  If
    anything succeeds the primitive part of the minimal polynomial is monic
    (Gauss), so d succeeds and tau divides d.  Hence k | d succeeds exactly
    when tau | k, and stripping each prime of d while the search still
    succeeds lands on tau in one pass.  k = 1 is tried first, so a content
    that need not be stripped is never factored.
    """
    if search(1) is not None:
        return 1
    if search(d) is None:
        return None
    tau = d
    for p, _ in factorize(d):
        while tau % p == 0 and search(tau // p) is not None:
            tau //= p
    return tau


def torsion_data(presentation: Presentation) -> RingInvariants:
    """Every invariant of the presentation's generator, witnesses certified.

    The least multiplier divides the minimal-polynomial content and is
    located by prime descent from it, which is exact (see
    ``_least_successful_multiplier``).  The descent reads search hits
    only; the one or two relations it returns are certified, once each.
    The degree bound covers both the algebraic degree and twice the largest
    relator degree.
    """
    mp = minimal_polynomial(presentation)
    if mp is None:
        return RingInvariants()
    split = content_split(mp)
    d, primitive = split.content, split.primitive
    degree = mp.degree
    bound = max(degree, 2 * presentation.max_degree)
    known = functools.partial(RingInvariants, degree, mp, d, primitive,
                              search_bound=bound)

    @functools.cache
    def search(k: int) -> IntPoly | None:
        return monic_multiple_search(presentation, k, bound)

    tau = _least_successful_multiplier(search, d)
    if tau is None:
        return known()
    tau_phi = search(tau)

    # torsion finite forces a monic primitive part, so d times it is a monic
    # multiple of the algebraic degree, the least degree search(d) tries
    if not primitive.is_monic():
        raise SelfCheckError("finite torsion with a non-monic primitive part")
    witness = certified_relation(presentation, tau, tau_phi)
    if tau_phi.degree == degree:
        exp_witness = witness
    else:
        phi_e = search(d)
        if phi_e is None or phi_e.degree != degree:
            raise SelfCheckError(f"no degree-{degree} monic multiple for k={d}")
        exp_witness = certified_relation(presentation, d, phi_e)
    return known(torsion=tau, torsion_exponent=exp_witness.phi.degree,
                 torsion_witness=witness, exponent_witness=exp_witness)


# bench/tracing.py traces this function by its defining name, torsion_data;
# the library and bench/workloads.py call it ring_invariants
ring_invariants = torsion_data


def certified_relation(
    presentation: Presentation, k: int, phi: IntPoly
) -> MonicRelation:
    """Certify a search hit: k * phi in V, phi monic with zero constant term.

    This is the one place a monic relation is checked and its membership
    certificate built; a hit that fails raises ``SelfCheckError``.
    """
    if not (phi.is_monic() and phi.constant == 0):
        raise SelfCheckError(f"phi for k={k} is not monic with zero constant")
    member, cert = membership(phi.scale(k), presentation)
    if not member:
        raise SelfCheckError(f"k={k} times phi is not in the relator ideal")
    return MonicRelation(k=k, phi=phi, certificate=cert)
