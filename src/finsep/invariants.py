"""Ring invariants of a monogenic presentation.

Computes the algebraic degree and minimal polynomial of the generator, its
integer torsion (least k such that k times some monic polynomial in the
generator vanishes) and torsion exponent (least degree of such a monic
polynomial over all admissible k), together with certified witnesses.

Both are read off the canonical basis, and nothing is factored.  The
torsion is finite exactly when the minimal polynomial's primitive part is
monic (Gauss); then every basis element is its lead times a monic
polynomial, so the torsion is the top element's lead, the least lead of
the basis (``ideal.monic_multiple_search`` holds the argument).  An
infinite verdict holds at every degree.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .check import relation_checks
from .intarith import SelfCheckError
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
    ``torsion`` is None when no monic multiple exists: the primitive part
    of the minimal polynomial is not monic.  With no nonzero relator every
    field is None.
    """

    algebraic_degree: int | None = None
    minimal_polynomial: IntPoly | None = None
    minimal_content: int | None = None
    minimal_primitive: IntPoly | None = None
    torsion: int | None = None
    torsion_exponent: int | None = None
    torsion_witness: MonicRelation | None = None
    exponent_witness: MonicRelation | None = None


def minimal_polynomial(presentation: Presentation) -> IntPoly | None:
    """Least-degree nonzero ideal member, least positive leading coefficient.

    Read off the canonical basis: its lowest-degree element.  Absent exactly
    when the presentation has no nonzero relator (transcendental generator).
    """
    basis = canonical_basis(presentation)
    if not basis.elements:
        return None
    return basis.elements[0]


def torsion_data(presentation: Presentation) -> RingInvariants:
    """Every invariant of the presentation's generator, witnesses certified.

    The torsion tau is the top basis element's lead, which divides every k
    with a monic multiple; tau has one exactly when the minimal
    polynomial's primitive part is monic (``ideal.monic_multiple_search``).
    The exponent witness is d times that primitive part, d the content,
    unless the torsion witness has the algebraic degree.  Each relation
    returned is certified once.
    """
    mp = minimal_polynomial(presentation)
    if mp is None:
        return RingInvariants()
    split = content_split(mp)
    d, primitive = split.content, split.primitive
    degree = mp.degree
    known = functools.partial(RingInvariants, degree, mp, d, primitive)
    tau = canonical_basis(presentation).elements[-1].lead
    tau_phi = monic_multiple_search(presentation, tau)
    if tau_phi is None:
        return known()
    witness = certified_relation(presentation, tau, tau_phi)
    if tau_phi.degree == degree:
        exp_witness = witness
    else:
        exp_witness = certified_relation(presentation, d, primitive)
    return known(torsion=tau, torsion_exponent=degree,
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
