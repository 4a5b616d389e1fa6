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
infinite verdict holds at every degree.  Both witnesses are the search's
certified relations, for the torsion and for the minimal polynomial's
content.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .intarith import SelfCheckError
from .poly import IntPoly, content_split
from .ideal import MonicRelation, Presentation, canonical_basis, monic_multiple_search


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


def torsion_data(presentation: Presentation) -> RingInvariants:
    """Every invariant of the presentation's generator, witnesses certified.

    The minimal polynomial is the lowest basis element t_1.  The torsion
    tau is the top element's lead, which divides every k with a monic
    multiple; tau has one exactly when the minimal polynomial's primitive
    part is monic (``ideal.monic_multiple_search``).  The exponent witness
    is the search's relation for d, the minimal polynomial's content: it
    lands on t_1 itself, so its phi must be the primitive part and d*phi
    the minimal polynomial.  With one basis element d is tau, and the
    torsion witness serves for both.
    """
    elements = canonical_basis(presentation).elements
    if not elements:
        return RingInvariants()
    mp = elements[0]
    split = content_split(mp)
    d, primitive = split.content, split.primitive
    known = functools.partial(RingInvariants, mp.degree, mp, d, primitive)
    tau = elements[-1].lead
    witness = monic_multiple_search(presentation, tau)
    if witness is None:
        return known()
    exp_witness = witness if tau == d else monic_multiple_search(presentation, d)
    if exp_witness is None or exp_witness.phi != primitive:
        raise SelfCheckError(f"the relation for k={d} is not the minimal polynomial")
    return known(torsion=tau, torsion_exponent=mp.degree,
                 torsion_witness=witness, exponent_witness=exp_witness)


# bench/tracing.py traces this function by its defining name, torsion_data;
# the library and bench/workloads.py call it ring_invariants
ring_invariants = torsion_data
