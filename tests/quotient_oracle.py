"""The additive side of a finite quotient, for the tests.

``FiniteRing`` maps polynomials in (``image``), reads elements back
(``to_poly``) and multiplies (``mul``).  The carrier, zero, sums and
negatives are built here from those two maps and ``position_moduli`` only,
so ``mul`` and the closure are checked against a path that shares none of
its list arithmetic.
"""

import itertools

from finsep.poly import IntPoly


def carrier(ring):
    """Every element, one tuple of residues per position (small rings only)."""
    return itertools.product(*(range(m) for m in ring.position_moduli))


def zero(ring):
    return ring.image(IntPoly())


def add(ring, u, v):
    return ring.image(ring.to_poly(u) + ring.to_poly(v))


def neg(ring, u):
    return ring.image(-ring.to_poly(u))


def naive_closure(ring, generators):
    """Second closure implementation: whole-set fixpoint, no frontier."""
    current = {zero(ring), *(ring.image(g) for g in generators)}
    while True:
        nxt = set(current)
        for u in current:
            nxt.add(neg(ring, u))
            for v in current:
                nxt.add(add(ring, u, v))
                nxt.add(ring.mul(u, v))
        if nxt == current:
            return frozenset(current)
        current = nxt
