"""Metamorphic properties: rewrites of a presentation that keep its ideal.

Replacing a relator r1 by r1 + h*r2 (unimodular mixing) or appending a
member of the ideal leaves the ideal V unchanged, so the canonical basis
elements, which depend on V alone, the separability verdict and the
torsion invariants (tau and the exponent) must not move either.

The substitution x -> -x maps V onto an isomorphic ideal, and k*phi in V
with phi monic of degree n gives k*(-1)^n*phi(-x) in the image, again
monic of degree n, so the verdict, tau and the exponent carry over.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from finsep.ideal import Presentation, basis_elements
from finsep.invariants import torsion_data
from finsep.poly import IntPoly
from finsep.separability import decide

coefficients = st.integers(-12, 12)
# relators: zero constant term, degree at most 5
relators = st.lists(coefficients, min_size=1, max_size=5).map(
    lambda c: IntPoly([0, *c])
)
# multipliers may carry a constant term
multipliers = st.lists(coefficients, min_size=1, max_size=3).map(IntPoly)

SETTINGS = settings(
    max_examples=100, deadline=None, derandomize=True, database=None
)


def _verdict(presentation, *, exact=True):
    v = decide(presentation)
    reason = v.failure_reason
    if reason is not None and not exact:
        # under x -> -x an offending gamma coefficient may change sign
        reason = (reason.kind, reason.prime, reason.coefficient_index,
                  None if reason.coefficient is None else abs(reason.coefficient))
    return v.separable, v.coefficient_gcd, reason


def _torsion(presentation):
    data = torsion_data(presentation)
    return data.torsion, data.torsion_exponent


def _same_ideal(before, after):
    assert basis_elements(after) == basis_elements(before)
    assert _verdict(after) == _verdict(before)
    assert _torsion(after) == _torsion(before)


def _negated(r):
    return IntPoly([(-1) ** i * c for i, c in enumerate(r.coeffs)])


@SETTINGS
@given(st.lists(relators, min_size=2, max_size=3), multipliers)
def test_unimodular_mixing_keeps_basis_and_verdict(rs, h):
    mixed = [rs[0] + h * rs[1], *rs[1:]]
    _same_ideal(Presentation(rs), Presentation(mixed))


@SETTINGS
@given(st.lists(relators, min_size=1, max_size=3),
       st.lists(multipliers, min_size=3, max_size=3))
def test_appending_an_ideal_member_keeps_basis_and_verdict(rs, hs):
    member = IntPoly()
    for h, r in zip(hs, rs):
        member = member + h * r
    _same_ideal(Presentation(rs), Presentation([*rs, member]))


@SETTINGS
@given(st.lists(relators, min_size=1, max_size=3))
def test_negating_the_generator_keeps_verdict_and_torsion(rs):
    before, after = Presentation(rs), Presentation([_negated(r) for r in rs])
    assert _verdict(after, exact=False) == _verdict(before, exact=False)
    assert _torsion(after) == _torsion(before)
