"""The division and cofactor-sum kernels against naive references.

``poly._divide``, ``ideal._fold`` and ``check.is_combination`` work on raw
coefficient lists.  The references here are written term by term in
``IntPoly`` arithmetic, so they share no list code with the kernels.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from finsep.check import is_combination
from finsep.ideal import _fold
from finsep.poly import IntPoly, _divide

SETTINGS = settings(
    max_examples=200, deadline=None, derandomize=True, database=None
)

coefficients = st.integers(-50, 50)
polys = st.lists(coefficients, max_size=12).map(IntPoly)


@st.composite
def ladders(draw):
    """Elements of strictly ascending degrees >= 1, zero constant terms and
    positive leads, as a strong basis has them."""
    degrees = sorted(draw(st.sets(st.integers(1, 8), max_size=4)))
    return [IntPoly([0, *draw(st.lists(coefficients, min_size=d - 1, max_size=d - 1)),
                     draw(st.integers(1, 30))]) for d in degrees]


def _naive_divide(g, elements):
    """Top-down division, one monomial quotient term at a time."""
    nf, qs = g, [IntPoly()] * len(elements)
    for d in range(g.degree, 0, -1):
        below = [i for i, e in enumerate(elements) if e.degree <= d]
        if below and nf[d]:
            i = below[-1]
            term = IntPoly.term(nf[d] // elements[i].lead, d - elements[i].degree)
            nf, qs[i] = nf - term * elements[i], qs[i] + term
    return nf, tuple(qs)


def _is_reduced(nf, elements):
    """Each term of degree >= 1 is a least-nonnegative residue of the lead
    of the element of largest degree not above it."""
    for d in range(1, nf.degree + 1):
        below = [e for e in elements if e.degree <= d]
        if below and not 0 <= nf[d] < below[-1].lead:
            return False
    return True


@SETTINGS
@given(polys, ladders())
def test_divide_matches_the_naive_division(g, elements):
    nf, quotients = _divide(g, elements)
    assert (nf, quotients) == _naive_divide(g, elements)
    total = nf
    for q, e in zip(quotients, elements):
        total = total + q * e
    assert total == g
    assert _is_reduced(nf, elements)
    assert _divide(g, elements, False) == (nf, ())


def test_divide_edge_cases():
    g = IntPoly((3, -7, 0, 5))
    assert _divide(g, []) == (g, ())
    assert _divide(g, [], False) == (g, ())
    # g below the lowest degree is its own normal form
    high = IntPoly((0, 0, 0, 0, 2))
    assert _divide(g, [high]) == (g, (IntPoly(),))
    assert _divide(IntPoly(), [high]) == (IntPoly(), (IntPoly(),))
    # one element of degree 1 reduces every term above the constant
    nf, (q,) = _divide(g, [IntPoly((0, 3))])
    assert nf == IntPoly((3, 2, 0, 2)) and q == IntPoly((-3, 0, 1))
    assert _divide(g, [IntPoly((0, 1))]) == (IntPoly((3,)), (IntPoly((-7, 0, 5)),))


@st.composite
def folds(draw):
    width = draw(st.integers(1, 3))
    n = draw(st.integers(0, 4))
    quotients = draw(st.lists(polys, min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(polys, min_size=width, max_size=width).map(tuple),
                         min_size=n, max_size=n))
    return quotients, rows


@SETTINGS
@given(folds())
def test_fold_agrees_with_intpoly_arithmetic(case):
    quotients, rows = case
    expected = [IntPoly()] * (len(rows[0]) if rows else 0)
    for q, row in zip(quotients, rows):
        expected = [s + q * p for s, p in zip(expected, row)]
    assert _fold(quotients, rows) == tuple(expected)


@SETTINGS
@given(st.lists(st.tuples(polys, polys), max_size=4), polys)
def test_is_combination_accepts_the_sum_and_nothing_else(pairs, delta):
    cofactors = [c for c, _ in pairs]
    generators = [g for _, g in pairs]
    claim = IntPoly()
    for c, g in pairs:
        claim = claim + c * g
    assert is_combination(claim, cofactors, generators)
    assert is_combination(claim + delta, cofactors, generators) == delta.is_zero()
    # a cofactor list of another length is rejected, even a zero padding
    assert not is_combination(claim, cofactors + [IntPoly()], generators)
    if pairs:
        assert not is_combination(claim, cofactors[:-1], generators)
