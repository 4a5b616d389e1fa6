"""Dense univariate polynomials over Z, and rational ones as values.

Coefficients are stored ascending by degree with no trailing zeros, so the
zero polynomial is the empty coefficient tuple.  ``IntPoly`` and
``RatPoly`` share one immutable value type (coefficients, degree, lead,
equality, hashing and formatting).  ``IntPoly`` holds plain ints and
carries all the arithmetic; ``RatPoly`` holds ``fractions.Fraction``, the
shape of a rational gcd and its cofactors.

The rational gcd (``gcd_q``) runs on integers only.  It is one primitive
polynomial remainder sequence (Collins 1967, Brown 1971) over rows
(polynomial, cofactor of each input), folded from the zero row: each step
takes a pseudo-remainder and divides the whole row by the gcd of all its
coefficients.  Every integer row is then a nonzero scalar multiple of the
row the same fold over Q reaches, so one division by the lead of the last
remainder gives exactly the Q result; ``Fraction`` enters only there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter

from .intarith import gcd_list

_COEFFS = attrgetter("coeffs")  # a polynomial's coefficient tuple


class ZeroPolynomialError(ValueError):
    """Raised when a nonzero polynomial was required."""


def _trim(coeffs: list) -> list:
    """Drop trailing zeros in place, so the last entry is the lead."""
    if coeffs and not coeffs[-1] and not any(coeffs):
        coeffs.clear()  # a zero result, cleared at C speed
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _intpoly(coeffs: list) -> "IntPoly":
    """An IntPoly over a fresh list of ints, which is trimmed in place."""
    p = object.__new__(IntPoly)
    _SET_COEFFS(p, tuple(_trim(coeffs)))
    return p


def _ratpoly(coeffs: list) -> "RatPoly":
    """A RatPoly over a fresh list of Fractions, which is trimmed in place."""
    p = object.__new__(RatPoly)
    _SET_COEFFS(p, tuple(_trim(coeffs)))
    return p


def _mul(a, b) -> list:
    """Product of two ascending coefficient sequences, as a list."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


class _PolyValue:
    """The value type of a polynomial: its coefficient tuple, ascending with
    no trailing zeros, and nothing that computes.  ``_zero`` is the
    coefficient of a degree outside the tuple."""

    __slots__ = ("coeffs",)
    _zero = 0

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    @property
    def lead(self):
        """Leading coefficient (zero for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else self._zero

    def __getitem__(self, degree: int):
        return self.coeffs[degree] if 0 <= degree < len(self.coeffs) else self._zero

    def __eq__(self, other):
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((type(self).__name__, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __repr__(self):
        return f"{type(self).__name__}({format_poly(self)!r})"


_SET_COEFFS = _PolyValue.coeffs.__set__  # the slot itself, past the immutability guard


class IntPoly(_PolyValue):
    """Polynomial with integer coefficients."""

    __slots__ = ()

    def __init__(self, coeffs=()):
        # a list first: tuple(iterator) resizes, and resized tuples fill free lists
        coeffs = list(map(int, coeffs))
        if coeffs and not coeffs[-1]:
            _trim(coeffs)
        _SET_COEFFS(self, tuple(coeffs))

    @staticmethod
    def term(coeff: int, degree: int) -> "IntPoly":
        """The monomial coeff * x**degree."""
        return IntPoly([0] * degree + [coeff])

    @staticmethod
    def x() -> "IntPoly":
        return IntPoly((0, 1))

    @property
    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _intpoly(out)

    def __neg__(self) -> "IntPoly":
        return _intpoly([-c for c in self.coeffs])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        return _intpoly(_mul(self.coeffs, other.coeffs))

    def scale(self, k: int) -> "IntPoly":
        return _intpoly([k * c for c in self.coeffs])

    def shift(self, degrees: int) -> "IntPoly":
        """Multiply by x**degrees."""
        if self.is_zero():
            return self
        return IntPoly((0,) * degrees + self.coeffs)

    @property
    def content(self) -> int:
        """Nonnegative gcd of the coefficients (0 for the zero polynomial)."""
        return gcd_list(self.coeffs)

    def divides(self, other: "IntPoly") -> bool:
        """Exact divisibility in Z[x]: other == self * q for some q in Z[x].

        Long division over Z, which stops at the first leading coefficient
        that the divisor's lead does not divide.
        """
        d = self.coeffs
        if not d:
            return not other.coeffs
        n, lead = len(d) - 1, d[-1]
        rem = list(other.coeffs)
        for i in range(len(rem) - 1, n - 1, -1):
            c = rem[i]
            if c:
                q, left = divmod(c, lead)
                if left:
                    return False
                # rem[i] cancels exactly and is not read again
                for j in range(n):
                    rem[i - n + j] -= q * d[j]
        return not any(rem[:n])


def _divide_coeffs(rem: list, descending, quotients: bool = True) -> list:
    """The list core of ``_divide``: reduce rem in place, left untrimmed.
    ``descending`` yields the elements' coefficient sequences from the top
    degree down, each reducing the degrees left down to its own; their
    quotients come back as lists in that order, each sized at its first
    (highest) shift, and empty when ``quotients`` is false."""
    top = len(rem) - 1
    qs = []
    for e in descending:
        n, q = len(e) - 1, []
        if n <= top:  # an element above every degree left reduces nothing
            lead = e[-1]
            for d in range(top, n - 1, -1):
                k = rem[d] // lead
                if k:
                    s = d - n
                    for t, b in enumerate(e, s):
                        rem[t] -= k * b  # leaves rem[d] its residue
                    if quotients:
                        if not q:
                            q = [0] * (s + 1)
                        q[s] = k
            top = n - 1
        qs.append(q)
    return qs


def _divide(g: IntPoly, descending, quotients: bool = True) -> tuple[IntPoly, tuple]:
    """Normal form of g plus quotients: g == nf + sum(q[i] * elements[i]).

    ``descending`` holds the coefficients of elements that ascend strictly
    in degree from degree 1 up, from the top one down.  Terms are reduced
    from the top down by the element of largest degree not above them, to
    the least-nonnegative residue of that element's lead, in one walk
    (``_divide_coeffs``).  Quotients ascend, an empty one the shared zero;
    with ``quotients`` false () is returned in their place.
    """
    rem = list(g.coeffs)
    qs = _divide_coeffs(rem, descending, quotients)
    if not quotients:
        return _intpoly(rem), ()
    return _intpoly(rem), tuple([_intpoly(q) if q else _ZERO for q in reversed(qs)])


_ZERO = IntPoly()


class RatPoly(_PolyValue):
    """Polynomial with exact rational coefficients."""

    __slots__ = ()
    _zero = Fraction(0)

    def __init__(self, coeffs=()):
        coeffs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        _SET_COEFFS(self, tuple(_trim(coeffs)))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)


@dataclass(frozen=True)
class ContentSplit:
    """A nonzero integer polynomial as content * primitive part.

    The content is the positive gcd of the coefficients; the primitive
    part keeps the sign of the original leading coefficient.
    """

    content: int
    primitive: IntPoly


def content_split(p: IntPoly) -> ContentSplit:
    """Split p != 0 into its positive content and primitive part."""
    if p.is_zero():
        raise ZeroPolynomialError("the zero polynomial has no content split")
    d = p.content
    return ContentSplit(d, IntPoly(c // d for c in p.coeffs))


def _pseudo_divide(num, den) -> tuple[int, list, list]:
    """(c, q, r) with c*num == q*den + r over Z, c != 0 and deg r < deg den.

    A step multiplies by lead(den) / gcd(lead(den), x) for the leading
    coefficient x it cancels, not by lead(den), and skips a zero x, so c
    is often far below the classical lead(den)^(deg num - deg den + 1).
    """
    rem = list(num)
    n, lead = len(den) - 1, den[-1]
    q = [0] * max(len(rem) - n, 0)
    c = 1
    for i in range(len(rem) - 1, n - 1, -1):
        x = rem[i]
        if not x:
            continue
        g = gcd(x, lead) if lead > 0 else -gcd(x, lead)
        m, x = lead // g, x // g
        if m != 1:
            rem[:i] = [m * v for v in rem[:i]]
            q = [m * v for v in q]
            c *= m
        k = i - n
        q[k] = x
        for j in range(n):
            rem[k + j] -= x * den[j]
    del rem[n:]
    return c, q, _trim(rem)


def _comb(c: int, u, q, v) -> list:
    """c*u - q*v on ascending integer coefficient sequences, trimmed."""
    out = [c * x for x in u]
    prod = _mul(q, v)
    out.extend([0] * (len(prod) - len(out)))
    for i, x in enumerate(prod):
        out[i] -= x
    return _trim(out)


def clear_denominators(polys) -> tuple[int, tuple[IntPoly, ...]]:
    """(l, l * polys) for the least positive l that makes every one integral."""
    polys = list(polys)
    l = lcm(*(c.denominator for p in polys for c in p.coeffs))
    return l, tuple(
        _intpoly([c.numerator * (l // c.denominator) for c in p.coeffs])
        for p in polys
    )


@dataclass(frozen=True)
class RationalGcd:
    """Monic gcd over Q of a family of integer polynomials, with evidence.

    ``cofactors`` satisfy sum(cofactors[i] * inputs[i]) == gamma exactly, and
    ``denominator_lcm`` (the paper-side l) clears every cofactor denominator,
    so denominator_lcm * gamma is an all-integer combination of the inputs.
    """

    gamma: RatPoly
    cofactors: tuple[RatPoly, ...]
    denominator_lcm: int


def gcd_q(polys) -> RationalGcd:
    """Monic rational gcd of integer polynomials with Bezout cofactors.

    One primitive remainder sequence runs on integer rows [g, c_1, ...,
    c_m] with g == sum(c_i * p_i).  It starts from the zero row and folds
    each input's unit row [p_i, 0, ..., 1, ..., 0] in by Euclid steps until
    that row's g is used up.  A step takes the pseudo-remainder c*g0 ==
    q*g1 + r and the row c*row0 - q*row1, divided by the gcd of all its
    coefficients.  The zero row's pseudo-remainder is itself, so the first
    nonzero input takes its place, and a zero input changes nothing.

    Each row is a nonzero scalar multiple of the row that the same fold
    over Q reaches at the same step.  The integer step is c times the Q
    step row0 - (q/c)*row1, and that step is linear in its two rows with a
    quotient that scales with them, so multiples of the Q rows give a
    multiple of the next Q row; dividing a row by the gcd of its
    coefficients keeps that.  The Q fold's gcd is monic, so dividing the
    last row by lead(g), its one common denominator, gives exactly that
    fold's gamma and cofactors.
    """
    polys = list(polys)
    row0 = [[] for _ in range(len(polys) + 1)]
    for i, p in enumerate(polys):
        row1 = [list(p.coeffs), *([1] if j == i else [] for j in range(len(polys)))]
        while row1[0]:
            c, q, r = _pseudo_divide(row0[0], row1[0])
            row = [r, *(_comb(c, u, q, v) for u, v in zip(row0[1:], row1[1:]))]
            common = gcd(*(x for part in row for x in part))
            if common > 1:
                row = [[x // common for x in part] for part in row]
            row0, row1 = row1, row
    if not row0[0]:
        raise ZeroPolynomialError("gcd_q needs at least one nonzero polynomial")
    lead, zero = row0[0][-1], Fraction(0)
    gamma, *cofactors = (_ratpoly([Fraction(x, lead) if x else zero for x in part])
                         for part in row0)
    l = lcm(*(c.denominator for cof in cofactors for c in cof.coeffs))
    return RationalGcd(gamma, tuple(cofactors), l)


def format_poly(p) -> str:
    """Canonical text form: descending degree, '^' powers, e.g. '2x^3 - 4x'.

    A rational coefficient that is not an integer reads '(n/d)'; an int
    and a ``Fraction`` both carry their numerator and denominator.
    """
    coeffs, terms = p.coeffs, []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if not c:
            continue
        num, den = c.numerator, c.denominator
        mag = -num if num < 0 else num
        if den != 1:
            body = f"({mag}/{den})"
        else:
            body = "" if mag == 1 and d else str(mag)
        if d:
            body += "x" if d == 1 else f"x^{d}"
        terms.append(("- " if num < 0 else "+ ") + body)
    if not terms:
        return "0"
    text = " ".join(terms)
    return text[2:] if text[0] == "+" else "-" + text[2:]
