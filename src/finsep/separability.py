"""The finite-separability decision procedure with two-sided certificates.

A presentation is separable iff (i) the gcd of all relator coefficients,
taken together, is squarefree, and (ii) the monic rational gcd of the
relators has integer coefficients.  Positive verdicts ship a certified
relation k * phi in V with phi monic and k squarefree; negative verdicts
pin the offending prime or the non-integer gcd coefficient.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .check import NO_RELATORS, NON_INTEGER_GAMMA, NON_SQUAREFREE_GCD, split_checks
from .intarith import (
    SelfCheckError,
    SquarefreeWitness,
    bezout,
    gcd_list,
    squarefree,
)
from .poly import RationalGcd, gcd_q
from .ideal import Presentation, monic_multiple_search
from .invariants import MonicRelation, certified_relation


class NotSquarefreeError(ValueError):
    """Raised when a squarefree integer was required."""


class UnitInputError(ValueError):
    """Raised when a torsion split is asked of 1."""


@dataclass(frozen=True)
class FailureReason:
    """Why a presentation is not separable.

    kind is one of NO_RELATORS, NON_SQUAREFREE_GCD (with the prime whose
    square divides every coefficient gcd) or NON_INTEGER_GAMMA (with the
    ascending-degree index and value of the offending coefficient).
    """

    kind: str
    prime: int | None = None
    coefficient_index: int | None = None
    coefficient: Fraction | None = None


@dataclass(frozen=True)
class SeparabilityVerdict:
    presentation: Presentation
    separable: bool
    coefficient_gcd: int
    squarefree_witness: SquarefreeWitness | None
    rational_gcd: RationalGcd | None
    failure_reason: FailureReason | None = None
    positive_witness: MonicRelation | None = None


def decide(presentation: Presentation) -> SeparabilityVerdict:
    """Decide finite separability and construct the certificates."""
    if not presentation.relators:
        # the free monogenic ring has a transcendental generator
        return SeparabilityVerdict(
            presentation, False, 0, None, None, FailureReason(kind=NO_RELATORS)
        )
    k = gcd_list(c for f in presentation.relators for c in f.coeffs)
    sf = squarefree(k)
    rational = gcd_q(presentation.relators)
    verdict = functools.partial(
        SeparabilityVerdict,
        presentation,
        coefficient_gcd=k,
        squarefree_witness=sf,
        rational_gcd=rational,
    )
    if not sf.is_squarefree:
        reason = FailureReason(kind=NON_SQUAREFREE_GCD, prime=sf.offending_prime)
        return verdict(separable=False, failure_reason=reason)
    gamma = rational.gamma
    bad = next(
        (i for i, c in enumerate(gamma.coeffs) if c.denominator != 1), None
    )
    if bad is not None:
        reason = FailureReason(
            kind=NON_INTEGER_GAMMA,
            coefficient_index=bad,
            coefficient=gamma.coeffs[bad],
        )
        return verdict(separable=False, failure_reason=reason)

    # the check below cannot fire: gamma integral makes the minimal
    # polynomial's primitive part monic, so every basis element is its lead
    # times a monic polynomial, and every member of V, each relator
    # included, is divisible by the top lead tau; hence tau | k
    phi = monic_multiple_search(presentation, k)
    if phi is None:
        raise SelfCheckError(f"no monic multiple for k={k}")
    witness = certified_relation(presentation, k, phi)
    return verdict(separable=True, positive_witness=witness)


@dataclass(frozen=True)
class TorsionSplit:
    """Squarefree k = p1*...*pn split for the CRT embedding.

    parts are (p_i, k_i) with k_i = k / p_i, and the Bezout coefficients
    satisfy sum(z_i * k_i) == 1 exactly.
    """

    k: int
    parts: tuple[tuple[int, int], ...]
    bezout_coefficients: tuple[int, ...]

    def verify(self) -> bool:
        """The checks of ``check.split_checks``, all of them passing."""
        checks = split_checks(self.k, self.parts, self.bezout_coefficients)
        return all(ok for _, ok in checks)


def torsion_split(sf: SquarefreeWitness) -> TorsionSplit:
    """Split the squarefree k > 1 that sf factors into prime parts with a
    Bezout identity; the factorization condition (i) made is reused."""
    if not sf.factorization:
        raise UnitInputError("torsion split needs k > 1, got 1")
    k = math.prod(p**e for p, e in sf.factorization)
    if not sf.is_squarefree:
        raise NotSquarefreeError(f"{k} is not squarefree")
    parts = tuple((p, k // p) for p, _ in sf.factorization)
    g, z = bezout([ki for _, ki in parts])
    split = TorsionSplit(k=k, parts=parts, bezout_coefficients=tuple(z))
    if g != 1 or not split.verify():
        raise SelfCheckError(f"torsion split of {k} fails its Bezout identity")
    return split
