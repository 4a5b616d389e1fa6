"""Exact decision of finite separability for monogenic ring presentations.

A monogenic ring is presented by integer relator polynomials with zero
constant term.  This package decides whether such a ring is finitely
separable, computes its invariants (algebraic degree, minimal polynomial,
integer torsion, torsion exponent) and constructs machine-checkable
certificates: monic torsion relations, rational gcds with Bezout cofactors,
and explicit finite quotients with separating homomorphisms.
"""

from .intarith import (
    AllZeroError,
    FactoringBudgetError,
    NonPositiveError,
    SelfCheckError,
    SquarefreeWitness,
    bezout,
    gcd_list,
    squarefree,
)
from .poly import (
    ContentSplit,
    IntPoly,
    RatPoly,
    RationalGcd,
    ZeroPolynomialError,
    content_split,
    format_poly,
    gcd_q,
)
from .ideal import (
    CanonicalBasis,
    ConstantTermError,
    MembershipCertificate,
    MonicRelation,
    Presentation,
    basis_elements,
    canonical_basis,
    membership,
    monic_multiple_search,
    normal_form,
    reduce_with_quotients,
)
from .invariants import (
    RingInvariants,
    ring_invariants,
    torsion_data,
)
from .separability import (
    FailureReason,
    NotSquarefreeError,
    SeparabilityVerdict,
    TorsionSplit,
    UnitInputError,
    decide,
    torsion_split,
)
from .quotients import (
    FiniteRing,
    InfiniteQuotient,
    InvalidModulusError,
    SeparationResult,
    build_quotient,
    modulus_order,
    separate,
    subring_closure,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
