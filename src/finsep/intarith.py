"""Exact integer arithmetic: GCDs with cofactors, squarefree testing.

All values are plain Python ints (arbitrary precision).  Everything here
is pure and deterministic; the factorization routine uses trial division
up to the square root of what is left of the number, and never past the
fixed ``TRIAL_DIVISION_BOUND``, with a Pollard-rho fallback, which is
plenty for the coefficient sizes this library meets in practice; a
perfect power is split by its integer root before rho runs.
Each Pollard rho call runs under a fixed effort budget of
``RHO_STEP_BUDGET`` steps: a cofactor it cannot split within the budget
(one with two prime factors above about 10^10, say) raises
``FactoringBudgetError`` instead of running on without end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class AllZeroError(ValueError):
    """Raised when an operation needs at least one nonzero input."""


class NonPositiveError(ValueError):
    """Raised when a positive integer was required."""


class SelfCheckError(RuntimeError):
    """Raised when a computed result or certificate fails its own re-check.

    This is an internal fault, never an input error.  The checks that raise
    it are explicit, so they also run under ``python -O``.
    """


class FactoringBudgetError(ArithmeticError):
    """Raised when Pollard rho cannot split a cofactor within its budget.

    The input is valid; the answer needs more factoring effort than this
    library spends.  It is neither an input error nor an internal fault.
    """


TRIAL_DIVISION_BOUND = 10**6

# Pollard-rho steps allowed per call, about 0.3 s on a 134-bit cofactor;
# rho needs about sqrt(p) steps to split off a prime p
RHO_STEP_BUDGET = 100_000


def gcd_list(values) -> int:
    """Nonnegative gcd of a sequence of ints; the empty gcd is 0."""
    g = 0
    for v in values:
        g = math.gcd(g, v)
        if g == 1:
            return 1
    return g


def bezout(values) -> tuple[int, list[int]]:
    """Extended gcd of a sequence: returns (g, c) with sum(c[i]*values[i]) == g.

    Requires at least one nonzero value.
    """
    values = list(values)
    if not any(values):
        raise AllZeroError("bezout needs at least one nonzero value")
    # xgcd(0, v) is (|v|, 0, sign v), so the fold starts from g = 0
    g, cofactors = 0, [0] * len(values)
    for i, v in enumerate(values):
        g, x, y = xgcd(g, v)
        cofactors = [c * x for c in cofactors]
        cofactors[i] += y
    if sum(c * v for c, v in zip(cofactors, values)) != g:
        raise SelfCheckError("bezout cofactors do not recombine to the gcd")
    return g, cofactors


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, x1 = 1, 0
    y0, y1 = 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


@dataclass(frozen=True)
class SquarefreeWitness:
    """Result of a squarefree test, with the full factorization as evidence.

    ``factorization`` multiplies back to the tested integer.  When the
    input is not squarefree, ``offending_prime`` is a prime whose square
    divides it.
    """

    is_squarefree: bool
    offending_prime: int | None
    factorization: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.is_squarefree != all(e == 1 for _, e in self.factorization) or (
            (self.offending_prime is not None)
            != any(e >= 2 for _, e in self.factorization)
        ):
            raise SelfCheckError("squarefree verdict disagrees with its factorization")


def squarefree(n: int) -> SquarefreeWitness:
    """Test whether n >= 1 is squarefree (a product of distinct primes, or 1)."""
    if n < 1:
        raise NonPositiveError(f"squarefree needs n >= 1, got {n}")
    factors = factorize(n)
    offending = next((p for p, e in factors if e >= 2), None)
    if offending is not None and n % (offending * offending):
        raise SelfCheckError(f"{offending}^2 does not divide {n}")
    return SquarefreeWitness(
        is_squarefree=offending is None,
        offending_prime=offending,
        factorization=factors,
    )


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((prime, exponent), ...), primes ascending."""
    if n < 1:
        raise NonPositiveError(f"factorize needs n >= 1, got {n}")
    factors: dict[int, int] = {}
    for p in _small_trial_primes():
        # what is left is 1 or a prime once p*p exceeds it
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if n > 1:
        for p in _factor_generic(n):
            factors[p] = factors.get(p, 0) + 1
    return tuple(sorted(factors.items()))


def _small_trial_primes():
    yield 2
    yield 3
    p = 5
    # 6k +/- 1 wheel, up to the trial bound
    while p <= TRIAL_DIVISION_BOUND:
        yield p
        yield p + 2
        p += 6


def _factor_generic(n: int) -> list[int]:
    """Fully factor n (no prime factor below the trial bound) via Pollard rho;
    a perfect power r^k is split by its integer root first."""
    if n == 1:
        return []
    if is_probable_prime(n):
        return [n]
    # each prime factor exceeds the trial bound 10^6 > 2^19, so n = r^k
    # has 2^(19k) <= n
    for k in range(2, (n.bit_length() - 1) // 19 + 1):
        r = _iroot(n, k)
        if r**k == n:
            return sorted(_factor_generic(r) * k)
    d = _pollard_rho(n)
    return sorted(_factor_generic(d) + _factor_generic(n // d))


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _pollard_rho(n: int) -> int:
    """A proper factor of the composite n, within ``RHO_STEP_BUDGET`` steps."""
    if n % 2 == 0:
        return 2
    steps = 0
    for c in range(1, n):
        x = y = 2
        d = 1
        while d == 1:
            if steps == RHO_STEP_BUDGET:
                raise FactoringBudgetError(
                    f"Pollard rho did not split a {n.bit_length()}-bit "
                    f"cofactor within {RHO_STEP_BUDGET} steps"
                )
            steps += 1
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise FactoringBudgetError(f"Pollard rho found no factor of {n}")


# Miller-Rabin on these 13 prime bases is a proof of primality for every
# n below MR_PROOF_BOUND, the least strong pseudoprime to all of them
# (Sorenson-Webster, Strong pseudoprimes to twelve prime bases, 2017).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_PROOF_BOUND = 3317044064679887385961981


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic below 3.3e24, overwhelmingly reliable above."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
