import random

import pytest

from finsep.intarith import (
    AllZeroError,
    FactoringBudgetError,
    NonPositiveError,
    RHO_STEP_BUDGET,
    TRIAL_DIVISION_BOUND,
    bezout,
    factorize,
    gcd_list,
    is_probable_prime,
    squarefree,
    xgcd,
)


def test_gcd_list_examples():
    assert gcd_list([6, -6, 1]) == 1
    assert gcd_list([4]) == 4
    assert gcd_list([12, 18, 30]) == 6  # Euclid by hand: gcd(12,18)=6, gcd(6,30)=6
    assert gcd_list([]) == 0
    assert gcd_list([0, 0]) == 0


def test_gcd_list_divides_every_input_and_is_divided_by_common_divisors():
    rng = random.Random(1)
    for _ in range(200):
        values = [rng.randint(-50, 50) for _ in range(rng.randint(1, 6))]
        g = gcd_list(values)
        if any(values):
            assert g > 0
            assert all(v % g == 0 for v in values)
            # any common divisor divides g
            for d in range(1, 12):
                if all(v % d == 0 for v in values):
                    assert g % d == 0
        else:
            assert g == 0


def test_gcd_list_invariant_under_permutation_and_sign():
    rng = random.Random(2)
    for _ in range(100):
        values = [rng.randint(-30, 30) for _ in range(4)]
        g = gcd_list(values)
        shuffled = values[:]
        rng.shuffle(shuffled)
        assert gcd_list(shuffled) == g
        assert gcd_list([-v for v in values]) == g
        assert gcd_list([v * rng.choice([-1, 1]) for v in values]) == g


def test_bezout_examples():
    assert bezout([3, 2]) == (1, [1, -1])
    assert bezout([5]) == (5, [1])
    g, c = bezout([6, 10, 15])
    assert g == 1
    assert 6 * c[0] + 10 * c[1] + 15 * c[2] == 1


def test_bezout_identity_random():
    rng = random.Random(3)
    for _ in range(300):
        values = [rng.randint(-40, 40) for _ in range(rng.randint(1, 5))]
        if not any(values):
            continue
        g, c = bezout(values)
        assert g == gcd_list(values)
        assert sum(ci * vi for ci, vi in zip(c, values)) == g


def test_bezout_all_zero():
    with pytest.raises(AllZeroError):
        bezout([0, 0, 0])
    with pytest.raises(AllZeroError):
        bezout([])


def test_xgcd():
    for a in range(-20, 21):
        for b in range(-20, 21):
            g, x, y = xgcd(a, b)
            assert g >= 0
            assert x * a + y * b == g
            if a or b:
                assert a % g == 0 and b % g == 0


def test_squarefree_examples():
    w = squarefree(1)
    assert w.is_squarefree and w.factorization == ()
    w = squarefree(30)
    assert w.is_squarefree
    assert w.factorization == ((2, 1), (3, 1), (5, 1))
    w = squarefree(12)
    assert not w.is_squarefree
    assert w.offending_prime == 2
    assert 12 % (2 * 2) == 0


def test_squarefree_rejects_nonpositive():
    with pytest.raises(NonPositiveError):
        squarefree(0)
    with pytest.raises(NonPositiveError):
        squarefree(-6)


def test_factorization_multiplies_back():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 10**6)
        product = 1
        for p, e in factorize(n):
            assert is_probable_prime(p)
            product *= p**e
        assert product == n


def test_factorize_beyond_trial_bound_uses_rho():
    # both factors exceed the trial-division bound of 10^6
    p, q = 10**6 + 3, 10**6 + 33
    assert p > TRIAL_DIVISION_BOUND and q > TRIAL_DIVISION_BOUND
    assert factorize(p * q) == ((p, 1), (q, 1))
    w = squarefree(p * p)
    assert not w.is_squarefree and w.offending_prime == p
    assert factorize(6 * p * q) == ((2, 1), (3, 1), (p, 1), (q, 1))


def test_trial_division_stops_at_the_root_of_what_is_left(monkeypatch):
    import finsep.intarith as intarith

    drawn = []
    real = intarith._small_trial_primes

    def counting(*args):
        for p in real(*args):
            drawn.append(p)
            yield p

    monkeypatch.setattr(intarith, "_small_trial_primes", counting)
    # once the 2s are divided out, 1000003 is left, whose root is about
    # 1000; the wheel up to 10^6 would draw some 333,000 candidates
    assert factorize(2**200 * 1000003) == ((2, 200), (1000003, 1))
    assert len(drawn) < 400
    # a cofactor with no small factor still meets the whole wheel
    drawn.clear()
    p, q = 10**6 + 3, 10**6 + 33
    assert factorize(p * q) == ((p, 1), (q, 1))
    assert max(drawn) > TRIAL_DIVISION_BOUND - 6


def test_rho_gives_up_past_its_budget():
    # two primes near 10^12 need about 10^6 rho steps, past the budget
    p = next(n for n in range(10**12 + 1, 10**12 + 1000, 2) if is_probable_prime(n))
    q = next(n for n in range(p + 2, p + 1000, 2) if is_probable_prime(n))
    assert RHO_STEP_BUDGET < 10**6
    with pytest.raises(FactoringBudgetError) as e:
        factorize(p * q)
    assert not isinstance(e.value, ValueError)
    with pytest.raises(FactoringBudgetError):
        squarefree(p * q * 10007)


def test_probable_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_probable_prime(n) == (n in primes)
