import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quadorbit.orbit import (BitBudgetExceeded, SquareClass, critical_numerators,
                             half_sum_status, is_perfect_square, isqrt_if_square,
                             orbit_point, padic_valuation)


def iterate_rational(c, n):
    x = Fraction(0)
    for _ in range(n):
        x = x * x + Fraction(1, c)
    return x


def test_closed_forms():
    for c in range(-100, 101):
        if c == 0:
            continue
        assert critical_numerators(c, 2)[-1] == c + 1
        assert critical_numerators(c, 3)[-1] == c ** 3 + c ** 2 + 2 * c + 1


def test_base_case_and_spec_values():
    assert critical_numerators(1, 1)[-1] == 1
    assert critical_numerators(2, 4)[-1] == 417  # 17^2 + 2^7


def test_matches_exact_rational_iteration():
    for c in range(-50, 51):
        if c == 0:
            continue
        seq = critical_numerators(c, 10)
        for n in range(1, 11):
            pt = iterate_rational(c, n)
            assert pt == orbit_point(c, n)
            assert seq[n - 1] == pt.numerator * (c ** (2 ** (n - 1)) // pt.denominator)
            # numerator of f^n(0) over denominator c^(2^(n-1)), in lowest terms
            assert pt == Fraction(seq[n - 1], c ** (2 ** (n - 1)))


def test_congruence_and_coprimality():
    for c in range(-1000, 1001):
        if c == 0:
            continue
        seq = critical_numerators(c, 12)
        for n in range(1, 13):
            assert seq[n - 1] % c == 1 % c
        for n in range(2, 13):
            assert math.gcd(seq[n - 1], seq[n - 2]) == 1


def test_negativity_for_negative_c():
    for c in range(-1000, -1):
        seq = critical_numerators(c, 12)
        assert all(a < 0 for a in seq[1:])


def test_orbit_interval_for_negative_c():
    for c in (-2, -5, -16, -100):
        bound = Fraction(1, math.isqrt(-c)) if is_perfect_square(-c) else None
        for n in range(1, 8):
            x = orbit_point(c, n)
            assert x < 0
            assert x * x < Fraction(-1, c)  # inside (-sqrt(-1/c), 0)


def test_bit_budget_guard():
    with pytest.raises(BitBudgetExceeded):
        critical_numerators(10 ** 9, 12, bit_budget=10 ** 4)


def test_perfect_square_basics():
    assert isqrt_if_square(49) == 7
    assert isqrt_if_square(17) is None     # a_3(2)
    assert isqrt_if_square(4) == 2         # a_2(3)
    assert not is_perfect_square(-4)


@given(st.integers(min_value=0, max_value=10 ** 30))
def test_perfect_square_hypothesis(r):
    assert isqrt_if_square(r * r) == r
    if r > 1:
        assert isqrt_if_square(r * r + 1) is None or r * r + 1 == (r + 1) ** 2
        assert isqrt_if_square(r * r - 1) is None


def test_half_sum_status_examples():
    st3 = half_sum_status(2, 3)
    assert st3.square_class is SquareClass.IRRATIONAL
    st2 = half_sum_status(3, 2)  # a_2 = 4 square, (1+2)/2 = 3/2
    assert st2.square_class is SquareClass.RATIONAL_NONSQUARE
    assert st2.root == 2 and st2.two_adic_valuation == -1


def test_half_sum_odd_c_square_a_n():
    # every odd c with a_n square forces denominator 2 exactly
    found = 0
    for c in range(1, 400, 2):
        seq = critical_numerators(c, 4)
        for n in range(2, 5):
            if is_perfect_square(seq[n - 1]):
                stt = half_sum_status(c, n)
                assert stt.square_class is SquareClass.RATIONAL_NONSQUARE
                assert stt.two_adic_valuation == -1
                found += 1
    assert found > 0


def test_half_sum_rejects_small_index():
    with pytest.raises(ValueError):
        half_sum_status(5, 1)


def test_half_sum_negative_c_not_real():
    assert half_sum_status(-7, 3).square_class is SquareClass.IRRATIONAL


def test_rigid_divisibility_empirical():
    # positive valuations propagate exactly to multiples of the index
    primes = [p for p in range(2, 51)
              if all(p % d for d in range(2, int(p ** 0.5) + 1))]
    for c in list(range(-200, -1)) + list(range(2, 201)):
        seq = critical_numerators(c, 12)
        for n in range(1, 7):
            for p in primes:
                e = padic_valuation(seq[n - 1], p) if seq[n - 1] else 0
                if e > 0:
                    for j in range(2, 12 // n + 1):
                        assert padic_valuation(seq[j * n - 1], p) == e, (c, p, n, j)


def test_padic_valuation():
    assert padic_valuation(12, 2) == 2
    assert padic_valuation(417, 3) == 1    # a_4(2) = 3 * 139
    assert padic_valuation(7, 2) == 0
    with pytest.raises(ValueError):
        padic_valuation(0, 2)


def test_half_sum_square_branch_synthetic():
    # no integer c with a square half-sum is known; the classification helper
    # still has to recognize one if it ever appears
    from quadorbit.orbit import half_sum_from_values
    cls, v2 = half_sum_from_values(1, 7)      # (1+7)/2 = 4 = 2^2
    assert cls is SquareClass.SQUARE and v2 == 2
    cls, v2 = half_sum_from_values(1, 5)      # 3: integer non-square
    assert cls is SquareClass.RATIONAL_NONSQUARE and v2 is None
    cls, v2 = half_sum_from_values(2, 5)      # 7/2: denominator two
    assert cls is SquareClass.RATIONAL_NONSQUARE and v2 == -1
