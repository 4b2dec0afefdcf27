"""Exact arithmetic for the critical orbit of f(x) = x^2 + 1/c.

The forward orbit of 0 has f^n(0) = a_n / c^(2^(n-1)) with integer
numerators a_1 = 1, a_n = a_{n-1}^2 + c^(2^(n-1) - 1).  Everything here is
exact: big integers and Fractions, no floating point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

DEFAULT_BIT_BUDGET = 1 << 26


class BitBudgetExceeded(ArithmeticError):
    """The exact value would exceed the configured bit budget.

    Signals the caller to switch to a modular or lattice path.
    """


def isqrt_if_square(x: int) -> int | None:
    """The integer square root of x if x is a perfect square, else None."""
    if x < 0:
        return None
    r = math.isqrt(x)
    return r if r * r == x else None


def is_perfect_square(x: int) -> bool:
    return isqrt_if_square(x) is not None


def is_rational_square(q: Fraction) -> bool:
    """True iff q is the square of a rational."""
    return (q >= 0 and is_perfect_square(q.numerator)
            and is_perfect_square(q.denominator))


def _check_c(c: int) -> None:
    if c == 0:
        raise ValueError("c must be a nonzero integer")


def critical_numerators(c: int, n: int, bit_budget: int = DEFAULT_BIT_BUDGET) -> list[int]:
    """[a_1, ..., a_n] exactly; raises BitBudgetExceeded past the budget."""
    _check_c(c)
    if n < 1:
        raise ValueError("index must be >= 1")
    out = [1]
    a, cpow = 1, 1  # cpow = c^(2^(k-1) - 1)
    for _ in range(n - 1):
        cpow = cpow * cpow * c
        a = a * a + cpow
        if a.bit_length() > bit_budget:
            raise BitBudgetExceeded(
                f"a_n(c={c}) exceeds {bit_budget} bits at n={len(out) + 1}")
        out.append(a)
    return out


def orbit_point(c: int, n: int, bit_budget: int = DEFAULT_BIT_BUDGET) -> Fraction:
    """f^n(0) as an exact rational; n = 0 gives 0."""
    _check_c(c)
    if n < 0:
        raise ValueError("index must be >= 0")
    r = Fraction(1, c)
    x = Fraction(0)
    for _ in range(n):
        x = x * x + r
        if x.denominator.bit_length() > bit_budget:
            raise BitBudgetExceeded(f"orbit point denominator exceeds {bit_budget} bits")
    return x


class SquareClass(Enum):
    IRRATIONAL = "irrational"
    RATIONAL_NONSQUARE = "rational_nonsquare"
    SQUARE = "square"


@dataclass(frozen=True)
class HalfSumStatus:
    """Square status of (a_{n-1} + sqrt(a_n)) / 2, positive root convention."""
    c: int
    n: int
    square_class: SquareClass
    root: int | None = None            # sqrt(a_n) when a_n is a perfect square
    two_adic_valuation: int | None = None


def half_sum_from_values(a_prev: int, root: int) -> tuple[SquareClass, int | None]:
    """Classify (a_prev + root)/2 given a perfect-square a_n with sqrt root."""
    if (a_prev + root) % 2 != 0:
        # reduced denominator 2 is never a rational square
        return SquareClass.RATIONAL_NONSQUARE, -1
    b = (a_prev + root) // 2
    if is_perfect_square(b):
        return SquareClass.SQUARE, padic_valuation(b, 2) if b else None
    return SquareClass.RATIONAL_NONSQUARE, None


def half_sum_status(c: int, n: int, bit_budget: int = DEFAULT_BIT_BUDGET) -> HalfSumStatus:
    if n < 2:
        raise ValueError("index must be >= 2")
    seq = critical_numerators(c, n, bit_budget)
    a_prev, a_n = seq[-2], seq[-1]
    root = isqrt_if_square(a_n)
    if root is None:
        # covers c < 0 (a_n negative, half-sum not even real)
        return HalfSumStatus(c, n, SquareClass.IRRATIONAL)
    cls, v2 = half_sum_from_values(a_prev, root)
    return HalfSumStatus(c, n, cls, root=root, two_adic_valuation=v2)


def padic_valuation(x: int, p: int) -> int:
    """Exponent of the prime p in x; x must be nonzero."""
    if x == 0:
        raise ValueError("valuation of zero is undefined")
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v
