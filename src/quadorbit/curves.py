"""Bounded integral-point searches on the auxiliary curves.

The classification pipeline needs to know which parameter values make
certain polynomial expressions perfect squares; each such condition is an
integral point on one of the fixed curves below.  The shipped x-lists are
externally established facts; the brute-force search is a sanity oracle
confirming them up to a height bound, not a proof.
"""
from __future__ import annotations

from dataclasses import dataclass

from .orbit import isqrt_if_square

# y^2 = poly(x), coefficients low -> high
CURVES: dict[str, tuple[int, ...]] = {
    "E184": (1, 0, -1, 1),                     # x^3 - x^2 + 1
    "E92": (1, -1, 0, 1),                      # x^3 - x + 1
    "G2": (1, 4, 4, -4, -12, 0, 8),            # 8x^6 - 12x^4 - 4x^3 + 4x^2 + 4x + 1
    "H3": (1, 4, 6, 6, 5, 2, 1, 1),            # x^7 + x^6 + 2x^5 + 5x^4 + ...
    "HYP6PLUS": (1, -4, 4, 4, -12, 0, 8),      # 8x^6 - 12x^4 + 4x^3 + 4x^2 - 4x + 1
    "HYP6MINUS": (1, 4, 4, -4, -12, 0, 8),     # sign twin; same curve as G2
}

# Established x-coordinate lists (integral points), used as reference data.
KNOWN_X: dict[str, tuple[int, ...]] = {
    "E184": (0, 1, 4),
    "E92": (-1, 0, 1, 3, 5, 56),
    "G2": (-2, -1, 0, 1),
    "H3": (-1, 0),
}

_SQ_MOD_64 = frozenset((i * i) % 64 for i in range(64))
_SQ_MOD_63 = frozenset((i * i) % 63 for i in range(63))
_SQ_MOD_65 = frozenset((i * i) % 65 for i in range(65))


def _eval(coeffs: tuple[int, ...], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class IntegralPoint:
    x: int
    y: int  # nonnegative root; (x, -y) is a point too when y > 0


def integral_points(curve_id: str, height: int) -> list[IntegralPoint]:
    """All integral points with |x| <= height, by exhaustive search."""
    coeffs = CURVES[curve_id]
    out = []
    for x in range(-height, height + 1):
        v = _eval(coeffs, x)
        if v < 0:
            continue
        if v % 64 not in _SQ_MOD_64 or v % 63 not in _SQ_MOD_63 \
                or v % 65 not in _SQ_MOD_65:
            continue
        y = isqrt_if_square(v)
        if y is not None:
            out.append(IntegralPoint(x, y))
    return out


def x_values(curve_id: str, height: int) -> tuple[int, ...]:
    return tuple(sorted({p.x for p in integral_points(curve_id, height)}))

