"""Certified rounding of real expressions via interval arithmetic.

Every integer or boolean produced here is exact for the true real value, not
for a floating approximation.  Callers pass a *builder*: a function taking an
interval context and returning an interval enclosure of the quantity of
interest.  If the enclosure is too wide to decide the question, the working
precision is doubled and the expression rebuilt, up to a hard cap.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from mpmath.ctx_iv import MPIntervalContext

MAX_BITS = 1 << 22
DEFAULT_BITS = 128

Builder = Callable[[MPIntervalContext], object]


class PrecisionExhausted(ArithmeticError):
    """A certified decision failed even at the precision cap."""


def iv_context(bits: int) -> MPIntervalContext:
    ctx = MPIntervalContext()
    ctx.prec = bits
    return ctx


def _mpf_to_fraction(raw) -> Fraction:
    sign, man, exp, _bc = raw
    if man == 0:
        if exp == 0:
            return Fraction(0)
        raise PrecisionExhausted("non-finite interval endpoint")
    f = Fraction(int(man)) * Fraction(2) ** exp
    return -f if sign else f


def iv_endpoints(x) -> tuple[Fraction, Fraction]:
    """Exact dyadic endpoints of an interval; lo <= true value <= hi."""
    lo, hi = x._mpi_
    return _mpf_to_fraction(lo), _mpf_to_fraction(hi)


def _refine(build: Builder, pick, bits: int | None, max_bits: int, settle=None):
    """pick(lo, hi) at doubling precisions until it decides.

    Past max_bits, return settle(lo, hi) of the last enclosure, or raise
    PrecisionExhausted when no settle is given.
    """
    bits = bits or DEFAULT_BITS
    while bits <= max_bits:
        lo, hi = iv_endpoints(build(iv_context(bits)))
        res = pick(lo, hi)
        if res is not None:
            return res
        bits *= 2
    if settle is not None:
        return settle(lo, hi)
    raise PrecisionExhausted(f"undecided at {max_bits} bits")


def nearest_int(build: Builder, bits: int | None = None) -> int:
    """Half-up nearest integer of the exact value: floor(x + 1/2)."""
    half = Fraction(1, 2)

    def pick(lo, hi):
        a, b = math.floor(lo + half), math.floor(hi + half)
        return a if a == b else None

    return _refine(build, pick, bits, MAX_BITS)


def ceil_int(build: Builder, bits: int | None = None) -> int:
    def pick(lo, hi):
        a, b = math.ceil(lo), math.ceil(hi)
        return a if a == b else None

    return _refine(build, pick, bits, MAX_BITS)


def _same_floor(lo, hi):
    a = math.floor(lo)
    return a if a == math.floor(hi) else None


def floor_of_upper(build: Builder, bits: int | None = None) -> int:
    """floor(hi) after up to four precisions (bits .. 8 bits).

    Sound whenever an over-estimate is the safe direction; the extra
    precisions only sharpen the answer.
    """
    bits = bits or DEFAULT_BITS
    return _refine(build, _same_floor, bits, 8 * bits, lambda lo, hi: math.floor(hi))


def floor_of_lower(build: Builder, bits: int | None = None) -> int:
    """floor(lo); the safe direction when an under-estimate is sound."""
    bits = bits or DEFAULT_BITS
    return _refine(build, _same_floor, bits, 8 * bits, lambda lo, hi: math.floor(lo))


def interval_fractions(build: Builder, bits: int | None = None) -> tuple[Fraction, Fraction]:
    return iv_endpoints(build(iv_context(bits or DEFAULT_BITS)))
