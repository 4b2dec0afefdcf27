"""Certified rounding of real expressions via interval arithmetic.

Every integer or boolean produced here is exact for the true real value, not
for a floating approximation.  Callers pass a *builder*: a function taking an
interval context and returning an interval enclosure of the quantity of
interest.  Builders evaluate in the one shared context of iv_context, set to
the working precision; a builder returns its enclosure before any other
iv_context call.  Every integer rounding goes through an Enclosure, and is
exact or raises PrecisionExhausted: when the enclosure is too wide to decide
it, the precision is doubled and the expression rebuilt, and it raises rather
than settle on an endpoint past MAX_BITS, or after MAX_DOUBLINGS doublings
that each left it between two adjacent integers.  interval_fractions is the
one fixed-precision enclosure, for one-sided tests that may fail to decide.
A Constant keeps one enclosure of a fixed real, in a context of its own, for
builders that use that real at many precisions.  Both contexts widen each
exp result by one ulp outward, since mpmath's can miss the true value.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable

from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import (from_man_exp, mpci_exp, mpf_add, mpf_pos, mpi_exp,
                          round_ceiling, round_floor)

MAX_BITS = 1 << 22
# Doublings a rounding may take once only the side of an integer is left to
# decide.  verify_no_squares_up_to plus its checker at X = 10^100, ~8*10^300
# and 10^1000, and classify plus recheck over |c| <= 3000, need none;
# outside the tests of Enclosure itself, the test suite's most is one (an
# escalation pass run at 16 working bits).  A value on an integer would
# otherwise refine to MAX_BITS: 10 s for sqrt(7)^2, and about an hour for a
# builder that calls exp (2.5 s at 2^17 bits, 4x per doubling).
MAX_DOUBLINGS = 8
DEFAULT_BITS = 128

Builder = Callable[[MPIntervalContext], object]


class PrecisionExhausted(ArithmeticError):
    """A certified decision failed even at the precision cap."""


def _mpi_exp_outward(s, prec: int):
    # mpf_exp rounds a (prec + 14)-bit approximation in the asked direction, so an endpoint
    # can miss the true value by far less than an ulp, 2^(exp + bc - prec): move it one out
    lo, hi = mpi_exp(s, prec)
    return (mpf_add(lo, from_man_exp(-1, lo[2] + lo[3] - prec), prec, round_floor),
            mpf_add(hi, from_man_exp(1, hi[2] + hi[3] - prec), prec, round_ceiling))


class _OutwardContext(MPIntervalContext):
    """An interval context whose exp rounds outward."""

    def _init_builtins(self):
        super()._init_builtins()
        self.exp = self._wrap_mpi_function(_mpi_exp_outward, mpci_exp)


_context: MPIntervalContext | None = None


def iv_context(bits: int) -> MPIntervalContext:
    """The shared interval context, set to the given precision.

    It is created on first use; each call resets its precision, so a caller
    finishes with the context before the next call.
    """
    global _context
    if _context is None:
        _context = _OutwardContext()
    _context.prec = bits
    return _context


def _dyadic(raw) -> tuple[int, int]:
    """An mpf endpoint as (num, exp) with value num * 2^exp."""
    sign, man, exp, _bc = raw
    if man == 0:
        if exp == 0:
            return 0, 0
        raise PrecisionExhausted("non-finite interval endpoint")
    return (-int(man) if sign else int(man)), exp


def _mpf_to_fraction(raw) -> Fraction:
    num, exp = _dyadic(raw)
    return Fraction(num) * Fraction(2) ** exp


def iv_endpoints(x) -> tuple[Fraction, Fraction]:
    """Exact dyadic endpoints of an interval; lo <= true value <= hi."""
    lo, hi = x._mpi_
    return _mpf_to_fraction(lo), _mpf_to_fraction(hi)


def interval_fractions(build: Builder, bits: int | None = None) -> tuple[Fraction, Fraction]:
    return iv_endpoints(build(iv_context(bits or DEFAULT_BITS)))


def _floor_shifted(num: int, shift: int) -> int:
    """floor(num / 2^shift)."""
    return num >> shift


def _floor_half_up(num: int, shift: int) -> int:
    """floor(num / 2^shift + 1/2)."""
    return (2 * num + (1 << shift)) >> (shift + 1)


def _ceil_shifted(num: int, shift: int) -> int:
    """ceil(num / 2^shift)."""
    return -((-num) >> shift)


class Constant:
    """One certified enclosure of a fixed real, grown by doubling.

    Calling it with an interval context returns the enclosure rounded
    outward to that context's precision.  When the caller asks for more
    precision than is held, the builder is evaluated afresh, in the
    instance's own context, at max(asked, 2 * held) bits, so a run evaluates
    it once per doubling of the largest precision asked for.
    """

    def __init__(self, build: Builder):
        self._build = build
        self._ctx: MPIntervalContext | None = None
        self._bits = 0
        self._lo = self._hi = None

    def __call__(self, ctx: MPIntervalContext):
        prec = ctx.prec
        if prec > self._bits:
            if self._ctx is None:
                self._ctx = _OutwardContext()
            bits = max(prec, 2 * self._bits)
            self._ctx.prec = bits
            self._lo, self._hi = self._build(self._ctx)._mpi_
            self._bits = bits
        return ctx.make_mpf((mpf_pos(self._lo, prec, round_floor),
                             mpf_pos(self._hi, prec, round_ceiling)))


class Enclosure:
    """One certified enclosure lo <= x <= hi of a real x, shared by roundings
    of the scaled powers x^power * scale with exact integer scales.

    The dyadic endpoints are kept as integers over one power of two, so each
    rounding is a product and a shift; squaring the enclosure needs lo > 0.
    A rounding the enclosure cannot decide doubles its precision and rebuilds
    it, and later roundings reuse the sharper enclosure.  It raises
    PrecisionExhausted past MAX_BITS, or after MAX_DOUBLINGS doublings that
    each left the value's two rounded endpoints one apart, as they stay for
    a value on an integer.  Every result is the exact rounding of the true
    value, whatever the precision that decided it.
    """

    def __init__(self, build: Builder, bits: int):
        self._build = build
        self._bits = bits
        self._enclose()

    def _enclose(self) -> None:
        if self._bits > MAX_BITS:
            raise PrecisionExhausted(f"undecided at {MAX_BITS} bits")
        lo, hi = self._build(iv_context(self._bits))._mpi_
        (a, ea), (b, eb) = _dyadic(lo), _dyadic(hi)
        e = min(ea, eb, 0)
        self._lo, self._hi, self._shift = a << (ea - e), b << (eb - e), -e

    def _decide(self, round_shifted, scale: int, power: int) -> int:
        adjacent = 0
        while True:
            lo, hi = self._lo, self._hi
            if power == 1 or lo > 0:
                a = round_shifted(lo ** power * scale, power * self._shift)
                b = round_shifted(hi ** power * scale, power * self._shift)
                if a == b:
                    return a
                if abs(b - a) == 1:
                    adjacent += 1
                    if adjacent > MAX_DOUBLINGS:
                        raise PrecisionExhausted(
                            f"undecided between {min(a, b)} and {max(a, b)} at {self._bits} bits")
            self._bits *= 2
            self._enclose()

    def floor(self, scale: int = 1, power: int = 1) -> int:
        """Floor of x^power * scale."""
        return self._decide(_floor_shifted, scale, power)

    def nearest(self, scale: int, power: int = 1) -> int:
        """Half-up nearest integer of x^power * scale: floor(. + 1/2)."""
        return self._decide(_floor_half_up, scale, power)

    def ceil(self, scale: int, power: int = 1) -> int:
        """Ceiling of x^power * scale."""
        return self._decide(_ceil_shifted, scale, power)
