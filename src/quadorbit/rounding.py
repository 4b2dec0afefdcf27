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
builders that use that real at many precisions.

Both contexts evaluate exp through _exp_bounds, a Taylor series in fixed
point whose truncation errors are counted, so its enclosure is certified
without trusting mpmath's exp.  mpf_exp is not accurate to an ulp at high
precision: rounded up, it falls short of exp(x) by 1.6 ulps at 8000 bits
for some x near 2^-22, and by 172 ulps at 17104 bits for the argument of
delta^2 at p = 37 in the 10^1000 run.  An interval exp([a, b]) costs one
series when the width w >= b - a is below 2^-(prec // 2), as it is for
every argument the lattice and bounds build (a few ulps wide): with hi(a)
the series' upper bound, exp(b) <= exp(a) exp(w) <= hi(a)(1 + w + w^2) for
0 <= w <= 1, which lies within about two ulps of exp(b), since
hi(a) w^2 < 2 ulps.  A wider argument takes a second series, at b.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Callable

from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import (fzero, from_man_exp, mpci_exp, mpf_add, mpf_exp, mpf_mul, mpf_pos,
                          mpf_sub, round_ceiling, round_floor)

MAX_BITS = 1 << 22
# Doublings a rounding may take once only the side of an integer is left to
# decide.  verify_no_squares_up_to plus its checker at X = 10^100, ~8*10^300
# and 10^1000, and classify plus recheck over |c| <= 3000, need none, with
# exp from _exp_bounds as with mpmath's; outside the tests of Enclosure
# itself, the test suite's most is one (an escalation pass run at 16 working
# bits).  A value on an integer would otherwise refine to MAX_BITS: 10 s for
# sqrt(7)^2, and about an hour for a builder that calls exp (2 s at 2^17
# bits, 4x per doubling).
MAX_DOUBLINGS = 8
DEFAULT_BITS = 128
# Precision of the argument width w >= b - a and of w + w^2 in an interval exp,
# both rounded up: only their size matters, never their low bits.
_WIDTH_BITS = 32

Builder = Callable[[MPIntervalContext], object]


class PrecisionExhausted(ArithmeticError):
    """A certified decision failed even at the precision cap."""


def _exp_bounds(x, prec: int):
    """Certified mpf bounds lo <= exp(x) <= hi, each within about an ulp of it.

    x / 2^k, with k making it below 2^-reduce_to, is cut to W fractional bits
    (X), and exp of it summed as its even and odd Taylor series, one product
    by X^2 per pair of terms; k squarings undo the reduction.  In units of
    2^-W: X^2 is off by at most 2, cutting X^2 to the bits a small term
    needs costs at most 2 more, each product and division floors by under
    1, and a term's own error shrinks at least 4-fold through the next
    product, so every term is within 8 of its true value; once a term rounds
    to 0, the rest of its series sums to under 16.  So S = s0 + s1 X, from
    j - 2 terms, is off by less than E = 8 j + 32.  Squaring S +- E gives
    S^2 +- (2 E S + E^2), plus one for the floor.  The guard bits of W keep
    E far below an ulp of the result.
    """
    sign, man, exp, bc = x
    if not man:                          # 0, +-inf, nan: mpf_exp is exact
        v = mpf_exp(x, prec)
        return v, v
    if sign:
        man = -man
    mag = exp + bc                       # |x| < 2^mag
    reduce_to = max(4, isqrt(prec) // 2)
    k = max(0, mag + reduce_to)
    W = prec + k + 2 * prec.bit_length() + 8
    if sign and mag > 0:                 # exp(x) >= 2^(-1.5 * 2^mag)
        W += 3 << (mag - 1)
    sh = exp + W - k
    X = man << sh if sh >= 0 else man >> -sh
    X2 = X * X >> W
    one = 1 << W
    s0 = s1 = a = one                    # sums of x^2i / (2i)! and x^2i / (2i + 1)!
    j = 2
    while a:
        s = W + 1 - a.bit_length()
        a = (a * (X2 >> s) >> (W - s)) // j
        s0 += a
        a //= j + 1
        s1 += a
        j += 2
    S, E = s0 + (s1 * X >> W), 8 * j + 32
    for _ in range(k):
        S, E = S * S >> W, ((2 * E * S + E * E) >> W) + 2
    return (from_man_exp(S - E, -W, prec, round_floor),
            from_man_exp(S + E, -W, prec, round_ceiling))


def _mpi_exp_outward(s, prec: int):
    # one series at a bounds exp(b) from above as well, while w^2 < 2^(1 - prec)
    a, b = s
    lo, hi = _exp_bounds(a, prec)
    w = mpf_sub(b, a, _WIDTH_BITS, round_ceiling)
    if w == fzero or w[1] and w[2] + w[3] <= -(prec // 2):
        w_w2 = mpf_add(w, mpf_mul(w, w, _WIDTH_BITS, round_ceiling), _WIDTH_BITS, round_ceiling)
        hi = mpf_add(hi, mpf_mul(hi, w_w2, prec, round_ceiling), prec, round_ceiling)
    else:
        hi = _exp_bounds(b, prec)[1]
    return lo, hi


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
        """Round x^power * scale, first from the one product lo^power * scale.

        hi^power - lo^power = (hi - lo) * (a sum of power terms, each at most
        hi^(power-1)), so with 0 <= lo <= hi (or power 1), the scaled value at
        hi lies within U = power (hi - lo) |scale| 2^((power-1) bits(hi)) of
        that product.  When both ends of that range round alike, so do both
        endpoints; otherwise the endpoint at hi is rounded exactly.  Either
        way the result, and whether this precision decides, is what the two
        endpoint roundings give.
        """
        adjacent = 0
        while True:
            lo, hi = self._lo, self._hi
            if power == 1 or lo > 0:
                shift = power * self._shift
                low = lo ** power * scale
                width = power * (hi - lo) * abs(scale) << ((power - 1) * hi.bit_length())
                a = round_shifted(low - width, shift)
                if a == round_shifted(low + width, shift):
                    return a
                a = round_shifted(low, shift)
                b = round_shifted(hi ** power * scale, shift)
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
