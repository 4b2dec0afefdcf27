"""Certified rounding of real expressions in integer arithmetic.

Every integer or boolean produced here is exact for the true real value, not
for a floating approximation.  An enclosure of a real x at the absolute
precision prec is a pair of integers lo <= x 2^prec <= hi, and a *builder*
is a function of prec that returns one.  Builders use only integer
operations, each rounded outward: floor and ceiling division, math.isqrt
floored and ceiled (sqrt), and the counted series of exp, atanh and the
constants; they may work at a higher precision and cut the result to prec.
Every integer rounding goes through an Enclosure, and is exact or raises
PrecisionExhausted: when the enclosure is too wide to decide it, the
precision is doubled and the expression rebuilt, and it raises rather than
settle on an endpoint past MAX_BITS, or after MAX_DOUBLINGS doublings that
each left it between two adjacent integers.  A Constant keeps one enclosure
of a fixed real, grown by doubling, for builders that use it at many
precisions.

The constants are ln 2 = 2 atanh(1/3) = (2/3) S(9) and
L = log(3 + 2 sqrt 2) = 2 asinh(1) = 2 atanh(1/sqrt 2)
= sqrt 2 (S(8) + S(50) / 5), with S(q) = sum q^-k / (2k + 1).  At a working
precision w, _odd_series sums the K terms of S(q) with q^K > 2^w exactly, by
binary splitting (Brent and Zimmermann, Modern Computer Arithmetic, ch. 4),
and divides once: in units of 2^-w the quotient is off by under 1, the cut
of its operands by under 1 and the tail by under 1.  ln 2 takes 2/3 of
that, and L its product with sqrt 2, enclosed by isqrt; two and four guard
bits leave each within 3 units of 2^-prec.
"""
from __future__ import annotations

from math import isqrt
from typing import Callable

MAX_BITS = 1 << 22
# Doublings a rounding may take once only the side of an integer is left to
# decide.  The stab runs at X = 10^100, ~8*10^300 and 10^1000 and classify
# over |c| <= 3000, each with its checker, need none; a value on an integer
# would otherwise refine to MAX_BITS, for an hour in a builder that calls exp.
MAX_DOUBLINGS = 8
_WIDTH_BITS = 32     # bits of an interval exp's width: only its size matters

Builder = Callable[[int], tuple[int, int]]


class PrecisionExhausted(ArithmeticError):
    """A certified decision failed even at the precision cap."""


def ceil_div(a: int, b: int) -> int:
    """ceil(a / b) for b > 0."""
    return -(-a // b)


def _split(a: int, b: int, q: int) -> tuple[int, int, int]:
    """(Q, B, T) for sum_{a <= k < b} q^(a-k) / (2k + 1) = T / (B Q), with
    Q = q^(b - a) (one factor fewer from a = 0) and B = prod (2k + 1)."""
    if b - a == 1:
        return (q if a else 1), 2 * a + 1, 1
    m = (a + b) // 2
    q1, b1, t1 = _split(a, m, q)
    q2, b2, t2 = _split(m, b, q)
    return q1 * q2, b1 * b2, t1 * b2 * q2 + b1 * t2


def _odd_series(q: int, w: int) -> tuple[int, int]:
    """Enclosure at w of S(q) = sum_{k >= 0} q^-k / (2k + 1), q >= 2: with
    T / D the sum of K terms, q^K > 2^w, and t and d its numerator and
    denominator cut to w + 9 bits of d, t / (d + 1) <= T / D < (t + 1) / d."""
    qk, b, t = _split(0, w // (q.bit_length() - 1) + 1, q)
    d = b * qk
    sh = max(0, d.bit_length() - w - 9)
    t, d = t >> sh, d >> sh
    return (t << w) // (d + 1), ((t + 1) << w) // d + 2


def ln2(prec: int) -> tuple[int, int]:
    """Enclosure of ln 2 = 2 atanh(1/3) = (2/3) sum 9^-k / (2k + 1) at prec."""
    lo, hi = _odd_series(9, prec + 2)
    return 2 * lo // 12, ceil_div(2 * hi, 12)


def silver_log(prec: int) -> tuple[int, int]:
    """Enclosure of L = 2 atanh(1/sqrt 2) at prec.  atanh(1/sqrt 2) =
    2 atanh(1/(2 sqrt 2)) + atanh(1/(5 sqrt 2)), by atanh x + atanh y =
    atanh((x + y) / (1 + xy)) twice, and atanh(1/(m sqrt 2)) = S(2m^2) /
    (m sqrt 2); r < sqrt 2 2^w < r + 1, since sqrt 2 is irrational."""
    w = prec + 4
    (a, b), (c, d) = _odd_series(8, w), _odd_series(50, w)
    r = isqrt(2 << 2 * w)
    lo, hi = (a + c // 5) * r, (b + ceil_div(d, 5)) * (r + 1)
    return lo >> (2 * w - prec), -(-hi >> (2 * w - prec))


def _exp_bounds(x: int, w: int, prec: int) -> tuple[int, int]:
    """Enclosure of exp(x / 2^w) at prec, within about an ulp of it.

    x / 2^(w + k), with k making it below 2^-reduce_to, is cut to W
    fractional bits (X), and exp of it summed as its even and odd Taylor
    series, one product by X^2 per pair of terms; k squarings undo the
    reduction.  In units of 2^-W: X^2 is off by at most 2, cutting X^2 to
    the bits a small term needs costs at most 2 more, each product and
    division floors by under 1, and a term's own error shrinks at least
    4-fold through the next product, so every term is within 8 of its true
    value; once a term rounds to 0, the rest of its series sums to under 16.
    So S = s0 + s1 X, from j - 2 terms, is off by less than E = 8 j + 32.
    Squaring S +- E gives S^2 +- (2 E S + E^2), plus one for the floor.  The
    guard bits of W keep E, grown 2^k-fold by the squarings and scaled by
    exp(x) < 2^(1.5 * 2^mag), far below an ulp of the result.
    """
    if not x:
        return 1 << prec, 1 << prec
    mag = x.bit_length() - w              # |x| / 2^w < 2^mag
    reduce_to = max(4, isqrt(prec) // 2)
    k = max(0, mag + reduce_to)
    W = prec + k + 2 * prec.bit_length() + 8
    if x > 0 and mag > 0:
        W += 3 << (mag - 1)
    sh = W - k - w
    X = x << sh if sh >= 0 else x >> -sh
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
    return (S - E) >> (W - prec), -(-(S + E) >> (W - prec))


def exp(lo: int, hi: int, w: int, prec: int) -> tuple[int, int]:
    """Enclosure at prec of exp over [lo, hi] / 2^w.  One series, at lo,
    when the width is below 2^-(prec // 2), as for every argument the lattice
    and bounds build: with v the width rounded up to _WIDTH_BITS bits and b
    the series' upper bound, exp(hi) <= b (1 + v + v^2) for 0 <= v <= 1,
    within about two ulps, since b v^2 < 2 ulps.  Else a second, at hi."""
    a, b = _exp_bounds(lo, w, prec)
    d = hi - lo
    if d.bit_length() > w - prec // 2:
        return a, _exp_bounds(hi, w, prec)[1]
    s = max(0, d.bit_length() - _WIDTH_BITS)
    v, shift = -(-d >> s), w - s          # v / 2^shift >= d / 2^w
    u = -(-b * v >> shift)
    return a, b + u - (-u * v >> shift)


def sqrt(lo: int, hi: int, w: int) -> tuple[int, int]:
    """Enclosure at w of sqrt over [lo, hi] / 2^w, 0 <= lo <= hi."""
    top = hi << w
    b = isqrt(top)
    return isqrt(lo << w), b + (b * b < top)


def atanh(lo: int, hi: int, w: int) -> tuple[int, int]:
    """Enclosure at w of atanh over [lo, hi] / 2^w, 0 <= lo <= hi < 2^w,
    (lo / 2^w)^2 <= 1/2: the series sum z^(2k+1) / (2k + 1) at z = lo / 2^w.

    In units of 2^-w, each power floors t q / 2^w with q = floor(z^2 2^w),
    so a power off by e makes the next one off by under e z^2 + 2, under 4,
    and a term off by under 4/3 + 1 < 3; once a power is 0 the rest is under
    1, so K terms past the first are off by under 3 K + 1.  The slope
    1 / (1 - z^2) is largest at hi, which adds (hi - lo) / (1 - (hi/2^w)^2).
    """
    if 2 * lo * lo > 1 << 2 * w or hi >> w:
        raise ValueError("atanh needs z^2 <= 1/2 at the lower end and z < 1")
    q = lo * lo >> w
    s = t = lo
    j = 1
    while t:
        t = t * q >> w
        j += 2
        s += t // j
    up = s + 3 * (j // 2) + 1
    if hi > lo:
        up += ceil_div((hi - lo) << 2 * w, (1 << 2 * w) - hi * hi)
    return s, up


class Constant:
    """One certified enclosure of a fixed real, grown by doubling.

    Calling it with a precision returns the enclosure cut outward to it.
    When the caller asks for more precision than is held, the builder is
    evaluated afresh at max(asked, 2 * held) bits, so a run evaluates it
    once per doubling of the largest precision asked for.
    """

    def __init__(self, build: Builder):
        self._build = build
        self._bits = 0
        self._lo = self._hi = 0

    def __call__(self, prec: int) -> tuple[int, int]:
        if prec > self._bits:
            self._bits = max(prec, 2 * self._bits)
            self._lo, self._hi = self._build(self._bits)
        s = self._bits - prec
        return self._lo >> s, -(-self._hi >> s)


class Enclosure:
    """One certified enclosure lo <= x 2^bits <= hi of a real x, shared by
    roundings of the scaled powers x^power * scale with exact integer scales.

    Each rounding is a product and a shift; squaring the enclosure needs
    lo > 0.  A rounding the enclosure cannot decide doubles its precision
    and rebuilds it, and later roundings reuse the sharper enclosure.  It
    raises PrecisionExhausted past MAX_BITS, or after MAX_DOUBLINGS
    doublings that each left the value's two rounded endpoints one apart, as
    they stay for a value on an integer.  Every result is the exact rounding
    of the true value, whatever the precision that decided it.
    """

    def __init__(self, build: Builder, bits: int):
        self._build = build
        self._bits = bits
        self._enclose()

    def _enclose(self) -> None:
        if self._bits > MAX_BITS:
            raise PrecisionExhausted(f"undecided at {MAX_BITS} bits")
        self._lo, self._hi = self._build(self._bits)

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
                shift = power * self._bits
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
        return self._decide(lambda num, shift: num >> shift, scale, power)

    def nearest(self, scale: int, power: int = 1) -> int:
        """Half-up nearest integer of x^power * scale: floor(. + 1/2)."""
        return self._decide(lambda num, shift: (2 * num + (1 << shift)) >> (shift + 1),
                            scale, power)

    def ceil(self, scale: int, power: int = 1) -> int:
        """Ceiling of x^power * scale."""
        return self._decide(lambda num, shift: -(-num >> shift), scale, power)
