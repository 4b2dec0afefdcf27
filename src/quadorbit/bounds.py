"""Size bounds on possible square values in the numerator sequence.

For c >= 4 the normalized terms a_n / c^(2^(n-1)-1) increase to c*F(c) with
F(c) = (1 - sqrt(1 - 4/c))/2, and a square a_n forces a coprime splitting
c = u*v whose near-unit ratio contradicts the growth once n passes a small
threshold.  The integer bounds are exact floors of the real values, rounded
from certified integer enclosures (rounding).
"""
from __future__ import annotations

from . import rounding


class Tables:
    """One side's tables of ln 2 and L = log(3 + 2 sqrt 2): the producer's,
    and the checker's, which only the checking paths read, so a checked
    trace shares no arithmetic with its maker."""

    def __init__(self):
        self.ln2 = rounding.Constant(rounding.ln2)
        self.L = rounding.Constant(rounding.silver_log)


_PROVER = Tables()
_CHECKER = Tables()


def stable_iterate_bound(c: int, bits: int = 64) -> int:
    """Iterate index m such that irreducibility of f^m forces all f^n.

    m = 1 + floor(log2(1 + (log 4 + eps(c)/sqrt(c)) / log(1 + 1/sqrt(c)))),
    with the exact floor of the real value.  eps(c) / sqrt(c) = 2 atanh(rF),
    rF^2 = F = (1 - sqrt(1 - 4/c)) / 2 = 2 / (c + sqrt(c^2 - 4c)), and
    log(1 + 1/sqrt(c)) = 2 atanh(1 / (2 sqrt(c) + 1)), about 1 / sqrt(c): the
    terms are enclosed bits(c) + 24 bits past the bits of the argument x, and
    floor(log2 x) = bits(floor x) - 1 for x >= 1.
    """
    if c < 4:
        raise ValueError("the bound needs c >= 4")

    def build(prec):
        w = prec + c.bit_length() + 24
        one = 1 << w
        r_lo, r_hi = rounding.sqrt(c << w, c << w, w)
        q_lo, q_hi = rounding.sqrt(c * (c - 4) << w, c * (c - 4) << w, w)
        f_lo = (one << (w + 1)) // ((c << w) + q_hi)
        f_hi = rounding.ceil_div(one << (w + 1), (c << w) + q_lo)
        a_lo, a_hi = rounding.atanh(*rounding.sqrt(f_lo, f_hi, w), w)
        y_lo, y_hi = rounding.atanh((one << w) // (2 * r_hi + one),
                                    rounding.ceil_div(one << w, 2 * r_lo + one), w)
        t_lo, t_hi = _PROVER.ln2(w)
        return ((1 << prec) + ((t_lo + a_lo) << prec) // y_hi,
                (1 << prec) + rounding.ceil_div((t_hi + a_hi) << prec, y_lo))

    return rounding.Enclosure(build, bits).floor().bit_length()


def initial_divisor_bound(n: int, side: Tables | None = None) -> int:
    """Starting lower bound on |v| in any split forced by a square a_n.

    floor(((sqrt2 - 1)^(1/N)/theta) * (N/log4 - 3)) + 1, the exact floor of
    the real value plus one (sound: |v| strictly exceeds the real value).
    sqrt2 - 1 = exp(-L/2) and theta = 2^(1/N), so the ratio is the one exp
    exp(-(L/2 + ln 2) / N) of the given side's tables (the producer's by
    default; the checker passes its own), and log 4 = 2 ln 2.  The value
    has about n integer bits, so both factors are taken n + 8 bits past the
    enclosure's 64 bits of absolute precision, and the first one decides.
    """
    if n < 5:
        raise ValueError("needs n >= 5")
    N = (1 << (n - 1)) - 1
    side = _PROVER if side is None else side

    def build(prec):
        w = prec + n + 8
        (l_lo, l_hi), (t_lo, t_hi) = side.L(w), side.ln2(w)
        e_lo, e_hi = rounding.exp(-(l_hi + 2 * t_hi) // (2 * N),
                                  -((l_lo + 2 * t_lo) // (2 * N)), w, w)
        f_lo = (N << 2 * w) // (2 * t_hi) - (3 << w)
        f_hi = rounding.ceil_div(N << 2 * w, 2 * t_lo) - (3 << w)
        return e_lo * f_lo >> (2 * w - prec), -(-e_hi * f_hi >> (2 * w - prec))

    return rounding.Enclosure(build, 64).floor() + 1
