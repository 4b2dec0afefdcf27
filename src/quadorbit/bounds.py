"""Size bounds on possible square values in the numerator sequence.

For c >= 4 the normalized terms a_n / c^(2^(n-1)-1) increase to c*F(c) with
F(c) = (1 - sqrt(1 - 4/c))/2, and a square a_n forces a coprime splitting
c = u*v whose near-unit ratio contradicts the growth once n passes a small
threshold.  Everything real-valued is evaluated with interval arithmetic and
one-sided rounding: a check only passes when it passes with the worst-case
rounding, and integer outputs are exact floors of the real values.
"""
from __future__ import annotations

from fractions import Fraction

from . import rounding
from .factors import quartic_form_parameter
from .orbit import is_perfect_square
from .primes import factorize


def _log_silver(ctx):
    """L = log(3 + 2 sqrt 2), twice the log of the silver ratio 1 + sqrt 2."""
    return ctx.log(3 + 2 * ctx.sqrt(ctx.mpf(2)))


# L = log(3 + 2 sqrt 2) depends on neither N nor the pass, so each side keeps
# one enclosure of it: the producer's, and the checker's, which only the
# checking paths read, so a checked trace shares no arithmetic with its maker.
_PROVER_L = rounding.Constant(_log_silver)
_CHECKER_L = rounding.Constant(_log_silver)


def _sqrt_c(ctx, c: int):
    return ctx.sqrt(ctx.mpf(c))


def _F(ctx, c: int):
    # (1 - sqrt(1 - 4/c)) / 2
    return (1 - ctx.sqrt(1 - ctx.mpf(4) / c)) / 2


def _eps_limit(ctx, c: int):
    rF = ctx.sqrt(_F(ctx, c))
    return _sqrt_c(ctx, c) * ctx.log((1 + rF) / (1 - rF))


def _default_bits(c: int) -> int:
    return max(128, c.bit_length() // 2 + 96)


def stable_iterate_bound(c: int, bits: int | None = None) -> int:
    """Iterate index m such that irreducibility of f^m forces all f^n.

    m = 1 + floor(log2(1 + (log 4 + eps(c)/sqrt(c)) / log(1 + 1/sqrt(c)))),
    with the exact floor of the real value.
    """
    if c < 4:
        raise ValueError("the bound needs c >= 4")
    bits = bits or _default_bits(c)

    def build(ctx):
        rc = _sqrt_c(ctx, c)
        arg = 1 + (ctx.log(4) + _eps_limit(ctx, c) / rc) / ctx.log(1 + 1 / rc)
        return ctx.log(arg) / ctx.log(2)

    return 1 + rounding.Enclosure(build, bits).floor()


def _split_threshold_holds(ratio: Fraction, c: int, bits: int) -> bool:
    # ratio > 1.15 / c^(1/30), certified
    def build(ctx):
        return ctx.mpf(23) / 20 / ctx.exp(ctx.log(ctx.mpf(abs(c))) / 30)

    hi = rounding.interval_fractions(build, bits)[1]
    return ratio > hi


def valuation_split_inequality(c: int, bits: int = 128) -> bool:
    """Odd-valuation vs even-valuation prime products against 1.15/|c|^(1/30).

    Also requires c not of the quartic form 4m^2(m^2-1); holds for every
    squarefree c.
    """
    if c < 4:
        raise ValueError("needs c >= 4")
    if quartic_form_parameter(c) is not None:
        return False
    fac = factorize(c)
    num = den = 1
    for p, e in fac.items():
        if e % 2 == 1:
            num *= p ** e
        else:
            den *= p ** e
    return _split_threshold_holds(Fraction(num, den), c, bits)


def square_split_inequality(c: int, bits: int = 128) -> bool:
    """For square c = k^2, k >= 2: primes not 1 mod 4 vs primes 1 mod 4."""
    if c < 4 or not is_perfect_square(c):
        raise ValueError("needs a square c >= 4")
    fac = factorize(c)
    num = den = 1
    for p, e in fac.items():
        if p % 4 == 1:
            den *= p ** e
        else:
            num *= p ** e
    return _split_threshold_holds(Fraction(num, den), c, bits)


def initial_divisor_bound(n: int, L: rounding.Constant | None = None) -> int:
    """Starting lower bound on |v| in any split forced by a square a_n.

    floor(((sqrt2 - 1)^(1/N)/theta) * (N/log4 - 3)) + 1, the exact floor of
    the real value plus one (sound: |v| strictly exceeds the real value).
    sqrt2 - 1 = exp(-L/2) and theta = 2^(1/N), so the ratio is the one exp
    exp(-(L/2 + ln 2) / N) of the given L table (the producer's by
    default; the checker passes its own), and log 4 = 2 ln 2.  The value
    has about n integer bits, so the enclosure starts at n + 64 bits and the
    first one decides.
    """
    if n < 5:
        raise ValueError("needs n >= 5")
    N = (1 << (n - 1)) - 1
    L = _PROVER_L if L is None else L

    def build(ctx):
        return ctx.exp(-(L(ctx) / 2 + ctx.ln2) / N) * (ctx.mpf(N) / (2 * ctx.ln2) - 3)

    return rounding.Enclosure(build, max(192, n + 64)).floor() + 1
