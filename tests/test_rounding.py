"""The integer enclosures of rounding against mpmath 256 bits sharper.

mpmath is a reference here only: ln 2, L, exp, sqrt and the logs built from
atanh must each enclose mpmath's value at prec + 256 bits, scaled by 2^prec,
and stay within a few units of it.
"""
from math import isqrt

from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from quadorbit import bounds, rounding
from reference import from_ctx

GUARD = 256
_PRECS = st.one_of(st.sampled_from((1, 2, 64, 6000)), st.integers(1, 6000))


def _scaled(build, prec):
    """mpmath's value of build() at prec + GUARD bits, times 2^prec."""
    with mp.workprec(prec + GUARD):
        return build() * mpf(2) ** prec


def _check(enclosure, ref, units):
    lo, hi = enclosure
    assert lo <= ref <= hi
    assert ref - lo <= units and hi - ref <= units


@settings(max_examples=80, deadline=None)
@given(_PRECS)
def test_constants_enclose_mpmath(prec):
    _check(rounding.ln2(prec), _scaled(lambda: mp.log(2), prec), 3)
    _check(rounding.silver_log(prec), _scaled(lambda: mp.log(3 + 2 * mp.sqrt(2)), prec), 3)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 4000), min_size=1, max_size=6))
def test_constant_table_cuts_outward_at_every_precision(precs):
    table = rounding.Constant(rounding.silver_log)
    for prec in precs:
        _check(table(prec), _scaled(lambda: mp.log(3 + 2 * mp.sqrt(2)), prec), 3)


@st.composite
def _exp_args(draw):
    """(x, width, w, prec): x / 2^w of magnitude up to 8, for w from
    prec - 40 to prec + 60, and a width of 0 to 16 units."""
    prec = draw(_PRECS)
    w = max(0, prec + draw(st.integers(-40, 60)))
    x = draw(st.integers(-(8 << w), 8 << w)) >> draw(st.integers(0, w + 40))
    return x, draw(st.one_of(st.just(0), st.integers(1, 16))), w, prec


@settings(max_examples=100, deadline=None)
@given(_exp_args())
def test_exp_encloses_mpmath(args):
    x, width, w, prec = args
    lo, hi = rounding.exp(x, x + width, w, prec)
    with mp.workprec(prec + GUARD):
        scale = mpf(2) ** prec
        at_x = mp.exp(mpf(x) / 2 ** w) * scale
        assert lo <= at_x and at_x - lo <= 2
        assert mp.exp(mpf(x + width) / 2 ** w) * scale <= hi


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4000), st.integers(0, 1 << 4000), st.integers(0, 1 << 100))
def test_sqrt_encloses_mpmath(w, lo, width):
    a, b = rounding.sqrt(lo, lo + width, w)
    with mp.workprec((lo + width).bit_length() + w + GUARD):
        low, high = mp.sqrt(mpf(lo) * 2 ** w), mp.sqrt(mpf(lo + width) * 2 ** w)
    assert a <= low < a + 1 and b - 1 < high <= b


@st.composite
def _atanh_args(draw):
    """(lo, hi, w): lo / 2^w from 0 to 1 / sqrt 2, hi 0 to 2^(w / 2) units
    above it, below 0.75."""
    w = draw(st.integers(4, 3000))
    lo = draw(st.integers(0, isqrt(1 << (2 * w - 1))))
    hi = min(lo + draw(st.integers(0, 1 << (w // 2))), 3 << (w - 2))
    return lo, max(lo, hi), w


@settings(max_examples=100, deadline=None)
@given(_atanh_args())
def test_log_from_atanh_encloses_mpmath(args):
    # log((1 + z) / (1 - z)) = 2 atanh(z), the logs of stable_iterate_bound,
    # within the series' error count plus the width over 1 - z^2
    lo, hi, w = args
    a, b = rounding.atanh(lo, hi, w)
    with mp.workprec(w + GUARD):
        def log_ratio(z):
            z = mpf(z) / 2 ** w
            return mp.log1p(2 * z / (1 - z)) * 2 ** w
        assert 2 * a <= log_ratio(lo) and log_ratio(hi) <= 2 * b
        assert log_ratio(lo) - 2 * a <= 6 * w + 2
        assert 2 * b - log_ratio(hi) <= 6 * w + 2 + 16 * (hi - lo) + 2


def _stable_iterate_reference(c):
    """stable_iterate_bound as mpmath's logs give it."""
    def build(ctx):
        rc = ctx.sqrt(ctx.mpf(c))
        rF = ctx.sqrt((1 - ctx.sqrt(1 - ctx.mpf(4) / c)) / 2)
        eps = rc * ctx.log((1 + rF) / (1 - rF))
        arg = 1 + (ctx.log(4) + eps / rc) / ctx.log(1 + 1 / rc)
        return ctx.log(arg) / ctx.log(2)
    return 1 + rounding.Enclosure(from_ctx(build, c.bit_length() + 64), 64).floor()


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.integers(4, 1000), st.integers(4, 1 << 400)))
def test_stable_iterate_bound_matches_mpmath_logs(c):
    assert bounds.stable_iterate_bound(c) == _stable_iterate_reference(c)
