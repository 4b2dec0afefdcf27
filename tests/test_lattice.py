import hashlib
import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import from_man_exp, mpf_exp, round_ceiling, round_floor

from quadorbit import bounds, lattice, primes, rounding, sieve
from quadorbit.primes import primes_to
from quadorbit.lattice import (DivisorBoundCertificate, EscalationTrace,
                               TraceError, c_exclusion_bound, check_divisor_certificate,
                               check_stab_certificate, check_trace, closest_points,
                               escalation_pass, lagrange_reduce, prove_divisor_bound,
                               required_divisor_bound, stab_entry_for_prime,
                               verify_no_squares_up_to)
from quadorbit.sieve import NumeratorTarget, verify_sieve_certificate
from reference import cut_reduce, from_ctx, lattice_attempt


# --- references: per-doubling roundings from a fresh mpmath builder each
# time, and the constants as written before they shared one L table --------

def _refined(build, pick, bits=128):
    while True:
        lo, hi = from_ctx(build, guard=64)(bits)
        res = pick(Fraction(lo, 1 << bits), Fraction(hi, 1 << bits))
        if res is not None:
            return res
        bits *= 2


def _nearest_int(build, bits=128):
    """Half-up nearest integer of the exact value: floor(x + 1/2)."""
    half = Fraction(1, 2)

    def pick(lo, hi):
        a, b = math.floor(lo + half), math.floor(hi + half)
        return a if a == b else None

    return _refined(build, pick, bits)


def _ceil_int(build, bits=128):
    def pick(lo, hi):
        a, b = math.ceil(lo), math.ceil(hi)
        return a if a == b else None

    return _refined(build, pick, bits)


def _floor_int(build, bits=128):
    def pick(lo, hi):
        a, b = math.floor(lo), math.floor(hi)
        return a if a == b else None

    return _refined(build, pick, bits)


def _theta_ref(ctx, N):
    return ctx.exp(ctx.log(ctx.mpf(2)) / N)


def _theta2_ref(ctx, N):
    return ctx.exp(ctx.log(ctx.mpf(2)) * 2 / N)


def _log_silver_ref(ctx):
    return ctx.log(3 + 2 * ctx.sqrt(ctx.mpf(2)))


def _delta2_ref(ctx, N):
    d = 4 * ctx.exp(_log_silver_ref(ctx) / N) / (_theta_ref(ctx, N) * N)
    return d * d


def test_fixed_point_root():
    # 2^(1/15) rounded to 64 fractional bits: theta^N brackets 2 within one ulp
    val = Fraction(_nearest_int(lambda ctx: _theta_ref(ctx, 15) * 2 ** 64), 2 ** 64)
    ulp = Fraction(1, 2 ** 64)
    assert (val - ulp) ** 15 < 2 < (val + ulp) ** 15
    # scaled roundings match the recorded basis/target integers
    assert _nearest_int(lambda ctx: _theta2_ref(ctx, 15) * 8 ** 8) == 18401670
    tgt = _nearest_int(lambda ctx: 2 * ctx.exp(ctx.log(ctx.mpf(2)) / 15) * 8 ** 8 / 15)
    assert tgt == 2342757


def test_shared_constant_formulas_enclose_the_old_ones():
    # the table hands out L rounded outward: it contains a sharper
    # enclosure made apart from it; delta^2 and theta^2 (3 - 2 sqrt 2)^(1/N)
    # from L overlap the direct formulas, at precisions the table grows through
    l_lo, l_hi = (Fraction(x, 1 << 4096) for x in from_ctx(_log_silver_ref)(4096))
    for N in (15, 63, 8191):
        for bits in (64, 1000, 64):
            lo, hi = (Fraction(x, 1 << bits) for x in lattice._PROVER.L(bits))
            assert lo <= l_lo and l_hi <= hi
            pairs = [(lattice._delta2(bits, N, lattice._PROVER),
                      from_ctx(lambda ctx: _delta2_ref(ctx, N), 64)(bits)),
                     (lattice._xi(bits, N, lattice._PROVER),
                      from_ctx(lambda ctx: _theta2_ref(ctx, N) * ctx.exp(
                          ctx.log(3 - 2 * ctx.sqrt(ctx.mpf(2))) / N), 64)(bits))]
            for (a, b), (c, d) in pairs:
                assert a <= d and c <= b


@st.composite
def _scaled_powers(draw):
    """(build, power): x = +-a^(1/4) / b as a builder, with a between two
    squares so that x and x^2 are irrational, and a power; squaring needs
    x > 0.  Built from square roots and divisions, which mpmath rounds
    correctly in each direction (its exp is not correctly rounded: at 125
    bits it encloses exp(205 / 2^100) in the point 1 + 205 / 2^100)."""
    power = draw(st.sampled_from((1, 2)))
    sign = 1 if power == 2 else draw(st.sampled_from((1, -1)))
    k = draw(st.integers(1, 1 << 200))
    a = k * k + draw(st.integers(1, 2 * k))
    b = draw(st.integers(1, 1 << 100))
    return (lambda ctx: sign * ctx.sqrt(ctx.sqrt(ctx.mpf(a))) / b), power


@settings(max_examples=200, deadline=None)
@given(_scaled_powers(), st.one_of(st.integers(1, 16), st.integers(1, 1 << 4000)),
       st.integers(8, 300))
def test_enclosure_floor_matches_reference(real, scale, bits):
    # exact floors of x^power * scale from one enclosure, whatever precision
    # it starts at; a later rounding reuses the refined enclosure
    build, power = real
    enc = rounding.Enclosure(from_ctx(build), bits)
    assert enc.floor(scale, power) == _floor_int(lambda ctx: build(ctx) ** power * scale)
    assert enc.floor() == _floor_int(build)


def test_enclosure_floor_raises_rather_than_settling(monkeypatch):
    # 1/3 * 3 is the integer 1: every enclosure of it straddles 1, so no
    # precision decides its floor, and the rounding raises at the cap
    monkeypatch.setattr(rounding, "MAX_BITS", 1024)
    enc = rounding.Enclosure(from_ctx(lambda ctx: ctx.mpf(1) / 3 * 3), 64)
    with pytest.raises(rounding.PrecisionExhausted):
        enc.floor()


class _Logged(rounding.Enclosure):
    """An Enclosure that logs the precision of every enclosure it builds."""

    def __init__(self, build, bits):
        self.log = []
        super().__init__(build, bits)

    def _enclose(self, bits):
        self.log.append(bits)
        super()._enclose(bits)


class _TwoEndpoints(_Logged):
    """The reference rounding: both endpoints raised to the power and scaled,
    at every precision."""

    def _decide(self, round_shifted, scale, power):
        adjacent = 0
        while True:
            lo, hi = self._lo, self._hi
            if power == 1 or lo > 0:
                a = round_shifted(lo ** power * scale, power * self._bits)
                b = round_shifted(hi ** power * scale, power * self._bits)
                if a == b:
                    return a
                if abs(b - a) == 1:
                    adjacent += 1
                    if adjacent > rounding.MAX_DOUBLINGS:
                        raise rounding.PrecisionExhausted("undecided")
            self._enclose(2 * self._bits)


def _roundings_and_log(cls, build, bits, roundings):
    """Each rounding's value (None where it raised) on one enclosure, and the
    precisions it was enclosed at."""
    enc = cls(from_ctx(build), bits)
    out = []
    for op, scale, power in roundings:
        try:
            out.append(getattr(enc, op)(scale, power))
        except rounding.PrecisionExhausted:
            out.append(None)
    return out, enc.log


@st.composite
def _widened_reals(draw):
    """(build, powers): x = +-a^(1/4) / b, irrational, plus an absolute
    interval of 0 to 2^20 units of 2^(mag - prec) either way, so that an
    enclosure may be a point, a few ulps wide, or many, and may straddle 0.
    Squaring needs x > 0, so a negative x takes power 1 only."""
    sign = draw(st.sampled_from((1, -1)))
    k = draw(st.integers(1, 1 << 100))
    a = k * k + draw(st.integers(1, 2 * k))
    b = draw(st.integers(1, 1 << 120))
    w = draw(st.one_of(st.just(0), st.integers(1, 16), st.integers(1, 1 << 20)))
    mag = draw(st.integers(-140, 60))

    def build(ctx):
        x = sign * ctx.sqrt(ctx.sqrt(ctx.mpf(a))) / b
        return x + ctx.mpf([-w, w]) * ctx.mpf(2) ** (mag - ctx.prec) if w else x
    return build, ((1,) if sign < 0 else (1, 2))


@settings(max_examples=200, deadline=None)
@given(st.data(), _widened_reals(), st.integers(8, 300))
def test_one_product_decides_as_the_two_endpoints(data, real, bits):
    # floor, nearest and ceil from one product and a width bound give the
    # two-endpoint values, and refine through the same precisions
    build, powers = real
    scales = st.one_of(st.integers(-16, 16), st.integers(-(1 << 4000), 1 << 4000))
    roundings = data.draw(st.lists(st.tuples(st.sampled_from(("floor", "nearest", "ceil")),
                                             scales, st.sampled_from(powers)),
                                   min_size=1, max_size=3))
    assert _roundings_and_log(_Logged, build, bits, roundings) == \
        _roundings_and_log(_TwoEndpoints, build, bits, roundings)


@pytest.mark.parametrize("build, power", [
    (lambda ctx: ctx.mpf(1) / 3 * 3, 1), (lambda ctx: ctx.sqrt(ctx.mpf(7)), 2)])
def test_one_product_still_gives_up_on_an_integer(build, power):
    # 1/3 * 3 and sqrt(7)^2 are integers: floor and ceiling stay undecided and
    # raise after MAX_DOUBLINGS doublings, where the two endpoints raise; the
    # nearest integer is decided at the start precision
    want = [64 << i for i in range(rounding.MAX_DOUBLINGS + 1)]
    for op, value, log in (("floor", None, want), ("ceil", None, want),
                           ("nearest", 7 if power == 2 else 1, [64])):
        got = _roundings_and_log(_Logged, build, 64, [(op, 1, power)])
        assert got == _roundings_and_log(_TwoEndpoints, build, 64, [(op, 1, power)])
        assert got == ([value], log)


@pytest.mark.parametrize("rounding_of", ["floor", "ceil"])
def test_enclosure_gives_up_on_an_integer_within_seconds(rounding_of):
    # sqrt(7)^2 is the integer 7 at the default MAX_BITS: no enclosure decides
    # its floor or ceiling, and the rounding stops after MAX_DOUBLINGS
    # doublings between 7 and its neighbour rather than refine for an hour
    enc = rounding.Enclosure(from_ctx(lambda ctx: ctx.sqrt(ctx.mpf(7)) ** 2), 128)
    start = time.perf_counter()
    with pytest.raises(rounding.PrecisionExhausted):
        getattr(enc, rounding_of)(1)
    assert time.perf_counter() - start < 5


_TEST = bounds.Tables()   # apart from either side's tables


@pytest.mark.parametrize("bits, arg, build", [
    pytest.param(200, lambda ctx: ctx.log(ctx.mpf(2)) / ((1 << 214) - 1),
                 lambda prec: lattice._theta(prec, (1 << 214) - 1, _TEST), id="theta-p215"),
    pytest.param(125, lambda ctx: ctx.mpf(205) / 2 ** 100,
                 lambda prec: rounding.exp(205, 205, 100, prec), id="205-over-2^100"),
])
def test_interval_exp_rounds_outward(bits, arg, build):
    # mpmath's interval exp returns a point below the true value here; the
    # integer exp, and an Enclosure's interval of it, round outward
    lo, hi = (Fraction(x, 1 << 800) for x in from_ctx(lambda ctx: ctx.exp(arg(ctx)))(800))
    for enclosure in (build(bits), rounding.Enclosure(build, 1).interval(bits)):
        a, b = (Fraction(x, 1 << bits) for x in enclosure)
        assert a <= lo and hi <= b


# --- the one-series interval exp against a reference 800 bits sharper -----

_PRECS = st.one_of(st.sampled_from((53, 8000)), st.integers(53, 8000))


def _ulp(prec):
    return Fraction(1, 1 << prec)


def _mpf_fraction(y):
    sign, man, exp, _ = y
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def _exp_reference(a, b, w, prec):
    """exp(a / 2^w) and exp(b / 2^w) from mpmath at prec + 800 bits, each
    moved 2^400 of its own ulps out: far more than mpmath's own error there
    (172 ulps at most, at 17104 bits, of the misses below), and still 2^-400
    of an ulp at prec.  exp(0) = 1 is exact, so an endpoint 0 gives 1,
    unmoved."""
    ref = prec + 800

    def endpoint(x, rnd, out):
        if x == 0:
            return Fraction(1)
        y = mpf_exp(from_man_exp(x, -w), ref, rnd)
        return _mpf_fraction(y) + out * Fraction(2) ** (y[2] + y[3] - ref + 400)

    return endpoint(a, round_floor, -1), endpoint(b, round_ceiling, 1)


def _count_series(monkeypatch):
    """Log the precision of every exp series."""
    calls = []
    series = rounding._exp_bounds

    def counted(x, w, prec):
        calls.append(prec)
        return series(x, w, prec)
    monkeypatch.setattr(rounding, "_exp_bounds", counted)
    return calls


def _outward_exp(a, b, w, prec):
    """The integer exp of [a, b] / 2^w, and its number of series."""
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_series(mp)
        out = rounding.exp(a, b, w, prec)
    return out, len(calls)


def _check_exp(a, b, w, prec, ulps):
    """exp([a, b] / 2^w) encloses the reference, each endpoint within the
    given number of ulps at prec of it; returns the number of series."""
    (lo, hi), calls = _outward_exp(a, b, w, prec)
    ref_lo, ref_hi = _exp_reference(a, b, w, prec)
    lo_f, hi_f = Fraction(lo, 1 << prec), Fraction(hi, 1 << prec)
    assert lo_f <= ref_lo and ref_hi <= hi_f
    assert ref_lo - lo_f <= ulps * _ulp(prec) and hi_f - ref_hi <= ulps * _ulp(prec)
    return calls


@st.composite
def _narrow_intervals(draw):
    """(a, b, w, prec): a / 2^w of either sign and magnitude 2^-1000 to 2^3
    with prec significant bits, and b = a plus 0 to 16 of a's units."""
    prec = draw(_PRECS)
    mag = draw(st.integers(-1000, 3))
    man = draw(st.integers(1 << (prec - 1), (1 << prec) - 1))
    a = man * draw(st.sampled_from((1, -1)))
    b = a + draw(st.integers(0, 16))
    return a, b, prec - mag, prec


@settings(max_examples=150, deadline=None)
@given(_narrow_intervals())
def test_narrow_interval_exp_takes_one_series_and_encloses(args):
    assert _check_exp(*args, ulps=4) == 1


def _check_lattice_exp(p, prec, which):
    """ln 2 / N or 2 (L - ln 2) / N, the arguments of theta and delta^2, as
    the lattice builds them: one series, and an enclosure."""
    N = (1 << (p - 1)) - 1
    (l_lo, l_hi), (t_lo, t_hi) = _TEST.L(prec), _TEST.ln2(prec)
    if which == "theta":
        a, b = t_lo // N, -(-t_hi // N)
    else:
        a, b = 2 * (l_lo - t_hi) // N, -(-2 * (l_hi - t_lo) // N)
    assert _check_exp(a, b, prec, prec, ulps=4) == 1


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([p for p in primes_to(1009) if p >= 5]), _PRECS,
       st.sampled_from(("theta", "delta2")))
def test_lattice_exp_arguments_take_one_series_and_enclose(p, prec, which):
    _check_lattice_exp(p, prec, which)


@settings(max_examples=100, deadline=None)
@given(_PRECS, st.integers(1, 1 << 20), st.sampled_from((1, -1)), st.integers(-3, 3),
       st.integers(-16, 4))
@example(prec=53, man=2, sign=-1, mag=3, width=-16)   # [-2^-16, 0]: exp(b) = 1 exactly
def test_wide_interval_exp_takes_two_series_and_encloses(prec, man, sign, mag, width):
    # from a width of 2^-(prec // 2) up, b takes its own series
    w = prec + 24
    a = sign * man << (w + mag - 20)
    b = a + (1 << (w + max(width, -(prec // 2))))
    assert _check_exp(a, b, w, prec, ulps=2) == 2


@pytest.mark.parametrize("prec, p, which", [
    (8000, 25, "delta2"), (13968, 29, "theta"), (17104, 37, "delta2")])
def test_interval_exp_encloses_where_mpmath_misses(prec, p, which):
    # mpmath's exp rounded up and moved one ulp out falls below exp of these
    # arguments, by about 0.6, 100 and 170 ulps; the last two arise at
    # X = 10^1000
    _check_lattice_exp(p, prec, which)


def test_lagrange_reduction_tracks_coefficients():
    b1, b2 = (336, 18401670), (0, -16777216)
    r1, r2, t1, t2, n1, dot = lagrange_reduce(b1, b2)
    for r, t in ((r1, t1), (r2, t2)):
        assert r == (t[0] * b1[0] + t[1] * b2[0], t[0] * b1[1] + t[1] * b2[1])
    assert n1 == r1[0] ** 2 + r1[1] ** 2 <= r2[0] ** 2 + r2[1] ** 2
    assert dot == r1[0] * r2[0] + r1[1] * r2[1]


# --- references: the greedy reduction and rational enumeration the integer
# versions replaced, kept as the specification they must match exactly ------

def _greedy_reduce(b1, b2, steps=None):
    """Lagrange-Gauss reduction recomputing every norm and inner product;
    appends one entry to the list steps, if given, per greedy step."""
    t1, t2 = (1, 0), (0, 1)

    def n2(v):
        return v[0] * v[0] + v[1] * v[1]

    if n2(b1) > n2(b2):
        b1, b2, t1, t2 = b2, b1, t2, t1
    while True:
        if steps is not None:
            steps.append(1)
        d = n2(b1)
        mu2 = b1[0] * b2[0] + b1[1] * b2[1]
        m = (2 * mu2 + d) // (2 * d)
        b2 = (b2[0] - m * b1[0], b2[1] - m * b1[1])
        t2 = (t2[0] - m * t1[0], t2[1] - m * t1[1])
        if n2(b2) >= n2(b1):
            return b1, b2, t1, t2
        b1, b2, t1, t2 = b2, b1, t2, t1


def _reduce_with_gram(b1, b2):
    """_greedy_reduce plus the Gram entries |r1|^2 and <r1, r2>, recomputed:
    lagrange_reduce's return shape."""
    r1, r2, t1, t2 = _greedy_reduce(b1, b2)
    return r1, r2, t1, t2, r1[0] ** 2 + r1[1] ** 2, r1[0] * r2[0] + r1[1] * r2[1]


def _fraction_closest(basis, target, k=4):
    """Two-dimensional Fincke-Pohst over Fraction coordinates."""
    (b1, b2), t = basis, target
    r1, r2, t1, t2 = _greedy_reduce(b1, b2)
    n1 = r1[0] * r1[0] + r1[1] * r1[1]
    mu = Fraction(r1[0] * r2[0] + r1[1] * r2[1], n1)
    n2s = Fraction(r2[0] * r2[0] + r2[1] * r2[1]) - mu * mu * n1
    rdet = r1[0] * r2[1] - r1[1] * r2[0]
    a1 = Fraction(t[0] * r2[1] - t[1] * r2[0], rdet)
    a2 = Fraction(r1[0] * t[1] - r1[1] * t[0], rdet)
    found = {}

    def kth_best():
        return sorted(found.values())[k - 1] if len(found) >= k else None

    half = Fraction(1, 2)
    j0 = math.floor(a2 + half)
    dj = 0
    while True:
        js = [j0 + dj, j0 - dj] if dj else [j0]
        mins = []
        for j in js:
            jgap2 = (Fraction(j) - a2) ** 2 * n2s
            mins.append(jgap2)
            R = kth_best()
            if R is not None and jgap2 > R:
                continue
            center = a1 - mu * (Fraction(j) - a2)
            i0 = math.floor(center + half)
            di = 0
            while True:
                progressed = False
                for i in ([i0 + di, i0 - di] if di else [i0]):
                    R = kth_best()
                    if R is not None and (Fraction(i) - center) ** 2 * n1 + jgap2 > R:
                        continue
                    px, py = i * r1[0] + j * r2[0], i * r1[1] + j * r2[1]
                    found[(i * t1[0] + j * t2[0], i * t1[1] + j * t2[1])] = \
                        (px - t[0]) ** 2 + (py - t[1]) ** 2
                    progressed = True
                if not progressed and di > 0:
                    break
                di += 1
        R = kth_best()
        if R is not None and mins and min(mins) > R and dj > 0:
            break
        dj += 1
    ranked = sorted(found.items(), key=lambda kv: (kv[1], kv[0]))
    return [((c0 * b1[0] + c1 * b2[0], c0 * b1[1] + c1 * b2[1]), (c0, c1), d2)
            for (c0, c1), d2 in ranked[:k]]


@st.composite
def _bases(draw):
    """Nonsingular 2D bases of 8 to 8000 bits: uniform entries of either
    sign, equal norms, and the escalation shape ((a, t), (0, -M))."""
    bits = draw(st.integers(8, 8000))
    big = st.integers(-(1 << bits), 1 << bits)
    shape = draw(st.sampled_from(("uniform", "equal-norms", "escalation")))
    if shape == "uniform":
        b1, b2 = (draw(big), draw(big)), (draw(big), draw(big))
    elif shape == "equal-norms":
        x, y = draw(big), draw(big)
        b1 = (x, y)
        b2 = draw(st.sampled_from(((y, -x), (-y, x), (y, x), (-x, y))))
    else:
        a = draw(st.integers(1, 1 << max(1, bits // 2)))
        b1, b2 = (a, draw(big)), (0, -draw(st.integers(1, 1 << bits)))
    if draw(st.booleans()):
        b1, b2 = b2, b1
    if b1[0] * b2[1] - b1[1] * b2[0] == 0 or b1 == (0, 0):
        b1, b2 = (1, 0), (0, 1)
    return b1, b2


@settings(max_examples=300, deadline=None)
@given(_bases())
def test_lagrange_reduce_matches_greedy_reference(basis):
    assert lagrange_reduce(*basis) == _reduce_with_gram(*basis)


def test_lagrange_reduce_matches_reference_on_swapped_and_tied_bases():
    for b1, b2 in [((5, 0), (0, 3)),            # |b1| > |b2|: swapped first
                   ((3, 4), (4, 3)), ((3, 4), (-4, 3)), ((5, 0), (3, 4)),
                   ((-7, 2), (2, 7)), ((1, 1), (1, -1)),
                   ((336, 18401670), (0, -16777216))]:
        assert lagrange_reduce(b1, b2) == _reduce_with_gram(b1, b2)
        assert lagrange_reduce(b2, b1) == _reduce_with_gram(b2, b1)


@st.composite
def _unimodular(draw):
    """Unimodular maps built from row moves: adding a multiple of one row to
    the other (small, or up to 2^200 for skewed starts far from reduced),
    swaps and negations."""
    t1, t2 = (1, 0), (0, 1)
    mult = st.one_of(st.integers(-3, 3), st.integers(-(1 << 200), 1 << 200))
    for move in draw(st.lists(st.sampled_from(("add", "swap", "negate")), max_size=6)):
        if move == "add":
            m = draw(mult)
            t2 = (t2[0] + m * t1[0], t2[1] + m * t1[1])
        elif move == "swap":
            t1, t2 = t2, t1
        else:
            t1 = (-t1[0], -t1[1])
    return t1, t2


@settings(max_examples=200, deadline=None)
@given(_bases(), _unimodular(),
       st.sampled_from(("near", "near", "origin", "lattice", "centre")),
       st.integers(-(1 << 8000), 1 << 8000), st.integers(-(1 << 8000), 1 << 8000),
       st.sampled_from((1, 2, 4, 5)))
def test_closest_points_matches_fraction_reference(basis, start, where, tx, ty, k):
    # From any unimodular start (the identity is a cold start) the output,
    # with coefficients over the given basis, is the reference's on that
    # basis: the premise of the warm start.  A target near the lattice's
    # scale makes the boxes non-trivial; the origin, a lattice point and the
    # centre b1 + b2 of a cell of the doubled lattice give tied distances.
    b1, b2 = basis
    if where == "centre":
        basis = ((2 * b1[0], 2 * b1[1]), (2 * b2[0], 2 * b2[1]))
    scale = max(abs(v) for v in basis[0] + basis[1])
    t = {"near": (tx % (4 * scale + 1) - 2 * scale, ty % (4 * scale + 1) - 2 * scale),
         "origin": (0, 0),
         "lattice": (b1[0] - b2[0], b1[1] - b2[1]),
         "centre": (b1[0] + b2[0], b1[1] + b2[1])}[where]
    pts, (t1, t2) = closest_points(basis, t, k, start)
    assert [(p.point, p.coeffs, p.dist2) for p in pts] == _fraction_closest(basis, t, k)
    # the returned map is unimodular, over the given basis, and reduces it
    assert abs(t1[0] * t2[1] - t1[1] * t2[0]) == 1
    r1, r2 = [(c[0] * basis[0][0] + c[1] * basis[1][0],
               c[0] * basis[0][1] + c[1] * basis[1][1]) for c in (t1, t2)]
    n1, n2 = r1[0] ** 2 + r1[1] ** 2, r2[0] ** 2 + r2[1] ** 2
    assert n1 <= n2 and 2 * abs(r1[0] * r2[0] + r1[1] * r2[1]) <= n1


def test_closest_points_rejects_a_start_that_is_not_unimodular():
    with pytest.raises(ValueError):
        closest_points(((1, 0), (0, 1)), (0, 0), 2, ((2, 0), (0, 1)))


def test_closest_points_matches_fraction_reference_on_small_lattices():
    # many points per row (k up to 12) reach the row-termination test
    rng = random.Random(5)
    for _ in range(3000):
        s = rng.choice((3, 10, 40, 300))
        b1 = (rng.randint(-s, s), rng.randint(-s, s))
        b2 = (rng.randint(-s, s), rng.randint(-s, s))
        if b1[0] * b2[1] - b1[1] * b2[0] == 0:
            continue
        t = (rng.randint(-10 * s, 10 * s), rng.randint(-10 * s, 10 * s))
        k = rng.choice((1, 2, 3, 4, 5, 8, 12))
        got = [(p.point, p.coeffs, p.dist2) for p in closest_points((b1, b2), t, k)[0]]
        assert got == _fraction_closest((b1, b2), t, k), (b1, b2, t, k)


def test_closest_points_identity_basis():
    pts, _ = closest_points(((1, 0), (0, 1)), (0, 0), 4)
    assert [p.dist2 for p in pts] == [0, 1, 1, 1]
    assert pts[0].coeffs == (0, 0)
    # deterministic tie-break by coefficient order
    assert [p.coeffs for p in pts[1:]] == [(-1, 0), (0, -1), (0, 1)]


def _brute_closest(basis, target, k, slack=60):
    (b1, b2), t = basis, target
    det = b1[0] * b2[1] - b1[1] * b2[0]
    a1 = Fraction(t[0] * b2[1] - t[1] * b2[0], det)
    a2 = Fraction(b1[0] * t[1] - b1[1] * t[0], det)
    pts = []
    for i in range(round(a1) - slack, round(a1) + slack + 1):
        for j in range(round(a2) - slack, round(a2) + slack + 1):
            px, py = i * b1[0] + j * b2[0], i * b1[1] + j * b2[1]
            pts.append(((px - t[0]) ** 2 + (py - t[1]) ** 2, (i, j)))
    pts.sort()
    return [d for d, _ in pts[:k]]


def test_closest_points_against_enumeration():
    rng = random.Random(20240817)
    done = 0
    while done < 200:
        b1 = (rng.randint(-40, 40), rng.randint(-40, 40))
        b2 = (rng.randint(-40, 40), rng.randint(-40, 40))
        if b1[0] * b2[1] - b1[1] * b2[0] == 0:
            continue
        t = (rng.randint(-400, 400), rng.randint(-400, 400))
        k = rng.choice((1, 2, 4, 5))
        got = [p.dist2 for p in closest_points((b1, b2), t, k)[0]]
        assert got == _brute_closest((b1, b2), t, k), (b1, b2, t, k)
        done += 1


def test_singular_basis_rejected():
    with pytest.raises(ValueError):
        closest_points(((2, 4), (1, 2)), (0, 0), 2)


# Frozen first-pass values for n = 5, B0 = 8, derived by this implementation
# and pinned after cross-checking the four closest points by exhaustive
# enumeration: the initial lattice attempt is too tight (h(8) >= 0), one
# doubling certifies the window, and the bound jumps 8 -> 166.
def test_escalation_first_pass_frozen():
    tr = escalation_pass(5, 8)
    first, last = lattice_attempt(5, 8, 0), lattice_attempt(5, 8, 1)
    assert first.basis == ((336, 18401670), (0, -16777216))
    assert first.target == (0, 2342757)
    assert first.points == ((177, 194), (208, 228), (146, 160), (239, 262))
    assert first.sigma == 4239130474
    assert not first.h_negative_at_b0
    assert last.scale_a == 672 and last.h_negative_at_b0
    assert last.sigma == 12323594474
    assert tr == EscalationTrace(5, 8, 1, last.points, 166)
    check_trace(tr)


def test_escalation_chain_reaches_target():
    cert = prove_divisor_bound(5, 10 ** 30)
    assert cert.initial_bound == 8
    assert cert.final_bound > 10 ** 30
    assert len(cert.traces) == 5
    check_divisor_certificate(cert)
    # growth: each pass lands beyond the square of its own incoming bound
    # scaled by the approximation quality (the last pass starts below the
    # bound proved before it, so the growth is per trace, not per link)
    for t in cert.traces:
        assert t.b0_out > t.b0_in ** 2 // 100


def test_trace_checker_rejects_tampering():
    # each stored field moved by one: the doublings, both bounds, and a
    # coefficient of the first point, the nearest, which sets sigma here (a
    # point that does not set sigma can move unseen until the checker tests
    # that the points are the nearest)
    tr = escalation_pass(5, 166)
    assert tr.doublings == 1
    check_trace(tr)
    (v, u), *rest = tr.points
    moved = [((v + 1, u),) + tuple(rest), ((v, u - 1),) + tuple(rest)]
    for bad in ([replace(tr, doublings=tr.doublings + k) for k in (-1, 1)]
                + [replace(tr, points=pts) for pts in moved]
                + [replace(tr, b0_in=tr.b0_in + k) for k in (-1, 1)]
                + [replace(tr, b0_out=tr.b0_out + k) for k in (-1, 1)]):
        with pytest.raises(TraceError):
            check_trace(bad)


def _count_enclosures(monkeypatch):
    built = []
    enclosure = rounding.Enclosure

    def counted(*args):
        built.append(args)
        return enclosure(*args)
    monkeypatch.setattr(rounding, "Enclosure", counted)
    return built


@pytest.mark.parametrize("doublings", [-1, lattice.MAX_DOUBLINGS + 1, 1 << 16, 1.0, None])
def test_out_of_range_doublings_are_rejected_before_any_enclosure(monkeypatch, doublings):
    tr = escalation_pass(5, 166)
    built = _count_enclosures(monkeypatch)
    check_trace(tr)
    assert len(built) == 2      # theta and delta^2
    built.clear()
    with pytest.raises(TraceError):
        check_trace(replace(tr, doublings=doublings))
    assert built == []


def _bits_for(b0):
    return 8 * b0.bit_length() + 64


@pytest.mark.parametrize("field, value", [
    ("n", 1), ("n", 4), ("n", 5.0), ("n", None), ("n", _bits_for(166) + 1),
    ("b0_in", 0), ("b0_in", -166), ("b0_in", 166.0), ("b0_out", 65534.0)])
def test_out_of_range_index_and_bounds_are_rejected_before_any_enclosure(
        monkeypatch, field, value):
    # n = 1 made N = 0 (PrecisionExhausted, a CLI exit 3 rather than a
    # rejected trace), n = 5.0 raised TypeError, and n sets the size of N
    tr = escalation_pass(5, 166)
    built = _count_enclosures(monkeypatch)
    with pytest.raises(TraceError):
        check_trace(replace(tr, **{field: value}))
    assert built == []


def test_points_that_are_not_four_distinct_pairs_are_rejected(monkeypatch):
    tr = escalation_pass(5, 166)
    p = tr.points
    built = _count_enclosures(monkeypatch)
    for bad in (p[:3], p + ((1, 1),), p[:3] + (p[0],), p[:3] + ((1, 2, 3),),
                p[:3] + ([1, 2],), p[:3] + ((1, 2.0),), list(p), ()):
        with pytest.raises(TraceError):
            check_trace(replace(tr, points=bad))
    assert built == []


def _chain(n, target):
    """The honest certificate and the bounds it proves, link by link."""
    cert = prove_divisor_bound(n, target)
    check_divisor_certificate(cert)
    return cert, [cert.initial_bound] + [t.b0_out for t in cert.traces]


def _rechained(cert, traces):
    return replace(cert, traces=tuple(traces), final_bound=traces[-1].b0_out,
                   c_exclusion=c_exclusion_bound(cert.n, traces[-1].b0_out))


def test_a_trace_that_starts_past_the_target_is_rejected_before_any_enclosure(monkeypatch):
    # a valid pass from the final bound, chained on to an honest
    # certificate: the chain rule holds, but no honest pass starts past the
    # target, and the size of such a start would set what its check costs
    cert, _ = _chain(5, 10 ** 30)
    tr = escalation_pass(5, cert.final_bound)
    check_trace(tr)
    longer = _rechained(cert, cert.traces + (tr,))
    calls = _count_calls(monkeypatch, "_delta2")
    with pytest.raises(TraceError, match="past the target"):
        check_divisor_certificate(longer)
    assert calls == []
    # honest certificates at 10^100 and at the stab_e300 benchmark's seed-1
    # bound still pass
    for x in (10 ** 100, 7900499 * 10 ** 294):
        check_stab_certificate(verify_no_squares_up_to(x))
    assert calls


def test_a_last_pass_that_starts_below_the_proved_bound_is_accepted():
    cert, proved = _chain(5, 10 ** 30)
    last = cert.traces[-1]
    assert last.b0_in == math.isqrt(10 ** 30) << lattice.SHORT_MARGIN < proved[-2]
    assert cert.final_bound == last.b0_out > 10 ** 30


def test_a_first_pass_that_starts_below_the_initial_bound_is_accepted():
    # at n = 11 the initial bound 734 is above isqrt(1000) << 4 = 496
    cert, _ = _chain(11, 1000)
    assert [t.b0_in for t in cert.traces] == [496] and cert.initial_bound == 734


def test_a_trace_that_starts_above_the_proved_bound_is_rejected():
    # a valid pass from one past the proved bound, the rest of the
    # certificate made consistent with it: only the chain is broken
    cert, proved = _chain(5, 10 ** 30)
    tr = escalation_pass(5, proved[-2] + 1)
    check_trace(tr)
    assert tr.b0_out > 10 ** 30
    with pytest.raises(TraceError, match="broken trace chain"):
        check_divisor_certificate(_rechained(cert, cert.traces[:-1] + (tr,)))


def test_a_trace_that_proves_no_larger_bound_is_rejected():
    # the first trace repeated: it starts at or below the proved bound and is
    # valid on its own, but ends at the bound already proved
    cert, _ = _chain(5, 10 ** 30)
    with pytest.raises(TraceError, match="broken trace chain"):
        check_divisor_certificate(_rechained(cert, cert.traces[:1] + cert.traces))
    # and one that ends below it
    low = escalation_pass(5, 8)
    with pytest.raises(TraceError, match="broken trace chain"):
        check_divisor_certificate(_rechained(cert, cert.traces[:2] + (low,) + cert.traces[2:]))


def _reference_pass(n, b0, bits=None):
    """escalation_pass as built before the shared enclosures: every constant
    rounded from its own builder, with its own log(3 + 2 sqrt 2), at every
    doubling, with the greedy reduction and the rational enumeration.
    Returns the trace of the first attempt with h(B0) < 0."""
    N = (1 << (n - 1)) - 1
    bits = bits or (8 * b0.bit_length() + 64)
    b0_4 = b0 ** 4
    b0_8 = b0_4 * b0_4
    t2 = _nearest_int(lambda ctx: _theta2_ref(ctx, N) * b0_8, bits)
    tgt = _nearest_int(lambda ctx: 2 * _theta_ref(ctx, N) * b0_8 / N, bits)
    d_const = _ceil_int(lambda ctx: _delta2_ref(ctx, N) * b0_8 * b0_8, bits)
    for doublings in range(lattice.MAX_DOUBLINGS + 1):
        mult = 1 << doublings
        scale_a = _nearest_int(lambda ctx: _delta2_ref(ctx, N) * mult * b0_4, bits)
        x6 = max(scale_a * scale_a, _ceil_int(
            lambda ctx: (_delta2_ref(ctx, N) * mult * b0_4) ** 2, bits))
        basis = ((scale_a, t2), (0, -b0_8))
        coeffs = tuple(c for _, c, _ in _fraction_closest(basis, (0, tgt), 4))
        sigma = lattice._adjusted_sigma(coeffs, scale_a, t2, b0_8, tgt)
        if lattice._h_cubic(x6, sigma, d_const, b0 * b0) < 0:
            out = lattice._largest_nonpositive(x6, sigma, d_const, b0) + 1
            return EscalationTrace(n, b0, doublings, coeffs, out)
    raise AssertionError("reference pass did not certify")


@pytest.mark.parametrize("n", [5, 7, 11, 13])
def test_escalation_chain_matches_per_doubling_reference(n):
    # every field of every trace, three passes deep
    b0 = bounds.initial_divisor_bound(n)
    for _ in range(3):
        tr = escalation_pass(n, b0)
        assert tr == _reference_pass(n, b0)
        check_trace(tr)
        b0 = tr.b0_out


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(lattice, name)

    def counted(prec, *args):
        calls.append(prec)
        return fn(prec, *args)
    monkeypatch.setattr(lattice, name, counted)
    return calls


def test_pass_where_d_needs_a_precision_doubling(monkeypatch):
    # at 16 working bits the delta^2 enclosure starts at 32 bits, too few for
    # d = ceil(delta^2 8^16) (about 50 bits): it must refine, and every later
    # doubling reuses the refined enclosure
    want = _reference_pass(5, 8, bits=16)
    calls = _count_calls(monkeypatch, "_delta2")
    tr = escalation_pass(5, 8, bits=16)
    assert calls[:2] == [32, 64]
    assert tr == want
    check_trace(tr)


def _count_cvp(monkeypatch):
    """Log the arguments of every closest_points call: one per attempt."""
    calls = []
    cvp = lattice.closest_points

    def counted(*args):
        calls.append(args)
        return cvp(*args)
    monkeypatch.setattr(lattice, "closest_points", counted)
    return calls


def test_delta2_evaluations_do_not_grow_with_attempts(monkeypatch):
    b0 = bounds.initial_divisor_bound(13)
    b0 = escalation_pass(13, b0).b0_out     # this pass takes 8 attempts
    calls = _count_calls(monkeypatch, "_delta2")
    tr = escalation_pass(13, b0)
    assert tr.doublings + 1 == 8       # doublings tested, with or without an enumeration
    # one enclosure at twice the working precision; a refinement would add a
    # call at twice that precision, never one per doubling
    assert calls == [2 * (8 * b0.bit_length() + 64)]


def _skipped_doublings(n, b0):
    """The doublings escalation_pass(n, b0) tested without enumerating, and
    whether each of its doublings' attempts makes h(b0) negative, from the
    reference that always enumerates."""
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_cvp(mp)
        tr = escalation_pass(n, b0)
    refs = [lattice_attempt(n, b0, k) for k in range(tr.doublings + 1)]
    ran = {call[0][0][0] for call in calls}           # the scales enumerated at
    assert ran <= {ref.scale_a for ref in refs}
    negative = [ref.h_negative_at_b0 for ref in refs]
    # the trace's doublings are the first whose attempt succeeds, and every
    # doubling skipped is one whose attempt fails
    assert negative.index(True) == tr.doublings
    skipped = [k for k, ref in enumerate(refs) if ref.scale_a not in ran]
    assert not any(negative[k] for k in skipped)
    return tr, skipped


@pytest.mark.parametrize("n", [5, 7, 11, 13])
def test_skipped_doublings_all_fail(n):
    # three passes deep; here the cold attempt's points refute every
    # doubling before the one that succeeds, so a pass enumerates twice at
    # most (10 doublings skipped in all at n = 13)
    b0 = bounds.initial_divisor_bound(n)
    for _ in range(3):
        tr, skipped = _skipped_doublings(n, b0)
        assert skipped == list(range(1, tr.doublings))
        b0 = tr.b0_out


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([5, 7, 11, 13, 17, 19]), st.integers(8, 1 << 48))
def test_skipped_doublings_all_fail_from_any_start(n, b0):
    _skipped_doublings(n, max(b0, bounds.initial_divisor_bound(n)))


def _bits(*vectors):
    return max(abs(x).bit_length() for v in vectors for x in v)


def _greedy_steps(b1, b2):
    steps = []
    _greedy_reduce(b1, b2, steps)
    return len(steps)


def _apply(rows, basis):
    return tuple((c[0] * basis[0][0] + c[1] * basis[1][0],
                  c[0] * basis[0][1] + c[1] * basis[1][1]) for c in rows)


def test_warm_started_attempts_reduce_from_the_last_reduced_basis(monkeypatch):
    b0 = bounds.initial_divisor_bound(13)
    b0 = escalation_pass(13, b0).b0_out     # this pass takes 8 attempts
    reductions = []
    reduce_ = lattice.lagrange_reduce

    def logged_reduce(b1, b2, *rows):
        out = reduce_(b1, b2, *rows)
        reductions.append(((b1, b2), _bits(b1, b2), _bits(out[0], out[1])))
        return out
    cvp_calls = _count_cvp(monkeypatch)
    monkeypatch.setattr(lattice, "lagrange_reduce", logged_reduce)
    tr = escalation_pass(13, b0)
    # one enumeration and one reduction per attempt that runs: the cold one
    # and the one that succeeds; the six doublings between them are refuted
    # by the cold attempt's points (test_skipped_doublings_all_fail)
    assert tr.doublings + 1 == 8
    assert len(cvp_calls) == len(reductions) == 2
    # each attempt's doublings, from its scale: 2^k times the cold one's
    scales = [call[0][0][0] for call in cvp_calls]
    ks = [round(a / scales[0]).bit_length() - 1 for a in scales]
    assert ks == [0, tr.doublings]
    # the first attempt is cold: its reduction starts from the Lehmer map,
    # a few greedy steps from reduced, where the cold basis takes tens
    cold = cvp_calls[0][0]
    assert cvp_calls[0][3] == lattice.IDENTITY
    assert reductions[0][0] == _apply(lattice._lehmer_start(*cold), cold)
    assert _greedy_steps(*reductions[0][0]) <= 3 < 20 <= _greedy_steps(*cold)
    # every later one starts within gap + 1 bits of the last reduced basis,
    # gap the doublings between the two attempts, which a cold start would not
    for (_, _, prev_out), (_, now_in, _), gap in zip(
            reductions, reductions[1:], (b - a for a, b in zip(ks, ks[1:]))):
        assert now_in <= prev_out + gap + 1


@st.composite
def _escalation_bases(draw):
    """The escalation's cold shape ((a, t), (0, -B)): a of 200 to 4000 bits,
    B of 400 to 8000, t up to twice B either way."""
    def sized(lo, hi):
        bits = draw(st.integers(lo, hi))
        return draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    a, B = sized(200, 4000), sized(400, 8000)
    return (a, draw(st.integers(-2 * B, 2 * B))), (0, -B)


@settings(max_examples=60, deadline=None)
@given(_escalation_bases(), st.integers(-(1 << 8000), 1 << 8000),
       st.integers(-(1 << 8000), 1 << 8000), st.sampled_from((1, 4)))
def test_lehmer_start_is_unimodular_and_moves_no_output(basis, tx, ty, k):
    start = lattice._lehmer_start(*basis)
    (s1, s2), scale = start, basis[1][1]
    assert abs(s1[0] * s2[1] - s1[1] * s2[0]) == 1
    t = (tx % (4 * abs(scale) + 1) + scale, ty % (4 * abs(scale) + 1) + scale)
    want = _fraction_closest(basis, t, k)
    # from the Lehmer map, from the identity (which takes it), and from a
    # start that is not the identity, so the greedy reduction does it all
    for via in (start, lattice.IDENTITY, ((1, 0), (0, -1))):
        pts, _ = closest_points(basis, t, k, via)
        assert [(p.point, p.coeffs, p.dist2) for p in pts] == want
    assert _greedy_steps(*_apply(start, basis)) <= 3


_CUT_BITS = 4 * lattice.LEHMER_W + 64


@st.composite
def _cut_pairs(draw):
    """Two vectors of up to 4 W + 64 bits, each coordinate of its own size."""
    def coord():
        bits = draw(st.integers(0, _CUT_BITS))
        return draw(st.integers(-(1 << bits), 1 << bits))
    return (coord(), coord()), (coord(), coord())


@settings(max_examples=400, deadline=None)
@given(_cut_pairs(), st.one_of(st.sampled_from((0, 1 << 4 * lattice.LEHMER_W)),
                               st.integers(1, 1 << 2 * _CUT_BITS + 2)))
def test_greedy_loop_with_a_floor_matches_the_cut_reference(pair, floor):
    # lagrange_reduce with a floor is the cut loop the cold start once ran:
    # the same rows, and the vectors and Gram entries those rows give
    def outcome(f):
        try:
            return f()
        except ZeroDivisionError:     # a zero shorter vector above the floor
            return ZeroDivisionError
    want = outcome(lambda: cut_reduce(*pair, floor))
    got = outcome(lambda: lagrange_reduce(*pair, floor=floor))
    if want is ZeroDivisionError:
        assert got is ZeroDivisionError
        return
    (p, q, _), (r1, r2, t1, t2, n1, dot) = want, got
    assert (t1, t2) == (p, q)
    (u, v) = pair
    assert (r1, r2) == tuple((a * u[0] + b * v[0], a * u[1] + b * v[1]) for a, b in (p, q))
    assert n1 == r1[0] ** 2 + r1[1] ** 2 and dot == r1[0] * r2[0] + r1[1] * r2[1]


def test_check_trace_encloses_each_constant_once(monkeypatch):
    tr = escalation_pass(7, bounds.initial_divisor_bound(7))
    delta2 = _count_calls(monkeypatch, "_delta2")
    theta = _count_calls(monkeypatch, "_theta")
    check_trace(tr)
    # the checker's own precision from B0, the producer's default: theta
    # once at it, and delta^2 once (from the checker's L, without theta) at
    # twice it; no refinement is needed here
    bits = 8 * tr.b0_in.bit_length() + 64
    assert delta2 == [2 * bits]
    assert theta == [bits]
    delta2.clear()
    theta.clear()
    assert escalation_pass(7, tr.b0_in) == tr
    assert (theta, delta2) == ([bits], [2 * bits])


def test_one_exp_series_per_constant_in_a_pass_and_its_check(monkeypatch):
    b0 = escalation_pass(13, bounds.initial_divisor_bound(13)).b0_out
    calls = _count_series(monkeypatch)
    tr = escalation_pass(13, b0)     # 8 doublings tested, all from the same two enclosures
    assert tr.doublings + 1 == 8
    bits = 8 * b0.bit_length() + 64
    # theta, then delta^2, whose exp runs 2 bits(N) - 10 = 14 bits short of
    # its enclosure's 2 * bits (16 / N^2 carries the rest)
    assert calls == [bits, 2 * bits - 14]
    calls.clear()
    check_trace(tr)
    assert calls == [bits, 2 * bits - 14]


def test_stab_check_exp_cost_at_1e100(stab_e100, monkeypatch):
    # the exact number and largest precision of the checker's exp series
    # over a 10^100 certificate: per escalated prime one theta and one
    # delta^2, whatever its number of passes, and per prime one initial
    # bound and one xi, with no refinement.  A fresh checker table keeps the
    # count apart from earlier tests.  The largest is delta^2's at p = 5,
    # sized from its largest b0_in at 768 working bits:
    # 2 * 768 - 2 bits(15) + 10.
    _fresh_table(monkeypatch, "_CHECKER")
    calls = _count_series(monkeypatch)
    check_stab_certificate(stab_e100)
    escalated = sum(1 for e in stab_e100.entries if e.certificate)
    assert len(calls) == 2 * escalated + 2 * len(stab_e100.entries) == 148
    assert max(calls) == 1538


def test_stab_entry_encloses_the_initial_bound_once(monkeypatch):
    calls = []
    initial = lattice.initial_divisor_bound

    def counted(n, *table):
        calls.append(n)
        return initial(n, *table)
    monkeypatch.setattr(lattice, "initial_divisor_bound", counted)
    for p, x_bound, escalated in ((5, 10 ** 60, True), (7, 100, False)):
        calls.clear()
        entry = stab_entry_for_prime(p, x_bound)
        assert (entry.certificate is not None) == escalated
        assert calls == [p]


def _fresh_table(monkeypatch, name, build=rounding.silver_log):
    """Replace one side's L table by a new one whose evaluations are logged."""
    evals = []

    def logged(prec):
        evals.append(prec)
        return build(prec)
    table = rounding.Enclosure(logged, 1).interval
    evals.clear()   # the 1-bit enclosure the table starts from, made before any run
    monkeypatch.setattr(getattr(lattice, name), "L", table)
    return evals


def test_constants_cost_grows_with_table_doublings_not_passes(monkeypatch):
    made = []
    init = MPIntervalContext.__init__

    def counted_init(ctx):
        made.append(1)
        init(ctx)
    monkeypatch.setattr(MPIntervalContext, "__init__", counted_init)
    prover = _fresh_table(monkeypatch, "_PROVER")
    checker = _fresh_table(monkeypatch, "_CHECKER")
    cert = verify_no_squares_up_to(10 ** 100)
    check_stab_certificate(cert)
    passes = sum(len(e.certificate.traces) for e in cert.entries if e.certificate)
    # no interval context at all, however many passes ran
    assert len(made) == 0
    assert passes > 20
    # each table is evaluated only when asked past what it holds, and then
    # at least doubles, so its evaluations are its growths
    for evals in (prover, checker):
        assert evals and all(b >= 2 * a for a, b in zip(evals, evals[1:]))
        assert len(evals) <= 1 + math.log2(evals[-1] / evals[0])
    assert len(prover) + len(checker) < passes


# L moved up by a relative 2^-20: an enclosure that misses the true value
_shifted_l = from_ctx(lambda ctx: _log_silver_ref(ctx) * (1 + ctx.mpf(2) ** -20))


def _third_pass_bound(n=7):
    """The incoming bound of the third pass at n.  A trace stores only the
    doublings, the points and b0_out.  In the first two passes at n = 7 the
    shift above moves none of them, so a trace made under either table is
    the same valid proof; in the third, b0_out is near 10^15 and the shift
    moves it."""
    b0 = bounds.initial_divisor_bound(n)
    for _ in range(2):
        b0 = escalation_pass(n, b0).b0_out
    return b0


def test_checker_does_not_read_the_producers_table(monkeypatch):
    b0 = _third_pass_bound()
    honest = escalation_pass(7, b0)
    _fresh_table(monkeypatch, "_PROVER", _shifted_l)
    tr = escalation_pass(7, b0)
    assert tr.b0_out != honest.b0_out
    with pytest.raises(TraceError):
        check_trace(tr)


def test_checker_rejects_an_honest_trace_under_its_own_wrong_table(monkeypatch):
    tr = escalation_pass(7, _third_pass_bound())
    check_trace(tr)
    _fresh_table(monkeypatch, "_CHECKER", _shifted_l)
    with pytest.raises(TraceError):
        check_trace(tr)


def test_rerun_at_double_precision_is_identical():
    tr1 = escalation_pass(5, 8)
    tr2 = escalation_pass(5, 8, bits=2 * (8 * (8).bit_length() + 64))
    assert tr2 == tr1


def test_trivial_certificate_when_initial_bound_suffices():
    b0 = 42  # initial bound for n = 7
    entry = stab_entry_for_prime(7, 100)
    assert entry.initial_bound == b0
    assert entry.certificate is None or entry.certificate.final_bound > b0


def test_exclusion_bound_scaling():
    # c exclusion approximately theta^2 (3-2sqrt2)^(1/N) B^2, just below B^2
    B = 10 ** 6
    excl = c_exclusion_bound(5, B)
    assert 0.9 * B * B < excl < B * B
    # the required bound is the least B whose exclusion bound reaches X
    for n in (5, 7, 13, 499, 1657):
        for X in (10 ** 9, 10 ** 100, 10 ** 1000):
            req = required_divisor_bound(n, X)
            assert c_exclusion_bound(n, req) >= X > c_exclusion_bound(n, req - 1)


def test_exclusion_roundings_decide_at_their_start_precision(monkeypatch):
    # for a large index and a small bound the value lies about 2^-(n-1) from
    # an integer: the first enclosure is sized to n, not only to B or X
    calls = []
    enclose = rounding.Enclosure._enclose

    def counted(self, bits):
        calls.append(bits)
        enclose(self, bits)

    monkeypatch.setattr(rounding.Enclosure, "_enclose", counted)
    for bound, args in ((c_exclusion_bound, (1657, 31623)),
                        (required_divisor_bound, (1657, 4))):
        calls.clear()
        bound(*args)
        assert len(calls) == 1, (bound.__name__, calls)


def test_rounding_layer_digest_at_1e1000():
    # every initial and required bound a 10^1000 certificate rests on; a
    # change to any stab rounding changes this digest and must be declared
    rows = [(p, bounds.initial_divisor_bound(p), required_divisor_bound(p, 10 ** 1000))
            for p in primes_to(1662) if p >= 5]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        "bb0aa2f5e31192e4cccd4928d6708d1045aeff6010c9cc508dd0038d7ecc1846"


def test_stab_verification_small():
    cert = verify_no_squares_up_to(10 ** 9)
    check_stab_certificate(cert)
    assert cert.prime_cap == 16
    assert [e.prime for e in cert.entries] == [5, 7, 11, 13]
    assert all(e.certificate is not None for e in cert.entries)
    assert {c for c, _ in cert.small_c} == {1, 2, 3, 4}
    for c, sc in cert.small_c:
        verify_sieve_certificate(sc, c, NumeratorTarget())
    assert [sc.p for _, sc in cert.small_c] == [3, 5, 11, 3]


@pytest.fixture(scope="module")
def stab_e100():
    return verify_no_squares_up_to(10 ** 100)


# passes per escalated prime at X = 10^100 when every pass started from the
# bound proved before it; starting the last one lower must not add any
PASSES_AT_1E100 = [6, 5, 4, 4, 3, 3, 3] + [2] * 7 + [1] * 23


def test_only_the_last_pass_moves_at_1e100(stab_e100):
    certs = [e.certificate for e in stab_e100.entries]
    assert [len(c.traces) for c in certs] == PASSES_AT_1E100
    for e, c in zip(stab_e100.entries, certs):
        proved = [c.initial_bound] + [t.b0_out for t in c.traces]
        last = c.traces[-1].b0_in
        assert last <= math.isqrt(e.required_bound) << lattice.SHORT_MARGIN or last == proved[-2]
        assert all(t.b0_in == b for t, b in zip(c.traces[:-1], proved))


def test_every_honest_trace_meets_the_prime_index_cap(stab_e100):
    # check_trace rejects n > 8 bits(b0_in) + 64; honest traces at 10^100
    # and 10^300 meet it, and at 10^1000 so does the least b0_in any chain
    # can start a pass from (criterion 3 checks every 10^1000 trace too)
    for cert in (stab_e100, verify_no_squares_up_to(10 ** 300)):
        traces = [t for e in cert.entries if e.certificate for t in e.certificate.traces]
        assert traces and all(t.n <= _bits_for(t.b0_in) for t in traces)
    for p in primes_to(1662):
        if p >= 5:
            least = min(bounds.initial_divisor_bound(p),
                        math.isqrt(required_divisor_bound(p, 10 ** 1000)) << lattice.SHORT_MARGIN)
            assert p <= _bits_for(least)


def test_stab_checker_rejects_a_moved_initial_bound_on_an_escalated_entry(stab_e100):
    e = stab_e100.entries[0]
    assert e.prime == 5 and e.certificate is not None
    moved = replace(e, initial_bound=e.initial_bound + 12345)
    with pytest.raises(TraceError):
        check_stab_certificate(replace(stab_e100, entries=(moved,) + stab_e100.entries[1:]))


def test_stab_checker_runs_no_search(stab_e100, monkeypatch):
    # the certificate is built first; the checker then re-derives what it
    # relies on without reducing, enumerating, escalating, sieving or factoring
    def searched(*args, **kwargs):
        raise AssertionError("the checker ran a search")
    for module, name in [(lattice, "closest_points"), (lattice, "lagrange_reduce"),
                         (lattice, "_lehmer_reduce"), (lattice, "_lehmer_start"),
                         (lattice, "escalation_pass"), (lattice, "_largest_nonpositive"),
                         (lattice, "prove_divisor_bound"),
                         (sieve, "find_sieve_certificate"),
                         (lattice, "find_sieve_certificate"),
                         (primes, "factorize")]:
        monkeypatch.setattr(module, name, searched)
    assert not hasattr(bounds, "factorize")
    check_stab_certificate(stab_e100)


def test_stab_checker_requires_small_c_coverage():
    cert = verify_no_squares_up_to(10 ** 20)
    check_stab_certificate(cert)
    small = cert.small_c
    assert [c for c, _ in small] == [1, 2, 3, 4]
    for probe in ((), small[:1], small + small[3:]):
        with pytest.raises(TraceError, match="small-c"):
            check_stab_certificate(replace(cert, small_c=probe))


def test_stab_certificate_checker_rejects_gaps():
    cert = verify_no_squares_up_to(10 ** 6)
    with pytest.raises(TraceError):
        check_stab_certificate(replace(cert, entries=cert.entries[1:]))
    with pytest.raises(TraceError):
        check_stab_certificate(replace(cert, x_bound=cert.x_bound * 10))


def test_trivial_entries_appear_for_moderate_bounds():
    # at X = 1e9 the cap is 16; push X higher until some prime's initial
    # bound already exceeds the requirement
    cert = verify_no_squares_up_to(10 ** 12)
    trivial = [e.prime for e in cert.entries if e.certificate is None]
    worked = [e.prime for e in cert.entries if e.certificate is not None]
    assert worked, "small primes always need escalation"
    assert all(p < 23 or p in trivial for p in [e.prime for e in cert.entries])


def test_runtime_scales_polynomially_in_digits():
    # the driver's cost is polynomial in log X; assert far sub-cubic growth
    # in the digit count across a 8x span (wall-clock smoke bound, generous)
    import time
    times = {}
    for d in (25, 50, 100, 200):
        t0 = time.time()
        verify_no_squares_up_to(10 ** d)
        times[d] = time.time() - t0
    assert times[200] < max(0.05, times[25]) * (200 / 25) ** 3
