import math
from fractions import Fraction

from quadorbit.bounds import initial_divisor_bound, stable_iterate_bound
from quadorbit.orbit import critical_numerators
from reference import coprime_splits, find_coprime_power_split, from_ctx


def _contains(bounds, value, tol=1e-12):
    lo, hi = bounds
    return float(lo) - tol <= value <= float(hi) + tol


def interval_fractions(build, bits=128):
    """The endpoints of an mpmath interval expression, cut outward to
    multiples of 2^-bits, as fractions."""
    lo, hi = from_ctx(build, guard=64)(bits)
    return Fraction(lo, 1 << bits), Fraction(hi, 1 << bits)


def _F(ctx, c):
    # (1 - sqrt(1 - 4/c)) / 2
    return (1 - ctx.sqrt(1 - ctx.mpf(4) / c)) / 2


def _eps_limit(ctx, c):
    rF = ctx.sqrt(_F(ctx, c))
    return ctx.sqrt(ctx.mpf(c)) * ctx.log((1 + rF) / (1 - rF))


def F_bounds(c):
    return interval_fractions(lambda ctx: _F(ctx, c))


def eps_limit_bounds(c):
    return interval_fractions(lambda ctx: _eps_limit(ctx, c))


def eps_n_bounds(c, n):
    # sqrt(c) log((sqrt(a_n) + a_{n-1}) / (sqrt(a_n) - a_{n-1})), which
    # increases in n to the limit _eps_limit encloses
    a_prev, a_n = critical_numerators(c, n)[-2:]

    def build(ctx):
        r = ctx.sqrt(ctx.mpf(a_n))
        return ctx.sqrt(ctx.mpf(c)) * ctx.log((r + a_prev) / (r - a_prev))

    return interval_fractions(build, 192)


def test_F_values():
    lo, hi = F_bounds(4)
    assert lo == hi == Fraction(1, 2)
    lo, hi = F_bounds(10 ** 6)
    assert _contains((lo, hi), 1.000001000002e-06, tol=1e-12)


def test_eps_limit():
    # the c = 4 limit value is 4 log(1 + sqrt 2)
    assert _contains(eps_limit_bounds(4), 4 * math.log(1 + math.sqrt(2)))
    # decreasing in c toward 2
    prev = None
    for c in (4, 6, 10, 100, 10400, 10 ** 6):
        lo, hi = eps_limit_bounds(c)
        assert lo > 2
        if prev is not None:
            assert hi < prev
        prev = lo


def test_eps_n_increases_to_limit():
    for c in (4, 7, 12):
        lo_lim, hi_lim = eps_limit_bounds(c)
        prev = None
        for n in range(2, 9):
            lo, hi = eps_n_bounds(c, n)
            assert hi <= hi_lim * (1 + Fraction(1, 10 ** 9))
            if prev is not None:
                assert hi > prev
            prev = lo


def test_normalized_terms_increase_to_limit():
    for c in (4, 6, 100):
        lo_F, hi_F = F_bounds(c)
        limit = Fraction(c) * hi_F
        seq = critical_numerators(c, 14)
        prev = None
        for n in range(1, 15):
            norm = Fraction(seq[n - 1], c ** (2 ** (n - 1) - 1))
            assert norm < limit * (1 + Fraction(1, 10 ** 6))
            if prev is not None:
                assert norm > prev
            prev = norm


def test_ratio_inequality_42():
    # eps(c) / (sqrt(c) log q(c)) < 3.46 for c >= 4; the max sits at c = 6
    worst, worst_c = 0, None
    for c in range(4, 200):
        q = min(Fraction(v, u) for u, v in coprime_splits(c) if v > u)
        hi = interval_fractions(
            lambda ctx: (_eps(ctx, c)) / (ctx.sqrt(ctx.mpf(c)) *
                                          ctx.log(ctx.mpf(q.numerator) / q.denominator)))[1]
        if float(hi) > worst:
            worst, worst_c = float(hi), c
        assert hi < Fraction(346, 100), c
    assert worst_c == 6


def _eps(ctx, c):
    rF = ctx.sqrt((1 - ctx.sqrt(1 - ctx.mpf(4) / c)) / 2)
    return ctx.sqrt(ctx.mpf(c)) * ctx.log((1 + rF) / (1 - rF))


def test_ratio_inequalities_43_44():
    for c, bound, must_hold in ((100, Fraction(212, 100), True),
                                (10400, Fraction(201, 100), True),
                                (10 ** 6, Fraction(201, 100), True)):
        hi = interval_fractions(
            lambda ctx: _eps(ctx, c) / (ctx.sqrt(ctx.mpf(c)) *
                                        ctx.log(1 + 1 / ctx.sqrt(ctx.mpf(c)))))[1]
        assert (hi < bound) == must_hold, c


def test_log_reciprocal_inequality_45():
    # 1/log(1 + 1/sqrt(c)) <= sqrt(c) + 1/2
    for c in (4, 5, 10, 100, 9999, 10 ** 8):
        hi = interval_fractions(
            lambda ctx: 1 / ctx.log(1 + 1 / ctx.sqrt(ctx.mpf(c)))
            - (ctx.sqrt(ctx.mpf(c)) + ctx.mpf(1) / 2))[1]
        assert hi <= 0, c


def test_exp_eps_inequality_41():
    # exp(eps(n,c)/sqrt(c)) <= 1 + 4(1+sqrt2)/sqrt(c); equality only in the
    # c = 4 limit, so the finite-n values sit strictly below
    for c in (4, 6, 25, 1000):
        for n in (2, 4, 6):
            seq = critical_numerators(c, n)
            a_prev, a_n = seq[-2], seq[-1]
            hi = interval_fractions(
                lambda ctx: ctx.exp(ctx.log((ctx.sqrt(ctx.mpf(a_n)) + a_prev)
                                            / (ctx.sqrt(ctx.mpf(a_n)) - a_prev)))
                - (1 + 4 * (1 + ctx.sqrt(ctx.mpf(2))) / ctx.sqrt(ctx.mpf(c))))[1]
            assert hi < 0, (c, n)


def test_stable_iterate_bound_values():
    assert stable_iterate_bound(4) == 4
    assert stable_iterate_bound(10 ** 6) == 11
    assert stable_iterate_bound(10 ** 1000) == 1662


def test_initial_divisor_bound():
    assert initial_divisor_bound(5) == 8
    assert initial_divisor_bound(7) == 42
    prev = 0
    for n in range(5, 16):
        b = initial_divisor_bound(n)
        assert b > prev
        prev = b
    # growth tracks 2^(n-1)/log 4
    assert initial_divisor_bound(15) > (1 << 13) / math.log(4) * 0.9


def test_initial_divisor_bound_is_exact():
    # the exact floor plus one, against an 8192-bit reference, on both sides
    # of p = 1543, where the value first has more bits than a 1536-bit
    # enclosure can round: the rounding refines rather than settle
    for p in (1531, 1543, 1657):
        N = (1 << (p - 1)) - 1

        def build(ctx):
            two = ctx.mpf(2)
            return ctx.exp(ctx.log(ctx.sqrt(two) - 1) / N) / ctx.exp(ctx.log(two) / N) \
                * (ctx.mpf(N) / ctx.log(4) - 3)
        lo, hi = interval_fractions(build, 8192 - 64)
        exact = math.floor(lo)
        assert exact == math.floor(hi)
        assert initial_divisor_bound(p) == exact + 1


def test_split_search_examples():
    s = find_coprime_power_split(8, 2)   # a_2(8) = 9 = 3^2
    assert s is not None and (s.u, s.v) == (-8, -1)
    assert 4 * s.v - s.u == 4  # 4 v^N - u^N = 4 a_1 with N = 1
    s3 = find_coprime_power_split(3, 2)  # a_2(3) = 4
    assert s3 is not None and (s3.u, s3.v) == (1, 3)
    assert find_coprime_power_split(6, 3) is None  # a_3(6) = 265 not a square


def test_conservative_rounding_stability():
    # certified verdicts must not flip when precision doubles
    assert stable_iterate_bound(10 ** 6, bits=128) == \
        stable_iterate_bound(10 ** 6, bits=1024)
