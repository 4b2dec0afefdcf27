import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from quadorbit import lattice, rounding
from quadorbit.lattice import (DivisorBoundCertificate, EscalationTrace,
                               TraceError, c_exclusion_bound, check_divisor_certificate,
                               check_stab_certificate, check_trace, closest_points,
                               escalation_pass, lagrange_reduce, prove_divisor_bound,
                               required_divisor_bound, stab_entry_for_prime,
                               verify_no_squares_up_to)
from quadorbit.sieve import NumeratorTarget, verify_sieve_certificate


def test_fixed_point_root():
    # 2^(1/15) rounded to 64 fractional bits: theta^N brackets 2 within one ulp
    val = Fraction(rounding.nearest_int(lambda ctx: lattice._theta(ctx, 15) * 2 ** 64), 2 ** 64)
    ulp = Fraction(1, 2 ** 64)
    assert (val - ulp) ** 15 < 2 < (val + ulp) ** 15
    # scaled roundings match the recorded basis/target integers
    t2 = rounding.nearest_int(
        lambda ctx: ctx.exp(ctx.log(ctx.mpf(2)) * 2 / 15) * 8 ** 8)
    assert t2 == 18401670
    tgt = rounding.nearest_int(
        lambda ctx: 2 * ctx.exp(ctx.log(ctx.mpf(2)) / 15) * 8 ** 8 / 15)
    assert tgt == 2342757


def test_lagrange_reduction_tracks_coefficients():
    b1, b2 = (336, 18401670), (0, -16777216)
    r1, r2, t1, t2 = lagrange_reduce(b1, b2)
    for r, t in ((r1, t1), (r2, t2)):
        assert r == (t[0] * b1[0] + t[1] * b2[0], t[0] * b1[1] + t[1] * b2[1])
    assert r1[0] ** 2 + r1[1] ** 2 <= r2[0] ** 2 + r2[1] ** 2


def test_closest_points_identity_basis():
    pts = closest_points(((1, 0), (0, 1)), (0, 0), 4)
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
        got = [p.dist2 for p in closest_points((b1, b2), t, k)]
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
    first, last = tr.attempts[0], tr.final
    assert first.basis == ((336, 18401670), (0, -16777216))
    assert first.target == (0, 2342757)
    assert first.points == ((177, 194), (208, 228), (146, 160), (239, 262))
    assert first.sigma == 4239130474
    assert not first.h_negative_at_b0
    assert last.doublings == 1 and last.scale_a == 672
    assert last.sigma == 12323594474
    assert tr.b0_out == 166
    check_trace(tr)


def test_escalation_chain_reaches_target():
    cert = prove_divisor_bound(5, 10 ** 30)
    assert cert.initial_bound == 8
    assert cert.final_bound > 10 ** 30
    assert len(cert.traces) == 5
    check_divisor_certificate(cert)
    # bounds chain and growth: each pass lands beyond the square of the
    # incoming bound scaled by the approximation quality
    b = [cert.initial_bound] + [t.b0_out for t in cert.traces]
    for prev, nxt in zip(b, b[1:]):
        assert nxt > prev ** 2 // 100


def test_trace_checker_rejects_tampering():
    tr = escalation_pass(5, 8)
    with pytest.raises(TraceError):
        check_trace(replace(tr, b0_out=tr.b0_out + 1))
    with pytest.raises(TraceError):
        check_trace(replace(tr, d_const=tr.d_const - 1))
    bad_final = replace(tr.final, sigma=tr.final.sigma * 2)
    with pytest.raises(TraceError):
        check_trace(replace(tr, attempts=tr.attempts[:-1] + (bad_final,)))


def test_rerun_at_double_precision_is_identical():
    tr1 = escalation_pass(5, 8)
    tr2 = escalation_pass(5, 8, bits=2 * tr1.bits)
    assert tr2.b0_out == tr1.b0_out
    assert tr2.final.sigma == tr1.final.sigma


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
    req = required_divisor_bound(5, 10 ** 9)
    assert c_exclusion_bound(5, req) >= 10 ** 9
    assert c_exclusion_bound(5, req - 1) < 10 ** 9


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
