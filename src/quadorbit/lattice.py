"""Integer-lattice escalation prover.

For even c >= 6 a square value a_n(c) forces a coprime split c = u*v whose
pair (v, u) nearly solves theta^2 v - u = 2 theta / N with theta = 2^(1/N),
N = 2^(n-1) - 1, up to an error delta / v^2.  Scaling by B0^8 and rounding
gives an integer lattice in which any such (v, u) with |v| just above the
current bound B0 would sit implausibly close to a fixed target vector.  A
certified lower bound sigma on the squared distance from the target to the
lattice turns into a polynomial h with h(|v|) >= 0 for every solution, and
the integer root window of h pushes the lower bound B0 to roughly B0^2.
Iterating reaches astronomically large bounds in about log log B passes.

Every rounding is exact (half-up, ceiling or floor of the real value) and
certified through integer enclosures (rounding); every pass emits a trace
that an independent checker re-verifies from the stored integers alone.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from . import rounding
from .primes import primes_to
from .bounds import _CHECKER, _PROVER, Tables, initial_divisor_bound, stable_iterate_bound
from .sieve import (NumeratorTarget, SieveCertificate, find_sieve_certificate,
                    verify_sieve_certificate)


class TraceError(AssertionError):
    """An escalation trace failed independent re-verification."""


class EscalationStuck(ArithmeticError):
    """The gamma-doubling or pass caps were exhausted."""


# --- certified constants ----------------------------------------------------

def _theta(prec: int, N: int, side: Tables):
    """theta = 2^(1/N) = exp(ln 2 / N)."""
    lo, hi = side.ln2(prec)
    return rounding.exp(lo // N, -(-hi // N), prec, prec)


def _delta2(prec: int, N: int, side: Tables):
    """delta^2 = (4 (3 + 2 sqrt 2)^(1/N) / (theta N))^2 = 16 exp(2 (L - ln 2)
    / N) / N^2.  16 / N^2 < 2^(6 - 2 bits(N)), so an exp up to 2 bits(N) - 10
    bits short of prec (>= 6) still errs by under a unit at prec."""
    w = max(prec - 2 * N.bit_length(), 0) + 10
    (l_lo, l_hi), (t_lo, t_hi) = side.L(w), side.ln2(w)
    lo, hi = rounding.exp(2 * (l_lo - t_hi) // N, -(-2 * (l_hi - t_lo) // N), w, w)
    up, den = prec + 4 - w, N * N
    return (lo << up) // den, -((-hi << up) // den)


def _xi(prec: int, N: int, side: Tables):
    """theta^2 (3 - 2 sqrt 2)^(1/N) = exp((2 ln 2 - L) / N)."""
    (l_lo, l_hi), (t_lo, t_hi) = side.L(prec), side.ln2(prec)
    return rounding.exp((2 * t_lo - l_hi) // N, -((l_lo - 2 * t_hi) // N), prec, prec)


# --- exact 2D closest-vector enumeration ------------------------------------

Transform = tuple[tuple[int, int], tuple[int, int]]
IDENTITY: Transform = ((1, 0), (0, 1))


def lagrange_reduce(b1: tuple[int, int], b2: tuple[int, int],
                    t1: tuple[int, int] = (1, 0), t2: tuple[int, int] = (0, 1),
                    floor: int = 0):
    """Greedy (Lagrange-Gauss) reduction of a 2D integer basis, tracking the
    unimodular map.

    t1, t2 are the coefficient rows of b1, b2 over some original basis (by
    default b1, b2 themselves).  Returns (r1, r2, t1, t2, |r1|^2, <r1, r2>)
    with r1, r2 the reduced basis and t1, t2 their coefficient rows over
    that original basis: each step applies to the rows what it applies to
    the vectors, so a reduction started from T B returns its own map
    composed with T.  The Gram entries |b1|^2, |b2|^2 and <b1, b2> are
    carried through each step b2 -= m b1 (|b2|^2 -= 2 m <b1, b2> -
    m^2 |b1|^2, <b1, b2> -= m |b1|^2) rather than recomputed, so a step costs
    products by the small quotient m only, a nearly reduced start costs a
    few steps, and the caller gets the two it needs for free.

    With floor > 0 the steps stop early, once |r1|^2 < floor; the result is
    then a partly reduced basis, r1 the shorter vector.
    """
    n1 = b1[0] * b1[0] + b1[1] * b1[1]
    n2 = b2[0] * b2[0] + b2[1] * b2[1]
    dot = b1[0] * b2[0] + b1[1] * b2[1]
    if n1 > n2:
        b1, b2, t1, t2, n1, n2 = b2, b1, t2, t1, n2, n1
    while n1 >= floor:
        m = (2 * dot + n1) // (2 * n1)  # nearest integer of dot/n1
        b2 = (b2[0] - m * b1[0], b2[1] - m * b1[1])
        t2 = (t2[0] - m * t1[0], t2[1] - m * t1[1])
        n2 += m * (m * n1 - 2 * dot)
        dot -= m * n1
        if n2 >= n1:
            break
        b1, b2, t1, t2, n1, n2 = b2, b1, t2, t1, n2, n1
    return b1, b2, t1, t2, n1, dot


# _lehmer_start's own name for the greedy loop, so that a caller replacing
# lagrange_reduce (to count the exact reductions) leaves the cut ones alone
_lehmer_reduce = lagrange_reduce


# The cold start's word size, in bits.  Vectors are cut to 4 W bits and
# reduced until the shorter cut vector is under 2 W bits; past a W-bit gap in
# length, one exact step with the big quotient comes first.  _lehmer_start
# over the prover's cold bases at X = 1e300 and 1e1000 (2 vCPUs, CPython
# 3.11) took about the same time for W from 24 to 48, and more outside it:
# at 16 the outer loop applies too many small maps to the full vectors, and
# from 64 up the cut norms grow past a few machine words.
LEHMER_W = 32
# A cold basis whose shorter vector has fewer bits is left to the exact
# greedy reduction; at 1e300, closest_points on the cold bases under 1200
# bits took the same time for thresholds from 130 to 400 bits.
LEHMER_MIN_BITS = 192


def _bits(v: tuple[int, int]) -> int:
    return max(abs(v[0]), abs(v[1])).bit_length()


def _lehmer_start(b1: tuple[int, int], b2: tuple[int, int]) -> Transform:
    """A unimodular map, rows over (b1, b2), to a nearly reduced basis, found
    from leading bits (Lehmer, Amer. Math. Monthly 45, 1938, in the plane).

    While the vectors differ by more than LEHMER_W bits, one exact greedy
    step takes the big quotient.  Otherwise both are cut by
    bits(short) - 4 W bits, the greedy loop runs on the cut pair until its
    shorter norm is under 2^(4 W), and its small map is applied to the full
    vectors and to the map.  The loop stops when the small map does not
    shorten the pair (an identity or a swap never does); any unimodular map
    will do, since the exact reduction finishes from it.
    """
    t1, t2 = IDENTITY
    l1, l2 = _bits(b1), _bits(b2)
    if min(l1, l2) < LEHMER_MIN_BITS:
        return t1, t2
    floor = 1 << (4 * LEHMER_W)
    while True:
        if l1 > l2:
            b1, b2, t1, t2, l1, l2 = b2, b1, t2, t1, l2, l1
        if l2 - l1 > LEHMER_W:
            n1 = b1[0] * b1[0] + b1[1] * b1[1]
            m = (2 * (b1[0] * b2[0] + b1[1] * b2[1]) + n1) // (2 * n1)
            if not m:
                return t1, t2          # b2 is reduced against b1
            b2 = (b2[0] - m * b1[0], b2[1] - m * b1[1])
            t2 = (t2[0] - m * t1[0], t2[1] - m * t1[1])
            l2 = _bits(b2)
            continue
        s = max(l1 - 4 * LEHMER_W, 0)
        (p0, p1), (q0, q1) = _lehmer_reduce(
            (b1[0] >> s, b1[1] >> s), (b2[0] >> s, b2[1] >> s), floor=floor)[2:4]
        c1 = (p0 * b1[0] + p1 * b2[0], p0 * b1[1] + p1 * b2[1])
        c2 = (q0 * b1[0] + q1 * b2[0], q0 * b1[1] + q1 * b2[1])
        k1, k2 = _bits(c1), _bits(c2)
        if k1 + k2 >= l1 + l2:
            return t1, t2
        b1, b2, l1, l2 = c1, c2, k1, k2
        t1, t2 = ((p0 * t1[0] + p1 * t2[0], p0 * t1[1] + p1 * t2[1]),
                  (q0 * t1[0] + q1 * t2[0], q0 * t1[1] + q1 * t2[1]))


def _square_exceeds(e: int, R: int, n1: int) -> bool:
    """e^2 > R n1, decided from the leading 64 bits of each factor when they
    bracket the two sides apart, else by the exact products."""
    e = abs(e)
    se = max(e.bit_length() - 64, 0)
    sr = max(R.bit_length() - 64, 0)
    sn = max(n1.bit_length() - 64, 0)
    a, b, c = e >> se, R >> sr, n1 >> sn
    # e^2 lies in [a^2, (a+1)^2) 2^(2 se), and R n1 in [b c, (b+1)(c+1)) 2^(sr + sn)
    lo, hi, rlo, rhi = a * a, (a + 1) * (a + 1), b * c, (b + 1) * (c + 1)
    x = 2 * se - sr - sn
    if x >= 0:
        lo, hi = lo << x, hi << x
    else:
        rlo, rhi = rlo << -x, rhi << -x
    if lo >= rhi:
        return True
    if hi <= rlo:
        return False
    return e * e > R * n1


@dataclass(frozen=True)
class LatticePoint:
    point: tuple[int, int]
    coeffs: tuple[int, int]   # over the original basis
    dist2: int


def closest_points(basis: tuple[tuple[int, int], tuple[int, int]],
                   target: tuple[int, int], k: int = 4,
                   start: Transform = IDENTITY) -> tuple[list[LatticePoint], Transform]:
    """The k nearest lattice points to the target, exactly, and the
    unimodular map that reduced the basis.

    start is a unimodular map whose rows, over the basis, give the basis the
    reduction starts from: the identity for a cold start, or the map that
    reduced a nearby basis.  A cold start first takes _lehmer_start's map
    from leading bits, so the exact reduction of start * basis that follows
    takes a few greedy steps either way.  Then coefficient rows are
    enumerated around the coordinates of the target (Fincke-Pohst in
    dimension 2).  Integer arithmetic only: with D = |det| and n1 = |r1|^2
    of the reduced basis, the target's second coordinate is x2/D, and row j
    lies e^2 / n1 from the target, with e = j D - x2.  A row is skipped when
    e^2 > R n1, R the k-th best squared distance so far, and the rows stop
    once both rows of a step are skipped.  Along a row, the squared distance
    grows with the distance from the row's centre (<t, r1> - j <r1, r2>) / n1,
    so the scan up from its nearest integer i0 and the scan down from i0 - 1
    each stop at the first point whose exact squared distance exceeds R.

    The scan is incremental: past row j0, no product of two full-size
    numbers is taken per row skipped or per point.  Row j0 + d has
    e = e0 + d D, its i0 is i0(j0) plus a small quotient, and its skip test
    compares e^2 with R n1 from leading bits (_square_exceeds).  Along a
    row, w = i r1 + j r2 - t moves by +-r1: |w|^2 by n1 +- 2 <w, r1>, and
    <w, r1> by +-n1.

    The output does not depend on start.  R only falls as points are found,
    so every lattice point whose squared distance is at most the final R is
    visited, whatever reduced basis the rows are taken over: its row is
    reached and not skipped, and no point before it in its scan exceeds R.
    The result is the k least visited points under the total order
    (distance, coefficients over the original basis), which are the k least
    of the whole lattice.
    """
    (b1, b2), t = basis, target
    det = b1[0] * b2[1] - b1[1] * b2[0]
    if det == 0:
        raise ValueError("basis is singular")
    s1, s2 = start
    if s1[0] * s2[1] - s1[1] * s2[0] not in (1, -1):
        raise ValueError("start map is not unimodular")
    if start == IDENTITY:
        s1, s2 = _lehmer_start(b1, b2)
    r1, r2, t1, t2, n1, dot = lagrange_reduce(
        (s1[0] * b1[0] + s1[1] * b2[0], s1[0] * b1[1] + s1[1] * b2[1]),
        (s2[0] * b1[0] + s2[1] * b2[0], s2[0] * b1[1] + s2[1] * b2[1]), s1, s2)
    sgn = 1 if det * (t1[0] * t2[1] - t1[1] * t2[0]) > 0 else -1   # of det(r1, r2)
    D = abs(det)
    x2 = sgn * (r1[0] * t[1] - r1[1] * t[0])

    # row j0 (e0), its centre's nearest integer i00 with remainder rem0, and
    # w and the coefficients at (i00, j0); other rows follow by small multiples
    j0 = (2 * x2 + D) // (2 * D)
    e0 = j0 * D - x2
    n1_2, dot_2 = 2 * n1, 2 * dot
    i00, rem0 = divmod(2 * (t[0] * r1[0] + t[1] * r1[1]) - j0 * dot_2 + n1, n1_2)
    w0 = i00 * r1[0] + j0 * r2[0] - t[0]
    w1 = i00 * r1[1] + j0 * r2[1] - t[1]
    c0 = i00 * t1[0] + j0 * t2[0]
    c1 = i00 * t1[1] + j0 * t2[1]

    best: list[tuple] = []   # the k least (d2, coeffs), each with its w
    R = None                 # the k-th best d2

    def scan(d2: int, g: int, a0: int, a1: int, v0: int, v1: int, sign: int) -> None:
        # from one point along its row by sign * r1, until d2 exceeds R
        nonlocal R
        dc0, dc1, dv0, dv1 = sign * t1[0], sign * t1[1], sign * r1[0], sign * r1[1]
        step = sign * n1
        while R is None or d2 <= R:
            entry = (d2, (a0, a1), v0, v1)   # coefficients never tie
            if len(best) < k or entry < best[-1]:
                bisect.insort(best, entry)
                del best[k:]
                if len(best) == k:
                    R = best[-1][0]
            d2 += 2 * sign * g + n1
            g += step
            a0, a1, v0, v1 = a0 + dc0, a1 + dc1, v0 + dv0, v1 + dv1

    dj = 0
    while True:
        es = []
        for d in ((dj, -dj) if dj else (0,)):
            e = e0 + d * D                       # row j0 + d lies e^2 / n1 away
            es.append(e)
            if R is not None and _square_exceeds(e, R, n1):
                continue
            di = (rem0 - d * dot_2) // n1_2      # its centre rounds to i00 + di
            v0 = w0 + di * r1[0] + d * r2[0]
            v1 = w1 + di * r1[1] + d * r2[1]
            a0 = c0 + di * t1[0] + d * t2[0]
            a1 = c1 + di * t1[1] + d * t2[1]
            d2 = v0 * v0 + v1 * v1
            g = v0 * r1[0] + v1 * r1[1]
            scan(d2, g, a0, a1, v0, v1, 1)
            scan(d2 - 2 * g + n1, g - n1, a0 - t1[0], a1 - t1[1], v0 - r1[0], v1 - r1[1], -1)
        if dj and R is not None and all(_square_exceeds(e, R, n1) for e in es):
            break
        dj += 1
    return ([LatticePoint((v0 + t[0], v1 + t[1]), coeffs, d2)
             for d2, coeffs, v0, v1 in best], (t1, t2))


# --- escalation passes ------------------------------------------------------

MAX_DOUBLINGS = 64    # gamma doublings per pass
MAX_PASSES = 200      # escalation passes per divisor bound
# The last pass of a chain starts from isqrt(target) << SHORT_MARGIN, not
# from the bound the pass before proved.  A pass roughly squares its input,
# so a few bits over the square root clear the target.  Counted over
# verify_no_squares_up_to at the perfbench stab_e300 inputs of seeds 1, 2, 3
# and 7 (X from 2.4e300 to 8.4e300, 75 shortened last passes each) and at
# X = 4e1000 (207): a margin of 0 missed 1-2 per run, margins of 2 and 4
# none.  A miss costs one dropped pass.
SHORT_MARGIN = 4


@dataclass(frozen=True)
class EscalationTrace:
    """One pass from b0_in to b0_out: the gamma doublings of the attempt that
    made h(b0_in) negative, and its four closest points as coefficient pairs
    (v_j, u_j).  The checker rederives everything else."""
    n: int
    b0_in: int
    doublings: int
    points: tuple[tuple[int, int], ...]
    b0_out: int


def _enclosures(N: int, bits: int, side: Tables) -> tuple[rounding.Enclosure, rounding.Enclosure]:
    """Enclosures of theta at bits and of delta^2 at 2 * bits of absolute
    precision, from the given side's tables.  d = delta^2 B0^16 scales
    delta^2 by twice the bits of B0^8, so its enclosure starts at twice the
    working precision, the absolute precision d would otherwise refine to."""
    return (rounding.Enclosure(lambda prec: _theta(prec, N, side), bits),
            rounding.Enclosure(lambda prec: _delta2(prec, N, side), 2 * bits))


def _theta_roundings(theta: rounding.Enclosure, N: int, b0_8: int) -> tuple[int, int]:
    """(round(theta^2 B0^8), round(2 theta B0^8 / N)) from an enclosure of
    theta; the second is floor((4 theta B0^8 + N) / (2N)), and
    floor(y / m) = floor(floor(y) / m) for an integer m > 0."""
    return theta.nearest(b0_8, power=2), (theta.floor(4 * b0_8) + N) // (2 * N)


def _gamma_scales(delta2: rounding.Enclosure, b0_4: int, b0_8: int):
    """The function k -> (scale_a, x6) at gamma = 2^k delta^2, for
    0 <= k <= MAX_DOUBLINGS (M), from two roundings of delta^2 in all: the
    lattice scale round(gamma B0^4), and an x^6 coefficient that dominates
    (gamma B0^4)^2, as soundness needs: the larger of the rounded square and
    a certified ceiling of the square.

    With y = floor(delta^2 B0^4 2^(M+1)) and z = ceil(delta^4 B0^8 2^(2M)),
    scale_a = floor((y + 2^(M-k)) / 2^(M+1-k)) and the ceiling of the square
    is ceil(z / 2^(2M-2k)).  Both are exact, since
    floor((floor(Y) + m) / 2^j) = floor((Y + m) / 2^j) for integers m, j
    (and likewise for ceilings), so every doubling gets the roundings it
    would get from the enclosure directly.
    """
    M = MAX_DOUBLINGS
    y = delta2.floor(b0_4 << (M + 1))
    z = delta2.ceil(b0_8 << 2 * M, power=2)

    def at(k: int) -> tuple[int, int]:
        scale_a = (y + (1 << (M - k))) >> (M + 1 - k)
        return scale_a, max(scale_a * scale_a, -(-z >> 2 * (M - k)))
    return at


def _adjusted_sigma(points, scale_a: int, t2: int, b0_8: int, tgt: int) -> int:
    """Lower bound on the scaled real distance from the stored points.

    Each rounding of the basis and target moved a point by at most |v_j| + 1
    per coordinate, so the shrunken terms stay below the true distance.
    """
    best = None
    for v, u in points:
        a = v * scale_a
        b = v * t2 - u * b0_8 - tgt
        term = max(0, abs(a) - abs(v)) ** 2 + max(0, abs(b) - abs(v) - 1) ** 2
        best = term if best is None else min(best, term)
    return best if best is not None else 0


def _h_cubic(x6: int, sigma: int, d: int, t: int) -> int:
    """x6 t^3 - sigma t^2 + d by Horner: h(x) at t = x^2."""
    return (x6 * t - sigma) * t * t + d


def _largest_nonpositive(x6: int, sigma: int, d: int, b0: int) -> int:
    """max { x integer > 0 : h(x) <= 0 }, assuming h(b0) < 0.

    h is cubic in t = x^2 with positive leading and constant coefficients;
    integer Newton from above isolates the largest root of the cubic, then
    the answer is the integer square root, verified exactly.
    """
    t = sigma // x6 + 1
    while True:
        g = _h_cubic(x6, sigma, d, t)
        if g <= 0:
            break
        dg = (3 * x6 * t - 2 * sigma) * t
        if dg <= 0:
            t -= 1
            continue
        step = -(-g // dg)
        t -= max(step, 1)
    while _h_cubic(x6, sigma, d, t + 1) <= 0:
        t += 1
    x = math.isqrt(t)
    while _h_cubic(x6, sigma, d, (x + 1) ** 2) <= 0:
        x += 1
    while x > b0 and _h_cubic(x6, sigma, d, x * x) > 0:
        x -= 1
    if _h_cubic(x6, sigma, d, x * x) > 0:
        raise TraceError("no nonpositive value at or above the incoming bound")
    return x


def escalation_pass(n: int, b0: int, bits: int | None = None) -> EscalationTrace:
    """One pass of the escalation loop: bound b0 in, much larger bound out.

    Builds the scaled integer lattice at > 8 log2(b0) bits, finds the four
    closest points to the target, converts them into a certified distance
    lower bound sigma, and extracts the new bound from the nonpositive
    window of h(x) = x6 * x^6 - sigma * x^4 + d.  Doubles the lattice scale
    gamma until h(b0) < 0, at most MAX_DOUBLINGS times.  The first attempt
    is a cold start: closest_points takes a map from the leading bits of its
    basis (Lehmer's method) and finishes the reduction exactly.  A doubling
    changes only the first basis entry, so each later attempt starts its
    reduction from the map that reduced the last one: the reduced vectors
    grow by about a bit per doubling, and a few greedy steps reduce them
    again.  The enumeration takes full-size products only to set up its
    first row and each row it scans.  closest_points' output does not
    depend on where its reduction starts, so neither does the trace.

    A doubling that a known lattice point refutes takes no attempt.  For any
    lattice point q, sigma <= d2(q), its squared distance to the target:
    sigma is the least shrunken term over the 4 nearest points, each
    shrunken term is at most its own point's d2, and the nearest point's d2
    is at most d2(q).  h(b0) falls as sigma grows, so h(b0) >= 0 with d2(q)
    in place of sigma means the attempt fails.  Each doubling first tests
    this on the 4 points of the last attempt, at the current scale, where q
    = (v, u) lies at d2 = (v scale_a)^2 + (v t2 - u B0^8 - tgt)^2; one
    that refutes it is skipped, without enumeration or sigma.  The pass
    still returns the first attempt with h(b0) < 0, so the trace is the one
    every doubling in turn would give.
    """
    N = (1 << (n - 1)) - 1
    if N < 15:
        raise ValueError("the escalation needs n >= 5")
    bits = bits or (8 * b0.bit_length() + 64)
    b0_2 = b0 * b0
    b0_4 = b0_2 * b0_2
    b0_8 = b0_4 * b0_4
    theta, delta2 = _enclosures(N, bits, _PROVER)
    t2, tgt = _theta_roundings(theta, N, b0_8)
    d_const = delta2.ceil(b0_8 * b0_8)
    scales = _gamma_scales(delta2, b0_4, b0_8)
    reducer, coeffs = IDENTITY, ()
    for doublings in range(MAX_DOUBLINGS + 1):
        scale_a, x6 = scales(doublings)
        if scale_a <= 0:
            raise rounding.PrecisionExhausted("degenerate lattice scale")
        if coeffs:
            near = min((v * scale_a) ** 2 + (v * t2 - u * b0_8 - tgt) ** 2 for v, u in coeffs)
            if _h_cubic(x6, near, d_const, b0_2) >= 0:
                continue
        pts, reducer = closest_points(((scale_a, t2), (0, -b0_8)), (0, tgt), 4, reducer)
        coeffs = tuple(p.coeffs for p in pts)
        sigma = _adjusted_sigma(coeffs, scale_a, t2, b0_8, tgt)
        if _h_cubic(x6, sigma, d_const, b0_2) < 0:
            b0_out = _largest_nonpositive(x6, sigma, d_const, b0) + 1
            if b0_out <= b0:
                raise EscalationStuck(f"no progress from bound {b0}")
            return EscalationTrace(n, b0, doublings, coeffs, b0_out)
    raise EscalationStuck(f"gamma doubled {MAX_DOUBLINGS} times without h({b0}) < 0")


@dataclass(frozen=True)
class DivisorBoundCertificate:
    """Chained escalation traces proving |v| >= final_bound for prime index n.

    Each trace starts at or below the bound proved before it (initial_bound
    for the first) and ends above it.  The last one mostly starts a few bits
    past the square root of target_bound, so final_bound lands a few bits
    past the target rather than near its square.
    """
    n: int
    target_bound: int
    initial_bound: int
    traces: tuple[EscalationTrace, ...]
    final_bound: int
    c_exclusion: int      # certified: any square a_n(c) needs c > this

    @property
    def gamma_doublings(self) -> int:
        return sum(t.doublings for t in self.traces)


def _start_bits(n: int, magnitude_bits: int) -> int:
    """First precision for a rounding of xi B^2 or sqrt(X / xi), of
    magnitude_bits bits.  xi is 1 - 0.38 / N to first order, so when B^2 or X
    is small against N the value lies about 2^-(n-1) from an integer."""
    return max(n, magnitude_bits) + 64


def _xi_enclosure(n: int, B: int, side: Tables) -> rounding.Enclosure:
    """One enclosure of xi, from the given side's tables, that starts at the
    precision floor(xi B^2) needs; it serves any bound up to B, each rounding
    scaling it exactly by that bound squared."""
    N = (1 << (n - 1)) - 1
    return rounding.Enclosure(lambda prec: _xi(prec, N, side), _start_bits(n, 2 * B.bit_length()))


def c_exclusion_bound(n: int, B: int) -> int:
    """Certified floor of xi B^2, xi = theta^2 (3 - 2 sqrt 2)^(1/N)."""
    return _xi_enclosure(n, B, _PROVER).floor(B * B)


def required_divisor_bound(n: int, x_bound: int) -> int:
    """Smallest B whose exclusion bound certifies c > x_bound:
    B = floor(sqrt(x_bound / xi)) + 1.

    xi^N = 4 (3 - 2 sqrt 2) is irrational, so xi B^2 and sqrt(x_bound / xi)
    are irrational for integers B, x_bound > 0, and both floors are exact
    and never meet an integer.  B > sqrt(x_bound / xi) gives
    xi B^2 > x_bound, so c_exclusion_bound(n, B) >= x_bound; and
    B - 1 < sqrt(x_bound / xi) gives xi (B - 1)^2 < x_bound, so
    c_exclusion_bound(n, B - 1) < x_bound.
    """
    N = (1 << (n - 1)) - 1

    def build(prec):
        # the square root halves the relative error of x_bound / xi, whose
        # absolute error is x_bound that of xi
        w = prec + x_bound.bit_length() // 2 + 8
        lo, hi = _xi(w, N, _PROVER)
        top = x_bound << 2 * w
        r_lo, r_hi = rounding.sqrt(top // hi, rounding.ceil_div(top, lo), w)
        return r_lo >> (w - prec), -(-r_hi >> (w - prec))

    return rounding.Enclosure(build, _start_bits(n, x_bound.bit_length() // 2)).floor() + 1


def prove_divisor_bound(n: int, target_bound: int,
                        initial: int | None = None) -> DivisorBoundCertificate:
    """Escalate from the initial bound until it exceeds the target.

    initial is initial_divisor_bound(n), passed by a caller that already
    holds it so that it is not enclosed again.  Each pass starts from the
    bound b0 proved so far, except the one that will clear the target: once
    short = isqrt(target_bound) << SHORT_MARGIN is below b0, the pass starts
    from short.  Any start at or below b0 is a valid premise, since |v| >= b0
    is already proved.  A pass's cost grows with the square of its start's
    bits, so the shortened pass costs down to a quarter of one from b0,
    which lies anywhere between the target's square root and the target.
    A shortened pass that does not clear the target is dropped, and that
    pass and any after it run from b0.
    """
    if initial is None:
        initial = initial_divisor_bound(n, _PROVER)
    b0 = initial
    short = math.isqrt(target_bound) << SHORT_MARGIN
    traces: list[EscalationTrace] = []
    while b0 <= target_bound:
        if len(traces) >= MAX_PASSES:
            raise EscalationStuck(f"{MAX_PASSES} passes without reaching the target")
        tr = None
        if short < b0:     # tried once: after a miss, every pass starts from b0
            tr, short = escalation_pass(n, short), 0
        if tr is None or tr.b0_out <= target_bound:
            tr = escalation_pass(n, b0)
        traces.append(tr)
        b0 = tr.b0_out
    return DivisorBoundCertificate(n, target_bound, initial, tuple(traces), b0,
                                   c_exclusion_bound(n, b0))


# --- independent trace checking ---------------------------------------------

def _ints(*xs) -> bool:
    return all(isinstance(x, int) for x in xs)


def _is_pair(p) -> bool:
    return isinstance(p, tuple) and len(p) == 2 and _ints(*p)


def _trace_bits(trace: EscalationTrace) -> int:
    """The checker's working precision for a trace, 8 bits(B0) + 64, after
    the checks that need no enclosure (see check_trace)."""
    n, b0, out = trace.n, trace.b0_in, trace.b0_out
    if not (_ints(n, b0, out) and b0 > 0):
        raise TraceError("n and the bounds are not integers with b0_in > 0")
    bits = 8 * b0.bit_length() + 64
    if not 5 <= n <= bits:
        raise TraceError("prime index out of range")
    doublings, pts = trace.doublings, trace.points
    if not (isinstance(doublings, int) and 0 <= doublings <= MAX_DOUBLINGS):
        raise TraceError("gamma doublings out of range")
    if not (isinstance(pts, tuple) and len(pts) == 4 and all(map(_is_pair, pts))
            and len(set(pts)) == 4):
        raise TraceError("points are not 4 distinct integer pairs")
    return bits


def check_trace(trace: EscalationTrace, theta: rounding.Enclosure | None = None,
                delta2: rounding.Enclosure | None = None) -> None:
    """Re-verify one trace from its stored integers alone.

    A trace holds n, B0 = b0_in, the gamma doublings of its successful
    attempt, that attempt's four points as coefficient pairs (v_j, u_j), and
    b0_out.  Everything else is recomputed here, nothing compared with a
    stored copy: theta^2 B0^8 and the target from an enclosure of theta,
    and the lattice scale, d and the x^6 coefficient from one of delta^2 at
    gamma = 2^doublings delta^2; sigma from the points; then h(B0) < 0 and
    b0_out as the edge of the h-window are tested.

    The checker picks its own precision from B0, bits = 8 bits(B0) + 64
    (enough for the roundings of B0^8 multiples), so a trace cannot set what
    its check costs.  Before any enclosure is built, n and both bounds must
    be integers with B0 > 0 and 5 <= n <= bits (N >= 15, and N no wider than
    the precision, which every honest trace meets with room: a chain only
    runs when the target exceeds the initial bound, about 2^(n-1) / ln 4,
    and starts each pass at that bound or past the target's square root, so
    B0 has at least about (n - 1) / 2 bits), the doublings must lie in
    [0, MAX_DOUBLINGS], and the points must be 4 distinct integer pairs.
    Called alone, it encloses theta once at bits and delta^2 once at
    2 * bits of absolute precision (d = delta^2 B0^16 scales it by twice the
    bits of B0^8), refining only when a rounding is undecided.
    check_divisor_certificate instead passes theta and delta^2 for the
    trace's n from the checker's tables, sized once per prime from its
    largest B0.  Every rounding is the exact half-up, ceiling or floor of
    the real value, whatever precision decides it, so the verdict does not
    depend on which enclosures it is given.  The checker runs the same
    builders and roundings as the producer; what it keeps apart is its own
    cached ln 2 and L = log(3 + 2 sqrt 2), which the producer never reads,
    and the integers it recomputes from the trace.  Not yet checked: that
    the points are the four nearest to the target, so a trace that stores
    other lattice points can overstate b0_out.  Raises TraceError on any
    failure.
    """
    bits = _trace_bits(trace)
    n, b0, out, pts = trace.n, trace.b0_in, trace.b0_out, trace.points
    N = (1 << (n - 1)) - 1
    if theta is None or delta2 is None:
        theta, delta2 = _enclosures(N, bits, _CHECKER)
    b0_4 = b0 ** 4
    b0_8 = b0_4 * b0_4
    t2, tgt = _theta_roundings(theta, N, b0_8)
    scale_a, x6 = _gamma_scales(delta2, b0_4, b0_8)(trace.doublings)
    sigma = _adjusted_sigma(pts, scale_a, t2, b0_8, tgt)
    d = delta2.ceil(b0_8 * b0_8)
    if _h_cubic(x6, sigma, d, b0 * b0) >= 0:
        raise TraceError("h(B0) is not negative")
    if out <= b0:
        raise TraceError("no progress")
    if _h_cubic(x6, sigma, d, (out - 1) ** 2) > 0 or _h_cubic(x6, sigma, d, out * out) <= 0:
        raise TraceError("outgoing bound is not the h-window edge")


def check_divisor_certificate(cert: DivisorBoundCertificate) -> rounding.Enclosure:
    """Check the chain of traces and the exclusion bound.  Returns the
    checker's xi enclosure, sized for the final bound, so that a caller can
    round xi B^2 for a smaller B without enclosing xi again.

    The chain rule is 0 < b0_in <= b0 < b0_out, b0 the bound proved so far
    (the initial bound, then each trace's b0_out).  It is sound: a checked
    trace shows that every solution with |v| >= b0_in has |v| >= b0_out, and
    |v| >= b0 >= b0_in is already proved, so |v| >= b0_out, a larger bound.
    A trace may thus start below the proved bound, as the last one of an
    honest chain does.  No trace may start past target_bound: a pass only
    runs while the bound proved so far is at most the target, and the
    shortened last pass starts below it.  So the target caps the precision
    the traces can ask for.

    The chain and every trace's cheap checks come first.  Then theta and
    delta^2 are enclosed once for the prime, at the precision check_trace
    would pick for the largest b0_in (delta^2 at twice it), and every trace
    is checked against them; a smaller B0 is rounded from the same
    enclosures, exactly.
    """
    if cert.initial_bound != initial_divisor_bound(cert.n, _CHECKER):
        raise TraceError("initial bound mismatch")
    b0 = cert.initial_bound
    for tr in cert.traces:
        if tr.n != cert.n or not (_ints(tr.b0_in, tr.b0_out)
                                  and 0 < tr.b0_in <= b0 < tr.b0_out):
            raise TraceError("broken trace chain")
        if tr.b0_in > cert.target_bound:
            raise TraceError("trace starts past the target bound")
        b0 = tr.b0_out
    if b0 != cert.final_bound or b0 <= cert.target_bound:
        raise TraceError("final bound does not clear the target")
    if cert.traces:
        bits = max(map(_trace_bits, cert.traces))
        theta, delta2 = _enclosures((1 << (cert.n - 1)) - 1, bits, _CHECKER)
        for tr in cert.traces:
            check_trace(tr, theta, delta2)
    xi = _xi_enclosure(cert.n, cert.final_bound, _CHECKER)
    if xi.floor(cert.final_bound ** 2) < cert.c_exclusion:
        raise TraceError("c exclusion bound overstated")
    return xi


# --- the full driver --------------------------------------------------------

@dataclass(frozen=True)
class StabEntry:
    prime: int
    required_bound: int
    initial_bound: int
    certificate: DivisorBoundCertificate | None   # None when initial suffices


@dataclass(frozen=True)
class StabCertificate:
    """a_p(c) is never a square for any even 4 <= c <= x_bound and any prime
    5 <= p <= prime_cap; plus direct sieve facts for c in {1, 2, 3, 4}."""
    x_bound: int
    prime_cap: int
    entries: tuple[StabEntry, ...]
    small_c: tuple[tuple[int, SieveCertificate], ...]

    @property
    def gamma_doublings(self) -> int:
        return sum(e.certificate.gamma_doublings for e in self.entries
                   if e.certificate is not None)


SMALL_C_PRIME_CAP = 50


def _small_c_certificates() -> list[tuple[int, SieveCertificate]]:
    out = []
    for c in (1, 2, 3, 4):
        cert = find_sieve_certificate(c, NumeratorTarget(), SMALL_C_PRIME_CAP,
                                      max_values=None)
        if cert is None or cert.start > 3:
            raise EscalationStuck(f"no small-c certificate for c={c}")
        out.append((c, cert))
    return out


def stab_entry_for_prime(p: int, x_bound: int) -> StabEntry:
    """The per-prime unit of work: escalate unless the initial bound suffices."""
    required = required_divisor_bound(p, x_bound)
    b0 = initial_divisor_bound(p, _PROVER)
    if b0 >= required:
        return StabEntry(p, required, b0, None)
    return StabEntry(p, required, b0, prove_divisor_bound(p, required, b0))


def verify_no_squares_up_to(x_bound: int, progress=None,
                            jobs: int = 1) -> StabCertificate:
    """Run the per-prime escalation for every prime that could matter.

    Primes above the cap need no work: their initial bound already exceeds
    what the target requires.  c in {1, 2, 3} (and the even c = 4 below the
    lattice's reach) carry direct modular certificates.  Distinct primes are
    independent; jobs > 1 farms them out, with the aggregate ordered by
    prime regardless of completion order.
    """
    if x_bound < 4:
        raise ValueError("x_bound must be >= 4")
    cap = stable_iterate_bound(x_bound)
    primes = [p for p in primes_to(cap) if p >= 5]
    entries: list[StabEntry] = []
    if jobs > 1:
        import concurrent.futures as cf
        with cf.ProcessPoolExecutor(max_workers=jobs) as ex:
            futs = {ex.submit(stab_entry_for_prime, p, x_bound): p for p in primes}
            done = {}
            for fut in cf.as_completed(futs):
                done[futs[fut]] = fut.result()
                if progress:
                    progress(futs[fut], cap)
        entries = [done[p] for p in primes]
    else:
        for p in primes:
            entries.append(stab_entry_for_prime(p, x_bound))
            if progress:
                progress(p, cap)
    return StabCertificate(x_bound, cap, tuple(entries), tuple(_small_c_certificates()))


def check_stab_certificate(cert: StabCertificate) -> None:
    cap = stable_iterate_bound(cert.x_bound)
    if cert.prime_cap < cap:
        raise TraceError("prime cap below the recomputed requirement")
    primes = [p for p in primes_to(cert.prime_cap) if p >= 5]
    if [e.prime for e in cert.entries] != primes:
        raise TraceError("prime coverage incomplete")
    for e in cert.entries:
        # one xi enclosure per prime, sized for the larger of the required
        # and the final bound, serves both exclusion roundings
        if e.certificate is None:
            if e.initial_bound < e.required_bound:
                raise TraceError(f"missing escalation at p={e.prime}")
            if initial_divisor_bound(e.prime, _CHECKER) != e.initial_bound:
                raise TraceError(f"initial bound mismatch at p={e.prime}")
            xi = _xi_enclosure(e.prime, e.required_bound, _CHECKER)
        else:
            # check_divisor_certificate recomputes the certificate's initial
            # bound, which the entry's must equal
            if e.certificate.n != e.prime or \
                    e.certificate.target_bound != e.required_bound or \
                    e.certificate.initial_bound != e.initial_bound:
                raise TraceError(f"certificate mismatch at p={e.prime}")
            xi = check_divisor_certificate(e.certificate)
        if xi.floor(e.required_bound ** 2) < cert.x_bound:
            raise TraceError(f"required bound too small at p={e.prime}")
    if [c for c, _ in cert.small_c] != [1, 2, 3, 4]:
        raise TraceError("small-c coverage is not c = 1, 2, 3, 4")
    for c, sc in cert.small_c:
        verify_sieve_certificate(sc, c, NumeratorTarget())
        if sc.start > 3:
            raise TraceError(f"small-c certificate starts too late for c={c}")
