"""Exhaustive and rebuilt references that the tests compare the program with.

find_coprime_power_split searches every coprime split of c for the one a
square a_n would force; lattice_attempt rebuilds one attempt of an
escalation pass, with the values a trace does not store; from_ctx makes an
enclosure builder of an mpmath interval expression, the reference the
integer enclosures are tested against; cut_reduce is the greedy loop the
cold start once ran on its cut vectors, which lagrange_reduce with a floor
replaced.
"""
from __future__ import annotations

from dataclasses import dataclass

from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import mpf_shift, round_ceiling, round_floor, to_int

from quadorbit import lattice, rounding
from quadorbit.orbit import DEFAULT_BIT_BUDGET, critical_numerators
from quadorbit.primes import factorize


def coprime_splits(c: int) -> list[tuple[int, int]]:
    """All ordered pairs (u, v) of coprime positive integers with u*v = |c|.

    Each prime power of c goes wholly to one side.
    """
    pps = [p ** e for p, e in factorize(c).items()]
    splits = []
    for mask in range(1 << len(pps)):
        u = 1
        for i, q in enumerate(pps):
            if mask >> i & 1:
                u *= q
        splits.append((u, abs(c) // u))
    return sorted(set(splits))


@dataclass(frozen=True)
class FactorSplit:
    c: int
    n: int
    u: int
    v: int


def find_coprime_power_split(c: int, n: int,
                             bit_budget: int = DEFAULT_BIT_BUDGET) -> FactorSplit | None:
    """Exhaustive search for the coprime split a square a_n would force.

    Even c: coprime c = u*v with u even and 4 v^N - u^N = 4 a_{n-1}(c), both
    sign patterns.  Odd c: v^N - u^N = 2 a_{n-1}(c) with positive u, v.
    N = 2^(n-1) - 1.
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    N = (1 << (n - 1)) - 1
    a_prev = critical_numerators(c, n - 1, bit_budget)[-1]
    for u0, v0 in coprime_splits(c):
        for u, v in ((u0, v0), (v0, u0)):
            if c % 2 == 0:
                if u % 2 != 0:
                    continue
                for sign in (1, -1):
                    uu, vv = sign * u, sign * v
                    if 4 * vv ** N - uu ** N == 4 * a_prev:
                        return FactorSplit(c, n, uu, vv)
            else:
                if v ** N - u ** N == 2 * a_prev:
                    return FactorSplit(c, n, u, v)
    return None


@dataclass(frozen=True)
class Attempt:
    scale_a: int                       # rounded gamma * B0^4 (first basis entry)
    basis: tuple[tuple[int, int], tuple[int, int]]
    target: tuple[int, int]
    points: tuple[tuple[int, int], ...]   # coefficient pairs (v_j, u_j)
    sigma: int
    h_negative_at_b0: bool


def lattice_attempt(n: int, b0: int, doublings: int) -> Attempt:
    """The attempt of escalation_pass(n, b0) at the given gamma doublings,
    from lattice's own helpers: _theta_roundings, the producer's delta^2
    enclosure, closest_points (cold) and _adjusted_sigma."""
    N = (1 << (n - 1)) - 1
    bits = 8 * b0.bit_length() + 64
    b0_4 = b0 ** 4
    b0_8 = b0_4 * b0_4
    t2, tgt = lattice._theta_roundings(N, b0_8, bits, lattice._PROVER)
    delta2 = rounding.Enclosure(lambda prec: lattice._delta2(prec, N, lattice._PROVER),
                                2 * bits)
    scale_a, x6 = lattice._gamma_scale(delta2, doublings, b0_4, b0_8)
    basis = ((scale_a, t2), (0, -b0_8))
    points = tuple(p.coeffs for p in lattice.closest_points(basis, (0, tgt), 4)[0])
    sigma = lattice._adjusted_sigma(points, scale_a, t2, b0_8, tgt)
    h = lattice._h_poly(x6, sigma, delta2.ceil(b0_8 * b0_8))
    return Attempt(scale_a, basis, (0, tgt), points, sigma, h(b0) < 0)


_CONTEXT = MPIntervalContext()


def from_ctx(build, guard: int = 0):
    """The enclosure builder of an mpmath interval expression: build(ctx) in
    an interval context at prec + guard bits, its endpoints cut outward to
    integers over 2^prec.  mpmath rounds its interval sqrt, log and division
    outward, but not its exp, which can fall ulps short above a few thousand
    bits; guard bits keep such a miss far below the cut."""
    def integer_build(prec: int) -> tuple[int, int]:
        _CONTEXT.prec = prec + guard
        lo, hi = build(_CONTEXT)._mpi_
        return (to_int(mpf_shift(lo, prec), round_floor),
                to_int(mpf_shift(hi, prec), round_ceiling))
    return integer_build


def cut_reduce(u, v, floor: int):
    """Greedy steps on the cut vectors u, v until the shorter norm is below
    floor or the pair is reduced.  Returns the rows of the shorter and the
    longer result over (u, v), and the number of nonzero quotients."""
    nu = u[0] * u[0] + u[1] * u[1]
    nv = v[0] * v[0] + v[1] * v[1]
    dot = u[0] * v[0] + u[1] * v[1]
    p0, p1, q0, q1 = 1, 0, 0, 1
    if nu > nv:
        p0, p1, q0, q1, nu, nv = 0, 1, 1, 0, nv, nu
    steps = 0
    while nu >= floor:
        m = (2 * dot + nu) // (2 * nu)
        if m:
            q0 -= m * p0
            q1 -= m * p1
            nv += m * (m * nu - 2 * dot)
            dot -= m * nu
            steps += 1
        if nv >= nu:
            break
        p0, p1, q0, q1, nu, nv = q0, q1, p0, p1, nv, nu
    return (p0, p1), (q0, q1), steps
