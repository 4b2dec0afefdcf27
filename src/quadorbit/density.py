"""Densities of primes dividing forward orbits of x^2 + 1/c.

A prime p divides the orbit of t when some nonzero orbit value has positive
p-adic valuation; modulo p that is a visit of the residue orbit to 0 at an
index where the exact value is nonzero.  Any prime dividing the orbit of t
(through an index >= 1) must have -c a quadratic residue, which keeps the
dividing primes inside a set of density 1/2; the profile reports observed
fractions at checkpoints and audits that residue invariant.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .primes import sieve_primes
from .sieve import ModOrbit, jacobi


class ExcludedPrime(ValueError):
    """p divides c or the denominator of t; the reduction is undefined."""


def _exact_zero_index(c: int, t: Fraction, max_steps: int = 64) -> int | None:
    """The unique index n with f^n(t) = 0 exactly, if any.

    The orbit can visit 0 at most once (0 is never periodic for |c| >= 2),
    and only while denominators remain small: once den(x) > c^2 the heights
    grow monotonically and 0 is out of reach.
    """
    r = Fraction(1, c)
    x = Fraction(t)
    bound = max(4, c * c)
    for n in range(max_steps):
        if x == 0:
            return n
        if x.denominator > abs(bound) and x.numerator != 0:
            return None
        x = x * x + r
    return None


def divides_orbit(p: int, c: int, t: Fraction | int) -> bool:
    """Does p divide some nonzero value of the orbit of t under x^2 + 1/c?"""
    t = Fraction(t)
    if c % p == 0 or t.denominator % p == 0:
        raise ExcludedPrime(f"p = {p} divides c or the denominator of t")
    x = (t.numerator % p) * pow(t.denominator % p, -1, p) % p
    orbit = ModOrbit.of(pow(c % p, -1, p), p, x)
    if 0 in orbit.cycle:
        return True  # infinitely many visits; at most one can be the exact zero
    # orbit values are distinct, so 0 sits in the tail at most once
    return 0 in orbit.tail and orbit.tail.index(0) != _exact_zero_index(c, t)


@dataclass(frozen=True)
class Checkpoint:
    bound: int
    dividing: int
    primes: int

    @property
    def fraction(self) -> float:
        return self.dividing / self.primes if self.primes else 0.0


@dataclass(frozen=True)
class DensityProfile:
    c: int
    t: str
    bound: int
    checkpoints: tuple[Checkpoint, ...]
    excluded: tuple[int, ...]
    violations: tuple[int, ...]
    hypothesis_met: bool        # -c and c+1 both non-squares


def density_profile(c: int, t: Fraction | int, bound: int,
                    checkpoints: tuple[int, ...] | None = None) -> DensityProfile:
    from .orbit import is_perfect_square

    t = Fraction(t)
    if checkpoints is None:
        checkpoints = tuple(10 ** k for k in range(3, len(str(bound))))
    marks = sorted(set(b for b in checkpoints if b <= bound) | {bound})
    hypothesis = not is_perfect_square(-c) and not is_perfect_square(c + 1)
    excluded: list[int] = []
    violations: list[int] = []
    out: list[Checkpoint] = []
    dividing = considered = 0
    mark_iter = iter(marks)
    mark = next(mark_iter)
    for p in sieve_primes(bound):
        while p > mark:
            out.append(Checkpoint(mark, dividing, considered))
            mark = next(mark_iter)
        if c % p == 0 or t.denominator % p == 0:
            excluded.append(p)
            continue
        considered += 1
        if divides_orbit(p, c, t):
            dividing += 1
            if p != 2 and (2 * c) % p != 0 and jacobi(-c % p, p) != 1:
                violations.append(p)
    out.append(Checkpoint(mark, dividing, considered))
    return DensityProfile(c, str(t), bound, tuple(out), tuple(excluded),
                          tuple(violations), hypothesis)


def profile_rows(profile: DensityProfile) -> list[tuple]:
    """CSV/plot rows: (bound, dividing, primes, fraction)."""
    return [(cp.bound, cp.dividing, cp.primes, f"{cp.fraction:.6f}")
            for cp in profile.checkpoints]
