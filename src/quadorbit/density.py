"""Densities of primes dividing forward orbits of x^2 + 1/c.

A prime p divides the orbit of t when some nonzero orbit value has positive
p-adic valuation; modulo p that is a visit of the residue orbit to 0 at an
index where the exact value is nonzero.  Any prime dividing the orbit of t
through an index >= 1 must have -c a quadratic residue, which keeps the
dividing primes inside a set of density 1/2 (Jones, J. London Math. Soc. 78,
2008); the profile reports observed fractions at checkpoints.

The residue test decides a prime first.  A value x with x^2 + 1/c = 0 mod p
needs -1/c, and so -c, to be a square mod p.  For odd p with (-c/p) = -1, 0
has no preimage mod p and the orbit can be 0 at index 0 only: p divides
exactly when it divides t and t is not itself the exact zero.  That settles
about half the primes with one Jacobi symbol.

Every other prime, and p = 2, takes one walk: step t mod p under
x -> x^2 + 1/c, adding each value to a set, until a value repeats; that value
is where the cycle starts.  A walk that never met 0 gives no division.  When
t = 0 mod p, 0 is the first value and lies on the cycle exactly when the cycle
starts at 0; off the cycle it is visited once, at index 0, and divides unless
the exact orbit value there is 0.  Otherwise (rare) the cycle is walked once
more to see whether it holds 0, and if not, the index of the single visit to
0 is compared with the index of the exact zero, which depends on c and t only.

The profile audits the residue test against the walk: every prime below
AUDIT_BELOW that the test decided is also walked from f(t), and a division
the walk finds there at an index >= 1 is recorded as a violation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .primes import sieve_primes
from .sieve import jacobi


AUDIT_BELOW = 1000   # the profile walks every prime below this, decided or not


class ExcludedPrime(ValueError):
    """p divides c or the denominator of t; the reduction is undefined."""


def _exact_zero_index(c: int, t: Fraction, max_steps: int = 64) -> int | None:
    """The unique index n with f^n(t) = 0 exactly, if any.

    The orbit can visit 0 at most once (0 is never periodic for |c| >= 2),
    and only while it stays small: once den(x) > c^2 the heights grow
    monotonically, and once |x| > 1 + |1/c|, |f(x)| >= |x|^2 - |1/c| > |x|,
    so |x| only grows.  Either way 0 is out of reach.  The second test ends
    orbits that stay in Z, as for c = 1 and integer t.
    """
    r = Fraction(1, c)
    x = Fraction(t)
    bound = max(4, c * c)
    escape = 1 + abs(r)
    for n in range(max_steps):
        if x == 0:
            return n
        if (x.denominator > abs(bound) and x.numerator != 0) or abs(x) > escape:
            return None
        x = x * x + r
    return None


def _zero_has_no_preimage(p: int, c: int) -> bool:
    """p is odd and (-c/p) = -1, so x^2 + 1/c = 0 has no root mod p."""
    return p != 2 and jacobi(-c % p, p) == -1


def _walk(p: int, c0: int, x0: int, zero_index: int | None) -> bool:
    """Does the orbit of x0 under x -> x^2 + c0 mod p visit 0 at an index
    other than zero_index?"""
    # inline steps into a bare set: this loop runs once per walked prime
    seen: set[int] = set()
    add = seen.add
    x = x0
    while x not in seen:
        add(x)
        x = (x * x + c0) % p
    if 0 not in seen:
        return False
    if x0 == 0:
        return x == 0 or zero_index != 0
    cycle = {x}
    y = (x * x + c0) % p
    while y != x:
        cycle.add(y)
        y = (y * y + c0) % p
    if 0 in cycle:
        return True   # infinitely many visits; at most one can be the exact zero
    n, y = 0, x0      # 0 sits once in the tail, at the index of its first visit
    while y != 0:
        n, y = n + 1, (y * y + c0) % p
    return n != zero_index


def _divides(p: int, c: int, num: int, den: int, zero_index: int | None) -> bool:
    """divides_orbit(p, c, num/den) for p dividing neither c nor den, with
    zero_index = _exact_zero_index(c, num/den)."""
    if _zero_has_no_preimage(p, c):
        return num % p == 0 and zero_index != 0
    return _walk(p, pow(c, -1, p), num * pow(den, -1, p) % p, zero_index)


def _divides_after_index_0(p: int, c: int, num: int, den: int,
                           zero_index: int | None) -> bool:
    """Does the walk find a division at an index >= 1?

    It walks from f(t), so the exact zero moves one index down; an exact zero
    at index 0 never recurs, since 0 is not periodic for c outside {0, -1}.
    """
    c0 = pow(c, -1, p)
    x0 = num * pow(den, -1, p) % p
    return _walk(p, c0, (x0 * x0 + c0) % p, zero_index - 1 if zero_index else None)


def _check_c(c: int) -> None:
    if c in (0, -1):
        raise ValueError("c must avoid 0 and -1")


def divides_orbit(p: int, c: int, t: Fraction | int) -> bool:
    """Does p divide some nonzero value of the orbit of t under x^2 + 1/c?"""
    _check_c(c)
    t = Fraction(t)
    if c % p == 0 or t.denominator % p == 0:
        raise ExcludedPrime(f"p = {p} divides c or the denominator of t")
    return _divides(p, c, t.numerator, t.denominator, _exact_zero_index(c, t))


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
    # primes below AUDIT_BELOW that the residue test rules out but whose walk
    # finds a division at an index >= 1; empty unless one of the two is wrong
    violations: tuple[int, ...]
    hypothesis_met: bool        # -c and c+1 both non-squares


def density_profile(c: int, t: Fraction | int, bound: int,
                    checkpoints: tuple[int, ...] | None = None) -> DensityProfile:
    from .orbit import is_perfect_square

    _check_c(c)
    t = Fraction(t)
    num, den = t.numerator, t.denominator
    zero_index = _exact_zero_index(c, t)
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
        if c % p == 0 or den % p == 0:
            excluded.append(p)
            continue
        considered += 1
        if _divides(p, c, num, den, zero_index):
            dividing += 1
        if p < AUDIT_BELOW and _zero_has_no_preimage(p, c) \
                and _divides_after_index_0(p, c, num, den, zero_index):
            violations.append(p)
    out.append(Checkpoint(mark, dividing, considered))
    return DensityProfile(c, str(t), bound, tuple(out), tuple(excluded),
                          tuple(violations), hypothesis)


def profile_rows(profile: DensityProfile) -> list[tuple]:
    """CSV/plot rows: (bound, dividing, primes, fraction)."""
    return [(cp.bound, cp.dividing, cp.primes, f"{cp.fraction:.6f}")
            for cp in profile.checkpoints]
