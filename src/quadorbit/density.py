"""Densities of primes dividing forward orbits of x^2 + 1/c.

A prime p divides the orbit of t when some nonzero orbit value has positive
p-adic valuation; modulo p that is a visit of the residue orbit to 0 at an
index where the exact value is nonzero.  Any prime dividing the orbit of t
through an index >= 1 must have -c a quadratic residue, which keeps the
dividing primes inside a set of density 1/2 (Jones, J. London Math. Soc. 78,
2008); the profile reports observed fractions at checkpoints.

Modulo p the orbit is that of x0 = t under f(x) = x^2 + c0, c0 = 1/c, and
zero_index is the index where the exact orbit value is 0, if any (it depends
on c and t only).  Each prime is decided in this order.

1. The preimage tree of 0, for odd p.  The points whose orbit reaches 0 are
   searched level by level from 0: a node y has the preimages
   +-sqrt(y - c0) when y - c0 is a nonzero square mod p, none when it is a
   non-residue, and only 0 when y = c0.  The root level is the residue test:
   0 has a preimage only when -c0, and so -c, is a square.  A search that
   closes without meeting c0 = f(0) proves 0 non-periodic, since a periodic
   0 would put f(0) among the points that reach 0.  Then no node repeats, the
   tree holds every point that reaches 0, and the orbit of x0 visits 0 at
   most once: a second visit would make 0 periodic.  It visits 0 exactly
   when x0 is a node, at the index depth(x0), so p divides iff x0 is a node
   and depth(x0) != zero_index.  About half the primes close at the root.
2. The walk, when the search meets c0 (0 is periodic), outgrows its node
   budget, or p = 2: step x0 under f, adding each value to a set, until a
   value repeats; that value is where the cycle starts.  A walk that never
   met 0 gives no division.  When x0 = 0, 0 is the first value and lies on
   the cycle exactly when the cycle starts at 0; off the cycle it is visited
   once, at index 0, and divides unless zero_index is 0.  Otherwise the cycle
   is walked once more to see whether it holds 0, and if not, the index of
   the single visit to 0 is compared with zero_index.

The node budget weighs a search against the walk it may save.  A walk from
0 takes about 1.25 sqrt(p) set steps (the mean over 1500 primes in
(1e5, 3e5) with random c0), and one node, a square root by one or two
modular powers, costs about TREE_NODE_STEPS set steps.  Under the
random-mapping model (Flajolet and Odlyzko, EUROCRYPT '89) each node has two
preimages or none with even odds, so the tree is near a critical
Galton-Watson tree, whose size exceeds n with probability
P(n) ~ sqrt(2 / (pi n)).  With a budget of B nodes a prime costs
TREE_NODE_STEPS * E[min(size, B)] + P(B) * 1.25 sqrt(p) steps, and since
P'(B) = -P(B) / (2B), its derivative in B,
(TREE_NODE_STEPS - 1.25 sqrt(p) / (2B)) P(B), vanishes at
B = 5 sqrt(p) / (8 TREE_NODE_STEPS), about sqrt(p) / 21.

The profile audits the tree against the walk: every prime below AUDIT_BELOW
that the tree decided is walked too, and a prime where the two answers
differ is recorded as a violation.  The primes whose tree is the root alone
are among them, so the residue invariant is checked there, not assumed.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .primes import is_prime, sieve_primes


AUDIT_BELOW = 1000   # the profile walks every tree-decided prime below this

# One node of the preimage tree in set steps of the walk.  Over 1500 primes
# in (1e5, 3e5) on a 2-vCPU VM (CPython 3.11) a set step took 0.16-0.19 us
# and a node 2.1-2.3 us, most of it the square root's pow(a, e, p): 12.3 to
# 13 steps.  The node budget in _by_tree follows from it (see above); budgets
# from sqrt(p) / 12 to sqrt(p) / 32 timed within 12% of each other over
# density_profile(c, 0, 3e5) for c = 904, -383, 610.
TREE_NODE_STEPS = 13


class ExcludedPrime(ValueError):
    """p divides c or the denominator of t; the reduction is undefined."""


class _NoNonResidue(ArithmeticError):
    """Tonelli-Shanks found no non-residue under its search cap."""


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


def _square_root(p: int):
    """For an odd prime p, a function taking a nonzero a mod p to a square
    root of a, or to None when a is a non-residue.

    p = 3 (mod 4): a^((p+1)/4), checked by squaring.  p = 5 (mod 8): Atkin's
    a b (2 a b^2 - 1) with b = (2a)^((p-5)/8), checked by squaring.
    p = 1 (mod 8): Tonelli-Shanks, which needs a non-residue z only for a
    residue a with a^q != 1 (p - 1 = q 2^s, q odd): a non-residue is told
    apart before z is used, so z is searched for by the first root that
    needs it, and a tree that closes at its root never searches.  The least
    non-residue is an odd prime, since 2 is a residue mod such p, so the
    search tries odd z only, and it stops below bit_length(p)^2 (past
    2 ln(p)^2, which bounds the least non-residue under GRH, Bach 1990); the
    root that needed it raises _NoNonResidue when it finds none.  For a
    composite p the roots are wrong, and no non-residue z may exist at all
    (p = 9), so callers check p.
    """
    if p % 4 == 3:
        e = (p + 1) // 4

        def root(a: int) -> int | None:
            r = pow(a, e, p)
            return r if r * r % p == a else None
        return root
    if p % 8 == 5:
        e = (p - 5) // 8

        def root(a: int) -> int | None:
            b = pow(2 * a, e, p)
            r = a * b * (2 * a * b * b - 1) % p
            return r if r * r % p == a else None
        return root
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    half, e = (p - 1) // 2, (q - 1) // 2
    found: list[int] = []                        # z^q, once a root needed it

    def nonresidue_power() -> int:
        if not found:
            z = next((z for z in range(3, min(p, p.bit_length() ** 2), 2)
                      if pow(z, half, p) == p - 1), None)
            if z is None:
                raise _NoNonResidue(p)
            found.append(pow(z, q, p))
        return found[0]

    def root(a: int) -> int | None:
        b = pow(a, e, p)
        r, t = a * b % p, a * b * b % p          # a^((q+1)/2), a^q
        m, g = s, None
        while t != 1:
            i, u = 1, t * t % p                  # the least i with t^(2^i) = 1
            while u != 1:
                i += 1
                if i == m:
                    return None                  # t has order 2^s: a non-residue
                u = u * u % p
            if g is None:
                g = nonresidue_power()
            b = pow(g, 1 << (m - i - 1), p)
            m, g = i, b * b % p
            r, t = r * b % p, t * g % p
        return r
    return root


def _tree_budget(p: int) -> int:
    """The most nodes the preimage tree of 0 mod p may have (see above)."""
    return max(3, 5 * isqrt(p) // (8 * TREE_NODE_STEPS))


def _by_tree(p: int, c0: int, x0: int, zero_index: int | None) -> bool | None:
    """Decide p from the preimage tree of 0 under x -> x^2 + c0 mod p: does
    the orbit of x0 visit 0 at an index other than zero_index?  None when
    p = 2, 0 is periodic, the tree has more than _tree_budget(p) nodes, or
    _square_root finds no non-residue; the walk decides those."""
    if p == 2:
        return None
    root = _square_root(p)
    budget = _tree_budget(p)
    depth = 0 if x0 == 0 else None
    level, d = [0], 0
    while level:
        if len(level) > budget:
            return None
        budget -= len(level)
        d += 1
        below = []
        for y in level:
            if y == c0:
                return None          # f(0) reaches 0: 0 is periodic
            try:
                r = root((y - c0) % p)
            except _NoNonResidue:
                return None
            if r is not None:
                below += (r, p - r)
                if r == x0 or r == p - x0:
                    depth = d
        level = below
    return depth is not None and depth != zero_index


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
    """divides_orbit(p, c, num/den) for a prime p dividing neither c nor den,
    with zero_index = _exact_zero_index(c, num/den)."""
    c0 = pow(c, -1, p)
    x0 = num * pow(den, -1, p) % p
    decided = _by_tree(p, c0, x0, zero_index)
    return _walk(p, c0, x0, zero_index) if decided is None else decided


def _check_c(c: int) -> None:
    if c in (0, -1):
        raise ValueError("c must avoid 0 and -1")


def divides_orbit(p: int, c: int, t: Fraction | int) -> bool:
    """Does the prime p divide some nonzero value of the orbit of t under
    x^2 + 1/c?"""
    _check_c(c)
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
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
    # primes below AUDIT_BELOW where the tree's decision and the walk's
    # differ; empty unless one of the two is wrong
    violations: tuple[int, ...]
    hypothesis_met: bool        # -c and c+1 both non-squares
    # the primes each route decided: the preimage tree, the walk, and the
    # tree decisions walked again as the audit
    by_tree: int
    by_walk: int
    audited: int


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
    dividing = considered = by_walk = audited = 0
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
        c0 = pow(c, -1, p)
        x0 = num * pow(den, -1, p) % p
        divides = _by_tree(p, c0, x0, zero_index)
        if divides is None:
            by_walk += 1
            divides = _walk(p, c0, x0, zero_index)
        elif p < AUDIT_BELOW:
            audited += 1
            if _walk(p, c0, x0, zero_index) != divides:
                violations.append(p)
        dividing += divides
    out.append(Checkpoint(mark, dividing, considered))
    return DensityProfile(c, str(t), bound, tuple(out), tuple(excluded),
                          tuple(violations), hypothesis,
                          considered - by_walk, by_walk, audited)


def profile_rows(profile: DensityProfile) -> list[tuple]:
    """CSV/plot rows: (bound, dividing, primes, fraction)."""
    return [(cp.bound, cp.dividing, cp.primes, f"{cp.fraction:.6f}")
            for cp in profile.checkpoints]
