"""Modular engine for the critical-orbit sequences.

Reduces the numerator sequence a_n, or a factor value sequence g(f^n(0)),
modulo small primes, detects the eventual cycle, and extracts certificates
of the form "from index n0 on, every value is a quadratic non-residue mod
p", which prove all but finitely many terms non-square in Q.  Also houses
the congruence table machinery and the published m-list rules of the g2 track.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources

from .factors import FactorPoly
from .orbit import (DEFAULT_BIT_BUDGET, BitBudgetExceeded, critical_numerators,
                    is_rational_square, isqrt_if_square, orbit_point)
from .primes import primes_to


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("n must be odd and positive")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@dataclass(frozen=True)
class ModOrbit:
    """A sequence mod k that runs through `tail` once, then repeats `cycle`.

    ModOrbit.of builds the orbit of x0 under x -> x^2 + c0 mod k, value(i)
    being the residue after i steps; a target's reduce() maps that orbit to
    the target's values along it.
    """
    k: int
    c0: int
    tail: tuple[int, ...]
    cycle: tuple[int, ...]

    @classmethod
    def of(cls, c0: int, k: int, x0: int = 0) -> "ModOrbit":
        # inline integer steps, no per-step callable: this loop runs once per
        # prime of a density profile.  The dict keeps the visiting order.
        seen: dict[int, None] = {}
        x = x0 % k
        while x not in seen:
            seen[x] = None
            x = (x * x + c0) % k
        values = tuple(seen)
        start = values.index(x)
        return cls(k, c0, values[:start], values[start:])

    @property
    def entry(self) -> int:
        """First index n >= 1 from which the sequence is periodic."""
        return max(len(self.tail), 1)

    @property
    def period(self) -> int:
        return len(self.cycle)

    def value(self, i: int) -> int:
        if i < len(self.tail):
            return self.tail[i]
        return self.cycle[(i - len(self.tail)) % len(self.cycle)]

    def prefix(self, n: int) -> tuple:
        """(value(0), ..., value(n - 1))."""
        reps = max(n - len(self.tail), 0) // len(self.cycle) + 1
        return (self.tail + self.cycle * reps)[:n]

    def map(self, fn) -> "ModOrbit":
        """The sequence fn(value(i)), with the same tail and cycle lengths."""
        # tuples from sized lists: tuple() of an unsized iterator grows by
        # resizing, which strands megabytes in CPython's per-size tuple free
        # lists over a table regeneration
        return replace(self, tail=tuple([fn(v) for v in self.tail]),
                       cycle=tuple([fn(v) for v in self.cycle]))


class NumeratorTarget:
    """The integer sequence a_n itself."""

    label = "a_n"

    def ok_mod(self, c: int, k: int) -> bool:
        return math.gcd(c, k) == 1

    def reduce(self, c: int, k: int) -> ModOrbit:
        """a_n mod k for c coprime to k.

        f^n(0) = a_n / c^(2^(n-1)), so a_n = x_n * y_n (mod k) with x_n the
        orbit of 0 under x^2 + 1/c and y_n = c^(2^(n-1)) the orbit of c under
        y -> y^2, taken one step behind.
        """
        x = ModOrbit.of(pow(c % k, -1, k), k)
        y = ModOrbit.of(0, k, c)
        tail = max(len(x.tail), len(y.tail) + 1)
        period = math.lcm(x.period, y.period)
        size = tail + period
        ys = (0,) + y.prefix(size - 1)   # ys[n] = y_n; a_0 = x_0 = 0
        values = tuple([a * b % k for a, b in zip(x.prefix(size), ys)])   # list: see map()
        return ModOrbit(k, x.c0, values[:tail], values[tail:])

    def exact(self, c: int, n: int, bit_budget: int = DEFAULT_BIT_BUDGET) -> Fraction:
        return Fraction(critical_numerators(c, n, bit_budget)[-1])

    def describe(self, c: int) -> str:
        return f"a_n(c={c})"


class FactorTarget:
    """The sequence g(f^n(0)) for a named factor polynomial g."""

    def __init__(self, g: FactorPoly):
        self.g = g
        self.label = g.name

    def ok_mod(self, c: int, k: int) -> bool:
        if math.gcd(c, k) != 1:
            return False
        return all(math.gcd(co.denominator, k) == 1 for co in self.g.coeffs)

    def reduce(self, c: int, k: int) -> ModOrbit:
        """g(x_n) mod k over the orbit x_n of 0 under x^2 + 1/c mod k."""
        x = ModOrbit.of(pow(c % k, -1, k), k)
        coeffs = [co.numerator * pow(co.denominator, -1, k) % k
                  for co in reversed(self.g.coeffs)]

        def g(v: int) -> int:
            acc = 0
            for a in coeffs:
                acc = (acc * v + a) % k
            return acc

        return x.map(g)

    def exact(self, c: int, n: int, bit_budget: int = DEFAULT_BIT_BUDGET) -> Fraction:
        return self.g(orbit_point(c, n, bit_budget))

    def describe(self, c: int) -> str:
        return f"{self.g.name}(f^n(0)) for c={c}"


Target = NumeratorTarget | FactorTarget


@dataclass(frozen=True)
class SieveCertificate:
    """From index `start` on, the reduced target sequence mod p runs through
    `values` periodically, and every listed value is a non-residue mod p."""
    p: int
    start: int
    kind: str               # "constant" | "two_cycle" | "cycle"
    values: tuple[int, ...]
    target: str

    @property
    def period(self) -> int:
        return len(self.values)


def _cycle_kind(period: int) -> str:
    return "constant" if period == 1 else ("two_cycle" if period == 2 else "cycle")


def _certificate_from_cycle(c: int, target: Target, p: int,
                            max_values: int | None) -> SieveCertificate | None:
    seq = target.reduce(c, p)
    m, L = seq.entry, seq.period
    window = [seq.value(n) for n in range(m, m + L)]
    d = next(cand for cand in range(1, L + 1)
             if L % cand == 0 and all(window[i] == window[i % cand] for i in range(L)))
    pattern = window[:d]
    if max_values is not None and len(set(pattern)) > max_values:
        return None
    if any(jacobi(v, p) != -1 for v in pattern):
        return None
    start = m
    while start > 1 and seq.value(start - 1) == seq.value(start - 1 + d):
        start -= 1
    return SieveCertificate(p, start, _cycle_kind(d), tuple(pattern), target.describe(c))


def find_sieve_certificate(c: int, target: Target, p_max: int = 500,
                           max_values: int | None = 2) -> SieveCertificate | None:
    """Smallest odd prime p <= p_max certifying the target eventually
    non-residue mod p; None when no prime qualifies."""
    for p in primes_to(p_max):
        if p == 2 or not target.ok_mod(c, p):
            continue
        cert = _certificate_from_cycle(c, target, p, max_values)
        if cert is not None:
            return cert
    return None


def certificate_at_prime(c: int, target: Target, p: int) -> SieveCertificate | None:
    """Derive the certificate at a pinned prime (no search)."""
    if not target.ok_mod(c, p):
        return None
    return _certificate_from_cycle(c, target, p, max_values=None)


def verify_sieve_certificate(cert: SieveCertificate, c: int, target: Target) -> None:
    """Independent re-verification by simulating the reduced sequence."""
    p, d = cert.p, cert.period
    if not target.ok_mod(c, p):
        raise AssertionError("target not reducible mod p")
    if cert.kind != _cycle_kind(d):
        raise AssertionError(f"cycle kind {cert.kind!r} does not fit period {d}")
    for v in cert.values:
        if jacobi(v, p) != -1:
            raise AssertionError(f"{v} is not a non-residue mod {p}")
    seq = target.reduce(c, p)
    if seq.period % d != 0:
        raise AssertionError("claimed period does not divide the state period")
    if cert.start > seq.entry:
        raise AssertionError("claimed start lies beyond the verified cycle entry")
    for n in range(cert.start, seq.entry + 2 * seq.period + 1):
        if seq.value(n) != cert.values[(n - cert.start) % d]:
            raise AssertionError(f"value mismatch at index {n}")


class TermUnresolved(ArithmeticError):
    """A single-term non-square check ran out of budget."""


@dataclass(frozen=True)
class TermCheck:
    n: int
    nonsquare: bool
    witness_kind: str        # "negative" | "exact" | "jacobi" | "square"
    witness: int | None = None   # prime for jacobi; root for square


def check_term_nonsquare(c: int, target: Target, n: int,
                         prime_budget: int = 100,
                         bit_budget: int = DEFAULT_BIT_BUDGET) -> TermCheck:
    """Prove one term of the target sequence non-square (or expose a square).

    Prefers the exact test when the term fits the bit budget, falling back to
    a Jacobi-witness search over primes up to the budget.
    """
    val = None
    # both target kinds scale like c^(2^(n-1)); saturate to avoid huge shifts
    if ((1 << min(n - 1, 63)) - 1) * max(1, abs(c).bit_length()) <= bit_budget:
        try:
            val = target.exact(c, n, bit_budget)
        except BitBudgetExceeded:
            val = None
    if val is not None:
        if val < 0:
            return TermCheck(n, True, "negative")
        if is_rational_square(val):
            root = isqrt_if_square(val.numerator)
            return TermCheck(n, False, "square", root)
        return TermCheck(n, True, "exact")
    for p in primes_to(prime_budget):
        if p == 2 or not target.ok_mod(c, p):
            continue
        if jacobi(target.reduce(c, p).value(n), p) == -1:
            return TermCheck(n, True, "jacobi", p)
    raise TermUnresolved(f"term {n} of {target.describe(c)} unresolved")


# --- congruence table -------------------------------------------------------

SQUARE_VALUES_COMPOSITE = {4: frozenset({0, 1}), 8: frozenset({0, 1, 4})}


@functools.cache
def _nonresidues(k: int) -> bytes:
    """table[v] = 1 for the residues v mod k read as non-squares: outside the
    square classes for k = 4, 8, Jacobi symbol -1 for odd k."""
    if k in SQUARE_VALUES_COMPOSITE:
        return bytes(v not in SQUARE_VALUES_COMPOSITE[k] for v in range(k))
    return bytes(jacobi(v, k) == -1 for v in range(k))


@dataclass(frozen=True)
class CongruenceTable:
    """Residue classes of c (per modulus) whose numerator sequence is
    certified eventually non-residue, assuming c + 1 is not a square."""
    rows: dict[int, tuple[int, ...]]
    provenance: str

    def moduli(self) -> list[int]:
        return sorted(self.rows)


def _nonresidue_window(seq: ModOrbit) -> bytes:
    """ns[n] = 1 when index n <= W of seq is a non-residue mod seq.k.  W is
    six periods and 12 past the tail: every index class mod 6 cycles in it."""
    W = seq.entry + 6 * seq.period + 12
    row = _nonresidues(seq.k).__getitem__
    cycle = bytes(map(row, seq.cycle))
    return (bytes(map(row, seq.tail)) + cycle * (W // seq.period + 1))[:W + 1]


def _admission_patterns(c_class: int, k: int) -> dict[str, bool]:
    """The two published admission patterns plus the divisibility closure.

    odd_from_5:   every odd index >= 5 is directly non-residue.
    offsets_7_5:  indices 7, 10, 13, ... and 5, 8, 11, ... are non-residues.
    closure:      every odd index >= 5 coprime to 3 is non-residue (the rest
                  follow from rigid divisibility through indices 2, 3, 4).
    """
    ns = _nonresidue_window(NumeratorTarget().reduce(c_class, k))
    return {
        "odd_from_5": 0 not in ns[5::2],
        "offsets_7_5": 0 not in ns[7::3] and 0 not in ns[5::3],
        "closure": 0 not in ns[5::6] and 0 not in ns[7::6],
    }


def regenerate_congruence_table(modulus_bound: int = 100) -> CongruenceTable:
    """Recompute the table from the two published admission patterns."""
    moduli = [4, 8] + [p for p in primes_to(modulus_bound - 1) if p % 2 == 1]
    rows: dict[int, tuple[int, ...]] = {}
    for k in sorted(moduli):
        admitted = []
        for r in range(1, k):
            if math.gcd(r, k) != 1:
                continue
            pats = _admission_patterns(r, k)
            if pats["odd_from_5"] or pats["offsets_7_5"]:
                admitted.append(r)
        rows[k] = tuple(admitted)
    return CongruenceTable(rows, "regenerated")


def verify_row_coverage(k: int, residue: int) -> str | None:
    """Sound verification that a table row certifies all indices n >= 2.

    Returns the admitting pattern name, or None when no sound pattern holds.
    Even indices ride on rigid divisibility from index 2 (the c+1 hypothesis),
    multiples of 3 and 4 on the unconditionally non-square indices 3 and 4.
    """
    pats = _admission_patterns(residue, k)
    for name in ("odd_from_5", "offsets_7_5", "closure"):
        if pats[name]:
            return name
    return None


def load_static_congruence_table() -> CongruenceTable:
    text = resources.files("quadorbit.data").joinpath("congruence_table.txt").read_text()
    return parse_congruence_table(text, "static")


def parse_congruence_table(text: str, provenance: str) -> CongruenceTable:
    rows: dict[int, tuple[int, ...]] = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        mod, rest = line.split(":", 1)
        rows[int(mod)] = tuple(sorted(int(t) for t in rest.split()))
    return CongruenceTable(rows, provenance)


def format_congruence_table(table: CongruenceTable) -> str:
    lines = [f"{k}: {' '.join(str(r) for r in table.rows[k])}" for k in table.moduli()]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TableDiff:
    modulus: int
    residue: int
    side: str       # "static_only" | "regenerated_only"
    note: str


def compare_congruence_tables(regen: CongruenceTable,
                              static: CongruenceTable) -> list[TableDiff]:
    """Row-for-row diff, classifying each discrepancy instead of guessing.

    static_only rows are re-verified through the divisibility closure; a
    failure there would mean an unsound published row (none is known).
    regenerated_only rows are sound classes absent from the published table.
    """
    diffs: list[TableDiff] = []
    for k in sorted(set(regen.rows) | set(static.rows)):
        rs = set(regen.rows.get(k, ()))
        ss = set(static.rows.get(k, ()))
        for r in sorted(ss - rs):
            covered = verify_row_coverage(k, r)
            note = (f"covered by pattern '{covered}'" if covered
                    else "NOT verifiable by any implemented pattern")
            diffs.append(TableDiff(k, r, "static_only", note))
        for r in sorted(rs - ss):
            diffs.append(TableDiff(k, r, "regenerated_only",
                                   "sound class absent from the published table"))
    return diffs


def match_congruence_rows(c: int, table: CongruenceTable) -> list[tuple[int, int]]:
    """(modulus, residue) pairs of the table matched by this c."""
    out = []
    for k in table.moduli():
        r = c % k
        if r in table.rows[k]:
            out.append((k, r))
    return out


# --- fixed congruence rule families for c = -m^2 ----------------------------
# Residue classes of m (per modulus) under which the g2-value sequence is
# eventually non-residue.  The first family needs only m != 4; the second
# additionally needs m - 1 to be a non-square.

M_RULES_UNCONDITIONAL: dict[int, tuple[int, ...]] = {
    4: (3,),
    5: (3,),
    7: (2, 5, 6),
    11: (4, 6, 7),
    13: (8, 10),
    17: (2, 4, 7, 8, 9, 11, 15),
    19: (3, 5, 11),
    23: (9, 11, 14, 15, 18, 20, 21, 22),
    29: (3, 19, 26),
    31: (2, 12, 30),
    37: (6, 20),
    41: (12, 14, 27, 29),
    43: (15, 21, 30),
    47: (9, 22, 38, 46),
}

M_RULES_NEED_M_MINUS_1: dict[int, tuple[int, ...]] = {
    3: (2,),
    8: (5,),
    11: (10,),
    19: (18,),
    23: (2, 13),
    29: (8, 10, 14),
    31: (9, 26),
    37: (13, 31),
    41: (3, 11, 19, 37, 38),
    43: (22, 36, 39, 42),
    47: (3, 10),
}


@dataclass(frozen=True)
class MRuleMatch:
    modulus: int
    residue: int
    needs_m_minus_1_nonsquare: bool


def match_m_rules(m: int) -> list[MRuleMatch]:
    out = []
    for k, residues in sorted(M_RULES_UNCONDITIONAL.items()):
        if m % k in residues:
            out.append(MRuleMatch(k, m % k, False))
    for k, residues in sorted(M_RULES_NEED_M_MINUS_1.items()):
        if m % k in residues:
            out.append(MRuleMatch(k, m % k, True))
    return out


def verify_m_rule(k: int, residue: int, needs_m_minus_1: bool) -> bool:
    """Check a rule row by simulating the g2-value sequence mod k.

    The value at index n has numerator w_{n+1} in a rigid divisibility
    sequence with w_2 = m - 1 and w_3 = m^3 - m^2 + 1.  Indices with
    3 | n + 1 are always exempt (w_3 is non-square for m != 4); indices
    with 2 | n + 1 are exempt exactly when m - 1 is a non-square.  A row is
    valid when every remaining index shows a non-residue.
    """
    m = residue
    if math.gcd(m, k) != 1:
        return False
    # c = -m^2 and g2 = x + 1/m, both read mod k
    ns = _nonresidue_window(
        FactorTarget(FactorPoly("g2", (Fraction(1, m), Fraction(1)), m=m)).reduce(-m * m, k))
    # exempt: 3 | n + 1, and 2 | n + 1 when m - 1 is a non-square
    return all(ns[n] for n in range(2, len(ns))
               if (n + 1) % 3 and not (needs_m_minus_1 and n % 2))
