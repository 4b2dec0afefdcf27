"""Classification and verified irreducibility reports for x^2 + 1/c.

Every integer c outside {0, -1} lands in exactly one of seven classes with
a predicted profile of irreducible-factor counts k_n for the iterates.  The
verifier assembles, per irreducible factor, a chain of certificates (sign
arguments, exact non-square values, modular sieve certificates, congruence
rules, size bounds, a cited stab certificate) proving the predicted profile.
The case table _TRACKS is also the checker: recheck_report rebuilds each
track by its builder from the track's own chain, re-deriving each search
answer the chain records, field for field, without re-running any search.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from typing import Any, Callable

from . import lattice as lattice_mod
from .bounds import stable_iterate_bound
from .factors import (FactorPoly, SPECIAL_S, build_pattern,
                      negative_square_parameter, obstruction,
                      quartic_form_parameter)
from .orbit import (BitBudgetExceeded, critical_numerators, is_perfect_square,
                    is_rational_square, isqrt_if_square)
from .primes import FactorizationBudget, factorize
from .sieve import (FactorTarget, SieveCertificate, TermCheck, TermUnresolved,
                    certificate_at_prime, check_term_nonsquare, find_sieve_certificate, jacobi,
                    load_static_congruence_table, match_congruence_rows, match_m_rules,
                    verify_m_rule, verify_row_coverage, verify_sieve_certificate)


class CaseId(IntEnum):
    SPLIT_BASE = 1              # c = -m^2, m+1 non-square, m != 4
    SPLIT_DEEP_M4 = 2           # c = -16
    SPLIT_SQUARE_S = 3          # c = -(s^2-1)^2, s outside the special set
    SPLIT_SPECIAL_S = 4         # c = -(s^2-1)^2, s in {3, 5, 56}
    QUARTIC_FORM = 5            # c = 4m^2(m^2-1), m >= 3
    QUARTIC_FORM_M2 = 6         # c = 48
    STABLE = 7                  # f^2 irreducible


@dataclass(frozen=True)
class CaseVerdict:
    c: int
    case_id: CaseId
    m: int | None = None
    s: int | None = None


def detect_case(c: int) -> CaseVerdict:
    if c in (0, -1):
        raise ValueError("c must avoid 0 and -1")
    m = negative_square_parameter(c)
    if m is not None:
        s = isqrt_if_square(m + 1)
        if m == 4:
            return CaseVerdict(c, CaseId.SPLIT_DEEP_M4, m=m)
        if s is not None:
            cid = CaseId.SPLIT_SPECIAL_S if s in SPECIAL_S else CaseId.SPLIT_SQUARE_S
            return CaseVerdict(c, cid, m=m, s=s)
        return CaseVerdict(c, CaseId.SPLIT_BASE, m=m)
    m = quartic_form_parameter(c)
    if m is not None:
        cid = CaseId.QUARTIC_FORM_M2 if m == 2 else CaseId.QUARTIC_FORM
        return CaseVerdict(c, cid, m=m)
    return CaseVerdict(c, CaseId.STABLE)


@dataclass(frozen=True)
class FactorCountProfile:
    k1: int
    k2: int
    k3: int
    stable: int
    stable_from: int


_PROFILES = {
    CaseId.SPLIT_BASE: FactorCountProfile(2, 2, 2, 2, 1),
    CaseId.SPLIT_DEEP_M4: FactorCountProfile(2, 2, 3, 3, 3),
    CaseId.SPLIT_SQUARE_S: FactorCountProfile(2, 3, 3, 3, 2),
    CaseId.SPLIT_SPECIAL_S: FactorCountProfile(2, 3, 4, 4, 3),
    CaseId.QUARTIC_FORM: FactorCountProfile(1, 2, 2, 2, 2),
    CaseId.QUARTIC_FORM_M2: FactorCountProfile(1, 2, 3, 3, 3),
    CaseId.STABLE: FactorCountProfile(1, 1, 1, 1, 1),
}


def factor_count_profile(verdict: CaseVerdict) -> FactorCountProfile:
    return _PROFILES[verdict.case_id]


# Published sieve primes for the named special splittings where the search
# finds a smaller prime (131 for q1 at c = 48, 29 for h12 at s = 56);
# re-derived and verified at use, pinned only so reports match the recorded
# computations.
PINNED_SIEVE_PRIMES: dict[tuple[int, str], int] = {
    (48, "q1"): 239,
    (-9828225, "h12"): 31,  # s = 56
}

# primes tried for a Jacobi witness when a residual term is too big to test exactly
RESIDUAL_PRIME_BUDGET = 100
# bits of the largest residual term tested exactly, by the producer and its checker alike
EXACT_BIT_BUDGET = 1 << 20
# largest prime a sieve certificate search tries; it returns the smallest that qualifies
SIEVE_PRIME_CAP = 1201


@dataclass
class Effort:
    exact_bit_budget: int = EXACT_BIT_BUDGET


Cert = dict[str, Any]
Chain = list[Cert] | None     # a track's recorded chain; None while classifying
Factors = dict[str, FactorPoly]


@dataclass
class TrackReport:
    factor: str
    claim: str
    certificates: list[Cert]
    status: str                 # VERIFIED | CONDITIONAL | FAILED
    detail: str = ""


@dataclass
class VerificationReport:
    c: int
    verdict: CaseVerdict
    profile: FactorCountProfile
    tracks: list[TrackReport]
    status: str

    @property
    def verified(self) -> bool:
        return self.status == "VERIFIED"


def _combine(tracks: list[TrackReport]) -> str:
    # a plain loop: recheck_report runs this once per c, and generators
    # inside any() cost more than the one track most c carry
    status = "VERIFIED"
    for t in tracks:
        if t.status == "FAILED":
            return "FAILED"
        if t.status == "CONDITIONAL":
            status = "CONDITIONAL"
    return status


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _pick(chain: Chain, kind: str | tuple[str, ...], search: Callable[[], Cert | None],
          rederive: Callable[[Cert], Cert | None], index: int | None = None) -> Cert | None:
    """One search answer of the track being built.  With no chain, search();
    else the chain's first certificate of this kind (or kinds) and index, or
    None when the chain has none.  rederive(cert) rebuilds without a search
    the certificate of cert's claim (None when the claim fails), and cert
    must equal it, descriptive fields and all."""
    if chain is None:
        return search()
    kinds = (kind,) if isinstance(kind, str) else kind
    for cert in chain:
        if cert["kind"] in kinds and (index is None or cert["index"] == index):
            if rederive(cert) != cert:
                raise AssertionError(f"certificate failed recheck: {cert}")
            return cert
    return None


def _exact_nonsquare_cert(label: str, n: int, value: Fraction) -> Cert | None:
    """Exact non-square certificate, or None when the value is a square."""
    if is_rational_square(value):
        return None
    return {"kind": "exact-nonsquare", "target": label, "index": n,
            "value": _frac(value)}


def _sieve_track(c: int, g: FactorPoly, first_index: int, effort: Effort | None,
                 head_certs: list[Cert], chain: Chain) -> TrackReport:
    """Track proved by a sieve certificate plus residual checks below its start.

    first_index is the first sequence index the track must cover (1 when the
    even-degree factor has no sign shortcut, 2 when index 1 is handled by a
    sign argument in head_certs).
    """
    target = FactorTarget(g)
    claim = f"{g.name}(f^n(x)) irreducible for all n"

    def sieve_cert(sc: SieveCertificate) -> Cert:
        return {"kind": "sieve", "p": sc.p, "start": sc.start, "cycle_kind": sc.kind,
                "values": list(sc.values), "target": sc.target}

    def search() -> Cert | None:
        pin = PINNED_SIEVE_PRIMES.get((c, g.name))
        sc = certificate_at_prime(c, target, pin) if pin is not None else None
        if sc is None:
            sc = find_sieve_certificate(c, target, SIEVE_PRIME_CAP,
                                        max_values=None if g.name == "h12" else 2)
        return None if sc is None else sieve_cert(sc)

    def rederive(cert: Cert) -> Cert:
        sc = SieveCertificate(cert["p"], cert["start"], cert["cycle_kind"],
                              tuple(cert["values"]), target.describe(c))
        verify_sieve_certificate(sc, c, target)
        return sieve_cert(sc)

    def residual_cert(n: int, tc: TermCheck) -> Cert:
        return {"kind": "residual", "target": g.name, "index": n,
                "witness_kind": tc.witness_kind, "witness": tc.witness}

    def residual_search(n: int) -> Cert | None:
        # witness kind "square" when the term is a square; None when unresolved
        try:
            return residual_cert(n, check_term_nonsquare(c, target, n, RESIDUAL_PRIME_BUDGET,
                                                         effort.exact_bit_budget))
        except TermUnresolved:
            return None

    def residual_rederive(cert: Cert) -> Cert | None:
        n = cert["index"]
        if cert["witness_kind"] == "jacobi":
            p = cert["witness"]
            tc = TermCheck(n, jacobi(target.reduce(c, p).value(n), p) == -1, "jacobi", p)
        else:
            tc = check_term_nonsquare(c, target, n, 0, EXACT_BIT_BUDGET)
        return residual_cert(n, tc) if tc.nonsquare else None

    certs = list(head_certs)
    sieve = _pick(chain, "sieve", search, rederive)
    if sieve is None:
        return TrackReport(g.name, claim, certs, "CONDITIONAL",
                           "no sieve certificate within the prime schedule")
    certs.append(sieve)
    unresolved: list[int] = []
    for n in range(first_index, sieve["start"]):
        residual = _pick(chain, "residual", lambda: residual_search(n), residual_rederive, n)
        if residual is None:
            unresolved.append(n)
            continue
        if residual["witness_kind"] == "square":
            return TrackReport(g.name, claim, certs, "FAILED",
                               "a composition value is an exact square")
        certs.append(residual)
    if unresolved:
        return TrackReport(g.name, claim, certs, "CONDITIONAL",
                           f"indices {unresolved} unresolved within budget")
    return TrackReport(g.name, claim, certs, "VERIFIED")


def _negative_values_cert(c: int, g: FactorPoly, from_index: int) -> Cert:
    # linear factor x - a with a >= 0: negative on the orbit interval
    # (-1/m, 0), which the map preserves for c <= -4
    root = -g.coeffs[0]
    if not (g.degree == 1 and root >= 0 and c <= -4 and all(
            obstruction(g, c, n) < 0 for n in range(max(2, from_index), from_index + 3))):
        raise AssertionError(f"{g.name} is not negative along the orbit")
    return {"kind": "negative-values", "factor": g.name, "from_index": from_index,
            "root": _frac(root)}


def _negative_obstruction_cert(c: int, g: FactorPoly) -> Cert:
    value = obstruction(g, c, 1)
    if value >= 0:
        raise AssertionError(f"the index-1 obstruction of {g.name} is not negative")
    return {"kind": "negative-obstruction", "target": g.name, "index": 1,
            "value": _frac(value)}


# --- the case table -----------------------------------------------------------
# A builder proves one track: builder(c, verdict, factors, name, effort, chain),
# with factors the named factor pattern of c ({} in the stable case) and name
# the track's factor.  Rechecking passes the track's chain and no effort.

def _pattern_track(c: int, verdict: CaseVerdict, factors: Factors, name: str,
                   effort: Effort | None, chain: Chain = None) -> TrackReport:
    """f (cases 1-4) or f^2 (cases 5, 6) is the product of the named factors;
    f itself stays irreducible in the quartic-form cases by the case shape."""
    certs = [{"kind": "factor-pattern", "names": sorted(factors)}]
    if name == "f^2":
        certs.append({"kind": "case-detection", "case": int(verdict.case_id)})
    return TrackReport(name, "factor pattern product identities", certs, "VERIFIED")


def _linear_track(from_index: int):
    """Builder for a linear factor: a non-square obstruction at index 1, then
    negative values along the orbit from from_index on."""
    def build(c: int, verdict: CaseVerdict, factors: Factors, name: str,
              effort: Effort | None, chain: Chain = None) -> TrackReport:
        g = factors[name]
        # (m+1)/m^2, (s^3-s+1)/m^2 or (m t+1)/m^2, non-square in these cases
        cert = _exact_nonsquare_cert(name, 1, obstruction(g, c, 1))
        if cert is None:
            raise AssertionError(f"the index-1 obstruction of {name} is a square")
        return TrackReport(name, f"{name}(f^n(x)) irreducible for all n",
                           [cert, _negative_values_cert(c, g, from_index)], "VERIFIED")
    return build


def _sieve_after_obstruction(c: int, verdict: CaseVerdict, factors: Factors, name: str,
                             effort: Effort | None, chain: Chain = None) -> TrackReport:
    g = factors[name]
    return _sieve_track(c, g, 2, effort, [_negative_obstruction_cert(c, g)], chain)


def _sieve_after_discriminant(c: int, verdict: CaseVerdict, factors: Factors, name: str,
                              effort: Effort | None, chain: Chain = None) -> TrackReport:
    g = factors[name]
    disc = g.coeffs[1] ** 2 - 4 * g.coeffs[0]
    if disc >= 0:
        raise AssertionError(f"{name} has no negative discriminant")
    head = [{"kind": "negative-discriminant", "factor": name, "value": _frac(disc)}]
    return _sieve_track(c, g, 1, effort, head, chain)


def _g2_sign_track(c: int, verdict: CaseVerdict, factors: Factors, name: str,
                   effort: Effort | None, chain: Chain = None) -> TrackReport:
    # m = 4: g2 composed once stays irreducible by sign; the second composition
    # splits into g21 * g22, which carry their own tracks
    return TrackReport(name, "g2(f(x)) irreducible",
                       [_negative_obstruction_cert(c, factors[name])], "VERIFIED")


def _g2_track(c: int, verdict: CaseVerdict, factors: Factors, name: str,
              effort: Effort | None, chain: Chain = None) -> TrackReport:
    """The x + 1/m factor: fixed congruence rules first, sieve search as fallback.

    m-neg-one-prime takes any d > 1 dividing m+1, prime or not.  With
    m = -1 (mod d), the numerator g2(f^n(0)) m^(2^n) is -1 (mod d) at even
    n >= 2 and -2 at odd n.  A residue coprime to d whose Jacobi symbol is
    -1 is not a square; (-1/d) = -1 for d = 3 (mod 4), and (-2/d) = -1 for
    d = 7 (mod 8).  So d = 7 (mod 8) rules out every index, and d = 3
    (mod 8) the even ones, the odd ones resting on m-1 non-square through w2.
    """
    m, g2 = verdict.m, factors[name]
    head = [_negative_obstruction_cert(c, g2)]
    w3_cert = _exact_nonsquare_cert("g2", 2, obstruction(g2, c, 2))  # (m^3-m^2+1)/m^4
    m1_cert = _exact_nonsquare_cert("m-1", 0, Fraction(m - 1))

    def search() -> Cert | None:
        # the first candidate the check accepts; the list rules come first,
        # so m+1 is factored only when none verifies.  Published rows
        # sometimes verify only with the conditional exemptions: try the
        # unconditional reading first, then widen.  w3 is a square only for
        # m = 4, which has its own case.
        for rule in match_m_rules(m):
            for needs in [True] if rule.needs_m_minus_1_nonsquare else [False, True]:
                cert = rederive({"kind": "m-congruence", "modulus": rule.modulus,
                                 "residue": rule.residue, "needs_m_minus_1": needs})
                if cert:
                    return cert
        # a divisor 7 (mod 8) needs no hypothesis on m-1, so it goes first
        return _divisor_witness(m + 1, "m-neg-one-prime", rederive,
                                lambda p: (p % 8 == 3, p))

    def rederive(cert: Cert) -> Cert | None:
        if cert["kind"] == "m-congruence":
            k, r, needs = cert["modulus"], cert["residue"], cert["needs_m_minus_1"]
            if m % k == r and w3_cert is not None \
                    and (m1_cert is not None or not needs) and verify_m_rule(k, r, needs):
                return {"kind": "m-congruence", "modulus": k, "residue": r,
                        "needs_m_minus_1": needs}
            return None
        # p > 1 rejects p = -1, which divides m+1 and is 7 (mod 8); a float
        # p would test divisibility of float(m+1), rounded past 2^53
        p = cert["p"]
        if type(p) is int and p > 1 and (m + 1) % p == 0 \
                and (p % 8 == 7 or p % 8 == 3 and m1_cert is not None):
            return {"kind": "m-neg-one-prime", "p": p, "mod8": p % 8}
        return None

    rule = _pick(chain, ("m-congruence", "m-neg-one-prime"), search, rederive)
    if rule is None:
        return _sieve_track(c, g2, 2, effort, head, chain)
    if rule["kind"] == "m-congruence":
        certs = [rule, w3_cert, {"kind": "rigid-divisibility", "through": "w3"}]
        needs_m1 = rule["needs_m_minus_1"]
    else:
        certs, needs_m1 = [rule], rule["p"] % 8 == 3
    if needs_m1:
        certs += [m1_cert, {"kind": "rigid-divisibility", "through": "w2"}]
    return TrackReport(name, "g2(f^n(x)) irreducible for all n", head + certs, "VERIFIED")


# producer-side memo of verify_row_coverage, a pure function of the table
# row; the checker recomputes the coverage for every certificate it reads
_ROW_COVERAGE: dict[tuple[int, int], str | None] = {}


@functools.cache
def _static_table():
    return load_static_congruence_table()


def _divisor_witness(n: int, kind: str, rederive: Callable[[Cert], Cert | None],
                     key: Callable[[int], Any] | None = None) -> Cert | None:
    """The certificate {"kind": kind, "p": p} as rederive rebuilds it, for the
    first prime p of n in key order (ascending by default) that rederive
    accepts; None when none does or n is too hard to factor."""
    try:
        ps = sorted(factorize(n), key=key)
    except FactorizationBudget:
        return None
    certs = (rederive({"kind": kind, "p": p}) for p in ps)
    return next(filter(None, certs), None)


def _rederive_neg_one_prime(c: int, cert: Cert) -> Cert | None:
    """neg-one-prime takes any d > 1 dividing c+1 with d = 3 (mod 4), prime
    or not.  With c = -1 (mod d), a_n is 0 (mod d) at even n and -1 at odd
    n >= 3.  (-1/d) = -1, and a residue coprime to d whose Jacobi symbol is
    -1 is not a square, so every odd index is ruled out; the even ones rest
    on c+1 non-square through a2."""
    # p > 1 rejects p = -1, which divides c+1 and is 3 (mod 4); a float p
    # would test divisibility of float(c+1), rounded past 2^53
    p = cert["p"]
    if type(p) is int and p > 1 and p % 4 == 3 and (c + 1) % p == 0:
        return {"kind": "neg-one-prime", "p": p}
    return None


def _table_row_cert(c: int) -> Cert | None:
    for k, r in match_congruence_rows(c, _static_table()):
        if (k, r) not in _ROW_COVERAGE:
            _ROW_COVERAGE[(k, r)] = verify_row_coverage(k, r)
        if _ROW_COVERAGE[(k, r)]:
            return {"kind": "table-congruence", "modulus": k, "residue": r,
                    "coverage": _ROW_COVERAGE[(k, r)]}
    return None


def _rederive_table_row(c: int, cert: Cert) -> Cert | None:
    k, r = cert["modulus"], cert["residue"]
    if c % k == r and r in _static_table().rows.get(k, ()):
        coverage = verify_row_coverage(k, r)
        if coverage is not None:
            return {"kind": "table-congruence", "modulus": k, "residue": r,
                    "coverage": coverage}
    return None


def _rederive_stab(c: int, m: int, cert: Cert) -> Cert | None:
    """A stab certificate that check_stab_certificate accepts states that no
    a_p(c') is a square for even 4 <= c' <= x_bound and prime 5 <= p <= prime_cap.
    The bound route sees only even c >= 4 (negative and odd c return earlier),
    so x_bound >= c and prime_cap >= m cover every prime index of c from 5 up to
    m, the track's own iterate bound: nothing assumes that m(c) is monotone."""
    stab = cert["certificate"]
    lattice_mod.check_stab_certificate(stab)
    if stab.x_bound >= c and stab.prime_cap >= m:
        return {"kind": "stab", "certificate": stab}
    return None


def _stable_track(c: int, verdict: CaseVerdict, factors: Factors, name: str,
                  effort: Effort | None, chain: Chain = None) -> TrackReport:
    """Case 7: one track for f itself, by the first route that applies."""
    claim = "f^n(x) irreducible for all n"
    certs: list[Cert] = [{"kind": "case-detection", "case": 7}]
    if c < 0:
        certs.append({"kind": "negative-orbit"})
        return TrackReport(name, claim, certs, "VERIFIED")
    if c % 2 == 1:
        certs.append({"kind": "odd-two-adic"})
        return TrackReport(name, claim, certs, "VERIFIED")
    c1_cert = _exact_nonsquare_cert("a_n", 2, Fraction(c + 1))
    if c1_cert is not None:
        neg_one = functools.partial(_rederive_neg_one_prime, c)
        # for c = k^2 every odd prime of k^2 + 1 is 1 (mod 4): no witness
        # exists, so the search does not factor c + 1 to find none
        rule = _pick(chain, "neg-one-prime",
                     lambda: None if is_perfect_square(c)
                     else _divisor_witness(c + 1, "neg-one-prime", neg_one), neg_one) \
            or _pick(chain, "table-congruence", lambda: _table_row_cert(c),
                     lambda k: _rederive_table_row(c, k))
        if rule is not None:
            certs += [rule, c1_cert, {"kind": "rigid-divisibility", "through": "a2"}]
            return TrackReport(name, claim, certs, "VERIFIED")
    if c >= 4:
        m_bound = stable_iterate_bound(c)
        certs.append({"kind": "iterate-bound", "m": m_bound})
        small = [3, 4]
        seq = critical_numerators(c, max(small))
        for i in small:
            if is_perfect_square(seq[i - 1]):
                certs.append({"kind": "counterexample", "index": i})
                return TrackReport(name, claim, certs, "FAILED",
                                   f"a_{i}({c}) is a perfect square")
        certs.append({"kind": "small-index-nonsquare", "indices": small})
        stab = _pick(chain, "stab", lambda: {
            "kind": "stab", "certificate": lattice_mod.verify_no_squares_up_to(c)},
            functools.partial(_rederive_stab, c, m_bound))
        if stab is None:
            return TrackReport(name, claim, certs, "CONDITIONAL", "no stab certificate covers c")
        certs += [stab, {"kind": "rigid-divisibility", "through": "composite-indices"}]
        return TrackReport(name, claim, certs, "VERIFIED")
    return TrackReport(name, claim, certs, "CONDITIONAL",
                       "no stable-case route applied")


# The paper's case table: for each case, every track of its report in order,
# with the builder whose argument proves it.
_TRACKS: dict[CaseId, tuple[tuple[str, Callable[..., TrackReport]], ...]] = {
    CaseId.SPLIT_BASE: (
        ("f", _pattern_track), ("g1", _linear_track(1)), ("g2", _g2_track)),
    CaseId.SPLIT_DEEP_M4: (
        ("f", _pattern_track), ("g1", _linear_track(1)), ("g2", _g2_sign_track),
        ("g21", _sieve_after_discriminant), ("g22", _sieve_after_discriminant)),
    CaseId.SPLIT_SQUARE_S: (
        ("f", _pattern_track), ("h1", _linear_track(1)), ("h2", _sieve_after_obstruction),
        ("g2", _g2_track)),
    CaseId.SPLIT_SPECIAL_S: (
        ("f", _pattern_track), ("h11", _linear_track(2)), ("h12", _sieve_after_obstruction),
        ("h2", _sieve_after_obstruction), ("g2", _g2_track)),
    CaseId.QUARTIC_FORM: (
        ("f^2", _pattern_track), ("q1", _sieve_after_discriminant),
        ("q2", _sieve_after_discriminant)),
    CaseId.QUARTIC_FORM_M2: (
        ("f^2", _pattern_track), ("q1", _sieve_after_discriminant),
        ("v1", _sieve_after_discriminant), ("v2", _sieve_after_discriminant)),
    CaseId.STABLE: (("f", _stable_track),),
}


def verify_classification(c: int, effort: Effort | None = None) -> VerificationReport:
    effort = effort if effort is not None else Effort()
    verdict = detect_case(c)
    factors = {} if verdict.case_id is CaseId.STABLE else {g.name: g for g in build_pattern(c)}
    tracks = []   # a loop, not a comprehension: this runs once per c of a range
    for name, build in _TRACKS[verdict.case_id]:
        tracks.append(build(c, verdict, factors, name, effort))
    return VerificationReport(c, verdict, factor_count_profile(verdict),
                              tracks, _combine(tracks))


# --- offline rechecking ------------------------------------------------------

# what a missing or malformed field, or a witness too large to confirm, raises
_MALFORMED = (AttributeError, IndexError, KeyError, TypeError, ValueError,
              ZeroDivisionError, BitBudgetExceeded, TermUnresolved)


def recheck_report(report: VerificationReport) -> None:
    """Re-verify a report by replaying the case table; raises AssertionError.

    Verdict, profile and track names must be the case table's, and the
    status the one the track statuses combine to.  Each VERIFIED track is
    rebuilt by its builder from its own chain and must equal the stored
    one, so a chain that skips or adds a step of its argument is rejected.
    """
    c = report.c
    verdict = detect_case(c)
    profile = _PROFILES[verdict.case_id]   # the same object unless copied
    if verdict != report.verdict or report.profile is not profile and report.profile != profile:
        raise AssertionError("case verdict or profile mismatch")
    rows = _TRACKS[verdict.case_id]
    if len(report.tracks) != len(rows):
        raise AssertionError("tracks differ from the case table")
    if report.status != _combine(report.tracks):
        raise AssertionError("report status disagrees with its tracks")
    factors = {} if verdict.case_id is CaseId.STABLE else {g.name: g for g in build_pattern(c)}
    for track, (name, build) in zip(report.tracks, rows):
        if track.factor != name:
            raise AssertionError("tracks differ from the case table")
        if track.status != "VERIFIED":
            continue
        try:
            rebuilt = build(c, verdict, factors, name, None, track.certificates)
        except _MALFORMED as exc:
            raise AssertionError(f"malformed certificate in track {name} ({exc!r})") from exc
        if rebuilt != track:
            raise AssertionError(f"malformed track {name}: its chain is not the "
                                 "argument its builder rebuilds from it")


# --- JSON serialization -------------------------------------------------------

def _intstr(x: int) -> str | int:
    return str(x) if abs(x) > (1 << 53) - 1 else x


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, float)):
        return obj
    if isinstance(obj, int):
        return _intstr(obj)
    if isinstance(obj, Fraction):
        return _frac(obj)
    if hasattr(obj, "__dataclass_fields__"):
        return {k: _jsonify(getattr(obj, k)) for k in obj.__dataclass_fields__}
    raise TypeError(f"cannot serialize {type(obj)}")


def report_to_json(report: VerificationReport) -> dict:
    return {
        "c": _intstr(report.c),
        "case": int(report.verdict.case_id),
        "params": {"m": report.verdict.m, "s": report.verdict.s},
        "k_profile": {"k1": report.profile.k1, "k2": report.profile.k2,
                      "k3": report.profile.k3, "stable": report.profile.stable,
                      "stable_from": report.profile.stable_from},
        "certificates": [{
            "factor": t.factor, "claim": t.claim, "status": t.status,
            "detail": t.detail, "chain": _jsonify(t.certificates),
        } for t in report.tracks],
        "status": report.status,
    }
