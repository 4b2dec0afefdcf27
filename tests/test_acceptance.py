"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 2 and 5 assert recorded third-party values that this
implementation provably cannot reproduce (see the decisions ledger); they
are implemented faithfully and left red rather than weakened.
"""
import hashlib
import json
import math
import time
from fractions import Fraction

import pytest

from quadorbit import cli
from quadorbit.classify import (CaseId, Effort, detect_case, factor_count_profile,
                                verify_classification)
from quadorbit.curves import x_values
from quadorbit.density import density_profile
from quadorbit.factors import build_pattern
from quadorbit.lattice import (check_stab_certificate, check_trace,
                               prove_divisor_bound, verify_no_squares_up_to)
from quadorbit.orbit import critical_numerators, is_perfect_square, orbit_point
from quadorbit.sieve import (FactorTarget, certificate_at_prime,
                             compare_congruence_tables,
                             load_static_congruence_table,
                             regenerate_congruence_table)
from reference import find_coprime_power_split, lattice_attempt


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_closed_forms_and_oracle():
    t0 = time.time()
    ok = True
    for c in range(-100, 101):
        if c == 0:
            continue
        seq = critical_numerators(c, 3)
        ok &= seq[1] == c + 1 and seq[2] == c ** 3 + c ** 2 + 2 * c + 1
    for c in range(-50, 51):
        if c == 0:
            continue
        seq = critical_numerators(c, 10)
        x = Fraction(0)
        for n in range(1, 11):
            x = x * x + Fraction(1, c)
            ok &= x == Fraction(seq[n - 1], c ** (2 ** (n - 1)))
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    _report(1, ok, f"closed forms + exact-iteration oracle ({elapsed:.2f}s)")
    assert ok


def test_criterion_2_worked_example_exact():
    # the pass's first attempt (no gamma doubling), which a trace does not
    # store, rebuilt from the lattice module's own helpers
    first = lattice_attempt(5, 8, 0)
    basis_ok = first.basis == ((336, 18401670), (0, -16777216))
    target_ok = first.target == (0, 2342757)
    sigma_ok = first.sigma == 2373638400
    cert = prove_divisor_bound(5, 10 ** 37)
    chain = [t.b0_out for t in cert.traces]
    recorded = [145, 56956, 1196488139, 7319637204404186177,
                41458361126834155279142315082592517830]
    chain_ok = chain[:5] == recorded
    ok = basis_ok and target_ok and sigma_ok and chain_ok
    _report(2, ok, f"basis/target {'ok' if basis_ok and target_ok else 'MISMATCH'}; "
                   f"sigma {first.sigma} vs recorded 2373638400; "
                   f"chain {chain[:5]} vs recorded {recorded} "
                   f"(sound-algorithm deviation is ledgered)")
    assert basis_ok and target_ok
    assert sigma_ok, ("the published sigma is not reachable from the four "
                      "closest points: every candidate has |v| >= 146, giving "
                      "sigma >= 2392188100 under any within-one rounding")
    assert chain_ok


def test_criterion_3_stab_verify_budgets():
    t0 = time.time()
    cert100 = verify_no_squares_up_to(10 ** 100)
    t100 = time.time() - t0
    check_stab_certificate(cert100)
    for e in cert100.entries:
        if e.certificate is not None:
            for trace in e.certificate.traces:
                check_trace(trace)
    t0 = time.time()
    cert1000 = verify_no_squares_up_to(10 ** 1000)
    t1000 = time.time() - t0
    t0 = time.time()
    check_stab_certificate(cert1000)
    tcheck = time.time() - t0
    # byte identity of the 1e1000 certificate, every trace included: canonical
    # JSON (sorted keys, compact) of the stab-verify --emit-trace payload
    with cli._any_int_digits():
        canon = json.dumps(cli._stab_to_json(cert1000, emit_trace=True),
                           sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canon.encode()).hexdigest() == \
        "3eee2ec221a019dbcfd545c58af5761cc7463f65141bfc6f7b39b67ccdec953b"
    ok = t100 < 120 and t1000 < 3600
    _report(3, ok, f"X=1e100 in {t100:.1f}s (<120s), X=1e1000 in {t1000:.1f}s "
                   f"(<3600s), full recheck {tcheck:.1f}s; gamma doublings: "
                   f"{cert100.gamma_doublings}/{cert1000.gamma_doublings} "
                   f"(diagnostic: the sound window check requires them)")
    assert ok


def test_criterion_4_desk_scale_classification():
    t0 = time.time()
    eff = Effort()
    count = 0
    for c in range(-10 ** 4, 10 ** 4 + 1):
        if c in (0, -1):
            continue
        rep = verify_classification(c, eff)
        assert rep.verified, rep.c
        assert rep.profile == factor_count_profile(rep.verdict)
        count += 1
    elapsed = time.time() - t0
    spots = {
        -16: CaseId.SPLIT_DEEP_M4,
        -64: CaseId.SPLIT_SPECIAL_S,
        -576: CaseId.SPLIT_SPECIAL_S,
        -(56 ** 2 - 1) ** 2: CaseId.SPLIT_SPECIAL_S,
        48: CaseId.QUARTIC_FORM_M2,
        288: CaseId.QUARTIC_FORM,
    }
    spot_ok = all(detect_case(c).case_id is cid for c, cid in spots.items())
    big_special = verify_classification(-(56 ** 2 - 1) ** 2)
    ok = count == 19999 and elapsed < 600 and spot_ok and big_special.verified
    _report(4, ok, f"{count} values verified in {elapsed:.1f}s (<600s); "
                   f"spot cases incl. s=56 verified")
    assert ok


def test_criterion_5_congruence_table_regeneration():
    t0 = time.time()
    regen = regenerate_congruence_table(100)
    static = load_static_congruence_table()
    elapsed = time.time() - t0
    diffs = compare_congruence_tables(regen, static)
    equal = regen.rows == static.rows
    detail = (f"two-pattern regeneration vs static: "
              f"{'row-for-row equal' if equal else f'{len(diffs)} classified diffs'} "
              f"({elapsed:.1f}s; published table mixes a third pattern and "
              f"omissions - ledgered)")
    ok = equal and elapsed < 30
    _report(5, ok, detail)
    for d in diffs:
        if d.side == "static_only":
            assert "covered by pattern" in d.note  # published rows stay sound
    assert ok, [f"mod {d.modulus} r {d.residue}: {d.side}" for d in diffs]


def test_criterion_6_curve_searches():
    t0 = time.time()
    expected = {
        "E184": (0, 1, 4),
        "E92": (-1, 0, 1, 3, 5, 56),
        "G2": (-2, -1, 0, 1),
        "H3": (-1, 0),
    }
    results = {cid: x_values(cid, 10 ** 5) for cid in expected}
    elapsed = time.time() - t0
    ok = results == expected and elapsed < 60
    _report(6, ok, f"integral points to height 1e5 for 4 curves ({elapsed:.1f}s)")
    assert ok


def test_criterion_7_named_sieve_certificates():
    t0 = time.time()
    rep16 = verify_classification(-16)
    by16 = {t.factor: t for t in rep16.tracks}
    sv = lambda tr: [c for c in tr.certificates if c["kind"] == "sieve"][0]
    nres = lambda tr: len([c for c in tr.certificates if c["kind"] == "residual"])
    ok = rep16.verified
    ok &= (sv(by16["g21"])["p"], sv(by16["g21"])["values"]) == (11, [6])
    ok &= (sv(by16["g22"])["p"], sv(by16["g22"])["values"]) == (5, [2])

    rep48 = verify_classification(48)
    by48 = {t.factor: t for t in rep48.tracks}
    for name, p, val in (("q1", 239, 13), ("v1", 239, 73), ("v2", 41, 24)):
        s = sv(by48[name])
        ok &= (s["p"], s["start"], s["values"]) == (p, 7, [val])
        ok &= nres(by48[name]) == 6

    cycle_expect = {3: (29, {17, 15, 26, 21}), 5: (23, {10, 11}), 56: (31, {6})}
    for s_param, (p, values) in cycle_expect.items():
        c = -((s_param ** 2 - 1) ** 2)
        h12 = {g.name: g for g in build_pattern(c)}["h12"]
        cert = certificate_at_prime(c, FactorTarget(h12), p)
        ok &= cert is not None and set(cert.values) == values
    elapsed = time.time() - t0
    ok &= elapsed < 30
    _report(7, ok, f"named sieve certificates re-derived exactly ({elapsed:.1f}s)")
    assert ok


def test_criterion_8_property_suites():
    t0 = time.time()
    ok = True
    # rigid divisibility, congruence, coprimality, negativity
    primes = [p for p in range(2, 51) if all(p % d for d in range(2, p))]
    for c in list(range(-200, -1)) + list(range(2, 201)):
        seq = critical_numerators(c, 12)
        ok &= all(seq[n - 1] % c == 1 % c for n in range(1, 13))
        ok &= all(math.gcd(seq[n - 1], seq[n - 2]) == 1 for n in range(2, 13))
        if c < 0:
            ok &= all(a < 0 for a in seq[1:])
        for n in range(1, 7):
            for p in primes:
                e = 0
                a = abs(seq[n - 1])
                while a % p == 0:
                    a //= p
                    e += 1
                if e > 0:
                    for j in range(2, 12 // n + 1):
                        b = abs(seq[j * n - 1])
                        e2 = 0
                        while b % p == 0:
                            b //= p
                            e2 += 1
                        ok &= e2 == e
    # half-sum denominators for odd c with square a_n
    from quadorbit.orbit import half_sum_status, SquareClass
    hits = 0
    for c in range(1, 200, 2):
        seq = critical_numerators(c, 4)
        for n in (2, 3, 4):
            if is_perfect_square(seq[n - 1]):
                stt = half_sum_status(c, n)
                ok &= stt.square_class is SquareClass.RATIONAL_NONSQUARE
                ok &= stt.two_adic_valuation == -1
                hits += 1
    ok &= hits > 0
    # divisor-split equivalence at n = 5 over even c: both sides empty
    for c in range(4, 10 ** 4 + 1, 2):
        a5 = critical_numerators(c, 5)[-1]
        square = is_perfect_square(a5)
        split = find_coprime_power_split(c, 5)
        ok &= (split is not None) == square
        ok &= not square
    # closest-vector enumeration against brute force (covered in the module
    # tests with 200 random lattices; rerun a fast slice here)
    import random
    from quadorbit.lattice import closest_points
    rng = random.Random(99)
    done = 0
    while done < 50:
        b1 = (rng.randint(-30, 30), rng.randint(-30, 30))
        b2 = (rng.randint(-30, 30), rng.randint(-30, 30))
        det = b1[0] * b2[1] - b1[1] * b2[0]
        if det == 0:
            continue
        t = (rng.randint(-200, 200), rng.randint(-200, 200))
        a1 = Fraction(t[0] * b2[1] - t[1] * b2[0], det)
        a2 = Fraction(b1[0] * t[1] - b1[1] * t[0], det)
        brute = sorted(
            ((i * b1[0] + j * b2[0] - t[0]) ** 2 + (i * b1[1] + j * b2[1] - t[1]) ** 2)
            for i in range(round(a1) - 50, round(a1) + 51)
            for j in range(round(a2) - 50, round(a2) + 51))[:4]
        got = [p.dist2 for p in closest_points((b1, b2), t, 4)[0]]
        ok &= got == brute
        done += 1
    elapsed = time.time() - t0
    ok &= elapsed < 300
    _report(8, ok, f"property suites ({elapsed:.1f}s)")
    assert ok


def test_criterion_9_density_invariant():
    t0 = time.time()
    ok = True
    for c in (2, 5, 6, 7, 10):
        prof1 = density_profile(c, 0, 10 ** 5)
        prof2 = density_profile(c, 0, 10 ** 5)
        ok &= prof1 == prof2                      # bit-for-bit reproducible
        ok &= prof1.violations == ()
        ok &= prof1.hypothesis_met
        ok &= prof1.checkpoints[-1].fraction < 0.55
    elapsed = time.time() - t0
    ok &= elapsed < 120
    _report(9, ok, f"split invariant, determinism, envelope ({elapsed:.1f}s)")
    assert ok
