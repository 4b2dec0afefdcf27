import hashlib
import json
import math
import sys
import time
from dataclasses import replace

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from quadorbit import bounds, classify, lattice, primes, sieve
from quadorbit.classify import (PINNED_SIEVE_PRIMES, CaseId, Effort, detect_case,
                                factor_count_profile, recheck_report, report_to_json,
                                verify_classification)
from quadorbit.factors import build_pattern, eval_at_orbit, f_coeffs, poly_compose
from quadorbit.orbit import critical_numerators, is_perfect_square
from quadorbit.sieve import jacobi, match_m_rules


def test_detect_case_spot_values():
    assert detect_case(-16).case_id is CaseId.SPLIT_DEEP_M4
    assert detect_case(-64).case_id is CaseId.SPLIT_SPECIAL_S      # s = 3
    assert detect_case(-576).case_id is CaseId.SPLIT_SPECIAL_S     # s = 5
    assert detect_case(-(56 ** 2 - 1) ** 2).case_id is CaseId.SPLIT_SPECIAL_S
    assert detect_case(-9).case_id is CaseId.SPLIT_SQUARE_S        # s = 2
    assert detect_case(48).case_id is CaseId.QUARTIC_FORM_M2
    assert detect_case(288).case_id is CaseId.QUARTIC_FORM
    assert detect_case(5).case_id is CaseId.STABLE
    assert detect_case(-25).case_id is CaseId.SPLIT_BASE           # m = 5
    for bad in (0, -1):
        with pytest.raises(ValueError):
            detect_case(bad)


def test_partition_and_closed_form_counts():
    bound = 10 ** 5
    counts = {cid: 0 for cid in CaseId}
    for c in range(-bound, bound + 1):
        if c in (0, -1):
            continue
        counts[detect_case(c).case_id] += 1
    m_max = math.isqrt(bound)
    case1 = sum(1 for m in range(2, m_max + 1)
                if not is_perfect_square(m + 1) and m != 4)
    assert counts[CaseId.SPLIT_BASE] == case1
    assert counts[CaseId.SPLIT_DEEP_M4] == 1
    case34 = sum(1 for s in range(2, m_max + 2)
                 if (s * s - 1) ** 2 <= bound)
    assert counts[CaseId.SPLIT_SQUARE_S] + counts[CaseId.SPLIT_SPECIAL_S] == case34
    assert counts[CaseId.SPLIT_SPECIAL_S] == 2                      # s = 3, 5
    case56 = sum(1 for m in range(2, 40)
                 if 4 * m * m * (m * m - 1) <= bound)
    assert counts[CaseId.QUARTIC_FORM] + counts[CaseId.QUARTIC_FORM_M2] == case56
    total = sum(counts.values())
    assert total == 2 * bound - 1


def test_profiles():
    assert factor_count_profile(detect_case(-16)).k3 == 3
    assert factor_count_profile(detect_case(-64)) .stable == 4
    p48 = factor_count_profile(detect_case(48))
    assert (p48.k1, p48.k2, p48.k3, p48.stable) == (1, 2, 3, 3)
    assert factor_count_profile(detect_case(7)).stable == 1


def _sympy_factor_count(c, n):
    x = sympy.symbols("x")
    coeffs = f_coeffs(c)
    comp = coeffs
    for _ in range(n - 1):
        comp = poly_compose(comp, coeffs)
    poly = sympy.Poly(sum(sympy.Rational(q.numerator, q.denominator) * x ** i
                          for i, q in enumerate(comp)), x)
    return sum(mult for _f, mult in poly.factor_list()[1])


def test_factor_counts_against_factorization_oracle():
    for c in range(-30, 31):
        if c in (0, -1):
            continue
        prof = factor_count_profile(detect_case(c))
        expected = {1: prof.k1, 2: prof.k2, 3: prof.k3}
        for n in (1, 2, 3):
            assert _sympy_factor_count(c, n) == expected[n], (c, n)


def test_verified_reports_for_named_cases():
    rep = verify_classification(-16)
    assert rep.verified
    by_factor = {t.factor: t for t in rep.tracks}
    g21_sieve = [c for c in by_factor["g21"].certificates if c["kind"] == "sieve"][0]
    assert (g21_sieve["p"], g21_sieve["values"]) == (11, [6])
    g22_sieve = [c for c in by_factor["g22"].certificates if c["kind"] == "sieve"][0]
    assert (g22_sieve["p"], g22_sieve["values"]) == (5, [2])

    rep48 = verify_classification(48)
    assert rep48.verified
    by48 = {t.factor: t for t in rep48.tracks}
    for name, p, val in (("q1", 239, 13), ("v1", 239, 73), ("v2", 41, 24)):
        sieve = [c for c in by48[name].certificates if c["kind"] == "sieve"][0]
        assert (sieve["p"], sieve["start"], sieve["values"]) == (p, 7, [val])
        residuals = [c for c in by48[name].certificates if c["kind"] == "residual"]
        assert len(residuals) == 6

    rep64 = verify_classification(-64)
    assert rep64.verified
    h12 = {t.factor: t for t in rep64.tracks}["h12"]
    sieve = [c for c in h12.certificates if c["kind"] == "sieve"][0]
    assert sieve["p"] == 29 and set(sieve["values"]) == {17, 15, 26, 21}


def test_verified_reports_all_cases_recheck():
    for c in (-((56 ** 2 - 1) ** 2), -576, -64, -25, -16, -9, -4, 2, 3, 4, 5,
              8, 48, 80, 288, 1024, 9900):
        rep = verify_classification(c)
        assert rep.verified, (c, [(t.factor, t.status, t.detail) for t in rep.tracks])
        recheck_report(rep)


def test_stable_case_routes():
    # negative, odd, table-congruence, iterate-bound
    kinds = lambda rep: {k["kind"] for t in rep.tracks for k in t.certificates}
    assert "negative-orbit" in kinds(verify_classification(-7))
    assert "odd-two-adic" in kinds(verify_classification(9))
    rep2 = verify_classification(2)
    assert {"neg-one-prime", "table-congruence"} & kinds(rep2)
    rep80 = verify_classification(80)     # c+1 = 81 square: bound route
    k80 = kinds(rep80)
    assert "iterate-bound" in k80 and "stab" in k80
    rep8 = verify_classification(8)       # c+1 = 9 square: bound route
    assert "stab" in kinds(rep8)


def test_lattice_route_for_huge_even_c():
    # c = (2t)^2 picked so c+1 has only 1-mod-4 prime divisors and no table
    # row matches: only the iterate-bound route remains, and it cites a stab
    # certificate at X = c
    c = 4 * 50106 ** 2
    rep = verify_classification(c)
    assert rep.verified
    kinds = {k["kind"] for t in rep.tracks for k in t.certificates}
    assert "iterate-bound" in kinds and "stab" in kinds
    assert _cert(rep, "stab")["certificate"].x_bound == c
    recheck_report(rep)


def test_lattice_route_report_does_not_depend_on_order():
    # a report is a function of c alone: classifying c after other lattice-route
    # values, through one shared Effort, gives the report for c alone
    cs = (5328, 7920, 9800)
    shared = Effort()
    in_sequence = [verify_classification(c, shared) for c in cs]
    for c, rep in zip(cs, in_sequence):
        alone = verify_classification(c)
        assert any(k["kind"] == "stab" for k in alone.tracks[0].certificates), c
        assert report_to_json(rep) == report_to_json(alone), c
        recheck_report(rep)
        recheck_report(alone)


def test_range_results_verified_and_profiles_stable():
    seen = 0
    for c in range(-600, 601):
        if c in (0, -1):
            continue
        rep = verify_classification(c)
        assert rep.verified, rep.c
        seen += 1
    assert seen == 1199


def test_report_json_round_trip():
    rep = verify_classification(48)
    payload = report_to_json(rep)
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["case"] == 6
    assert back["status"] == "VERIFIED"
    assert back["k_profile"]["stable"] == 3
    assert len(back["certificates"]) == len(rep.tracks)


def test_recheck_detects_tampering():
    rep = verify_classification(-16)
    for track in rep.tracks:
        for cert in track.certificates:
            if cert["kind"] == "sieve":
                cert["values"] = [1]
                with pytest.raises(AssertionError):
                    recheck_report(rep)
                return
    raise AssertionError("no sieve certificate found")


_FOR_ALL = "{}(f^n(x)) irreducible for all n"
_PATTERN = "factor pattern product identities"


@pytest.mark.parametrize("c, tracks", [
    (-25, [("f", _PATTERN, "factor-pattern"), ("g1", _FOR_ALL.format("g1"), "exact-nonsquare"),
           ("g2", _FOR_ALL.format("g2"), "negative-obstruction")]),
    (-16, [("f", _PATTERN, "factor-pattern"), ("g1", _FOR_ALL.format("g1"), "exact-nonsquare"),
           ("g2", "g2(f(x)) irreducible", "negative-obstruction"),
           ("g21", _FOR_ALL.format("g21"), "negative-discriminant"),
           ("g22", _FOR_ALL.format("g22"), "negative-discriminant")]),
    (-9, [("f", _PATTERN, "factor-pattern"), ("h1", _FOR_ALL.format("h1"), "exact-nonsquare"),
          ("h2", _FOR_ALL.format("h2"), "negative-obstruction"),
          ("g2", _FOR_ALL.format("g2"), "negative-obstruction")]),
    (-64, [("f", _PATTERN, "factor-pattern"), ("h11", _FOR_ALL.format("h11"), "exact-nonsquare"),
           ("h12", _FOR_ALL.format("h12"), "negative-obstruction"),
           ("h2", _FOR_ALL.format("h2"), "negative-obstruction"),
           ("g2", _FOR_ALL.format("g2"), "negative-obstruction")]),
    (288, [("f^2", _PATTERN, "factor-pattern"),
           ("q1", _FOR_ALL.format("q1"), "negative-discriminant"),
           ("q2", _FOR_ALL.format("q2"), "negative-discriminant")]),
    (48, [("f^2", _PATTERN, "factor-pattern"),
          ("q1", _FOR_ALL.format("q1"), "negative-discriminant"),
          ("v1", _FOR_ALL.format("v1"), "negative-discriminant"),
          ("v2", _FOR_ALL.format("v2"), "negative-discriminant")]),
    (5, [("f", "f^n(x) irreducible for all n", "case-detection")]),
])
def test_track_order_and_claims_per_case(c, tracks):
    rep = verify_classification(c)
    assert [(t.factor, t.claim, t.certificates[0]["kind"]) for t in rep.tracks] == tracks
    assert rep.verified


def test_remaining_pins_differ_from_the_search(monkeypatch):
    assert len(PINNED_SIEVE_PRIMES) == 2
    for (c, name), pin in list(PINNED_SIEVE_PRIMES.items()):
        def sieve_prime():
            track = {t.factor: t for t in verify_classification(c).tracks}[name]
            return [k["p"] for k in track.certificates if k["kind"] == "sieve"][0]

        assert sieve_prime() == pin
        with monkeypatch.context() as mp:
            mp.delitem(PINNED_SIEVE_PRIMES, (c, name))
            assert sieve_prime() != pin, (c, name)


@pytest.mark.parametrize("m, p, needs_m1", [(430, 431, False), (690, 691, True),
                                             (17097, 103, False)])
def test_g2_neg_one_prime_classes(m, p, needs_m1):
    # no list rule verifies for these m; a prime 7 (mod 8) dividing m+1 proves
    # g2 outright, a prime 3 (mod 8) together with m-1 non-square.  The first
    # class wins even over a smaller prime of the second (17098 = 2 * 83 * 103).
    rep = verify_classification(-m * m)
    assert rep.verified
    chain = {t.factor: t for t in rep.tracks}["g2"].certificates
    assert chain[1] == {"kind": "m-neg-one-prime", "p": p, "mod8": p % 8}
    m1 = [k for k in chain if k.get("target") == "m-1"]
    assert (m1 == [{"kind": "exact-nonsquare", "target": "m-1", "index": 0,
                    "value": f"{m - 1}/1"}]) == needs_m1
    assert ({"kind": "rigid-divisibility", "through": "w2"} in chain) == needs_m1
    recheck_report(rep)


def _cert(rep, kind):
    return next(k for t in rep.tracks for k in t.certificates if k["kind"] == kind)


def test_g2_list_rule_leaves_m_plus_1_unfactored(monkeypatch):
    # m = 5 matches the list rule 5 (mod 7), so the prime rules, which need
    # the factors of m+1, are never reached
    _no_factorize(monkeypatch)
    rep = verify_classification(-25)
    assert rep.verified
    assert _cert(rep, "m-congruence")["modulus"] == 7


def test_recheck_rejects_bogus_table_coverage():
    rep = verify_classification(4)
    _cert(rep, "table-congruence")["coverage"] = "bogus"
    with pytest.raises(AssertionError):
        recheck_report(rep)


def test_recheck_rejects_case_detection_without_case():
    rep = verify_classification(48)
    del _cert(rep, "case-detection")["case"]
    with pytest.raises(AssertionError):
        recheck_report(rep)


def test_recheck_rejects_factor_nonsquare_at_index_zero():
    rep = verify_classification(-25)
    cert = _cert(rep, "exact-nonsquare")
    assert cert["target"] == "g1"
    cert.update(index=0, value="2/1")
    with pytest.raises(AssertionError):
        recheck_report(rep)


def test_recheck_rejects_missing_field_as_assertion():
    rep = verify_classification(-16)
    del _cert(rep, "sieve")["p"]
    with pytest.raises(AssertionError):
        recheck_report(rep)


def test_recheck_rejects_status_that_disagrees_with_tracks():
    rep = verify_classification(-16)
    track = next(t for t in rep.tracks if t.factor == "g21")
    track.status = "CONDITIONAL"
    next(cert for cert in track.certificates if cert["kind"] == "sieve")["values"] = [1]
    assert rep.status == "VERIFIED"
    with pytest.raises(AssertionError, match="status"):
        recheck_report(rep)


def test_recheck_rejects_wrong_typed_field_as_assertion():
    rep = verify_classification(-25)
    _cert(rep, "exact-nonsquare")["value"] = 5
    with pytest.raises(AssertionError, match="malformed"):
        recheck_report(rep)


@pytest.mark.parametrize("c, factor", [(-16, "g22"), (-64, "h12"), (5, "f")])
def test_recheck_rejects_missing_track(c, factor):
    rep = verify_classification(c)
    rep.tracks = [t for t in rep.tracks if t.factor != factor]
    with pytest.raises(AssertionError):
        recheck_report(rep)


# --- the replay: every track rebuilt from its own chain ---------------------

def _track(rep, factor):
    return next(t for t in rep.tracks if t.factor == factor)


@pytest.mark.parametrize("c", [-16, 48, 2, 1024])
def test_recheck_rejects_chains_emptied_to_case_detection(c):
    rep = verify_classification(c)
    for track in rep.tracks:
        track.certificates = [k for k in track.certificates if k["kind"] == "case-detection"]
    with pytest.raises(AssertionError):
        recheck_report(rep)


def test_recheck_rejects_neg_one_prime_outside_its_classes():
    # m + 1 = 17 is prime, but 17 = 1 (mod 8) proves nothing about g2
    rep = verify_classification(-256)
    g2 = _track(rep, "g2")
    g2.certificates = [g2.certificates[0], {"kind": "m-neg-one-prime", "p": 17, "mod8": 1}]
    with pytest.raises(AssertionError):
        recheck_report(rep)


def test_recheck_rejects_neg_one_prime_without_the_m_minus_1_premise():
    # 691 = 3 (mod 8) needs m - 1 non-square, which the cut chain no longer states
    rep = verify_classification(-690 ** 2)
    g2 = _track(rep, "g2")
    assert g2.certificates[1]["p"] == 691
    g2.certificates = g2.certificates[:2]
    with pytest.raises(AssertionError):
        recheck_report(rep)


def test_recheck_checks_a_sieve_certificate_against_its_own_track():
    rep = verify_classification(-16)
    g21, g22 = _track(rep, "g21"), _track(rep, "g22")
    g22_sieve = next(k for k in g22.certificates if k["kind"] == "sieve")
    assert g22_sieve["p"] == 5
    g21.certificates = [g22_sieve if k["kind"] == "sieve" else k for k in g21.certificates]
    with pytest.raises(AssertionError):
        recheck_report(rep)


def test_recheck_rejects_an_exact_residual_too_large_to_test():
    rep = verify_classification(-16)
    residual = next(k for k in _track(rep, "g21").certificates if k["kind"] == "residual")
    residual.update(index=40, witness_kind="exact")
    with pytest.raises(AssertionError):
        recheck_report(rep)


def test_recheck_tests_an_exact_residual_under_the_producers_budget():
    # c = -2145^2: the g2 sieve starts at 29; the producer tests indices 2-16
    # exactly and cites Jacobi witnesses from 17 on, whose terms are past its
    # exact budget of 2^20 bits.  Relabelled "exact", index 17 would cost the
    # checker an evaluation of a ~1.5M-bit term (about 3 s) that the producer
    # never ran; under the producer's budget it is refused at once.
    rep = verify_classification(-2145 ** 2)
    g2 = _track(rep, "g2")
    assert next(k for k in g2.certificates if k["kind"] == "sieve")["start"] == 29
    assert classify.Effort().exact_bit_budget == 1 << 20
    residual = next(k for k in g2.certificates
                    if k["kind"] == "residual" and k["index"] == 17)
    assert residual["witness_kind"] == "jacobi"
    residual.update(witness_kind="exact", witness=None)
    with pytest.raises(AssertionError, match="unresolved"):
        recheck_report(rep)
    # the relabelled residual alone, without the honest exact ones before it
    g2.certificates = [k for k in g2.certificates
                       if k["kind"] != "residual" or k["index"] == 17]
    start = time.perf_counter()
    with pytest.raises(AssertionError, match="unresolved"):
        recheck_report(rep)
    assert time.perf_counter() - start < 1


def test_recheck_rejects_a_profile_that_is_not_the_cases():
    rep = verify_classification(-16)
    rep.profile = factor_count_profile(detect_case(-25))
    with pytest.raises(AssertionError, match="profile"):
        recheck_report(rep)


@pytest.fixture(scope="module")
def lattice_route_report():
    # the iterate-bound route with a stab certificate: see
    # test_lattice_route_for_huge_even_c
    return verify_classification(4 * 50106 ** 2)


def test_recheck_rejects_every_single_certificate_deletion(lattice_route_report):
    reports = [verify_classification(c) for c in (-16, -25, -64, -9, 48, 288, 2, 4, 5, 8,
                                                  80, 1024, 1088)]
    deletions = 0
    for rep in reports + [lattice_route_report]:
        for track in rep.tracks:
            if track.status != "VERIFIED":
                continue
            chain = track.certificates
            for i in range(len(chain)):
                track.certificates = chain[:i] + chain[i + 1:]
                with pytest.raises(AssertionError):
                    recheck_report(rep)
                deletions += 1
            track.certificates = chain
        recheck_report(rep)
    assert deletions >= 100


def test_recheck_accepts_every_honest_report(lattice_route_report):
    # the replay must not refuse a report its builders made
    quartic = [4 * m * m * (m * m - 1) for m in range(2, 11)]
    cs = [c for c in range(-3000, 3001) if c not in (0, -1)]
    cs += [-m * m for m in range(55, 301)] + quartic
    for c in cs:
        rep = verify_classification(c)
        assert rep.verified, c
        recheck_report(rep)
    recheck_report(lattice_route_report)


# --- the bound route cites one stab certificate at X = c ----------------------

@pytest.mark.parametrize("tamper", [
    # a sound certificate for a smaller bound: only the route's x_bound >= c rejects it
    lambda stab, c: replace(stab, x_bound=c - 2),
    lambda stab, c: replace(stab, x_bound=c * 10 ** 6),
    lambda stab, c: replace(stab, prime_cap=stab.entries[-2].prime, entries=stab.entries[:-1]),
], ids=["x_bound-below-c", "x_bound-far-above-c", "primes-cut"])
def test_recheck_rejects_a_stab_certificate_that_does_not_cover_c(tamper):
    c = 4 * 50106 ** 2
    rep = verify_classification(c)
    cert = _cert(rep, "stab")
    cert["certificate"] = tamper(cert["certificate"], c)
    with pytest.raises(AssertionError):
        recheck_report(rep)


def test_bound_route_recheck_runs_no_search(monkeypatch):
    reports = [verify_classification(c) for c in (8, 24, 80, 1088, 5328, 7920,
                                                  4 * 50106 ** 2, 3 ** 40 - 1)]

    def searched(*args, **kwargs):
        raise AssertionError("the recheck ran a search")
    assert not hasattr(bounds, "factorize")
    for module, name in [(primes, "factorize"), (classify, "factorize"),
                         (lattice, "closest_points"), (lattice, "lagrange_reduce"),
                         (lattice, "_lehmer_reduce"), (lattice, "_lehmer_start"),
                         (lattice, "escalation_pass"), (lattice, "_largest_nonpositive"),
                         (lattice, "prove_divisor_bound"), (lattice, "verify_no_squares_up_to"),
                         (sieve, "find_sieve_certificate"), (lattice, "find_sieve_certificate"),
                         (classify, "find_sieve_certificate"),
                         (sieve, "match_congruence_rows"), (classify, "match_congruence_rows"),
                         (sieve, "match_m_rules"), (classify, "match_m_rules")]:
        monkeypatch.setattr(module, name, searched)
    for rep in reports:
        assert rep.verified and _cert(rep, "stab")
        recheck_report(rep)


def _no_factorize(monkeypatch):
    # every binding of factorize in the package, whichever module imported it
    def factorize(n):
        raise AssertionError(f"factorize({n}) called")
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quadorbit" and hasattr(module, "factorize"):
            monkeypatch.setattr(module, "factorize", factorize)


def test_classify_recheck_factors_nothing(monkeypatch):
    # every check of a report re-derives its witnesses from the chain alone
    reports = [verify_classification(c) for c in range(-3000, 3001) if c not in (0, -1)]
    _no_factorize(monkeypatch)
    for rep in reports:
        recheck_report(rep)


def test_stable_route_for_c_plus_1_square_factors_nothing(monkeypatch):
    # c + 1 = (10^30 + 1)^2: no witness rule, and the stab route proves c
    # without factoring it
    _no_factorize(monkeypatch)
    c = (10 ** 30 + 1) ** 2 - 1
    rep = verify_classification(c)
    assert rep.verified
    assert _cert(rep, "stab")["certificate"].x_bound == c
    recheck_report(rep)


@pytest.mark.parametrize("c, digest", [
    (2 ** 400, "abb50a7581d449688ce46b66f1e47c553db47b1185ea046e77ae2c8950210d7c"),
    (4 * (10 ** 20 + 1) ** 2, "aa615476f10984b739dac00d3210f6029f13c9430bde7e251da7d8be7baaba3b"),
], ids=["2^400", "4(10^20+1)^2"])
def test_square_c_skips_the_neg_one_prime_search(monkeypatch, c, digest):
    # every odd prime of k^2 + 1 is 1 (mod 4), so square c has no neg-one-prime
    # witness and c + 1 is not factored; the digest pins the report's bytes
    _no_factorize(monkeypatch)
    rep = verify_classification(c)
    assert rep.verified and _cert(rep, "table-congruence")
    canon = json.dumps(report_to_json(rep), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canon.encode()).hexdigest() == digest
    recheck_report(rep)


# --- descriptive fields: a chain's certificate must equal its re-derivation ---

def test_recheck_rejects_a_sieve_cycle_kind_that_does_not_fit_its_values():
    # one value is a "constant" cycle, whatever the certificate calls it
    rep = verify_classification(-16)
    sieve_cert = next(k for k in _track(rep, "g21").certificates if k["kind"] == "sieve")
    assert sieve_cert["values"] == [6] and sieve_cert["cycle_kind"] == "constant"
    sieve_cert["cycle_kind"] = "cycle"
    with pytest.raises(AssertionError):
        recheck_report(rep)


def test_recheck_rejects_an_exact_residual_that_carries_a_witness():
    rep = verify_classification(-16)
    residual = next(k for k in _track(rep, "g21").certificates if k["kind"] == "residual")
    assert residual["witness_kind"] == "exact" and residual["witness"] is None
    residual["witness"] = 7
    with pytest.raises(AssertionError):
        recheck_report(rep)


@pytest.mark.parametrize("c, kind", [(-16, "sieve"), (-25, "m-congruence"),
                                     (2, "neg-one-prime")])
def test_recheck_rejects_a_certificate_with_an_extra_key(c, kind):
    rep = verify_classification(c)
    _cert(rep, kind)["junk"] = 1
    with pytest.raises(AssertionError):
        recheck_report(rep)


# --- prime-witness rules checked by their Jacobi class ------------------------

def _with_chain(rep, factor, chain):
    _track(rep, factor).certificates = chain
    return rep


def _stable_chain(c, witness):
    return [{"kind": "case-detection", "case": 7}, witness,
            {"kind": "exact-nonsquare", "target": "a_n", "index": 2, "value": f"{c + 1}/1"},
            {"kind": "rigid-divisibility", "through": "a2"}]


def _g2_chain(rep, witness, m1=None):
    head = _track(rep, "g2").certificates[0]
    assert head["kind"] == "negative-obstruction"
    premise = [] if m1 is None else [
        {"kind": "exact-nonsquare", "target": "m-1", "index": 0, "value": f"{m1}/1"},
        {"kind": "rigid-divisibility", "through": "w2"}]
    return [head, witness] + premise


def test_neg_one_prime_witness_c_plus_1_near_1e16_rechecks_fast():
    # c + 1 = 10^16 + 79 is prime and 3 (mod 4): the witness is c + 1 itself,
    # which a primality recheck would trial-divide up to 10^8
    c = 10 ** 16 + 78
    rep = verify_classification(c)
    assert rep.verified
    assert _cert(rep, "neg-one-prime") == {"kind": "neg-one-prime", "p": c + 1}
    t0 = time.perf_counter()
    recheck_report(rep)
    assert time.perf_counter() - t0 < 0.1


def test_m_neg_one_prime_witness_m_plus_1_near_1e16_is_fast():
    # m + 1 = 10^16 + 991 is prime and 7 (mod 8), and no list rule applies
    m = 10 ** 16 + 990
    t0 = time.perf_counter()
    rep = verify_classification(-m * m)
    recheck_report(rep)
    assert time.perf_counter() - t0 < 0.5
    assert rep.verified
    assert _cert(rep, "m-neg-one-prime") == {"kind": "m-neg-one-prime", "p": m + 1, "mod8": 7}


def test_neg_one_prime_is_the_least_qualifying_prime_of_c_plus_1():
    # both primes are past trial division, so rho finds them in its own order
    c = 1000003 * 1000039 - 1
    assert _cert(verify_classification(c), "neg-one-prime")["p"] == 1000003


def test_neg_one_prime_accepts_a_composite_witness():
    rep = verify_classification(14)
    assert _cert(rep, "neg-one-prime")["p"] == 3
    recheck_report(_with_chain(rep, "f", _stable_chain(14, {"kind": "neg-one-prime", "p": 15})))


@pytest.mark.parametrize("p", [-1, -5, -15, 0, 1, 5])
def test_neg_one_prime_rejects_witnesses_outside_its_class(p):
    # -1 and -5 divide 15 and are 3 (mod 4): only p > 1 rejects them
    rep = _with_chain(verify_classification(14), "f",
                      _stable_chain(14, {"kind": "neg-one-prime", "p": p}))
    with pytest.raises(AssertionError):
        recheck_report(rep)


def test_neg_one_prime_rejects_a_float_witness_past_float_precision():
    # c + 1 = 3 * 2^60 + 1 = 1 (mod 3), but float(c + 1) % 3.0 == 0
    c = 3 * 2 ** 60
    assert (c + 1) % 3 == 1 and (c + 1) % 3.0 == 0
    rep = _with_chain(verify_classification(c), "f",
                      _stable_chain(c, {"kind": "neg-one-prime", "p": 3.0}))
    with pytest.raises(AssertionError):
        recheck_report(rep)


def test_m_neg_one_prime_accepts_a_composite_witness():
    rep = verify_classification(-14 ** 2)
    assert _cert(rep, "m-congruence")["modulus"] == 23
    witness = {"kind": "m-neg-one-prime", "p": 15, "mod8": 7}
    recheck_report(_with_chain(rep, "g2", _g2_chain(rep, witness)))


@pytest.mark.parametrize("p", [-1, -9, 1, 5])
def test_m_neg_one_prime_rejects_witnesses_outside_its_class(p):
    rep = verify_classification(-14 ** 2)
    witness = {"kind": "m-neg-one-prime", "p": p, "mod8": p % 8}
    _with_chain(rep, "g2", _g2_chain(rep, witness))
    with pytest.raises(AssertionError):
        recheck_report(rep)


def test_m_neg_one_prime_three_mod_8_needs_the_m_minus_1_premise():
    # 3 | 15 and 3 = 3 (mod 8): accepted only with m - 1 = 13 non-square stated
    rep = verify_classification(-14 ** 2)
    witness = {"kind": "m-neg-one-prime", "p": 3, "mod8": 3}
    recheck_report(_with_chain(rep, "g2", _g2_chain(rep, witness, m1=13)))
    _with_chain(rep, "g2", _g2_chain(rep, witness))
    with pytest.raises(AssertionError):
        recheck_report(rep)


def test_m_neg_one_prime_rejects_a_float_witness_past_float_precision():
    m = 7 * 2 ** 60
    assert (m + 1) % 7 == 1 and (m + 1) % 7.0 == 0
    rep = verify_classification(-m * m)
    _with_chain(rep, "g2", _g2_chain(rep, {"kind": "m-neg-one-prime", "p": 7.0, "mod8": 7.0}))
    with pytest.raises(AssertionError):
        recheck_report(rep)


def test_prime_witness_rules_at_small_c_and_m():
    # c = 2: c + 1 = 3 is the witness, with c + 1 non-square as its premise
    assert _track(verify_classification(2), "f").certificates == \
        _stable_chain(2, {"kind": "neg-one-prime", "p": 3})
    # m = 3: the list rule 3 (mod 4) applies before any divisor of m + 1
    assert _cert(verify_classification(-9), "m-congruence")["modulus"] == 4
    # m = 6: 7 = 7 (mod 8) divides m + 1 and needs no premise on m - 1
    rep = verify_classification(-36)
    recheck_report(_with_chain(rep, "g2", _g2_chain(
        rep, {"kind": "m-neg-one-prime", "p": 7, "mod8": 7})))
    # m = 10: 11 = 3 (mod 8) divides m + 1, but m - 1 = 9 is a square
    rep = verify_classification(-100)
    for m1 in (None, 9):
        _with_chain(rep, "g2", _g2_chain(rep, {"kind": "m-neg-one-prime", "p": 11, "mod8": 3},
                                         m1=m1))
        with pytest.raises(AssertionError):
            recheck_report(rep)


@settings(max_examples=60, deadline=None)
@given(q=st.integers(0, 250), k=st.integers(1, 40), n=st.integers(1, 10))
def test_jacobi_class_residue_lemmas(q, k, n):
    # d = 3 (mod 4), prime or not, and c + 1 = k d (resp. m + 1 = k d)
    d = 4 * q + 3
    c = k * d - 1
    a_n = critical_numerators(c, n)[-1] % d
    assert a_n == (0 if n % 2 == 0 else 1 if n == 1 else d - 1)
    if n >= 3 and n % 2:
        assert jacobi(a_n, d) == -1
    m = k * d - 1
    g2 = next(g for g in build_pattern(-m * m) if g.name == "g2")
    value = eval_at_orbit(g2, -m * m, n) * m ** (2 ** n)
    assert value.denominator == 1
    w = value.numerator % d
    assert w == (d - 1 if n % 2 == 0 else d - 2)
    assert jacobi(w, d) == -1 or n % 2 and d % 8 == 3


def test_g2_falls_back_to_the_sieve_when_m_plus_1_resists_factoring(monkeypatch):
    # no list rule applies to m = p q - 1, and with a small rho budget m + 1
    # cannot be factored: the classification must not raise, and the sieve
    # track proves g2
    monkeypatch.setattr(primes, "RHO_BUDGET", 1 << 8)
    p, q = 10 ** 20 + 3931, 100000000000001003971
    m = p * q - 1
    assert not match_m_rules(m)
    with pytest.raises(primes.FactorizationBudget):
        primes.factorize(m + 1)
    rep = verify_classification(-m * m)
    assert rep.verified
    assert _cert(rep, "sieve")
    recheck_report(rep)
