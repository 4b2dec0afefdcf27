import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from quadorbit.factors import FactorPoly, build_pattern
from quadorbit.orbit import critical_numerators
from quadorbit.primes import sieve_primes
from quadorbit.sieve import (FactorTarget, ModOrbit, NumeratorTarget, M_RULES_NEED_M_MINUS_1,
                             M_RULES_UNCONDITIONAL, SQUARE_VALUES_COMPOSITE,
                             TermUnresolved, _admission_patterns, _nonresidues,
                             certificate_at_prime, check_term_nonsquare,
                             compare_congruence_tables, find_sieve_certificate,
                             jacobi, load_static_congruence_table,
                             match_congruence_rows, match_m_rules,
                             parse_congruence_table, format_congruence_table,
                             regenerate_congruence_table,
                             verify_m_rule, verify_row_coverage,
                             verify_sieve_certificate)


def _factor(c, name):
    return {g.name: g for g in build_pattern(c)}[name]


def test_jacobi_examples():
    assert jacobi(6, 31) == -1
    assert jacobi(2, 7) == 1       # 3^2 = 2 mod 7
    for p in (3, 7, 11, 19, 23):   # p = 3 mod 4
        assert jacobi(p - 1, p) == -1


def test_jacobi_matches_euler_criterion():
    for p in sieve_primes(1000):
        if p == 2:
            continue
        for a in range(1, p):
            e = pow(a, (p - 1) // 2, p)
            assert jacobi(a, p) == (-1 if e == p - 1 else e)


def test_orbit_mod_examples():
    # the orbit of 0 under x -> x^2 + 1/c mod p
    om = ModOrbit.of(pow(4, -1, 3), 3)    # c = 1 mod 3 so c0 = 1: 0, 1, 2, 2, ...
    assert om.c0 == 1
    assert [om.value(k) for k in range(5)] == [0, 1, 2, 2, 2]
    om5 = ModOrbit.of(pow(3, -1, 5), 5)   # c = 3 mod 5 so c0 = 2: 0, 2, 1, 3, 1, 3...
    assert om5.c0 == 2
    assert [om5.value(k) for k in range(1, 6)] == [2, 1, 3, 1, 3]
    om7 = ModOrbit.of(pow(5, -1, 7), 7)   # c = 5 mod 7 so c0 = 3: 3, 5, 0 cycling
    assert [om7.value(k) for k in range(1, 7)] == [3, 5, 0, 3, 5, 0]


def test_named_certificates_match_recorded_values():
    cases = [
        (-16, "g21", 11, 3, (6,)),
        (-16, "g22", 5, 1, (2,)),
        (48, "v1", 239, 7, (73,)),
        (48, "v2", 41, 7, (24,)),
    ]
    for c, name, p, start, values in cases:
        cert = find_sieve_certificate(c, FactorTarget(_factor(c, name)))
        assert cert is not None
        assert (cert.p, cert.start, cert.values) == (p, start, values), (c, name, cert)
        verify_sieve_certificate(cert, c, FactorTarget(_factor(c, name)))


def test_q1_pinned_certificate():
    # the smallest qualifying prime for q1 at c = 48 is 131 (a two-cycle);
    # the recorded computation used the constant certificate at 239
    q1 = FactorTarget(_factor(48, "q1"))
    smallest = find_sieve_certificate(48, q1)
    assert smallest is not None and smallest.p == 131
    pinned = certificate_at_prime(48, q1, 239)
    assert (pinned.p, pinned.start, pinned.values) == (239, 7, (13,))
    verify_sieve_certificate(pinned, 48, q1)


def test_special_s_cycle_certificates():
    expectations = {
        3: (29, {17, 15, 26, 21}),
        5: (23, {10, 11}),
        56: (31, {6}),
    }
    for s, (p, values) in expectations.items():
        c = -((s * s - 1) ** 2)
        h12 = FactorTarget(_factor(c, "h12"))
        cert = certificate_at_prime(c, h12, p)
        assert set(cert.values) == values, (s, cert)
        assert cert.start <= 2
        verify_sieve_certificate(cert, c, h12)
        if s in (3, 5):   # these are also the smallest qualifying primes
            found = find_sieve_certificate(c, h12, max_values=None)
            assert found.p == p


def test_numerator_certificates_small_c():
    # the residue facts behind the smallest cases: moduli 3, 5, 11
    nt = NumeratorTarget()
    for c, p in ((1, 3), (2, 5), (3, 11)):
        cert = find_sieve_certificate(c, nt, 50, max_values=None)
        assert cert.p == p
        assert cert.start <= 3
        verify_sieve_certificate(cert, c, nt)


@pytest.mark.parametrize("max_values", [2, None])
def test_certificate_values_are_read_from_its_start(max_values):
    # a_n(-1974) mod 17 runs 0, 1, 16, 10 and then (6, 10) from the cycle
    # entry 4; the start walks back one step to 3, less than a period, so the
    # values read from it are (10, 6), not the (6, 10) read at the entry
    nt = NumeratorTarget()
    cert = find_sieve_certificate(-1974, nt, 500, max_values)
    assert (cert.p, cert.start, cert.kind, cert.values) == (17, 3, "two_cycle", (10, 6))
    verify_sieve_certificate(cert, -1974, nt)


def test_certificate_verification_rejects_tampering():
    c = -16
    tgt = FactorTarget(_factor(c, "g21"))
    cert = find_sieve_certificate(c, tgt)
    from dataclasses import replace
    with pytest.raises(AssertionError):
        verify_sieve_certificate(replace(cert, start=cert.start - 1), c, tgt)
    with pytest.raises(AssertionError):
        verify_sieve_certificate(replace(cert, values=(5,)), c, tgt)


def test_goal_search_agreement_with_exact_values():
    # the reduced sequence must agree with exact evaluation termwise
    c = 48
    tgt = FactorTarget(_factor(48, "q1"))
    cert = certificate_at_prime(c, tgt, 239)
    seq = tgt.reduce(c, cert.p)
    for n in range(1, cert.start + len(cert.values) + 2):
        exact = tgt.exact(c, n)
        num = exact.numerator % cert.p
        den = pow(exact.denominator % cert.p, -1, cert.p)
        assert seq.value(n) == num * den % cert.p


# --- reductions mod k against exact values and a step-by-step reference ------

MODULI = (4, 8) + tuple(p for p in sieve_primes(199) if p > 2)
C_VALUES = st.one_of(st.integers(-10 ** 6, -2), st.integers(1, 1000),
                     st.integers(10 ** 29, 10 ** 30), st.integers(-10 ** 30, -10 ** 29))
POLYS = st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=30),
                 min_size=1, max_size=4).map(lambda co: FactorPoly("g", tuple(co)))


def _naive_numerator_mod(c, k, n):
    # a_1 = 1 and a_{j+1} = a_j^2 + c^(2^j - 1), stepped mod k n - 1 times
    a, q = 1, 1
    for _ in range(n - 1):
        q = q * q * c % k
        a = (a * a + q) % k
    return a


def _naive_factor_mod(g, c, k, n):
    c0 = pow(c, -1, k)
    x = 0
    for _ in range(n):
        x = (x * x + c0) % k
    return sum(co.numerator * pow(co.denominator, -1, k) * pow(x, i, k)
               for i, co in enumerate(g.coeffs)) % k


def _mod(value: Fraction, k):
    return value.numerator * pow(value.denominator, -1, k) % k


@settings(deadline=None)
@given(C_VALUES, st.sampled_from(MODULI), st.integers(1, 40))
def test_numerator_reduction_matches_exact_values(c, k, n):
    assume(math.gcd(c, k) == 1)
    seq = NumeratorTarget().reduce(c, k)
    assert seq.value(n) == _naive_numerator_mod(c, k, n)
    if n <= 10:
        assert seq.value(n) == critical_numerators(c, n)[-1] % k


@settings(deadline=None)
@given(C_VALUES, st.sampled_from(MODULI), st.integers(1, 40), POLYS)
def test_factor_reduction_matches_exact_values(c, k, n, g):
    tgt = FactorTarget(g)
    assume(tgt.ok_mod(c, k))
    seq = tgt.reduce(c, k)
    assert seq.value(n) == _naive_factor_mod(g, c, k, n)
    if n <= 10:
        assert seq.value(n) == _mod(tgt.exact(c, n), k)


@settings(max_examples=6, deadline=None)
@given(C_VALUES, st.sampled_from(MODULI))
def test_reductions_far_past_the_stored_window(c, k):
    assume(math.gcd(c, k) == 1)
    n = 10 ** 6
    assert NumeratorTarget().reduce(c, k).value(n) == _naive_numerator_mod(c, k, n)
    g = FactorPoly("g", (Fraction(3, 7), Fraction(-2), Fraction(1)))
    if FactorTarget(g).ok_mod(c, k):
        assert FactorTarget(g).reduce(c, k).value(n) == _naive_factor_mod(g, c, k, n)


@st.composite
def _sieve_cases(draw):
    """(c, target, p): a_n or a random factor at a random c, or a named factor
    at c = -m^2, at an odd prime p."""
    p = draw(st.sampled_from(MODULI[2:]))
    kind = draw(st.sampled_from(["a_n", "poly", "named"]))
    if kind == "named":
        m = draw(st.integers(2, 400))
        return -m * m, FactorTarget(draw(st.sampled_from(build_pattern(-m * m)))), p
    c = draw(st.integers(-10 ** 6, 10 ** 6).filter(lambda c: c not in (0, -1)))
    return c, NumeratorTarget() if kind == "a_n" else FactorTarget(draw(POLYS)), p


@settings(max_examples=400, deadline=None)
@given(_sieve_cases())
@example((-1974, NumeratorTarget(), 17))
def test_certificates_are_in_canonical_form(case):
    # every certificate passes its own checker, starts at the least index
    # from which its values repeat, and lists one least period of them
    c, target, p = case
    cert = certificate_at_prime(c, target, p)
    if cert is None:
        return
    verify_sieve_certificate(cert, c, target)
    seq, d = target.reduce(c, p), cert.period
    assert cert.start == 1 or seq.value(cert.start - 1) != seq.value(cert.start - 1 + d)
    assert all(any(cert.values[i] != cert.values[i % e] for i in range(d))
               for e in range(1, d) if d % e == 0)


def test_residual_checks():
    g21 = FactorTarget(_factor(-16, "g21"))
    tc = check_term_nonsquare(-16, g21, 1)
    assert tc.nonsquare and tc.witness_kind == "exact"      # 129/256
    tc2 = check_term_nonsquare(-16, g21, 2)
    assert tc2.nonsquare                                     # 19*1723/2^16
    nt = NumeratorTarget()
    tc3 = check_term_nonsquare(2, nt, 3)
    assert tc3.nonsquare and tc3.witness_kind == "exact"     # a_3(2) = 17
    g2 = FactorTarget(_factor(-16, "g2"))
    tc4 = check_term_nonsquare(-16, g2, 2)
    assert not tc4.nonsquare and tc4.witness_kind == "square"  # 49/256
    h2 = FactorTarget(_factor(-9, "h2"))
    tc5 = check_term_nonsquare(-9, h2, 1)
    assert tc5.nonsquare  # (s^3 - s - 1)/m^2 with s = 2: 5/9


def test_residual_unresolved_budget():
    nt = NumeratorTarget()
    with pytest.raises(TermUnresolved):
        check_term_nonsquare(10 ** 6 + 2, nt, 30, prime_budget=0, bit_budget=64)


def test_congruence_table_moduli_and_examples():
    static = load_static_congruence_table()
    assert len(static.rows) == 26
    assert static.rows[3] == (1, 2)
    assert static.rows[8] == (1,)
    assert static.rows[5] == (2, 3)
    regen = regenerate_congruence_table(100)
    assert regen.rows[3] == (1, 2)
    assert regen.rows[5] == (2, 3)
    assert 1 in regen.rows[8]


def test_congruence_table_regeneration_diffs_are_classified():
    # the published table and the two-pattern regeneration differ in a known
    # handful of rows; every published-only row must still verify through
    # the divisibility closure
    regen = regenerate_congruence_table(100)
    static = load_static_congruence_table()
    diffs = compare_congruence_tables(regen, static)
    for d in diffs:
        if d.side == "static_only":
            assert "covered by pattern" in d.note, d
    static_only = {(d.modulus, d.residue) for d in diffs if d.side == "static_only"}
    assert static_only == {(67, 51), (67, 55), (79, 36), (83, 71)}
    regen_only = {(d.modulus, d.residue) for d in diffs if d.side == "regenerated_only"}
    assert regen_only == {(8, 3), (8, 7), (37, 25), (89, 64)}


def test_row_coverage_verifier():
    static = load_static_congruence_table()
    for k, residues in static.rows.items():
        for r in residues:
            assert verify_row_coverage(k, r) is not None, (k, r)


def test_nonresidue_tables_match_jacobi_and_the_square_sets():
    moduli = (set(regenerate_congruence_table(200).rows)
              | set(load_static_congruence_table().rows)
              | set(M_RULES_UNCONDITIONAL) | set(M_RULES_NEED_M_MINUS_1))
    assert {4, 8, 3, 199} <= moduli
    for k in sorted(moduli):
        table = _nonresidues(k)
        squares = {x * x % k for x in range(k)}
        assert len(table) == k
        for v in range(k):
            if k in SQUARE_VALUES_COMPOSITE:
                expected = v not in SQUARE_VALUES_COMPOSITE[k]
            else:
                expected = jacobi(v, k) == -1
            assert table[v] == expected == (v not in squares), (k, v)


def _admission_patterns_per_index(c_class, k):
    """The per-index statement of the three admission patterns: the
    reference that _admission_patterns' stepped slices must match."""
    seq = NumeratorTarget().reduce(c_class, k)
    W = seq.entry + 6 * seq.period + 12
    ns = seq.map(_nonresidues(k).__getitem__).prefix(W + 1)
    return {
        "odd_from_5": all(ns[n] for n in range(5, W + 1, 2)),
        "offsets_7_5": (all(ns[n] for n in range(7, W + 1, 3))
                        and all(ns[n] for n in range(5, W + 1, 3))),
        "closure": all(ns[n] for n in range(5, W + 1, 2) if n % 3 != 0),
    }


def test_admission_pattern_slices_match_the_per_index_reference():
    # moduli past 256 included: table1 --regen --bound accepts any bound
    moduli = sorted(regenerate_congruence_table(300).rows)
    assert moduli[-1] == 293 and {4, 8} <= set(moduli)
    held = dict.fromkeys(("odd_from_5", "offsets_7_5", "closure"), 0)
    for k in moduli:
        for r in range(1, k):
            if math.gcd(r, k) == 1:
                got = _admission_patterns(r, k)
                assert got == _admission_patterns_per_index(r, k), (k, r)
                for name, ok in got.items():
                    held[name] += ok
    assert all(held.values()), held   # each pattern holds somewhere


def test_table_round_trip():
    static = load_static_congruence_table()
    again = parse_congruence_table(format_congruence_table(static))
    assert again.rows == static.rows


def test_match_congruence_rows():
    static = load_static_congruence_table()
    assert (3, 1) in match_congruence_rows(4, static)
    assert (3, 2) in match_congruence_rows(2, static)
    assert match_congruence_rows(10 ** 4, static)  # 10^4 = 1 mod 3


def test_m_rules_match_and_verify():
    matches = match_m_rules(3)  # m = 3: group-1 rows mod 4 and mod 5
    assert any(r.modulus == 4 and r.residue == 3 and not r.needs_m_minus_1_nonsquare
               for r in matches)
    assert any(r.modulus == 7 for r in match_m_rules(2 + 7 * 3))
    # a known subset of the published unconditional rows only verifies with
    # the conditional exemption through the m-1 base value; every row must
    # verify in at least that mode
    conditional_only = set()
    for k, residues in M_RULES_UNCONDITIONAL.items():
        for r in residues:
            if not verify_m_rule(k, r, False):
                assert verify_m_rule(k, r, True), (k, r)
                conditional_only.add((k, r))
    assert conditional_only == {(13, 8), (17, 4), (17, 8), (17, 11), (17, 15),
                                (23, 11), (23, 20), (23, 21), (37, 6), (43, 21)}
    for k, residues in M_RULES_NEED_M_MINUS_1.items():
        for r in residues:
            assert verify_m_rule(k, r, True), (k, r)
