import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from quadorbit import density
from quadorbit.density import (ExcludedPrime, _exact_zero_index, density_profile,
                               divides_orbit, profile_rows)
from quadorbit.primes import sieve_primes
from quadorbit.sieve import ModOrbit, jacobi


def test_divides_orbit_examples():
    assert divides_orbit(3, 2, 0)        # numerator of f^2(0) for c=2 is 3
    assert not divides_orbit(5, 2, 0)    # orbit mod 5 never returns to 0
    with pytest.raises(ExcludedPrime):
        divides_orbit(2, 2, 0)
    with pytest.raises(ExcludedPrime):
        divides_orbit(3, 5, Fraction(1, 3))


def test_nonresidue_forces_non_dividing():
    for c in (2, 5, 6, 7, 10):
        for p in range(3, 300, 2):
            if not all(p % d for d in range(2, p)) or (2 * c) % p == 0:
                continue
            if jacobi(-c % p, p) == -1:
                # the walk, which divides_orbit skips for these primes
                assert not density._walk(p, pow(c, -1, p), 0, 0), (p, c)


def test_exact_zero_exclusion():
    # t = 1/2 maps to 0 under one step of x^2 - 1/4: that visit must not
    # count, but later hits of 0 mod p do
    c = -4
    t = Fraction(1, 2)
    assert divides_orbit(3, c, t) == divides_orbit(3, c, 0)
    # direct numerator hit: t itself divisible by p counts when t != 0
    assert divides_orbit(7, 5, Fraction(7, 2))


def test_profile_counts_and_invariant():
    prof = density_profile(2, 0, 10 ** 4)
    assert prof.hypothesis_met
    assert prof.violations == ()
    assert prof.excluded == (2,)
    last = prof.checkpoints[-1]
    assert last.bound == 10 ** 4
    assert 0 < last.fraction < 0.55
    counts = [cp.dividing for cp in prof.checkpoints]
    assert counts == sorted(counts)


def test_profile_hypothesis_banner():
    prof = density_profile(3, 0, 100)   # c + 1 = 4 is a square
    assert not prof.hypothesis_met


def test_profile_deterministic():
    a = density_profile(6, 0, 2000)
    b = density_profile(6, 0, 2000)
    assert a == b
    assert profile_rows(a) == profile_rows(b)


def _naive_divides_orbit(p, c, t, exact_zero):
    """Step the orbit of t mod p 2p times; a visit to 0 counts unless it is
    the index where the exact orbit value is 0.

    Tail plus cycle is at most p, so 2p steps see every visit pattern."""
    c0 = pow(c, -1, p)
    x = t.numerator * pow(t.denominator, -1, p) % p
    for n in range(2 * p):
        if x == 0 and n != exact_zero:
            return True
        x = (x * x + c0) % p
    return False


def test_divides_orbit_matches_naive_simulation():
    # (c, t, index of the exact zero of the orbit of t, or None)
    cases = [(2, 0, 0), (5, 0, 0), (-7, 0, 0), (-10, 0, 0), (1000003, 0, 0),
             (3, Fraction(7, 2), None), (6, 1, None), (10, Fraction(-5, 9), None),
             (-4, Fraction(1, 2), 1), (-9, Fraction(-1, 3), 1), (-16, Fraction(1, 4), 1)]
    for c, t, exact_zero in cases:
        t = Fraction(t)
        for p in sieve_primes(1999):
            if c % p == 0 or t.denominator % p == 0:
                continue
            assert divides_orbit(p, c, t) == _naive_divides_orbit(p, c, t, exact_zero), (p, c, t)


# the profile grid: c = -4, t = 1/2 has its exact zero at index 1; 7 divides
# the numerator of 7/2 and 5 that of -5/9
PROFILE_CS = (2, 904, -7, -4)
PROFILE_TS = (Fraction(0), Fraction(7, 2), Fraction(1, 2), Fraction(-5, 9))


def _exact_zero(c, t):
    return 0 if t == 0 else (1 if (c, t) == (-4, Fraction(1, 2)) else None)


@pytest.mark.parametrize("c", PROFILE_CS)
@pytest.mark.parametrize("t", PROFILE_TS, ids=str)
def test_profile_counts_match_naive_simulation(c, t):
    # the profile decides each prime on its own path, not through divides_orbit
    assert _exact_zero_index(c, t) == _exact_zero(c, t)
    prof = density_profile(c, t, 3000, checkpoints=(10, 100, 1000))
    for cp in prof.checkpoints:
        primes = [p for p in sieve_primes(cp.bound) if c % p and t.denominator % p]
        assert cp.primes == len(primes)
        assert cp.dividing == sum(_naive_divides_orbit(p, c, t, _exact_zero(c, t))
                                  for p in primes), (c, t, cp)


def _modorbit_divides_orbit(p, c, t):
    """Reference: the tail and cycle of one ModOrbit per prime."""
    t = Fraction(t)
    x = (t.numerator % p) * pow(t.denominator % p, -1, p) % p
    orbit = ModOrbit.of(pow(c % p, -1, p), p, x)
    if 0 in orbit.cycle:
        return True
    return 0 in orbit.tail and orbit.tail.index(0) != _exact_zero_index(c, t)


def test_divides_orbit_matches_modorbit_reference():
    cases = [(c, t) for c in PROFILE_CS for t in PROFILE_TS]
    cases += [(-9, Fraction(-1, 3)), (-16, Fraction(1, 4)), (1000003, Fraction(0))]
    for c, t in cases:
        for p in sieve_primes(1999):
            if c % p == 0 or t.denominator % p == 0:
                continue
            assert divides_orbit(p, c, t) == _modorbit_divides_orbit(p, c, t), (p, c, t)


def test_no_false_violation_for_a_division_at_index_0():
    # p divides t itself, with (-c/p) = -1: a division at index 0, which the
    # residue invariant does not cover
    for c, t, p in ((7, Fraction(3), 3), (2, Fraction(7, 2), 7)):
        assert jacobi(-c % p, p) == -1 and divides_orbit(p, c, t)
        assert density_profile(c, t, 3000).violations == ()


@pytest.mark.parametrize("t", (Fraction(1), Fraction(2), Fraction(3, 2)), ids=str)
def test_orbits_of_c_1_end_and_match_the_naive_walk(t):
    # under x^2 + 1 an integer t stays in Z, so only |x| > 1 + |1/c| = 2
    # ends the search for an exact zero; it used to square on past 64 steps
    t0 = time.perf_counter()
    assert _exact_zero_index(1, t) is None
    for p in sieve_primes(1999):
        if t.denominator % p:
            assert divides_orbit(p, 1, t) == _naive_divides_orbit(p, 1, t, None), (p, t)
    assert density_profile(1, t, 3000).violations == ()
    assert time.perf_counter() - t0 < 10


@pytest.mark.parametrize("c", (0, -1))
def test_degenerate_c_is_rejected(c):
    with pytest.raises(ValueError, match="avoid 0 and -1"):
        density_profile(c, 0, 100)
    with pytest.raises(ValueError, match="avoid 0 and -1"):
        divides_orbit(3, c, 0)


def test_residue_decision_equals_the_forced_walk():
    # -4, -9 and -16 make -c a square, so the residue test never fires; c = -4,
    # t = 1/2 has its exact zero at index 1; p divides 7/2, 3 and 15
    cs = (2, 3, 7, 904, -7, 1000003, -4, -9, -16)
    ts = (Fraction(0), Fraction(1, 2), Fraction(7, 2), Fraction(3), Fraction(15),
          Fraction(-5, 9))
    decided = closed = 0
    for c in cs:
        for t in ts:
            zero_index = _exact_zero_index(c, t)
            for p in sieve_primes(2999)[1:]:
                if c % p == 0 or t.denominator % p == 0:
                    continue
                c0 = pow(c, -1, p)
                x0 = t.numerator * pow(t.denominator, -1, p) % p
                walked = density._walk(p, c0, x0, zero_index)
                decision = density._divides(p, c, t.numerator, t.denominator, zero_index)
                assert decision == walked, (p, c, t)
                by_tree = density._by_tree(p, c0, x0, zero_index)
                assert by_tree in (None, walked), (p, c, t)
                if jacobi(-c % p, p) == -1:
                    # the tree's root level is the residue test: it closes at once
                    assert by_tree == (x0 == 0 and zero_index != 0), (p, c, t)
                    decided += 1
                closed += by_tree is not None
    assert decided > 5000 and closed > decided + 3000


def _record_walks(monkeypatch):
    walked = []
    real_walk = density._walk

    def walk(p, *args):
        walked.append(p)
        return real_walk(p, *args)

    monkeypatch.setattr(density, "_walk", walk)
    return walked


def test_p_2_walks_for_odd_c(monkeypatch):
    walked = _record_walks(monkeypatch)
    assert divides_orbit(2, 3, 0) == _naive_divides_orbit(2, 3, Fraction(0), 0)
    assert divides_orbit(2, -7, Fraction(1, 3)) == \
        _naive_divides_orbit(2, -7, Fraction(1, 3), None)
    assert walked == [2, 2]


def _tree_size(p, c0):
    """The number of points whose orbit under x -> x^2 + c0 mod p reaches 0,
    or None when 0 is periodic; from a table of square roots, not from
    density's."""
    x, seen = c0, {0}
    while x not in seen:
        seen.add(x)
        x = (x * x + c0) % p
    if x == 0:
        return None
    roots = {x * x % p: x for x in range(1, (p + 1) // 2)}
    size, level = 0, [0]
    while level:
        size += len(level)
        below = []
        for y in level:
            r = roots.get((y - c0) % p)
            if r:
                below += (r, p - r)
        level = below
    return size


def test_profile_walks_residue_primes_and_the_audited_primes(monkeypatch):
    # a prime is walked once when its tree has more than _tree_budget(p)
    # nodes or 0 is periodic, and once more as the audit when the tree
    # decided it below AUDIT_BELOW; the tree sizes come from _tree_size
    walked = _record_walks(monkeypatch)
    prof = density_profile(904, 0, 10 ** 4)
    assert prof.violations == ()
    primes = [p for p in sieve_primes(10 ** 4) if 904 % p]
    left = set()
    for p in primes:
        size = _tree_size(p, pow(904, -1, p))
        if size is None or size > density._tree_budget(p):
            left.add(p)
    assert walked == [p for p in primes if p < density.AUDIT_BELOW or p in left]
    assert (prof.by_tree, prof.by_walk) == (len(primes) - len(left), len(left))
    assert prof.audited == len([p for p in primes
                                if p < density.AUDIT_BELOW and p not in left])
    # the tree decides more primes than the residue test did, and every
    # prime the residue test decided is among them
    residue = {p for p in primes if jacobi(-904 % p, p) == -1}
    assert not residue & left and prof.by_tree > len(residue) + 100


def _audit_expected(tree, bound):
    """The primes below min(bound, AUDIT_BELOW) where the tree decides c = 2,
    t = 0 and the naive simulation disagrees with it."""
    return [p for p in sieve_primes(min(bound, density.AUDIT_BELOW))[1:]
            if tree(p, pow(2, -1, p), 0, 0) not in
            (None, _naive_divides_orbit(p, 2, Fraction(0), 0))]


def test_audit_fires_when_the_residue_test_is_wrong(monkeypatch):
    # a tree decision that rules out every odd prime contradicts the walk;
    # past AUDIT_BELOW nothing is walked, so nothing is recorded there
    def tree(p, c0, x0, zero_index):
        return None if p == 2 else False

    monkeypatch.setattr(density, "_by_tree", tree)
    prof = density_profile(2, 0, 2000)
    assert prof.violations
    assert list(prof.violations) == _audit_expected(tree, 2000) == \
        [p for p in sieve_primes(density.AUDIT_BELOW)[1:]
         if _naive_divides_orbit(p, 2, Fraction(0), 0)]


def test_audit_fires_on_every_negated_tree_decision(monkeypatch):
    real_tree = density._by_tree

    def tree(p, c0, x0, zero_index):
        decided = real_tree(p, c0, x0, zero_index)
        return None if decided is None else not decided

    monkeypatch.setattr(density, "_by_tree", tree)
    prof = density_profile(2, 0, 2000)
    assert list(prof.violations) == _audit_expected(tree, 2000)
    assert len(prof.violations) == prof.audited > 50


def test_audit_fires_when_the_root_level_is_wrong(monkeypatch):
    # the residue test is the tree's root level: square roots that never
    # exist close every tree at its root, which contradicts the walk
    monkeypatch.setattr(density, "_square_root", lambda p: lambda a: None)
    prof = density_profile(2, 0, 200)
    assert prof.violations
    assert list(prof.violations) == [p for p in sieve_primes(200)[1:]
                                     if _naive_divides_orbit(p, 2, Fraction(0), 0)]


# --- the square roots and the tree decision -------------------------------

def test_square_root_of_every_residue():
    # 7681 = 15 * 2^9 + 1, 12289 = 3 * 2^12 + 1, 65537 = 2^16 + 1: long
    # Tonelli-Shanks loops
    for p in sieve_primes(3000)[1:] + [7681, 12289, 65537]:
        root = density._square_root(p)
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            r = root(a)
            if a in squares:
                assert r is not None and r * r % p == a, (p, a, r)
            else:
                assert r is None, (p, a, r)


def test_composite_moduli_are_refused():
    # the roots are wrong mod a composite: 4 = 2^2 mod 15, but 4^4 = 1 mod 15
    assert density._square_root(15)(4) is None
    # and mod 9 no z has z^4 = -1, so Tonelli-Shanks' search must end; it is
    # made by the first root that needs it (8 = -1 mod 9), not up front,
    # and the tree then leaves the modulus to the walk
    root = density._square_root(9)
    with pytest.raises(density._NoNonResidue):
        root(8)
    assert density._by_tree(9, 1, 0, 0) is None
    for n in (0, 1, 4, 9, 15, 25, 561, 7 * 13):
        with pytest.raises(ValueError, match="not prime"):
            divides_orbit(n, 2, 0)


_PRIMES_5000 = sieve_primes(5000)


@st.composite
def _orbit_cases(draw):
    """(p, c, t): p below 5000, c any or -m^2, t any, 1/m, or a multiple of p."""
    p = draw(st.sampled_from(_PRIMES_5000))
    m = draw(st.integers(2, 400))
    if draw(st.booleans()):
        c = -m * m
    else:
        c = draw(st.integers(-10 ** 6, 10 ** 6).filter(lambda c: c not in (0, -1)))
    den = draw(st.integers(1, 10 ** 4))
    kind = draw(st.sampled_from(("any", "1/m", "p | t")))
    if kind == "1/m":
        t = Fraction(draw(st.sampled_from((1, -1))), m)
    elif kind == "p | t":
        t = Fraction(p * draw(st.integers(-50, 50)), den)
    else:
        t = Fraction(draw(st.integers(-10 ** 6, 10 ** 6)), den)
    assume(c % p and t.denominator % p)
    return p, c, t


@settings(max_examples=400, deadline=None)
@given(_orbit_cases())
def test_tree_decisions_match_the_naive_orbit_and_the_walk(case):
    p, c, t = case
    zero_index = _exact_zero_index(c, t)
    naive = _naive_divides_orbit(p, c, t, zero_index)
    assert density._divides(p, c, t.numerator, t.denominator, zero_index) == naive
    c0 = pow(c, -1, p)
    x0 = t.numerator * pow(t.denominator, -1, p) % p
    by_tree = density._by_tree(p, c0, x0, zero_index)
    if by_tree is not None:
        assert by_tree == density._walk(p, c0, x0, zero_index) == naive


def test_budget_counts_set_steps_at_the_benchmark_scale(monkeypatch):
    # density_profile(904, 0, 3e5): 13,006 walks and 5.68M set steps when
    # only the residue test came before the walk
    steps = []
    real_walk = density._walk

    def walk(p, c0, x0, zero_index):
        seen, x = set(), x0
        while x not in seen:
            seen.add(x)
            x = (x * x + c0) % p
        steps.append(len(seen))
        return real_walk(p, c0, x0, zero_index)

    monkeypatch.setattr(density, "_walk", walk)
    prof = density_profile(904, 0, 3 * 10 ** 5)
    assert prof.violations == ()
    assert len(steps) == prof.by_walk + prof.audited <= 6000
    assert sum(steps) <= 2_500_000
