import time
from fractions import Fraction

import pytest

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
    decided = 0
    for c in cs:
        for t in ts:
            zero_index = _exact_zero_index(c, t)
            for p in sieve_primes(2999)[1:]:
                if c % p == 0 or t.denominator % p == 0:
                    continue
                x0 = t.numerator * pow(t.denominator, -1, p) % p
                walked = density._walk(p, pow(c, -1, p), x0, zero_index)
                decision = density._divides(p, c, t.numerator, t.denominator, zero_index)
                assert decision == walked, (p, c, t)
                decided += jacobi(-c % p, p) == -1
    assert decided > 5000


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


def test_profile_walks_residue_primes_and_the_audited_primes(monkeypatch):
    walked = _record_walks(monkeypatch)
    prof = density_profile(904, 0, 10 ** 4)
    assert prof.violations == ()
    assert walked == [p for p in sieve_primes(10 ** 4) if 904 % p
                      and (p < density.AUDIT_BELOW or jacobi(-904 % p, p) == 1)]


def test_audit_fires_when_the_residue_test_is_wrong(monkeypatch):
    # a residue test that rules out every odd prime contradicts the walk
    monkeypatch.setattr(density, "jacobi", lambda a, n: -1)
    prof = density_profile(2, 0, 200)
    assert prof.violations
    assert list(prof.violations) == [p for p in sieve_primes(200)[1:]
                                     if _naive_divides_orbit(p, 2, Fraction(0), 0)]
