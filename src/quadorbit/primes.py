"""Prime utilities: sieving, primality, and budgeted factorization."""
from __future__ import annotations

import math
from functools import lru_cache


class FactorizationBudget(ArithmeticError):
    """Factorization did not finish within the trial/rho budget."""


def sieve_primes(limit: int) -> list[int]:
    if limit < 2:
        return []
    s = bytearray([1]) * (limit + 1)
    s[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if s[i]:
            s[i * i:: i] = b"\x00" * len(s[i * i:: i])
    return [i for i, v in enumerate(s) if v]


@lru_cache(maxsize=8)
def primes_to(limit: int) -> tuple[int, ...]:
    return tuple(sieve_primes(limit))


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # deterministic below 3.3e24


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int, seed: int, budget: int) -> int | None:
    # Brent's cycle variant; returns a nontrivial factor or None on budget.
    x, c = seed % n, 1 + seed % (n - 1)
    y, d, steps = x, 1, 0
    m = 128
    while d == 1:
        xs = x
        prod = 1
        for _ in range(m):
            x = (x * x + c) % n
            prod = prod * abs(x - y) % n
            steps += 1
            if steps > budget:
                return None
        d = math.gcd(prod, n)
        if d == n:
            # back off to single steps
            x, d = xs, 1
            while d == 1:
                x = (x * x + c) % n
                d = math.gcd(abs(x - y), n)
                steps += 1
                if steps > budget:
                    return None
            break
        y = x
    return d if 1 < d < n else None


TRIAL_LIMIT = 10 ** 6
RHO_BUDGET = 1 << 22    # Pollard rho steps per seed


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {p: exponent}.

    Trial division up to TRIAL_LIMIT, then deterministic-seeded Pollard rho
    with a step budget; raises FactorizationBudget rather than stalling.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    fac: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n and d <= TRIAL_LIMIT:
        while n % d == 0:
            fac[d] = fac.get(d, 0) + 1
            n //= d
        d += wheel[i]
        i = (i + 1) % 8
    if n == 1:
        return fac
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            fac[m] = fac.get(m, 0) + 1
            continue
        f = None
        for seed in range(2, 12):
            f = _pollard_rho(m, seed, RHO_BUDGET)
            if f:
                break
        if not f:
            raise FactorizationBudget(f"no factor of {m} within budget")
        stack.append(f)
        stack.append(m // f)
    return fac
