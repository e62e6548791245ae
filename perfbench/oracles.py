"""Answer checks that share no code with tauhunt.

Everything here is the benchmark's own arithmetic: a sieve and trial
division for n <= 10^12, tau(n) from the product formula by the
power-series recurrence for E(q)^24 (E = prod (1 - q^n), sparse by
Euler's pentagonal theorem), the Hecke recursion for tau at prime
powers, and a divisor sieve for sigma_11(n) mod 691.
"""

from __future__ import annotations

import math
from functools import lru_cache

FACTOR_LIMIT = 10**12
TAU_63001 = -80561663527802406257321747  # tau(251^2), a prime in absolute value


@lru_cache(maxsize=None)
def primes_up_to(n: int) -> tuple[int, ...]:
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return tuple(i for i, v in enumerate(sieve) if v)


def factor(n: int) -> dict[int, int]:
    """{p: e} for 1 <= n <= 10^12 by trial division."""
    if not 1 <= n <= FACTOR_LIMIT:
        raise ValueError(f"oracle factor needs 1 <= n <= 10^12, got {n}")
    out: dict[int, int] = {}
    for p in primes_up_to(10**6):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    return n >= 2 and factor(n) == {n: 1}


@lru_cache(maxsize=4)
def tau_series(bound: int) -> tuple[int, ...]:
    """(tau(1), ..., tau(bound)): Delta = q E^24, n g_n = sum (25j - n) e_j g_{n-j}."""
    pent = {}
    k = 1
    while k * (3 * k - 1) // 2 < bound:
        sign = -1 if k % 2 else 1
        pent[k * (3 * k - 1) // 2] = sign
        pent[k * (3 * k + 1) // 2] = sign
        k += 1
    terms = sorted((j, e) for j, e in pent.items() if j < bound)
    g = [1] + [0] * (bound - 1)
    for n in range(1, bound):
        acc = 0
        for j, e in terms:
            if j > n:
                break
            acc += (25 * j - n) * e * g[n - j]
        g[n] = acc // n
    return tuple(g)


def tau(n: int) -> int:
    """tau(n) for n whose prime factors are all < 1000."""
    if n <= 10**4:
        return tau_series(10**4)[n - 1]
    small = tau_series(1000)
    out, rest = 1, n
    for p in primes_up_to(1000):
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        if e == 0:
            continue
        a, b = small[p - 1], p**11
        prev, cur = 1, a
        for _ in range(e - 1):
            prev, cur = cur, a * cur - b * prev
        out *= cur
    if rest != 1:
        raise ValueError(f"{n} has a prime factor above 1000")
    return out


def sigma11_mod691(bound: int) -> list[int]:
    """[sigma_11(n) mod 691 for n = 0..bound] (index 0 unused)."""
    out = [0] * (bound + 1)
    for d in range(1, bound + 1):
        w = pow(d, 11, 691)
        for m in range(d, bound + 1, d):
            out[m] += w
    return [v % 691 for v in out]


def omega_lower_bound(n: int, discount_exceptions: dict[str, int]) -> int:
    """Omega lower bound for tau(n), n > 1, whose square part is 1000-smooth.

    An exactly dividing odd prime adds 1 (tau(p) is even), and so does
    2 (|tau(2)| = 24 is not a unit); p^e with e >= 2 adds
    sigma_0(e + 1) - 1, less the recorded discount for (p, e) if any.
    """
    total = 0
    for p, e in factor(n).items():
        if e == 1:
            total += 1
            continue
        divisors = sum(1 for d in range(1, e + 2) if (e + 1) % d == 0)
        total += max(0, divisors - 1 - discount_exceptions.get(f"{p}^{e}", 0))
    return total
