"""Exact big-integer utilities shared by every other module.

Everything here is pure integer / rational arithmetic: deterministic
primality testing, factorization into the ascending ``((p, e), ...)``
tuple (trial division by the primes below 2^10, or below 2^16 and then
gcds with chunks of the primes below 2^20 for a number above 2^64, then
Brent's rho), the Lucas ladder, perfect-power tests, prime powers
refused before they are built when they are over the int-to-str digit
limit, exact polynomial signs at an int or a Fraction (sign_at reads
only the numerator and denominator, so this module imports no
fractions), and the continued-fraction convergents that a rational
interval fixes.  No floating point participates in any mathematical
decision; only that digit count reads a logarithm.  frozen_record, the
one class decorator of the package, makes the frozen value records of
every layer without the dataclasses module.
"""

from __future__ import annotations

import itertools
import math
import sys
from functools import lru_cache

__all__ = [
    "DomainError",
    "is_prime",
    "factor",
    "is_perfect_square",
    "integer_nth_root",
    "perfect_power_root",
    "prime_power_root",
    "primes_up_to",
    "continued_fraction_convergents",
]


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


def frozen_record(cls):
    """Make cls a frozen record of the fields its annotations name, in
    order, as @dataclass(frozen=True) does, from closures alone: the
    dataclasses module imports inspect and execs the methods it makes,
    which would cost every process that loads a layer.

    __init__ takes each field by position or name, fills a missing one
    with its class default (a fresh copy of a dict default) and then calls
    __post_init__, if the class has one.  Two records are equal when their
    classes are the same and their fields are equal, and hash is that of
    the field tuple, so a record holding a dict refuses hash.  The repr is
    Name(field=value, ...); assignment and deletion raise AttributeError.
    cls.__record_fields__ is the tuple of field names.
    """
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if len(args) > len(names) or not kwargs.keys() <= set(names[len(args):]):
            raise TypeError(f"{cls.__name__}() takes the fields {names}, each once")
        values = dict(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                values[name] = kwargs[name]
            elif name in defaults:
                value = defaults[name]
                values[name] = dict(value) if type(value) is dict else value
            else:
                raise TypeError(f"{cls.__name__}() is missing the field {name!r}")
        self.__dict__.update(values)
        if post_init is not None:
            post_init(self)

    def fields(self) -> tuple:
        return tuple(self.__dict__[name] for name in names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields(self)))
        return f"{cls.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{cls.__name__} is frozen: cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{cls.__name__} is frozen: cannot delete {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__record_fields__ = names
    return cls


# ---------------------------------------------------------------------------
# Primality and factorization
# ---------------------------------------------------------------------------

_TRIAL_BITS = 10  # trial division by the primes below 2^10; Brent's rho splits the rest
# a cofactor above 2^64 is trial-divided by the primes below 2^16, with
# no is_prime until it is at most 2^64: each is_prime or rho step on it
# costs in its length, so small primes are not split off it one by one
_LONG_TRIAL_BITS = 16
# a cofactor still above 2^64 then meets the primes up to 2^_CHUNK_BITS
# by one gcd with the product of each _CHUNK_SIZE of them (about 74
# gcds), and only a chunk with a common factor is trial-divided
_CHUNK_BITS = 20
_CHUNK_SIZE = 1024
# squarings Brent's rho may take on one cofactor: about a minute at about
# 1 us each (0.6-0.9 us measured on 29- and 39-digit cofactors, 2-vCPU Xeon)
_RHO_STEPS = 6 * 10**7

# Strong-pseudoprime bases proven sufficient for n < 3_317_044_064_679_887_385_961_981
# (Sorenson-Webster).  Above that bound the same bases are combined with a
# strong Lucas-Selfridge test (BPSW style, fixed parameters, no randomness);
# no counterexample to that combination is known.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=None)
def primes_up_to(n: int) -> tuple[int, ...]:
    """All primes <= n by sieve of Eratosthenes."""
    if n < 2:
        return ()
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = b"\x00" * ((n - start) // p + 1)
    return tuple(itertools.compress(itertools.count(), sieve))


def _miller_rabin(n: int, base: int) -> bool:
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(base % n, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def lucas_ladder(m: int, p: int, q: int, mod: int = 0) -> tuple[int, int]:
    """(U_m, U_(m+1)) of the Lucas sequence U_0 = 0, U_1 = 1,
    U_(j+1) = p U_j - q U_(j-1), in O(log m) products, each step reduced
    mod `mod` when it is nonzero.

    With alpha, beta the roots of z^2 - p z + q and alpha != beta,
    U_j = (alpha^j - beta^j) / (alpha - beta).  Then V_j = alpha^j + beta^j
    = 2 U_(j+1) - p U_j (expand (alpha + beta)(alpha^j - beta^j)), and
    alpha^2k - beta^2k = (alpha^k - beta^k)(alpha^k + beta^k) gives
    U_2k = U_k (2 U_(k+1) - p U_k), while
    (alpha^(k+1) - beta^(k+1))^2 - alpha beta (alpha^k - beta^k)^2
    = (alpha - beta)(alpha^(2k+1) - beta^(2k+1)) gives
    U_(2k+1) = U_(k+1)^2 - q U_k^2.  Both sides are polynomials in p and
    q, so the identities hold for alpha = beta too.  The ladder reads the
    bits of m from the top: each bit doubles k, and a set bit then steps
    to k + 1 by the recurrence.
    """
    if m < 0:
        raise DomainError("a Lucas term needs m >= 0")
    u, v = 0, 1  # (U_k, U_(k+1)), k growing from 0 through the bits of m
    for bit in bin(m)[2:]:
        u, v = u * (2 * v - p * u), v * v - q * u * u  # k -> 2k
        if bit == "1":
            u, v = v, p * v - q * u  # 2k -> 2k + 1
        if mod:
            u, v = u % mod, v % mod
    return u, v


def _strong_lucas_selfridge(n: int) -> bool:
    # Selfridge parameter choice: first D in 5, -7, 9, ... with (D|n) = -1.
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            break
        if j == 0 and abs(d) != n:
            return False
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    # strong test on U_k and V_(k 2^r), r < s, with k = (n+1) / 2^s odd, P = 1:
    # V_j = 2 U_(j+1) - P U_j and V_2j = V_j^2 - 2 Q^j
    k = n + 1
    s = (k & -k).bit_length() - 1
    k >>= s
    u, u1 = lucas_ladder(k, 1, q, n)
    v, qk = (2 * u1 - u) % n, pow(q, k, n)
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    if n == 1:
        return result
    return 0


def is_prime(n: int) -> bool:
    """Deterministic primality test (fixed bases, no randomness)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        if n % p == 0:
            return n == p
    if n < 53 * 53:
        return True
    if not all(_miller_rabin(n, b) for b in _MR_BASES):
        return False
    if n < _MR_PROVEN_BOUND:
        return True
    return _strong_lucas_selfridge(n)


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of odd composite n (Brent's cycle detection).

    The parameter sequence is fixed, so the result is deterministic.  Each
    round, r squarings to move x and at most r more to compare, is
    charged its 2r steps before it starts; a round that would take the
    total past _RHO_STEPS, about a minute, raises DomainError instead.
    """
    if n % 2 == 0:
        return 2
    steps = 0
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            steps += 2 * r
            if steps > _RHO_STEPS:
                raise DomainError(f"the {len(str(n))}-digit cofactor {n} needs more than "
                                  f"{_RHO_STEPS} rho steps, about a minute")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # pragma: no cover


def factor(n: int) -> tuple[tuple[int, int], ...]:
    """Exact factorization of ``|n|`` as its ``(prime, exponent)`` pairs in
    ascending order of the prime, so ``len()`` is omega(n); rejects n = 0.

    Trial division by the primes below 2^10 (2^16 for ``|n|`` above
    2^64) stops as soon as the cofactor is 1 or prime, which is tested
    only once it is at most 2^64.  A cofactor still above 2^64 loses its
    primes below 2^20 by gcds with their chunk products
    (``_prime_chunks``), and Brent's rho (``_pollard_rho``) splits any
    cofactor left.
    """
    if n == 0:
        raise DomainError("cannot factor 0")
    m = abs(n)
    found: dict[int, int] = {}
    if m >> 64 or m > 1 and not is_prime(m):
        for p in primes_up_to(1 << (_LONG_TRIAL_BITS if m >> 64 else _TRIAL_BITS)):
            if p * p > m:
                break
            if m % p:
                continue
            while m % p == 0:
                found[p] = found.get(p, 0) + 1
                m //= p
            if m == 1 or not m >> 64 and is_prime(m):
                break
    if m >> 64:
        for chunk, product in _prime_chunks():
            g = math.gcd(m, product)
            if g == 1:
                continue
            for p in chunk:
                while g % p == 0 and m % p == 0:
                    found[p] = found.get(p, 0) + 1
                    m //= p
    stack = [m] if m > 1 else []
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_prime(v):
            found[v] = found.get(v, 0) + 1
            continue
        g = _pollard_rho(v)
        stack.append(g)
        stack.append(v // g)
    return tuple(sorted(found.items()))


@lru_cache(maxsize=1)
def _prime_chunks() -> tuple[tuple[tuple[int, ...], int], ...]:
    """(chunk, product of chunk) for the primes in (2^_LONG_TRIAL_BITS,
    2^_CHUNK_BITS], _CHUNK_SIZE a chunk, built on the first cofactor that
    needs them (about 70 ms on a 2-vCPU Xeon, half of it the sieve)."""
    primes = primes_up_to(1 << _CHUNK_BITS)[len(primes_up_to(1 << _LONG_TRIAL_BITS)):]
    chunks = (primes[i:i + _CHUNK_SIZE] for i in range(0, len(primes), _CHUNK_SIZE))
    return tuple((chunk, math.prod(chunk)) for chunk in chunks)


# ---------------------------------------------------------------------------
# Perfect powers
# ---------------------------------------------------------------------------


def is_perfect_square(n: int) -> int | None:
    """The nonnegative square root when n is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def integer_nth_root(n: int, e: int) -> int:
    """floor(n ** (1/e)) for n >= 0, e >= 1, exact."""
    if n < 0 or e < 1:
        raise DomainError("integer_nth_root requires n >= 0, e >= 1")
    if n == 0 or e == 1:
        return n
    if e == 2:
        return math.isqrt(n)
    if e >= n.bit_length():  # 1 <= n < 2^e
        return 1
    x = 1 << (n.bit_length() // e + 1)
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            break
        x = y
    while x**e > n:
        x -= 1
    return x


def perfect_power_root(n: int, e: int) -> int | None:
    """The integer e-th root of n >= 1 when exact, else None."""
    if n < 1:
        return None
    r = integer_nth_root(n, e)
    return r if r**e == n else None


def prime_power_root(n: int, e: int) -> int | None:
    """p when n = p**e with p prime, else None."""
    if n < 2:
        return None
    r = perfect_power_root(n, e)
    if r is not None and is_prime(r):
        return r
    return None


def prime_power(p: int, e: int) -> int:
    """p^e for a prime p and e >= 0, refused before it is built when it
    has more digits than the int-to-str limit allows, so a huge exponent
    never costs seconds or GiB."""
    digits = sys.get_int_max_str_digits()
    # p^e has floor(e log10 p) + 1 digits, as a prime is never a power of
    # 10; e is compared with a float, so no exponent is too long for it
    if digits and e >= digits / math.log10(p):
        raise DomainError(f"{p}^{e} has more than {digits} digits")
    return p**e


# ---------------------------------------------------------------------------
# Polynomial signs and continued fractions
# ---------------------------------------------------------------------------


def sign_at(coeffs, x) -> int:
    """The sign of sum coeffs[i] x^i at a rational x, an int or a
    Fraction (read through its numerator and denominator), exact: that
    of den^deg p(num/den), by Horner in integers."""
    num, den = x.numerator, x.denominator
    acc, power = 0, 1
    for c in reversed(coeffs):
        acc = acc * num + c * power
        power *= den
    return (acc > 0) - (acc < 0)


def continued_fraction_convergents(
    lo: int, hi: int, den: int, qmax: int
) -> list[tuple[int, int]] | None:
    """The continued-fraction convergents p/q with q <= qmax of every
    irrational number in [lo/den, hi/den], den >= 1, or None when the
    interval is too wide to fix them.

    Euclid's algorithm on num/den gives the canonical expansion of a
    rational (its last quotient, if not the first, is at least 2, since
    the divisor is then below the dividend), and it runs on both
    endpoints in lockstep.  A partial quotient counts only when both
    expansions share it, and the last shared one is dropped, since the
    endpoint expansions may disagree there.  So the expansion gives None
    at the first quotient that differs or where either expansion ends,
    and stops at the first shared quotient whose predecessor's convergent
    already has a denominator above qmax.  An interval around a rational
    number never settles.

    Each kept p_j/q_j is within 1/q_j^2 of both endpoints e.  A shared
    quotient a_(j+1) >= 1 follows it, and a further shared quotient is
    read before the stop, so a_(j+1) is not the last of either expansion.
    The complete quotient of e there, Euclid's dividend over its divisor
    at that step, is x_(j+1) > a_(j+1) >= 1, as the remainder is not 0, so
    |e - p_j/q_j| = 1/(q_j (x_(j+1) q_j + q_(j-1))) < 1/q_j^2, as
    q_(j-1) >= 0.
    """
    if qmax < 1:
        raise DomainError("qmax must be >= 1")
    if den < 1:
        raise DomainError("den must be >= 1")
    a, b, c, d = lo, den, hi, den  # lo/den and hi/den after the shared quotients
    p0, q0, p1, q1 = 0, 1, 1, 0  # the convergents p_(j-2)/q_(j-2) and p_(j-1)/q_(j-1)
    good = []
    while b and d:
        (t, r), (u, s) = divmod(a, b), divmod(c, d)
        if t != u:
            return None
        if q1 > qmax:
            break
        p0, q0, p1, q1 = p1, q1, t * p1 + p0, t * q1 + q0
        if q1 <= qmax:
            good.append((p1, q1))
        a, b, c, d = b, r, d, s
    else:
        return None
    return good
