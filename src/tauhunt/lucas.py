"""Lucas sequences u_n = (alpha^n - beta^n)/(alpha - beta) and their
defective terms.

A LucasPair holds the integers A = alpha + beta and B = alpha*beta.  The
pairs of interest have B = p^(2k-1) an odd prime power with A^2 <= 4B,
which is exactly the shape produced by Hecke eigenvalues.  The module
generates terms, finds ranks of apparition as (rank, reason) pairs, and
classifies defective terms (those without a primitive prime divisor) by
computation: u_n is the product of the cyclotomic parts Phi_d(alpha, beta)
over d | n, d >= 2, and by Bilu-Hanrot-Voutier only n <= 30 can be
defective.  Each defect is a {n, value} dict as the lucas verb prints it,
its value u_n from arith.lucas_ladder; sigma_hat counts the non-unit
cyclotomic parts of u_(m+1), an Omega lower bound, and reads no table.
"""

from __future__ import annotations

import math
import sys

from .arith import DomainError, factor, frozen_record, is_prime, lucas_ladder

__all__ = [
    "LucasPair",
    "lucas_terms",
    "rank_of_apparition",
    "classify_defects",
    "sigma_hat",
]


@frozen_record
class LucasPair:
    """The pair (A, B) generating u_1 = 1, u_2 = A, u_{n+1} = A u_n - B u_{n-1}."""

    A: int
    B: int

    def __post_init__(self):
        if self.A == 0 or self.B == 0:
            raise DomainError("A and B must be nonzero")
        if math.gcd(self.A, self.B) != 1:
            raise DomainError("A and B must be coprime")
        if self.A * self.A in (self.B, 2 * self.B, 3 * self.B, 4 * self.B):
            raise DomainError("alpha/beta is a root of unity (degenerate pair)")

    @property
    def discriminant(self) -> int:
        return self.A * self.A - 4 * self.B

    def prime_power_decomposition(self) -> tuple[int, int] | None:
        """(p, e) when B = p^e with e odd, else None."""
        if self.B < 2:
            return None
        pairs = factor(self.B)
        if len(pairs) == 1 and pairs[0][1] % 2 == 1:
            return pairs[0]
        return None

    @property
    def satisfies_modularity(self) -> bool:
        """B an odd power of a prime and A^2 <= 4B."""
        return (
            self.prime_power_decomposition() is not None
            and self.A * self.A <= 4 * self.B
        )


def lucas_terms(pair: LucasPair, count: int) -> list[int]:
    """[u_1, ..., u_count], exact.

    Refuses a term of more than sys.get_int_max_str_digits() decimal
    digits, |u_n| >= 10^digits, which str() would refuse to print.  The
    terms of a non-degenerate pair grow like |alpha|^n with
    |alpha| >= sqrt(2), so this also caps count (28,569 terms for A = 1,
    B = 2 at the default limit) and the memory.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    digits = sys.get_int_max_str_digits()
    limit = 10**digits if digits else math.inf
    terms = [1]
    if count >= 2:
        terms.append(pair.A)
    for n in range(3, count + 1):
        terms.append(pair.A * terms[-1] - pair.B * terms[-2])
        if abs(terms[-1]) >= limit:
            raise DomainError(f"u_{n} has more than {digits} digits; ask for fewer terms")
    return terms


def rank_of_apparition(pair: LucasPair, ell: int) -> tuple[int | None, str]:
    """(rank, reason): the smallest n >= 2 with ell | u_n, or None when
    ell divides B, and the case that fixed it.

    For ell | B and gcd(A, B) = 1 we have u_n = A^(n-1) (mod ell), which
    is never 0, so ell divides no term at all.  For ell coprime to B the
    n with ell | u_n are the multiples of the rank.  When ell divides
    D = A^2 - 4B, u_n = n (A/2)^(n-1) (mod ell) with A prime to ell, so
    the rank is ell.  Otherwise ell | u_N for N = ell - (D/ell), and the
    rank is the least divisor of N that it divides: N is divided by each
    of its primes while the quotient still gives ell | u_n, each u_n mod
    ell from arith.lucas_ladder.
    """
    if ell < 3 or not is_prime(ell):
        raise DomainError("ell must be an odd prime")
    if pair.B % ell == 0:
        return None, "ell divides B: ell never divides any u_n"
    D = pair.discriminant
    if D % ell == 0:
        return ell, "ell divides A^2 - 4B: the rank is ell"
    n = ell - 1 if pow(D, (ell - 1) // 2, ell) == 1 else ell + 1
    for p, _ in factor(n):
        while n % p == 0 and lucas_ladder(n // p, pair.A, pair.B, ell)[0] == 0:
            n //= p
    return n, "least divisor n of ell - (D/ell) with ell | u_n"


# ---------------------------------------------------------------------------
# Cyclotomic parts: defects and Omega lower bounds
# ---------------------------------------------------------------------------

# Bilu-Hanrot-Voutier (J. reine angew. Math. 539, 2001): for n > 30 every
# u_n of a Lucas pair has a primitive prime divisor.
BHV_BOUND = 30


def _cyclotomic_parts(pair: LucasPair, ds) -> dict[int, int]:
    """{d: Phi_d(alpha, beta)} for a divisor-closed set ds of d >= 2, so
    that u_n is the product of Phi_d over the d | n, d >= 2: u_d from
    arith.lucas_ladder, exactly divided by the Phi_e of its divisors
    2 <= e < d."""
    parts: dict[int, int] = {}
    for d in sorted(ds):
        below = math.prod(parts[e] for e in parts if d % e == 0)
        parts[d] = lucas_ladder(d, pair.A, pair.B)[0] // below
    return parts


def classify_defects(pair: LucasPair) -> list[dict]:
    """All defective indices n >= 3 (u_n has no primitive prime divisor)
    of a pair of the odd-prime-power shape, each a {n, value} dict with
    value u_n, in increasing n.

    Two lemmas settle n <= 30: a primitive prime of u_n divides Phi_n
    (it divides no u_d with d < n), and a non-primitive prime of Phi_n
    divides n (A^2 - 4B).  So n is defective exactly when Phi_n has no
    prime outside n (A^2 - 4B).  No n > 30 is defective (BHV_BOUND).
    """
    if not pair.satisfies_modularity:
        raise DomainError("pair must satisfy B = p^(2k-1), A^2 <= 4B")
    parts = _cyclotomic_parts(pair, range(2, BHV_BOUND + 1))
    defects = []
    for n in range(3, BHV_BOUND + 1):
        v = abs(parts[n])
        g = math.gcd(v, n * pair.discriminant)
        while g > 1:  # strip every prime of n (A^2 - 4B) from Phi_n
            v //= g
            g = math.gcd(v, g)
        if v == 1:
            defects.append({"n": n, "value": lucas_ladder(n, pair.A, pair.B)[0]})
    return defects


def sigma_hat(coeff_a: int, B: int, m: int) -> int:
    """Lower bound for Omega(a_f(p^m)) = Omega(u_(m+1)) of the pair
    (a_f(p), B = p^(w-1)): the number of d | m + 1, d >= 2, with
    |Phi_d| != 1, as u_(m+1) is the product of these integers.

    Every d > 30 counts uncomputed, as Phi_d holds u_d's primitive prime
    (BHV_BOUND).  Off the Lucas pairs (A = 0, B = 0, gcd(A, B) > 1 or
    alpha/beta a root of unity) it is sigma_0(m + 1) - 1.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    count = math.prod(e + 1 for _, e in factor(m + 1)) - 1  # sigma_0(m + 1) - 1
    try:
        pair = LucasPair(coeff_a, B)
    except DomainError:
        return count
    small = [d for d in range(2, BHV_BOUND + 1) if (m + 1) % d == 0]
    return count - sum(abs(phi) == 1 for phi in _cyclotomic_parts(pair, small).values())
