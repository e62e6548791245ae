"""Lucas sequences u_n = (alpha^n - beta^n)/(alpha - beta) and their
defective terms.

A LucasPair holds the integers A = alpha + beta and B = alpha*beta.  The
pairs of interest have B = p^(2k-1) an odd prime power with A^2 <= 4B,
which is exactly the shape produced by Hecke eigenvalues.  The module
generates terms, finds ranks of apparition as (rank, reason) pairs, and
classifies defective terms (those without a primitive prime divisor) by
lookup in the Bilu-Hanrot-Voutier / Abouzaid tables, which ship as a
JSON fixture, each term a {n, value, source, params} dict as the lucas
verb prints it, its value u_n from arith.lucas_ladder; sigma_hat turns
the classification into Omega lower bounds and builds no term list.
"""

from __future__ import annotations

import math
import sys

from . import catalog
from .arith import DomainError, factor, frozen_record, is_prime, lucas_ladder

__all__ = [
    "LucasPair",
    "lucas_terms",
    "rank_of_apparition",
    "classify_defects",
    "family_memberships",
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
# Classification against the defect tables
# ---------------------------------------------------------------------------


def _pow_of(base: int, v: int) -> int | None:
    """r >= 1 with base^r = v, else None."""
    if v < base:
        return None
    r = 0
    while v % base == 0:
        v //= base
        r += 1
    return r if v == 1 and r >= 1 else None


def _defect(n: int, value: int, source: str, **params) -> dict:
    """One defective term as the lucas verb prints it: source is
    "sporadic" or a family tag P1/B1..B6, params its family parameters."""
    return {"n": n, "value": value, "source": source, "params": params}


def family_memberships(pair: LucasPair) -> list[dict]:
    """All parameterized-family rows the pair belongs to, each a _defect
    whose u_n is computed only when its row is recorded."""
    A, B = pair.A, pair.B
    a = abs(A)
    dec = pair.prime_power_decomposition()
    if dec is None:
        return []
    p, exp = dec
    out = []

    def rec(n, tag, **params):
        out.append(_defect(n, lucas_ladder(n, A, B)[0], tag, **params))

    # P1: B = A^2 + 1 prime, defect u_3 = -1
    if exp == 1 and a > 1 and B == a * a + 1:
        rec(3, "P1")
    # B1: A^2 - B = eps * 3^r
    t = a * a - B
    if t != 0 and a % 3 != 0:
        eps = 1 if t > 0 else -1
        r = _pow_of(3, abs(t))
        if r is not None and not (eps == 1 and r == 1 and a == 2):
            if 3 * (a * a) >= 4 * eps * (3**r):  # A^2 >= 4*eps*3^(r-1)
                rec(3, "B1", eps=eps, r=r)
    # B2: A^2 = 2B - 1
    if a > 1 and a % 2 == 1 and a * a == 2 * B - 1:
        rec(4, "B2")
    # B3: A^2 = 2B + 2 eps
    if a > 2 and a % 2 == 0:
        for eps in (1, -1):
            if a * a == 2 * B + 2 * eps and not (eps == 1 and a == 2):
                rec(4, "B3", eps=eps)
    # B4: A^2 - 3B = (-2)^(r+2)
    t = a * a - 3 * B
    if t != 0 and math.gcd(a, 6) == 1:
        r2 = _pow_of(2, abs(t))
        if r2 is not None and r2 >= 3:
            r = r2 - 2
            if ((-2) ** (r + 2) == t) and not (r == 1 and a == 1) and a * a >= t:
                rec(6, "B4", r=r)
    # B5: A^2 = 3B + 3 eps
    if a % 3 == 0 and a > 3:
        for eps in (1, -1):
            if a * a == 3 * B + 3 * eps:
                rec(6, "B5", eps=eps)
    # B6: A^2 - 3B = 3 eps 2^r
    if a % 6 == 3:
        t = a * a - 3 * B
        if t != 0 and t % 3 == 0:
            eps = 1 if t > 0 else -1
            r = _pow_of(2, abs(t) // 3)
            if r is not None and a * a >= 3 * eps * (2 ** (r + 2)):
                rec(6, "B6", eps=eps, r=r)
    return out


def classify_defects(pair: LucasPair) -> list[dict]:
    """All defective indices n >= 3 for a pair satisfying the odd-prime-power
    shape, by table lookup: sporadic rows plus family membership tests,
    each a {n, value, source, params} dict in increasing n."""
    if not pair.satisfies_modularity:
        raise DomainError("pair must satisfy B = p^(2k-1), A^2 <= 4B")
    records: dict[int, dict] = {}
    table = catalog.load("defect_tables.json")
    a = abs(pair.A)
    for row in table["sporadic"]:
        if row["A"] == a and row["B"] == pair.B:
            for n, _val in row["defects"]:
                records[n] = _defect(n, lucas_ladder(n, pair.A, pair.B)[0], "sporadic")
    for fam in family_memberships(pair):
        records.setdefault(fam["n"], fam)
    return [records[n] for n in sorted(records)]


# ---------------------------------------------------------------------------
# Omega lower bounds for defective pairs
# ---------------------------------------------------------------------------


def sigma_hat(coeff_a: int, B: int, m: int) -> int:
    """Lower bound for Omega(a_f(p^m)): sigma_0(m+1) - discount.

    Discounts come from the omega_discounts fixture rows: the two
    sporadic weight-4 pairs carry a divisibility condition on m + 1, and
    members of the parameterized families a flat discount; everything
    off the tables gets the generic discount 1.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    s0 = math.prod(e + 1 for _, e in factor(m + 1))  # sigma_0(m + 1)
    a = abs(coeff_a)
    rows = catalog.load("defect_tables.json")["omega_discounts"]["rows"]
    family = None
    for row in rows:
        if row.get("pair") == [a, B]:
            if (m + 1) % row["when_divides"] == 0:
                return s0 - row["discount"]
            return s0 - 1
        if row.get("family_member"):
            family = row["discount"]
    # A^2 = cB (c = 1..4) with gcd(A, B) = 1 forces B | 1, so for B >= 2
    # the pair is not degenerate; B < 2 belongs to no family
    if (B >= 2 and coeff_a != 0 and math.gcd(coeff_a, B) == 1
            and family_memberships(LucasPair(coeff_a, B))):
        return s0 - family
    return s0 - 1
