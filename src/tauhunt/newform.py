"""Exact newform Fourier coefficients.

The discriminant form Delta(z) = q prod (1-q^n)^24 is built in: its
coefficients tau(n), n <= 10^6, are computed exactly from the cube of
the Euler product given by the Jacobi triple product (a sparse series),
squared three times.  Each squaring packs the series into the base-10^w
digits of one Decimal, which libmpdec squares with an exact
number-theoretic transform.  Arbitrary newforms are
described by a NewformSpec holding weight, level and Hecke eigenvalue
data a_f(p); at a good prime a_f(p^m) = U_(m+1) for the Lucas sequence
of (a_f(p), p^(w-1)), w the weight, and general indices follow
multiplicativity.
"""

from __future__ import annotations

import decimal
import json
from dataclasses import dataclass, field
from functools import cached_property

from .arith import DomainError, factor, is_prime, lucas_ladder, primes_up_to

__all__ = [
    "InsufficientCoefficientData",
    "NewformSpec",
    "delta_expansion",
    "delta_newform",
    "coeff_prime_power",
    "coeff",
]


class InsufficientCoefficientData(DomainError):
    """A coefficient was requested at a prime with no stored eigenvalue."""


# ---------------------------------------------------------------------------
# Dense integer series arithmetic (Kronecker substitution in base 10^w)
# ---------------------------------------------------------------------------

# libmpdec multiplies large operands with an exact number-theoretic
# transform; this context keeps every product exact.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
_BLOCK = 4096  # slots formatted per string join, so no list of n strings is held


def _square_truncated(coeffs: list[int], bound: int) -> list[int]:
    """Exact coefficients of (sum c_i q^i)^2 truncated to length bound.

    The coefficients become the base-B digits (B = 10^w) of one Decimal,
    which is squared once.  w is the digit count of 2 n max|c_i|^2, so
    every product coefficient lies in (-B/2, B/2) and is decoded from
    its slot by a signed carry pass.
    """
    n = min(len(coeffs), bound)
    w = len(str(2 * n * (max(map(abs, coeffs[:n]), default=0) or 1) ** 2))
    base, fmt = 10**w, f"%0{w}d"
    blocks, carry = [], 0
    for lo in range(0, n, _BLOCK):
        digits = []
        for v in coeffs[lo : min(lo + _BLOCK, n)]:
            carry, d = divmod(v + carry, base)
            digits.append(fmt % d)
        blocks.append("".join(reversed(digits)))
    x = decimal.Decimal("".join(reversed(blocks)))
    del blocks
    if carry:  # the digits read D, and the series is D - B^n
        x = _EXACT.subtract(x, decimal.Decimal((0, (1,), n * w)))
    m = min(2 * n - 1, bound)
    # shift by 0 under precision m*w keeps the low m*w digits (slots 0..m-1)
    low = decimal.Context(prec=m * w, Emax=decimal.MAX_EMAX).shift(_EXACT.multiply(x, x), 0)
    del x
    text = str(low).zfill(m * w)
    del low
    half, out, carry = base // 2, [], 0
    for i in range(m * w, 0, -w):
        carry, v = divmod(int(text[i - w : i]) + carry + half, base)
        out.append(v - half)
    return out


def _jacobi_cube(bound: int) -> list[int]:
    """prod (1-q^n)^3 = sum (-1)^k (2k+1) q^{k(k+1)/2}, truncated."""
    out = [0] * bound
    k = 0
    while k * (k + 1) // 2 < bound:
        out[k * (k + 1) // 2] = (2 * k + 1) if k % 2 == 0 else -(2 * k + 1)
        k += 1
    return out


_DELTA_CACHE: list[int] = []
MAX_TAU_BOUND = 10**6  # tau --up-to 10^6: about 14 s and 256 MiB on a 2-vCPU Xeon


def _tau_list(bound: int) -> list[int]:
    """[tau(1), ..., tau(bound)] via ((prod (1-q^n)^3)^8, shifted by q."""
    global _DELTA_CACHE
    if bound > MAX_TAU_BOUND:
        raise DomainError(f"tau is computed only up to n = {MAX_TAU_BOUND}, not {bound}")
    if len(_DELTA_CACHE) < bound:
        j = _jacobi_cube(bound)
        for _ in range(3):
            j = _square_truncated(j, bound)
        _DELTA_CACHE = j
    return _DELTA_CACHE[:bound]


def delta_expansion(bound: int) -> tuple[int, ...]:
    """(tau(1), ..., tau(bound)), exactly."""
    if bound < 1:
        raise DomainError("bound must be >= 1")
    return tuple(_tau_list(bound))


# ---------------------------------------------------------------------------
# Newform data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NewformSpec:
    """Weight, level and prime eigenvalue data for a newform with integer
    coefficients.

    ``ap`` maps primes p (not dividing the level) to a_f(p); ``bad_signs``
    maps primes exactly dividing the level to the U(p) eigenvalue sign.
    The Deligne bound a_f(p)^2 <= 4 p^(2k-1) is enforced exactly on
    construction.  Evenness of eigenvalues (the operational meaning of
    ``trivial_mod2``) is *reported*, not enforced; see odd_eigenvalues.
    """

    weight: int
    level: int
    ap: dict[int, int] = field(default_factory=dict)
    bad_signs: dict[int, int] = field(default_factory=dict)
    trivial_mod2: bool = False
    name: str = ""

    def __post_init__(self):
        if self.weight < 4 or self.weight % 2:
            raise DomainError("weight must be an even integer >= 4")
        if self.level < 1:
            raise DomainError("level must be >= 1")
        for p, a in self.ap.items():
            if not is_prime(p):
                raise DomainError(f"ap key {p} is not prime")
            if self.level % p == 0:
                raise DomainError(f"ap key {p} divides the level; use bad_signs")
            if a * a > 4 * p ** (self.weight - 1):
                raise DomainError(f"a_f({p}) = {a} violates the Deligne bound")
        for p, s in self.bad_signs.items():
            if self.level % p or (self.level // p) % p == 0:
                raise DomainError(f"bad_signs key {p} must exactly divide the level")
            if s not in (1, -1):
                raise DomainError("bad_signs values must be +1 or -1")

    # cached in the instance __dict__, outside the fields, eq and hash
    @cached_property
    def odd_eigenvalues(self) -> tuple[int, ...]:
        """The primes p not dividing 2N whose stored a_f(p) is odd; the
        trivial-mod-2 flag asserts there are none."""
        return tuple(p for p, a in sorted(self.ap.items()) if (2 * self.level) % p and a % 2)

    @property
    def is_delta(self) -> bool:
        return self.weight == 12 and self.level == 1 and self.name == "delta"

    @classmethod
    def from_json(cls, text: str) -> "NewformSpec":
        data = json.loads(text)
        return cls(
            weight=int(data["weight"]),
            level=int(data["level"]),
            ap={int(p): int(a) for p, a in data.get("ap", {}).items()},
            bad_signs={int(p): int(s) for p, s in data.get("bad_signs", {}).items()},
            trivial_mod2=bool(data.get("trivial_mod2", False)),
            name=str(data.get("name", "")),
        )


def delta_newform(prime_bound: int = 1000) -> NewformSpec:
    """The built-in Delta form with eigenvalue data for p <= prime_bound."""
    taus = _tau_list(prime_bound)
    ap = {p: taus[p - 1] for p in primes_up_to(prime_bound)}
    return NewformSpec(weight=12, level=1, ap=ap, trivial_mod2=True, name="delta")


def coeff_prime_power(spec: NewformSpec, p: int, m: int) -> int:
    """a_f(p^m) by the U(p) action (bad p) or, for good p, the Hecke
    recursion a_f(p^(j+1)) = a_f(p) a_f(p^j) - p^(w-1) a_f(p^(j-1)), w the
    weight: the Lucas sequence of (a_f(p), p^(w-1)) from U_1 = 1,
    U_2 = a_f(p), so a_f(p^m) = U_(m+1) (arith.lucas_ladder)."""
    if m < 0:
        raise DomainError("m must be >= 0")
    if m == 0:
        return 1
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if spec.level % p == 0:
        if (spec.level // p) % p == 0:
            return 0
        if p not in spec.bad_signs:
            raise InsufficientCoefficientData(f"no U({p}) sign stored")
        k = spec.weight // 2
        return spec.bad_signs[p] ** m * p ** ((k - 1) * m)
    if p not in spec.ap:
        raise InsufficientCoefficientData(f"no a_f({p}) stored")
    return lucas_ladder(m, spec.ap[p], p ** (spec.weight - 1))[1]


def coeff(spec: NewformSpec, n: int) -> int:
    """a_f(n) by multiplicativity over the prime powers of n."""
    if n < 1:
        raise DomainError("n must be >= 1")
    out = 1
    for p, e in factor(n).pairs:
        out *= coeff_prime_power(spec, p, e)
    return out
