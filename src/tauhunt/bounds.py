"""Bounds: the search bounds of a run, and the weight-aspect exclusion
bound M^+-(ell, m).

SearchBounds holds and checks x_max (curve searches), x_small and x_mid
(Thue searches).  It lives here, beside arith only, so the CLI's defaults
load no search layer.

+-ell^m (ell in {3, 5}) is not a coefficient of an eligible newform of
weight 2k > M^+-(ell, m).  Every case of the table has the shape
a*m + c*sqrt(m) + const, kept symbolically as an exact rational
coefficient triple; sqrt(m) is evaluated only as a certified rational
enclosure, so comparisons across the 10^13..10^32 range never pass
through floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import DomainError, frozen_record

__all__ = ["SearchBounds", "EffectiveBound", "weight_bound_M", "sqrt_interval"]

_SQRT_BITS = 64  # sqrt(m) is enclosed to within 2^-64


@frozen_record
class SearchBounds:
    """The bounds of one run; the defaults are also the CLI's.  They are
    checked here, so a run that reaches no Thue condition still refuses
    bad Thue bounds; thue.solve_bounded, given x_small and x_mid alone,
    keeps its own check."""

    x_max: int = 100000  # curve searches
    x_small: int = 1000  # exhaustive Thue range
    x_mid: int = 10000   # convergent-pruned Thue range

    def __post_init__(self):
        if self.x_max < 0:
            raise DomainError("x_max must be >= 0")
        if not 0 <= self.x_small <= self.x_mid:
            raise DomainError("need 0 <= x_small <= x_mid")

    def to_dict(self) -> dict:
        return {"x_max": self.x_max, "x_small": self.x_small, "x_mid": self.x_mid}


def sqrt_interval(x: int | Fraction) -> tuple[Fraction, Fraction]:
    """Certified enclosure of sqrt(x), x >= 0, width <= 2^-64."""
    x = Fraction(x)
    if x < 0:
        raise DomainError("sqrt of a negative number")
    if x == 0:
        return (Fraction(0), Fraction(0))
    v, rem = divmod(x.numerator << 2 * _SQRT_BITS, x.denominator)  # floor(x 4^64)
    r = math.isqrt(v)
    lo = Fraction(r, 1 << _SQRT_BITS)
    if rem == 0 and r * r == v:
        return (lo, lo)
    return (lo, Fraction(r + 1, 1 << _SQRT_BITS))


@frozen_record
class EffectiveBound:
    """a*m + c*sqrt(m) + const, coefficients exact."""

    family: str
    a: Fraction
    c: Fraction
    const: Fraction = Fraction(0)

    def evaluate(self, m: int) -> tuple[Fraction, Fraction]:
        slo, shi = sqrt_interval(m)
        lo = self.a * m + self.c * slo + self.const
        hi = self.a * m + self.c * shi + self.const
        return (lo, hi)

    def coefficients(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.a, self.c, self.const)

    def describe(self) -> str:
        s = f"{self.a}*m + {self.c}*sqrt(m)"
        if self.const:
            s += f" + {self.const}"
        return s


def weight_bound_M(sign: int, ell: int, m: int, pre_rounding: bool = False) -> EffectiveBound:
    """Weight threshold: +-ell^m is not a coefficient of an eligible
    newform of weight 2k > M.  pre_rounding exposes the sharper unrounded
    value available for (sign, ell) = (-, 3)."""
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    if m < 1:
        raise DomainError("m must be >= 1")
    odd = m % 2 == 1
    if pre_rounding:
        if (sign, ell) != (-1, 3):
            raise DomainError("a pre-rounding value is available only for -3^m")
        return EffectiveBound("M", Fraction(8, 5), Fraction(94 * 10**30), Fraction(14 * 10**30))
    if ell == 3:
        a = 2
        if sign == 1:
            c = 10**23 if odd else 10**13
        else:
            c = 10**32
    elif ell == 5:
        a = 3
        if odd:
            c = 10**24
        else:
            c = 10**13 if sign == 1 else 10**30
    else:
        raise DomainError("weight_bound_M is tabulated only for ell in {3, 5}")
    return EffectiveBound("M", Fraction(a), Fraction(c))
