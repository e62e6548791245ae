"""Bounds: the search bounds of a run, and the weight-aspect exclusion
bound M^+-(ell, m).

SearchBounds holds and checks x_max (curve searches), x_small and x_mid
(Thue searches).  It lives here, beside arith only, so the CLI's defaults
load no search layer.

+-ell^m (ell in {3, 5}) is not a coefficient of an eligible newform of
weight 2k > M^+-(ell, m).  M has the shape a*m + c*sqrt(m) + const;
weight_bound_M reads its exact coefficient triple from one case table,
eight rows by sign, ell and the parity of m plus the footnote's
unrounded triple for -3^m, and returns the document the weight-bound
verb prints.  sqrt(m) is evaluated only as a certified rational
enclosure, so the value interval is exact rational arithmetic across
the 10^13..10^32 range, never floating point.  fractions is imported
inside the two functions that compute with it, so only the
weight-bound verb loads it; the footnote's 8/5 is stored as a pair.
"""

from __future__ import annotations

import math

from .arith import DomainError, frozen_record

__all__ = ["SearchBounds", "weight_bound_M", "sqrt_interval"]

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


def sqrt_interval(x) -> tuple:
    """Certified enclosure of sqrt(x), for an int or Fraction x >= 0, as
    two Fractions at most 2^-64 apart."""
    from fractions import Fraction

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


# M^+-(ell, m) = a m + c sqrt(m) + const, by (sign, ell, m odd): (a, c, const)
_M_TABLE = {
    (1, 3, True): (2, 10**23, 0), (1, 3, False): (2, 10**13, 0),
    (-1, 3, True): (2, 10**32, 0), (-1, 3, False): (2, 10**32, 0),
    (1, 5, True): (3, 10**24, 0), (-1, 5, True): (3, 10**24, 0),
    (1, 5, False): (3, 10**13, 0), (-1, 5, False): (3, 10**30, 0),
}
# the footnote's unrounded M^-(3, m), a = 8/5 as (numerator, denominator)
_PRE_ROUNDING = ((8, 5), 94 * 10**30, 14 * 10**30)


def weight_bound_M(sign: int, ell: int, m: int, pre_rounding: bool = False) -> dict:
    """The weight-bound document for M^+-(ell, m): +-ell^m is not a
    coefficient of an eligible newform of weight 2k > M.  pre_rounding
    takes the sharper unrounded value available for (sign, ell) = (-, 3)."""
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    if m < 1:
        raise DomainError("m must be >= 1")
    if pre_rounding:
        if (sign, ell) != (-1, 3):
            raise DomainError("a pre-rounding value is available only for -3^m")
        from fractions import Fraction

        (num, den), c, const = _PRE_ROUNDING
        a = Fraction(num, den)
    elif (sign, ell, m % 2 == 1) in _M_TABLE:
        a, c, const = _M_TABLE[sign, ell, m % 2 == 1]
    else:
        raise DomainError("weight_bound_M is tabulated only for ell in {3, 5}")
    return {
        "family": "M",
        "params": {"sign": sign, "ell": ell, "m": m, "pre_rounding": pre_rounding},
        "expression": f"{a}*m + {c}*sqrt(m)" + (f" + {const}" if const else ""),
        "coefficients": [str(a), str(c), str(const)],
        "value_interval": [str(a * m + c * s + const) for s in sqrt_interval(m)],
        "provenance": "pre-rounding footnote value" if pre_rounding else "rounded case table",
    }
