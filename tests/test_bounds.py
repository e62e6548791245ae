import math
from fractions import Fraction

import pytest

from tauhunt import bounds as B

# M^+-(ell, m) = a m + c sqrt(m) + const, the paper's constants written
# out: (sign, ell, m odd) -> (a, c, const) for the eight rounded cases,
# and the footnote's unrounded value for -3^m
PAPER_M = {
    (1, 3, True): (2, 100_000_000_000_000_000_000_000, 0),
    (1, 3, False): (2, 10_000_000_000_000, 0),
    (-1, 3, True): (2, 100_000_000_000_000_000_000_000_000_000_000, 0),
    (-1, 3, False): (2, 100_000_000_000_000_000_000_000_000_000_000, 0),
    (1, 5, True): (3, 1_000_000_000_000_000_000_000_000, 0),
    (-1, 5, True): (3, 1_000_000_000_000_000_000_000_000, 0),
    (1, 5, False): (3, 10_000_000_000_000, 0),
    (-1, 5, False): (3, 1_000_000_000_000_000_000_000_000_000_000, 0),
}
PAPER_PRE_ROUNDING = (Fraction(16, 10), 94_000_000_000_000_000_000_000_000_000_000,
                      14_000_000_000_000_000_000_000_000_000_000)


def _brackets(lo: Fraction, hi: Fraction, a, c: int, const: int, m: int) -> bool:
    """lo <= a m + c sqrt(m) + const <= hi, decided by squaring (c > 0)."""
    below, above = lo - a * m - const, hi - a * m - const
    return ((below <= 0 or below * below <= c * c * m)
            and above >= 0 and above * above >= c * c * m)


def test_weight_bound_document_every_case():
    """The weight-bound document of every table case and of the footnote,
    at small m and at 10^30 (a square) and 10^30 + 1, against the
    constants above: its coefficients and expression, and a value
    interval at most c 2^-64 wide that brackets a m + c sqrt(m) + const,
    exactly a m + c isqrt(m) + const when m is a square."""
    cases = [(sign, ell, odd, False, abc) for (sign, ell, odd), abc in PAPER_M.items()]
    cases += [(-1, 3, odd, True, PAPER_PRE_ROUNDING) for odd in (True, False)]
    for sign, ell, odd, pre, (a, c, const) in cases:
        for m in ((1, 3, 7, 10**30 + 1) if odd else (2, 4, 10, 10**30)):
            doc = B.weight_bound_M(sign, ell, m, pre)
            expression = f"{a}*m + {c}*sqrt(m)" + (f" + {const}" if const else "")
            assert {k: v for k, v in doc.items() if k != "value_interval"} == {
                "family": "M",
                "params": {"sign": sign, "ell": ell, "m": m, "pre_rounding": pre},
                "expression": expression,
                "coefficients": [str(a), str(c), str(const)],
                "provenance": "pre-rounding footnote value" if pre else "rounded case table",
            }, (sign, ell, m, pre)
            lo, hi = map(Fraction, doc["value_interval"])
            assert _brackets(lo, hi, a, c, const, m) and hi - lo <= Fraction(c, 2**64)
            r = math.isqrt(m)
            if r * r == m:
                assert lo == hi == a * m + c * r + const


def test_weight_bound_M_all_cases():
    cases = {
        (1, 3, 1): (2, 10**23), (1, 3, 2): (2, 10**13),
        (-1, 3, 1): (2, 10**32), (-1, 3, 2): (2, 10**32),
        (1, 5, 1): (3, 10**24), (-1, 5, 1): (3, 10**24),
        (1, 5, 2): (3, 10**13), (-1, 5, 2): (3, 10**30),
    }
    for (sign, ell, m), (a, c) in cases.items():
        assert B.weight_bound_M(sign, ell, m)["coefficients"] == [str(a), str(c), "0"]
    with pytest.raises(B.DomainError):
        B.weight_bound_M(1, 7, 1)


def test_threshold_T_all_cases():
    """T(eps, ell, m), the exponent threshold for X^2 + eps ell^m = Y^n,
    is M(-eps, ell, m) in all 8 cases."""
    cases = {
        (1, 3, 1): (2, 10**32), (1, 3, 2): (2, 10**32),
        (-1, 3, 1): (2, 10**23), (-1, 3, 2): (2, 10**13),
        (1, 5, 1): (3, 10**24), (-1, 5, 1): (3, 10**24),
        (1, 5, 2): (3, 10**30), (-1, 5, 2): (3, 10**13),
    }
    for (eps, ell, m), (a, c) in cases.items():
        got = B.weight_bound_M(-eps, ell, m)
        assert got["coefficients"] == [str(a), str(c), "0"], (eps, ell, m)
    with pytest.raises(B.DomainError):
        B.weight_bound_M(-1, 7, 1)


def test_pre_rounding_variant():
    pre = B.weight_bound_M(-1, 3, 4, pre_rounding=True)
    assert pre["coefficients"] == [str(Fraction(8, 5)), str(94 * 10**30), str(14 * 10**30)]
    with pytest.raises(B.DomainError):
        B.weight_bound_M(1, 3, 1, pre_rounding=True)


def test_pre_rounding_vs_rounded_relation():
    """The unrounded value sits below the rounded one exactly from m = 6 on:
    1.6m + (9.4 sqrt(m) + 1.4) 1e31 <= 2m + 1e32 sqrt(m)
      <=>  2m + 3e31 sqrt(m) >= 7e31.  Verified exactly for all m <= 10^6."""
    c3 = 3 * 10**31
    c7 = 7 * 10**31
    flips = []
    for m in range(1, 10**6 + 1):
        lhs_linear = 2 * m - c7
        holds = lhs_linear >= 0 or (c3 * c3 * m >= lhs_linear * lhs_linear)
        if not holds:
            flips.append(m)
    assert flips == [1, 2, 3, 4, 5]


def test_evaluate_interval():
    lo, hi = map(Fraction, B.weight_bound_M(1, 3, 1)["value_interval"])
    assert lo <= 2 + 10**23 <= hi
    lo, hi = map(Fraction, B.weight_bound_M(1, 3, 9)["value_interval"])
    assert lo == hi == 2 * 9 + 10**23 * 3  # sqrt(9) exact


def test_sqrt_interval_certified():
    for n in (2, 3, 5, 10**13, 10**32):
        lo, hi = B.sqrt_interval(n)
        assert lo * lo <= n <= hi * hi
        assert hi - lo <= Fraction(1, 2**64)
