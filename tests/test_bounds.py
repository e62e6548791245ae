from fractions import Fraction

import pytest

from tauhunt import bounds as B


def test_weight_bound_M_all_cases():
    cases = {
        (1, 3, 1): (2, 10**23), (1, 3, 2): (2, 10**13),
        (-1, 3, 1): (2, 10**32), (-1, 3, 2): (2, 10**32),
        (1, 5, 1): (3, 10**24), (-1, 5, 1): (3, 10**24),
        (1, 5, 2): (3, 10**13), (-1, 5, 2): (3, 10**30),
    }
    for (sign, ell, m), (a, c) in cases.items():
        assert B.weight_bound_M(sign, ell, m).coefficients() == (a, c, 0)
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
        assert got.coefficients() == (a, c, 0), (eps, ell, m)
    with pytest.raises(B.DomainError):
        B.weight_bound_M(-1, 7, 1)


def test_pre_rounding_variant():
    pre = B.weight_bound_M(-1, 3, 4, pre_rounding=True)
    assert pre.coefficients() == (Fraction(8, 5), 94 * 10**30, 14 * 10**30)
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
    b = B.weight_bound_M(1, 3, 1)
    lo, hi = b.evaluate(1)
    assert lo <= 2 + 10**23 <= hi
    lo, hi = b.evaluate(4)
    assert lo == hi == 2 * 4 + 10**23 * 2  # sqrt(4) exact


def test_sqrt_interval_certified():
    for n in (2, 3, 5, 10**13, 10**32):
        lo, hi = B.sqrt_interval(n)
        assert lo * lo <= n <= hi * hi
        assert hi - lo <= Fraction(1, 2**64)
