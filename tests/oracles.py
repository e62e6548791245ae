"""Independent oracle machinery used by the tests.

The defect-closure oracle rests on the factorization u_n = prod Phi_d
over divisors d > 1, where Phi_d is the homogenized cyclotomic value in
(alpha, beta).  A term u_n is defective exactly when its primitive part
is 1, and every prime of Phi_n that is non-primitive must satisfy
n = rank * q^s, which pins |Phi_n| for 3 <= n <= 30 to one of:

  * |Phi_n| <= 30 (products of single factors of the primes allowed
    at n), or
  * n = 6: Phi_6 = +-2^a 3^b with b <= 1 (the even-index doubling is
    the one slot where the 2-adic valuation is unbounded), or
  * n = q an odd prime with q | (A^2 - 4B): Phi_q = +-q^e.

So candidate defective pairs are exactly the integer solutions of
finitely many equations Phi_n(A^2, B) = t, which the helpers below
enumerate with exact monotone-piece bisection.  Every candidate is then
checked by the direct primitive-part computation, so a flaw in the
reduction can only ever produce false candidates, never hide a defect
from the final comparison -- completeness of the target list is the one
mathematical input, and it is cross-validated against blind full scans
on every exponent-3 stratum.

Polynomials in (A, B) are dicts {(i, j): c} for c * A^i * B^j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from tauhunt.arith import DomainError, factor, is_perfect_square, perfect_power_root
from tauhunt.lucas import LucasPair, lucas_terms


# ---------------------------------------------------------------------------
# Univariate polynomials over Z (little-endian coefficient lists)
# ---------------------------------------------------------------------------


def poly_eval(coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def _strip(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def _floor_cover(coeffs, lo: int, hi: int) -> set[int]:
    """A superset of { floor(r) : p(r) = 0, lo <= r <= hi }.

    Recursion on the derivative: between consecutive breakpoints taken
    from the derivative's root floors, p is monotone, so a sign change
    pins each root to a unit interval by bisection.  Unit gaps that may
    hide critical points are added wholesale, which only enlarges the
    cover.
    """
    p = _strip(coeffs)
    if len(p) <= 1 or lo > hi:
        return set()
    if len(p) == 2:
        b, a = p
        f = math.floor(Fraction(-b, a))
        return {f} if lo <= f <= hi else set()
    dcover = _floor_cover(poly_derivative(p), lo, hi)
    points = {lo, hi}
    for c in dcover:
        if lo <= c <= hi:
            points.add(c)
        if lo <= c + 1 <= hi:
            points.add(c + 1)
    bps = sorted(points)
    cover: set[int] = set()
    vals = {b: poly_eval(p, b) for b in bps}
    for b in bps:
        if vals[b] == 0:
            cover.add(b)
    for a, b in zip(bps, bps[1:]):
        if b == a + 1:
            # may contain critical points; any root inside has floor a
            cover.add(a)
            continue
        fa, fb = vals[a], vals[b]
        if fa == 0 or fb == 0 or (fa > 0) == (fb > 0):
            continue
        x0, x1 = a, b
        while x1 - x0 > 1:
            mid = (x0 + x1) // 2
            fm = poly_eval(p, mid)
            if fm == 0:
                cover.add(mid)
                break
            if (fm > 0) == (fa > 0):
                x0 = mid
            else:
                x1 = mid
        else:
            cover.add(x0)
    return cover


def integer_roots(coeffs, lo: int, hi: int) -> list[int]:
    """All integer roots of the polynomial in [lo, hi], ascending."""
    p = _strip(coeffs)
    if not p:
        raise DomainError("integer_roots of the zero polynomial")
    return sorted(c for c in _floor_cover(p, lo, hi) if poly_eval(p, c) == 0)


# ---------------------------------------------------------------------------
# Real algebraic numbers by exact-sign bisection
# ---------------------------------------------------------------------------


class RationalNumberError(DomainError):
    """Continued-fraction convergents were asked of a rational root."""


def exact_sign(coeffs, x: Fraction) -> int:
    """The sign of the polynomial (little-endian) at x: that of
    den^deg p(num/den), by Horner in integers."""
    num, den = x.numerator, x.denominator
    acc = 0
    if den & (den - 1):
        for i, c in enumerate(reversed(coeffs)):
            acc = acc * num + c * den**i
    else:  # dyadic: the powers of den are shifts
        e = den.bit_length() - 1
        for i, c in enumerate(reversed(coeffs)):
            acc = acc * num + (c << e * i)
    return (acc > 0) - (acc < 0)


@dataclass(frozen=True)
class RealAlgebraic:
    """A real algebraic number: an integer polynomial (little-endian) and
    an isolating interval across which it takes opposite nonzero exact
    signs.  Every sign of exact_convergents comes from sign()."""

    coeffs: tuple[int, ...]
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo >= self.hi:
            raise DomainError("empty isolating interval")
        if self.sign(self.lo) * self.sign(self.hi) >= 0:
            raise DomainError("polynomial must change sign across the interval")

    def sign(self, x: Fraction) -> int:
        return exact_sign(self.coeffs, x)


def sqrt_algebraic(n: int) -> RealAlgebraic:
    """sqrt(n) for a nonsquare n >= 2 as a RealAlgebraic."""
    if n < 2 or is_perfect_square(n) is not None:
        raise DomainError("sqrt_algebraic wants a nonsquare n >= 2")
    r = math.isqrt(n)
    return RealAlgebraic((-n, 0, 1), Fraction(r), Fraction(r + 1))


def _rational_cf(x: Fraction) -> list[int]:
    """Canonical continued fraction of a rational (last term != 1 unless [1])."""
    a = []
    num, den = x.numerator, x.denominator
    while den:
        q, r = divmod(num, den)
        a.append(q)
        num, den = den, r
    if len(a) > 1 and a[-1] == 1:
        a.pop()
        a[-1] += 1
    return a


def _cf_convergents(cf: list[int]) -> list[tuple[int, int]]:
    out = []
    p0, q0, p1, q1 = 1, 0, cf[0], 1
    out.append((p1, q1))
    for a in cf[1:]:
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        out.append((p1, q1))
    return out


def fraction_convergents(lo: Fraction, hi: Fraction, qmax: int) -> list[tuple[int, int]] | None:
    """continued_fraction_convergents on Fraction endpoints, as the library
    had it: each endpoint's canonical expansion in full, the shared
    quotients but the last, convergents past qmax required, and the
    1/q^2 check at both endpoints."""
    if qmax < 1:
        raise DomainError("qmax must be >= 1")
    cl, ch = _rational_cf(lo), _rational_cf(hi)
    k = 0
    while k < len(cl) and k < len(ch) and cl[k] == ch[k]:
        k += 1
    if k < 2:
        return None
    convs = _cf_convergents(cl[: k - 1])
    if convs[-1][1] <= qmax:
        return None
    good = [pq for pq in convs if pq[1] <= qmax]
    a0, b0, a1, b1 = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    if all(abs(a0 * q - p * b0) * q < b0 and abs(a1 * q - p * b1) * q < b1 for p, q in good):
        return good
    return None


def _simplest_rational(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with smallest denominator strictly inside (lo, hi)."""
    flo = math.floor(lo)
    if Fraction(flo + 1) < hi:
        return Fraction(flo + 1)
    a, b = lo - flo, hi - flo
    if a == 0:
        # (n, n+b) with b <= 1: n + 1/m for the first m with 1/m < b
        return flo + Fraction(1, math.floor(1 / b) + 1)
    # invert: simplest in (1/b, 1/a), recurse
    return flo + 1 / _simplest_rational(1 / b, 1 / a)


def exact_convergents(x: RealAlgebraic | Fraction, qmax: int) -> list[tuple[int, int]]:
    """All continued-fraction convergents p/q of x with q <= qmax.

    A Fraction gives the convergents of its finite expansion.  For a
    RealAlgebraic the isolating interval is bisected with exact signs
    until the expansions of both ends share the partial quotients (the
    last shared one dropped) past a denominator above qmax, with
    |e - p/q| < 1/q^2 at both ends e.  A rational root raises
    RationalNumberError, found when bisection lands on it or when the
    interval keeps straddling the simplest rational inside it and that is
    a root.
    """
    if isinstance(x, Fraction):
        return [pq for pq in _cf_convergents(_rational_cf(x)) if pq[1] <= qmax]
    lo, hi = x.lo, x.hi
    slo = x.sign(lo)
    rounds = 0
    while True:
        # a wider interval seldom fixes a convergent past qmax; skipping the
        # check there saves time and changes no result
        if (hi - lo) * qmax * qmax >= 1:
            cl = ch = []
        else:
            cl, ch = _rational_cf(lo), _rational_cf(hi)
        k = 0
        while k < len(cl) and k < len(ch) and cl[k] == ch[k]:
            k += 1
        if k >= 2:
            convs = _cf_convergents(cl[: k - 1])
            if convs[-1][1] > qmax:
                good = [pq for pq in convs if pq[1] <= qmax]
                if all(abs(e - Fraction(p, q)) < Fraction(1, q * q)
                       for p, q in good for e in (lo, hi)):
                    return good
        mid = (lo + hi) / 2
        sm = x.sign(mid)
        if sm == 0:
            raise RationalNumberError(f"refinement collapsed onto {mid}")
        if sm == slo:
            lo = mid
        else:
            hi = mid
        rounds += 1
        if rounds % 32 == 0:
            cand = _simplest_rational(lo, hi)
            if x.sign(cand) == 0:
                raise RationalNumberError(f"{cand} is rational")


def thue_roots(form) -> list:
    """The real roots of F(1, t), ascending, found apart from the library:
    an integer root as a Fraction, every other one as a RealAlgebraic on
    an interval of width 2^-29 around the float value of 2 cos(2 pi k/n).
    The exact sign changes and the disjointness of the m intervals
    isolate every root."""
    poly = tuple(reversed(form.coeffs))
    out = []
    for k in range(form.degree, 0, -1):
        t = 2 * math.cos(2 * math.pi * k / form.n)
        if abs(t - round(t)) < 1e-9 and poly_eval(poly, round(t)) == 0:
            out.append(Fraction(round(t)))
        else:
            c = Fraction(round(t * 2**40), 2**40)
            out.append(RealAlgebraic(poly, c - Fraction(1, 2**30), c + Fraction(1, 2**30)))
    ends = [(r, r) if isinstance(r, Fraction) else (r.lo, r.hi) for r in out]
    assert all(a[1] < b[0] for a, b in zip(ends, ends[1:])), form.name
    return out


def is_prime_by_trial(n: int) -> bool:
    """Primality by trial division up to isqrt(n), independent of arith."""
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


@lru_cache(maxsize=None)
def sieved_primes(limit: int) -> tuple[int, ...]:
    """The primes <= limit, by a plain sieve of Eratosthenes."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for d in range(2, math.isqrt(limit) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, limit + 1, d)))
    return tuple(i for i in range(limit + 1) if sieve[i])


def factor_by_trial(n: int, limit: int = 1 << 22) -> tuple[dict[int, int], int]:
    """Trial division of |n| >= 1 by the primes <= limit, independent of arith.

    Returns the prime exponents found and the cofactor left unsplit: 1
    when |n| is fully factored, else a number above limit^2 with no
    prime factor <= limit.
    """
    m, found = abs(n), {}
    for p in sieved_primes(limit):
        if p * p > m:
            break
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
    else:
        if m > limit * limit:
            return found, m
    if m > 1:
        found[m] = found.get(m, 0) + 1
    return found, 1


def curve_points(lead: int, exponent: int, constant: int, x_max: int) -> list[tuple[int, int]]:
    """All (x, y), |x| <= x_max, y >= 0, with y^2 = lead x^exponent + constant,
    by testing every x with math.isqrt."""
    out = []
    for x in range(-x_max, x_max + 1):
        v = lead * x**exponent + constant
        if v >= 0 and math.isqrt(v) ** 2 == v:
            out.append((x, math.isqrt(v)))
    return out


def lucas_pell_points(sign: int, x_max: int) -> list[int]:
    """Positive X with 5X^2 + 20*sign a perfect square, X <= x_max.

    These are the odd-indexed (sign = +1) and even-indexed (sign = -1)
    classical Lucas numbers; together the two streams give the whole
    Lucas sequence 2, 1, 3, 4, 7, 11, 18, ...
    """
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    if x_max < 1:
        raise DomainError("x_max must be >= 1")
    out = []
    for x in range(1, x_max + 1):
        v = 5 * x * x + 20 * sign
        if v >= 0 and math.isqrt(v) ** 2 == v:
            out.append(x)
    return out


def rank_by_scan(pair: LucasPair, ell: int) -> int | None:
    """Smallest n >= 2 with ell | u_n, stepping u_n mod ell one index at a
    time up to ell + 1; None when no such n is found."""
    prev, cur = 1 % ell, pair.A % ell
    for n in range(2, ell + 2):
        if cur == 0:
            return n
        prev, cur = cur, (pair.A * cur - pair.B * prev) % ell
    return None


@lru_cache(maxsize=None)
def tau_series(bound: int) -> tuple[int, ...]:
    """(tau(1), ..., tau(bound)) from Delta = q E^24, with no Decimal and
    no Jacobi series: E = prod (1 - q^n) = 1 + sum_(k>=1) (-1)^k
    (q^(k(3k-1)/2) + q^(k(3k+1)/2)) by Euler's pentagonal theorem, and
    g = E^24 by the power recurrence n g_n = sum_(j>=1) (25 j - n) e_j g_(n-j)."""
    pentagonal, k = [], 1
    while k * (3 * k - 1) // 2 < bound:
        pentagonal += [(j, (-1) ** k) for j in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2)
                       if j < bound]
        k += 1
    pentagonal.sort()
    g = [1]
    for n in range(1, bound):
        total = 0
        for j, e in pentagonal:
            if j > n:
                break
            total += (25 * j - n) * e * g[n - j]
        g.append(total // n)
    return tuple(g)


def three_term(m: int, c1: int, a: int) -> tuple[int, ...]:
    """Coefficients (of X^i Y^(m-i)) of G_m for G_0 = 1, G_1 = Y + c1 X and
    G_j = (Y + a X) G_{j-1} - X^2 G_{j-2}, by the recurrence itself, m^2/2
    steps: F_{2m} is (c1, a) = (-1, -2) and Fhat_p is (1, 0)."""
    prev, cur = [1], [1, c1]
    for _ in range(m - 1):
        prev, cur = cur, [u + a * v - w for u, v, w in zip(cur + [0], [0] + cur, [0, 0] + prev)]
    return tuple(cur)


def form_value(coeffs, x: int, y: int) -> int:
    """sum c_i x^i y^(m-i) (coeffs as in ThueForm), by Horner in x."""
    acc, yp = 0, 1
    for c in reversed(coeffs):
        acc = acc * x + c * yp
        yp *= y
    return acc


def dense_thue_solutions(coeffs, targets, x_bound: int) -> dict[int, list[tuple[int, int]]]:
    """For each target k, all (x, y) with F(x, y) = k and |x| <= x_bound.

    Pure Python, no root enclosures: every root of F(1, t) lies in
    [-4, 4] for the forms used here, so F monic in Y gives
    |F(x, y)| >= dist(y, [-4|x|, 4|x|])^m, and every y within
    R = ceil(max |k|^(1/m)) of that cone is evaluated.
    """
    m = len(coeffs) - 1
    big = max(abs(k) for k in targets)
    r = 0
    while r**m < big:
        r += 1
    out: dict[int, list[tuple[int, int]]] = {k: [] for k in targets}
    for x in range(-x_bound, x_bound + 1):
        for y in range(-4 * abs(x) - r, 4 * abs(x) + r + 1):
            v = form_value(coeffs, x, y)
            if v in out:
                out[v].append((x, y))
    return {k: sorted(v) for k, v in out.items()}


def f2m_coeffs(m: int) -> tuple[int, ...]:
    """Coefficients (of X^k Y^(m-k)) of F_{2m} = sum_k (-1)^k C(2m - k, k)
    X^k Y^(m - k), read off the generating function
    1/(1 - sqrt(Y) T + X T^2)."""
    return tuple((-1) ** k * math.comb(2 * m - k, k) for k in range(m + 1))


def reduced_form_by_substitution(n: int) -> tuple[int, ...]:
    """Coefficients of Fhat_n(X, Y) = F_{n-1}(X, Y + 2X), as in ThueForm,
    for odd n: Y -> Y + 2X is applied to F_{n-1}(1, t) (f2m_coeffs) by m
    rounds of synthetic division (Taylor shift by 2).
    """
    m = (n - 1) // 2
    a = list(f2m_coeffs(m))  # a[i]: t^(m-i)
    for i in range(m):
        for j in range(1, m + 1 - i):
            a[j] += a[j - 1] << 1
    return tuple(a)


def convergent_solutions(form, rhs: int, x_small: int, x_mid: int) -> list[tuple[int, int]]:
    """Solutions of F = rhs with x_small < |x| <= x_mid on convergents,
    F(q, p) evaluated exactly for every convergent p/q of every root
    (thue_roots and exact_convergents, no pruning), and each multiple
    (lam q, lam p) confirmed exactly."""
    m = form.degree
    sols = set()
    for root in thue_roots(form):
        for pnum, q in exact_convergents(root, x_mid):
            base = form_value(form.coeffs, q, pnum)
            for target in (rhs, -rhs):
                if base == 0 or target % base or target // base <= 0:
                    continue
                lam = perfect_power_root(target // base, m)
                if lam is None or not x_small < lam * q <= x_mid:
                    continue
                for sign in (1, -1):
                    x, y = sign * lam * q, sign * lam * pnum
                    if form_value(form.coeffs, x, y) == rhs:
                        sols.add((x, y))
    return sorted(sols)


def signed_block_scenarios(alpha: int) -> list[list[tuple[int, int, int]]]:
    """Every way to write odd alpha as a product of signed prime-power
    blocks (sign, ell, m), each sorted, in (length, blocks) order.

    Splits each exponent into every partition, then tries all 2^n sign
    vectors of the n blocks and removes duplicates through a set.
    """
    sign = 1 if alpha > 0 else -1

    def partitions(e: int, top: int):
        if e == 0:
            yield ()
        for part in range(min(e, top), 0, -1):
            for rest in partitions(e - part, part):
                yield (part,) + rest

    block_lists = [[]]
    for ell, e in factor(alpha):
        block_lists = [bl + [(ell, mm) for mm in part]
                       for bl in block_lists for part in partitions(e, e)]
    scenarios = set()
    for blocks in block_lists:
        for bits in range(1 << len(blocks)):
            signs = [-1 if bits >> i & 1 else 1 for i in range(len(blocks))]
            if math.prod(signs) == sign:
                scenarios.add(tuple(sorted((s, ell, mm) for s, (ell, mm) in zip(signs, blocks))))
    return sorted((list(sc) for sc in scenarios), key=lambda sc: (len(sc), sc))


# ---------------------------------------------------------------------------
# Bivariate polynomials over Z
# ---------------------------------------------------------------------------


def p_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def p_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) - c
    return {k: c for k, c in out.items() if c}


def _by_a_degree(p: dict) -> dict[int, dict[int, int]]:
    out: dict[int, dict[int, int]] = {}
    for (i, j), c in p.items():
        out.setdefault(i, {})[j] = c
    return out


def p_divexact(num: dict, den: dict) -> dict:
    """Exact division when den is monic in A (leading A-coefficient 1)."""
    num = dict(num)
    dd = _by_a_degree(den)
    dn = max(dd)
    assert dd[dn] == {0: 1}, "divisor must be monic in A"
    out: dict = {}
    while num:
        na = _by_a_degree(num)
        top = max(na)
        if top < dn:
            raise ArithmeticError("division not exact")
        for j, c in na[top].items():
            out[(top - dn, j)] = out.get((top - dn, j), 0) + c
        q = {(top - dn, j): c for j, c in na[top].items()}
        num = p_sub(num, p_mul(q, den))
    return {k: c for k, c in out.items() if c}


@lru_cache(maxsize=None)
def u_poly(n: int) -> tuple:
    """u_n(A, B) as a polynomial dict (returned as sorted tuple for caching)."""
    if n == 1:
        return (((0, 0), 1),)
    if n == 2:
        return (((1, 0), 1),)
    prev = dict(u_poly(n - 2))
    cur = dict(u_poly(n - 1))
    nxt = p_sub(p_mul({(1, 0): 1}, cur), p_mul({(0, 1): 1}, prev))
    return tuple(sorted(nxt.items()))


def _mobius(n: int) -> int:
    f = factor(n)
    if any(e > 1 for _, e in f):
        return 0
    return -1 if len(f) % 2 else 1


@lru_cache(maxsize=None)
def phi_poly(n: int) -> tuple:
    """Phi_n(A, B) = prod_{d | n} u_d^mobius(n/d), exact."""
    num: dict = {(0, 0): 1}
    den: dict = {(0, 0): 1}
    for d in range(1, n + 1):
        if n % d == 0:
            mu = _mobius(n // d)
            if mu == 1:
                num = p_mul(num, dict(u_poly(d)))
            elif mu == -1:
                den = p_mul(den, dict(u_poly(d)))
    return tuple(sorted(p_divexact(num, den).items()))


def phi_x_coeffs(n: int, B: int) -> list[int]:
    """Phi_n at B, as a little-endian polynomial in x = A^2 (n >= 3)."""
    out: dict[int, int] = {}
    for (i, j), c in phi_poly(n):
        assert i % 2 == 0, "Phi_n must be even in A for n >= 3"
        out[i // 2] = out.get(i // 2, 0) + c * B**j
    coeffs = [0] * (max(out) + 1)
    for i, c in out.items():
        coeffs[i] = c
    return coeffs


# ---------------------------------------------------------------------------
# Monotone-piece solving of g(x) = t over integer x
# ---------------------------------------------------------------------------


def monotone_breaks(g: list[int], lo: int, hi: int) -> list[int]:
    """Integers partitioning [lo, hi] so that g is monotone between
    consecutive breaks except possibly inside unit gaps."""
    pts = {lo, hi}
    if len(g) > 2:
        for c in _floor_cover(poly_derivative(g), lo, hi):
            if lo <= c <= hi:
                pts.add(c)
            if lo <= c + 1 <= hi:
                pts.add(c + 1)
    return sorted(pts)


def _bisect_first_ge(g, a, b, t, ascending):
    """Smallest x in [a, b] with g(x) >= t (ascending) / <= t (descending);
    g monotone on [a, b]."""
    def ok(x):
        v = poly_eval(g, x)
        return v >= t if ascending else v <= t
    if not ok(b):
        return None
    while a < b:
        mid = (a + b) // 2
        if ok(mid):
            b = mid
        else:
            a = mid + 1
    return a


def solve_in_band(g: list[int], tlo: int, thi: int, lo: int, hi: int) -> set[int]:
    """All integer x in [lo, hi] with tlo <= g(x) <= thi."""
    if lo > hi:
        return set()
    out = set()
    breaks = monotone_breaks(g, lo, hi)
    for a, b in zip(breaks, breaks[1:]):
        for e in (a, b):
            if tlo <= poly_eval(g, e) <= thi:
                out.add(e)
        if b - a <= 1:
            continue
        va, vb = poly_eval(g, a), poly_eval(g, b)
        asc = vb >= va
        vmin, vmax = (va, vb) if asc else (vb, va)
        if vmax < tlo or vmin > thi:
            continue
        start = _bisect_first_ge(g, a, b, tlo if asc else thi, asc)
        if start is None:
            continue
        x = start
        while x <= b:
            v = poly_eval(g, x)
            if not (tlo <= v <= thi):
                break
            out.add(x)
            x += 1
    return out


def solve_exact(g: list[int], targets, lo: int, hi: int) -> set[int]:
    """All integer x in [lo, hi] with g(x) in targets (a set)."""
    if lo > hi or not targets:
        return set()
    out = set()
    targets = sorted(targets)
    breaks = monotone_breaks(g, lo, hi)
    for a, b in zip(breaks, breaks[1:]):
        for e in (a, b):
            if poly_eval(g, e) in targets:
                out.add(e)
        if b - a <= 1:
            continue
        va, vb = poly_eval(g, a), poly_eval(g, b)
        asc = vb >= va
        vmin, vmax = (va, vb) if asc else (vb, va)
        for t in targets:
            if not vmin <= t <= vmax:
                continue
            x = _bisect_first_ge(g, a, b, t, asc)
            if x is not None and poly_eval(g, x) == t:
                out.add(x)
    return out


# ---------------------------------------------------------------------------
# Primitive prime divisors (the blind defect oracle)
# ---------------------------------------------------------------------------

# Every Lucas term u_n with n > 30 has a primitive prime divisor
# (Bilu-Hanrot-Voutier).
BILU_HANROT_VOUTIER_BOUND = 30


def _strip_common(value: int, other: int) -> int:
    """Remove from |value| every prime that divides other."""
    v = abs(value)
    g = math.gcd(v, abs(other))
    while g > 1:
        while v % g == 0:
            v //= g
        g = math.gcd(v, g)
        if g == 1:
            g = math.gcd(v, abs(other))
    return v


def primitive_part(pair: LucasPair, n: int, terms: list[int] | None = None) -> int:
    """|u_n| with every prime dividing (A^2-4B) u_1 ... u_{n-1} removed."""
    if n < 2:
        raise DomainError("n must be >= 2")
    if terms is None:
        terms = lucas_terms(pair, n)
    v = abs(terms[n - 1])
    if v == 0:
        raise DomainError("u_n = 0: degenerate pair")
    v = _strip_common(v, pair.discriminant)
    for k in range(2, n):
        if v == 1:
            break
        v = _strip_common(v, terms[k - 1])
    return v


def nonunit_cyclotomic_count(A: int, B: int, n: int) -> int:
    """The number of d | n, d >= 2, with |Phi_d(A, B)| != 1: Phi_2 = A,
    Phi_d for 3 <= d <= 30 the cyclotomic polynomial phi_x_coeffs at
    x = A^2, and every d > 30 counted, as Phi_d then holds u_d's primitive
    prime (Bilu-Hanrot-Voutier)."""
    count = 0
    for d in range(2, n + 1):
        if n % d:
            continue
        if d > BILU_HANROT_VOUTIER_BOUND:
            count += 1
        else:
            count += abs(A if d == 2 else poly_eval(phi_x_coeffs(d, B), A * A)) != 1
    return count


def has_primitive_prime_divisor(pair: LucasPair, n: int) -> bool:
    """True iff some prime divides u_n but neither (A^2-4B) nor any u_k, k < n."""
    return primitive_part(pair, n) > 1


def brute_force_defect_indices(pair: LucasPair, n_max: int = BILU_HANROT_VOUTIER_BOUND) -> list[int]:
    """Defective indices 3 <= n <= n_max by direct primitive-part computation."""
    terms = lucas_terms(pair, n_max)
    return [
        n
        for n in range(3, n_max + 1)
        if primitive_part(pair, n, terms) == 1
    ]


# ---------------------------------------------------------------------------
# Candidate enumeration for the defect closure
# ---------------------------------------------------------------------------

SMALL_BAND = 64  # covers every bounded |Phi_n| case (true bound is 30)


def defect_candidate_as(p: int, e: int) -> set[int]:
    """All A > 0 that could possibly make some u_n, 3 <= n <= 30,
    defective for B = p^e.  Complete by the support analysis above,
    which needs no list of known defects: the unit cases, such as
    Phi_3(3, 8) = 1 and Phi_6(5, 8) = 1, fall in the small band."""
    B = p**e
    xmax = 4 * B
    cands: set[int] = set()

    def absorb(xs):
        for x in xs:
            if x < 1 or x > xmax or x in (B, 2 * B, 3 * B, 4 * B):
                continue
            a = is_perfect_square(x)
            if a is not None and a > 0 and math.gcd(a, p) == 1:
                cands.add(a)

    for n in range(3, 31):
        g = phi_x_coeffs(n, B)
        absorb(solve_in_band(g, -SMALL_BAND, SMALL_BAND, 1, xmax))
        extra: set[int] = set()
        if n == 6:
            # Phi_6 = x - 3B: +-2^a 3^b, b <= 1
            bound = 3 * B + 1
            for b3 in (1, 3):
                t = b3
                while t <= bound:
                    if t > SMALL_BAND:
                        extra.update((t, -t))
                    t *= 2
        elif n in (3, 5, 7, 11, 13, 17, 19, 23, 29):
            bound = sum(abs(c) * xmax**i for i, c in enumerate(g))
            t = n
            while t <= bound:
                if t > SMALL_BAND:
                    extra.update((t, -t))
                t *= n
        if extra:
            absorb(solve_exact(g, extra, 1, xmax))
    return cands
