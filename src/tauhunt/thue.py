"""Homogeneous forms F_{2m}(X, Y) and the bounded Thue solver.

The forms come from the generating function 1/(1 - sqrt(Y) T + X T^2):
F_2 = Y - X, and F_{2m} = (Y - 2X) F_{2m-2} - X^2 F_{2m-4}.  Their roots
in Y/X are 4 cos^2(pi k/(2m+1)).  For odd primes p the reduced form
Fhat_p(X, Y) = prod (Y - 2X cos(2 pi k/p)) satisfies
F_{p-1}(X, Y) = Fhat_p(X, Y - 2X) and has much smaller coefficients;
every Thue condition F_{d-1} = alpha of the decision pipeline (d >= 7)
is solved through Fhat_d.

Both phases rest on certified root enclosures: each closed-form root is
rounded to c/2^44 and [(c - 1)/2^44, (c + 1)/2^44] is kept once two
proven signs show F(1, t) changing sign across it (real_roots).  Both
families are G_m(t + a) for the recurrence G_0 = 1, G_1 = s + 1,
G_j = s G_{j-1} - G_{j-2} (a = 0 for Fhat_p, a = -2 for F_{2m}), so a
sign at a dyadic point with |s| <= 2 is proven by running it in fixed
point, whose error is below m(m-1)/2 units (_recurrence_sign); exact
Horner is the fallback where that bound does not decide.

Each form carries one context (_FormContext), built on its first solve
and kept on the form, so a lookup hashes nothing.  It holds the
enclosures, an integer L_i <= log2 |P'(theta_i)| for P(t) = F(1, t), a
lower bound on sep_i = min_j |theta_i - theta_j|, the residue tables,
the convergents tagged with their root and each phase's results.

solve_bounded is deliberately a *bounded verifier*: an exhaustive scan
for |x| <= x_small, and a convergent-pruned search for
x_small < |x| <= x_mid justified by the classical gap criterion for
Thue equations (Tzanakis-de Weger Lemma 1.1 / Bilu-Hanrot): large
solutions make y/x a continued-fraction convergent of a real root of
F(1, t).  A convergent p/q gives only the solutions (lam q, lam p) with
lam^m |F(q, p)| = k, so F(q, p) is evaluated exactly only when some
lam q can lie in (x_small, x_mid] and the bound
|F(q, p)| >= delta q^(m-1) |P'(theta_i)| (1 - delta/(q sep_i))^(m-1),
delta = |p - theta_i q| for the root theta_i of the convergent, does not
already show |F(q, p)| > k; it costs O(1) per convergent.

The exhaustive scan uses the nearest-root inequality (Tzanakis-de Weger,
J. Number Theory 31, 1989): for x > 0 and theta_i the root nearest y/x,
|F(x, y)| >= x^(m-1) |y - theta_i x| |P'(theta_i)| / 2^(m-1), and
|F(x, y)| = prod |y - theta_j x| >= |y - theta_i x|^m for these monic,
totally real forms.  So a solution of |F| = k has, for some i,
|y - theta_i x| <= min(k^(1/m), rho_i(x)), rho_i(x) =
2^(m-1) k / (x^(m-1) |P'(theta_i)|), and for each x only the integers
within that radius of x times an enclosure are scanned; rho_i(x) falls
below 1 within a few x once m is large.  Each candidate costs one table
lookup keyed on t = y/x mod q, T_q[t] = F(1, t) mod q, for two small
primes q; the tables only prune, and every survivor is confirmed in
big-integer arithmetic.  Each phase runs once for both F = k and
F = -k.  Every result carries its bound certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from . import catalog
from .arith import (
    DomainError,
    RealAlgebraic,
    continued_fraction_convergents,
    integer_nth_root,
    is_prime,
    perfect_power_root,
    sign_at,
)

__all__ = [
    "ThueForm",
    "build_form",
    "build_reduced_form",
    "evaluate",
    "ThueSolutions",
    "solve_bounded",
    "catalog_rows",
]

# F(1, t) mod q is tabulated for every t < q; q < 2^15 keeps the tables int16
_TABLE_PRIMES = (4093, 4091)
# y values scanned for one x; a larger window would allocate GiBs
_CANDIDATE_BUDGET = 1 << 22
# about this many candidates are built and filtered per numpy pass
_BLOCK_CANDIDATES = 1 << 16
# Cost of the exhaustive scan, rounded up: 2.2-3.5 us per x plus 9-70 ns
# per candidate of the bound m * (2R + 3) per x, over F_2..F_12 and
# Fhat_5..Fhat_691 on a 2-vCPU Xeon.  A scan estimated above the budget,
# about a minute, is refused before it starts.
_SCAN_NS_PER_X = 4000
_SCAN_NS_PER_CANDIDATE = 40
_SCAN_BUDGET_NS = 60 * 10**9
# Cost of building a form and certifying its roots, rounded up: 0.27-0.31 us
# per m^2 for real_roots and 0.02-0.08 ns per m^3 for the recurrence on
# m-bit coefficients, over F_500..F_10000 and Fhat_503..Fhat_10007 on a
# 2-vCPU Xeon.  A form estimated above _SCAN_BUDGET_NS is refused unbuilt.
_FORM_NS_PER_M2 = 400
_FORM_NS_PER_M3 = 0.1


@dataclass(frozen=True)
class ThueForm:
    """coeffs[i] is the coefficient of X^i Y^(degree-i); monic in Y."""

    degree: int
    coeffs: tuple[int, ...]
    kind: str = "standard"  # "standard" = F_{2m}; "reduced" = Fhat_p
    p: int = 0  # defining prime for reduced forms

    def __post_init__(self):
        if len(self.coeffs) != self.degree + 1 or self.coeffs[0] != 1:
            raise DomainError("malformed form")

    @property
    def name(self) -> str:
        if self.kind == "reduced":
            return f"Fhat_{self.p}"
        return f"F_{2 * self.degree}"

    @cached_property
    def _context(self) -> _FormContext:
        # stored in the instance __dict__, outside the fields, eq and hash
        return _FormContext(self)


def _three_term(m: int, c1: int, a: int) -> tuple[int, ...]:
    """G_m for G_0 = 1, G_1 = Y + c1 X and G_j = (Y + a X) G_{j-1} - X^2 G_{j-2}."""
    prev, cur = [1], [1, c1]
    for _ in range(m - 1):
        prev, cur = cur, [u + a * v - w for u, v, w in zip(cur + [0], [0] + cur, [0, 0] + prev)]
    return tuple(cur)


def check_degree(m: int) -> None:
    """Refuse (DomainError) a form of degree m whose build and root
    certification are estimated to take more than the budget, about a
    minute."""
    ns = m * m * (_FORM_NS_PER_M2 + _FORM_NS_PER_M3 * m)
    if ns > _SCAN_BUDGET_NS:
        raise DomainError(
            f"a Thue form of degree {m} would take about {ns / 6e10:.3g} min to build "
            f"and certify; the budget is about a minute"
        )


@lru_cache(maxsize=None)
def build_form(m: int) -> ThueForm:
    """F_{2m}(X, Y), exact integer coefficients, total degree m."""
    if m < 1:
        raise DomainError("m must be >= 1")
    check_degree(m)
    return ThueForm(m, _three_term(m, -1, -2))


@lru_cache(maxsize=None)
def build_reduced_form(p: int) -> ThueForm:
    """Fhat_p with F_{p-1}(X, Y) = Fhat_p(X, Y - 2X), for odd prime p.

    Substituting Y -> Y + 2X in the recurrence of F_{2m} gives
    Fhat = Y Fhat' - X^2 Fhat'' from Fhat_3 = Y + X and 1.
    """
    if p < 3 or not is_prime(p):
        raise DomainError("p must be an odd prime")
    m = (p - 1) // 2
    check_degree(m)
    return ThueForm(m, _three_term(m, 1, 0), kind="reduced", p=p)


def evaluate(form: ThueForm, x: int, y: int) -> int:
    """F(x, y), exact."""
    acc = 0
    xp = 1
    # Horner in y over coefficients of y^j, j = m .. 0
    for c in form.coeffs:
        acc = acc * y + c * xp
        xp *= x
    return acc


# ---------------------------------------------------------------------------
# Real roots of F(1, t)
# ---------------------------------------------------------------------------


def _dehomogenized(form: ThueForm) -> list[int]:
    """F(1, t) as a little-endian coefficient list."""
    m = form.degree
    poly = [0] * (m + 1)
    for i, c in enumerate(form.coeffs):
        poly[m - i] = c
    return poly


_ROOT_BITS = 44  # enclosures are [(c - 1)/2^44, (c + 1)/2^44]


def _root_estimates(form: ThueForm) -> tuple[int, ...]:
    """Dyadic numerators c ~ theta * 2^44 of the closed-form roots, ascending.

    Fhat_p has roots 2 cos(2 pi k/p); F_{2m} has 4 cos^2(pi k/(2m+1)) =
    2 + 2 cos(2 pi k/(2m+1)), added as the exact dyadic shift 2, so the
    enclosures of F_{p-1} are those of Fhat_p moved by exactly 2.
    """
    if form.kind == "reduced":
        n, shift = form.p, 0
    else:
        n, shift = 2 * form.degree + 1, 2 << _ROOT_BITS
    return tuple(sorted(
        round(2 * math.cos(2 * math.pi * k / n) * (1 << _ROOT_BITS)) + shift
        for k in range(1, form.degree + 1)
    ))


# fractional bits kept beyond those of the point in _recurrence_sign; the
# rounding error stays below m(m-1)/2 units whatever this is, so it only
# sets how often a sign is left to the exact fallback
_GUARD_BITS = 32


def _recurrence_sign(m: int, a: int, x: Fraction) -> int | None:
    """The sign of G_m(s) at s = x + a, proven in fixed point, or None.

    G_0 = 1, G_1 = s + 1 and G_j = s G_{j-1} - G_{j-2}; F(1, t) =
    G_m(t + a) with a = 0 for Fhat_p and a = -2 for F_{2m}.  For dyadic
    x = u/2^b and |s| <= 2, g_j ~ 2^f G_j with f = b + _GUARD_BITS is run
    with floor rounding, g_j = floor(s g_{j-1}) - g_{j-2}.  The error is
    g_m - 2^f G_m = -sum_j delta_j U_{m-j}(s/2) with 0 <= delta_j < 1 and
    |U_k(s/2)| <= k + 1, so it is smaller than m(m-1)/2 in absolute
    value, and |g_m| > m(m-1)/2 proves the sign of G_m.  Otherwise (x
    not dyadic, |s| > 2, or g_m too small) the result is None.
    """
    den = x.denominator
    if den & (den - 1):
        return None
    b = den.bit_length() - 1
    s = x.numerator + (a << b)  # s * 2^b
    if abs(s) > 2 << b:
        return None
    one = 1 << (b + _GUARD_BITS)
    prev, cur = one, (s << _GUARD_BITS) + one
    for _ in range(m - 1):
        prev, cur = cur, ((s * cur) >> b) - prev
    if abs(cur) <= m * (m - 1) // 2:
        return None
    return 1 if cur > 0 else -1


@dataclass(frozen=True)
class _RecurrenceRoot(RealAlgebraic):
    """A root of F(1, t) = G_m(t + shift) whose signs come from
    _recurrence_sign where it proves them, else from exact Horner."""

    shift: int

    def sign(self, x: Fraction) -> int:
        s = _recurrence_sign(len(self.coeffs) - 1, self.shift, x)
        return super().sign(x) if s is None else s


def _recurrence_shift(form: ThueForm) -> int | None:
    """a with F(1, t) = G_m(t + a) when the coefficients are the
    recurrence's for the form's kind, else None (a hand-built form)."""
    try:
        if form.kind == "reduced":
            ref, shift = build_reduced_form(form.p), 0
        else:
            ref, shift = build_form(form.degree), -2
    except DomainError:
        return None
    return shift if ref.coeffs == form.coeffs else None


def real_roots(form: ThueForm) -> tuple[RealAlgebraic, ...]:
    """Isolating intervals of width 2^-43 for the m real roots of F(1, t),
    ascending.

    Each closed-form root, rounded to c/2^44, only *proposes* the
    enclosure [(c - 1)/2^44, (c + 1)/2^44].  RealAlgebraic certifies a
    sign change across it, so it holds a root; the m enclosures are
    pairwise disjoint and F(1, t) is monic of degree m, so each holds
    exactly one.  When the coefficients are those of the three-term
    recurrence, the signs (of the certificate and of later bisection)
    are proven by _recurrence_sign in about 100-bit integers and fall
    back to exact Horner only where that bound is undecided; any other
    form is checked with exact signs throughout.  Each call certifies
    afresh; a form's context keeps the result of its one call.
    """
    poly = tuple(_dehomogenized(form))
    centers = _root_estimates(form)
    if any(b - a <= 2 for a, b in zip(centers, centers[1:])):
        raise ArithmeticError("root enclosures overlap")  # pragma: no cover
    den = 1 << _ROOT_BITS
    shift = _recurrence_shift(form)

    def enclosure(c: int) -> RealAlgebraic:
        lo, hi = Fraction(c - 1, den), Fraction(c + 1, den)
        if shift is None:
            return RealAlgebraic(poly, lo, hi)
        return _RecurrenceRoot(poly, lo, hi, shift)

    try:
        return tuple(map(enclosure, centers))
    except DomainError as exc:
        raise ArithmeticError("root enclosures not certified") from exc


def _log2_derivatives(centers) -> list[int]:
    """L_i = sum_{j != i} floor(log2(|c_j - c_i| - 2)) - 44 (m - 1) for
    ascending enclosure numerators c_i with gaps of at least 3.

    |P'(theta_i)| = prod_{j != i} |theta_i - theta_j| for the monic P, and
    |theta_i - theta_j| 2^44 > |c_i - c_j| - 2 >= 1, so L_i <= log2 |P'|.
    Every difference is below 2^53, so it is an exact float and frexp
    gives its floor(log2) exactly.  The m x m differences are taken in
    blocks of about _BLOCK_CANDIDATES.
    """
    import numpy as np

    c = np.array(centers, dtype=np.int64)
    m = len(c)
    rows = max(1, _BLOCK_CANDIDATES // m)
    out = []
    for a in range(0, m, rows):
        d = np.abs(c[a:a + rows, None] - c) - 2
        n = len(d)
        d[np.arange(n), np.arange(a, a + n)] = 1  # j = i adds log2 1 = 0
        out.extend((np.frexp(d.astype(np.float64))[1] - 1).sum(axis=1).tolist())
    return [v - _ROOT_BITS * (m - 1) for v in out]


class _FormContext:
    """What both phases of solve_bounded need of one form, built once.

    centers[i] = c_i with theta_i in ((c_i - 1)/2^44, (c_i + 1)/2^44),
    ascending, certified by real_roots; log2_deriv[i] = L_i (see
    _log2_derivatives); seps[i] = S_i with S_i < sep_i 2^44, S_i >= 1
    (inf for degree 1).  Residue tables, convergents and phase results
    are kept as they are first asked for.
    """

    def __init__(self, form: ThueForm):
        self.form = form
        self.roots = real_roots(form)
        den = 1 << _ROOT_BITS
        self.centers = [int(root.lo * den) + 1 for root in self.roots]
        self.log2_deriv = _log2_derivatives(self.centers)
        gaps = [b - a - 2 for a, b in zip(self.centers, self.centers[1:])]
        self.seps = list(map(min, [math.inf] + gaps, gaps + [math.inf]))
        self._tables: dict[int, object] = {}
        self._convergents: dict[int, tuple[tuple[int, int, int], ...]] = {}
        self._runs: dict[tuple, tuple] = {}

    def run(self, phase, *args):
        """phase(self, *args), computed once per form for each args."""
        key = (phase, *args)
        if key not in self._runs:
            self._runs[key] = phase(self, *args)
        return self._runs[key]

    def table(self, q: int):
        """F(1, t) mod q for t = 0 .. q - 1 (int16: q < 2^15)."""
        if q not in self._tables:
            import numpy as np

            t = np.arange(q, dtype=np.int64)
            acc = np.zeros(q, dtype=np.int64)
            for c in self.form.coeffs:
                acc = (acc * t + c % q) % q
            self._tables[q] = acc.astype(np.int16)
        return self._tables[q]

    def convergents(self, x_mid: int) -> tuple[tuple[int, int, int], ...]:
        """(p, q, i) for every convergent p/q, q <= x_mid, of every root theta_i."""
        if x_mid not in self._convergents:
            out = []
            for i, root in enumerate(self.roots):
                # a rational root of the monic F(1, t) is an integer; the only
                # one, 1 on F_{2m} with 3 | 2m + 1, is the exact center of its
                # enclosure
                center = (root.lo + root.hi) / 2
                rational = center.denominator == 1 and sign_at(root.coeffs, center) == 0
                out.extend((pnum, q, i) for pnum, q in
                           continued_fraction_convergents(center if rational else root, x_mid))
            self._convergents[x_mid] = tuple(out)
        return self._convergents[x_mid]

    def log2_lower_bound(self, p: int, q: int, i: int) -> int | None:
        """An integer b <= log2 |F(q, p)| for q > 0, from the root theta_i,
        or None when the enclosures cannot show p/q away from theta_i.

        With gap = |p 2^44 - c_i q|, delta = |p - theta_i q| has
        gap - q < delta 2^44 < gap + q, and for j != i
        |p - theta_j q| >= q |theta_i - theta_j| (1 - e) with
        e = delta / (q sep_i) < (gap + q) / (q S_i).  So
        |F(q, p)| >= delta q^(m-1) |P'(theta_i)| (1 - e)^(m-1) once
        e < 1, and -log2(1 - e) <= e / ((1 - e) ln 2) < 3 (gap + q) / (2 far)
        with far = q S_i - (gap + q).
        """
        gap = abs((p << _ROOT_BITS) - self.centers[i] * q)
        if gap <= q:
            return None
        far = self.seps[i] * q - (gap + q)
        if far <= 0:
            return None
        m = len(self.centers)
        loss = -(-3 * (m - 1) * (gap + q) // (2 * far))  # ceil
        return ((gap - q).bit_length() - 1 - _ROOT_BITS + (m - 1) * (q.bit_length() - 1)
                + self.log2_deriv[i] - loss)


# ---------------------------------------------------------------------------
# Bounded solving
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThueSolutions:
    form: str
    rhs: int
    solutions: tuple[tuple[int, int], ...]
    certificate: dict

    def to_dict(self) -> dict:
        return {
            "form": self.form,
            "rhs": self.rhs,
            "solutions": [list(s) for s in self.solutions],
            "certificate": self.certificate,
        }


def _floor_scaled(xs, nums, add=0):
    """floor((x * a + add) / 2^44) for x in the column xs, a in the row
    nums and |add| <= 2^61.

    Exact in int64 for 0 < x < 2^38 and |a| <= 2^46 + 1 (every root lies
    in [-4, 4]): a = a1 2^22 + a0 with 0 <= a0 < 2^22, and
    floor((x a + add) / 2^44) = floor((x a1 + floor((x a0 + add) / 2^22)) / 2^22).
    """
    h = _ROOT_BITS // 2
    return (xs * (nums >> h) + ((xs * (nums & ((1 << h) - 1)) + add) >> h)) >> h


# rho bounds above this many 2^-44 units leave a window to k^(1/m) alone;
# _floor_scaled takes them as its add
_RHO_UNITS_CAP = 1 << 61


def _rho_units(log2_deriv, k: int, x0: int, x1: int):
    """U[a, i] >= 2^44 rho_i(x) at x = x0 + a, for 1 <= x0 <= x < x1, with
    rho_i(x) = 2^(m-1) k / (x^(m-1) 2^L_i) and L_i = log2_deriv[i]; 0
    where the bound is above _RHO_UNITS_CAP.

    With k <= kt 2^ek and x^(m-1) >= dt 2^ed for the top bits kt <= 2^53
    and dt < 2^53, 2^44 rho_i(x) <= (kt / dt) 2^(ek - ed + s_i) with
    s_i = 44 + m - 1 - L_i.  kt / dt is one correctly rounded float
    division, so the next float up bounds it, and ldexp scales it
    exactly; clipping the exponent to [-200, 200] only raises small
    bounds and leaves large ones above the cap.  Past the first x with
    x^(m-1) > k 2^max(s_i) every bound is below one unit, and U = 1 there
    without a power of x.
    """
    import numpy as np

    m = len(log2_deriv)
    shifts = _ROOT_BITS + m - 1 - np.asarray(log2_deriv, dtype=np.int64)
    units = np.ones((x1 - x0, m), dtype=np.int64)
    s_max = int(shifts.max())
    widest = k << s_max if s_max >= 0 else (k >> -s_max) + 1  # >= k 2^s_max
    thin = x1 if m == 1 else min(x1, integer_nth_root(widest, m - 1) + 1)
    if thin <= x0:
        return units
    ek = max(0, k.bit_length() - 53)
    kt = -(-k >> ek)
    ratios, scales = [], []
    for x in range(x0, thin):
        d = x ** (m - 1)
        ed = max(0, d.bit_length() - 53)
        ratios.append(math.nextafter(kt / (d >> ed), math.inf))
        scales.append(ek - ed)
    exps = np.clip(np.array(scales)[:, None] + shifts, -200, 200)
    bound = np.ldexp(np.array(ratios)[:, None], exps)
    units[:thin - x0] = np.where(bound <= _RHO_UNITS_CAP, np.ceil(bound), 0)
    return units


def _windows(centers, r: int, units, xs):
    """(starts, ends) of the integers y with |y - theta_i x| <=
    min(k^(1/m), rho_i(x)) for theta_i in (lo_i, hi_i), one column per
    root, for x in xs; r = floor(k^(1/m)) and units from _rho_units.

    k^(1/m) < r + 1 and y > x lo_i - (r + 1) give y >= floor(x lo_i) - r,
    and y <= ceil(x hi_i) + r likewise.  Where units = U > 0,
    ceil((x lo_i 2^44 - U) / 2^44) <= y <= floor((x hi_i 2^44 + U) / 2^44)
    too: the exact integer hull, not widened to whole units.
    """
    import numpy as np

    col = xs[:, None]
    los, his = centers - 1, centers + 1
    starts = _floor_scaled(col, los) - r
    ends = r - _floor_scaled(col, -his)
    tight = units > 0
    starts = np.where(tight, np.maximum(starts, -_floor_scaled(col, -los, units)), starts)
    ends = np.where(tight, np.minimum(ends, _floor_scaled(col, his, units)), ends)
    return starts, ends


def _y_candidates(starts, ends, xs):
    """(x, y) for every integer y in some window [starts[a, i], ends[a, i]]
    of x = xs[a], each once (a window with start > end is empty).

    The nonempty windows of each x are sorted by start and merged where
    they overlap or touch.  Raises DomainError, before the y are
    allocated, when the merged windows of one x hold more than
    _CANDIDATE_BUDGET values.
    """
    import numpy as np

    nonempty = starts <= ends
    rows = np.nonzero(nonempty)[0]
    if not len(rows):
        return rows, rows
    starts, ends = starts[nonempty], ends[nonempty]
    # shifting the windows of row a by a * span puts the rows apart and in
    # order, so one sort and one running maximum serve every x (< 2^58 in int64)
    base = rows * (int(ends.max() - starts.min()) + 2)
    order = np.argsort(starts + base, kind="stable")
    rows, starts, ends, base = rows[order], starts[order], ends[order], base[order]
    # reach[j]: the last y covered by the windows of its x up to j
    reach = np.maximum.accumulate(ends + base) - base
    opens = np.ones(len(rows), dtype=bool)
    opens[1:] = (starts[1:] > reach[:-1] + 1) | (rows[1:] != rows[:-1])
    closes = np.ones(len(rows), dtype=bool)
    closes[:-1] = opens[1:]
    rows, starts = rows[opens], starts[opens]
    lengths = reach[closes] - starts + 1
    if np.bincount(rows, weights=lengths).max() > _CANDIDATE_BUDGET:
        raise DomainError(f"exhaustive scan needs more than {_CANDIDATE_BUDGET} y for one x")
    # consecutive integers within each window, windows back to back
    offsets = starts - (np.cumsum(lengths) - lengths)
    return np.repeat(xs[rows], lengths), np.arange(lengths.sum()) + np.repeat(offsets, lengths)


def _scan_exhaustive(
    ctx: _FormContext, k: int, x_hi: int
) -> tuple[tuple[tuple[int, int, int], ...], dict]:
    """(x, y, F(x, y)) for every solution of F = +-k with 0 <= x <= x_hi.

    Solutions with x < 0 follow from F(-x, -y) = (-1)^deg F(x, y); x = 0
    is solved directly.  For x > 0 only the y of _windows are scanned
    (the module docstring gives the bound).  Each candidate then passes
    a residue-table filter keyed on t = y/x mod q: for x prime to q,
    F(x, y) = x^m F(1, y x^-1) (mod q), so F = +-k needs
    T_q[y x^-1 mod q] = +-k x^-m mod q, with T_q[t] = F(1, t) mod q
    (a prime dividing x is skipped for that x).  The filter is only a
    necessary condition: every survivor is confirmed with big integers.
    The x are taken in blocks of about _BLOCK_CANDIDATES window values.
    A scan estimated to take more than _SCAN_BUDGET_NS, about a minute,
    is refused before it starts.  The info dict has the radius
    r = floor(k^(1/m)), the (x, y) pairs scanned and the confirmed
    solutions.
    """
    import numpy as np

    form = ctx.form
    m = form.degree
    r = integer_nth_root(k, m)
    out = [(0, y, y**m) for y in (-r, r)] if r**m == k else []  # F(0, y) = y^m
    # each of the m windows of an x < 2^43 holds at most 2r + 3 values; the
    # budget also keeps x_hi below 2^38, which _floor_scaled needs
    per_x = m * (2 * r + 3)
    ns = x_hi * (_SCAN_NS_PER_X + per_x * _SCAN_NS_PER_CANDIDATE)
    if ns > _SCAN_BUDGET_NS:
        raise DomainError(
            f"exhaustive Thue scan of {x_hi} x values and up to {x_hi * per_x} "
            f"candidates would take about {ns / 6e10:.3g} min; the budget is about a minute"
        )
    # tested before r meets int64; it refuses nothing the scan would take:
    # r >= 2^21 makes rho_i(1) >= r, as |P'(theta_i)| <= 4^(m-1) (the roots
    # lie in an interval of length 4), so each window of x = 1 has 2r + 1 values
    if x_hi and 2 * r + 1 > _CANDIDATE_BUDGET:
        raise DomainError(f"exhaustive scan needs more than {_CANDIDATE_BUDGET} y for one x")
    centers = np.array(ctx.centers, dtype=np.int64)
    tables = [(q, ctx.table(q)) for q in _TABLE_PRIMES]
    step = max(1, _BLOCK_CANDIDATES // per_x)
    scanned = 0
    for x0 in range(1, x_hi + 1, step):
        x1 = min(x0 + step, x_hi + 1)
        col = np.arange(x0, x1, dtype=np.int64)
        starts, ends = _windows(centers, r, _rho_units(ctx.log2_deriv, k, x0, x1), col)
        xs, ys = _y_candidates(starts, ends, col)
        scanned += len(ys)
        for q, table in tables:
            # only the x that still have candidates; xs is ascending
            ux, at = np.unique(xs, return_inverse=True)
            inv = [pow(x, -1, q) if x % q else 0 for x in ux.tolist()]
            want = np.array([k * pow(v, m, q) % q for v in inv], dtype=np.int64)[at]
            inv = np.array(inv, dtype=np.int64)[at]
            got = table[ys % q * inv % q]
            keep = (got == want) | (got == (q - want) % q) | (inv == 0)
            xs, ys = xs[keep], ys[keep]
        for x, y in zip(xs.tolist(), ys.tolist()):
            v = evaluate(form, x, y)
            if abs(v) == k:
                out.append((x, y, v))
    info = {"window_radius": r, "candidates": scanned, "confirmed": len(out)}
    return tuple(out), info


def _linear_solutions(form: ThueForm, rhs: int, x_lo: int, x_hi: int) -> list[tuple[int, int]]:
    # degree 1: y + c1 x = rhs has one solution for each x, two per |x|
    if 2 * (x_hi - x_lo + 1) > _CANDIDATE_BUDGET:
        raise DomainError(f"a linear form would list more than {_CANDIDATE_BUDGET} solutions")
    c1 = form.coeffs[1]
    return [(x, rhs - c1 * x) for a in range(x_lo, x_hi + 1) for x in (a, -a)]


def _scan_convergents(
    ctx: _FormContext, k: int, x_small: int, x_mid: int
) -> tuple[tuple[tuple[int, int, int], ...], dict]:
    """(x, y, F(x, y)) for every solution of F = +-k at x = lam q, y = lam p,
    x_small < x <= x_mid, for a convergent p/q of a root and lam >= 1.

    F(lam q, lam p) = lam^m F(q, p), so lam <= lam_max =
    min(x_mid // q, floor(k^(1/m))).  F(q, p) is evaluated exactly only
    when lam_max q > x_small and the O(1) bound of its root does not
    prove |F(q, p)| > k (log2_lower_bound >= bitlength(k) > log2 k).
    """
    m = ctx.form.degree
    convs = ctx.convergents(x_mid)
    lam_cap = integer_nth_root(k, m)
    out = []
    info = {"roots": m, "convergents": len(convs),
            "skipped_multiplier": 0, "skipped_bound": 0, "evaluated": 0}
    for pnum, q, i in convs:
        if min(x_mid // q, lam_cap) * q <= x_small:
            info["skipped_multiplier"] += 1
            continue
        bound = ctx.log2_lower_bound(pnum, q, i)
        if bound is not None and bound >= k.bit_length():
            info["skipped_bound"] += 1
            continue
        info["evaluated"] += 1
        base = evaluate(ctx.form, q, pnum)
        if base == 0:
            continue
        for target in (k, -k):
            quot, rem = divmod(target, base)
            lam = None if rem else perfect_power_root(quot, m)  # None for quot <= 0
            if lam is not None and x_small < lam * q <= x_mid:
                out.append((lam * q, lam * pnum, target))
    return tuple(out), info


def solve_bounded(form: ThueForm, rhs: int, x_small: int, x_mid: int) -> ThueSolutions:
    """All solutions with |x| <= x_small (exhaustive) plus all with
    x_small < |x| <= x_mid lying on continued-fraction convergents of the
    real roots of F(1, t).  Results are deterministic and sorted.

    certificate["exhaustive"] holds the scan's work counts: the window
    radius floor(|rhs|^(1/m)), the (x, y) pairs scanned and the
    solutions of F = +-|rhs| it confirmed (shared by rhs and -rhs);
    certificate["midsize"] counts the roots, their convergents, the two
    skips and the exact evaluations.
    """
    if rhs == 0:
        raise DomainError("rhs must be nonzero")
    if not 0 <= x_small <= x_mid:
        raise DomainError("need 0 <= x_small <= x_mid")
    m = form.degree
    ctx = form._context
    found, info = ctx.run(_scan_exhaustive, abs(rhs), x_small)
    cert = {
        "x_small": x_small,
        "x_mid": x_mid,
        "method": "exhaustive scan + convergent pruning (Thue gap criterion)",
        "exhaustive": dict(info),
    }
    sols = set()
    if x_mid > x_small:
        if m == 1:
            sols.update(_linear_solutions(form, rhs, x_small + 1, x_mid))
            cert["midsize"] = "linear form solved directly"
        else:
            more, info = ctx.run(_scan_convergents, abs(rhs), x_small, x_mid)
            found += more
            cert["midsize"] = dict(info)
    for x, y, v in found:
        if v == rhs:
            sols.add((x, y))
        if (-1) ** m * v == rhs:
            sols.add((-x, -y))
    return ThueSolutions(form.name, rhs, tuple(sorted(sols)), cert)


# ---------------------------------------------------------------------------
# Solution catalogs (literature-backed tables for F_{d-1} = +-ell)
# ---------------------------------------------------------------------------


def catalog_rows() -> list[dict]:
    """All catalog rows: {d, D, solutions, grh, source}."""
    return catalog.load("thue_tables.json")["rows"]


def catalog_lookup(d: int, D: int) -> dict | None:
    for row in catalog_rows():
        if row["d"] == d and row["D"] == D:
            return row
    return None
