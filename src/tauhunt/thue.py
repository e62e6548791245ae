"""The Thue forms Fhat_n and the bounded Thue solver.

For odd n >= 3, Fhat_n(X, Y) = prod_(k=1..m) (Y - 2 cos(2 pi k/n) X),
m = (n - 1)/2, has integer coefficients, n prime or not (Watkins-Zeitlin,
"The minimal polynomial of cos(2 pi/n)", Amer. Math. Monthly 1993).  The
reduction's F_{2m}, the coefficient of T^(2m) in 1/(1 - sqrt(Y) T + X T^2),
has the roots 4 cos^2(pi k/n) = 2 cos(2 pi k/n) + 2 in F(1, t) for
n = 2m + 1, so F_{2m}(X, Y) = Fhat_{2m+1}(X, Y - 2X) for every m >= 1.  A
ThueForm is its n alone, and F_{n-1} = alpha, every Thue condition of the
decision pipeline among them, is solved as Fhat_n(X, Z) = alpha with
Y = Z + 2X (solve_unreduced).

Fhat_n is a Lucas sequence, so a solve never needs the coefficients.  Its
recurrence is G_0 = 1, G_1 = Y + X and G_j = P G_(j-1) - Q G_(j-2) with
P = Y and Q = X^2 (G_m = Fhat_n); let U_j be the Lucas sequence of
(P, Q): U_0 = 0, U_1 = 1, U_(j+1) = P U_j - Q U_(j-1) (P(t) below is the
polynomial F(1, t) instead).  Then G_j = U_(j+1) + X U_j: both sides
satisfy the recurrence (the right one is a sum of two of its solutions),
and they agree at j = 0, U_1 + X U_0 = 1, and at j = 1, U_2 + X U_1 =
Y + X.  So F(x, y) = U_(m+1) + x U_m at P = y, Q = x^2 (evaluate), in
O(log m) products (arith.lucas_ladder); as many mod q give F(1, t) mod q.

The roots of P(t) = F(1, t) are theta_k = 2 cos(2 pi k/n), k = 1 .. m,
and P(2 cos phi) = sin(n phi/2) / sin(phi/2) gives
|P'(theta_k)|^2 = n^2 / (8 (1 - c)^2 (1 + c)) with c = cos(2 pi k/n).
Each root is enclosed at any precision w by integer fixed-point pi
(Machin) and a cosine Taylor series with a proven remainder
(_cos_bounds), O(m) per form; the only polynomial sign is one exact
sign confirming the one rational root, -1 at 3k = n when 3 | n, the one
use of a form's coefficients in a solve.

Each form keeps one context (_FormContext) per x_mid, built on its first
solve to that x_mid: one enclosure of each root at one precision, the
least of 2 bitlength(x_mid) + 64 and its doublings at which every root's
convergents up to x_mid settle.  The scan windows, the convergents, an
integer L_i <= log2 |P'(theta_i)| through the formula above and a lower
bound on sep_i = min_j |theta_i - theta_j| all come from it.

Nearest-root inequality (Tzanakis-de Weger, J. Number Theory 31, 1989).
Let x > 0 and let theta_i be the root nearest y/x.  For j != i,
|y/x - theta_j| >= |theta_i - theta_j| - |y/x - theta_i| and
|y/x - theta_i| <= |y/x - theta_j|, so |y/x - theta_j| >=
|theta_i - theta_j|/2, and F(x, y) = x^m prod (y/x - theta_j) for these
monic, totally real forms gives |F(x, y)| >= x^(m-1) |y - theta_i x|
|P'(theta_i)| / 2^(m-1); it also gives |F(x, y)| >= |y - theta_i x|^m.
So a solution of |F| = k has |y - theta_i x| <= min(k^(1/m), rho_i(x))
with rho_i(x) = 2^(m-1) k / (x^(m-1) 2^L_i) for its nearest root.

Legendre threshold.  For m >= 3 let x0 be the least x >= 1 with
x^(m-2) > floor(2^m k / 2^min(L_i)).  An integer exceeds floor(N)
exactly when it exceeds N, so every x >= x0 has x^(m-2) >
2^m k / 2^L_i >= 2^m k / |P'(theta_i)| for every root, and then
|theta_i - y/x| <= rho_i(x)/x < 1/(2 x^2) for a solution with x >= x0.
Write y/x = p/q in lowest terms, x = lam q with lam >= 1: then
|theta_i - p/q| < 1/(2 q^2), so by Legendre's theorem p/q is a
continued-fraction convergent of theta_i and (x, y) = lam (q, p).  (For
the rational root r, an integer, any p/q != r is at least 1/q away, so
p/q = r/1, its one convergent.)  For m <= 2 the condition on x does
not involve x, and there is no threshold.

solve_bounded is a *bounded verifier* in two phases that meet at
x_e = min(x_small, x0 - 1): an exhaustive scan for |x| <= x_e and the
convergents for x_e < |x| <= x_mid.  When x_small >= x0 - 1 this
finds, by the proof above, every solution with |x| <= x_mid.  When
x_small < x0 - 1 the convergents also stand for (x_small, x0), where
that proof does not reach (the classical gap criterion of Tzanakis-de
Weger Lemma 1.1 / Bilu-Hanrot); the certificate shows x0 and x_e.
Degree 2 has no threshold and is scanned to x_e = x_mid; the linear
form Fhat_3 is refused, as its solutions form a line.  A convergent
p/q gives only the solutions (lam q, lam p) with lam^m |F(q, p)| = k,
so each (p, q) is judged once, however many roots share it, and F(q, p)
is evaluated exactly only when some lam q can lie in (x_e, x_mid] and
the bound
|F(q, p)| >= delta q^(m-1) |P'(theta_i)| (1 - delta/(q sep_i))^(m-1),
delta = |p - theta_i q|, does not already show |F(q, p)| > k for any
root theta_i that has p/q as a convergent.  It costs O(1) per root and
takes delta from the context's enclosure of theta_i, which at under
32 w units of 2^-w < 2^-64 / x_mid^2 is far narrower than 1/q^2 for
every q <= x_mid.

The exhaustive scan runs on Python integers.  For each x it takes only
the integers within min(k^(1/m), rho_i(x)) of x times an enclosure, the
bound on rho_i(x) one exact integer quotient; rho_i(x) falls below 1
within a few x once m is large.  Each candidate is confirmed in
big-integer arithmetic.  When the scan's bound on its candidates
exceeds a small prime q, an index of F(1, t) mod q by value, built
before the first x, leaves only the y in the residue classes a solution
can lie in.  Before its first x the scan counts its work, x_e root
steps per root (one quotient and one window per x, and one more per
512 bits of the quotient's numerator) and the bound m x_e (2r + 3) on
its candidates, r = floor(k^(1/m)), and is refused when either count
is over its cap (_SCAN_ROOT_STEPS, _SCAN_CANDIDATES, each under about
60 s at its measured rate).  Each phase runs once for both F = k and
F = -k.  Every result carries its bound certificate.
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import cached_property, lru_cache

from . import catalog
from .arith import (
    DomainError,
    continued_fraction_convergents,
    frozen_record,
    integer_nth_root,
    lucas_ladder,
    perfect_power_root,
    sign_at,
)

__all__ = [
    "ThueForm",
    "build_reduced_form",
    "evaluate",
    "ThueSolutions",
    "solve_bounded",
    "solve_unreduced",
    "unreduced_coeffs",
    "close",
]

# F(1, t) mod q, indexed by value, filters the exhaustive scan's candidates
_TABLE_PRIME = 4093
# y values scanned for one x
_CANDIDATE_BUDGET = 1 << 22
# The exhaustive scan's work, counted before its first x (_scan_exhaustive).
# Root steps: one quotient and one window per root per x, and one more
# per _STEP_BITS bits of the quotient's numerator k << (w + m - 1 - L_i),
# so a short numerator counts 1.  Timed on a 2-vCPU Xeon for m from 3
# to the degree ceiling and numerators of 96 to 30,000 bits, one step
# takes 0.15-3.8 us, the most where the division is longest (m = 1001,
# a 15,364-bit numerator: 116 us a root and x, 31 steps), so the cap is
# under about 55 s.
_SCAN_ROOT_STEPS = 14 * 10**6
_STEP_BITS = 512
# Candidates, the bound m * x_hi * (2r + 3) on the window values:
# 0.2-0.55 ns per unit at m = 2 and 3 (k from 2^40 to 10^18, most of
# them dropped by the residue index), so the cap is under 60 s.
_SCAN_CANDIDATES = 10**11
# The greatest degree a form may have.  At the ceiling a solve at default
# bounds takes about 2 s on a 2-vCPU Xeon, most of it exact evaluations of
# small-q convergents whose O(1) bound gives up: thue-solve --reduced-p
# 15923 (degree 7961) 1.5-1.6 s, admissible --target 15901 1.8-1.9 s.
_MAX_DEGREE = 7962


def _signed_diagonal(n: int, count: int) -> tuple[int, ...]:
    """(-1)^k C(n - k, k) for k < count, each from the last by the ratio
    C(n - k - 1, k + 1) / C(n - k, k) = (n - 2k)(n - 2k - 1) / ((k + 1)(n - k)),
    one exact step with small multipliers per term instead of one binomial."""
    out = [1]
    for k in range(count - 1):
        out.append(-out[-1] * (n - 2 * k) * (n - 2 * k - 1) // ((k + 1) * (n - k)))
    return tuple(out)


@frozen_record
class ThueForm:
    """Fhat_n for an odd n >= 3, of degree m = (n - 1)/2; coeffs[i] is
    the coefficient of X^i Y^(m-i), monic in Y."""

    n: int

    def __post_init__(self):
        if self.n < 3 or self.n % 2 == 0:
            raise DomainError("Fhat_n needs an odd n >= 3")
        if self.degree > _MAX_DEGREE:
            raise DomainError(f"a Thue form of degree {self.degree} is over the degree "
                              f"ceiling of {_MAX_DEGREE}")

    @property
    def degree(self) -> int:
        return (self.n - 1) // 2

    @property
    def name(self) -> str:
        return f"Fhat_{self.n}"

    # cached in the instance __dict__, outside the fields, eq and hash
    @cached_property
    def coeffs(self) -> tuple[int, ...]:
        """Fhat_n = U_(m+1) + X U_m at P = Y, Q = X^2 (module docstring),
        and U_(j+1) = sum (-1)^k C(j - k, k) P^(j-2k) Q^k, so X^2k Y^(m-2k)
        has (-1)^k C(m - k, k) from U_(m+1) and X^(2k+1) Y^(m-2k-1) has
        (-1)^k C(m - 1 - k, k) from X U_m: (-1)^(i//2) C(m - ceil(i/2),
        floor(i/2)) for X^i."""
        m = self.degree
        out = [0] * (m + 1)
        out[0::2] = _signed_diagonal(m, m // 2 + 1)
        out[1::2] = _signed_diagonal(m - 1, (m + 1) // 2)
        return tuple(out)

    def _context(self, x_mid: int) -> _FormContext:
        """The form's one context up to x_mid, built on first use and kept,
        like coeffs, in the instance __dict__."""
        contexts = self.__dict__.setdefault("_contexts", {})
        if x_mid not in contexts:
            contexts[x_mid] = _FormContext(self, x_mid)
        return contexts[x_mid]


@lru_cache(maxsize=None)
def build_reduced_form(n: int) -> ThueForm:
    """Fhat_n with F_{n-1}(X, Y) = Fhat_n(X, Y - 2X), for odd n >= 3."""
    return ThueForm(n)


def unreduced_coeffs(form: ThueForm) -> tuple[int, ...]:
    """The coefficients of F_{n-1}(X, Y) = Fhat_n(X, Y - 2X), as in
    coeffs: F_{2m}, the coefficient of T^(2m) in
    1/(1 - sqrt(Y) T + X T^2), has (-1)^i C(2m - i, i) at X^i."""
    return _signed_diagonal(form.n - 1, form.degree + 1)


def evaluate(form: ThueForm, x: int, y: int) -> int:
    """F(x, y) = U_(m+1) + x U_m at P = y, Q = x^2, exact."""
    u, v = lucas_ladder(form.degree, y, x * x)
    return v + x * u


# ---------------------------------------------------------------------------
# Certified roots of F(1, t)
# ---------------------------------------------------------------------------


# precisions, each twice the last, at which a form's convergents may settle
_REFINEMENTS = 8


def _arctan_inv(x: int, w: int) -> tuple[int, int]:
    """(a, e) with |a - 2^w arctan(1/x)| < e, for an integer x >= 2.

    t_j = floor(2^w / x^(2j+1)) is exact, each step flooring by x^2, and
    floor(t_j / (2j + 1)) lies within 2 of the term 2^w / ((2j + 1) x^(2j+1)).
    The terms alternate and decrease, so those from the first one with
    t_J = 0, which is below 1, sum to less than 1.
    """
    t, total, j = (1 << w) // x, 0, 0
    while t:
        total += -(t // (2 * j + 1)) if j & 1 else t // (2 * j + 1)
        t //= x * x
        j += 1
    return total, 2 * j + 1


def _cos_bounds(n: int, ks, w: int) -> list[tuple[int, int]]:
    """(lo, hi) with lo <= 2^w 2 cos(2 pi k/n) <= hi for each k in ks,
    0 < k < n/2, and w >= 16.

    Machin's formula pi = 16 arctan(1/5) - 4 arctan(1/239) gives P within
    e_pi = 16 e_5 + 4 e_239 units of 2^w pi (_arctan_inv).  The angle is
    folded to phi = pi j/n <= pi/2, cos(2 pi k/n) = +-cos(phi): j = 2k
    when 4k <= n, else j = n - 2k and the sign flips.  X = floor(P j/n)
    is within e_pi/2 + 1 of 2^w phi, and |cos'| <= 1, so cos(y) with
    y = X/2^w is within that of cos(phi).  The Taylor terms
    a_i = 2^w y^(2i)/(2i)! of cos(y) are taken as t_0 = 2^w and
    t_i = floor(t_(i-1) r_i), r_i = y^2/((2i - 1) 2i) exactly; then
    0 <= a_i - t_i < 2 by induction, since a_1 - t_1 < 1 and
    r_i <= y^2/12 < 1/2 for i >= 2 (y < 1.6).  From i = 1 on the terms
    alternate and decrease, so stopping at the first t_J = 0, where
    a_J < 2, leaves a tail below 2.  The sum S of (-1)^i t_i over i < J is
    therefore within 2J + 2 of 2^w cos(y), and within
    E = 2J + 4 + floor(e_pi/2) of 2^w cos(phi), so +-2S +- 2E bound
    2^w 2 cos(2 pi k/n).
    """
    a5, e5 = _arctan_inv(5, w)
    a239, e239 = _arctan_inv(239, w)
    pi, e_pi = 16 * a5 - 4 * a239, 16 * e5 + 4 * e239
    out = []
    for k in ks:
        j, sign = (2 * k, 1) if 4 * k <= n else (n - 2 * k, -1)
        x = pi * j // n
        x2, t, total, i = x * x, 1 << w, 0, 0
        while t:
            total += -t if i & 1 else t
            i += 1
            t = (t * x2 >> 2 * w) // ((2 * i - 1) * 2 * i)
        mid, err = 2 * sign * total, 2 * (2 * i + 4 + e_pi // 2)
        out.append((mid - err, mid + err))
    return out


def real_roots(form: ThueForm, w: int) -> list[tuple[int, int]]:
    """(lo_i, hi_i) with lo_i <= 2^w theta_i <= hi_i for the real roots
    theta_1 < ... < theta_m of F(1, t), at a precision w >= 64, with
    hi_i < lo_(i+1) and hi_i - lo_i < 2^(w/2).

    The roots ascend as theta_k for k = m .. 1, and (lo_i, hi_i) is the
    _cos_bounds enclosure of theta_k.  Checking
    hi_i < lo_(i+1) shows that the m intervals are disjoint, so each
    holds exactly one root.  Each call certifies afresh; a form's context
    keeps the result of its one call.
    """
    roots = _cos_bounds(form.n, range(form.degree, 0, -1), w)
    wide = any(hi - lo >> w // 2 for lo, hi in roots)
    if wide or any(hi >= lo for (_, hi), (lo, _) in zip(roots, roots[1:])):
        raise ArithmeticError("root enclosures too wide or overlapping")  # pragma: no cover
    return roots


def _log2_derivative(n: int, lo: int, hi: int, w: int) -> int:
    """An integer L <= log2 |P'(theta)| for the root theta = 2 cos(phi)
    of the form with this n, from lo <= 2^w 2 cos(phi) <= hi, where
    -2^(w+1) < lo <= hi < 2^(w+1).

    |P'(theta)|^2 = n^2 / (8 (1 - c)^2 (1 + c)) with c = cos(phi), and
    2^(3w) 8 (1 - c)^2 (1 + c) <= d = (2^(w+1) - lo)^2 (2^(w+1) + hi), so
    L = floor(floor(log2(r/d)) / 2) with r = n^2 2^(3w) will do.
    """
    r = n * n << 3 * w
    d = ((2 << w) - lo) ** 2 * ((2 << w) + hi)
    e = r.bit_length() - d.bit_length()  # floor(log2(r/d)) is e or e - 1
    if (r >> e if e >= 0 else r << -e) < d:
        e -= 1
    return e // 2


class _FormContext:
    """What both phases of solve_bounded need of one form up to one x_mid.

    roots[i] = (lo_i, hi_i), ascending, with lo_i <= 2^w theta_i <= hi_i
    at the one precision w (real_roots); log2_deriv[i] = L_i <=
    log2 |P'(theta_i)| (_log2_derivative); seps[i] = S_i with
    1 <= S_i <= 2^w sep_i (inf for degree 1), as 2^w |theta_j - theta_i|
    >= lo_j - hi_i for j > i; convergents holds (p, q, i) for every
    convergent p/q, q <= max(x_mid, 1), of every root theta_i: the one
    rational root, -1 at 3k = n, is its own once an exact sign
    confirms it, and every other root has those its enclosure fixes
    (continued_fraction_convergents).  w starts at 2 bitlength(x_mid) + 64,
    so x_mid < 2^((w - 64)/2), and doubles until every root settles, at
    most _REFINEMENTS precisions in all, or raises ArithmeticError.
    """

    def __init__(self, form: ThueForm, x_mid: int):
        self.form, self.x_mid, m = form, x_mid, form.degree
        if form.n % 3 == 0 and sign_at(form.coeffs[::-1], -1):
            raise ArithmeticError(f"-1 is not a root of {form.name}")  # pragma: no cover
        w = 2 * x_mid.bit_length() + 64
        for _ in range(_REFINEMENTS):
            roots, found = real_roots(form, w), []
            for i, (lo, hi) in enumerate(roots):
                convs = ([(-1, 1)] if 3 * (m - i) == form.n
                         else continued_fraction_convergents(lo, hi, 1 << w, max(x_mid, 1)))
                if convs is None:
                    break
                found.append(convs)
            if len(found) == m:
                break
            w *= 2
        else:
            raise ArithmeticError(f"convergents of {form.name} unsettled below {w} bits")
        self.w, self.roots = w, roots
        self.log2_deriv = [_log2_derivative(form.n, lo, hi, w) for lo, hi in roots]
        gaps = [lo - hi for (_, hi), (lo, _) in zip(roots, roots[1:])]
        self.seps = list(map(min, [math.inf] + gaps, gaps + [math.inf]))
        self.convergents = tuple((p, q, i) for i, convs in enumerate(found) for p, q in convs)
        self._index: dict[int, list[list[int]]] = {}
        self._runs: dict[tuple, tuple] = {}

    def run(self, phase, *args):
        """phase(self, *args), computed once per context for each args."""
        key = (phase, *args)
        if key not in self._runs:
            self._runs[key] = phase(self, *args)
        return self._runs[key]

    def index(self, q: int) -> list[list[int]]:
        """by_value[v]: the t in 0 .. q - 1 with F(1, t) = v (mod q)."""
        if q not in self._index:
            m = self.form.degree
            by_value: list[list[int]] = [[] for _ in range(q)]
            for t in range(q):
                u, v = lucas_ladder(m, t, 1, q)  # F(1, t) = U_(m+1) + U_m at P = t
                by_value[(u + v) % q].append(t)
            self._index[q] = by_value
        return self._index[q]

    def log2_lower_bound(self, p: int, q: int, i: int) -> int | None:
        """An integer b <= log2 |F(q, p)| for q > 0, from the root theta_i,
        or None when the enclosures cannot show p/q away from theta_i.

        With a = p 2^w - hi_i q and b = p 2^w - lo_i q,
        a <= 2^w (p - theta_i q) <= b.  When a and b share a sign, that
        is unless a <= 0 <= b, delta = |p - theta_i q| has
        g <= 2^w delta <= G with g = min(|a|, |b|) >= 1 and
        G = max(|a|, |b|).  For j != i, |p - theta_j q| >=
        q |theta_i - theta_j| - delta >= q |theta_i - theta_j| (1 - e) with
        e = delta / (q sep_i) <= G / (q S_i).  F(q, p) is the product of
        the p - theta_j q and |P'(theta_i)| that of the |theta_i - theta_j|
        over j != i, so |F(q, p)| >= delta q^(m-1) |P'(theta_i)| (1 - e)^(m-1)
        once e < 1, which far = q S_i - G > 0 shows.  Then
        1 - e >= far / (q S_i), and -log2(1 - e) <= e / ((1 - e) ln 2) <=
        G / (far ln 2) < 3 G / (2 far) as 1/ln 2 < 3/2.  With
        log2 delta >= bitlength(g) - 1 - w, log2 q >= bitlength(q) - 1 and
        log2 |P'(theta_i)| >= L_i, b = bitlength(g) - 1 - w +
        (m - 1) (bitlength(q) - 1) + L_i - ceil(3 (m - 1) G / (2 far)).
        """
        lo, hi = self.roots[i]
        a, b = (p << self.w) - hi * q, (p << self.w) - lo * q
        if a <= 0 <= b:
            return None
        g, big = sorted((abs(a), abs(b)))
        far = self.seps[i] * q - big
        if far <= 0:
            return None
        m = len(self.roots)
        loss = -(-3 * (m - 1) * big // (2 * far))  # ceil
        return (g.bit_length() - 1 - self.w + (m - 1) * (q.bit_length() - 1)
                + self.log2_deriv[i] - loss)


# ---------------------------------------------------------------------------
# Bounded solving
# ---------------------------------------------------------------------------


@frozen_record
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


def _legendre_threshold(ctx: _FormContext, k: int) -> int | None:
    """x0, the least x >= 1 with x^(m-2) > floor(2^m k / 2^min(L_i)), for
    a form of degree m >= 3; None for m <= 2.  Every solution of F = +-k
    with x >= x0 lies on a convergent (the module docstring proves it)."""
    m = ctx.form.degree
    if m <= 2:
        return None
    e = m - min(ctx.log2_deriv)
    return integer_nth_root(k << e if e >= 0 else k >> -e, m - 2) + 1


def _merged(spans) -> list[list[int]]:
    """The [a, b] of spans (a <= b), sorted and merged where they overlap
    or touch."""
    out: list[list[int]] = []
    for a, b in sorted(spans):
        if out and a <= out[-1][1] + 1:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return out


def _in_residues(windows, residues: set[int], q: int):
    """The y of the windows with y mod q in residues: a window wider than
    the residues steps through them, a narrower one tests each y."""
    for a, b in windows:
        if b - a < len(residues):
            yield from (y for y in range(a, b + 1) if y % q in residues)
        else:
            for t in residues:
                yield from range(a + (t - a) % q, b + 1, q)


def _scan_exhaustive(
    ctx: _FormContext, k: int, x_hi: int
) -> tuple[tuple[tuple[int, int, int], ...], dict]:
    """(x, y, F(x, y)) for every solution of F = +-k with 0 <= x <= x_hi.

    Solutions with x < 0 follow from F(-x, -y) = (-1)^deg F(x, y); x = 0
    is solved directly.  For x > 0 the window of the root theta_i, with
    lo_i <= 2^w theta_i <= hi_i (_FormContext), holds the integers y with
    |y - theta_i x| <= min(k^(1/m), rho_i(x)) (module docstring).
    k^(1/m) < r + 1, r = floor(k^(1/m)), gives
    floor(x lo_i / 2^w) - r <= y <= ceil(x hi_i / 2^w) + r; the integer
    quotient U_i = ceil(k 2^(w + m - 1 - L_i) / x^(m-1)) >= 2^w rho_i(x)
    gives ceil((x lo_i - U_i)/2^w) <= y <= floor((x hi_i + U_i)/2^w).
    The windows of one x are merged (_merged), and an x whose windows
    hold more than _CANDIDATE_BUDGET values is refused.  Every window
    value is a candidate, confirmed exactly by evaluate.  Each window
    holds at most 2r + 3 values, as x (hi_i - lo_i) < 2^w: x <= x_mid <
    2^((w - 64)/2) (_FormContext) and hi_i - lo_i < 2^(w/2) (real_roots);
    so m x_hi (2r + 3) bounds the candidates.  When that bound exceeds
    q = _TABLE_PRIME, the value -> t index of F(1, t) mod q
    (_FormContext.index) is built before the first x and filters every
    candidate first: for x prime to q, F(x, y) = x^m F(1, y x^-1)
    (mod q), so F = +-k needs y = x t (mod q) for a t with
    F(1, t) = +-k x^-m (mod q) (_in_residues); an x divisible by q is
    not filtered.  Before its first x the scan counts its work: its root
    steps, x_hi times the sum over the roots of 1 + bitlength(k 2^up) //
    _STEP_BITS (the quotient of each root and x grows with its
    numerator), and the candidate bound.  A count over its cap,
    _SCAN_ROOT_STEPS or _SCAN_CANDIDATES, refuses the scan.  The info dict has the radius r,
    the candidates and the confirmed solutions.
    """
    form = ctx.form
    m = form.degree
    r = integer_nth_root(k, m)
    out = [(0, y, y**m) for y in (-r, r)] if r**m == k else []  # F(0, y) = y^m
    # 2^w rho_i(x) = (k << up) / (x^(m-1) << down), up - down = w + m - 1 - L_i
    rho, w = [], ctx.w
    for (lo, hi), log in zip(ctx.roots, ctx.log2_deriv):
        s = w + m - 1 - log
        rho.append((lo, hi, k << max(s, 0), max(-s, 0)))
    steps = x_hi * sum(1 + num.bit_length() // _STEP_BITS for _, _, num, _ in rho)
    candidates = m * x_hi * (2 * r + 3)
    for count, cap, what in ((steps, _SCAN_ROOT_STEPS, "root steps"),
                             (candidates, _SCAN_CANDIDATES, "candidates")):
        if count > cap:
            raise DomainError(
                f"exhaustive Thue scan of {x_hi} x values and up to {candidates} candidates "
                f"is over the budget: {count} {what}, more than the cap of {cap}")
    q, scanned = _TABLE_PRIME, 0
    index = ctx.index(q) if candidates > q else None
    for x in range(1, x_hi + 1):
        power = x ** (m - 1)
        spans = []
        for root_lo, root_hi, num, down in rho:
            u = -(-num // (power << down))
            lo, hi = x * root_lo, x * root_hi
            a, b = -((u - lo) >> w), (hi + u) >> w
            if a <= b:  # the radius r only narrows a window
                a, b = max(a, (lo >> w) - r), min(b, r - (-hi >> w))
                if a <= b:
                    spans.append((a, b))
        if not spans:
            continue
        windows = _merged(spans)
        width = sum(b - a + 1 for a, b in windows)
        if width > _CANDIDATE_BUDGET:
            raise DomainError(f"exhaustive scan needs more than {_CANDIDATE_BUDGET} y for one x")
        scanned += width
        if index is None or x % q == 0:
            ys = (y for a, b in windows for y in range(a, b + 1))
        else:
            want = k * pow(x, -m, q) % q
            ys = _in_residues(windows, {x * t % q for t in index[want] + index[-want % q]}, q)
        for y in ys:
            v = evaluate(form, x, y)
            if abs(v) == k:
                out.append((x, y, v))
    info = {"window_radius": r, "candidates": scanned, "confirmed": len(out)}
    return tuple(out), info


def _scan_convergents(
    ctx: _FormContext, k: int, x_lo: int
) -> tuple[tuple[tuple[int, int, int], ...], dict]:
    """(x, y, F(x, y)) for every solution of F = +-k at x = lam q, y = lam p,
    x_lo < x <= x_mid, for a convergent p/q of a root and lam >= 1.

    F(lam q, lam p) = lam^m F(q, p), so lam <= lam_max =
    min(x_mid // q, floor(k^(1/m))).  Each distinct (p, q) is judged
    once, however many roots it is a convergent of: the candidates
    depend on (p, q) alone, and the bound of every such root holds.
    F(q, p) is evaluated exactly only when lam_max q > x_lo and no root's
    O(1) bound proves |F(q, p)| > k (log2_lower_bound >= bitlength(k) >
    log2 k).
    """
    m, x_mid = ctx.form.degree, ctx.x_mid
    pairs: defaultdict[tuple[int, int], list[int]] = defaultdict(list)
    for pnum, q, i in ctx.convergents:
        pairs[pnum, q].append(i)
    lam_cap, bits = integer_nth_root(k, m), k.bit_length()
    out = []
    info = {"roots": m, "convergents": len(pairs),
            "skipped_multiplier": 0, "skipped_bound": 0, "evaluated": 0}
    for (pnum, q), roots in pairs.items():
        if min(x_mid // q, lam_cap) * q <= x_lo:
            info["skipped_multiplier"] += 1
            continue
        for i in roots:
            bound = ctx.log2_lower_bound(pnum, q, i)
            if bound is not None and bound >= bits:
                info["skipped_bound"] += 1
                break
        else:
            info["evaluated"] += 1
            base = evaluate(ctx.form, q, pnum)
            if base == 0:
                continue
            for target in (k, -k):
                quot, rem = divmod(target, base)
                lam = None if rem else perfect_power_root(quot, m)  # None for quot <= 0
                if lam is not None and x_lo < lam * q <= x_mid:
                    out.append((lam * q, lam * pnum, target))
    return tuple(out), info


def solve_bounded(form: ThueForm, rhs: int, x_small: int, x_mid: int) -> ThueSolutions:
    """All solutions with |x| <= x_e = min(x_small, x0 - 1) (exhaustive)
    plus all with x_e < |x| <= x_mid lying on continued-fraction
    convergents of the real roots of F(1, t), x0 the Legendre threshold
    (_legendre_threshold; x_e = x_mid for degree 2).  From x0 on every
    solution lies on a convergent, so when x_small >= x0 - 1 every
    solution with |x| <= x_mid is found.  A linear form is refused
    (DomainError) before any work.  Results are deterministic and
    sorted.

    certificate["x0"] is x0 (None for degree 2) and
    certificate["x_exhaustive"] is x_e.  certificate["exhaustive"] holds
    the scan's work counts: the window radius floor(|rhs|^(1/m)), the
    (x, y) pairs scanned and the solutions of F = +-|rhs| it confirmed
    (shared by rhs and -rhs); certificate["midsize"], present when
    x_e < x_mid, counts the roots, their convergents, the two skips and
    the exact evaluations.
    """
    if rhs == 0:
        raise DomainError("rhs must be nonzero")
    if not 0 <= x_small <= x_mid:
        raise DomainError("need 0 <= x_small <= x_mid")
    m, k = form.degree, abs(rhs)
    if m == 1:
        raise DomainError(f"{form.name} is linear: its solutions form a line, not a finite set")
    ctx = form._context(x_mid)
    x0 = _legendre_threshold(ctx, k)
    x_e = x_mid if x0 is None else min(x_small, x0 - 1)
    found, info = ctx.run(_scan_exhaustive, k, x_e)
    cert = {
        "x_small": x_small,
        "x_mid": x_mid,
        "x0": x0,
        "x_exhaustive": x_e,
        "method": "exhaustive scan",
        "exhaustive": dict(info),
    }
    sols = set()
    if x_mid > x_e:
        more, info = ctx.run(_scan_convergents, k, x_e)
        found += more
        cert["method"] += " + convergent pruning (Thue gap criterion)"
        cert["midsize"] = dict(info)
    for x, y, v in found:
        if v == rhs:
            sols.add((x, y))
        if (-1) ** m * v == rhs:
            sols.add((-x, -y))
    return ThueSolutions(form.name, rhs, tuple(sorted(sols)), cert)


def solve_unreduced(form: ThueForm, rhs: int, x_small: int, x_mid: int) -> ThueSolutions:
    """F_{n-1}(x, y) = rhs through the form Fhat_n(X, Z) = F_{n-1}(X, Z + 2X):
    each solution (x, z) of Fhat_n = rhs gives (x, z + 2x), in the same
    sorted order and under the same certificate."""
    res = solve_bounded(form, rhs, x_small, x_mid)
    return ThueSolutions(f"F_{form.n - 1}", rhs,
                         tuple((x, z + 2 * x) for x, z in res.solutions), res.certificate)


def close(form: ThueForm, bounds, rhs: int) -> dict:
    """F_{n-1} = rhs solved to the SearchBounds' x_small and x_mid: its
    points, proven_to, the B with every solution |x| <= B found (x_mid
    once the scan reached x0 - 1 or there is no x0, else x_exhaustive),
    the certificate, the search's source and the catalog row of (n, rhs)
    with the source it then gives, or None."""
    res = solve_unreduced(form, rhs, bounds.x_small, bounds.x_mid)
    cert, source = res.certificate, f"bounded search via reduced form {form.name}"
    x0, x_e = cert["x0"], cert["x_exhaustive"]
    row = catalog.entry("thue_tables.json", d=form.n, D=rhs)
    proven_to = bounds.x_mid if x0 is None or x_e >= x0 - 1 else x_e
    return {"points": res.solutions, "proven_to": proven_to,
            "certificate": dict(cert, note="solved through the reduced form; solutions mapped back"),
            "source": source, "row": row and dict(row, source=source + " + solution catalog")}
