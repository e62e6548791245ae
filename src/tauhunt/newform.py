"""Exact newform Fourier coefficients.

The discriminant form Delta(z) = q prod (1-q^n)^24 is built in: its
coefficients tau(n), n <= 10^6, are computed exactly from eta^6 (here
eta^k stands for prod (1-q^n)^k), the square of the Jacobi triple
product series eta^3 taken term by term, squared twice more.  Each of
those two squarings reads the series from slot text, fixed-width
base-10^w digits offset to be nonnegative, as one Decimal, which
libmpdec squares with an exact number-theoretic transform; eta^12 stays
slot text between them, and only tau becomes integers.  Arbitrary newforms are
described by a NewformSpec holding weight, level and Hecke eigenvalue
data a_f(p).  eigenvalue(spec, p) gives a_f(p) where its value is
needed: the stored value, or tau(p) for the built-in Delta up to 10^6.
Where only stored values count (lehmer's unit set, dispositions and
Omega branches) spec.ap is read directly, not Delta's tau(p).  At a good
prime a_f(p^m) = U_(m+1) for the Lucas sequence of (a_f(p), p^(w-1)),
w the weight, and general indices follow multiplicativity.
"""

from __future__ import annotations

import decimal
import itertools
import json
from functools import cached_property, lru_cache

from .arith import (
    DomainError,
    factor,
    frozen_record,
    is_prime,
    lucas_ladder,
    prime_power,
    primes_up_to,
)

__all__ = [
    "NewformSpec",
    "delta_expansion",
    "delta_newform",
    "eigenvalue",
    "coeff_prime_power",
    "coeff",
]


# ---------------------------------------------------------------------------
# Dense integer series arithmetic (Kronecker substitution in base 10^w)
# ---------------------------------------------------------------------------

# libmpdec multiplies large operands with an exact number-theoretic
# transform; this context keeps every product exact.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
_BLOCK = 4096  # slots per string join, so no list of n strings is held

# A series of n terms is held as slot text: n slots of w digits, slot i
# counted from the right, reading c_i + 10^v/2 for an offset width
# v <= w.  Every slot is nonnegative, so no carry crosses slots, and the
# Decimal of the text is sum c_i B^i + sum 10^v/2 B^i with B = 10^w.


def _slots(coeffs: list[int]) -> str:
    """The slot text of coeffs whose width and offset width are the digit
    count of 2 max|c_i|."""
    w = len(str(2 * max(map(abs, coeffs))))
    half, fmt = 10**w // 2, f"%0{w}d"
    return "".join("".join([fmt % (c + half) for c in reversed(coeffs[max(hi - _BLOCK, 0) : hi])])
                   for hi in range(len(coeffs), 0, -_BLOCK))


def _extreme(text: str, v: int) -> int:
    """max |c_i| over the slots of text (width and offset width v).  Slots
    of one width sort as text in the order of the numbers they hold, so
    only the largest and the smallest are parsed."""
    hi = lo = text[:v]
    step = _BLOCK * v
    for b in range(0, len(text), step):
        block = [text[i : i + v] for i in range(b, min(b + step, len(text)), v)]
        hi, lo = max(hi, max(block)), min(lo, min(block))
    half = 10**v // 2
    return max(int(hi) - half, half - int(lo))


def _widen(text: str, v: int, w: int) -> str:
    """text with its slots left-padded from width v to width w >= v; the
    offset width stays v."""
    pad, step = "0" * (w - v), _BLOCK * v
    return "".join(pad + pad.join([text[i : i + v] for i in range(b, min(b + step, len(text)), v)])
                   for b in range(0, len(text), step))


def _offset(h: int, w: int, n: int) -> decimal.Decimal:
    """sum_(i<n) h B^i, B = 10^w, by doubling: at 10^5 slots of 33 digits,
    2-7 ms where parsing its text takes 26-36 ms."""
    out, k = decimal.Decimal(h), 1
    for bit in bin(n)[3:]:
        out, k = _EXACT.add(_EXACT.scaleb(out, k * w), out), 2 * k
        if bit == "1":
            out, k = _EXACT.add(_EXACT.scaleb(out, w), h), k + 1
    return out


def _square(text: str, n: int, bound: int) -> str:
    """The square, truncated to bound terms, of the n-term series held by
    text in slots whose width and offset width are v = len(text)/n.

    The product's width and offset width w is the digit count of
    2 n max|c_i|^2, max|c_i| read from the extreme slots, and at least v:
    every product coefficient lies in (-10^w/2, 10^w/2).  text is dropped
    once it is a Decimal, so a caller that passes it as a temporary holds
    no slot text during the product.
    """
    v = len(text) // n
    w = max(v, len(str(2 * n * _extreme(text, v) ** 2)))
    x = _EXACT.subtract(decimal.Decimal(_widen(text, v, w)), _offset(10**v // 2, w, n))
    del text
    m = min(2 * n - 1, bound)
    # shift by 0 under precision m*w keeps the low m*w digits (slots 0..m-1);
    # they read sum d_i B^i mod B^m, and with each slot's offset added they
    # read d_i + B/2 in [0, B), so a second shift drops the carry out of B^m
    keep = decimal.Context(prec=m * w, Emax=decimal.MAX_EMAX)
    low = keep.shift(_EXACT.multiply(x, x), 0)
    del x
    return str(keep.shift(_EXACT.add(low, _offset(10**w // 2, w, m)), 0)).zfill(m * w)


def _ints(text: str, n: int) -> list[int]:
    """The n coefficients held by slot text whose width and offset width
    are w = len(text)/n."""
    w = len(text) // n
    half = 10**w // 2
    return [int(text[i - w : i]) - half for i in range(len(text), 0, -w)]


def _eta6(bound: int) -> list[int]:
    """prod (1-q^n)^6 to bound terms: the square, term by term, of the
    Jacobi series prod (1-q^n)^3 = sum (-1)^k (2k+1) q^(k(k+1)/2)."""
    terms, k = [], 0
    while k * (k + 1) // 2 < bound:
        terms.append((k * (k + 1) // 2, (-1) ** k * (2 * k + 1)))
        k += 1
    out = [0] * bound
    for i, (e, c) in enumerate(terms):
        if 2 * e >= bound:
            break
        out[2 * e] += c * c
        for f, d in terms[i + 1 :]:
            if e + f >= bound:
                break
            out[e + f] += 2 * c * d
    return out


_DELTA_CACHE: list[int] = []
MAX_TAU_BOUND = 10**6  # tau --up-to 10^6: 8-9 s and 178 MiB on a 2-vCPU Xeon


def _tau_list(bound: int) -> list[int]:
    """The cached [tau(1), ..., tau(N)], N >= bound: eta^6 squared to eta^12
    and eta^24 in slot text, shifted by q.  Callers only read it."""
    global _DELTA_CACHE
    if bound > MAX_TAU_BOUND:
        raise DomainError(f"tau is computed only up to n = {MAX_TAU_BOUND}, not {bound}")
    if len(_DELTA_CACHE) < bound:
        # every slot text is passed on as a temporary and dropped by its reader
        _DELTA_CACHE = _ints(_square(_square(_slots(_eta6(bound)), bound, bound), bound, bound),
                             bound)
    return _DELTA_CACHE


def delta_expansion(bound: int) -> tuple[int, ...]:
    """(tau(1), ..., tau(bound)), exactly."""
    if bound < 1:
        raise DomainError("bound must be >= 1")
    return tuple(itertools.islice(_tau_list(bound), bound))


# ---------------------------------------------------------------------------
# Newform data
# ---------------------------------------------------------------------------


@frozen_record
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
    ap: dict[int, int] = {}  # each spec gets its own copy (frozen_record)
    bad_signs: dict[int, int] = {}
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
            # 4 p^(w-1) >= 2^((w-1)(bits(p) - 1) + 2): p^(w-1) is built only when
            # a^2 is at least that long, and then has fewer than twice a^2's bits
            if ((a * a).bit_length() > (self.weight - 1) * (p.bit_length() - 1) + 2
                    and a * a > 4 * p ** (self.weight - 1)):
                raise DomainError(f"a_f({p}) = {a} violates the Deligne bound")
        for p, s in self.bad_signs.items():
            if not is_prime(p) or self.level % p or (self.level // p) % p == 0:
                raise DomainError(f"bad_signs key {p} must be a prime exactly dividing the level")
            if s not in (1, -1):
                raise DomainError("bad_signs values must be +1 or -1")

    # cached in the instance __dict__, outside the fields, eq and hash
    @cached_property
    def odd_eigenvalues(self) -> tuple[int, ...]:
        """The primes p not dividing 2N whose stored a_f(p) is odd; the
        trivial-mod-2 flag asserts there are none."""
        return tuple(p for p, a in sorted(self.ap.items()) if (2 * self.level) % p and a % 2)

    def norm(self, p: int) -> int:
        """p^(w-1), w the weight: the B of the Lucas pair (a_f(p), B) at a
        good prime p (arith.prime_power's digit limit)."""
        return prime_power(p, self.weight - 1)

    @property
    def is_delta(self) -> bool:
        return self.weight == 12 and self.level == 1 and self.name == "delta"

    @classmethod
    def from_json(cls, text: str | bytes) -> "NewformSpec":
        """The spec a JSON object describes: weight and level, the ap and
        bad_signs objects keyed by decimal primes, every number a JSON
        integer (not a bool), trivial_mod2 a JSON bool and name a string.
        Anything else is a DomainError; nothing is coerced."""
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise DomainError(f"the spec is not readable JSON: {exc}") from None
        if not isinstance(data, dict):
            raise DomainError("the spec must be a JSON object")

        def read(key, kind, what, default=None):
            if key not in data and default is None:
                raise DomainError(f"the spec has no {key}")
            value = data.get(key, default)
            if type(value) is not kind:  # bool is a subclass of int
                raise DomainError(f"{key} must be {what}, not {json.dumps(value)}")
            return value

        def table(key):
            out = {}
            for p, v in read(key, dict, "a JSON object", {}).items():
                if not (p.isascii() and p.isdigit()):
                    raise DomainError(f"{key} key {json.dumps(p)} is not a decimal integer")
                if type(v) is not int:
                    raise DomainError(f"{key}[{p}] must be a JSON integer, not {json.dumps(v)}")
                try:
                    out[int(p)] = v
                except ValueError:  # past the int-to-str digit limit, as json.loads refuses
                    raise DomainError(f"{key} key {p[:20]}... has too many digits") from None
            return out

        return cls(
            weight=read("weight", int, "a JSON integer"),
            level=read("level", int, "a JSON integer"),
            ap=table("ap"),
            bad_signs=table("bad_signs"),
            trivial_mod2=read("trivial_mod2", bool, "true or false", False),
            name=read("name", str, "a string", ""),
        )


@lru_cache  # one spec per bound, shared by every caller, which only reads it
def delta_newform(prime_bound: int = 1000) -> NewformSpec:
    """The built-in Delta form, a_f(p) stored for p <= prime_bound."""
    taus = _tau_list(prime_bound)
    ap = {p: taus[p - 1] for p in primes_up_to(prime_bound)}
    return NewformSpec(weight=12, level=1, ap=ap, trivial_mod2=True, name="delta")


def eigenvalue(spec: NewformSpec, p: int) -> int:
    """a_f(p) at a good prime p: the stored value or, for the built-in
    Delta, tau(p) up to MAX_TAU_BOUND."""
    if p in spec.ap:
        return spec.ap[p]
    if spec.is_delta and p <= MAX_TAU_BOUND:
        return _tau_list(p)[p - 1]
    raise DomainError(f"no a_f({p}) stored")


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
            raise DomainError(f"no U({p}) sign stored")
        k = spec.weight // 2
        return spec.bad_signs[p] ** m * prime_power(p, (k - 1) * m)
    a = eigenvalue(spec, p)
    if m == 1:  # U_2 needs no B
        return a
    return lucas_ladder(m, a, spec.norm(p))[1]


def coeff(spec: NewformSpec, n: int) -> int:
    """a_f(n) by multiplicativity, largest prime first: Delta's tau list is built once."""
    if n < 1:
        raise DomainError("n must be >= 1")
    out = 1
    for p, e in reversed(factor(n)):
        out *= coeff_prime_power(spec, p, e)
    return out
