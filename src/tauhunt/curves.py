"""Bounded integer-point search on the curve families Y^2 = f(X).

A curve is its parameters, CurveSpec(family, w, ell, sign, m): family
C is Y^2 = X^w + sign ell^m (the Mordell / superelliptic family, w odd)
and H is Y^2 = 5 X^(2w) + 4 sign ell^m (the Pell-power family), with
w = 2k - 1 for the d = 3 and d = 5 conditions of weight 2k.  The
searcher tests rhs(x) for squareness exactly; residue tables merely
prune candidates before the exact isqrt check.  Per search, the integer
T_q has bit r set iff lead r^e + constant is a square mod q, for q in
64, 63, 65, 11 and the primes 17..97; it is read off by bytes.translate
from the cached bytes of lead r^e mod q.  The moduli are taken two at a
time, in order, into eleven coprime pairs and 97 alone, and each pair
has one tile: T_q & T_r over its period q r, repeated to a chunk's
length plus that period.  The x range is scanned in chunks of 2^14,
each one integer used as a bitset (bit j stands for x = a + j): each
pair's tile, shifted to the chunk's start, is ANDed into it in turn,
and the set bits left are the survivors, the x that pass all 23 moduli.
A chunk stops at the first pair that leaves no bit, and a pair's tile
is built only when a chunk first reaches the pair, so a curve whose
chunks all empty early builds only the first few tables.  A scan of
more than _SCAN_BUDGET x values is refused before it starts, as is an
ell^m or an x_max^e too long to print.  Point catalogs for the
table-covered cases ship as a JSON fixture of rows {family, w, ell,
sign, points, status}; catalog_entry is its one lookup, and lehmer
(handed the row by close) and verify_tables judge it by catalog.judge.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

from . import catalog
from .arith import (
    DomainError,
    frozen_record,
    integer_nth_root,
    is_perfect_square,
    is_prime,
    prime_power,
)

__all__ = [
    "CurveSpec",
    "CurveSearch",
    "search_points",
    "close",
    "catalog_entry",
    "verify_tables",
]

# Square-filter moduli, in the order they are applied.  The first two
# pairs pass 0.2-0.3% of x on C curves.
_SQUARE_MODULI = (64, 63, 65, 11, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
                  73, 79, 83, 89, 97)
# the moduli taken two at a time, in order, 97 alone; each pair is
# coprime, so its one tile has period q r, 4,032 bits for 64 * 63
_SQUARE_PAIRS = tuple(_SQUARE_MODULI[i:i + 2] for i in range(0, len(_SQUARE_MODULI), 2))
_SQUARE_PERIODS = tuple(map(math.prod, _SQUARE_PAIRS))
# x values per bitset of the square filter
_CHUNK = 1 << 14
# x values one search (or one verify_tables run) may scan: 0.16-1.8 ns
# each, 1.0 ns in the median, over the 336 C and H curves of
# verify_tables to x_max = 10^5 (best of 15 each), and 0.6-0.7 ns on
# Y^2 = X^3 +- 3^42 to x_max = 10^6, on a 2-vCPU Xeon; slow phases of
# the host have run about 3 times slower, so the cap is about a minute.
_SCAN_BUDGET = 12 * 10**9


@frozen_record
class CurveSpec:
    """Y^2 = lead * X^exponent + constant: X^w + sign ell^m on family C
    (w odd and >= 3), 5 X^(2w) + 4 sign ell^m on family H (w >= 1), with
    w = 2k - 1 as in the catalog rows; labelled C-[7,7^1] and so on."""

    family: str
    w: int
    ell: int
    sign: int
    m: int = 1

    def __post_init__(self):
        if self.family not in ("C", "H"):
            raise DomainError("family must be C or H")
        if self.sign not in (1, -1):
            raise DomainError("sign must be +1 or -1")
        if self.family == "C" and (self.w < 3 or self.w % 2 == 0):
            raise DomainError("exponent 2k-1 must be odd and >= 3")
        if self.w < 1:
            raise DomainError("d must be >= 1")
        if self.ell < 3 or not is_prime(self.ell):
            raise DomainError("ell must be an odd prime")
        if self.m < 1:
            raise DomainError("m must be >= 1")
        # derived once, here, and kept in the instance __dict__, outside the
        # fields, eq and hash: an ell^m over the digit limit is refused on
        # construction, and rhs reads plain attributes
        h = self.family == "H"
        self.__dict__.update(
            lead=5 if h else 1, exponent=2 * self.w if h else self.w,
            constant=(4 if h else 1) * self.sign * prime_power(self.ell, self.m),
            label=f"{self.family}{'+' if self.sign > 0 else '-'}[{self.w},{self.ell}^{self.m}]")

    def rhs(self, x: int) -> int:
        return self.lead * x**self.exponent + self.constant


@frozen_record
class CurveSearch:
    spec: CurveSpec
    points: tuple[tuple[int, int], ...]  # (x, y) with y >= 0
    certificate: dict

    def to_dict(self) -> dict:
        return {
            "curve": self.spec.label,
            "points": [list(p) for p in self.points],
            "certificate": self.certificate,
        }


def _square_digits(q: int) -> bytes:
    """A bytes.translate table for each shift c < q: byte v < q of
    _square_digits(q)[c:c + 256] is b"1" if v + c is a square mod q and
    b"0" if not."""
    row = bytearray(b"0" * q)
    for y in range(q):
        row[y * y % q] = ord("1")
    return bytes(row * 2) + bytes(256 - q)


_SQUARE_DIGITS = {q: _square_digits(q) for q in _SQUARE_MODULI}


@lru_cache(maxsize=1 << 12)
def _power_bytes(lead: int, e: int, q: int) -> bytes:
    """Byte r is lead r^e mod q, r = 0..q-1."""
    return bytes(lead * pow(r, e, q) % q for r in range(q))


def _repeat(tile: int, width: int, length: int) -> int:
    """A tile of period width repeated by shift-or doubling to at least
    length bits."""
    while width < length:
        tile |= tile << width
        width <<= 1
    return tile


def _residue_tile(spec: CurveSpec, q: int, length: int) -> int:
    """T_q repeated to at least length bits: bit j is set iff
    lead j^e + constant is a square mod q."""
    c = spec.constant % q
    row = _power_bytes(spec.lead, spec.exponent, q).translate(_SQUARE_DIGITS[q][c:c + 256])
    return _repeat(int(row[::-1], 2), q, length)


def _pair_tile(spec: CurveSpec, pair: tuple[int, ...], length: int) -> int:
    """The AND of T_q over the coprime moduli of pair, cut to its period
    L = prod(pair) and repeated to at least length bits: bit j is set iff
    lead j^e + constant is a square mod every q of the pair."""
    period = math.prod(pair)
    tile = (1 << period) - 1
    for q in pair:
        tile &= _residue_tile(spec, q, period)
    return _repeat(tile, period, length)


def _check_digits(spec: CurveSpec, x_max: int) -> None:
    """Refuse a search whose y could have more than the int-to-str digit
    limit: |y|^2 = rhs(x) reaches lead x_max^e.  This also bounds every
    rhs(x) the exact confirmation computes."""
    digits = sys.get_int_max_str_digits()
    if digits and x_max >= 2 and spec.exponent >= 2 * digits / math.log10(x_max):
        raise DomainError(
            f"x^{spec.exponent} at |x| = {x_max} has more than {2 * digits} digits, "
            f"so the y of a point could have more than {digits}"
        )


def _check_scan_budget(values: int) -> None:
    """Refuse, before any work, a scan of more than _SCAN_BUDGET x values."""
    if values > _SCAN_BUDGET:
        raise DomainError(
            f"curve scan of {values} x values is over the budget of {_SCAN_BUDGET} x values")


def search_points(spec: CurveSpec, x_max: int) -> CurveSearch:
    """All integer points with |x| <= x_max, y reported nonnegative.

    Negative x is clipped where rhs < 0 (odd exponents); even exponents
    are scanned on x >= 0 and mirrored.  The x range is scanned in
    chunks of _CHUNK values; the sorted output does not depend on it.
    A chunk starting at a ANDs in the tile of each pair of moduli in
    turn, shifted right by a mod L for the pair's period L, stopping
    early once no bit is left, and every survivor is confirmed exactly.
    The tile of a pair, its T_q ANDed over the period L and repeated to
    the chunk length plus L bits, is built once per search, when the
    first chunk reaches the pair.
    """
    if x_max < 0:
        raise DomainError("x_max must be >= 0")
    _check_digits(spec, x_max)
    even = spec.exponent % 2 == 0
    if even:
        lo = 0
    else:
        # rhs(x) >= 0 needs lead*x^e >= -constant
        if spec.constant >= 0:
            bound = integer_nth_root(spec.constant // abs(spec.lead), spec.exponent) + 1
            lo = -min(x_max, bound)
        else:
            lo = 0  # rhs < 0 for all x <= 0
    values = x_max + 1 - lo
    _check_scan_budget(values)
    span = min(_CHUNK, values)
    tiles: list[int] = []  # tiles[i] for _SQUARE_PAIRS[i], built when a chunk first reaches it
    pts: set[tuple[int, int]] = set()
    survivors = confirmed = 0
    for a in range(lo, x_max + 1, _CHUNK):
        n = min(_CHUNK, x_max + 1 - a)
        mask = (1 << n) - 1  # bit j stands for x = a + j
        for i, period in enumerate(_SQUARE_PERIODS):
            if i == len(tiles):
                tiles.append(_pair_tile(spec, _SQUARE_PAIRS[i], span + period))
            mask &= tiles[i] >> a % period
            if not mask:
                break
        bits = bin(mask)[:1:-1]  # bits[j] is bit j
        j = bits.find("1")
        while j >= 0:
            survivors += 1
            x = a + j
            v = spec.rhs(x)
            y = is_perfect_square(v) if v >= 0 else None
            if y is not None:
                confirmed += 1
                pts.add((x, y))
                if even and x > 0:
                    pts.add((-x, y))
            j = bits.find("1", j + 1)
    cert = {
        "x_max": x_max,
        "moduli_filter": list(_SQUARE_MODULI),
        "scan": {"values": values, "survivors": survivors, "confirmed": confirmed},
    }
    return CurveSearch(spec, tuple(sorted(pts)), cert)


def close(spec: CurveSpec, bounds) -> dict:
    """The curve searched to the SearchBounds' x_max: its points,
    proven_to = x_max, the certificate, the search's source and its
    catalog row with the source it then gives, None for m > 1."""
    search = search_points(spec, bounds.x_max)
    row = None if spec.m > 1 else catalog_entry(spec.family, spec.w, spec.ell, spec.sign)
    return {"points": search.points, "proven_to": bounds.x_max,
            "certificate": dict(search.certificate), "source": f"bounded search on {spec.label}",
            "row": row and dict(
                row, source=f"integer-point catalog for {spec.label} + bounded search")}


# ---------------------------------------------------------------------------
# Catalog fixtures and their verification
# ---------------------------------------------------------------------------


def catalog_entry(family: str, w: int, ell: int, sign: int) -> dict | None:
    """The catalog row of Y^2 = X^w +- ell (family "C") or
    Y^2 = 5X^(2w) +- 4 ell (family "H", points listed as (|x|, |y|)), or
    None if the catalog does not cover the curve.

    At ell = 5 the H row of w = 3 stands for every w > 2: by the
    classification of perfect-power Lucas numbers
    (Bugeaud-Mignotte-Siksek), Y^2 = 5X^(2w) + 20 has only (+-1, +-5)
    and Y^2 = 5X^(2w) - 20 has no point once w > 2."""
    if family == "H" and ell == 5 and w > 2:
        w = 3
    return catalog.entry("curve_tables.json", family=family, w=w, ell=ell, sign=sign)


def _verify_row(row: dict, x_max: int) -> dict:
    """Check every listed point of the catalog row satisfies the
    equation (an H row's |x| stands for both signs, as its exponent 2w is
    even) and take the row's status from catalog.judge against the
    bounded search.  An open row is never compared, only reported with
    our bounded findings."""
    spec = CurveSpec(row["family"], row["w"], row["ell"], row["sign"])
    listed = row["points"]
    problems = [f"listed point ({x}, {y}) fails the equation"
                for x, y in listed if spec.rhs(x) != y * y]
    status, mismatch, found = catalog.judge(row, search_points(spec, x_max).points, x_max)
    if mismatch is not None:
        problems.append(
            f"bounded search found {mismatch['found']}, catalog lists {mismatch['listed']}")
    out = {"curve": spec.label, "listed": len(listed), "found_within_bound": len(found),
           "x_max": x_max, "status": status}
    if status == "unknown":
        out["bounded_findings"] = found
    elif problems:
        out["status"] = "discrepancy"
    out["problems"] = problems
    return out


def verify_tables(x_max: int) -> dict:
    """Replay every catalog row: substitution checks plus bounded search.

    GRH-backed rows come out as conditional-grh, open cells as unknown
    (the bounded findings are still reported); any mismatch is a
    discrepancy entry, never silently dropped.
    """
    table = catalog.load("curve_tables.json")["rows"]
    _check_scan_budget(len(table) * (x_max + 1))
    rows = [_verify_row(row, x_max) for row in table]
    counts = {"verified": 0, "conditional-grh": 0, "unknown": 0, "discrepancy": 0}
    for r in rows:
        counts[r["status"]] += 1
    return {"x_max": x_max, "rows": rows, "summary": counts,
            "all_consistent": counts["discrepancy"] == 0}

