"""Bounded integer-point search on the curve families Y^2 = f(X).

Families: C (Y^2 = X^(2d-1) + eps*ell^m, the Mordell / superelliptic
family), H (Y^2 = 5 X^(2d) + 4 eps ell^m, the Pell-power family), and
the B-curves attached to defective Lucas families.  The searcher tests
rhs(x) for squareness exactly; a vectorized quadratic-residue filter
over a few word-size moduli merely prunes candidates before the exact
isqrt check.  Point catalogs for the table-covered cases ship as a JSON
fixture; catalog_entry is its one lookup, and verify_tables replays
every row through it against a bounded search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import catalog
from .arith import DomainError, integer_nth_root, is_perfect_square, is_prime

__all__ = [
    "CurveSpec",
    "CurveSearch",
    "search_points",
    "catalog_entry",
    "verify_tables",
    "lucas_pell_points",
]

_SQUARE_MODULI = (64, 63, 65, 11)
# x values per numpy pass of the square filter
_CHUNK = 1 << 15


@dataclass(frozen=True)
class CurveSpec:
    """Y^2 = lead * X^exponent + constant."""

    family: str
    lead: int
    exponent: int
    constant: int
    label: str

    def rhs(self, x: int) -> int:
        return self.lead * x**self.exponent + self.constant

    @classmethod
    def c_family(cls, weight_exponent: int, ell: int, sign: int, m: int = 1) -> "CurveSpec":
        """Y^2 = X^(2k-1) + sign * ell^m."""
        if weight_exponent < 3 or weight_exponent % 2 == 0:
            raise DomainError("exponent 2k-1 must be odd and >= 3")
        _check_prime_power(ell, m)
        tag = "+" if sign > 0 else "-"
        return cls("C", 1, weight_exponent, sign * ell**m,
                   f"C{tag}[{weight_exponent},{ell}^{m}]")

    @classmethod
    def h_family(cls, half_exponent: int, ell: int, sign: int, m: int = 1) -> "CurveSpec":
        """Y^2 = 5 X^(2d) + 4 * sign * ell^m."""
        if half_exponent < 1:
            raise DomainError("d must be >= 1")
        _check_prime_power(ell, m)
        tag = "+" if sign > 0 else "-"
        return cls("H", 5, 2 * half_exponent, 4 * sign * ell**m,
                   f"H{tag}[{half_exponent},{ell}^{m}]")


def _check_prime_power(ell: int, m: int) -> None:
    if ell < 3 or not is_prime(ell):
        raise DomainError("ell must be an odd prime")
    if m < 1:
        raise DomainError("m must be >= 1")


@dataclass(frozen=True)
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


@lru_cache(maxsize=None)
def _square_masks():
    import numpy as np

    out = []
    for m in _SQUARE_MODULI:
        mask = np.zeros(m, dtype=bool)
        for r in range(m):
            mask[r * r % m] = True
        out.append((m, mask))
    return out


def _scan_square(spec: CurveSpec, xs) -> list[tuple[int, int]]:
    """Exact points among the given x values (filter + isqrt confirm)."""
    import numpy as np

    keep = np.ones(len(xs), dtype=bool)
    for m, mask in _square_masks():
        xm = np.mod(xs, m)
        # lead * x^e + c mod m by binary powering
        acc = np.ones(len(xs), dtype=np.int64)
        base = xm.astype(np.int64)
        e = spec.exponent
        while e:
            if e & 1:
                acc = (acc * base) % m
            base = (base * base) % m
            e >>= 1
        # reduce the constant first: it may not fit in int64
        val = (acc * (spec.lead % m) + spec.constant % m) % m
        keep &= mask[val]
        if not keep.any():
            return []
    out = []
    for x in xs[keep]:
        x = int(x)
        v = spec.rhs(x)
        if v >= 0:
            y = is_perfect_square(v)
            if y is not None:
                out.append((x, y))
    return out


def search_points(spec: CurveSpec, x_max: int) -> CurveSearch:
    """All integer points with |x| <= x_max, y reported nonnegative.

    Negative x is clipped where rhs < 0 (odd exponents); even exponents
    are scanned on x >= 0 and mirrored.  The x range is scanned in
    chunks of _CHUNK values; the sorted output does not depend on it.
    """
    if x_max < 0:
        raise DomainError("x_max must be >= 0")
    pts: set[tuple[int, int]] = set()
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
    import numpy as np

    for a in range(lo, x_max + 1, _CHUNK):
        xs = np.arange(a, min(a + _CHUNK, x_max + 1), dtype=np.int64)
        for x, y in _scan_square(spec, xs):
            pts.add((x, y))
            if even and x > 0:
                pts.add((-x, y))
    cert = {"x_max": x_max, "moduli_filter": list(_SQUARE_MODULI)}
    return CurveSearch(spec, tuple(sorted(pts)), cert)


# ---------------------------------------------------------------------------
# Catalog fixtures and their verification
# ---------------------------------------------------------------------------


def catalog_entry(family: str, w: int, ell: int, sign: int) -> dict | None:
    """Catalog entry {points, status} for Y^2 = X^w +- ell (family "C")
    or Y^2 = 5X^(2w) +- 4 ell (family "H", points listed as (|x|, |y|)),
    or None if the catalog does not cover the curve."""
    cat = catalog.load("curve_tables.json")
    if ell == 691 and w == 11:
        for row in cat["ell691"]:
            if row["family"] == family and row["sign"] == sign:
                return {"points": [list(p) for p in row["points"]], "status": row["status"]}
    if family == "C":
        pts = cat["mordell_plus" if sign > 0 else "mordell_minus"].get(str(ell), {}).get(
            str((w + 1) // 2))
        return None if pts is None else {"points": [list(p) for p in pts], "status": "known"}
    if ell == 5:
        pts = list(cat["ell5"]["plus" if sign > 0 else "minus"])
        if sign > 0 and w == 2:
            pts += cat["ell5"]["plus_d2_extra"]
        return {"points": pts, "status": "known"}
    for row in cat["pell_power"]:
        if (row["ell"], row["d"], row["sign"]) == (ell, w, sign):
            return {"points": [list(p) for p in row["points"]], "status": row["status"]}
    return None


def _verify_row(family: str, w: int, ell: int, sign: int, x_max: int) -> dict:
    """Check every listed point of the catalog entry satisfies the
    equation and the bounded search finds nothing else.  Rows the source
    leaves open are never compared, only reported with our bounded
    findings."""
    spec = (CurveSpec.c_family if family == "C" else CurveSpec.h_family)(w, ell, sign)
    entry = catalog_entry(family, w, ell, sign)
    listed, status, unsigned_x = entry["points"], entry["status"], family == "H"
    problems = []
    for x, y in listed:
        xs = (x, -x) if unsigned_x else (x,)
        if not any(spec.rhs(xx) == y * y for xx in xs):
            problems.append(f"listed point ({x}, {y}) fails the equation")
    found = search_points(spec, x_max).points
    found_keys = catalog.clip(found, x_max, unsigned_x)
    out = {
        "curve": spec.label,
        "listed": len(listed),
        "found_within_bound": len(found_keys),
        "x_max": x_max,
    }
    if status == "open":
        out["status"] = "unknown"
        out["bounded_findings"] = found_keys
        out["problems"] = problems
        return out
    mismatch = catalog.compare(listed, found, x_max, unsigned_x)
    if mismatch is not None:
        problems.append(
            f"bounded search found {mismatch['found']}, catalog lists {mismatch['listed']}"
        )
    out_status = {"known": "verified", "grh": "conditional-grh"}[status]
    out["status"] = out_status if not problems else "discrepancy"
    out["problems"] = problems
    return out


def verify_tables(x_max: int = 100000) -> dict:
    """Replay every catalog row: substitution checks plus bounded search.

    GRH-backed rows come out as conditional-grh, open cells as unknown
    (the bounded findings are still reported); any mismatch is a
    discrepancy entry, never silently dropped.
    """
    cat = catalog.load("curve_tables.json")
    keys = [
        ("C", 2 * int(d_s) - 1, int(ell_s), sign)
        for sign, table in ((1, "mordell_plus"), (-1, "mordell_minus"))
        for ell_s, per_d in sorted(cat[table].items(), key=lambda kv: int(kv[0]))
        for d_s in sorted(per_d, key=int)
    ]
    keys += [("H", row["d"], row["ell"], row["sign"]) for row in cat["pell_power"]]
    keys += [("H", d, 5, sign) for d in (2, 3, 5, 7, 11, 13) for sign in (1, -1)]
    keys += [(row["family"], 11, 691, row["sign"]) for row in cat["ell691"]]
    rows = [_verify_row(*key, x_max) for key in keys]
    counts = {"verified": 0, "conditional-grh": 0, "unknown": 0, "discrepancy": 0}
    for r in rows:
        counts[r["status"]] += 1
    return {"x_max": x_max, "rows": rows, "summary": counts,
            "all_consistent": counts["discrepancy"] == 0}


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
        if is_perfect_square(5 * x * x + 20 * sign) is not None:
            out.append(x)
    return out
