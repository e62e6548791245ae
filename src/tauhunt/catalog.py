"""The shipped JSON catalogs and the one judgement of a catalog row
against a bounded search.

Both catalogs (Thue solutions, curve points) are read from the package
data through load, once per process.  Each is one list of rows of one
shape, and entry is their one lookup.  judge alone reads a row's status
and that an H curve row lists |x| only; admissible (lehmer._verdict) and
verify-tables (curves._verify_row) both take their outcome from it.  The
Lucas defects are computed, not catalogued (lucas.classify_defects).
"""

from __future__ import annotations

import json
from functools import lru_cache
from operator import itemgetter
from pathlib import Path

__all__ = ["load", "entry", "judge"]

# the outcome of a row that a search complete to the row's bound agrees with
_AGREED = {"known": "verified", "grh": "conditional-grh"}


@lru_cache(maxsize=None)
def load(name: str) -> dict:
    """The parsed catalog file `name`, e.g. "thue_tables.json"."""
    return json.loads(Path(__file__).with_name("data").joinpath(name).read_bytes())


def entry(name: str, **key) -> dict | None:
    """The row of catalog `name` whose fields equal key, e.g.
    entry("thue_tables.json", d=7, D=13), or None if no row matches; the
    loaded row itself, which no caller edits."""
    fields = itemgetter(*key)
    want = fields(key)
    for row in load(name)["rows"]:
        if fields(row) == want:
            return row
    return None


def _clip(points, bound: int, unsigned_x: bool) -> list[list[int]]:
    """The distinct points with |x| <= bound, sorted; x is replaced by
    |x| when unsigned_x (catalogs that list |x| only)."""
    return [list(p) for p in sorted(
        {(abs(x) if unsigned_x else x, y) for x, y in points if abs(x) <= bound}
    )]


def judge(row: dict, found, bound: int) -> tuple[str, dict | None, list[list[int]]]:
    """The row's outcome against the points of a search complete to
    |x| <= bound, the mismatch record and the found set clipped to the
    bound.  An open row is never compared ("unknown"); else the points
    with |x| <= bound, on |x| for an H curve row, agree ("verified" for a
    known row, "conditional-grh" for a grh one) or differ ("discrepancy",
    with the record {bound, listed, found} of both clipped sets)."""
    unsigned_x = row.get("family") == "H"
    got = _clip(found, bound, unsigned_x)
    if row["status"] == "open":
        return "unknown", None, got
    want = _clip(row["points"], bound, unsigned_x)
    if want == got:
        return _AGREED[row["status"]], None, got
    return "discrepancy", {"bound": bound, "listed": want, "found": got}, got
