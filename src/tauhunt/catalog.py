"""The shipped JSON catalogs and the one check of a catalog against a
bounded search.

Both catalogs (Thue solutions, curve points) are read from the package
data through load, once per process.  Each is one list of rows of one
shape, and entry is their one lookup.  The Lucas defects are computed,
not catalogued (lucas.classify_defects).
"""

from __future__ import annotations

import json
from functools import lru_cache
from operator import itemgetter
from pathlib import Path

__all__ = ["load", "entry", "clip", "compare"]


@lru_cache(maxsize=None)
def load(name: str) -> dict:
    """The parsed catalog file `name`, e.g. "thue_tables.json"."""
    return json.loads(Path(__file__).with_name("data").joinpath(name).read_bytes())


def entry(name: str, **key) -> dict | None:
    """{points, status} of the row of catalog `name` whose fields equal
    key, e.g. entry("thue_tables.json", d=7, D=13), or None if no row
    matches."""
    fields = itemgetter(*key)
    want = fields(key)
    for row in load(name)["rows"]:
        if fields(row) == want:
            return {"points": [list(p) for p in row["points"]], "status": row["status"]}
    return None


def clip(points, bound: int, unsigned_x: bool) -> list[list[int]]:
    """The distinct points with |x| <= bound, sorted; x is replaced by
    |x| when unsigned_x (catalogs that list |x| only)."""
    return [list(p) for p in sorted(
        {(abs(x) if unsigned_x else x, y) for x, y in points if abs(x) <= bound}
    )]


def compare(listed, found, bound: int, unsigned_x: bool) -> dict | None:
    """None when the catalog and the search agree on every point with
    |x| <= bound, else a discrepancy record holding both clipped sets.

    A search only covers its bound, so points beyond it on either side
    are not compared.
    """
    want = clip(listed, bound, unsigned_x)
    got = clip(found, bound, unsigned_x)
    if want == got:
        return None
    return {"bound": bound, "listed": want, "found": got}
