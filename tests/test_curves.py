import pytest

from tauhunt import curves as C
from tauhunt.arith import DomainError


def test_search_examples():
    spec = C.CurveSpec.c_family(3, 3, 1)      # Y^2 = X^3 + 3
    assert C.search_points(spec, 100).points == ((1, 2),)
    spec = C.CurveSpec.c_family(7, 7, -1)     # Y^2 = X^7 - 7
    assert C.search_points(spec, 100).points == ((2, 11),)
    spec = C.CurveSpec.h_family(3, 11, 1)     # Y^2 = 5 X^6 + 44
    assert C.search_points(spec, 100).points == ((-7, 767), (-1, 7), (1, 7), (7, 767))


def test_negative_x_handling():
    spec = C.CurveSpec.c_family(3, 17, 1)
    pts = C.search_points(spec, 60).points
    assert (-2, 3) in pts and (-1, 4) in pts and (2, 5) in pts and (52, 375) in pts
    # minus family: rhs < 0 for every x <= 0, nothing emitted there
    spec = C.CurveSpec.c_family(3, 7, -1)
    assert all(x > 0 for x, _ in C.search_points(spec, 100).points)


def test_substitution_closure():
    for spec in (
        C.CurveSpec.c_family(11, 23, -1),
        C.CurveSpec.c_family(3, 73, 1),
        C.CurveSpec.h_family(3, 41, -1),
    ):
        for x, y in C.search_points(spec, 3000).points:
            assert spec.rhs(x) == y * y
            assert y >= 0


def test_chunking_determinism(monkeypatch):
    spec = C.CurveSpec.c_family(3, 17, 1)
    monkeypatch.setattr(C, "_CHUNK", 1 << 6)
    a = C.search_points(spec, 6000)
    monkeypatch.setattr(C, "_CHUNK", 1 << 14)
    b = C.search_points(spec, 6000)
    assert a.points == b.points


def test_point_set_stability():
    # no new points between the catalog maximum and 10x that range
    spec = C.CurveSpec.c_family(5, 11, 1)     # listed max |x| = 5
    assert C.search_points(spec, 50).points == C.search_points(spec, 500).points == ((5, 56),)


def test_verify_tables_smoke():
    rep = C.verify_tables(2000)
    assert rep["all_consistent"]
    assert rep["summary"]["discrepancy"] == 0
    assert rep["summary"]["unknown"] == 2
    # GRH rows flagged, never asserted
    grh_rows = [r for r in rep["rows"] if r["status"] == "conditional-grh"]
    assert len(grh_rows) == rep["summary"]["conditional-grh"] > 0


def test_open_cells_report_findings():
    rep = C.verify_tables(500)
    open_rows = {r["curve"]: r for r in rep["rows"] if r["status"] == "unknown"}
    assert set(open_rows) == {"H+[7,71^1]", "H-[13,89^1]"}
    # our bounded search finds (1, 17) on Y^2 = 5 X^14 + 284
    assert open_rows["H+[7,71^1]"]["bounded_findings"] == [[1, 17]]


def test_catalog_lookup_helpers():
    assert C.catalog_entry("C", 3, 3, 1)["points"] == [[1, 2]]
    assert C.catalog_entry("C", 11, 691, 1)["points"] == []
    assert C.catalog_entry("C", 11, 691, -1)["points"] == []
    assert C.catalog_entry("C", 9, 3, 1) is None      # exponent 9 not cataloged
    entry = C.catalog_entry("H", 3, 11, 1)
    assert entry["points"] == [[1, 7], [7, 767]] and entry["status"] == "known"
    assert C.catalog_entry("H", 11, 691, -1)["points"] == []
    assert C.catalog_entry("H", 3, 5, 1)["points"] == [[1, 5]]
    assert C.catalog_entry("H", 2, 5, 1)["points"] == [[1, 5], [2, 10]]
    assert C.catalog_entry("H", 7, 5, -1)["points"] == []


def test_supplemented_points_are_real():
    # the three points the bounded search added to the published catalogs
    assert 2**5 + 17 == 7 * 7
    assert 2**13 + 89 == 91 * 91
    assert 18**3 + 97 == 77 * 77
    assert C.catalog_entry("C", 5, 17, 1)["points"] == [[-1, 4], [2, 7]]
    assert C.catalog_entry("C", 13, 89, 1)["points"] == [[2, 91]]
    assert C.catalog_entry("C", 3, 97, 1)["points"] == [[18, 77]]


def test_lucas_pell_split():
    assert C.lucas_pell_points(1, 80) == [1, 4, 11, 29, 76]
    assert C.lucas_pell_points(-1, 50) == [2, 3, 7, 18, 47]
    assert C.lucas_pell_points(1, 1) == [1]
    merged = sorted(C.lucas_pell_points(1, 100) + C.lucas_pell_points(-1, 100))
    assert merged == [1, 2, 3, 4, 7, 11, 18, 29, 47, 76]
    with pytest.raises(DomainError):
        C.lucas_pell_points(0, 10)


def test_lucas_pell_matches_recurrence():
    # classical Lucas numbers by recurrence, split by index parity
    ls = [2, 1]
    while ls[-1] + ls[-2] <= 10000:
        ls.append(ls[-1] + ls[-2])
    odd = sorted(v for i, v in enumerate(ls) if i % 2 == 1 and v <= 10000)
    even = sorted(v for i, v in enumerate(ls) if i % 2 == 0 and v <= 10000)
    assert C.lucas_pell_points(1, 10000) == odd
    assert C.lucas_pell_points(-1, 10000) == even


def test_perfect_power_lucas_numbers():
    # within range, the only perfect powers among 2,1,3,4,7,11,... are 1 and 4
    from tauhunt.arith import perfect_power_root

    ls = [2, 1]
    while ls[-1] + ls[-2] <= 10**6:
        ls.append(ls[-1] + ls[-2])
    powers = {v for v in ls if any(perfect_power_root(v, e) for e in (2, 3, 5, 7)) or v == 1}
    assert powers == {1, 4}
