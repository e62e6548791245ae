import math
import sys

import pytest

from oracles import curve_points, lucas_pell_points
from tauhunt import catalog
from tauhunt import curves as C
from tauhunt.arith import DomainError

_SMALL_PRIMES = [p for p in range(3, 200, 2) if all(p % q for q in range(3, p, 2))]


def test_search_examples():
    spec = C.CurveSpec("C", 3, 3, 1)      # Y^2 = X^3 + 3
    assert C.search_points(spec, 100).points == ((1, 2),)
    spec = C.CurveSpec("C", 7, 7, -1)     # Y^2 = X^7 - 7
    assert C.search_points(spec, 100).points == ((2, 11),)
    spec = C.CurveSpec("H", 3, 11, 1)     # Y^2 = 5 X^6 + 44
    assert C.search_points(spec, 100).points == ((-7, 767), (-1, 7), (1, 7), (7, 767))


def test_curve_spec_fields():
    # lead, exponent, constant and label follow from (family, w, ell, sign, m)
    spec = C.CurveSpec("C", 7, 7, -1)
    assert (spec.lead, spec.exponent, spec.constant, spec.label) == (1, 7, -7, "C-[7,7^1]")
    spec = C.CurveSpec("H", 3, 11, 1, 2)
    assert (spec.lead, spec.exponent, spec.constant, spec.label) == (5, 6, 484, "H+[3,11^2]")
    assert spec.rhs(2) == 5 * 2**6 + 484


@pytest.mark.parametrize("args, message", [
    (("C", 3, 3, 2), "sign must be \\+1 or -1"),
    (("C", 3, 3, 0), "sign must be \\+1 or -1"),
    (("H", 3, 3, -2), "sign must be \\+1 or -1"),
    (("E", 3, 3, 1), "family must be C or H"),
    (("c", 3, 3, 1), "family must be C or H"),
    (("C", 4, 3, 1), "exponent 2k-1 must be odd and >= 3"),
    (("C", 1, 3, 1), "exponent 2k-1 must be odd and >= 3"),
    (("C", -3, 3, 1), "exponent 2k-1 must be odd and >= 3"),
    (("H", 0, 3, 1), "d must be >= 1"),
    (("H", -1, 3, 1), "d must be >= 1"),
    (("C", 3, 2, 1), "ell must be an odd prime"),
    (("C", 3, 9, 1), "ell must be an odd prime"),
    (("H", 1, 1, 1), "ell must be an odd prime"),
    (("H", 1, -3, 1), "ell must be an odd prime"),
    (("C", 3, 3, 1, 0), "m must be >= 1"),
    (("H", 2, 5, -1, -1), "m must be >= 1"),
])
def test_curve_spec_refusals(args, message):
    # Y^2 = X^3 + 6 was once built from sign 2 and labelled C+[3,3^1]
    with pytest.raises(DomainError, match=f"^{message}$"):
        C.CurveSpec(*args)


def test_negative_x_handling():
    spec = C.CurveSpec("C", 3, 17, 1)
    pts = C.search_points(spec, 60).points
    assert (-2, 3) in pts and (-1, 4) in pts and (2, 5) in pts and (52, 375) in pts
    # minus family: rhs < 0 for every x <= 0, nothing emitted there
    spec = C.CurveSpec("C", 3, 7, -1)
    assert all(x > 0 for x, _ in C.search_points(spec, 100).points)


def test_substitution_closure():
    for spec in (
        C.CurveSpec("C", 11, 23, -1),
        C.CurveSpec("C", 3, 73, 1),
        C.CurveSpec("H", 3, 41, -1),
    ):
        for x, y in C.search_points(spec, 3000).points:
            assert spec.rhs(x) == y * y
            assert y >= 0


def test_chunking_determinism(monkeypatch):
    spec = C.CurveSpec("C", 3, 17, 1)
    monkeypatch.setattr(C, "_CHUNK", 1 << 6)
    a = C.search_points(spec, 6000)
    monkeypatch.setattr(C, "_CHUNK", 1 << 14)
    b = C.search_points(spec, 6000)
    assert a.points == b.points


def test_search_matches_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.booleans(), st.integers(1, 11), st.sampled_from(_SMALL_PRIMES),
                      st.sampled_from((1, -1)), st.integers(1, 3), st.integers(0, 3000))
    def agrees(family_c, w, ell, sign, m, x_max):
        # C exponents 2w + 1 = 3..23, H half-exponents 1..11
        spec = (C.CurveSpec("C", 2 * w + 1, ell, sign, m) if family_c
                else C.CurveSpec("H", w, ell, sign, m))
        expected = curve_points(spec.lead, spec.exponent, spec.constant, x_max)
        assert list(C.search_points(spec, x_max).points) == expected

    agrees()


# C-plus curves start the scan at negative x; 3^42 exceeds int64
_TABLE_SPECS = (
    C.CurveSpec("C", 3, 17, 1),
    C.CurveSpec("C", 3, 3, 1, 42),
    C.CurveSpec("C", 5, 17, 1),
    C.CurveSpec("C", 7, 7, -1),
    C.CurveSpec("H", 1, 11, 1),
    C.CurveSpec("H", 1, 5, -1),
    C.CurveSpec("H", 3, 11, 1),
)


def test_residue_tables():
    for spec in _TABLE_SPECS:
        points = curve_points(spec.lead, spec.exponent, spec.constant, 2000)
        assert points
        for m in C._SQUARE_MODULI:
            squares = {y * y % m for y in range(m)}
            table = C._residue_tile(spec, m, m)
            assert 0 <= table < 1 << m
            assert [table >> r & 1 for r in range(m)] == [
                spec.rhs(r) % m in squares for r in range(m)]
            for x, _ in points:
                assert table >> x % m & 1, (spec.label, x, m)
            # the tile repeats T_q to at least the length asked for
            length = 3 * m + 5
            tile = C._residue_tile(spec, m, length)
            assert [tile >> j & 1 for j in range(length)] == [
                spec.rhs(j) % m in squares for j in range(length)]


def test_pair_tiles():
    """Each coprime pair of moduli has one tile: bit j is set iff rhs(j)
    is a square mod every modulus of the pair, for every j below a full
    chunk plus the pair's period, the longest tile a search builds."""
    assert [q for pair in C._SQUARE_PAIRS for q in pair] == list(C._SQUARE_MODULI)
    assert C._SQUARE_PAIRS[-1] == (97,)
    assert all(math.gcd(q, r) == 1 for q, r in C._SQUARE_PAIRS[:-1])
    length = C._CHUNK + max(C._SQUARE_PERIODS)
    for spec in _TABLE_SPECS:
        values = [spec.rhs(j) for j in range(length)]
        for pair, period in zip(C._SQUARE_PAIRS, C._SQUARE_PERIODS):
            assert period == math.prod(pair)
            squares = [(q, {y * y % q for y in range(q)}) for q in pair]
            n = C._CHUNK + period
            bits = bin(C._pair_tile(spec, pair, n))[:1:-1].ljust(n, "0")[:n]  # bits[j] is bit j
            assert bits == "".join("01"[all(v % q in sq for q, sq in squares)]
                                   for v in values[:n]), (spec.label, pair)


def test_residue_tables_built_on_demand(monkeypatch):
    """A tile is built when a chunk first reaches its modulus, once per
    search, in filter order: a curve whose chunks all empty early builds
    only the first tables, and a point in range makes its chunk reach
    every modulus."""
    tile, built = C._residue_tile, []

    def counted(spec, q, length):
        built.append(q)
        return tile(spec, q, length)

    monkeypatch.setattr(C, "_residue_tile", counted)
    n = len(C._SQUARE_MODULI)
    # Y^2 = X^5 - 3 and Y^2 = X^7 + 3^5 have no point with |x| <= 10^5
    for spec in (C.CurveSpec("C", 5, 3, -1), C.CurveSpec("C", 7, 3, 1, 5)):
        for x_max in (100, 10**5):
            built.clear()
            assert C.search_points(spec, x_max).points == ()
            assert 0 < len(built) < n, (spec.label, x_max)
            assert built == list(C._SQUARE_MODULI[:len(built)])
    for spec in _TABLE_SPECS:
        for x_max in (100, 10**5):
            built.clear()
            assert C.search_points(spec, x_max).points
            assert built == list(C._SQUARE_MODULI), (spec.label, x_max)


def _filter_survivors(spec, lo, x_max):
    """How many x in [lo, x_max] have rhs(x) a square mod every modulus."""
    squares = [(m, {y * y % m for y in range(m)}) for m in C._SQUARE_MODULI]
    return sum(all(v % m in sq for m, sq in squares)
               for v in map(spec.rhs, range(lo, x_max + 1)))


def test_bitset_scan_any_chunk(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    specs = st.one_of(
        st.sampled_from(_TABLE_SPECS),
        # C-plus curves start the scan at negative x
        st.tuples(st.integers(1, 11), st.sampled_from(_SMALL_PRIMES), st.integers(1, 3)).map(
            lambda wem: C.CurveSpec("C", 2 * wem[0] + 1, wem[1], 1, wem[2])),
        st.tuples(st.integers(1, 4), st.sampled_from((1, -1))).map(
            lambda ws: C.CurveSpec("C", 2 * ws[0] + 1, 3, ws[1], 42)),
        st.tuples(st.integers(1, 11), st.sampled_from(_SMALL_PRIMES),
                  st.sampled_from((1, -1))).map(lambda wes: C.CurveSpec("H", *wes)),
    )

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(specs, st.integers(1, 300), st.integers(0, 3000))
    def agrees(spec, chunk, x_max):
        monkeypatch.setattr(C, "_CHUNK", chunk)
        search = C.search_points(spec, x_max)
        assert list(search.points) == curve_points(spec.lead, spec.exponent, spec.constant, x_max)
        lo = x_max + 1 - search.certificate["scan"]["values"]
        assert search.certificate["scan"]["survivors"] == _filter_survivors(spec, lo, x_max)

    agrees()


def test_chunk_offsets(monkeypatch):
    # an odd chunk puts every chunk start at a different residue of each modulus
    monkeypatch.setattr(C, "_CHUNK", 97)
    for spec in _TABLE_SPECS:
        expected = curve_points(spec.lead, spec.exponent, spec.constant, 3000)
        assert list(C.search_points(spec, 3000).points) == expected, spec.label


def test_scan_counters_in_certificate():
    for spec, x_max, lo, confirmed in ((C.CurveSpec("C", 3, 3, 1), 100, -2, 1),
                                       (C.CurveSpec("C", 3, 17, 1), 60, -3, 7),
                                       (C.CurveSpec("H", 3, 11, 1), 100, 0, 2)):
        cert = C.search_points(spec, x_max).certificate
        assert cert["moduli_filter"] == list(C._SQUARE_MODULI)
        survivors = _filter_survivors(spec, lo, x_max)
        assert cert["scan"] == {"values": x_max + 1 - lo, "survivors": survivors,
                                "confirmed": confirmed}
        assert confirmed <= survivors < (x_max + 1 - lo) // 4


def test_scan_budget(monkeypatch):
    with pytest.raises(DomainError, match="budget"):
        C.search_points(C.CurveSpec("C", 3, 3, 1), C._SCAN_BUDGET)
    monkeypatch.setattr(C, "_SCAN_BUDGET", 1001)
    C.search_points(C.CurveSpec("C", 3, 3, -1), 1000)   # 1001 values
    monkeypatch.setattr(C, "_SCAN_BUDGET", 1000)
    with pytest.raises(DomainError, match="1001 x values"):
        C.search_points(C.CurveSpec("C", 3, 3, -1), 1000)
    with pytest.raises(DomainError, match="budget"):
        C.verify_tables(10)


def test_digit_limit_refusals():
    # at the default limit of 4300 digits: 3^9012 has 4300, 3^9013 has 4301
    assert sys.get_int_max_str_digits() == 4300
    assert C.CurveSpec("C", 3, 3, 1, 9012).constant == 3**9012
    with pytest.raises(DomainError, match="3\\^9013 has more than 4300 digits"):
        C.CurveSpec("H", 1, 3, -1, 9013)
    # y^2 = x^20001 + 3: 2^20001 has 6021 digits, 3^20001 has 9544 > 2 * 4300
    spec = C.CurveSpec("C", 20001, 3, 1)
    assert C.search_points(spec, 2).points == ((1, 2),)
    with pytest.raises(DomainError, match="more than 8600 digits"):
        C.search_points(spec, 3)
    assert C.search_points(C.CurveSpec("C", 2 * 10**18 + 1, 3, 1), 1).points == ((1, 2),)
    # an exponent too long for a float is compared, not converted
    with pytest.raises(DomainError, match="3\\^1000000000000000000000000000000\\d* has more"):
        C.CurveSpec("C", 3, 3, 1, 10**400)
    with pytest.raises(DomainError, match="more than 8600 digits"):
        C.search_points(C.CurveSpec("C", 2 * 10**400 + 1, 3, 1), 2)


def test_point_set_stability():
    # no new points between the catalog maximum and 10x that range
    spec = C.CurveSpec("C", 5, 11, 1)     # listed max |x| = 5
    assert C.search_points(spec, 50).points == C.search_points(spec, 500).points == ((5, 56),)


def test_verify_tables_smoke():
    rep = C.verify_tables(2000)
    assert rep["all_consistent"]
    assert rep["summary"]["discrepancy"] == 0
    assert rep["summary"]["unknown"] == 2
    # GRH rows flagged, never asserted
    grh_rows = [r for r in rep["rows"] if r["status"] == "conditional-grh"]
    assert len(grh_rows) == rep["summary"]["conditional-grh"] > 0


def test_verify_tables_raised_bound():
    rep = C.verify_tables(1000000)
    assert rep["all_consistent"]
    assert rep["summary"] == {"verified": 310, "conditional-grh": 24, "unknown": 2,
                              "discrepancy": 0}


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


def test_close():
    # the curve closure reads ell, sign, m and w from the spec: it is
    # proven to x_max and carries the catalog row of its curve at m = 1;
    # m > 1 has no row
    from tauhunt.bounds import SearchBounds

    bounds = SearchBounds(x_max=1000, x_small=0, x_mid=0)
    spec = C.CurveSpec("H", 3, 11, 1)
    closure = C.close(spec, bounds)
    assert closure["points"] == C.search_points(spec, 1000).points
    assert closure["proven_to"] == 1000 and closure["source"] == "bounded search on H+[3,11^1]"
    assert closure["row"] == dict(
        C.catalog_entry("H", 3, 11, 1),
        source="integer-point catalog for H+[3,11^1] + bounded search")
    assert C.close(C.CurveSpec("C", 3, 3, 1), bounds)["row"]["points"] == [[1, 2]]
    assert C.close(C.CurveSpec("C", 3, 3, 1, 2), bounds)["row"] is None


def test_ell5_h_row_stands_for_every_w_above_2():
    # Bugeaud-Mignotte-Siksek: Y^2 = 5X^(2w) + 20 has only (+-1, +-5) and
    # Y^2 = 5X^(2w) - 20 no point once w > 2; the w = 3 row answers for
    # every w, and a bounded search agrees on |x|
    for w in range(3, 30, 2):
        for sign, points in ((1, [[1, 5]]), (-1, [])):
            entry = C.catalog_entry("H", w, 5, sign)
            assert entry == {"family": "H", "w": 3, "ell": 5, "sign": sign, "points": points,
                             "status": "known"}, (w, sign)
            found = C.search_points(C.CurveSpec("H", w, 5, sign), 100).points
            assert catalog.judge(entry, found, 100) == ("verified", None, points), (w, sign)


def test_uncovered_curves_have_no_entry():
    # a C curve has an odd exponent w, so no row stands for an even one
    for w in range(2, 16, 2):
        assert C.catalog_entry("C", w, 3, 1) is None
    # the w > 2 rule at ell = 5 does not reach w = 1: Y^2 = 5X^2 + 20 also
    # has (4, 10)
    assert C.catalog_entry("H", 1, 5, 1) is None
    assert (4, 10) in C.search_points(C.CurveSpec("H", 1, 5, 1), 10).points


def test_supplemented_points_are_real():
    # the three points the bounded search added to the published catalogs
    assert 2**5 + 17 == 7 * 7
    assert 2**13 + 89 == 91 * 91
    assert 18**3 + 97 == 77 * 77
    assert C.catalog_entry("C", 5, 17, 1)["points"] == [[-1, 4], [2, 7]]
    assert C.catalog_entry("C", 13, 89, 1)["points"] == [[2, 91]]
    assert C.catalog_entry("C", 3, 97, 1)["points"] == [[18, 77]]


def test_lucas_pell_split():
    assert lucas_pell_points(1, 80) == [1, 4, 11, 29, 76]
    assert lucas_pell_points(-1, 50) == [2, 3, 7, 18, 47]
    assert lucas_pell_points(1, 1) == [1]
    merged = sorted(lucas_pell_points(1, 100) + lucas_pell_points(-1, 100))
    assert merged == [1, 2, 3, 4, 7, 11, 18, 29, 47, 76]
    with pytest.raises(DomainError):
        lucas_pell_points(0, 10)


def test_lucas_pell_matches_recurrence():
    # classical Lucas numbers by recurrence, split by index parity
    ls = [2, 1]
    while ls[-1] + ls[-2] <= 10000:
        ls.append(ls[-1] + ls[-2])
    odd = sorted(v for i, v in enumerate(ls) if i % 2 == 1 and v <= 10000)
    even = sorted(v for i, v in enumerate(ls) if i % 2 == 0 and v <= 10000)
    assert lucas_pell_points(1, 10000) == odd
    assert lucas_pell_points(-1, 10000) == even


def test_perfect_power_lucas_numbers():
    # within range, the only perfect powers among 2,1,3,4,7,11,... are 1 and 4
    from tauhunt.arith import perfect_power_root

    ls = [2, 1]
    while ls[-1] + ls[-2] <= 10**6:
        ls.append(ls[-1] + ls[-2])
    powers = {v for v in ls if any(perfect_power_root(v, e) for e in (2, 3, 5, 7)) or v == 1}
    assert powers == {1, 4}
