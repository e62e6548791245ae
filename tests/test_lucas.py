import json
import math
import random
import sys
import time
from importlib import resources

import pytest

from oracles import (brute_force_defect_indices, has_primitive_prime_divisor, primitive_part,
                     rank_by_scan)
from tauhunt import lucas as L
from tauhunt.arith import DomainError, primes_up_to


def load_table():
    return json.loads(resources.files("tauhunt.data").joinpath("defect_tables.json").read_text())


def random_modularity_pair(rng):
    while True:
        p = rng.choice(primes_up_to(20))
        e = rng.choice((1, 3, 5))
        B = p**e
        amax = math.isqrt(4 * B)
        a = rng.randint(1, max(1, amax)) * rng.choice((1, -1))
        if a != 0 and math.gcd(a, B) == 1 and a * a not in (B, 2 * B, 3 * B, 4 * B):
            return L.LucasPair(a, B)


def test_terms_basic():
    pair = L.LucasPair(1, 2)
    assert L.lucas_terms(pair, 7) == [1, 1, -1, -3, -1, 5, 7]
    assert L.lucas_terms(pair, 8)[7] == -3
    assert L.lucas_terms(L.LucasPair(5, 7), 1) == [1]


def test_terms_digit_limit():
    # u_28569 of (1, 2) has 4,300 digits, the default str() limit, and
    # u_28570 is the first term past it
    assert sys.get_int_max_str_digits() == 4300
    terms = L.lucas_terms(L.LucasPair(1, 2), 28569)
    assert len(str(abs(terms[-1]))) == 4300
    with pytest.raises(DomainError, match="u_28570 has more than 4300 digits"):
        L.lucas_terms(L.LucasPair(1, 2), 28570)


def test_pair_validation():
    with pytest.raises(DomainError):
        L.LucasPair(0, 2)
    with pytest.raises(DomainError):
        L.LucasPair(2, 4)       # gcd
    with pytest.raises(DomainError):
        L.LucasPair(2, 1)       # A^2 = 4B degenerate
    with pytest.raises(DomainError):
        L.LucasPair(1, 1)       # A^2 = B degenerate


def test_rank_of_apparition():
    assert L.rank_of_apparition(L.LucasPair(1, 2), 7)[0] == 7
    assert L.rank_of_apparition(L.LucasPair(1, 2), 3)[0] == 4
    # computed by the scan and frozen: first multiple of 5 for (2,3) is u_6 = -10
    assert L.rank_of_apparition(L.LucasPair(2, 3), 5)[0] == 6
    # ell | A gives rank 2
    assert L.rank_of_apparition(L.LucasPair(5, 2), 5)[0] == 2
    rank, reason = L.rank_of_apparition(L.LucasPair(2, 27), 3)
    assert rank is None and "never" in reason
    # and indeed no early term is divisible
    assert all(u % 3 for u in L.lucas_terms(L.LucasPair(2, 27), 30))


def test_rank_matches_scan():
    """The rank from the divisors of ell - (D/ell) equals the first
    index the step-by-step scan finds, for small pairs and ell."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    odd_primes = primes_up_to(3000)[1:]

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.integers(-60, 60), st.integers(-60, 60), st.sampled_from(odd_primes))
    def same(a, b, ell):
        try:
            pair = L.LucasPair(a, b)
        except DomainError:
            hypothesis.reject()
        assert L.rank_of_apparition(pair, ell)[0] == rank_by_scan(pair, ell), (a, b, ell)

    same()


def test_rank_of_19_digit_ell_fast():
    # the scan would step about 10^18 times; the divisors of ell - 1 take
    # a handful of powerings
    ell = 1000000000000000003
    start = time.perf_counter()
    rank, _ = L.rank_of_apparition(L.LucasPair(1, 2), ell)
    assert time.perf_counter() - start < 1
    assert rank == 333333333333333334 and (ell - 1) % rank == 0


def prop_b_holds(pair, ell, rank):
    """With rank > 2: ell | (A^2 - 4B) forces rank = ell, otherwise
    rank | (ell - 1) or rank | (ell + 1)."""
    if pair.discriminant % ell == 0:
        return rank == ell
    return (ell - 1) % rank == 0 or (ell + 1) % rank == 0


def test_prop_b_cases():
    pair = L.LucasPair(1, 2)   # D = -7
    # order case: 3 does not divide D, and the rank 4 divides 3 + 1
    rank, _ = L.rank_of_apparition(pair, 3)
    assert rank == 4 and pair.discriminant % 3 != 0 and prop_b_holds(pair, 3, rank)
    # discriminant case: ell | A^2 - 4B forces rank ell
    rank, _ = L.rank_of_apparition(pair, 7)
    assert rank == 7 and pair.discriminant % 7 == 0 and prop_b_holds(pair, 7, rank)


def test_prop_b_randomized():
    rng = random.Random(41)
    checked = 0
    while checked < 300:
        pair = random_modularity_pair(rng)
        ell = rng.choice([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47])
        if pair.B % ell == 0:
            continue
        rank, _ = L.rank_of_apparition(pair, ell)
        if rank is None or rank <= 2:
            continue
        assert prop_b_holds(pair, ell, rank), (pair, ell)
        checked += 1


def test_divisibility_property():
    rng = random.Random(17)
    for _ in range(60):
        pair = random_modularity_pair(rng)
        terms = L.lucas_terms(pair, 40)
        for n in range(2, 41):
            for d in range(2, n):
                if n % d == 0:
                    assert terms[n - 1] % terms[d - 1] == 0


def test_primitive_divisors_basic():
    pair = L.LucasPair(1, 2)
    assert not has_primitive_prime_divisor(pair, 5)   # u_5 = -1
    assert not has_primitive_prime_divisor(pair, 7)   # u_7 = 7 divides D = -7
    assert has_primitive_prime_divisor(pair, 6)       # u_6 = 5
    assert brute_force_defect_indices(pair) == [3, 5, 7, 8, 12, 13, 18, 30]


def test_bhv_bound_property():
    # every term with 30 < n <= 40 has a primitive prime divisor
    rng = random.Random(23)
    for _ in range(200):
        pair = random_modularity_pair(rng)
        terms = L.lucas_terms(pair, 40)
        for n in range(31, 41):
            assert primitive_part(pair, n, terms) > 1, (pair, n)


def test_sporadic_values_match_recomputation():
    table = load_table()
    for row in table["sporadic"]:
        pair = L.LucasPair(row["A"], row["B"])
        terms = L.lucas_terms(pair, 30)
        for n, v in row["defects"]:
            assert terms[n - 1] == v, (row["A"], row["B"], n)
        # sign flip: u_n(-A, B) = (-1)^(n-1) u_n(A, B)
        neg = L.lucas_terms(L.LucasPair(-row["A"], row["B"]), 30)
        for n, v in row["defects"]:
            assert neg[n - 1] == (-1) ** (n - 1) * v


def test_classification_examples():
    assert [(d["n"], d["value"]) for d in L.classify_defects(L.LucasPair(3, 8))] == [(3, 1)]
    assert [(d["n"], d["value"]) for d in L.classify_defects(L.LucasPair(-3, 8))] == [(3, 1)]
    assert [(d["n"], d["source"], d["value"]) for d in L.classify_defects(L.LucasPair(2, 5))] == [
        (3, "P1", -1)
    ]
    # (7, 27): A^2 - 3B = -32 = (-2)^5, a defective u_6 family member
    recs = L.classify_defects(L.LucasPair(7, 27))
    assert [(d["n"], d["source"]) for d in recs] == [(6, "B4")]
    assert recs[0]["value"] == -4928
    assert brute_force_defect_indices(L.LucasPair(7, 27)) == [6]
    # B1 instance: 16 = 13 + 3
    assert [(d["n"], d["source"]) for d in L.classify_defects(L.LucasPair(4, 13))] == [(3, "B1")]


def test_no_defects_case():
    pair = L.LucasPair(2, 27)
    assert L.classify_defects(pair) == []
    assert brute_force_defect_indices(pair) == []


def test_weight2_exclusions_are_pinned():
    """The published family constraints (m > 1, m > 2 even, r >= 1) exclude
    a handful of exponent-1 (weight-2) pairs whose terms are genuinely
    defective.  Pin them: the discrepancy set must be exactly these, so a
    transcription slip elsewhere still fails."""
    known = {
        (1, 2): [3], (-1, 2): [3],       # p = m^2 + 1 with m = 1
        (2, 3): [4], (-2, 3): [4],       # A^2 = 2B + 2eps with m = 2
        (1, 3): [6], (-1, 3): [6],       # (r, m) = (1, 1) exclusion
        (5, 7): [6], (-5, 7): [6],       # Phi_6 = 4, below the r >= 1 range
        (7, 17): [6], (-7, 17): [6],     # Phi_6 = -2
        (11, 41): [6], (-11, 41): [6],   # Phi_6 = -2
    }
    diffs = {}
    for p in primes_up_to(50):
        amax = math.isqrt(4 * p)
        for a in range(-amax, amax + 1):
            if a == 0 or math.gcd(a, p) != 1 or a * a in (p, 2 * p, 3 * p, 4 * p):
                continue
            pair = L.LucasPair(a, p)
            brute = brute_force_defect_indices(pair)
            cls = sorted(d["n"] for d in L.classify_defects(pair))
            missing = sorted(set(brute) - set(cls))
            assert not set(cls) - set(brute), (a, p, cls, brute)
            if missing:
                diffs[(a, p)] = missing
    assert diffs == known


def test_parity_of_terms():
    # A even, B odd: u_n odd iff n odd
    for pair in (L.LucasPair(4, 5), L.LucasPair(2, 27), L.LucasPair(-6, 3125)):
        terms = L.lucas_terms(pair, 24)
        for n in range(1, 25):
            assert (terms[n - 1] % 2 == 1) == (n % 2 == 1)


def test_sigma_hat():
    assert L.sigma_hat(10, 49, 2) == 1          # generic sigma_0(3) - 1
    assert L.sigma_hat(10, 49, 1) == 1
    assert L.sigma_hat(3, 8, 2) == 0            # 3 | m + 1
    assert L.sigma_hat(-3, 8, 2) == 0
    assert L.sigma_hat(3, 8, 1) == 1
    assert L.sigma_hat(5, 8, 5) == 2            # 6 | m + 1: sigma_0(6) - 2
    assert L.sigma_hat(5, 8, 2) == 1
    assert L.sigma_hat(7, 27, 3) == -1          # family member: sigma_0(4) - 4
    assert L.sigma_hat(2, 1, 3) == 2            # B < 2 or A = 0: generic
    assert L.sigma_hat(3, 0, 3) == 2
    assert L.sigma_hat(0, 27, 3) == 2
    with pytest.raises(DomainError):
        L.sigma_hat(3, 8, 0)


def test_sigma_hat_counts_divisors():
    # sigma_0(m + 1), read off the factorization, against counting the
    # divisors up to sqrt(m + 1): less 1 on a generic pair, less 4 on the
    # family member (7, 27)
    for m in [*range(1, 400), 719, 5039, 720719]:
        n = m + 1
        count = sum(1 + (d * d != n) for d in range(1, math.isqrt(n) + 1) if n % d == 0)
        assert L.sigma_hat(10, 49, m) == count - 1, m
        assert L.sigma_hat(7, 27, m) == count - 4, m
    assert L.sigma_hat(10, 49, 2**61 - 2) == 1  # 2^61 - 1 is prime


def test_data_dir_override(data_dir, monkeypatch):
    """Edited catalogs reach the defect classifier, the Thue catalog lookup
    and the curve catalog lookup, all through the one loader catalog.load,
    and the shipped ones come back once it is restored."""
    from tauhunt import catalog, curves

    def drop_points(table):  # of Y^2 = X^3 + 3
        for row in table["rows"]:
            if (row["family"], row["w"], row["ell"], row["sign"]) == ("C", 3, 3, 1):
                row["points"] = []

    edits = {
        "defect_tables.json": lambda t: t.update(
            sporadic=[r for r in t["sporadic"] if (r["A"], r["B"]) != (3, 8)]),
        "thue_tables.json": lambda t: t.update(
            rows=[r for r in t["rows"] if (r["d"], r["D"]) != (7, 7)]),
        "curve_tables.json": drop_points,
    }
    for name, edit in edits.items():
        table = json.loads((data_dir / name).read_text())
        edit(table)
        (data_dir / name).write_text(json.dumps(table))
    assert L.classify_defects(L.LucasPair(3, 8)) == []
    assert catalog.entry("thue_tables.json", d=7, D=7) is None
    assert curves.catalog_entry("C", 3, 3, 1)["points"] == []
    monkeypatch.undo()
    assert [d["n"] for d in L.classify_defects(L.LucasPair(3, 8))] == [3]
    assert catalog.entry("thue_tables.json", d=7, D=7) is not None
    assert curves.catalog_entry("C", 3, 3, 1)["points"] == [[1, 2]]
