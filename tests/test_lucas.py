import json
import math
import random
import sys
import time

import pytest

from oracles import (brute_force_defect_indices, has_primitive_prime_divisor,
                     nonunit_cyclotomic_count, primitive_part, rank_by_scan)
from tauhunt import lucas as L
from tauhunt.arith import DomainError, primes_up_to


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


def test_classification_examples():
    examples = {
        (3, 8): [(3, 1)],
        (-3, 8): [(3, 1)],
        (2, 5): [(3, -1)],          # B = A^2 + 1: u_3 = -1
        (7, 27): [(6, -4928)],      # Phi_6 = A^2 - 3B = -32 = (-2)^5
        (4, 13): [(3, 3)],          # Phi_3 = A^2 - B = 3
        (1, 2): [(3, -1), (5, -1), (7, 7), (8, -3), (12, 45), (13, -1), (18, 85), (30, -24475)],
        (5, 7): [(6, 360), (10, -3725)],
        (-5, 7): [(6, -360), (10, 3725)],  # u_n(-A, B) = (-1)^(n-1) u_n(A, B)
    }
    for (a, b), want in examples.items():
        pair = L.LucasPair(a, b)
        recs = L.classify_defects(pair)
        assert all(set(d) == {"n", "value"} for d in recs)
        assert [(d["n"], d["value"]) for d in recs] == want, (a, b)
        assert [n for n, _ in want] == brute_force_defect_indices(pair), (a, b)


def test_no_defects_case():
    pair = L.LucasPair(2, 27)
    assert L.classify_defects(pair) == []
    assert brute_force_defect_indices(pair) == []


def test_weight2_defects_match_brute_force():
    """On every exponent-1 (weight-2) pair with p < 50 the computed
    defects are the primitive-divisor brute force's, values included:
    among them the u_3 of (1, 2) and the u_6 of (5, 7) that the published
    family constraints leave out."""
    for p in primes_up_to(50):
        amax = math.isqrt(4 * p)
        for a in range(-amax, amax + 1):
            if a == 0 or math.gcd(a, p) != 1 or a * a in (p, 2 * p, 3 * p, 4 * p):
                continue
            pair = L.LucasPair(a, p)
            terms = L.lucas_terms(pair, 30)
            want = [(n, terms[n - 1]) for n in brute_force_defect_indices(pair)]
            assert [(d["n"], d["value"]) for d in L.classify_defects(pair)] == want, (a, p)


def test_parity_of_terms():
    # A even, B odd: u_n odd iff n odd
    for pair in (L.LucasPair(4, 5), L.LucasPair(2, 27), L.LucasPair(-6, 3125)):
        terms = L.lucas_terms(pair, 24)
        for n in range(1, 25):
            assert (terms[n - 1] % 2 == 1) == (n % 2 == 1)


def test_sigma_hat():
    # each against the oracle's count of the d | m + 1, d >= 2, with
    # |Phi_d| != 1, from the cyclotomic polynomials themselves
    cases = {
        (10, 49, 2): 1,   # Phi_3 = 51
        (10, 49, 1): 1,   # Phi_2 = A = 10
        (3, 8, 2): 0,     # Phi_3 = 9 - 8 = 1
        (-3, 8, 2): 0,
        (3, 8, 1): 1,
        (5, 8, 5): 2,     # Phi_2 = 5, Phi_3 = 17, Phi_6 = 25 - 24 = 1
        (5, 8, 2): 1,
        (7, 27, 3): 2,    # Phi_2 = 7, Phi_4 = 49 - 54 = -5
        (1, 27, 3): 1,    # Phi_2 = 1, Phi_4 = -53: a_f(27) = -53 is prime
        (-1, 27, 1): 0,   # a_f(3) = -1, a unit
    }
    for (a, b, m), want in cases.items():
        assert L.sigma_hat(a, b, m) == want == nonunit_cyclotomic_count(a, b, m + 1), (a, b, m)
    # off the Lucas pairs (A^2 = 4B, B = 0, A = 0, gcd(A, B) > 1):
    # sigma_0(m + 1) - 1
    assert L.sigma_hat(2, 1, 3) == 2
    assert L.sigma_hat(-24, 2**11, 3) == 2      # tau(2) = -24
    assert L.sigma_hat(3, 0, 3) == 2
    assert L.sigma_hat(0, 27, 3) == 2
    with pytest.raises(DomainError):
        L.sigma_hat(3, 8, 0)


def test_sigma_hat_counts_divisors():
    # sigma_0(m + 1), read off the factorization, against counting the
    # divisors up to sqrt(m + 1): no Phi_d of (10, 49) or of (7, 27) is a
    # unit, so both bounds are sigma_0(m + 1) - 1, as the oracle counts
    for m in [*range(1, 400), 719, 5039, 720719]:
        n = m + 1
        count = sum(1 + (d * d != n) for d in range(1, math.isqrt(n) + 1) if n % d == 0)
        assert L.sigma_hat(10, 49, m) == count - 1 == nonunit_cyclotomic_count(10, 49, n), m
        assert L.sigma_hat(7, 27, m) == count - 1 == nonunit_cyclotomic_count(7, 27, n), m
    assert L.sigma_hat(10, 49, 2**61 - 2) == 1  # 2^61 - 1 is prime


def test_data_dir_override(data_dir, monkeypatch):
    """Edited catalogs reach the Thue catalog lookup and the curve catalog
    lookup, both through the one loader catalog.load, and the shipped
    ones come back once it is restored."""
    from tauhunt import catalog, curves

    def drop_points(table):  # of Y^2 = X^3 + 3
        for row in table["rows"]:
            if (row["family"], row["w"], row["ell"], row["sign"]) == ("C", 3, 3, 1):
                row["points"] = []

    edits = {
        "thue_tables.json": lambda t: t.update(
            rows=[r for r in t["rows"] if (r["d"], r["D"]) != (7, 7)]),
        "curve_tables.json": drop_points,
    }
    for name, edit in edits.items():
        table = json.loads((data_dir / name).read_text())
        edit(table)
        (data_dir / name).write_text(json.dumps(table))
    assert catalog.entry("thue_tables.json", d=7, D=7) is None
    assert curves.catalog_entry("C", 3, 3, 1)["points"] == []
    monkeypatch.undo()
    assert catalog.entry("thue_tables.json", d=7, D=7) is not None
    assert curves.catalog_entry("C", 3, 3, 1)["points"] == [[1, 2]]
