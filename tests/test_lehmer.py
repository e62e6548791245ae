import copy
import json
import math
import time

import pytest

from oracles import nonunit_cyclotomic_count, signed_block_scenarios, tau_series
from tauhunt import lehmer as LE
from tauhunt import thue
from tauhunt.arith import DomainError, factor, primes_up_to
from tauhunt.lucas import sigma_hat
from tauhunt.newform import NewformSpec, coeff, coeff_prime_power, delta_newform

DELTA = delta_newform(600)
FAST = LE.SearchBounds(x_max=3000, x_small=120, x_mid=400)


def test_unit_set():
    assert LE.unit_set(DELTA) == (1,)
    w4 = NewformSpec(weight=4, level=5, ap={2: 3}, trivial_mod2=True)
    assert LE.unit_set(w4) == (1, 4)
    assert coeff_prime_power(w4, 2, 2) == 1      # a_f(4) = 9 - 8
    w4n = NewformSpec(weight=4, level=5, ap={2: -3}, trivial_mod2=True)
    assert LE.unit_set(w4n) == (1, 4)
    even_level = NewformSpec(weight=4, level=2, bad_signs={2: 1}, trivial_mod2=True)
    assert LE.unit_set(even_level) == (1,)
    w6 = NewformSpec(weight=6, level=5, ap={2: 3}, trivial_mod2=True)
    assert LE.unit_set(w6) == (1,)
    with pytest.raises(DomainError):
        LE.unit_set(NewformSpec(weight=4, level=1, ap={2: 3}))
    # the flag is not trusted against a stored odd eigenvalue
    with pytest.raises(DomainError, match=r"a_f\(3\) = 1"):
        LE.unit_set(NewformSpec(weight=4, level=5, ap={3: 1, 7: 3}, trivial_mod2=True))


def test_enumerate_conditions():
    conds = LE.enumerate_conditions(DELTA, 3, 1, 1)
    assert [c.d for c in conds] == [3]
    assert conds[0].equation == "Y^2 = X^11 + (3)"
    conds = LE.enumerate_conditions(DELTA, 5, 1, 1)
    assert [c.d for c in conds] == [3, 5]
    assert conds[1].equation == "Y^2 = 5*X^22 + (20)"
    conds = LE.enumerate_conditions(DELTA, 7, 1, -1)
    assert [c.d for c in conds] == [3, 7]
    assert conds[1].equation == "F_6(X, Y) = -7"
    conds = LE.enumerate_conditions(DELTA, 691, 1, 1)
    assert [c.d for c in conds] == [3, 5, 23, 173, 691]
    conds = LE.enumerate_conditions(DELTA, 7, 3, 1)
    assert conds[1].equation == "F_6(X, Y) = 343"


def test_condition_carries_its_problem():
    # a Thue condition holds the one shared Fhat_d, so its context is
    # built once for every target; a curve condition holds its CurveSpec
    conds = LE.enumerate_conditions(DELTA, 691, 1, -1)
    for c in conds:
        if c.kind == "thue":
            assert c.problem is thue.build_reduced_form(c.d)
        else:
            assert c.problem.family == c.kind[-1] and c.problem.constant % 691 == 0
    # Fhat_20011 (degree 10005) is over the degree ceiling: refused while
    # the conditions are enumerated, before any of them is searched
    with pytest.raises(DomainError, match="degree 10005 is over the degree ceiling"):
        LE.enumerate_conditions(DELTA, 20011, 1, 1)


def test_over_ceiling_ell_refused_before_factoring(monkeypatch):
    # d = ell is always a condition, and every other d is at most
    # (ell + 1)/2: Fhat_ell decides the refusal, so nothing is factored
    def unfactored(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(LE, "factor", unfactored)
    for ell, degree in ((15937, 7968), (10**17 + 3, 5 * 10**16 + 1), (10**18 - 11, 5 * 10**17 - 6)):
        with pytest.raises(DomainError, match=f"degree {degree} is over the degree ceiling"):
            LE.enumerate_conditions(DELTA, ell, 1, -1)
    monkeypatch.undo()
    # 15923 is the greatest prime whose Fhat_ell is under the ceiling
    conds = LE.enumerate_conditions(DELTA, 15923, 1, 1)
    assert max(c.d for c in conds) == 15923


def test_long_target_refused_before_its_power():
    # 3^(10^8) has 47,712,126 digits: refused from its digit count alone,
    # before the power is built, by enumerate_conditions and by
    # check_admissibility, which reach it with no argparse limit before them
    for check in (LE.enumerate_conditions, LE.check_admissibility):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="3\\^100000000 has more than 4300 digits"):
            check(DELTA, 3, 10**8, 1)
        assert time.perf_counter() - start < 1


def test_parity_found_once_per_spec():
    # the odd stored eigenvalues are found once and kept on the spec; a
    # spec that has them is refused on every call
    spec = copy.copy(delta_newform(100))  # delta_newform's specs are shared
    assert LE.unit_set(spec) == (1,) and spec.__dict__["odd_eigenvalues"] == ()
    spec.__dict__["odd_eigenvalues"] = (3,)  # read, not recomputed
    with pytest.raises(DomainError, match="a_f\\(3\\) = 252 is odd"):
        LE.omega_lower_bound(spec, 3)
    bad = NewformSpec(weight=4, level=1, ap={3: 5}, trivial_mod2=True)
    for _ in range(2):
        with pytest.raises(DomainError, match="a_f\\(3\\) = 5 is odd"):
            LE.unit_set(bad)


def test_catalog_status_read_alike():
    # one status vocabulary for both catalogs: the "grh" Thue rows of
    # F_6 = 41 and F_40 = 41 make their verdicts GRH-conditional, and the
    # "known" curve entry of Y^2 = X^11 + 41 does not
    rep = LE.check_admissibility(DELTA, 41, 1, 1, FAST)
    assert [(v["d"], v["mode"], v["grh_conditional"]) for v in rep["conditions"]] == [
        (3, "fixture+search", False), (5, "search", False),
        (7, "fixture+search", True), (41, "fixture+search", True)]
    assert rep["grh_conditional"]


def _tau_rank(ell, p):
    """First n with ell | tau(p^n), from coeff_prime_power."""
    return next(n for n in range(1, 700) if coeff_prime_power(DELTA, p, n) % ell == 0)


def test_ramanujan_filter_closed_forms():
    """The ranks the classical congruences give lie in achievable_ranks."""
    cases = {
        (3, 7): 2,      # 7 = 1 mod 3
        (3, 5): 1,
        (5, 7): 3,      # 7 = 2 mod 5
        (5, 19): 1,     # 19 = 4 mod 5
        (5, 11): 4,
        (7, 11): 6,     # 11 = 4 mod 7
        (7, 3): 1,
    }
    for (ell, p), rank in cases.items():
        assert _tau_rank(ell, p) == rank, (ell, p)
        assert rank in LE.achievable_ranks(ell), (ell, p)
    with pytest.raises(DomainError):
        LE.achievable_ranks(11)


def test_ramanujan_filter_vs_tau_scan():
    """The first index n with ell | tau(p^n) lies in achievable_ranks(ell)
    for every odd prime p <= 80, p != ell."""
    for ell in (3, 5, 7, 691):
        for p in primes_up_to(80):
            if p in (2, ell):
                continue
            assert _tau_rank(ell, p) in LE.achievable_ranks(ell), (ell, p)


def test_ramanujan_filter_vs_modular_scan_to_1e4():
    """Same check for every odd prime p <= 10^4, with the Hecke recursion
    run modulo ell on the stored tau(p).  For ell in {3, 5, 7} every
    achievable rank occurs.  This is the soundness fact behind
    congruence-excluded."""
    big = delta_newform(10**4)
    for ell in (3, 5, 7, 691):
        scanned = set()
        for p in primes_up_to(10**4):
            if p in (2, ell):
                continue
            a = big.ap[p] % ell
            B = pow(p, 11, ell)
            prev, cur, scan = 1, a, None
            for n in range(1, 692):
                if cur == 0:
                    scan = n
                    break
                prev, cur = cur, (a * cur - B * prev) % ell
            assert scan in LE.achievable_ranks(ell), (ell, p)
            scanned.add(scan)
        if ell != 691:
            assert scanned == LE.achievable_ranks(ell), ell


def test_achievable_ranks():
    assert LE.achievable_ranks(3) == {1, 2}
    assert LE.achievable_ranks(5) == {1, 3, 4}
    assert LE.achievable_ranks(7) == {1, 6}
    r691 = LE.achievable_ranks(691)
    assert {2, 4, 22, 690} <= r691
    assert 172 not in r691
    # d - 1 achievable for odd prime d dividing 691 * 690 * 692: exactly 3, 5, 23, 691
    ok = [d for d in (3, 5, 23, 173, 691) if d - 1 in r691]
    assert ok == [3, 5, 23, 691]


def test_criterion_identity_d3():
    # a_f(p^2) = a_f(p)^2 - p^(2k-1): point on Y^2 = X^(2k-1) + a_f(p^2)
    for p in primes_up_to(50):
        a2 = coeff_prime_power(DELTA, p, 2)
        a1 = coeff_prime_power(DELTA, p, 1)
        assert a1 * a1 == p**11 + a2


def test_criterion_identity_d5():
    # 5 B^2 + 4 a_f(p^4) = (2 a_f(p)^2 - 3 B)^2 with B = p^(2k-1)
    for p in primes_up_to(50):
        B = p**11
        a1 = coeff_prime_power(DELTA, p, 1)
        a4 = coeff_prime_power(DELTA, p, 4)
        assert a4 == a1**4 - 3 * a1**2 * B + B * B
        assert 5 * B * B + 4 * a4 == (2 * a1 * a1 - 3 * B) ** 2


def test_criterion_identity_thue():
    # F_{2m}(B, a^2) = Fhat_{2m+1}(B, a^2 - 2B) = a_f(p^2m), B = p^(2k-1)
    for p in primes_up_to(20):
        B = p**11
        a1 = coeff_prime_power(DELTA, p, 1)
        for m in range(1, 7):
            F = thue.build_reduced_form(2 * m + 1)
            assert thue.evaluate(F, B, a1 * a1 - 2 * B) == coeff_prime_power(DELTA, p, 2 * m)


def test_thue_catalog_compared_to_certified_bound(data_dir):
    """A Thue row is compared with the search up to the solve's certified
    bound: x_mid once the scan reached x0 - 1, else x_small.  A false
    point planted in the d = 7, D = 7 row (x0 = 29) with
    x_small < x <= x_mid is a discrepancy at x_small = 1000, and not
    compared at x_small = 10."""
    path = data_dir / "thue_tables.json"
    table = json.loads(path.read_text())
    row = next(r for r in table["rows"] if (r["d"], r["D"]) == (7, 7))
    true_points = sorted(row["points"])
    row["points"] += [[2000, 1], [20000, 1]]  # the second lies past x_mid
    path.write_text(json.dumps(table))

    def d7(bounds):
        rep = LE.check_admissibility(DELTA, 7, 1, 1, bounds)
        return next(c for c in rep["conditions"] if c["d"] == 7)

    cond = d7(LE.SearchBounds(x_max=1000, x_small=1000, x_mid=10000))
    assert cond["certificate"]["x0"] == 29 and cond["mode"] == "search"
    assert cond["certificate"]["catalog_discrepancy"] == {
        "bound": 10000, "listed": true_points + [[2000, 1]], "found": true_points}
    cond = d7(LE.SearchBounds(x_max=1000, x_small=10, x_mid=10000))
    assert cond["certificate"]["x_exhaustive"] == 10 and cond["mode"] == "fixture+search"
    assert "catalog_discrepancy" not in cond["certificate"]


def test_admissibility_delta_ell3():
    rep = LE.check_admissibility(DELTA, 3, 1, 1, FAST)
    assert rep["status"] == "EXCLUDED_WITHIN_BOUNDS"
    assert not rep["grh_conditional"]
    assert [v["d"] for v in rep["conditions"]] == [3]
    v = rep["conditions"][0]
    assert v["mode"] == "fixture+search"
    assert v["raw_hits"] == [[1, 2]]
    assert v["dispositions"][0]["status"] == "filtered"
    rep = LE.check_admissibility(DELTA, 3, 1, -1, FAST)
    assert rep["status"] == "EXCLUDED_WITHIN_BOUNDS"


def test_admissibility_congruence_pruning():
    rep = LE.check_admissibility(DELTA, 5, 1, 1, FAST)
    modes = {v["d"]: v["mode"] for v in rep["conditions"]}
    assert modes[3] == "congruence-excluded"
    assert modes[5] != "congruence-excluded"
    rep = LE.check_admissibility(DELTA, 7, 1, 1, FAST)
    modes = {v["d"]: v["mode"] for v in rep["conditions"]}
    assert modes[3] == "congruence-excluded" and modes[7] == "fixture+search"


def test_admissibility_eigenvalue_mismatch_filter():
    # Y^2 = X^11 - 23 has the point (2, 45); tau(2) = -24 rules it out
    rep = LE.check_admissibility(DELTA, 23, 1, -1, FAST)
    assert rep["status"] == "EXCLUDED_WITHIN_BOUNDS"
    d3 = next(v for v in rep["conditions"] if v["d"] == 3)
    assert d3["raw_hits"] == [[2, 45]]
    assert "differs" in d3["dispositions"][0]["reason"]


def _candidates(rep):
    return [d for v in rep["conditions"] for d in v["dispositions"] if d["status"] == "candidate"]


def test_admissibility_candidate_found():
    # weight 4 odd level: a_f(3^2) = 37 is a genuine candidate at (3, +-8)
    w4 = NewformSpec(weight=4, level=1, ap={2: -2}, trivial_mod2=True, name="w4")
    rep = LE.check_admissibility(w4, 37, 1, 1, FAST)
    assert rep["status"] == "CANDIDATES_FOUND"
    cands = _candidates(rep)
    assert any(c["p"] == 3 and c["predicted_n"] == [9] for c in cands)


def test_admissibility_unit_m0():
    # weight-4 form with 4 in the unit set: predicted n include 4 p^(d-1)
    w4 = NewformSpec(weight=4, level=1, ap={2: 3}, trivial_mod2=True, name="w4u")
    rep = LE.check_admissibility(w4, 37, 1, 1, FAST)
    cands = _candidates(rep)
    assert any(c["p"] == 3 and c["predicted_n"] == [9, 36] for c in cands)


def test_omega_lower_bound():
    assert LE.omega_lower_bound(DELTA, 251**2) == 1
    assert LE.omega_lower_bound(DELTA, 6) == 2
    assert LE.omega_lower_bound(DELTA, 3) == 1
    assert LE.omega_lower_bound(DELTA, 4) == 1   # sigma_0(3) - 1
    # bad prime contributes (k - 1) * ord
    lvl = NewformSpec(weight=6, level=3, ap={2: 0}, bad_signs={3: 1}, trivial_mod2=True)
    assert LE.omega_lower_bound(lvl, 9) == 4
    with pytest.raises(DomainError):
        LE.omega_lower_bound(DELTA, 1)
    # past the tau bound, refused as coeff refuses it
    with pytest.raises(DomainError, match="no a_f\\(1000003\\) stored"):
        LE.omega_lower_bound(DELTA, 1000003**2)


def _divisor_count(n):
    return sum(n % d == 0 for d in range(1, n + 1))


@pytest.mark.parametrize("q", [1009, 10007, 99991])
def test_omega_lower_bound_past_stored_eigenvalues(q):
    # Delta reads tau(q) past its stored primes, as coeff does
    tau_q = tau_series(99992)[q - 1]
    for e in (2, 3):
        want = sigma_hat(tau_q, q**11, e)
        assert want == _divisor_count(e + 1) - 1
        assert LE.omega_lower_bound(DELTA, q**e) == want
        assert LE.omega_lower_bound(DELTA, 3 * q**e) == want + 1


def test_omega_lower_bound_zero_coefficient_refused():
    # p^2 | N and p | n give a_f(n) = 0, whose Omega is no number
    for level, n in ((4, 32), (9, 3), (9, 9)):
        spec = NewformSpec(weight=4, level=level)
        assert coeff(spec, n) == 0
        with pytest.raises(DomainError, match=f"a_f\\({n}\\) = 0"):
            LE.omega_lower_bound(spec, n)
    # a prime exactly dividing the level still contributes (k - 1) ord_p(n)
    assert LE.omega_lower_bound(NewformSpec(weight=4, level=18), 4) == 2


def test_omega_lower_bound_long_norm():
    # (2, 3^7999): a_f(9) = u_3 = 4 - 3^7999 is one cyclotomic part, not
    # a unit, however long p^(w-1) is
    spec = NewformSpec(weight=8000, level=1, ap={3: 2})
    assert LE.omega_lower_bound(spec, 9) == 1
    # (7, 27): a_f(3^11) = u_12, none of whose parts Phi_2, Phi_3, Phi_4,
    # Phi_6, Phi_12 (7, 22, -5, -32, -2162) is a unit
    fam = NewformSpec(weight=4, level=1, ap={3: 7})
    want = nonunit_cyclotomic_count(7, 27, 12)
    assert LE.omega_lower_bound(fam, 3**11) == want == _divisor_count(12) - 1


def test_omega_lower_bound_never_exceeds_omega():
    """omega_lower_bound(f, p^e) <= Omega(a_f(p^e)), 1 <= e <= 6, on
    weight-4 and weight-6 level-1 specs with small a_f(3), a_f(5),
    a_f(7), units included: a unit a_f(p) = u_2 is no prime factor."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    small = st.sampled_from((1, -1)) | st.integers(-12, 12)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.sampled_from((4, 6)), small, small, small,
                      st.sampled_from((3, 5, 7)), st.integers(1, 6))
    @hypothesis.example(4, 1, 0, 0, 3, 3)  # a_f(27) = 1 - 54 = -53, a prime
    def sound(weight, a3, a5, a7, p, e):
        try:
            spec = NewformSpec(weight=weight, level=1, ap={3: a3, 5: a5, 7: a7})
        except DomainError:
            hypothesis.reject()
        value = coeff(spec, p**e)
        if value == 0:
            with pytest.raises(DomainError, match="= 0, as"):
                LE.omega_lower_bound(spec, p**e)
            return
        big_omega = sum(k for _, k in factor(abs(value)))
        assert LE.omega_lower_bound(spec, p**e) <= big_omega, (spec, p, e, value)

    sound()


def test_omega_bound_is_actually_a_lower_bound():
    for n in (2, 4, 6, 9, 12, 25, 36, 60, 96, 251**2):
        big_omega = sum(e for _, e in factor(coeff(DELTA, n)))
        assert big_omega >= LE.omega_lower_bound(DELTA, n), n


def test_decompose_examples():
    d = LE.decompose_odd_target(DELTA, -15)
    assert len(d["scenarios"]) == 2
    d = LE.decompose_odd_target(DELTA, 9)
    scs = {tuple((b["sign"], b["ell"], b["m"]) for b in sc) for sc in d["scenarios"]}
    assert scs == {((1, 3, 2),), ((1, 3, 1), (1, 3, 1)), ((-1, 3, 1), (-1, 3, 1))}
    d = LE.decompose_odd_target(DELTA, -693)
    # blocks: 3^2 as {9} or {3,3}; signs with odd minus count
    assert len(d["scenarios"]) == 10
    for sc in d["scenarios"]:
        prod = 1
        for b in sc:
            prod *= b["sign"] * b["ell"] ** b["m"]
        assert prod == -693
    with pytest.raises(DomainError):
        LE.decompose_odd_target(DELTA, 14)
    with pytest.raises(DomainError):
        LE.decompose_odd_target(DELTA, 1)


# weight 4, level 5, units (1, 4): a candidate at p predicts n = p^(d-1) and 4 p^(d-1)
LVL5 = NewformSpec(weight=4, level=5, ap={2: 3, 3: 2}, bad_signs={5: 1}, trivial_mod2=True)


def _filtered(point, reason):
    return {"point": list(point), "status": "filtered", "reason": reason}


def _candidate(point, p, magnitudes, predicted):
    return {"point": list(point), "status": "candidate", "p": p,
            "eigenvalue_magnitudes": magnitudes, "predicted_n": predicted}


DELIGNE = "Deligne bound violated (non-modular point)"
PARITY = "a_f(p) must be even (trivial mod 2)"


@pytest.mark.parametrize("kind,point,expected", [
    # C: the point is (p, |a_f(p)|)
    ("curve-C", (4, 2), _filtered((4, 2), "X is not a positive prime")),
    ("curve-C", (-3, 2), _filtered((-3, 2), "X is not a positive prime")),
    ("curve-C", (5, 2), _filtered((5, 2), "p divides the level")),
    ("curve-C", (7, 40), _filtered((7, 40), DELIGNE)),          # 40^2 > 4 * 7^3
    ("curve-C", (3, 4), _filtered((3, 4), "stored a_f(3) = 2 differs from +-4")),
    ("curve-C", (7, 3), _filtered((7, 3), PARITY)),
    ("curve-C", (7, 4), _candidate((7, 4), 7, [4], [49, 196])),
    ("curve-C", (2, 3), _candidate((2, 3), 2, [3], [4])),       # p = 2 escapes parity
    # H: the point is (+-p, +-(2 a^2 - 3 p^3))
    ("curve-H", (1, 5), _filtered((1, 5), "X is not a positive prime")),
    ("curve-H", (-5, 1), _filtered((-5, 1), "p divides the level")),
    ("curve-H", (7, 1), _filtered(
        (7, 1), "no integer a_f(p) with 2a^2 - 3p^(2k-1) = +-Y")),
    ("curve-H", (-7, 1859), _filtered((-7, 1859), DELIGNE)),     # a = 38
    ("curve-H", (3, 49), _filtered((3, 49), "stored a_f(3) = 2 differs from +-4")),
    ("curve-H", (7, 1011), _filtered((7, 1011), PARITY)),        # a = 3
    ("curve-H", (-7, 997), _candidate((-7, 997), 7, [4], [7**4, 4 * 7**4])),
    # Thue: the point is (p^3, a_f(p)^2)
    ("thue", (1, 4), _filtered((1, 4), "X must equal p^3 for a prime p")),
    ("thue", (64, 4), _filtered((64, 4), "X is not a prime power p^3")),
    ("thue", (125, 4), _filtered((125, 4), "p divides the level")),
    ("thue", (343, -4), _filtered((343, -4), "Y = a_f(p)^2 must be nonnegative")),
    ("thue", (343, 5), _filtered((343, 5), "Y = a_f(p)^2 must be a perfect square")),
    ("thue", (343, 1444), _filtered((343, 1444), DELIGNE)),
    ("thue", (27, 16), _filtered((27, 16), "stored a_f(3) = 2 differs from +-4")),
    ("thue", (343, 9), _filtered((343, 9), PARITY)),
    ("thue", (343, 16), _candidate((343, 16), 7, [4], [7**6, 4 * 7**6])),
])
def test_dispose_branches(kind, point, expected):
    # 29 * (29^2 - 1) = 2^3 * 3 * 5 * 7 * 29: conditions C (d = 3), H (d = 5), Thue (d = 7)
    cond = next(c for c in LE.enumerate_conditions(LVL5, 29, 1, 1) if c.kind == kind)
    assert LE._dispose(LVL5, cond, *point) == expected


def test_decompose_matches_sign_vector_oracle():
    targets = [t for t in range(-3001, 3002, 2) if abs(t) > 1]
    targets += [3**4 * 5**3 * 7**2, -(3**6) * 5**2, 3**5 * 11**3, -(5**4) * 7**3, 3**10]
    for t in targets:
        got = [[(b["sign"], b["ell"], b["m"]) for b in sc]
               for sc in LE.decompose_odd_target(DELTA, t)["scenarios"]]
        assert got == signed_block_scenarios(t), t


def test_scenario_count_matches_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.lists(st.sampled_from((3, 5, 7, 11, 13, 691)), min_size=1, max_size=10),
                      st.sampled_from((1, -1)))
    def check(ells, sign):
        alpha = sign * math.prod(ells)
        count = len(signed_block_scenarios(alpha))
        if count > LE._DECOMPOSE_BUDGET:
            with pytest.raises(DomainError, match="more than"):
                LE.decompose_odd_target(DELTA, alpha)
        else:
            assert len(LE.decompose_odd_target(DELTA, alpha)["scenarios"]) == count

    check()


def test_decompose_refuses_over_budget():
    # 3^20 splits into 12,442 scenarios, 3^19 into 8,745
    assert len(LE.decompose_odd_target(DELTA, -(3**19))["scenarios"]) == 8745
    with pytest.raises(DomainError, match="more than 10000 scenarios"):
        LE.decompose_odd_target(DELTA, 3**20)


def test_decompose_budget_boundary(monkeypatch):
    # -693 = -(3^2 * 7 * 11) splits into exactly 10 scenarios
    monkeypatch.setattr(LE, "_DECOMPOSE_BUDGET", 10)
    assert len(LE.decompose_odd_target(DELTA, -693)["scenarios"]) == 10
    monkeypatch.setattr(LE, "_DECOMPOSE_BUDGET", 9)
    with pytest.raises(DomainError, match="more than 9 scenarios"):
        LE.decompose_odd_target(DELTA, -693)


def test_report_serialization():
    d = LE.check_admissibility(DELTA, 3, 1, 1, FAST)
    assert d["schema"] == "tauhunt-admissibility/1"
    assert d["status"] == "EXCLUDED_WITHIN_BOUNDS"
    assert d["target"] == 3
    assert d["conditions"][0]["certificate"]["x_max"] == FAST.x_max
