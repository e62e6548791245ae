import math
import random
import time
from fractions import Fraction

import pytest

from oracles import (convergent_solutions, dense_thue_solutions, exact_convergents, f2m_coeffs,
                     form_value, reduced_form_by_substitution, three_term, thue_roots)
from tauhunt import catalog
from tauhunt import thue as T
from tauhunt.arith import DomainError, integer_nth_root, is_prime
from tauhunt.lehmer import SearchBounds


def _unreduced(m):
    """F_{2m}'s coefficients, through Fhat_{2m+1}."""
    return T.unreduced_coeffs(T.build_reduced_form(2 * m + 1))


def test_form_displays():
    assert _unreduced(1) == (1, -1)
    assert _unreduced(2) == (1, -3, 1)
    assert _unreduced(3) == (1, -5, 6, -1)
    assert _unreduced(5) == (1, -9, 28, -35, 15, -1)
    # not printed anywhere: from the generating-function recursion
    assert _unreduced(4) == (1, -7, 15, -10, 1)


def test_form_monic_in_y():
    for n in range(3, 26, 2):
        assert T.evaluate(T.build_reduced_form(n), 0, 1) == 1


def test_evaluate_examples():
    # F_6(x, y) = Fhat_7(x, y - 2x)
    fhat7 = T.build_reduced_form(7)
    for x, y in ((2, 1), (1, 4), (-3, -5)):
        assert T.evaluate(fhat7, x, y - 2 * x) == 7


def test_homogeneity():
    rng = random.Random(1)
    for n in (3, 5, 7, 9, 11, 15, 17):
        F = T.build_reduced_form(n)
        for _ in range(20):
            lam = rng.randint(1, 6)
            x, y = rng.randint(-9, 9), rng.randint(-9, 9)
            assert T.evaluate(F, lam * x, lam * y) == lam**F.degree * T.evaluate(F, x, y)


def test_sign_symmetry():
    rng = random.Random(2)
    for n in (5, 7, 9, 15):
        F = T.build_reduced_form(n)
        for _ in range(20):
            x, y = rng.randint(-9, 9), rng.randint(-9, 9)
            assert T.evaluate(F, -x, -y) == (-1) ** F.degree * T.evaluate(F, x, y)


def test_reduction_identity():
    # F_{n-1}(X, Y) = Fhat_n(X, Y - 2X) for every odd n, prime or not,
    # on the oracle's own F_{2m}
    rng = random.Random(3)
    for n in (3, 5, 7, 9, 11, 13, 15, 21, 23, 25, 27, 29, 31, 33, 35, 37):
        Fh, F = T.build_reduced_form(n), f2m_coeffs((n - 1) // 2)
        assert Fh.coeffs[0] == 1
        for _ in range(8):
            x, y = rng.randint(-9, 9), rng.randint(-9, 9)
            assert form_value(F, x, y) == T.evaluate(Fh, x, y - 2 * x)
        assert form_value(F, 1, 1) == T.evaluate(Fh, 1, -1)
    # solving through Fhat_n and mapping back by (x, z + 2x) is exact: to
    # x_mid = x_small, every solution of F_{n-1} with |x| <= 30
    for n in (5, 7, 9, 11, 13, 15):
        Fh, F = T.build_reduced_form(n), f2m_coeffs((n - 1) // 2)
        targets = (7, -7, 13, -13, 29, -343)
        dense = dense_thue_solutions(F, targets, 30)
        for rhs in targets:
            got = T.solve_unreduced(Fh, rhs, x_small=30, x_mid=30)
            reduced = T.solve_bounded(Fh, rhs, x_small=30, x_mid=30)
            assert list(got.solutions) == dense[rhs], (n, rhs)
            assert got.solutions == tuple((x, z + 2 * x) for x, z in reduced.solutions)
            assert (got.form, got.certificate) == (f"F_{n - 1}", reduced.certificate)


def test_reduced_small_forms():
    assert T.build_reduced_form(3).coeffs == (1, 1)          # Y + X
    assert T.build_reduced_form(5).coeffs == (1, 1, -1)      # Y^2 + XY - X^2


def test_reduced_form_recurrence_matches_substitution():
    for n in range(3, 1000, 2):
        assert T.build_reduced_form(n).coeffs == reduced_form_by_substitution(n), n


def test_coeffs_match_recurrence():
    # the closed-form binomials are the recurrence's coefficients, which
    # thue-gen prints: F_2..F_120, every Fhat_n with n < 300, and the
    # degree-345 pair of the theorem sweep
    for m in list(range(1, 61)) + [345]:
        assert _unreduced(m) == three_term(m, -1, -2), m
    for n in list(range(3, 300, 2)) + [691]:
        assert T.build_reduced_form(n).coeffs == three_term((n - 1) // 2, 1, 0), n


def test_coeffs_by_ratio_recurrence():
    # the ratio recurrences behind coeffs against the closed-form
    # binomials, the three-term recurrence and the substitution
    # Y -> Y + 2X; at high degree against math.comb at sampled indices
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def closed_form(m):
        return tuple((-1) ** (i // 2) * math.comb(m - (i + 1) // 2, i // 2) for i in range(m + 1))

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.integers(1, 300), st.integers(1, 400))
    def small(m, half):
        got = T.unreduced_coeffs(T.ThueForm(2 * m + 1))
        assert got == f2m_coeffs(m) == three_term(m, -1, -2)
        n = 2 * half + 1
        got = T.ThueForm(n).coeffs
        assert got == closed_form(half) == three_term(half, 1, 0)
        assert got == reduced_form_by_substitution(n)

    @hypothesis.settings(max_examples=10, deadline=None)
    @hypothesis.given(st.integers(301, T._MAX_DEGREE), st.lists(st.floats(0, 1), min_size=5,
                                                                 max_size=5))
    def large(m, where):
        got = T.unreduced_coeffs(T.ThueForm(2 * m + 1))
        for i in {0, m, *(int(f * m) for f in where)}:
            assert got[i] == (-1) ** i * math.comb(2 * m - i, i), (m, i)

    small()
    large()


_PRIMES_TO_801 = [p for p in range(3, 802, 2) if is_prime(p)]


def test_evaluate_matches_horner():
    # the Lucas ladder against Horner over the coefficients, degrees 1-400
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    forms = st.one_of(st.integers(1, 400).map(lambda m: T.build_reduced_form(2 * m + 1)),
                      st.sampled_from(_PRIMES_TO_801).map(T.build_reduced_form))
    coords = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6), st.integers(-2**80, 2**80))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(forms, coords, coords)
    @hypothesis.example(T.build_reduced_form(3), 0, -5)
    @hypothesis.example(T.build_reduced_form(3), -4, 0)
    @hypothesis.example(T.build_reduced_form(691), 0, 0)
    @hypothesis.example(T.build_reduced_form(801), -7, -3)
    def check(form, x, y):
        assert T.evaluate(form, x, y) == form_value(form.coeffs, x, y)

    check()


def _case_id(case):
    """A case (n, unreduced) is F_{n-1}, solved through Fhat_n, or Fhat_n."""
    n, unreduced = case
    return f"F_{n - 1}" if unreduced else f"Fhat_{n}"


def _solver_and_coeffs(case):
    """(solve, coeffs) of a case: solve_unreduced and the oracle's own
    F_{n-1}, or solve_bounded and Fhat_n's coefficients."""
    n, unreduced = case
    if unreduced:
        return T.solve_unreduced, f2m_coeffs((n - 1) // 2)
    return T.solve_bounded, T.build_reduced_form(n).coeffs


@pytest.mark.parametrize("case", [(3, True), (9, True), (3, False), (7, False), (9, False),
                                  (15, False), (691, False)], ids=_case_id)
def test_residue_index_matches_horner(case):
    # the ladder mod q fills the index with the t of each value of
    # Fhat_n(1, t) mod q, and t + 2 are those of F_{n-1}(1, t) mod q
    n, unreduced = case
    _, coeffs = _solver_and_coeffs(case)
    for q in (5, 7, 4093):
        by_value = T.ThueForm(n)._context(100).index(q)
        if unreduced:
            by_value = [sorted((t + 2) % q for t in ts) for ts in by_value]
        want = [[] for _ in range(q)]
        for t in range(q):
            want[form_value(coeffs, 1, t) % q].append(t)
        assert by_value == want, (case, q)


def test_f690_values():
    assert form_value(f2m_coeffs(345), 1, 4) == 691
    Fh = T.build_reduced_form(691)
    assert T.evaluate(Fh, 1, 2) == 691 == -T.evaluate(Fh, -1, -2)


def test_solve_f6_pm7():
    fhat7 = T.build_reduced_form(7)
    res = T.solve_unreduced(fhat7, 7, x_small=50, x_mid=50)
    assert (res.form, res.solutions) == ("F_6", ((-3, -5), (1, 4), (2, 1)))
    res = T.solve_unreduced(fhat7, -7, x_small=50, x_mid=50)
    assert res.solutions == ((-2, -1), (-1, -4), (3, 5))


def test_solve_linear_form():
    # the solutions of Fhat_3 = Y + X = 5, and so of F_2 = Y - X = 5, form a line
    for solve in (T.solve_bounded, T.solve_unreduced):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="Fhat_3 is linear"):
            solve(T.build_reduced_form(3), 5, x_small=0, x_mid=10**6)
        assert time.perf_counter() - start < 1.0


def test_solve_empty_row():
    res = T.solve_unreduced(T.build_reduced_form(13), -13, x_small=100, x_mid=100)
    assert res.solutions == ()


def test_rhs_zero_rejected():
    with pytest.raises(DomainError):
        T.solve_bounded(T.build_reduced_form(5), 0, 10, 10)


def test_pruning_soundness_f6():
    """Convergent-pruned midsize search equals exhaustive scan to 1000."""
    fhat7 = T.build_reduced_form(7)
    for rhs in (7, -7, 13, -13, 29, -29):
        full = T.solve_unreduced(fhat7, rhs, x_small=1000, x_mid=1000)
        pruned = T.solve_unreduced(fhat7, rhs, x_small=50, x_mid=1000)
        assert full.solutions == pruned.solutions, rhs


def test_catalog_rows_evaluate():
    # each catalog point (x, y) of F_{d-1} is (x, y - 2x) on Fhat_d
    for row in catalog.load("thue_tables.json")["rows"]:
        form = T.build_reduced_form(row["d"])
        for x, y in row["points"]:
            assert T.evaluate(form, x, y - 2 * x) == row["D"], (row["d"], row["D"], x, y)


def test_catalog_lookup():
    # the whole row {d, D, points, status}, status "known" or "grh"
    def entry(d, D):
        return catalog.entry("thue_tables.json", d=d, D=D)

    assert entry(7, 7) == {"d": 7, "D": 7, "points": [[1, 4], [2, 1], [-3, -5]],
                           "status": "known"}
    assert entry(7, -41) == {"d": 7, "D": -41, "points": [[3, 7], [1, -2], [-4, -5]],
                             "status": "grh"}
    assert entry(7, 11) is None


def test_certificate_shape():
    res = T.solve_bounded(T.build_reduced_form(7), 5, x_small=20, x_mid=40)
    assert res.certificate["x_small"] == 20
    assert res.certificate["x_mid"] == 40
    assert "midsize" in res.certificate
    assert res.certificate["method"] == "exhaustive scan + convergent pruning (Thue gap criterion)"
    d = res.to_dict()
    assert set(d) == {"form", "rhs", "solutions", "certificate"}


def _isolation_forms():
    yield from (T.build_reduced_form(n) for n in range(3, 26, 2))
    yield from (T.build_reduced_form(p) for p in (29, 31, 37, 41, 43, 45, 47, 53, 59, 61, 63,
                                                   67, 71, 73, 79, 83, 89, 97, 99, 101, 691))


def test_real_roots_isolate():
    for form in _isolation_forms():
        for w in (64, 101, 300):
            roots = T.real_roots(form, w)
            assert len(roots) == form.degree, form.name
            for lo, hi in roots:
                # sign of F(1, t) at t = a/2^w is the sign of F(2^w, a)
                assert form_value(form.coeffs, 2**w, lo) * form_value(form.coeffs, 2**w, hi) < 0
                assert 0 < hi - lo < 2 ** (w // 2), (form.name, w)
            assert all(b < c for (_, b), (c, _) in zip(roots, roots[1:])), (form.name, w)


@pytest.mark.parametrize("case", [(5, True), (7, True), (9, True), (7, False), (9, False),
                                  (11, False), (13, False), (15, False), (23, False)],
                         ids=_case_id)
def test_scan_matches_dense_oracle(case):
    # F_4(2, 3) = Fhat_5(2, -1) = -5 lies sqrt(5) from both 2 theta_i, at
    # the edge of the windows
    targets = (7, -7, 13, -13, 13**5, -343, -5)
    solve, coeffs = _solver_and_coeffs(case)
    dense = dense_thue_solutions(coeffs, targets, 60)
    for rhs in targets:
        got = solve(T.build_reduced_form(case[0]), rhs, x_small=60, x_mid=60)
        assert list(got.solutions) == dense[rhs], (case, rhs)


def test_planted_solutions_found():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    forms = [T.build_reduced_form(n) for n in (5, 7, 9, 11, 13, 15, 17, 19, 21, 23)]

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(st.sampled_from(forms), st.integers(1, 40), st.booleans(),
                      st.integers(-200, 200))
    def planted(form, ax, negative, y):
        x = -ax if negative else ax
        rhs = T.evaluate(form, x, y)
        hypothesis.assume(rhs != 0)
        assert (x, y) in T.solve_bounded(form, rhs, x_small=40, x_mid=40).solutions

    planted()


_QUADRATIC_FORMS = [T.build_reduced_form(5)]


def test_degree2_scanned_to_x_mid():
    """A degree-2 form has no Legendre threshold, so it is scanned to
    x_mid whatever x_small: a solution planted next to x theta_i anywhere
    up to x_mid is found, and the solutions with |x| <= min(x_mid, 100)
    are the dense oracle's."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(st.sampled_from(_QUADRATIC_FORMS),
                      st.sampled_from([0, 10]), st.integers(10, 2000), st.data())
    def planted(form, x_small, x_mid, data):
        x = data.draw(st.integers(-x_mid, x_mid))
        k = data.draw(st.integers(1, 2))
        theta = 2 * math.cos(2 * math.pi * k / form.n)
        y = round(theta * x) + data.draw(st.integers(-3, 3))
        rhs = T.evaluate(form, x, y)
        hypothesis.assume(rhs != 0)
        res = T.solve_bounded(form, rhs, x_small, x_mid)
        assert res.certificate["x_exhaustive"] == x_mid and "midsize" not in res.certificate
        assert (x, y) in res.solutions
        near = min(x_mid, 100)
        assert [s for s in res.solutions if abs(s[0]) <= near] == dense_thue_solutions(
            form.coeffs, [rhs], near)[rhs], (form.name, rhs)

    planted()


def test_odd_degree_sign_symmetry():
    for form in (T.build_reduced_form(n) for n in (7, 11, 15, 23, 27)):
        for k in (1, 7, 13, 29, 343, 13**5):
            plus = T.solve_bounded(form, k, x_small=40, x_mid=400).solutions
            minus = T.solve_bounded(form, -k, x_small=40, x_mid=400).solutions
            assert minus == tuple(sorted((-x, -y) for x, y in plus)), (form.name, k)


def _exact_window_candidates(ctx, k, x_hi):
    """(r, number of (x, y) scanned for 1 <= x <= x_hi) of the exhaustive
    scan of F = +-k, counted from exact rational windows: for each x, the
    integers y with |y - t x| <= min(k^(1/m), rho_i) for some t in an
    enclosure [lo_i/2^w, hi_i/2^w] of the context, where
    rho_i = 2^(m-1) k / (x^(m-1) 2^L_i) and L_i is the context's bound on
    log2 |P'(theta_i)|.  The radius k^(1/m) < r + 1 enters as
    floor(x lo_i/2^w) - r <= y <= ceil(x hi_i/2^w) + r."""
    m, w = ctx.form.degree, ctx.w
    r = integer_nth_root(k, m)
    total = 0
    for x in range(1, x_hi + 1):
        ys = set()
        power = x ** (m - 1)
        for (lo, hi), log in zip(ctx.roots, ctx.log2_deriv):
            # rho_i = num / den; x lo_i/2^w - rho_i = (x lo_i den - num 2^w) / (2^w den)
            num, den = 2 ** (m - 1) * k << max(-log, 0), power << max(log, 0)
            xlo, xhi = x * lo, x * hi
            start = max((xlo >> w) - r, -(((num << w) - xlo * den) // (den << w)))
            end = min(-(-xhi >> w) + r, (xhi * den + (num << w)) // (den << w))
            ys.update(range(start, end + 1))
        total += len(ys)
    return r, total


def test_exhaustive_counts_in_certificate():
    # Fhat_7 = 7: r = floor(7^(1/3)) = 1; roots -1.801.., -0.445.., 1.247..
    # x = 1: [-3, 0] u [-2, 1] u [0, 3] = [-3, 3], 7 values
    # x = 2: rho_i(2) = 4 * 7 / (4 * 2^L_i) >= 1.75 > r (L_i = 2, 1, 2), so
    # [-5, -2] u [-2, 1] u [1, 4] = [-5, 4], 10 values
    fhat7 = T.build_reduced_form(7)
    assert _exact_window_candidates(fhat7._context(2), 7, 2) == (1, 17)
    res = T.solve_bounded(fhat7, 7, x_small=2, x_mid=2)
    assert res.certificate["exhaustive"] == {
        "window_radius": 1, "candidates": 17, "confirmed": 2}
    # the windows shrink like 1/x^2 once x grows
    r, count = _exact_window_candidates(fhat7._context(10), 7, 10)
    res = T.solve_bounded(fhat7, -7, x_small=10, x_mid=10)
    assert res.certificate["exhaustive"] == {
        "window_radius": r, "candidates": count, "confirmed": 3}


def _fresh(form):
    """An equal form with a context of its own, so nothing is reused."""
    return T.ThueForm(form.n)


@pytest.mark.parametrize("case", [(5, True), (7, True), (7, False), (9, False), (11, False),
                                  (13, False), (15, False)], ids=_case_id)
def test_table_filter_tiny_primes(case, monkeypatch):
    # q in (5, 7): the index filters every candidate of a scan whose
    # candidate bound exceeds q, x = 0 (mod q) is not filtered, and
    # k = 0 (mod q) makes both targets 0
    targets = (7, -7, 35, -5, 13, -49, 1)
    solve, coeffs = _solver_and_coeffs(case)
    dense = dense_thue_solutions(coeffs, targets, 40)
    for q in (5, 7):
        monkeypatch.setattr(T, "_TABLE_PRIME", q)
        fresh = T.ThueForm(case[0])
        for rhs in targets:
            got = solve(fresh, rhs, x_small=40, x_mid=40)
            assert list(got.solutions) == dense[rhs], (case, q, rhs)


def test_exhaustive_counts_fhat691():
    # x0 = 3, so x_small = 1000 scans x = 1, 2 and the convergents cover
    # the rest; the windows of those x hold 17 values
    form = T.build_reduced_form(691)
    res = T.solve_bounded(form, 691, x_small=1000, x_mid=1000)
    assert (res.certificate["x0"], res.certificate["x_exhaustive"]) == (3, 2)
    r, count = _exact_window_candidates(form._context(1000), 691, 2)
    assert (r, count) == (1, 17)
    assert res.certificate["exhaustive"] == {
        "window_radius": r, "candidates": count, "confirmed": 1}
    assert res.solutions == ((1, 2),)


def test_residue_index_built_before_the_scan(monkeypatch):
    # Fhat_7 = 1442897 to x_small = 1000 has a candidate bound far above
    # q = 4093, so the index filters from the first x on: fewer than q
    # exact evaluations in all (4,128 in the scan alone when the index
    # waited for q candidates), and the same certificate
    calls = []
    evaluate = T.evaluate
    monkeypatch.setattr(T, "evaluate", lambda f, x, y: calls.append((x, y)) or evaluate(f, x, y))
    res = T.solve_bounded(T.ThueForm(7), 1442897, 1000, 10000)
    assert len(calls) < T._TABLE_PRIME
    assert res.certificate == {
        "x_small": 1000, "x_mid": 10000, "x0": 5771589, "x_exhaustive": 1000,
        "method": "exhaustive scan + convergent pruning (Thue gap criterion)",
        "exhaustive": {"window_radius": 113, "candidates": 130335, "confirmed": 9},
        "midsize": {"roots": 3, "convergents": 22, "skipped_multiplier": 7,
                    "skipped_bound": 0, "evaluated": 15}}
    assert len(res.solutions) == 9


def test_candidate_budget(monkeypatch):
    monkeypatch.setattr(T, "_CANDIDATE_BUDGET", 40)
    form = _fresh(T.build_reduced_form(5))
    # R = 11 (and rho_i(x) = 121 / x > R up to x = 10): the merged windows
    # hold 26, 29 and 30 values at x = 1, 2, 3, and 41 at x = 8
    got = T.solve_bounded(form, 121, x_small=3, x_mid=3)
    assert list(got.solutions) == dense_thue_solutions(form.coeffs, [121], 3)[121]
    with pytest.raises(DomainError):
        T.solve_bounded(form, 121, x_small=20, x_mid=20)
    # R = 21: one window alone holds 43 > 40 values
    assert T.solve_bounded(form, 441, x_small=0, x_mid=0).solutions == ((0, -21), (0, 21))
    with pytest.raises(DomainError):
        T.solve_bounded(form, 441, x_small=1, x_mid=1)
    # no limit on x is left: F_6 = 7 scans to x0 - 1 = 28, and the
    # convergents to 2^38 cover the rest
    res = T.solve_unreduced(T.build_reduced_form(7), 7, x_small=1 << 38, x_mid=1 << 38)
    assert res.solutions == ((-3, -5), (1, 4), (2, 1))
    assert (res.certificate["x0"], res.certificate["x_exhaustive"]) == (29, 28)


def test_scan_work_budget(monkeypatch):
    # F_6 = 7 has R = floor(7^(1/3)) = 1 and x0 = 29: x_small = 10 makes
    # 10 * 3 = 30 root steps, and bounds the candidates by
    # 10 * 3 * (2R + 3) = 150; each cap admits its count and refuses one less
    for cap, count, what in (("_SCAN_ROOT_STEPS", 30, "root steps"),
                             ("_SCAN_CANDIDATES", 150, "candidates")):
        default = getattr(T, cap)
        monkeypatch.setattr(T, cap, count)
        assert T.solve_unreduced(T.ThueForm(7), 7, 10, 10).solutions == (
            (-3, -5), (1, 4), (2, 1))
        monkeypatch.setattr(T, cap, count - 1)
        with pytest.raises(DomainError, match="10 x values and up to 150 candidates") as err:
            T.solve_unreduced(T.ThueForm(7), 7, 10, 10)
        assert f"{count} {what}, more than the cap of {count - 1}" in str(err.value)
        monkeypatch.setattr(T, cap, default)


def test_scan_budget_refuses_before_scanning():
    # Fhat_7 = 10^15 has x0 = 4 * 10^15 + 1 and R = 10^5: x_small = 10^6
    # lies below x0, so the scan would take every x to 10^6, 200003 values
    # per window; it is refused at once
    form = T.build_reduced_form(7)
    assert T._legendre_threshold(form._context(10**6), 10**15) == 4 * 10**15 + 1
    start = time.perf_counter()
    with pytest.raises(DomainError, match="1000000 x values and up to 600009000000 candidates"):
        T.solve_bounded(form, 10**15, 10**6, 10**6)
    assert time.perf_counter() - start < 1
    # Fhat_691 = 691 has x0 = 3: only x = 1, 2 are scanned, whatever x_small
    start = time.perf_counter()
    res = T.solve_bounded(T.build_reduced_form(691), 691, 2 * 10**6, 2 * 10**6)
    assert res.solutions == ((1, 2),) and res.certificate["x_exhaustive"] == 2
    assert time.perf_counter() - start < 5


def test_midsize_counters_fhat691():
    # at default bounds x0 = 3, so the convergents cover (2, x_mid]: of
    # the 1,997 distinct (p, q), 9 have no multiplier lam q in that range
    # with lam^345 <= 691, the enclosures of some root of the pair put
    # |F(q, p)| above 691 for 1,986, and 2 are evaluated, none of them a
    # solution
    bounds = SearchBounds()
    form = T.build_reduced_form(691)
    for rhs in (691, -691):
        res = T.solve_bounded(form, rhs, bounds.x_small, bounds.x_mid)
        assert res.certificate["midsize"] == {
            "roots": 345, "convergents": 1997, "skipped_multiplier": 9,
            "skipped_bound": 1986, "evaluated": 2}
        assert res.solutions == ((rhs // 691, 2 * rhs // 691),)
    # every convergent the bound skips, judged with each root it is a
    # convergent of, has |F(q, p)| > 691; judged with its first root
    # alone, only 1,932 of them would be skipped
    ctx = form._context(bounds.x_mid)
    pairs = {}
    for p, q, i in ctx.convergents:
        pairs.setdefault((p, q), []).append(i)

    def proven(p, q, i):
        b = ctx.log2_lower_bound(p, q, i)
        return b is not None and b >= (691).bit_length()

    skipped = [(p, q) for (p, q), roots in pairs.items()
               if q > 2 and any(proven(p, q, i) for i in roots)]
    assert len(skipped) == 1986
    assert sum(proven(p, q, roots[0]) for (p, q), roots in pairs.items() if q > 2) == 1932
    assert all(abs(form_value(form.coeffs, q, p)) > 691 for p, q in skipped[::50])


def test_midsize_counters_evaluated():
    # Fhat_11 = 11 with nothing scanned: (1, 2) lies on the convergent 2/1
    # of the root 2 cos(2 pi/11) = 1.68.., and the 10 distinct convergents
    # the O(1) bound cannot put above 11 are evaluated
    form = T.build_reduced_form(11)
    convs = form._context(100000).convergents
    pairs = {(p, q) for p, q, _ in convs}
    assert (len(convs), len(pairs)) == (53, 49)
    res = T.solve_bounded(form, 11, x_small=0, x_mid=100000)
    assert res.solutions == ((1, 2),)
    assert res.certificate["midsize"] == {
        "roots": 5, "convergents": 49, "skipped_multiplier": 0,
        "skipped_bound": 39, "evaluated": 10}
    # every convergent skipped by its bound has |F(q, p)| > 11
    big = sum(abs(form_value(form.coeffs, q, p)) > 11 for p, q in pairs)
    assert big >= 39
    # lam = 1 is the only multiplier (2^5 > 11), so x_small = 5 skips the
    # convergents with q <= 5
    res = T.solve_bounded(form, 11, x_small=5, x_mid=100000)
    assert res.certificate["midsize"] == {
        "roots": 5, "convergents": 49, "skipped_multiplier": sum(q <= 5 for _, q in pairs),
        "skipped_bound": 37, "evaluated": 2}


@pytest.mark.parametrize("solve,form,rhs,x_small,x_mid", [
    (T.solve_bounded, T.build_reduced_form(691), 691, 1000, 10000),
    (T.solve_unreduced, T.build_reduced_form(11), 11, 0, 100000),
], ids=["Fhat_691", "F_10"])
def test_each_convergent_evaluated_once(solve, form, rhs, x_small, x_mid, monkeypatch):
    # a (p, q) that is a convergent of several roots is judged once: no
    # (q, p) is evaluated twice in one solve, and every distinct pair is
    # counted in exactly one of the skips or the evaluations
    calls = []
    evaluate = T.evaluate
    monkeypatch.setattr(T, "evaluate", lambda f, x, y: calls.append((x, y)) or evaluate(f, x, y))
    form = _fresh(form)
    cert = solve(form, rhs, x_small, x_mid).certificate
    mid = cert["midsize"]
    assert len(calls) == len(set(calls))
    # lam = 1 is the only multiplier, so the convergent phase evaluates
    # only q beyond the scan
    assert mid["evaluated"] == sum(x > cert["x_exhaustive"] for x, _ in calls) > 0
    assert mid["convergents"] == len({(p, q) for p, q, _ in form._context(x_mid).convergents})
    assert mid["skipped_multiplier"] + mid["skipped_bound"] + mid["evaluated"] == mid["convergents"]


# degree >= 3: a degree-2 form is scanned to x_mid and has no convergent phase
_PRUNED_FORMS = [T.build_reduced_form(n) for n in range(7, 102, 2) if n < 16 or is_prime(n)]


def test_midsize_matches_unpruned_oracle():
    """The pruned pass finds exactly what evaluating every convergent finds,
    on right sides planted as lam^m F(q, p) at a convergent p/q."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.sampled_from(_PRUNED_FORMS), st.integers(0, 2), st.integers(20, 1000),
                      st.integers(0, 10**6), st.integers(1, 3), st.booleans(), st.booleans())
    def planted(form, x_small, x_mid, pick, lam, negative, plant):
        m = form.degree
        convs = [(p, q) for p, q, _ in form._context(x_mid).convergents
                 if x_small < lam * q <= x_mid]
        hypothesis.assume(convs)
        pnum, q = convs[pick % len(convs)]
        x, y = (-lam * q, -lam * pnum) if negative else (lam * q, lam * pnum)
        rhs = form_value(form.coeffs, x, y)
        # unplanted: a right side no bigger than the planted one
        rhs = rhs if plant else rhs // 2 + 1
        hypothesis.assume(rhs != 0)
        got = T.solve_bounded(form, rhs, x_small, x_mid).solutions
        assert [s for s in got if abs(s[0]) > x_small] == convergent_solutions(
            form, rhs, x_small, x_mid), (form.name, rhs)
        assert not plant or (x, y) in got

    planted()


def test_deep_midsize_matches_unpruned_oracle():
    """With nothing scanned, the pruned pass finds exactly what evaluating
    every convergent finds at x_mid up to 10^40, where the bound skips
    deep convergents from the enclosures the convergents settled on, on
    right sides planted as lam^m F(q, p) at a convergent p/q."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(st.sampled_from(_PRUNED_FORMS[:12]), st.integers(10**5, 10**40),
                      st.integers(0, 10**6), st.integers(1, 3), st.booleans(), st.booleans())
    def planted(form, x_mid, pick, lam, negative, plant):
        convs = [(p, q) for p, q, _ in form._context(x_mid).convergents if lam * q <= x_mid]
        pnum, q = convs[pick % len(convs)]
        x, y = (-lam * q, -lam * pnum) if negative else (lam * q, lam * pnum)
        rhs = form_value(form.coeffs, x, y)
        rhs = rhs if plant else rhs // 2 + 1
        hypothesis.assume(rhs != 0)
        got = T.solve_bounded(form, rhs, 0, x_mid).solutions
        assert [s for s in got if s[0]] == convergent_solutions(form, rhs, 0, x_mid), (
            form.name, rhs, x_mid)
        assert not plant or (x, y) in got

    planted()


def test_shrunk_windows_match_dense_oracle():
    """The exhaustive scan finds what the dense oracle finds, on right
    sides planted next to a root (where rho_i(x) sets the window) or
    anywhere in the cone (where the 2^(m-1) of the nearest-root
    inequality matters), with |x| <= 2, where the windows are still
    full, and up to 40."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(st.sampled_from(_PRUNED_FORMS + _QUADRATIC_FORMS),
                      st.one_of(st.integers(0, 2), st.integers(3, 40)), st.data())
    def planted(form, x_small, data):
        x = data.draw(st.integers(-x_small, x_small))
        if data.draw(st.booleans()):
            ctx = form._context(x_small)
            lo, _ = data.draw(st.sampled_from(ctx.roots))
            y = (lo * x >> ctx.w) + data.draw(st.integers(-3, 3))
        else:
            y = data.draw(st.integers(-4 * abs(x) - 2, 4 * abs(x) + 2))
        rhs = form_value(form.coeffs, x, y)
        hypothesis.assume(rhs != 0)
        got = T.solve_bounded(form, rhs, x_small, x_small).solutions
        assert list(got) == dense_thue_solutions(form.coeffs, [rhs], x_small)[rhs], (form.name, rhs)
        assert (x, y) in got

    planted()


def test_scan_windows_match_exact_hull():
    """The scan's candidates are the integers of the exact rational
    windows, |y - t x| <= min(k^(1/m), rho_i(x)) for t in [lo_i, hi_i]
    (_exact_window_candidates), counted over the range it scanned, for
    k up to 10^40 with k^(1/m) up to 1000."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.sampled_from(_PRUNED_FORMS + _QUADRATIC_FORMS
                                      + [T.build_reduced_form(691)]),
                      st.one_of(st.integers(1, 10**4), st.integers(1, 10**40)),
                      st.integers(0, 30))
    def exact(form, k, x_small):
        hypothesis.assume(integer_nth_root(k, form.degree) <= 1000)
        res = T.solve_bounded(form, k, x_small, x_small)
        r, count = _exact_window_candidates(form._context(x_small), k,
                                            res.certificate["x_exhaustive"])
        assert res.certificate["exhaustive"]["window_radius"] == r, (form.name, k)
        assert res.certificate["exhaustive"]["candidates"] == count, (form.name, k)

    exact()


def _mp_root_and_log2_derivative(mpmath, n, k):
    """theta_k = 2 cos(2 pi k/n) and log2 |P'(theta_k)| =
    log2(n / (4 sin(phi/2) sin(phi))), phi = 2 pi k/n, from
    P(2 cos phi) = sin(n phi/2) / sin(phi/2)."""
    phi = 2 * mpmath.pi * k / n
    theta = 2 * mpmath.cos(phi)
    return theta, mpmath.log(n / (4 * mpmath.sin(phi / 2) * mpmath.sin(phi)), 2)


def test_log2_derivatives_below_mpmath():
    """log2 |P'(theta_i)| - 2 < L_i <= log2 |P'(theta_i)| for every root of
    Fhat_n, n < 1000; the closed form agrees with the product of the root
    differences."""
    mpmath = pytest.importorskip("mpmath")
    forms = [T.build_reduced_form(n) for n in range(3, 1000, 2)]
    with mpmath.workdps(30):
        for form in (T.build_reduced_form(n) for n in (7, 11, 15, 101)):
            thetas = [2 * mpmath.cos(2 * mpmath.pi * k / form.n)
                      for k in range(1, form.degree + 1)]
            for k, t in enumerate(thetas, 1):
                prod = mpmath.fprod(abs(t - u) for u in thetas if u != t)
                _, log = _mp_root_and_log2_derivative(mpmath, form.n, k)
                assert abs(mpmath.log(prod, 2) - log) < mpmath.mpf(10) ** -20, (form.name, k)
        for form in forms:
            # the ascending roots are theta_k for k = m .. 1
            for got, k in zip(form._context(1).log2_deriv, range(form.degree, 0, -1)):
                _, exact = _mp_root_and_log2_derivative(mpmath, form.n, k)
                # 10^-20 is far above the 30-digit error; |P'| = 1 on Fhat_3
                assert exact - 2 < got <= exact + mpmath.mpf(10) ** -20, (form.name, k)


def test_closed_form_enclosures_hold_mpmath_roots():
    """For odd n up to about 2*10^4, every _cos_bounds enclosure holds
    mpmath's 2 cos(2 pi k/n), at any precision, as does each arctan
    bound behind its pi; it is narrower than 32 w units, below the
    2^(w/2) real_roots needs at w >= 64, and gives
    L_k <= log2 |P'(theta_k)|."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    mpmath = pytest.importorskip("mpmath")

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.integers(1, 10**4), st.data(), st.integers(16, 400))
    def holds(m, data, w):
        n = 2 * m + 1
        k = data.draw(st.integers(1, m))
        with mpmath.workdps(150):
            for x in (5, 239):  # the two halves of Machin's pi
                a, e = T._arctan_inv(x, w)
                assert abs(a - mpmath.atan(mpmath.mpf(1) / x) * 2**w) < e, (x, w)
            theta, log = _mp_root_and_log2_derivative(mpmath, n, k)
            ((lo, hi),) = T._cos_bounds(n, [k], w)
            scaled = theta * mpmath.mpf(2) ** w
            assert lo <= scaled <= hi and hi - lo < 32 * w, (n, k, w)
            assert T._log2_derivative(n, lo, hi, w) <= log, (n, k, w)

    holds()


def _assert_bound_holds(ctx, pnum, q, i):
    b = ctx.log2_lower_bound(pnum, q, i)
    if b is not None:
        value = form_value(ctx.form.coeffs, q, pnum)
        assert value != 0 and abs(value).bit_length() - 1 >= b, (ctx.form.name, pnum, q)
    return b


def test_enclosure_bound_on_deep_convergents():
    # the enclosures are as precise as the convergents need, so the bound
    # gives a value on every convergent to 10^12 with q > 1, the deep ones
    # included (on q = 1 the separation factor may fail)
    for form in _PRUNED_FORMS[:12]:
        ctx = form._context(10**12)
        bounds = {(p, q): _assert_bound_holds(ctx, p, q, i) for p, q, i in ctx.convergents}
        assert all(b is not None for (_, q), b in bounds.items() if q > 1), form.name
        assert max(q for _, q in bounds) > 2**22, form.name


def test_enclosure_bound_on_every_small_point():
    # every p/q with q < 25 in the cone, against every root: far from
    # theta_i the separation factor (1 - delta/(q sep_i))^(m-1) matters
    for form in _PRUNED_FORMS[:12]:
        ctx = form._context(24)
        for q in range(1, 25):
            for p in range(-2 * q - 2, 4 * q + 3):
                for i in range(form.degree):
                    _assert_bound_holds(ctx, p, q, i)


def test_enclosure_bound_below_exact_value():
    """The O(1) bound never exceeds log2 |F(q, p)|."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.sampled_from(_PRUNED_FORMS), st.sampled_from([1, 10**4, 10**15]),
                      st.integers(0, 10**6), st.integers(1, 10**15), st.integers(-3, 3))
    def bound(form, x_mid, pick, q, offset):
        ctx = form._context(x_mid)
        i = pick % len(ctx.roots)
        # p next to theta_i q for theta_i ~ lo_i / 2^w
        _assert_bound_holds(ctx, (ctx.roots[i][0] * q >> ctx.w) + offset, q, i)

    bound()


def test_hand_built_form_validated():
    # a form is its n: a hand-built one is the built form
    fhat7 = T.build_reduced_form(7)
    assert T.ThueForm(7) == fhat7
    assert T.ThueForm(7).coeffs == fhat7.coeffs
    assert T.real_roots(T.ThueForm(7), 64) == T.real_roots(fhat7, 64)
    assert T.ThueForm(9).coeffs == reduced_form_by_substitution(9)
    for n in (2, 1, 0, -3, 8, 100):
        with pytest.raises(DomainError, match="Fhat_n needs an odd n >= 3"):
            T.ThueForm(n)
    with pytest.raises(DomainError, match="degree 50001 is over the degree ceiling of 7962"):
        T.ThueForm(100003)
    with pytest.raises(TypeError):
        T.ThueForm(7, (1, 1, -2, 0))


def test_degree_ceiling():
    # the ceiling is one constant, degree 7962, and any degree above it,
    # however large, is refused with the same text
    assert T.build_reduced_form(15925).degree == 7962
    assert T.build_reduced_form(15923).degree == 7961
    for n in (15927, 2 * 10**400 + 1):
        with pytest.raises(DomainError, match="over the degree ceiling of 7962$"):
            T.build_reduced_form(n)
    with pytest.raises(DomainError, match="degree 7968 is over the degree ceiling of 7962$"):
        T.build_reduced_form(15937)


def test_convergents_match_exact_signs():
    # convergents to 10^30 against bisection with exact signs from the
    # oracle's own isolation: every root of every form, and on Fhat_691,
    # where the oracle takes about half a second a root, every 43rd
    for form in _isolation_forms():
        convs = form._context(10**30).convergents
        roots = thue_roots(form)
        for i in range(0, form.degree, 43 if form.degree > 100 else 1):
            assert [(p, q) for p, q, j in convs if j == i] == exact_convergents(
                roots[i], 10**30), (form.name, i)


def test_convergents_match_mpmath():
    """Convergents to 10^100 equal those of mpmath's theta_k at 300 digits,
    on sampled roots of Fhat_n, 5 <= n < 42, and Fhat_p, 43 <= p < 400."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    mpmath = pytest.importorskip("mpmath")
    forms = [T.build_reduced_form(n) for n in range(5, 400, 2) if n < 42 or is_prime(n)]

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(st.sampled_from(forms), st.data())
    def agree(form, data):
        i = data.draw(st.integers(0, form.degree - 1))
        k = form.degree - i
        hypothesis.assume(3 * k != form.n)
        got = [(p, q) for p, q, j in _fresh(form)._context(10**100).convergents if j == i]
        with mpmath.workdps(300):
            x = 2 * mpmath.cos(2 * mpmath.pi * k / form.n)
            want, (p0, q0, p1, q1) = [], (1, 0, int(mpmath.floor(x)), 1)
            while q1 <= 10**100:
                want.append((p1, q1))
                x = 1 / (x - mpmath.floor(x))
                a = int(mpmath.floor(x))
                p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        assert got == want, (form.name, k)

    agree()


def test_fhat691_convergents_fast():
    form = T.ThueForm(691)  # a context of its own
    start = time.perf_counter()
    convs = form._context(10**30).convergents
    assert time.perf_counter() - start < 1.0
    assert {i for _, _, i in convs} == set(range(345))


def test_unsettled_convergents_refused(monkeypatch):
    # a root that never settles doubles the precision _REFINEMENTS times
    # from 2 bitlength(x_mid) + 64, one root per precision, then is refused
    dens = []

    def unsettled(lo, hi, den, qmax):
        dens.append(den)

    monkeypatch.setattr(T, "continued_fraction_convergents", unsettled)
    monkeypatch.setattr(T, "_REFINEMENTS", 3)
    with pytest.raises(ArithmeticError, match="unsettled below 624 bits"):
        _fresh(T.build_reduced_form(7))._context(100)
    assert dens == [2**78, 2**156, 2**312]
    # the rational root -1 of Fhat_3 needs no precision: it is its own
    # convergent
    assert _fresh(T.build_reduced_form(3))._context(100).convergents == ((-1, 1, 0),)


def test_legendre_threshold_is_least():
    """x0 is the least x >= 1 with x^(m-2) > 2^m k / 2^min(L_i), checked
    with Fractions at x0 and x0 - 1; at x0 the Legendre condition
    x^(m-2) > 2^m k / |P'(theta_i)| holds for every root, with mpmath's
    closed-form |P'|; degree <= 2 has no threshold."""
    mpmath = pytest.importorskip("mpmath")
    forms = [T.build_reduced_form(n) for n in (3, 5, 7, 9, 11, 13, 15, 17, 31, 101, 691)]
    for form in forms:
        m, ctx = form.degree, form._context(10**4)
        for k in (1, 2, 7, 691, 13**5, 10**20, 10**60):
            x0 = T._legendre_threshold(ctx, k)
            if m <= 2:
                assert x0 is None, form.name
                continue
            bound = Fraction(2**m * k, 2 ** min(ctx.log2_deriv))
            assert x0 >= 1 and x0 ** (m - 2) > bound, (form.name, k)
            assert x0 == 1 or (x0 - 1) ** (m - 2) <= bound, (form.name, k)
            with mpmath.workdps(40):
                for i in range(1, m + 1):
                    _, log = _mp_root_and_log2_derivative(mpmath, form.n, i)
                    assert x0 ** (m - 2) > 2**m * k / mpmath.mpf(2) ** log, (form.name, k, i)


_HANDOFF_FORMS = [T.build_reduced_form(n) for n in (7, 9, 11, 13, 15, 17, 19, 21, 23, 29, 31,
                                                     37, 41)]
# the greatest x_small of the planted points, which bounds the dense oracle
_PLANT_X = 30


def _planted_points(form) -> list[tuple[int, int, int, int]]:
    """(x, y, F(x, y), x0) for every point planted on the form with
    1 <= |x| <= _PLANT_X: lam (q, p) for a convergent p/q of a root, and
    (x, floor(x theta_i) + d), |d| <= 2, each with its negation, kept
    when F(x, y) != 0 has x0 <= _PLANT_X.  L_i, so x0, is the same at
    every x_mid up to _PLANT_X."""
    ctx = form._context(_PLANT_X)
    points = {(lam * q, lam * p) for p, q, _ in ctx.convergents
              for lam in range(1, _PLANT_X // q + 1)}
    points |= {(x, (lo * x >> ctx.w) + d) for lo, _ in ctx.roots
               for x in range(1, _PLANT_X + 1) for d in range(-2, 3)}
    out = []
    for x, y in sorted(points | {(-x, -y) for x, y in points}):
        rhs = form_value(form.coeffs, x, y)
        if rhs and (x0 := T._legendre_threshold(ctx, abs(rhs))) <= _PLANT_X:
            out.append((x, y, rhs, x0))
    return out


def test_solutions_past_threshold_found():
    """Past x_e = x0 - 1 only the convergent phase searches.  The
    solutions F_6(5, 1) = 1 and F_6(9, 14) = -1 lie past x0 = 5 and are
    found; on right sides planted anywhere up to x_small >= x0,
    solve_bounded equals the dense oracle up to x_small."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    fhat7 = T.build_reduced_form(7)
    for rhs, sol in ((1, (5, 1)), (-1, (9, 14))):
        res = T.solve_unreduced(fhat7, rhs, 40, 40)
        assert (res.certificate["x0"], res.certificate["x_exhaustive"]) == (5, 4)
        assert sol in res.solutions
        assert list(res.solutions) == dense_thue_solutions(f2m_coeffs(3), [rhs], 40)[rhs]
    planted_points = {form: _planted_points(form) for form in _HANDOFF_FORMS}

    # x_small is drawn after the point, from max(x0, |x|, 3) up, so that
    # x0 <= x_small holds by construction
    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(st.sampled_from(_HANDOFF_FORMS), st.data())
    def planted(form, data):
        x, y, rhs, x0 = data.draw(st.sampled_from(planted_points[form]))
        x_small = data.draw(st.integers(max(x0, abs(x), 3), _PLANT_X))
        res = T.solve_bounded(form, rhs, x_small, x_small)
        assert res.certificate["x_exhaustive"] == x0 - 1
        assert list(res.solutions) == dense_thue_solutions(
            form.coeffs, [rhs], x_small)[rhs], (form.name, rhs)
        assert (x, y) in res.solutions

    planted()


def test_close_proven_to():
    """The Thue closure is proven to x_mid once the scan reached x0 - 1 or
    there is no x0 (degree 2), else to the scanned x_exhaustive alone; it
    carries the solutions of F_{n-1} = rhs and the catalog row of (n, rhs)."""
    fhat7 = T.build_reduced_form(7)
    for rhs, x_small, want in ((7, 28, 10000), (7, 27, 27), (7, 10000, 10000), (13, 0, 0)):
        closure = T.close(fhat7, SearchBounds(x_max=0, x_small=x_small, x_mid=10000), rhs)
        assert closure["proven_to"] == want, (rhs, x_small)
        res = T.solve_unreduced(fhat7, rhs, x_small, 10000)
        assert closure["points"] == res.solutions
        assert closure["certificate"] == dict(
            res.certificate, note="solved through the reduced form; solutions mapped back")
    assert closure["row"] == dict(catalog.entry("thue_tables.json", d=7, D=13),
                                  source="bounded search via reduced form Fhat_7 + solution catalog")
    closure = T.close(T.build_reduced_form(5), SearchBounds(x_max=0, x_small=0, x_mid=100), 11)
    assert closure["certificate"]["x0"] is None and closure["proven_to"] == 100
    assert closure["row"] is None
