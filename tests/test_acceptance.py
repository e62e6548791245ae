"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines as the
criteria complete.  Every tolerance is pinned here; nothing is deferred.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

from tauhunt import catalog, curves, lehmer, lucas, newform, thue
from tauhunt.arith import factor, is_prime, primes_up_to
from oracles import (brute_force_defect_indices, defect_candidate_as, f2m_coeffs, form_value,
                     lucas_pell_points)

DISPLAYED_LEHMER_PRIME = 80561663527802406257321747


def _ok(num: int, label: str, detail: str = ""):
    print(f"[criterion {num:2d}] PASS  {label}" + (f"  ({detail})" if detail else ""))


def sigma_sieve(bound, nu):
    out = [0] * (bound + 1)
    for d in range(1, bound + 1):
        step = d**nu
        for k in range(d, bound + 1, d):
            out[k] += step
    return out


def test_criterion_01_tau_expansion():
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "tauhunt.cli", "tau", "--up-to", "5"],
        capture_output=True, text=True,
    )
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == [1, -24, 252, -1472, 4830]
    assert elapsed < 1.0, f"tau --up-to 5 took {elapsed:.2f}s"
    _ok(1, "tau --up-to 5 reproduces the displayed coefficients", f"{elapsed:.2f}s")


def test_criterion_02_lehmer_prime_value():
    t0 = time.monotonic()
    spec = newform.delta_newform(300)
    value = newform.coeff_prime_power(spec, 251, 2)
    # the classical example quotes the prime as a positive integer; exact
    # Hecke arithmetic gives tau(251^2) itself as the negative of it
    # (tau(251)^2 = 1.69e26 < 251^11 = 2.49e26), see the decisions ledger
    assert value == -DISPLAYED_LEHMER_PRIME
    assert abs(value) == DISPLAYED_LEHMER_PRIME
    f = factor(value)
    assert f == ((DISPLAYED_LEHMER_PRIME, 1),)
    assert is_prime(abs(value))
    assert sum(e for _, e in f) == 1 == lehmer.omega_lower_bound(spec, 251**2)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _ok(2, "tau(251^2) = -(the displayed 26-digit prime), certified prime, Omega = 1",
        f"{elapsed:.2f}s")


def test_criterion_03_congruence_suite():
    bound = 10**4
    series = newform.delta_expansion(bound)
    s1 = sigma_sieve(bound, 1)
    s3 = sigma_sieve(bound, 3)
    s11 = sigma_sieve(bound, 11)
    violations = 0
    for n in range(1, bound + 1):
        t = series[n - 1]
        if (t - s11[n]) % 691 or (t - n * n * s1[n]) % 9 or (t - n * s1[n]) % 5 \
                or (t - n * s3[n]) % 7:
            violations += 1
    assert violations == 0
    _ok(3, f"all four classical congruences hold for n <= {bound}")


def test_criterion_04_defect_closure():
    """Exhaustive defect closure for B = p^(2k-1), p <= 50, 2k in 4..12,
    |A| <= 2 sqrt(B).

    Blind per-pair scanning of that domain (~10^10 pairs) is far outside
    any time budget, so the exhaustion is algebraic: a defective u_n has
    |Phi_n| pinned to an explicitly finite target set (see tests/oracles),
    and the complete candidate list is the set of exact integer solutions
    of those equations.  Every candidate is then settled by the direct
    primitive-part computation and compared against classify_defects;
    every non-candidate provably has no defect.  The blind full scans of
    every exponent-3 stratum cross-validate the reduction and compare
    classify_defects on the non-candidates too.
    """
    t0 = time.monotonic()
    pairs_checked = 0
    for p in primes_up_to(50):
        for e in (3, 5, 7, 9, 11):
            B = p**e
            for a in sorted(defect_candidate_as(p, e)):
                if a * a > 4 * B:
                    continue
                for A in (a, -a):
                    pair = lucas.LucasPair(A, B)
                    pairs_checked += 1
                    brute = brute_force_defect_indices(pair)
                    recs = lucas.classify_defects(pair)
                    assert brute == [r["n"] for r in recs], (A, B, brute, recs)
                    terms = lucas.lucas_terms(pair, 30)
                    for r in recs:
                        assert r["value"] == terms[r["n"] - 1]
    # blind cross-validation of the reduction: full scans at exponent 3
    blind = 0
    for p in primes_up_to(50):
        B = p**3
        cands = defect_candidate_as(p, 3)
        for a in range(1, math.isqrt(4 * B) + 1):
            if math.gcd(a, p) != 1 or a * a in (B, 2 * B, 3 * B, 4 * B):
                continue
            pair = lucas.LucasPair(a, B)
            brute = brute_force_defect_indices(pair)
            blind += 1
            if brute:
                assert a in cands, (a, B, brute)
            assert brute == [r["n"] for r in lucas.classify_defects(pair)]
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"defect closure took {elapsed:.1f}s"
    _ok(4, "computed classification == primitive-divisor brute force on the whole domain",
        f"{pairs_checked} candidate pairs, {blind} blind pairs, {elapsed:.1f}s")


def test_criterion_05_thue_tables():
    t0 = time.monotonic()
    rows = catalog.load("thue_tables.json")["rows"]
    # (a) every cataloged solution evaluates to its right-hand side, on
    #     F_{d-1}'s own coefficients and on Fhat_d(X, Y - 2X)
    for row in rows:
        form = thue.build_reduced_form(row["d"])
        for x, y in row["points"]:
            assert form_value(f2m_coeffs(form.degree), x, y) == row["D"]
            assert thue.evaluate(form, x, y - 2 * x) == row["D"]
    # (b) every empty row is exhaustively empty for |x| <= 100, and every
    #     nonempty row's solutions within that range are exactly the listed
    #     ones, solved through Fhat_d (|x| <= 10 on the degree-345 rows)
    for row in rows:
        bound = 10 if row["d"] == 691 else 100
        form = thue.build_reduced_form(row["d"])
        got = thue.solve_unreduced(form, row["D"], x_small=bound, x_mid=bound).solutions
        want = tuple(sorted(tuple(s) for s in row["points"] if abs(s[0]) <= bound))
        assert got == want, (row["d"], row["D"], got, want)
    # (c) pruning agrees with the exhaustive scan on F_6 up to 10^3
    fhat7 = thue.build_reduced_form(7)
    for rhs in (7, -7, 13, -13, 29, -29):
        full = thue.solve_unreduced(fhat7, rhs, x_small=1000, x_mid=1000)
        pruned = thue.solve_unreduced(fhat7, rhs, x_small=50, x_mid=1000)
        assert full.solutions == pruned.solutions
    elapsed = time.monotonic() - t0
    _ok(5, "solution catalogs verified; emptiness and pruning are bounded checks",
        f"{elapsed:.1f}s")


def test_criterion_06_curve_tables():
    t0 = time.monotonic()
    rep = curves.verify_tables(100000)
    elapsed = time.monotonic() - t0
    assert rep["all_consistent"], [r for r in rep["rows"] if r["status"] == "discrepancy"]
    assert rep["summary"]["discrepancy"] == 0
    assert rep["summary"]["conditional-grh"] == 24
    assert rep["summary"]["unknown"] == 2
    assert elapsed < 300.0, f"verify_tables took {elapsed:.1f}s"
    _ok(6, "all catalog points verified, no unlisted points within 1e5; "
           "GRH rows conditional, open cells unknown", f"{elapsed:.1f}s")


def test_criterion_07_theorem_reproduction():
    t0 = time.monotonic()
    spec = newform.delta_newform(1000)
    bounds = lehmer.SearchBounds()  # defaults: 1e5 / 1e3 / 1e4
    statuses = {}
    for target in lehmer.THEOREM_TARGETS:
        if abs(target) == 1:
            assert lehmer.unit_set(spec) == (1,)
            statuses[target] = "EXCLUDED_WITHIN_BOUNDS"
            continue
        sign = 1 if target > 0 else -1
        (ell, m), = factor(target)
        rep = lehmer.check_admissibility(spec, ell, m, sign, bounds)
        statuses[target] = rep["status"]
        assert not rep["grh_conditional"], target
        for v in rep["conditions"]:
            assert v["mode"] in ("fixture+search", "search", "congruence-excluded")
            assert v["mode"] == "congruence-excluded" or v["certificate"]
            for d in v["dispositions"]:
                assert d["status"] == "filtered", (target, d)
    assert set(statuses.values()) == {"EXCLUDED_WITHIN_BOUNDS"}
    assert set(statuses) == set(lehmer.THEOREM_TARGETS)
    elapsed = time.monotonic() - t0
    _ok(7, f"all {len(lehmer.THEOREM_TARGETS)} targets excluded within default bounds, "
           "unconditionally", f"{elapsed:.1f}s")


def test_criterion_07_theorem_reproduction_deep_x_mid():
    # reproduce thm1.2 with every Thue condition certified to x_mid = 10^30:
    # the output is pinned, and the bound skips all but the small-q
    # convergents, so it runs in about twice the default sweep's time
    # (9 s when every convergent past q ~ 2^22 was evaluated exactly)
    src = str(Path(thue.__file__).parent.parent)
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "tauhunt.cli", "reproduce", "thm1.2",
                           "--x-mid", str(10**30)], capture_output=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    elapsed = time.monotonic() - t0
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "cd22922dbc0b2920032c5f965781ef1d9fe87a9ac73f7213d3ea855b62f1f236")
    assert json.loads(proc.stdout)["all_excluded_within_bounds"] is True
    assert elapsed < 5
    _ok(7, "theorem targets excluded with Thue conditions to x_mid = 10^30", f"{elapsed:.1f}s")


def test_criterion_08_criterion_identities():
    spec = newform.delta_newform(60)
    for p in primes_up_to(50):
        B = p**11
        a1 = newform.coeff_prime_power(spec, p, 1)
        a2 = newform.coeff_prime_power(spec, p, 2)
        a4 = newform.coeff_prime_power(spec, p, 4)
        assert a1 * a1 == B + a2                                   # d = 3
        assert a4 == a1**4 - 3 * a1**2 * B + B * B                 # d = 5
        assert 5 * B * B + 4 * a4 == (2 * a1 * a1 - 3 * B) ** 2    # exact identity
        for m in range(1, 7):
            F = thue.build_reduced_form(2 * m + 1)  # F_{2m}(B, a^2) = Fhat_{2m+1}(B, a^2 - 2B)
            assert thue.evaluate(F, B, a1 * a1 - 2 * B) == newform.coeff_prime_power(
                spec, p, 2 * m)
    _ok(8, "all three coefficient-to-point identities hold exactly for p <= 50, m <= 6")


def test_criterion_09_constants():
    from fractions import Fraction
    from tauhunt import bounds as B

    t_cases = {
        (1, 3, 1): (2, 10**32), (1, 3, 2): (2, 10**32),
        (-1, 3, 1): (2, 10**23), (-1, 3, 2): (2, 10**13),
        (1, 5, 1): (3, 10**24), (-1, 5, 1): (3, 10**24),
        (1, 5, 2): (3, 10**30), (-1, 5, 2): (3, 10**13),
    }
    # T(eps, ell, m), the exponent threshold for X^2 + eps ell^m = Y^n, is
    # M(-eps, ell, m) in every case
    for (eps, ell, m), (a, c) in t_cases.items():
        assert B.weight_bound_M(-eps, ell, m)["coefficients"] == [str(a), str(c), "0"]
    m_cases = {
        (1, 3, 1): (2, 10**23), (1, 3, 2): (2, 10**13),
        (-1, 3, 1): (2, 10**32), (-1, 3, 2): (2, 10**32),
        (1, 5, 1): (3, 10**24), (-1, 5, 1): (3, 10**24),
        (1, 5, 2): (3, 10**13), (-1, 5, 2): (3, 10**30),
    }
    for (sign, ell, m), (a, c) in m_cases.items():
        assert B.weight_bound_M(sign, ell, m)["coefficients"] == [str(a), str(c), "0"]
    assert B.weight_bound_M(-1, 3, 1, pre_rounding=True)["coefficients"] == [
        str(Fraction(8, 5)), str(94 * 10**30), str(14 * 10**30)]
    _ok(9, "the threshold case tables T and M match symbolically")


def test_criterion_10_pell_lucas_split():
    plus = lucas_pell_points(1, 100)
    minus = lucas_pell_points(-1, 100)
    assert plus == [1, 4, 11, 29, 76]
    assert minus == [2, 3, 7, 18, 47]
    assert sorted(plus + minus) == [1, 2, 3, 4, 7, 11, 18, 29, 47, 76]
    _ok(10, "Pell-power streams merge to the classical Lucas sequence up to 100")
