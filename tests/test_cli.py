import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from oracles import (curve_points, dense_thue_solutions, f2m_coeffs, form_value, sieved_primes,
                     tau_series)
from tauhunt import cli, newform, thue
from tauhunt.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_tau(capsys):
    code, out = run_cli(["tau", "--up-to", "5"], capsys)
    assert code == 0
    assert json.loads(out) == [1, -24, 252, -1472, 4830]


def test_tau_output_pinned(capsys):
    code, out = run_cli(["tau", "--up-to", "100000"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cad017ab0e324df5cbed035ee8f3b79aa7ecbf10b4e5572644dfbae7654e8dbe")


@pytest.mark.parametrize("argv, digest", [
    (["verify-tables", "--xmax", "100000"],
     "829ba9d67c16b32f1278aec14a112260a21266f2ca4b4bd667f4d2f6c875787d"),
    (["reproduce", "thm1.2"],
     "171a655c46951221884c4b56fa66483e7a253f4baad7e978c5c62f0ba71b6a7e"),
], ids=["verify-tables", "reproduce"])
def test_default_outputs_pinned(argv, digest, capsys):
    # the two headline runs at their default bounds, byte for byte
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("target, digest", [
    ("-7", "8665acff487e2491032a8c4cf085b5dbecb5f92d67e44bf7af5b23631a8f40c7"),
    ("11", "eaf4d0e80365d09592c8b9dd594bc64dde112a7855dcbf5097c6de50102469d0"),
    ("41", "dd81a83af4b52e6497351cd009a9928e074428c390c94b001d74055bbafcd1ef"),
    ("9", "073ea59bc87292327c27e92b75c0ec3e0a02feffa04d824540f6a011ff9790c4"),
    ("7645373", "2725fddaba163b7feb788763f1b1a21c35721697e02a7cd2cd4325e22baf907a"),
])
def test_admissible_outputs_pinned(target, digest, capsys):
    # admissible at default bounds, byte for byte: a congruence-excluded
    # condition (-7), an H curve searched with no catalog row (11), GRH
    # catalog rows (41), m > 1 (9 = 3^2) and a Thue condition proven only
    # to its scanned x_exhaustive, below x_mid (197^3)
    code, out = run_cli(["admissible", "--target", target], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_tau_bound_refused(capsys):
    start = time.perf_counter()
    code = main(["tau", "--up-to", "100000000"])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_coeff(capsys):
    code, out = run_cli(["coeff", "--n", "63001"], capsys)
    assert code == 0
    assert json.loads(out)["coefficient"] == -80561663527802406257321747


@pytest.mark.parametrize("n", [1009, 3 * 1013, 100003])
def test_coeff_prime_above_stored_eigenvalues(n, capsys):
    code, out = run_cli(["coeff", "--n", str(n)], capsys)
    assert code == 0
    assert json.loads(out)["coefficient"] == newform.delta_expansion(n)[-1]


def test_coeff_keeps_one_sieve(capsys):
    # stored eigenvalues are added per prime of n, not by a sieve up to it
    from tauhunt.arith import primes_up_to

    sizes = []
    for p in (1009, 2003, 5003, 10007, 20011):
        code, out = run_cli(["coeff", "--n", str(3 * p)], capsys)
        assert code == 0
        assert json.loads(out)["coefficient"] == 252 * newform.delta_expansion(p)[-1]
        sizes.append(primes_up_to.cache_info().currsize)
    assert sizes == sizes[:1] * 5


def test_coeff_1009_value(capsys):
    code, out = run_cli(["coeff", "--n", "1009"], capsys)
    assert json.loads(out)["coefficient"] == -14140474408719790


def test_coeff_prime_past_tau_bound(capsys):
    assert main(["coeff", "--n", "1000003"]) == 1
    assert "error: no a_f(1000003) stored" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["coeff", "--n", str(2**3000)],
    ["lucas", "--a", "1", "--b", "2", "--count", "30000"],
    ["lucas", "--a", "1", "--b", "2", "--count", "1000000000"],
])
def test_too_long_integers_refused(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_lucas_verb(capsys):
    code, out = run_cli(["lucas", "--a", "1", "--b", "2", "--count", "7", "--ell", "7"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [1, 1, -1, -3, -1, 5, 7]
    assert data["rank_of_apparition"]["rank"] == 7
    assert data["defects"][:3] == [{"n": 3, "value": -1}, {"n": 5, "value": -1},
                                   {"n": 7, "value": 7}]
    assert [d["n"] for d in data["defects"]] == [3, 5, 7, 8, 12, 13, 18, 30]


def test_lucas_refused_at_first_long_term(capsys):
    # u_28570 of (1, 2) is the first term past 4,300 digits: refused while
    # the terms are built, not after they are encoded
    start = time.perf_counter()
    code = main(["lucas", "--a", "1", "--b", "2", "--count", "28570"])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: u_28570 has more than 4300 digits")


def test_thue_gen_and_solve(capsys):
    code, out = run_cli(["thue-gen", "--m", "3"], capsys)
    assert code == 0
    assert json.loads(out)["coeffs_by_x_power"] == [1, -5, 6, -1]
    code, out = run_cli(
        ["thue-solve", "--m", "3", "--rhs", "7", "--x-small", "50", "--x-mid", "60"], capsys
    )
    data = json.loads(out)
    assert data["solutions"] == [[-3, -5], [1, 4], [2, 1]]
    assert data["bounds"] == {"x_small": 50, "x_mid": 60}


def test_thue_verbs_match_golden_table(capsys):
    """thue-gen and thue-solve print the bytes and exit with the codes of
    the solver that held F_2m as a form family of its own: --m in 1..60
    and 100, 345, 400, 4000, 7962 and 7963 (over the ceiling), the refused
    --m 0 and -1, and --reduced-p 3, 5, 7, 9, 691 and 15923; thue-solve
    at four right sides and the bounds (0, 50), (10, 200) and
    (1000, 10000)."""
    table = json.loads((Path(__file__).parent / "thue_cli_golden.json").read_text())["calls"]
    assert len(table) == 962
    for call, want in table.items():
        code, out = run_cli(call.split(), capsys)
        assert [code, hashlib.sha256(out.encode()).hexdigest()[:16]] == want, call


@pytest.mark.parametrize("argv, message", [
    (["thue-gen", "--m", "0"], "F_{2m} needs n = 2m + 1 with m >= 1"),
    (["thue-solve", "--m", "-1", "--rhs", "7"], "F_{2m} needs n = 2m + 1 with m >= 1"),
    (["thue-gen", "--reduced-p", "9"], "p must be an odd prime"),
    (["thue-solve", "--reduced-p", "1", "--rhs", "7"], "p must be an odd prime"),
    (["thue-solve", "--m", "1", "--rhs", "7"],
     "Fhat_3 is linear: its solutions form a line, not a finite set"),
])
def test_thue_form_refusals(argv, message, capsys):
    # --m takes any m >= 1, n = 2m + 1 prime or not; --reduced-p a prime
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_curve_search(capsys):
    code, out = run_cli(
        ["curve-search", "--family", "H", "--d", "3", "--ell", "11", "--sign", "plus",
         "--xmax", "100"], capsys)
    data = json.loads(out)
    assert data["points"] == [[-7, 767], [-1, 7], [1, 7], [7, 767]]


def test_admissible(capsys):
    code, out = run_cli(
        ["admissible", "--target", "-3",
         "--xmax", "3000", "--x-small", "100", "--x-mid", "200"], capsys)
    data = json.loads(out)
    assert code == 0
    assert data["status"] == "EXCLUDED_WITHIN_BOUNDS"
    assert data["target"] == -3


# statuses, raw hits, dispositions and bound keys of admissible --target 4001
# at default bounds, as the coefficient-building solver gave them
_ADMISSIBLE_4001 = {
    "status": "EXCLUDED_WITHIN_BOUNDS", "grh_conditional": False,
    "bounds": {"x_max": 100000, "x_mid": 10000, "x_small": 1000},
    "conditions": [
        {"d": 3, "mode": "search", "raw_hits": [], "dispositions": [], "bounds": {"x_max": 100000}},
        {"d": 5, "mode": "search", "raw_hits": [], "dispositions": [], "bounds": {"x_max": 100000}},
        {"d": 23, "mode": "search", "raw_hits": [], "dispositions": [],
         "bounds": {"x_mid": 10000, "x_small": 1000}},
        {"d": 29, "mode": "search", "raw_hits": [], "dispositions": [],
         "bounds": {"x_mid": 10000, "x_small": 1000}},
        {"d": 4001, "mode": "search", "raw_hits": [[-1, -4], [1, 4]],
         "dispositions": ["filtered", "filtered"], "bounds": {"x_mid": 10000, "x_small": 1000}},
    ],
}


def test_admissible_4001_fast(capsys):
    # Fhat_4001 has degree 2000: each convergent it evaluates exactly is
    # one Lucas ladder; Horner runs over its 2001 binomials took 34 s
    start = time.perf_counter()
    code, out = run_cli(["admissible", "--target", "4001"], capsys)
    assert time.perf_counter() - start < 15
    assert code == 0
    report = json.loads(out)
    got = {
        "status": report["status"],
        "grh_conditional": report["grh_conditional"],
        "bounds": report["bounds"],
        "conditions": [
            {"d": c["d"], "mode": c["mode"], "raw_hits": c["raw_hits"],
             "dispositions": [x["status"] for x in c["dispositions"]],
             "bounds": {k: v for k, v in c["certificate"].items()
                        if k in ("x_max", "x_small", "x_mid")}}
            for c in report["conditions"]
        ],
    }
    assert got == _ADMISSIBLE_4001


def test_admissible_catalog_point_beyond_bound(capsys):
    # the cataloged point (2, 45) on Y^2 = X^11 - 23 lies outside |x| <= 1
    code, out = run_cli(
        ["admissible", "--target", "-23", "--xmax", "1", "--x-small", "1", "--x-mid", "2"],
        capsys)
    assert code == 0
    d3 = next(c for c in json.loads(out)["conditions"] if c["d"] == 3)
    assert d3["mode"] == "fixture+search" and d3["raw_hits"] == []


def test_catalog_discrepancy_reported(data_dir, capsys):
    path = data_dir / "curve_tables.json"
    table = json.loads(path.read_text())
    row = next(r for r in table["rows"]
               if (r["family"], r["w"], r["ell"], r["sign"]) == ("C", 11, 23, -1))
    row["points"] = []                           # drop (2, 45) from Y^2 = X^11 - 23
    path.write_text(json.dumps(table))
    code, out = run_cli(["verify-tables", "--xmax", "100"], capsys)
    assert code == 0
    row = next(r for r in json.loads(out)["rows"] if r["curve"] == "C-[11,23^1]")
    assert row["status"] == "discrepancy"
    code, out = run_cli(
        ["admissible", "--target", "-23", "--xmax", "100", "--x-small", "20", "--x-mid", "40"],
        capsys)
    assert code == 0
    d3 = next(c for c in json.loads(out)["conditions"] if c["d"] == 3)
    assert d3["mode"] == "search" and d3["grh_conditional"] is False
    assert d3["raw_hits"] == [[2, 45]]
    assert d3["certificate"]["catalog_discrepancy"] == {
        "bound": 100, "listed": [], "found": [[2, 45]]}


def test_constants_beyond_int64(capsys):
    code, out = run_cli(["admissible", "--target", str(-(3**45))], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "EXCLUDED_WITHIN_BOUNDS"
    # Y^2 = X^3 + 3^42, constant above 2^63
    code, out = run_cli(
        ["curve-search", "--family", "C", "--d", "2", "--ell", "3", "--sign", "plus",
         "--m", "42", "--xmax", "2000"], capsys)
    assert code == 0
    points = [tuple(p) for p in json.loads(out)["points"]]
    assert points == curve_points(1, 3, 3**42, 2000) and (0, 3**21) in points


def test_bound_flags_per_verb(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["thue-solve", "--m", "3", "--rhs", "7", "--xmax", "5"])
    assert exc.value.code == 2
    for verb in (["verify-tables"],
                 ["curve-search", "--family", "C", "--d", "2", "--ell", "3", "--sign", "plus"]):
        with pytest.raises(SystemExit) as exc:
            main(verb + ["--x-small", "5"])
        assert exc.value.code == 2
    capsys.readouterr()


def test_curve_search_rejects_bad_prime_power(capsys):
    base = ["curve-search", "--family", "C", "--d", "2", "--sign", "plus", "--xmax", "3"]
    for extra in (["--ell", "3", "--m", "0"], ["--ell", "4"]):
        assert main(base + extra) == 1
        assert "error:" in capsys.readouterr().err
    assert main(["curve-search", "--family", "H", "--d", "2", "--ell", "9", "--sign", "minus",
                 "--xmax", "3"]) == 1


def test_admissible_rejects_composite(capsys):
    code = main(["admissible", "--target", "-15"])
    assert code == 1


def test_omega_bound(capsys):
    code, out = run_cli(["omega-bound", "--n", "63001"], capsys)
    assert json.loads(out)["omega_lower_bound"] == 1


def test_omega_bound_reads_what_coeff_reads(capsys):
    # 1009^2: a_f(1009) is not stored, and omega-bound reads tau(1009) as coeff does
    code, out = run_cli(["omega-bound", "--n", "1018081"], capsys)
    assert code == 0 and json.loads(out)["omega_lower_bound"] == 1
    # past the tau bound it is refused with coeff's message
    assert main(["omega-bound", "--n", str(1000003**2)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error: no a_f(1000003) stored" in captured.err


# a_f(3) = 0, so a_f(3^e) = 0 for every odd e
_ZERO_AT_3 = '{"weight": 4, "level": 1, "ap": {"3": 0}, "trivial_mod2": true}'


@pytest.mark.parametrize("text, argv, want", [
    ('{"weight": 8000, "level": 1, "ap": {"3": 2}}', ["--n", "9"], 1),
    ('{"weight": 4, "level": 4}', ["--n", "32"], None),
    ('{"weight": 4, "level": 9}', ["--n", "3"], None),
    (_ZERO_AT_3, ["--n", "3"], None),
    (_ZERO_AT_3, ["--n", "27"], None),
    (_ZERO_AT_3, ["--n", "9"], 1),  # a_f(9) = -27, Omega 3
    # a_f(27) = a_f(3)^3 - 2 * 27 a_f(3) = -53, a prime: the unit
    # a_f(3) = 1 counts for no prime factor
    ('{"weight": 4, "level": 1, "ap": {"3": 1}}', ["--n", "27"], 1),
    # a_f(3) = 7 is prime: a stored eigenvalue at an exactly dividing
    # prime counts once it is no unit
    ('{"weight": 4, "level": 1, "ap": {"3": 7}}', ["--n", "3"], 1),
])
def test_omega_bound_specs(text, argv, want, tmp_path, capsys):
    # a long p^(w-1) is bounded as a short one; a zero coefficient is refused,
    # from a square dividing the level or a stored a_f(p) = 0 at an odd
    # power of p
    spec = tmp_path / "form.json"
    spec.write_text(text)
    argv = ["--spec", str(spec)] + argv
    if want is None:
        assert main(["omega-bound"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "= 0, as" in captured.err
        code, out = run_cli(["coeff"] + argv, capsys)
        assert code == 0 and json.loads(out)["coefficient"] == 0
    else:
        code, out = run_cli(["omega-bound"] + argv, capsys)
        assert code == 0 and json.loads(out)["omega_lower_bound"] == want


def test_spec_named_delta_reads_tau(tmp_path, capsys):
    # a --spec of weight 12, level 1 named delta reads tau(p) past its ap,
    # as the built-in form does
    spec = tmp_path / "delta.json"
    spec.write_text('{"weight": 12, "level": 1, "ap": {"2": -24}, "name": "delta"}')
    code, out = run_cli(["coeff", "--spec", str(spec), "--n", "1009"], capsys)
    assert code == 0 and json.loads(out)["coefficient"] == -14140474408719790


def test_decompose(capsys):
    code, out = run_cli(["decompose", "--target", "-15"], capsys)
    assert len(json.loads(out)["scenarios"]) == 2


def test_trivial_mod2_with_odd_eigenvalue(tmp_path, capsys):
    spec = tmp_path / "odd.json"
    spec.write_text('{"weight": 4, "level": 5, "ap": {"3": 1, "7": 3}, "trivial_mod2": true}')
    code, out = run_cli(["coeff", "--spec", str(spec), "--n", "21"], capsys)
    assert code == 0 and json.loads(out)["coefficient"] == 3
    for args in (["omega-bound", "--n", "21"], ["admissible", "--target", "3"]):
        assert main(args + ["--spec", str(spec)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err


def test_decompose_large_exponent(capsys):
    start = time.perf_counter()
    code, out = run_cli(["decompose", "--target", str(3**18)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and len(json.loads(out)["scenarios"]) == 6130


def test_decompose_over_budget_refused(capsys):
    # 3^28 splits into 163,075 scenarios, about 1.8 GiB if all were built;
    # the exponent of 3^100 alone has 190,569,292 partitions
    for target in (3**28, 3**100):
        start = time.perf_counter()
        code = main(["decompose", "--target", str(target)])
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:")
        assert "more than 10000 scenarios" in captured.err


def _keeps_contract(argv, capsys):
    """The contract of every fuzzed verb: exit 0 with JSON on stdout, or
    exit 1 with an error: line and an empty stdout, within 5 s.  Returns
    the answer, or None for a refusal."""
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert elapsed < 5.0, argv
    if code == 0:
        return json.loads(captured.out)
    assert code == 1 and captured.out == "", argv
    assert captured.err.startswith("error:"), argv
    return None


def test_lookup_verbs_fuzz(capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    small = sieved_primes(10**5)

    def values(prime, random_values):
        return st.one_of(
            st.sampled_from((0, 1, -1)),
            random_values.map(lambda n: 2 * n),
            st.tuples(prime, st.integers(1, 40)).map(lambda pe: pe[0] ** pe[1]),
            st.tuples(prime, prime).map(lambda pq: pq[0] * pq[1]),
            random_values,
        ).flatmap(lambda n: st.sampled_from((n, -n)))

    random_values = st.integers(0, 10**18)
    # a prime beyond those stored extends the tau series up to it, so coeff
    # takes values whose prime factors lie below 10^5
    smooth = st.lists(st.sampled_from(small), min_size=1, max_size=6).map(math.prod)
    st_prime = st.sampled_from(small) | st.sampled_from(sieved_primes(1 << 22)[-1000:])

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.one_of(
        st.tuples(st.just(("omega-bound", "--n")), values(st_prime, random_values)),
        st.tuples(st.just(("decompose", "--target")), values(st_prime, random_values)),
        st.tuples(st.just(("coeff", "--n")), values(st.sampled_from(small), smooth)),
    ))
    def check(case):
        (verb, flag), value = case
        _keeps_contract([verb, f"{flag}={value}"], capsys)

    check()


def test_tau_fuzz(capsys, monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    ref = tau_series(20000)
    edges = st.sampled_from((-1, 0, 1, 2, 4095, 4096, 4097, newform.MAX_TAU_BOUND + 1))

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(edges | st.integers(-2, 20000))
    def check(n):
        monkeypatch.setattr(newform, "_DELTA_CACHE", [])  # each answer is expanded afresh
        answer = _keeps_contract(["tau", f"--up-to={n}"], capsys)
        assert answer is None if n < 1 or n > newform.MAX_TAU_BOUND else answer == list(ref[:n])

    check()


def test_thue_solve_linear_budget(capsys):
    start = time.perf_counter()
    code = main(["thue-solve", "--m", "1", "--rhs", "7", "--x-small", "1",
                 "--x-mid", "100000000"])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("x_small", ["0", "10", "1000"])
def test_thue_solve_degree2_scans_to_x_mid(x_small, capsys):
    # Fhat_5 = Y^2 + XY - X^2 has no Legendre threshold, so every x_small
    # scans to x_mid and finds the same 56 solutions
    code, out = run_cli(["thue-solve", "--reduced-p", "5", "--rhs", "11",
                         "--x-small", x_small, "--x-mid", "1000"], capsys)
    data = json.loads(out)
    assert code == 0 and len(data["solutions"]) == 56
    assert data["certificate"]["x_exhaustive"] == 1000
    # no convergent is looked at, so the method names the scan alone
    assert data["certificate"]["method"] == "exhaustive scan"
    assert "midsize" not in data["certificate"]
    assert all(thue.evaluate(thue.build_reduced_form(5), x, y) == 11 for x, y in data["solutions"])


def test_thue_solve_work_budget(capsys):
    # x_small = 2^38 - 1 bounds the scan by about 5*10^12 candidates, days of work
    start = time.perf_counter()
    code = main(["thue-solve", "--m", "2", "--rhs", "7", "--x-small", "274877906943",
                 "--x-mid", "274877906943"])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_thue_solve_root_step_budget(capsys):
    # Fhat_7 = 2 * 10^6 has x0 = 8 * 10^6 + 1, so the scan would take
    # every x to 8 * 10^6: 2.4 * 10^7 root steps, over the cap
    start = time.perf_counter()
    code = main(["thue-solve", "--reduced-p", "7", "--rhs", "2000000",
                 "--x-small", str(10**10), "--x-mid", str(10**13)])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: exhaustive Thue scan of 8000000 x values")
    assert f"24000000 root steps, more than the cap of {thue._SCAN_ROOT_STEPS}" in captured.err


def test_thue_solve_long_rhs_root_steps(capsys):
    # Fhat_2003 = 1000^1001 + 1 (3,004 digits) has x0 = 2019: 2018 x values
    # at 1001 roots are 2.0 * 10^6 quotients, under the cap, but each
    # numerator has over 11,000 bits, and the scan took 62 s on a 2-vCPU
    # Xeon; counted by its length, it is refused before its first x
    start = time.perf_counter()
    code = main(["thue-solve", "--reduced-p", "2003", "--rhs", str(1000**1001 + 1),
                 "--x-small", "10000", "--x-mid", "10000"])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: exhaustive Thue scan of 2018 x values")
    steps = int(captured.err.split(": ")[-1].split()[0])
    assert steps > 20 * 2018 * 1001 and steps > thue._SCAN_ROOT_STEPS
    assert captured.err.endswith(f"root steps, more than the cap of {thue._SCAN_ROOT_STEPS}\n")


@pytest.mark.parametrize("argv", [
    ["thue-gen", "--m", "100000"],
    ["thue-solve", "--reduced-p", "100003", "--rhs", "7"],
    # Fhat_20011 (degree 10005) is over the degree ceiling; Fhat_5003 of
    # the same target must not be searched first
    ["admissible", "--target", "20011"],
    # Fhat_ell is refused before ell (ell^2 - 1) is factored (seconds)
    ["admissible", "--target", "999999999999999989"],
])
def test_thue_degree_budget(argv, capsys):
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "error:" in captured.err and "over the degree ceiling" in captured.err


def test_curve_search_work_budget(capsys):
    for args in (["curve-search", "--family", "C", "--d", "2", "--ell", "3", "--sign", "plus",
                  "--xmax", "1000000000000"],
                 ["verify-tables", "--xmax", "1000000000"]):
        start = time.perf_counter()
        code = main(args)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "error:" in capsys.readouterr().err


def test_curve_constant_over_digit_limit_refused(capsys):
    # 3^(10^8) has 47.7 million digits; it is refused before it is computed
    start = time.perf_counter()
    code = main(["curve-search", "--family", "C", "--d", "2", "--ell", "3", "--sign", "plus",
                 "--m", "100000000", "--xmax", "3"])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and "digits" in captured.err


def test_curve_verbs_fuzz(capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from tauhunt import curves

    def upto(small):
        return st.integers(-2, small) | st.integers(0, 10**18)

    # an x_max between about 10^5 and the scan budget is accepted and may
    # run for up to a minute (test_curve_search_work_budget prices it), so
    # the fuzz draws small bounds and bounds past the budget
    x_max = st.integers(-2, 10**5) | st.integers(curves._SCAN_BUDGET, 10**18)
    rows_x_max = st.integers(-2, 2000) | st.integers(curves._SCAN_BUDGET // 336, 10**18)
    ell = st.sampled_from((3, 5, 7, 11, 691, 1000003, 999999999999999989)) | upto(100)
    curve_search = st.tuples(st.sampled_from("CH"), upto(40), ell,
                             st.sampled_from(("plus", "minus")), upto(60), x_max).map(
        lambda c: ["curve-search", "--family", c[0], "--d", str(c[1]), "--ell", str(c[2]),
                   "--sign", c[3], "--m", str(c[4]), "--xmax", str(c[5])])
    verify_tables = rows_x_max.map(lambda x: ["verify-tables", "--xmax", str(x)])

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(curve_search | verify_tables)
    def check(argv):
        _keeps_contract(argv, capsys)

    check()


def test_number_verbs_fuzz(capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def upto(small):
        return st.integers(-2, small) | st.integers(-10**18, 10**18)

    primes = st.sampled_from([*sieved_primes(20000), 2**61 - 1, 999999999999999989])
    # a degree on either side of the ceiling, 7962
    thue_gen = (st.tuples(st.just("--m"), st.integers(-2, 200) | st.integers(201, 7962)
                          | st.integers(8000, 10**18))
                | st.tuples(st.just("--reduced-p"), upto(401) | primes)).map(
        lambda c: ["thue-gen", f"{c[0]}={c[1]}"])
    lucas = st.tuples(upto(40), upto(40) | primes | primes.map(lambda p: p**3), upto(200),
                      st.none() | upto(100) | primes).map(
        lambda c: ["lucas", f"--a={c[0]}", f"--b={c[1]}", f"--count={c[2]}"]
        + ([] if c[3] is None else [f"--ell={c[3]}"]))
    weight_bound = st.tuples(st.sampled_from((3, 5)) | upto(10), upto(100),
                             st.sampled_from(("plus", "minus")), st.booleans()).map(
        lambda c: ["weight-bound", f"--ell={c[0]}", f"--m={c[1]}", f"--sign={c[2]}"]
        + (["--pre-rounding"] if c[3] else []))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(thue_gen | lucas | weight_bound)
    def check(argv):
        _keeps_contract(argv, capsys)

    check()


def test_thue_solve_fuzz(capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    primes = st.sampled_from([*sieved_primes(20000), 2**61 - 1, 999999999999999989])
    # a degree on either side of the ceiling, 7962.  A large x_small is not
    # a refused scan: the scan runs to min(x_small, x0 - 1), and one under
    # its caps may break the 5 s contract (Fhat_7 = 800000 scans 3.2 * 10^6
    # x in about 7 s), though such draws are rare
    form = (st.tuples(st.just("--m"), st.integers(-2, 200) | st.integers(201, 7962)
                      | st.integers(8000, 10**18))
            | st.tuples(st.just("--reduced-p"), st.integers(-2, 401) | primes))
    rhs = st.integers(-10**18, 10**18)
    x_small = st.integers(-2, 50) | st.integers(10**10, 10**18)
    x_mid = st.integers(-2, 10**5) | st.integers(10**12, 10**18)
    thue_solve = st.tuples(form, rhs, x_small, x_mid).map(
        lambda c: ["thue-solve", f"{c[0][0]}={c[0][1]}", f"--rhs={c[1]}",
                   f"--x-small={c[2]}", f"--x-mid={c[3]}"])

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(thue_solve)
    def check(argv):
        _keeps_contract(argv, capsys)

    check()


def test_admissible_fuzz(capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # +-ell^m for ell < 1000 and m <= 3, edge values and random targets up
    # to 10^9; the degree ceiling of Fhat_ell refuses the 18-digit prime
    # edges before ell (ell^2 - 1) is factored, which takes seconds
    powers = st.tuples(st.sampled_from(sieved_primes(1000)), st.integers(0, 3)).map(
        lambda c: c[0] ** c[1])
    edges = st.sampled_from((0, 1, 2, 4, 9, 15, 10**18, 3**37, 10**17 + 3, 10**17 + 13,
                             10**18 - 33, 10**18 - 11))
    targets = (powers | edges | st.integers(0, 10**9)).flatmap(
        lambda t: st.sampled_from((t, -t)))

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(targets)
    def check(target):
        _keeps_contract(["admissible", f"--target={target}"], capsys)

    check()


def test_weight_bound(capsys):
    code, out = run_cli(["weight-bound", "--ell", "3", "--m", "2", "--sign", "minus"], capsys)
    data = json.loads(out)
    assert data["coefficients"] == ["2", str(10**32), "0"]
    code, out = run_cli(
        ["weight-bound", "--ell", "3", "--m", "2", "--sign", "minus", "--pre-rounding"], capsys)
    assert json.loads(out)["provenance"] == "pre-rounding footnote value"


def test_spec_file_ingestion(tmp_path, capsys):
    spec = tmp_path / "form.json"
    spec.write_text(
        '{"weight": 4, "level": 1, "ap": {"2": -2, "3": 8}, "trivial_mod2": true, "name": "toy"}'
    )
    code, out = run_cli(["coeff", "--spec", str(spec), "--n", "9"], capsys)
    assert json.loads(out)["coefficient"] == 8 * 8 - 27


def test_repeated_runs_byte_identical(capsys):
    args = ["curve-search", "--family", "C", "--d", "2", "--ell", "17", "--sign", "plus",
            "--xmax", "6000"]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run_cli(["--out", str(path), "tau", "--up-to", "3"], capsys)
    assert path.read_text() == out


def test_unwritable_out_path(tmp_path, capsys):
    assert main(["--out", str(tmp_path / "missing" / "r.json"), "tau", "--up-to", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


@pytest.mark.parametrize("argv", [["tau", "--up-to", "5000"], ["reproduce", "thm1.2"],
                                  ["admissible", "--target", "691"]], ids=lambda a: a[0])
def test_streamed_output_matches_dumps(argv, tmp_path, capsys):
    # the encoder's chunks are written in batches, never joined whole
    path = tmp_path / "report.json"
    assert main(["--out", str(path), *argv]) == 0
    out = capsys.readouterr().out
    want = json.dumps(cli._run(cli.build_parser().parse_args(argv)), indent=2, sort_keys=True)
    assert out == want + "\n"
    assert path.read_text() == out


def test_spooled_output_rolls_over_to_disk(monkeypatch, tmp_path, capsys):
    # a document past the in-memory size moves to disk mid-write and is
    # still copied out whole, to stdout and to --out
    monkeypatch.setattr(cli, "_EMIT_IN_MEMORY", 1000)
    path = tmp_path / "report.json"
    assert main(["--out", str(path), "tau", "--up-to", "3000"]) == 0
    out = capsys.readouterr().out
    assert len(out) > 50 * 1000
    assert json.loads(out) == list(newform.delta_expansion(3000))
    assert path.read_text() == out


def test_too_long_integer_leaves_out_path_unwritten(tmp_path, capsys):
    path = tmp_path / "r.json"
    assert main(["--out", str(path), "lucas", "--a", "1", "--b", "2", "--count", "30000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err and not path.exists()


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "tauhunt.cli", "no-such-verb"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


def test_parser_reuse_matches_fresh_processes(capsys):
    # main builds its parser once per process; each verb must still parse
    # as in a process of its own
    calls = [["thue-solve", "--m", "3", "--rhs", "7", "--x-small", "5", "--x-mid", "60"],
             ["lucas", "--a", "1", "--b", "2", "--count", "12"],
             ["thue-solve", "--m", "2", "--rhs", "11"]]
    src = str(Path(thue.__file__).parent.parent)
    for argv in calls:
        assert main(argv) == 0
        fresh = subprocess.run([sys.executable, "-m", "tauhunt.cli", *argv], capture_output=True,
                               text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
        assert capsys.readouterr().out == fresh.stdout, argv


def test_domain_error_exit_code(capsys):
    assert main(["lucas", "--a", "2", "--b", "4"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_thue_solve_candidate_budget(capsys):
    # R = ceil(3^20.5) ~ 6.3e9: the windows at x = 1 alone would hold ~1.2e10 y
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(["thue-solve", "--m", "2", "--rhs", str(3**41)])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert elapsed < 1.0
    assert peak < 1 << 24


@pytest.mark.parametrize("m,rhs", [(4, 7), (4, 19), (4, 1), (7, 29)])
def test_thue_solve_rational_root(m, rhs, capsys):
    # F_8(1, t) and F_14(1, t) have the exact root 1, since 3 | 2m + 1
    # (Fhat_9 and Fhat_15 the root -1)
    code, out = run_cli(["thue-solve", "--m", str(m), "--rhs", str(rhs),
                         "--x-small", "10", "--x-mid", "20"], capsys)
    assert code == 0
    coeffs = f2m_coeffs(m)
    sols = [tuple(s) for s in json.loads(out)["solutions"]]
    assert all(form_value(coeffs, x, y) == rhs for x, y in sols)
    assert [s for s in sols if abs(s[0]) <= 10] == dense_thue_solutions(coeffs, [rhs], 10)[rhs]


def test_thue_solve_fhat691_deep_x_mid(capsys):
    # at x_mid = 10^30 the bound, read from the enclosures the convergents
    # settled on, skips every distinct convergent but the 9 with no
    # multiplier in range and the 2 small-q ones that the default bounds
    # evaluate too
    code, out = run_cli(["thue-solve", "--reduced-p", "691", "--rhs", "691", "--x-small", "1000",
                         "--x-mid", str(10**30)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["solutions"] == [[1, 2]]
    assert data["certificate"]["midsize"] == {
        "roots": 345, "convergents": 19504, "skipped_multiplier": 9,
        "skipped_bound": 19493, "evaluated": 2}


def test_reproduce_smoke(capsys):
    code, out = run_cli(
        ["reproduce", "thm1.2", "--xmax", "3000", "--x-small", "50", "--x-mid", "100"],
        capsys)
    assert code == 0
    data = json.loads(out)
    assert data["all_excluded_within_bounds"] is True
    assert {t["target"] for t in data["targets"]} == {
        1, -1, 3, -3, 5, -5, 7, -7, 13, -13, 17, -17, -19, 23, -23, 37, -37, 691, -691}
    for t in data["targets"]:
        assert t["status"] == "EXCLUDED_WITHIN_BOUNDS"


@pytest.mark.parametrize("ell", ["0", "2", "-7", "9"])
def test_lucas_refuses_ell_not_an_odd_prime(ell, capsys):
    # --ell 0 was once read as no --ell at all
    assert main(["lucas", "--a", "1", "--b", "2", "--ell", ell]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: ell must be an odd prime\n"


@pytest.mark.parametrize("argv, message", [
    (["--target", "9", "--x-small", "-1", "--x-mid", "-1"], "need 0 <= x_small <= x_mid"),
    (["--target", "27", "--x-small", "50", "--x-mid", "3"], "need 0 <= x_small <= x_mid"),
    (["--target", "5", "--x-mid", "-4"], "need 0 <= x_small <= x_mid"),
    (["--target", "7", "--x-small", "-1", "--x-mid", "-1"], "need 0 <= x_small <= x_mid"),
    (["--target", "3", "--xmax", "-1"], "x_max must be >= 0"),
])
def test_bad_bounds_refused_before_any_search(argv, message, capsys):
    # 9, 27 and 5 reach only curve conditions, so no Thue solve checks the
    # Thue bounds; SearchBounds does, for every target
    assert main(["admissible", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert main(["reproduce", "thm1.2", *argv[2:]]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _readable_spec(data) -> bool:
    """The spec rules, read independently: a JSON object with JSON-integer
    weight and level, ap and bad_signs objects of JSON integers keyed by
    ASCII digits, a bool flag and a string name."""
    def table(key):
        rows = data.get(key, {})
        return isinstance(rows, dict) and all(
            k.isascii() and k.isdigit() and type(v) is int for k, v in rows.items())

    return (isinstance(data, dict)
            and all(type(data.get(key)) is int for key in ("weight", "level"))
            and table("ap") and table("bad_signs")
            and type(data.get("trivial_mod2", False)) is bool
            and type(data.get("name", "")) is str)


def test_spec_fuzz(tmp_path, capsys):
    """Any --spec file keeps the contract, and an answer comes only from a
    spec that follows the rules: nothing is coerced."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    ints = st.integers(-3, 40) | st.integers(-10**30, 10**30)
    odd = (st.none() | st.booleans() | st.floats(allow_nan=True) | st.text(max_size=4)
           | st.sampled_from(("false", "12", "2.0", [1], {"2": 2})))
    values = st.recursive(odd | ints, lambda inner: st.lists(inner, max_size=3)
                          | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                          max_leaves=5)
    # specs that follow the rules, and the same with one field or one entry replaced
    spec = st.fixed_dictionaries({
        "weight": st.sampled_from((4, 6, 12, 2000, 10**18)),
        "level": st.sampled_from((1, 5, 35)),
        "ap": st.dictionaries(st.sampled_from(("2", "3", "11", "13")), st.integers(-6, 6),
                              max_size=4),
    }, optional={
        "bad_signs": st.dictionaries(st.sampled_from(("5", "7")), st.sampled_from((1, -1)),
                                     max_size=2),
        "trivial_mod2": st.booleans(),
        "name": st.text(max_size=4),
    })
    field = st.sampled_from(("weight", "level", "ap", "bad_signs", "trivial_mod2", "name"))
    key = st.sampled_from(("2", "3", "5", "7", "0", "1", "4", "x", "-3", " 2", "03", "٣"))
    specs = (spec
             | st.tuples(spec, field, odd | ints | values).map(lambda c: {**c[0], c[1]: c[2]})
             | st.tuples(spec, st.sampled_from(("ap", "bad_signs")), key, odd | ints).map(
                 lambda c: {**c[0], c[1]: {**c[0].get(c[1], {}), c[2]: c[3]}}))
    texts = (specs.map(json.dumps) | values.map(json.dumps)
             | st.text(max_size=12) | st.sampled_from(("", "{", "[" * 10000)))
    argvs = st.sampled_from((
        ["coeff", "--n", "1"], ["coeff", "--n", "12"], ["coeff", "--n", str(3**40)],
        ["omega-bound", "--n", "60"], ["decompose", "--target", "-15"],
        ["admissible", "--target", "3"], ["admissible", "--target", "-691"],
        ["admissible", "--target", "37", "--xmax", "1000", "--x-small", "50", "--x-mid", "100"],
        ["admissible", "--target", "13", "--xmax", "1", "--x-small", "0", "--x-mid", "60"],
    ))
    path = tmp_path / "spec.json"

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(texts, argvs)
    def check(text, argv):
        path.write_text(text)
        answer = _keeps_contract([*argv, "--spec", str(path)], capsys)
        if answer is not None:
            assert _readable_spec(json.loads(text)), text

    check()


def test_reproduce_fuzz(capsys):
    """reproduce keeps the contract for any bounds, and an answer prints
    its bounds back with every target excluded."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    thue_bound = st.integers(-2, 200) | st.integers(-2, 10**30)
    # half the pairs are ordered, so most of those are valid bounds
    pairs = st.tuples(thue_bound, thue_bound)

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(st.integers(-2, 2000), pairs | pairs.map(sorted))
    def check(x_max, thue_bounds):
        x_small, x_mid = thue_bounds
        answer = _keeps_contract(["reproduce", "thm1.2", f"--xmax={x_max}",
                                  f"--x-small={x_small}", f"--x-mid={x_mid}"], capsys)
        valid = x_max >= 0 and 0 <= x_small <= x_mid
        assert (answer is not None) == valid, (x_max, x_small, x_mid)
        if answer is not None:
            assert answer["bounds"] == {"x_max": x_max, "x_small": x_small, "x_mid": x_mid}
            assert answer["all_excluded_within_bounds"] is True

    check()
