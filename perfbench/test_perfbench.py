"""Self-tests of the benchmark at tiny sizes (--smoke).

    python3 -m pytest -q perfbench

They check that every metric named in BENCHMARK.json is emitted with
its unit, that a planted wrong answer is caught and counted, that the
traced counts repeat exactly, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_end_to_end_metrics_emitted(name):
    result, lines = run.measure(name, seed=1, seconds=0, trace=False, smoke=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("error_rate") for line in lines)


def test_command_prints_result_last():
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", "tau", "--seed", "3",
           "--seconds", "0", "--trace", "1", "--smoke"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("per_layer")


def test_planted_wrong_tau_is_caught(monkeypatch):
    def plant(answer: str) -> str:
        data = json.loads(answer)
        data[len(data) // 2] += 1  # one tau value off by 1
        return json.dumps(data)

    def build(*args):
        wl = build_workload(*args)
        wl.checks = [lambda answer, check=check: check(plant(answer)) for check in wl.checks]
        return wl

    build_workload = workloads.build
    monkeypatch.setattr(workloads, "build", build)
    result, lines = run.measure("tau", seed=1, seconds=0, trace=False, smoke=True)
    assert not result["correct"] and result["failed"] >= 1
    rate = next(line for line in lines if line.startswith("error_rate")).split()[1]
    assert float(rate) > 0


def test_traced_counts_repeat():
    def counts():
        result, _ = run.measure("queries", seed=5, seconds=0, trace=True, smoke=True)
        assert result["correct"]
        return {k: m["value"] for k, m in result["metrics"].items()
                if m["unit"] in ("count", "ratio")}

    first = counts()
    assert first["cli.main.calls"] > 1 and first["arith.factor.calls"] > 0
    assert first == counts()


def test_tracer_wraps_every_copy(capsys):
    sys.path.insert(0, str(run.SRC))
    import tauhunt
    from tauhunt import arith, cli, lehmer, newform, thue
    from tracer import Tracer

    originals = {"factor": arith.factor, "sign_at": arith.sign_at}
    tracer = Tracer()
    tracer.install()
    for space in (tauhunt, arith, cli, lehmer, newform):
        assert space.factor is not originals["factor"]
        assert space.factor.__wrapped__ is originals["factor"]
    assert thue.sign_at.__wrapped__ is originals["sign_at"]
    assert arith.primes_up_to.cache_info().maxsize is None

    tracer.request = "r1"
    assert cli.main(["coeff", "--n", "6"]) == 0
    capsys.readouterr()
    spans = {s[0]: s for s in tracer.spans}
    main = next(s for s in spans.values() if s[3] == "cli.main")
    nested = [s for s in spans.values() if s[1] == main[0]]
    assert main[1] == 0 and nested and all(s[2] == "r1" for s in spans.values())
    assert tracer.calls["newform.coeff"] == 1
    assert tracer.self_s["cli.main"] < main[6] - main[5]


def test_queries_follow_the_seed():
    ref = workloads.load_reference()
    a = workloads.queries(7, False, ref).queries
    assert a == workloads.queries(7, False, ref).queries
    assert a != workloads.queries(8, False, ref).queries
    kinds = [q[0] for q in a]
    assert kinds.count("admissible") == 10 and len(kinds) == 210


def test_refuses_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tau",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and "correct" not in proc.stdout
