"""tauhunt benchmark.

    python3 perfbench/run.py --workload {sweep,tables,tau,queries} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from anywhere; it measures the checkout this file lives in
(`../src/tauhunt`), which need not be installed.  Each iteration of a
workload is one fresh, single-threaded Python process (perfbench/child.py)
whose stdout goes to a file; the benchmark times it from outside and
checks every answer with perfbench/oracles.py or the recorded reference
(perfbench/reference.json), outside the timed region.

--trace 0 runs iterations until --seconds have passed (at least one)
and prints the end-to-end metrics: wall_s and cpu_s of the fastest
iteration's child process, the median peak_rss_mib, and setup_s, the
wall time of a fresh process answering the trivial set-up query, taken
at a fixed host speed (see SETUP_PAIRS).  An iteration of sweep or
queries (15 to 25 s) outlasts the run length BENCHMARK.json sets, so on
those two workloads a run has one iteration and wall_s and cpu_s are
that one sample.  It also prints error_rate and, on queries, the
per-query latencies lookup_p50_ms, lookup_p90_ms and admissible_p50_ms.

--trace 1 runs untraced iterations until --seconds have passed (at
least two), then the set-up query and one iteration with every public
function of arith, newform, thue, curves, lehmer and cli wrapped
(perfbench/tracer.py), and prints the per-layer metrics summed over
the two traced processes, plus the tracing overhead: traced wall_s
minus the median untraced wall_s.  The spans are kept in
.perfbench_work/spans/.

--smoke runs tiny inputs; perfbench/test_perfbench.py uses it.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Answers that fail their check count as
failed; correct is true when none did.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads
from child import MARK

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_DEADLINE_S = 170  # a run must end within 180 s; children are killed after this
# A fresh process spends most of the set-up query importing modules,
# and how fast this host does that swings by half for minutes at a
# time, more than a bound can absorb.  So set-up processes alternate
# with fresh processes that only import numpy, the benchmark's own
# yardstick, and setup_s is the median ratio of each pair times
# REFERENCE_S, the yardstick's time on the host the bounds were set on
# (a 2-vCPU Xeon).  Work moved into set-up raises the ratio; the raw
# set-up times are printed beside it.
SETUP_PAIRS = 9
REFERENCE_CMD = ("-c", "import numpy")
REFERENCE_S = 0.15

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))
# On a shared host other tenants only ever add time to a CPU-bound
# process, and they do so in bursts that slow some iterations of
# identical work by half again.  The fastest iteration is the steadiest
# estimate of the work itself, so wall_s and cpu_s report it; the
# median and quartiles over the iterations are printed beside it.
FASTEST = ("wall_s", "cpu_s")

# (function, emits self_s): self time only for functions every traced
# run reaches, through the set-up query if not through the workload
TRACED_FUNCTIONS = (
    ("arith.sign_at", True),
    ("arith.continued_fraction_convergents", True),
    ("arith.factor", True),
    ("arith.is_prime", True),
    ("arith.primes_up_to", True),
    ("thue.solve_bounded", True),
    ("thue.real_roots", True),
    ("thue.build_form", True),
    ("thue.build_reduced_form", True),
    ("thue.evaluate", False),
    ("curves.search_points", True),
    ("curves.verify_tables", False),
    ("newform.delta_newform", True),
    ("newform.delta_expansion", False),
    ("newform.coeff", False),
    ("lehmer.check_admissibility", True),
    ("lehmer.decompose_odd_target", False),
    ("lehmer.omega_lower_bound", False),
    ("cli.main", True),
)
LAYERS = ("arith", "newform", "thue", "curves", "lehmer", "cli")


def child_env() -> dict:
    env = dict(os.environ)
    for key in ("TAUHUNT_DATA_DIR", "PYTHONPATH", "PYTHONSTARTUP"):
        env.pop(key, None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def run_child(queries: list[list[str]], tmp: Path, trace: Path | None = None,
              timeout: float = RUN_DEADLINE_S) -> dict:
    """One fresh process answering `queries`, killed after `timeout`
    seconds; wall, cpu and peak RSS are measured from outside, stdout
    and stderr go to files."""
    qfile, rfile = tmp / "queries.json", tmp / "results.json"
    qfile.write_text(json.dumps(queries))
    rfile.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC),
           "--queries", str(qfile), "--results", str(rfile)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    with open(tmp / "stdout", "w+b") as out, open(tmp / "stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=child_env(), cwd=tmp)
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode()
        err.seek(0)
        stderr = err.read().decode()
    answers = stdout.split(f"\n{MARK}\n")[:-1]
    results = json.loads(rfile.read_text()) if rfile.exists() else {}
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mib": usage.ru_maxrss / 1024,
        "exit": proc.returncode,
        "stderr": stderr,
        "answers": answers,
        "codes": results.get("codes", []),
        "latency_s": results.get("latency_s", []),
        "results": results,
    }


def reference_wall(tmp: Path) -> float:
    """Wall seconds of a fresh process running REFERENCE_CMD."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *REFERENCE_CMD], stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, env=child_env(), cwd=tmp, check=True,
                   timeout=60)
    return time.perf_counter() - t0


def failures(run: dict, checks) -> list[str]:
    """Reasons, one per failed answer; a dead process fails every answer."""
    if run["exit"] != 0 or len(run["answers"]) != len(checks):
        tail = run["stderr"].strip().splitlines()[-1:] or ["no answers"]
        return [f"child exited {run['exit']}: {tail[0]}"] * len(checks)
    out = []
    for code, answer, check in zip(run["codes"], run["answers"], checks):
        if code != 0:
            out.append(f"exit code {code}")
            continue
        try:
            reason = check(answer)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"malformed answer: {exc!r}"
        if reason:
            out.append(reason)
    if not out and "Traceback" in run["stderr"]:
        out.append("traceback on stderr")
    return out


def _median_q(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def _percentile_ms(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] * 1000
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000


def machine(results: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": results.get("python"),
            "numpy": results.get("numpy")}


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> tuple[dict, list[str]]:
    """Returns (result object, report lines)."""
    wl = workloads.build(name, seed, smoke)
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    deadline = time.monotonic() + RUN_DEADLINE_S
    attempted, failed, lines = 0, [], []

    def answer(queries, checks, trace=None):
        nonlocal attempted
        run = run_child(queries, tmp, trace, deadline - time.monotonic())
        attempted += len(checks)
        failed.extend(failures(run, checks))
        return run

    def iterate(minimum: int) -> list[dict]:
        runs = []
        t_end = time.perf_counter() + seconds
        while len(runs) < minimum or time.perf_counter() < t_end:
            runs.append(answer(wl.queries, wl.checks))
        return runs

    setup = ([workloads.SETUP_QUERY], [workloads.check_setup])
    try:
        # the first process in a checkout also compiles the bytecode
        first = answer(*setup)
        if not trace:
            pairs = [(answer(*setup)["wall_s"], reference_wall(tmp))
                     for _ in range(SETUP_PAIRS)]
            metrics, lines = _end_to_end(wl, iterate(1), pairs)
        else:
            plain = statistics.median(r["wall_s"] for r in iterate(2))
            spans = WORK / "spans"
            spans.mkdir(exist_ok=True)
            traced = [answer(*setup, trace=spans / f"{name}-setup.jsonl"),
                      answer(wl.queries, wl.checks, spans / f"{name}.jsonl")]
            metrics, lines = _per_layer(traced, plain)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    info = machine(first["results"])
    head = [f"perfbench: workload={name} seed={seed} seconds={seconds} trace={int(trace)}"
            f"{' smoke' if smoke else ''}",
            "machine: " + json.dumps(info)]
    rate = len(failed) / attempted
    lines.append(f"{'error_rate':<44} {rate:.6g} ratio  ({len(failed)} failed of "
                 f"{attempted} answers)")
    lines += [f"  failed: {reason}" for reason in failed[:10]]
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed),
              "metrics": metrics}
    return result, head + lines


def _end_to_end(wl, runs: list[dict],
                setup_pairs: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    """`setup_pairs` holds (set-up wall, reference wall) pairs."""
    metrics, lines = {}, []
    series = {key: [r[key] for r in runs] for key in ("wall_s", "cpu_s", "peak_rss_mib")}
    series["setup_s"] = [setup for setup, _ in setup_pairs]
    for key, unit in END_TO_END:
        values = series[key]
        med, q1, q3 = _median_q(values)
        if key == "setup_s":
            ratio = statistics.median(setup / ref for setup, ref in setup_pairs)
            value = ratio * REFERENCE_S
            how = f"{ratio:.4g} x {REFERENCE_S} s, median ratio of {len(values)} pairs; raw"
        else:
            value = min(values) if key in FASTEST else med
            how = f"{'fastest' if key in FASTEST else 'median'} of {len(values)};"
        metrics[key] = {"value": value, "unit": unit}
        lines.append(f"{key:<44} {value:.6g} {unit}  ({how} median {med:.6g}, "
                     f"quartiles {q1:.6g} .. {q3:.6g})")
    by_kind: dict[str, list[float]] = {}
    for r in runs:
        for kind, lat in zip(wl.kinds, r["latency_s"]):
            by_kind.setdefault(kind, []).append(lat)
    if "lookup" in by_kind:
        lookups, adm = by_kind["lookup"], by_kind.get("admissible", [])
        for label, vals, q in (("lookup_p50_ms", lookups, 50), ("lookup_p90_ms", lookups, 90),
                               ("admissible_p50_ms", adm, 50)):
            if vals:
                lines.append(f"{label:<44} {_percentile_ms(vals, q):.6g} ms  "
                             f"({len(vals)} queries)")
    return metrics, lines


def _per_layer(traced: list[dict], plain_wall: float) -> tuple[dict, list[str]]:
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    site_calls: dict[str, int] = {}
    counters: dict[str, int] = {}
    lru = {"hits": 0, "misses": 0}
    for run in traced:
        tr = run["results"].get("trace", {})
        for src, dst in ((tr.get("calls", {}), calls), (tr.get("self_s", {}), self_s),
                         (tr.get("site_calls", {}), site_calls),
                         (tr.get("counters", {}), counters)):
            for key, value in src.items():
                dst[key] = dst.get(key, 0) + value
        for key in lru:
            lru[key] += tr.get("lru", {}).get("arith.primes_up_to", {}).get(key, 0)
    metrics = {}
    for fn, timed in TRACED_FUNCTIONS:
        metrics[f"{fn}.calls"] = {"value": calls.get(fn, 0), "unit": "count"}
        if timed:
            metrics[f"{fn}.self_s"] = {"value": self_s.get(fn, 0.0), "unit": "s"}
    for layer in LAYERS:
        total = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = {"value": total, "unit": "s"}
    evaluations = calls.get("thue.evaluate", 0)
    confirms = site_calls.get("arith.is_perfect_square@curves", 0)
    lookups = lru["hits"] + lru["misses"]
    metrics["thue.convergents"] = {"value": counters.get("thue.convergents", 0),
                                   "unit": "count"}
    metrics["thue.confirm_yield"] = {
        "value": counters.get("thue.solutions", 0) / evaluations if evaluations else 0.0,
        "unit": "ratio"}
    metrics["curves.confirms"] = {"value": confirms, "unit": "count"}
    metrics["curves.point_yield"] = {
        "value": counters.get("curves.points", 0) / confirms if confirms else 0.0,
        "unit": "ratio"}
    metrics["arith.primes_up_to.hit_ratio"] = {
        "value": lru["hits"] / lookups if lookups else 0.0, "unit": "ratio"}
    metrics["trace.overhead_s"] = {"value": traced[1]["wall_s"] - plain_wall, "unit": "s"}
    lines = [f"{key:<44} {m['value']:.6g} {m['unit']}" for key, m in metrics.items()]
    lines.append(f"{'traced wall_s / untraced median wall_s':<44} "
                 f"{traced[1]['wall_s']:.6g} s / {plain_wall:.6g} s")
    return metrics, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tauhunt benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")
    args = ap.parse_args(argv)
    if not (SRC / "tauhunt" / "__init__.py").is_file():
        print(f"perfbench: no tauhunt sources under {SRC}", file=sys.stderr)
        return 2
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                            args.smoke)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
