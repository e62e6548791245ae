"""Records perfbench/reference.json from the checkout this file lives in.

    python3 perfbench/record_reference.py

For every admissibility target the queries workload may draw
(+-ell^m, odd prime ell < 200, m <= 3) it stores the answer's
fingerprint at default bounds and its cost: the seconds a fresh
process spends on it after one lookup has built the Delta form, the
least of two processes.  The workload balances its draw of targets on
these costs, so record on an otherwise idle machine.  It also stores,
for the Omega lower bound oracle, every (p, e) with p < 1000, e < 40
whose sigma_hat discount differs from the generic 1.

The reference was recorded once from the commit that introduced the
benchmark; re-record only when a change is meant to alter answers.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import oracles
import workloads
from run import SRC, WORK, failures, run_child

COST_REPEATS = 2


def main() -> int:
    sys.path.insert(0, str(SRC))
    from tauhunt import lucas, newform

    targets = [s * ell**m for ell in oracles.primes_up_to(199)[1:] for m in (1, 2, 3)
               for s in (1, -1)]
    admissible = {}
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as name:
        tmp = Path(name)
        for t in targets:
            # the first query builds the Delta form and imports numpy, as
            # an earlier query of the batch would
            queries = [["coeff", "--n", "2"], ["admissible", "--target", str(t)]]
            runs = [run_child(queries, tmp) for _ in range(COST_REPEATS)]
            if any(failures(r, [lambda text: None] * 2) for r in runs):
                print(f"skipping {t}: {runs[0]['stderr'][-200:]}", file=sys.stderr)
                continue
            cost = min(r["latency_s"][1] for r in runs)
            fp = workloads.admissible_fingerprint(json.loads(runs[0]["answers"][1]))
            admissible[str(t)] = {"cost_s": round(cost, 3), "fingerprint": fp}
            print(t, round(cost, 3), fp["status"], flush=True)

    spec = newform.delta_newform(1000)
    exceptions = {}
    for p in oracles.primes_up_to(999):
        for e in range(2, 40):
            divisors = sum(1 for d in range(1, e + 2) if (e + 1) % d == 0)
            extra = divisors - 1 - lucas.sigma_hat(spec.ap[p], p**11, e)
            if extra:
                exceptions[f"{p}^{e}"] = extra
    ref = {"admissible": admissible, "omega_discount_exceptions": exceptions}
    workloads.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
