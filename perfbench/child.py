"""Runs a list of tauhunt CLI argument vectors in this fresh process.

    python3 perfbench/child.py --src SRC --queries Q.json --results R.json [--trace SPANS]

`SRC` is the `src` directory of the checkout under test; the script
refuses to run if `tauhunt` is imported from anywhere else.  Each
argument vector goes through `tauhunt.cli.main`, exactly as the
`tauhunt` console script would run it, and each answer on stdout is
followed by a marker line so the caller can split them.  The per-query
latencies, exit codes and versions go to R.json.  With `--trace`, the
public functions of tauhunt are wrapped (see tracer.py), the spans are
written to SPANS and the aggregates added to R.json.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
import traceback
from pathlib import Path

MARK = "@@perfbench-answer-end@@"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--queries", required=True)
    ap.add_argument("--results", required=True)
    ap.add_argument("--trace")
    args = ap.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import tauhunt
    from tauhunt import cli

    if src not in Path(tauhunt.__file__).resolve().parents:
        print(f"perfbench: imported {tauhunt.__file__}, not the checkout under {src}",
              file=sys.stderr)
        return 3
    queries = json.loads(Path(args.queries).read_text())

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    latency, codes = [], []
    for i, argv in enumerate(queries):
        if tracer is not None:
            tracer.request = f"q{i}:{argv[0]}"
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the answer fails; report it and go on
            traceback.print_exc()
            code = -1
        sys.stdout.flush()
        latency.append(time.perf_counter() - t0)
        codes.append(code)
        sys.stdout.write(f"\n{MARK}\n")

    results = {
        "latency_s": latency,
        "codes": codes,
        "tauhunt": tauhunt.__file__,
        "python": platform.python_version(),
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
    }
    if tracer is not None:
        results["trace"] = tracer.summary()
        tracer.write(args.trace)
    Path(args.results).write_text(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
