"""One benchmark session: a fresh interpreter answers one workload's query set.

run.py starts each session as

    python3 perfbench/session.py --workload W --seed S --session K --trace 0|1 \\
        [--tiny] [--setup-only]

The queries are generated from (W, S, K) before the first one runs; they are
issued one after another, each only once the previous one has returned.
The session prints one JSON object on stdout: the monotonic time at which
the first query started (with --setup-only, nothing else), the query loop's
wall time, each query's kind, latency and check outcome, the peak RSS, the
field cache counters and, when traced, the spans.
"""
from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from dlperiod import gfflag  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--session", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true", help="stop before the first query")
    args = ap.parse_args()

    rng = random.Random(f"{args.workload}:{args.seed}:{args.session}")
    queries = workloads.WORKLOADS[args.workload](rng, args.tiny)
    api = spans.Tracer() if args.trace else spans.Direct()
    results, errors = [], []
    ready = time.monotonic()
    if args.setup_only:
        json.dump({"ready": ready}, sys.stdout)
        return 0
    for kind, fn, qargs in queries:
        api.begin_query(kind)
        t0 = time.perf_counter()
        try:
            ok, why = fn(api, *qargs) is True, "wrong answer"
        except Exception as exc:  # a raising query is a failed answer; keep going
            ok, why = False, repr(exc)
        dt = time.perf_counter() - t0
        api.end_query()
        if not ok:
            errors.append(f"{kind}{qargs!r}"[:200] + f": {why}")
        results.append((kind, dt, ok))
    wall = time.monotonic() - ready
    cache = gfflag.field_build.cache_info()
    json.dump({
        "ready": ready,
        "wall": wall,
        "queries": results,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "field_cache": {"hits": cache.hits, "misses": cache.misses},
        "spans": api.spans,
        "errors": errors[:20],
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
