"""Benchmark driver for dlperiod: seeded, closed-loop query workloads.

    python3 perfbench/run.py --workload groups|criterion|flags --seed N \\
        --seconds S --trace 0|1 [--tiny]

Load model: one client in one single-threaded process sends each query only
after the previous one has returned.  Each session is a fresh interpreter
(session.py), so dlperiod's in-process caches start cold, as for a CLI call.
Sessions run one after another until --seconds have passed; the metrics are
medians over them.

--trace 0: session k answers the queries generated from (workload, seed, k)
and the end-to-end metrics are reported.  --trace 1: every session answers
the queries of session 0, alternately untraced and traced; the per-layer
metrics come from the traced sessions' spans and trace.overhead_ratio
compares the two kinds.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it give the same metrics
for people, with fail_ratio, the seed, Python version, git sha, nproc and
query counts.  The run record, and the spans of a traced run, are written
under .perfbench/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from itertools import count
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
TIME_LIMIT = 170.0  # seconds after start by which every session must have ended
MIN_SESSIONS = 3  # untraced run
MIN_PAIRS = 2  # traced run: (untraced, traced) pairs


class BenchError(RuntimeError):
    """A session crashed or overran; the run has no result."""


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(x: float, a: float, b: float) -> float:
    """Regularised incomplete beta function I_x(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def percentile(xs, p: int) -> float:
    """Harrell-Davis estimate of the p-th percentile: a mean of all order
    statistics, weighted by a beta distribution centred on rank p%.

    A workload has a few dozen kinds of query, so its sorted latencies have
    gaps; a single order statistic jumps across a gap whenever a query lands
    on the other side of it, while this estimate moves smoothly.
    """
    xs = sorted(xs)
    n, q = len(xs), p / 100
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of n queries beyond it (p50 at least)."""
    return max(50, min(99, 100 * (n - 10) // n))


def spawn(args, session: int, traced: bool, start: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "session.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--session", str(session), "--trace", str(int(traced))]
    cmd += ["--tiny"] * args.tiny + ["--setup-only"] * setup_only
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, TIME_LIMIT - (t_spawn - start)),
                              env=dict(os.environ, PYTHONHASHSEED="0"))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the session
        raise BenchError(f"session {session} still running {TIME_LIMIT:.0f} s after start") from None
    if proc.returncode != 0:
        raise BenchError(f"session {session} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    out = json.loads(proc.stdout)
    out.update(session=session, traced=traced, setup=out["ready"] - t_spawn,
               elapsed=time.monotonic() - t_spawn)
    return out


def run_sessions(args, plan, min_sessions: int, start: float) -> tuple:
    """Run the plan's steps (lists of (session, traced)) until time is up.

    An untraced run also starts a set-up probe (an interpreter that stops
    before its first query) ahead of each step, for more set-up samples.
    Returns the sessions and every set-up time measured.
    """
    runs, setups = [], []
    for step in plan:
        if len(runs) >= min_sessions:
            expected = statistics.median(r["elapsed"] for r in runs) * len(step)
            if time.monotonic() - start + expected > args.seconds:
                break
        if not args.trace:
            setups.append(spawn(args, step[0][0], False, start, setup_only=True)["setup"])
        runs.extend(spawn(args, k, traced, start) for k, traced in step)
    return runs, setups + [r["setup"] for r in runs]


def end_to_end(runs: list, setups: list, tail: int) -> dict:
    lat = [q[1] for r in runs for q in r["queries"]]
    return {
        "wall_s": statistics.median(r["wall"] for r in runs),
        "query_p50_ms": percentile(lat, 50) * 1e3,
        "query_tail_ms": percentile(lat, tail) * 1e3,
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in runs) / 1024,
        "setup_s": statistics.median(setups),
    }


def layers(run: dict) -> dict:
    """Per-layer metrics of one traced session, from its spans."""
    calls = defaultdict(list)  # name -> [(duration, attrs)]
    for _sid, _qid, parent, name, t0, t1, attrs in run["spans"]:
        if parent:
            calls[name].append((t1 - t0, attrs))

    def busy(*names, cold=None):
        return sum(d for n in names for d, a in calls[n]
                   if cold is None or a.get("cold", False) == cold)

    def total(name, key):
        return sum(a.get(key, 0) for _, a in calls[name])

    def ratio(a, b):
        return a / b if b else 0.0

    solves = calls["feaslin.strict_feasible"]
    feasible = [a for _, a in solves if a["feasible"]]
    walks = ("conjclass.reduce_to_minimal", "conjclass.shift_closure")
    tally = ("gfflag.dl_point_tally", "gfflag.dl_point_count")
    m = {
        "rootsys.build_s": busy("rootsys.build_root_system"),
        "rootsys.builds": sum(1 for _, a in calls["rootsys.build_root_system"] if a["cold"]),
        "rootsys.table_s": busy("rootsys.rank_vs_dim_table"),
        "weyl.enumerate_s": busy("weyl.enumerate_group"),
        "weyl.elements": total("weyl.enumerate_group", "n"),
        "weyl.word_s": busy("weyl.from_word"),
        "weyl.word_calls": len(calls["weyl.from_word"]),
        "conjclass.cold_reduce_s": busy(*walks, cold=True),
        "conjclass.reduce_s": busy("conjclass.reduce_to_minimal", cold=False),
        "conjclass.reduce_calls": len(calls["conjclass.reduce_to_minimal"]),
        "conjclass.shift_steps": total("conjclass.reduce_to_minimal", "steps"),
        "conjclass.bruteforce_s": busy("conjclass.min_length_bruteforce"),
        "conjclass.gp_element_s": busy("conjclass.gp_element"),
        "conjclass.closure_s": busy("conjclass.shift_closure", cold=False),
        "classify.scan_s": busy("classify.classification_scan"),
        "classify.records": total("classify.classification_scan", "n"),
        "dlcrit.build_s": busy("dlcrit.build_criterion_system"),
        "dlcrit.systems": len(calls["dlcrit.build_criterion_system"]),
        "dlcrit.scan_s": busy("dlcrit.scan_gp"),
        "dlcrit.scan_entries": total("dlcrit.scan_gp", "n"),
        "feaslin.solve_s": busy("feaslin.strict_feasible"),
        "feaslin.solves": len(solves),
        "feaslin.solve_tail_ms": percentile([d for d, _ in solves], tail_percentile(len(solves))) * 1e3
        if solves else 0.0,
        "feaslin.forms_in": total("feaslin.strict_feasible", "forms"),
        "feaslin.feasible_ratio": ratio(len(feasible), len(solves)),
        "feaslin.verify_s": busy("feaslin.verify_witness", "feaslin.verify_certificate"),
        "feaslin.witness_bits": ratio(sum(a["bits"] for a in feasible), len(feasible)),
        "gfflag.field_s": busy("gfflag.field_build"),
        "gfflag.fields": run["field_cache"]["misses"],
        "gfflag.field_cache_hits": run["field_cache"]["hits"],
        "gfflag.tally_s": busy(*tally),
        "gfflag.flags": sum(total(n, "flags") for n in tally),
        "gfflag.period_s": busy("gfflag.period_point_count"),
        "gfflag.period_flags": total("gfflag.period_point_count", "flags"),
        "gfflag.omega_s": busy("gfflag.omega_point_count"),
        "gfflag.omega_points": total("gfflag.omega_point_count", "points"),
        "cli.main_s": busy("cli.main"),
        "cli.calls": len(calls["cli.main"]),
        "cli.stdout_bytes": total("cli.main", "stdout_bytes"),
    }
    m["weyl.elements_per_s"] = ratio(m["weyl.elements"], m["weyl.enumerate_s"])
    m["classify.records_per_s"] = ratio(m["classify.records"], m["classify.scan_s"])
    m["gfflag.flags_per_s"] = ratio(m["gfflag.flags"], m["gfflag.tally_s"])
    return m


def per_layer(runs: list) -> dict:
    traced = [r for r in runs if r["traced"]]
    each = [layers(r) for r in traced]
    out = {name: statistics.median(m[name] for m in each) for name in each[0]}
    out["trace.overhead_ratio"] = (
        statistics.median(r["wall"] for r in traced)
        / statistics.median(r["wall"] for r in runs if not r["traced"])
    )
    return out


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def write_record(args, meta: dict, metrics: dict, runs: list) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    sessions = [{k: r[k] for k in ("session", "traced", "wall", "setup", "rss_kb", "errors")}
                | {"latencies": [q[1] for q in r["queries"]]} for r in runs]
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({"meta": meta, "metrics": metrics, "sessions": sessions}, fh, indent=1)
    if args.trace:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as fh:
            for i, r in enumerate(runs):
                for span in r["spans"]:
                    fh.write(json.dumps([i] + span) + "\n")


def main(argv=None) -> int:
    start = time.monotonic()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())  # workloads, metrics, units
    ap = argparse.ArgumentParser(description="dlperiod benchmark driver")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dlperiod" / "__init__.py").is_file():
        print(f"perfbench: no dlperiod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            plan = ([(0, i % 2 == 1), (0, i % 2 == 0)] for i in count())
            runs, setups = run_sessions(args, plan, 2 * MIN_PAIRS, start)
        else:
            runs, setups = run_sessions(args, ([(k, False)] for k in count()), MIN_SESSIONS, start)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    per_session = len(runs[0]["queries"])
    tail = tail_percentile(per_session)
    values = per_layer(runs) if args.trace else end_to_end(runs, setups, tail)
    attempted = sum(len(r["queries"]) for r in runs)
    failed = sum(1 for r in runs for q in r["queries"] if not q[2])
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "tiny": args.tiny,
        "python": platform.python_version(), "git": git_sha(), "nproc": len(os.sched_getaffinity(0)),
        "sessions": len(runs), "queries_per_session": per_session,
        "tail_percentile": tail, "fail_ratio": failed / attempted,
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    write_record(args, meta, metrics, runs)

    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    for name, m in metrics.items():
        print(f"  {name:26s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        print(f"  query_tail_ms is p{tail} over {attempted} queries ({per_session} per session)")
    print(f"  {'fail_ratio':26s} {failed / attempted:14.6g} ratio ({failed} of {attempted} queries)")
    for r in runs:
        for err in r["errors"][:3]:
            print(f"  failed: {err}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
