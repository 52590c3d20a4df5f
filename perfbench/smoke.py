"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 perfbench/smoke.py          # or: python3 -m pytest perfbench/smoke.py

Runs run.py with --tiny on each workload, untraced and traced, and checks
that the last line of output reports every metric of BENCHMARK.json with
its unit and that no query failed.  Also checks that the benchmark refuses
to run, without printing a result, where the dlperiod sources are missing.
pytest collects only test_*.py by default, so tier-1 does not run this.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _check(workload: str) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--tiny")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"], lines
        fail_line = next(line.split() for line in lines if line.split()[:1] == ["fail_ratio"])
        assert float(fail_line[1]) == 0 and fail_line[2] == "ratio"
        for metric in SPEC[section]:
            got = result["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"], (metric, got)
            assert isinstance(got["value"], (int, float)), (metric, got)
        assert len(result["metrics"]) == len(SPEC[section])


def test_groups():
    _check("groups")


def test_criterion():
    _check("criterion")


def test_flags():
    _check("flags")


def test_refuses_without_sources():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = _run(bare, "--workload", "groups", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == "", proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
