import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dlperiod import cli
from dlperiod.dlcrit import GPScanEntry, GPScanResult


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_roots_json(capsys):
    code, out, err = run(capsys, "roots", "--type", "G2")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["kind"] == "G" and data["rank"] == 2
    assert data["positive_count"] == 6
    assert data["generators"] == ["s1", "s2"]


def test_parabolic_table_formats(capsys):
    code, out, _ = run(capsys, "parabolic-table", "--type", "E6", "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["node", "dim", "minus_rank", "equals_rank"]
    assert lines[1].split("\t")[:2] == ["1", "16"]
    code, out, _ = run(capsys, "parabolic-table", "--type", "E6")
    assert [r["dim"] for r in json.loads(out)["rows"]] == [16, 21, 25, 29, 25, 16]


def test_min_length(capsys):
    code, out, _ = run(
        capsys, "min-length", "--type", "B", "--rank", "2",
        "--profile", "paper5", "--word", "t",
    )
    assert code == 0
    data = json.loads(out)
    assert data["min_length"] == 1 == data["min_length_bruteforce"]


def test_gp_list(capsys):
    code, out, _ = run(capsys, "gp-list", "--type", "B", "--rank", "2")
    data = json.loads(out)
    assert code == 0 and data["count"] == 6
    assert data["entries"][0]["datum"] == "B2(2;+)"
    idword = [e for e in data["entries"] if e["datum"] == "B2(1,1;+,+)"]
    assert idword[0]["word"] == "e"


def test_dl_criterion_json(capsys):
    code, out, _ = run(
        capsys, "dl-criterion", "--type", "G2", "--word", "s1 s2 s1", "--q", "2",
    )
    assert code == 0
    data = json.loads(out)
    assert data["feasible"] is False and data["certificate"] is not None
    assert any(f["label"].startswith("crit:") for f in data["forms"])


def test_gp_scan_exit_codes(capsys, monkeypatch):
    code, out, _ = run(capsys, "gp-scan", "--type", "B", "--rank", "2", "--q", "2")
    assert code == 0
    assert json.loads(out)["all_pass"] is True

    def fake_scan(kind, rank, q, mode="chamber_C"):
        real = GPScanResult(kind=kind, rank=rank, q=q, mode=mode, entries=(), all_pass=False)
        return real

    monkeypatch.setattr(cli, "scan_gp", fake_scan)
    code, out, _ = run(capsys, "gp-scan", "--type", "B", "--rank", "2", "--q", "2")
    assert code == 1
    assert json.loads(out)["all_pass"] is False


def test_count_points_word_and_permutation_agree(capsys):
    _, out_word, _ = run(capsys, "count-points", "--n", "3", "--q", "2", "--e", "3",
                         "--w", "s1 s2")
    _, out_perm, _ = run(capsys, "count-points", "--n", "3", "--q", "2", "--e", "3",
                         "--w", "1,2,0")
    assert json.loads(out_word)["count"] == json.loads(out_perm)["count"] == 24


def test_omega_and_period(capsys):
    _, out, _ = run(capsys, "omega", "--n", "3", "--q", "2", "--e", "3")
    assert json.loads(out)["count"] == 24
    _, out, _ = run(capsys, "period-domain", "--nu", "1,0,0", "--q", "2", "--e", "3")
    assert json.loads(out)["count"] == 24


def test_classify_tsv_default(capsys):
    code, out, _ = run(capsys, "classify", "--n-max", "2", "--t-max", "1",
                       "--q", "2", "--nu-bound", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n\tt\twords")
    assert len(lines) == 2  # single survivor
    assert "s1" in lines[1] and "1,0" in lines[1]


def test_classify_all_json(capsys):
    code, out, _ = run(capsys, "classify", "--n-max", "2", "--t-max", "1",
                       "--q", "2", "--nu-bound", "1", "--all", "--format", "json")
    data = json.loads(out)
    assert data["total_records"] == 6 and data["survivors"] == 1
    assert len(data["entries"]) == 6


def test_deterministic_output(capsys):
    args = ("gp-scan", "--type", "D", "--rank", "4", "--q", "2")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_usage_errors_exit_2(capsys):
    code, out, err = run(capsys, "roots", "--type", "Z9")
    assert code == 2 and "error:" in err
    code, out, err = run(capsys, "omega", "--n", "3", "--q", "6", "--e", "1")
    assert code == 2 and "error:" in err
    code, out, err = run(capsys, "count-points", "--n", "3", "--q", "2", "--e", "3",
                         "--w", "s1 s2", "--cap", "5")
    assert code == 2 and "657" in err


def test_pretty_format(capsys):
    code, out, _ = run(capsys, "gp-list", "--type", "A", "--rank", "3",
                       "--format", "pretty")
    assert code == 0
    assert "A3(3;+)" in out and "\t" not in out


def test_argparse_rejects_unknown_command():
    with pytest.raises(SystemExit):
        cli.main(["no-such-command"])


def test_option_prefixes_are_not_expanded(capsys):
    # `--n` is a prefix of period-domain's `--nu`; it must not be taken for it
    with pytest.raises(SystemExit) as exc:
        cli.main(["period-domain", "--n", "3", "--q", "2", "--e", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_classify_over_cap_exits_2(capsys):
    code, out, err = run(capsys, "classify", "--n-max", "5", "--t-max", "2",
                         "--q", "2", "--nu-bound", "2")
    assert code == 2 and out == "" and "6486696" in err


def test_module_entry_point_matches_cli_main(capsys):
    argv = ["dl-criterion", "--type", "B3", "--profile", "paper5",
            "--word", "t s1", "--q", "2"]
    code, expected, _ = run(capsys, *argv)
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "dlperiod", *argv],
        capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == code == 0
    assert proc.stdout == expected.encode()
