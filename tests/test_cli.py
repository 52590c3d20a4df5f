import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dlperiod import cli
from dlperiod.dlcrit import GPScanResult


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


@pytest.mark.parametrize("command", [("gp-list",), ("gp-scan", "--q", "2")])
def test_gp_commands_take_combined_type_and_need_a_rank(capsys, command):
    code, combined, _ = run(capsys, *command, "--type", "D4")
    assert code == 0
    assert run(capsys, *command, "--type", "D", "--rank", "4") == (0, combined, "")
    data = json.loads(combined)
    assert (data["kind"], data["rank"]) == ("D", 4)
    code, out, err = run(capsys, *command, "--type", "A")
    assert code == 2 and out == "" and "needs an explicit rank" in err


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
    # a bad comma list is a usage error (exit 1 would mean a gp-scan violation)
    code, out, err = run(capsys, "period-domain", "--nu", "1,0,a", "--q", "2", "--e", "2")
    assert code == 2 and out == "" and "error: --nu" in err
    code, out, err = run(capsys, "count-points", "--n", "3", "--w", "1,x,0", "--q", "2",
                         "--e", "2")
    assert code == 2 and out == "" and "error: --w" in err


def test_pretty_format(capsys):
    code, out, _ = run(capsys, "gp-list", "--type", "A", "--rank", "3",
                       "--format", "pretty")
    assert code == 0
    assert "A3(3;+)" in out and "\t" not in out


def test_roots_parabolic_table_matches_parabolic_table(capsys):
    for argv in (("--type", "B", "--rank", "3"), ("--type", "E6")):
        _, out, _ = run(capsys, "parabolic-table", *argv)
        rows = json.loads(out)["rows"]
        for profile in ("bourbaki", "paper5") if "B" in argv else ("bourbaki",):
            code, out, _ = run(capsys, "roots", *argv, "--profile", profile,
                               "--parabolic-table")
            assert code == 0
            assert json.loads(out)["parabolic_table"] == rows, (argv, profile)


def test_parser_is_reused_across_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    ok = ("gp-list", "--type", "B", "--rank", "3", "--format", "tsv")
    code, first, _ = run(capsys, *ok)
    assert code == 0
    code, out, err = run(capsys, "roots", "--type", "Z9")
    assert code == 2 and out == "" and "error:" in err
    with pytest.raises(SystemExit) as exc:
        cli.main(["roots", "--rank", "3"])  # --type is required
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, *ok) == (0, first, "")


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


def test_package_imports_no_dataclass_machinery():
    # records are named tuples and slotted classes, so no module of the
    # package loads dataclasses or the modules it pulls in; -S keeps site's
    # own imports out of the check
    src = Path(cli.__file__).resolve().parents[1]
    modules = ["dlperiod"] + sorted(
        f"dlperiod.{p.stem}" for p in (src / "dlperiod").glob("*.py") if p.stem != "__init__"
    )
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    script = (
        "import importlib, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(' '.join(m for m in {heavy!r} if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "dlperiod.cli" in modules
    assert proc.stdout == b"\n"


@pytest.mark.parametrize("argv, tail", [
    (("omega", "--n", "2", "--q", "2305843009213693951", "--e", "1"),
     "error: field GF(2305843009213693951^1) would have 2305843009213693951 elements, "
     "exceeding cap 65536\n"),
    (("count-points", "--n", "20000", "--w", "s1", "--q", "2", "--e", "1"),
     " in dimension 20000 over GF(2) has more than 2^199990000 members, exceeding cap 1000000\n"),
], ids=["omega_prime_q", "count_points_n20000"])
def test_large_inputs_are_refused_at_once(argv, tail):
    # a q past the field cap is not factored, and a flag family whose big
    # Bruhat cell alone is past the cap has its exact count left unformed
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "dlperiod", *argv], capture_output=True, env=env, timeout=10,
    )
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.decode().endswith(tail)


# sha256 of stdout per format, frozen from the Fraction-form implementation;
# the integer forms must print the same bytes
GOLDEN = [
    (("dl-criterion", "--type", "B", "--rank", "5", "--profile", "paper5",
      "--word", "3 4 1 5", "--q", "4", "--mode", "full_D"),
     {"json": "dc4723a5abeb0653311ce2b2a6e48b9848820c2d8056159c64145f5cf5e3206f",
      "tsv": "d9c32dcced5779ca2c262eac261f1ed704bb10923a948567bcaa2b75200dbbe8",
      "pretty": "f02a85808939afd19ef28b623ad7925b0b1be6de340da659bf253fd7412a2f81"}),
    (("dl-criterion", "--type", "E", "--rank", "8", "--word", "1 3 4 2 5 6 7 8 4", "--q", "2"),
     {"json": "e3f8a57b425137441aba8e3511f000506c390fcdaeb5592a594d03da6672c119",
      "tsv": "adb245c88ccdc621c3261e958c580b9b005d0471dc53012da98154fbb6d4a4e8",
      "pretty": "1743f628e47cf5203ace99a9e10a251597999cbdcc2b86160a8afcfc00a616ee"}),
    (("dl-criterion", "--type", "F", "--rank", "4", "--word", "1 2 1 3 2 3 4 3", "--q", "2",
      "--mode", "chamber_C"),
     {"json": "af64402d5cdd53825ff3ec36afa15356227341ec664a743fc0981e06295957ad",
      "tsv": "a9266074e561b5c3a62c382d8658a5b1539777f2eaa1a5d46338867f7ae5fc51",
      "pretty": "2547aace49ee2e0e9ee647b000b8ae7b8c2051504c8d0e4bf9a48605a3a66e0a"}),
    (("dl-criterion", "--type", "G", "--rank", "2", "--word", "1 2", "--q", "3"),
     {"json": "66a26b916edb1b3e03ea6ae390897f85033c5d574fbe35c613a126bd4cf965af",
      "tsv": "7ff6aa2ea91455ae010cf31881db19169bdec2fdf86b92992ff3fc4f6cc19802",
      "pretty": "2297a627fdb890e052a7f504013742290934bad7875f8311daa5701df9a1a759"}),
    (("gp-scan", "--type", "D", "--rank", "5", "--q", "3"),
     {"json": "99540c48dfee8346295472b2dadb406d001d61fdb884d102670f2db9370e4997",
      "tsv": "92407b41ca7f78a13738b2d6f238937bbcea66a60a4a1b69db82e5c9c2ae7f92",
      "pretty": "da0bbd9d5c75cc07ed2e769e2f5e2e1f3e545e7ca2c731874524821cbf5dc62b"}),
]


@pytest.mark.parametrize("argv,digests", GOLDEN, ids=[" ".join(a[:3]) for a, _ in GOLDEN])
def test_criterion_stdout_is_frozen(capsys, argv, digests):
    for fmt, digest in digests.items():
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


# sha256 of roots stdout per format, frozen while RootSystem still stored its
# Fraction roots; the views derived on each read must print the same bytes
ROOTS_GOLDEN = [
    (("--type", "B", "--rank", "3", "--profile", "paper5", "--parabolic-table"),
     {"json": "46effced2342583723513eebf9eaca4e4addc021bb6b65afa6c0c07a28841b45",
      "tsv": "8b9fb48185228b41d08b9f1c8c24f627c08cb98b103ec543e6f466707b1caa88",
      "pretty": "896e7cd8d60456ea91750a470a6e4c824743a2d7578f062cc12d56301bd68341"}),
    (("--type", "D", "--rank", "5", "--profile", "paper5"),
     {"json": "04585623fb6f22ab443fc7258c9c62821d0ecca3aa57b82bde4a4213302ef623",
      "tsv": "45e64f06b5bc91469539e55c024d3aa97dd4f787f4b76016e4a3af5dff23cae3",
      "pretty": "f1512471afc9b9ce701521ea4c8947e1d1566e1442b883ffd84c03be9e213b62"}),
    (("--type", "E8"),
     {"json": "4f6a29d62f080896c3612b45148768c31b4aa74320121cf5571dd419076f5bc6",
      "tsv": "871eed3ba6c379eba9f30a7275eb07ea47a2243f553d5c42abac6441f2df3b9d",
      "pretty": "702d7a8dc3f8b37f67b1d52b3d2a09c41fd24e55baa82d03feccfd562bd0b10b"}),
    (("--type", "A", "--rank", "4", "--profile", "paper5"),
     {"json": "0a3a6b690ba32ac966801ba51c919c6d58e5188b21d7867a58c27afd88e3eec8",
      "tsv": "023b27a97d7587adbd7094019c2289ce46c5d9aa818950f75f4279f8e29be781",
      "pretty": "f94a19a244ebe4883e4a106cea2f1dadebf8d65bdf2e616364a1edf955f71bb9"}),
]


@pytest.mark.parametrize("argv,digests", ROOTS_GOLDEN,
                         ids=[" ".join(a[1::2]) for a, _ in ROOTS_GOLDEN])
def test_roots_stdout_is_frozen(capsys, argv, digests):
    for fmt, digest in digests.items():
        code, out, _ = run(capsys, "roots", *argv, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


# sha256 of gp-list stdout, frozen before gp_element was rebuilt from its
# construction word; the words printed here are not always reduced
GP_LIST_GOLDEN = [
    (("--type", "D", "--rank", "4", "--format", "tsv"),
     "b3f2994d33d7a0acf8223ea6cc09fc62a4c1d49f354cca5c875ea371421b2da0"),
    (("--type", "D", "--rank", "5", "--format", "json"),
     "e4098fab843a2bbc58060e427e3820c14b4448deac39bc90d9bb6c7b1574a81a"),
    (("--type", "B", "--rank", "4", "--format", "pretty"),
     "4cecac6feb93d898bdc1b643c6cc6a8c8784e7f6c6b1a2cf24fe95116246722f"),
]


@pytest.mark.parametrize("argv,digest", GP_LIST_GOLDEN,
                         ids=[" ".join(a[1::2]) for a, _ in GP_LIST_GOLDEN])
def test_gp_list_stdout_is_frozen(capsys, argv, digest):
    code, out, _ = run(capsys, "gp-list", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# (type, rank, profile, word) for min-length; the stdout of all of them in
# one format is frozen by one sha256, taken while elements still carried the
# breadth-first word of the group table, so the printed terminal words pin
# the least reduced word that elements now derive
MIN_LENGTH_WORDS = [
    ("A", "2", "bourbaki", "s1 s2 s1"),
    ("A", "3", "bourbaki", "s2 s1 s3 s2"),
    ("A", "3", "paper5", "s3 s1 s2 s3 s1"),
    ("A", "4", "bourbaki", "s4 s2 s3 s1 s2 s4"),
    ("A", "4", "bourbaki", "1 2 3 4 3 2 1"),
    ("B", "2", "paper5", "t s1 t"),
    ("B", "3", "paper5", "t s1 t s2 s1"),
    ("B", "3", "paper5", "sp2 s1"),
    ("B", "3", "bourbaki", "s3 s2 s3 s1 s2"),
    ("B", "4", "paper5", "s3 t s1 s2 s3 s1 t s2"),
    ("B", "4", "bourbaki", "s4 s3 s4 s2 s1"),
    ("C", "3", "bourbaki", "s3 s2 s3 s2 s1"),
    ("C", "4", "bourbaki", "s1 s4 s3 s4 s2 s3"),
    ("D", "4", "paper5", "tp s2 s3 s1 s2"),
    ("D", "4", "paper5", "sp1 s3"),
    ("D", "4", "bourbaki", "s2 s1 s3 s4 s2 s1"),
    ("D", "5", "paper5", "s4 tp s2 s1 s3 s2 s4"),
    ("D", "5", "bourbaki", "s5 s3 s2 s4 s3 s1"),
    ("G", "2", "bourbaki", "s2 s1 s2 s1"),
    ("G", "2", "bourbaki", "s1 s2 s1"),
    ("F", "4", "bourbaki", "s3 s2 s3 s4 s1 s2 s3"),
    ("F", "4", "bourbaki", "4 3 2 1 2 3 4 3 2"),
    ("A", "5", "bourbaki", "s5 s3 s1 s4 s2 s3 s5"),
    ("B", "5", "paper5", "s4 s3 t s2 s1 s4 t"),
]
MIN_LENGTH_GOLDEN = {
    "json": "6cfaf6147849c58841c68abe16b3eac0fee0f1e89a5968731cdaa9dd41f1f60c",
    "tsv": "8117c9fc4ad37cf0f992f79777b0722d3558582fc59dcdd1d3e35160eb69b37d",
    "pretty": "d396811ef54c9648ec665842b7d2679cef3c2d7265ccb638a766b217f2b46508",
}


@pytest.mark.parametrize("fmt", sorted(MIN_LENGTH_GOLDEN))
def test_min_length_stdout_is_frozen(capsys, fmt):
    out = ""
    for kind, rank, profile, word in MIN_LENGTH_WORDS:
        code, part, _ = run(capsys, "min-length", "--type", kind, "--rank", rank,
                            "--profile", profile, "--word", word, "--format", fmt)
        assert code == 0, word
        out += part
    assert hashlib.sha256(out.encode()).hexdigest() == MIN_LENGTH_GOLDEN[fmt]
