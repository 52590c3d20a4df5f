"""Command-line front end.

Every subcommand prints deterministically (identical invocations give
byte-identical stdout).  Rationals render as 'p' or 'p/q'.  Exit codes:
0 success, 1 a gp-scan result whose all_pass is false, 2 usage or
capacity errors.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from . import DEFAULT_CAP, CapacityError, UsageError, __version__
from .classify import classification_scan
from .conjclass import (
    gp_element,
    gp_enumerate,
    gp_word_tokens,
    min_length_bruteforce,
    reduce_to_minimal,
)
from .dlcrit import check_dl_criterion, report_payload, scan_gp
from .gfflag import (
    dl_point_count,
    omega_point_count,
    period_point_count,
)
from .rootsys import build_root_system, rank_vs_dim_table
from .weyl import coxeter_length, from_word, parse_word, word_names

__all__ = ["main"]


def _emit(args, payload: Dict, rows: Optional[Tuple[Tuple[str, ...], List[Tuple]]] = None) -> None:
    """Render payload as json/pretty, or as TSV when row data is given."""
    fmt = args.format
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif fmt == "tsv":
        if rows is None:
            for key in sorted(payload):
                print(f"{key}\t{payload[key]}")
        else:
            header, data = rows
            print("\t".join(header))
            for row in data:
                print("\t".join(str(c) for c in row))
    else:  # pretty
        if rows is not None:
            header, data = rows
            widths = [
                max(len(str(h)), *(len(str(r[i])) for r in data)) if data else len(str(h))
                for i, h in enumerate(header)
            ]
            print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
            for row in data:
                print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
        else:
            for key in sorted(payload):
                print(f"{key}: {payload[key]}")


def _get_rs(args):
    return build_root_system(args.type, args.rank, args.profile)


def _parabolic_rows(rs) -> List[Dict]:
    """The per-node table of the standard system of rs's kind and rank."""
    table = rank_vs_dim_table(build_root_system(rs.kind, rs.rank, "bourbaki"))
    return [
        {"node": i, "dim": d, "minus_rank": diff, "equals_rank": eq}
        for i, d, diff, eq in table
    ]


def _cmd_roots(args) -> int:
    rs = _get_rs(args)
    payload = {
        "kind": rs.kind,
        "rank": rs.rank,
        "profile": rs.profile,
        "ambient": rs.ambient,
        "generators": list(rs.gen_names),
        "simple_roots": [[str(c) for c in r] for r in rs.simple_roots],
        "positive_count": len(rs.positive_roots),
        "positive_roots": [[str(c) for c in r] for r in rs.positive_roots],
        "trace_zero": rs.trace_zero,
    }
    if args.parabolic_table:
        payload["parabolic_table"] = _parabolic_rows(rs)
    _emit(args, payload)
    return 0


def _cmd_parabolic_table(args) -> int:
    rs = build_root_system(args.type, args.rank, "bourbaki")
    table = _parabolic_rows(rs)
    payload = {"kind": rs.kind, "rank": rs.rank, "rows": table}
    header = ("node", "dim", "minus_rank", "equals_rank")
    rows = (header, [tuple(r[h] for h in header) for r in table])
    _emit(args, payload, rows)
    return 0


def _cmd_min_length(args) -> int:
    rs = _get_rs(args)
    w = from_word(rs, args.word)
    chain = reduce_to_minimal(w)
    brute = min_length_bruteforce(w)
    payload = {
        "word": args.word,
        "start_length": coxeter_length(w),
        "min_length": coxeter_length(chain.terminal),
        "min_length_bruteforce": brute,
        "terminal_word": " ".join(word_names(rs, chain.terminal.word)),
        "steps": len(chain.steps),
    }
    _emit(args, payload)
    return 0


def _cmd_gp_list(args) -> int:
    data = gp_enumerate(args.type, args.rank)
    entries = []
    for d in data:
        w = gp_element(d)
        word = parse_word(w.rs, gp_word_tokens(d))  # as built, not reduced
        entries.append(
            {
                "datum": str(d),
                "parts": list(d.parts),
                "signs": list(d.signs),
                "delta": d.delta,
                "word": " ".join(word_names(w.rs, word)) or "e",
                "length": coxeter_length(w),
            }
        )
    payload = {
        "kind": data[0].kind,
        "rank": data[0].rank,
        "count": len(data),
        "entries": entries,
    }
    rows = (
        ("datum", "word", "length"),
        [(e["datum"], e["word"], e["length"]) for e in entries],
    )
    _emit(args, payload, rows)
    return 0


def _cmd_dl_criterion(args) -> int:
    rs = _get_rs(args)
    w = from_word(rs, args.word)
    report = check_dl_criterion(w, args.q, args.mode)
    payload = report_payload(report)
    payload["word"] = args.word
    _emit(args, payload)
    return 0


def _cmd_gp_scan(args) -> int:
    result = scan_gp(args.type, args.rank, args.q, args.mode)
    entries = [
        {
            "datum": str(e.datum),
            "feasible": e.report.result.feasible,
            "witness": ",".join(map(str, e.report.result.witness)),
        }
        for e in result.entries
    ]
    payload = {
        "kind": result.kind,
        "rank": result.rank,
        "q": result.q,
        "mode": result.mode,
        "count": len(entries),
        "all_pass": result.all_pass,
        "entries": entries,
    }
    rows = (
        ("datum", "feasible", "witness"),
        [(e["datum"], e["feasible"], e["witness"]) for e in entries],
    )
    _emit(args, payload, rows)
    return 0 if result.all_pass else 1


def _int_list(raw: str, option: str) -> Tuple[int, ...]:
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise UsageError(f"{option} must be comma-separated integers, got {raw!r}") from None


def _cmd_count_points(args) -> int:
    w = _int_list(args.w, "--w") if "," in args.w else args.w  # one-line or word
    count = dl_point_count(args.n, args.q, args.e, w, cap=args.cap)
    _emit(args, {"n": args.n, "q": args.q, "e": args.e, "w": args.w, "count": count})
    return 0


def _cmd_omega(args) -> int:
    count = omega_point_count(args.n, args.q, args.e, cap=args.cap)
    _emit(args, {"n": args.n, "q": args.q, "e": args.e, "count": count})
    return 0


def _cmd_period_domain(args) -> int:
    nu = _int_list(args.nu, "--nu")
    count = period_point_count(nu, args.q, args.e, cap=args.cap)
    _emit(args, {"nu": list(nu), "q": args.q, "e": args.e, "count": count})
    return 0


def _cmd_classify(args) -> int:
    records = classification_scan(args.n_max, args.t_max, args.q, args.nu_bound)
    chosen = records if args.all else [r for r in records if r.verdict.is_case]
    entries = []
    for r in chosen:
        entries.append(
            {
                "n": r.n,
                "t": r.t,
                "q": r.q,
                "words": [" ".join(ws) or "e" for ws in r.words],
                "nu": [",".join(str(a) for a in v) for v in r.nu.nu],
                "outcome": r.verdict.outcome,
                "side": r.verdict.side,
                "reason": r.verdict.reason,
            }
        )
    payload = {
        "n_max": args.n_max,
        "t_max": args.t_max,
        "q": args.q,
        "nu_bound": args.nu_bound,
        "total_records": len(records),
        "survivors": sum(1 for r in records if r.verdict.is_case),
        "entries": entries,
    }
    rows = (
        ("n", "t", "words", "nu", "outcome", "side"),
        [
            (
                e["n"],
                e["t"],
                "|".join(e["words"]),
                "|".join(e["nu"]),
                e["outcome"],
                e["side"] or "-",
            )
            for e in entries
        ],
    )
    _emit(args, payload, rows)
    return 0


def _add_type_args(p: argparse.ArgumentParser, profile: bool = True) -> None:
    p.add_argument("--type", required=True, help="kind letter (A..G) or combined like E6")
    p.add_argument("--rank", type=int, default=None, help="rank (when not implied by --type)")
    if profile:
        p.add_argument(
            "--profile",
            default="bourbaki",
            choices=("bourbaki", "paper5"),
            help="generator profile",
        )


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after."""
    ap = argparse.ArgumentParser(
        prog="dlperiod",
        description="Exact root-system, feasibility, and point-count computations.",
        allow_abbrev=False,
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, help):
        # no prefix matching: `--n` must not silently stand for `--nu`
        return sub.add_parser(name, help=help, allow_abbrev=False)

    def common(p, default_format="json"):
        p.add_argument(
            "--format",
            default=default_format,
            choices=("json", "tsv", "pretty"),
            help="output format",
        )

    p = command("roots", help="describe a root system")
    _add_type_args(p)
    p.add_argument("--parabolic-table", action="store_true", help="include per-node dims")
    common(p)
    p.set_defaults(func=_cmd_roots)

    p = command("parabolic-table", help="per-node parabolic dimensions vs rank")
    _add_type_args(p, profile=False)
    common(p)
    p.set_defaults(func=_cmd_parabolic_table)

    p = command("min-length", help="minimal twisted-class length of a word")
    _add_type_args(p)
    p.add_argument("--word", required=True, help="generator word, e.g. 't s1'")
    common(p)
    p.set_defaults(func=_cmd_min_length)

    p = command("gp-list", help="list block representatives")
    _add_type_args(p, profile=False)
    common(p)
    p.set_defaults(func=_cmd_gp_list)

    p = command("dl-criterion", help="decide the feasibility criterion for a word")
    _add_type_args(p)
    p.add_argument("--word", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--mode", default="full_D", choices=("full_D", "chamber_C"))
    common(p)
    p.set_defaults(func=_cmd_dl_criterion)

    p = command("gp-scan", help="criterion over all block representatives")
    _add_type_args(p, profile=False)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--mode", default="chamber_C", choices=("full_D", "chamber_C"))
    common(p)
    p.set_defaults(func=_cmd_gp_scan)

    p = command("count-points", help="flags at a relative Frobenius position")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--w", required=True, help="word like 's1 s2' or one-line '1,2,0'")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    common(p)
    p.set_defaults(func=_cmd_count_points)

    p = command("omega", help="points avoiding rational hyperplanes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    common(p)
    p.set_defaults(func=_cmd_omega)

    p = command("period-domain", help="semistable flag count for a cocharacter")
    p.add_argument("--nu", required=True, help="weakly decreasing ints, e.g. '1,0,0'")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    common(p)
    p.set_defaults(func=_cmd_period_domain)

    p = command("classify", help="scan (element, cocharacter) verdicts")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--t-max", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--nu-bound", type=int, required=True)
    p.add_argument("--all", action="store_true", help="include excluded records")
    common(p, default_format="tsv")
    p.set_defaults(func=_cmd_classify)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout went away (e.g. piped into head); exit quietly instead of
        # tracebacking during interpreter shutdown
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
