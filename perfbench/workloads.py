"""Seeded query sets for the three workloads, each query with its answer check.

A query is ``(kind, fn, args)``.  A session calls ``fn(api, *args)``; the
query fails when that raises or returns anything but True.  ``api`` comes
from spans.py: every call into dlperiod goes through ``api.call`` so that a
traced session records one span per public call, and ``api.tag`` attaches
counts to the span just recorded.

Checks are independent of the code under test or self-certifying: group
orders, parabolic dimensions and flag counts come from closed forms written
here, witnesses and certificates are re-verified exactly, and the
classification survivor counts are the literals of acceptance criterion 8.
"""
from __future__ import annotations

import contextlib
import io
import json
from collections import Counter
from fractions import Fraction
from math import comb, factorial

from dlperiod import classify, cli, conjclass, dlcrit, feaslin, gfflag, rootsys, weyl

# -- closed forms ---------------------------------------------------------

EXCEPTIONAL_NODE_DIMS = {
    ("E", 6): (16, 21, 25, 29, 25, 16),
    ("E", 7): (33, 42, 47, 53, 50, 42, 27),
    ("E", 8): (78, 92, 98, 106, 104, 97, 83, 57),
    ("F", 4): (15, 20, 20, 15),
    ("G", 2): (5, 5),
}

# survivors per (n, t) of classification_scan(3, 2, 2, 2), acceptance criterion 8
CLASSIFY_SURVIVORS = {(2, 1): 3, (2, 2): 36, (3, 1): 12, (3, 2): 216}

PINNED_OMEGA = {(2, 2, 2): 2, (3, 2, 2): 0, (3, 2, 3): 24}


def group_order(kind: str, rank: int) -> int:
    if kind == "A":
        return factorial(rank + 1)
    if kind in ("B", "C"):
        return 2**rank * factorial(rank)
    if kind == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
            ("F", 4): 1152, ("G", 2): 12}[kind, rank]


def parabolic_dims(kind: str, rank: int) -> tuple:
    """Dimension of G/P for each maximal parabolic, node by node."""
    if (kind, rank) in EXCEPTIONAL_NODE_DIMS:
        return EXCEPTIONAL_NODE_DIMS[kind, rank]
    l = rank
    out = []
    for i in range(1, l + 1):
        if kind == "A":
            out.append(i * (l + 1 - i))
        elif kind in ("B", "C"):
            out.append(i * (l - i) + i + comb(l, 2) - comb(l - i, 2))
        elif i <= l - 2:  # D
            out.append(i * (l - i) + comb(l, 2) - comb(l - i, 2))
        else:
            out.append(comb(l, 2))
    return tuple(out)


def scan_record_count(n_max: int, t_max: int, nu_bound: int) -> int:
    """Records of classification_scan: (n!)^t words times C(bound+n, n)^t weights."""
    return sum(
        (factorial(n) * comb(nu_bound + n, n)) ** t
        for n in range(2, n_max + 1)
        for t in range(1, t_max + 1)
    )


def gauss_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def complete_flags(n: int, q: int) -> int:
    """Complete flags in GF(q)^n: the product of [k]_q for k = 1..n."""
    out = 1
    for k in range(1, n + 1):
        out *= (q**k - 1) // (q - 1)
    return out


def projective_points(n: int, q: int) -> int:
    return (q**n - 1) // (q - 1)


def omega_closed_form(n: int, q: int, e: int) -> int:
    """Points of P^(n-1) over GF(q^e) off every GF(q)-rational hyperplane, by
    Moebius inversion over the lattice of rational subspaces."""
    big = q**e
    total = sum((-1) ** (n - k) * q ** comb(n - k, 2) * gauss_binomial(n, k, q) * big**k
                for k in range(n + 1))
    return total // (big - 1)


def flags_of_type(n: int, dims: tuple, q: int) -> int:
    out, prev = 1, 0
    for d in dims:
        out *= gauss_binomial(n - prev, d - prev, q)
        prev = d
    return out


# -- shared call helpers --------------------------------------------------


def run_cli(api, argv: list) -> dict:
    """Run `dlperiod <argv> --format json` in process and parse its stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = api.call("cli.main", cli.main, argv + ["--format", "json"])
    out = buf.getvalue()
    api.tag(stdout_bytes=len(out.encode()))
    if code != 0:
        raise RuntimeError(f"dlperiod {' '.join(argv)} exited with {code}")
    return json.loads(out)


def _build(api, kind, rank, profile="bourbaki"):
    rs = api.call("rootsys.build_root_system", rootsys.build_root_system, kind, rank, profile)
    api.tag(cold=api.first(("rs", kind, rank, profile)))
    return rs


def _table_cold(api, rs) -> bool:
    """True for the first twisted-class walk in a group: it builds the table."""
    return api.first(("table", rs.kind, rs.rank, rs.profile))


def _reduce(api, w):
    cold = _table_cold(api, w.rs)
    chain = api.call("conjclass.reduce_to_minimal", conjclass.reduce_to_minimal, w)
    api.tag(cold=cold, steps=len(chain.steps))
    return chain


def _cox_len(api, w) -> int:
    return api.call("weyl.coxeter_length", weyl.coxeter_length, w)


def _enumerate(api, rs):
    elems = api.call("weyl.enumerate_group", weyl.enumerate_group, rs)
    api.tag(n=len(elems))
    return elems


def _verify(api, system, feasible, witness, certificate) -> bool:
    if feasible:
        return api.call("feaslin.verify_witness", feaslin.verify_witness, system, witness)
    return api.call("feaslin.verify_certificate", feaslin.verify_certificate, system, certificate)


def _solve(api, system):
    res = api.call("feaslin.strict_feasible", feaslin.strict_feasible, system)
    bits = max((abs(c.numerator).bit_length() for c in res.witness), default=0) if res.feasible else 0
    api.tag(forms=len(system.forms), feasible=res.feasible, bits=bits)
    return res


def _fracs(xs):
    return None if xs is None else tuple(Fraction(x) for x in xs)


# -- groups: Weyl-group and twisted-class work ----------------------------


def q_parabolic(api, kind, rank, via_cli):
    if via_cli:
        out = run_cli(api, ["parabolic-table", "--type", kind, "--rank", str(rank)])
        rows = [(r["node"], r["dim"], r["minus_rank"], r["equals_rank"]) for r in out["rows"]]
    else:
        rs = _build(api, kind, rank)
        rows = api.call("rootsys.rank_vs_dim_table", rootsys.rank_vs_dim_table, rs)
    expected = [(i, d, d - rank, d == rank) for i, d in enumerate(parabolic_dims(kind, rank), 1)]
    return [tuple(r) for r in rows] == expected


def q_enumerate(api, kind, rank, profile, probes):
    """All elements, distinct, in the formula's number, with geodesic words."""
    rs = _build(api, kind, rank, profile)
    elems = _enumerate(api, rs)
    order = group_order(kind, rank)
    ok = len(elems) == order == len({w.matrix for w in elems}) and elems[0].word == ()
    for i in probes:
        w = elems[i]
        ok &= _cox_len(api, w) == len(w.word)
    return ok


def q_min_length(api, kind, rank, profile, word, via_cli):
    """Cyclic-shift reduction reaches the brute-force minimum of the class."""
    if via_cli:
        api.first(("table", kind, rank, profile))  # the table is built inside the CLI
        out = run_cli(api, ["min-length", "--type", kind, "--rank", str(rank),
                            "--profile", profile, "--word", word])
        return out["min_length"] == out["min_length_bruteforce"] <= out["start_length"]
    rs = _build(api, kind, rank, profile)
    w = api.call("weyl.from_word", weyl.from_word, rs, word)
    chain = _reduce(api, w)
    brute = api.call("conjclass.min_length_bruteforce", conjclass.min_length_bruteforce, w)
    return _cox_len(api, chain.terminal) == brute <= _cox_len(api, w)


def q_class_walk(api, kind, rank, profile):
    """Criterion 4 style: reduction is minimal for every element of the group."""
    rs = _build(api, kind, rank, profile)
    elems = _enumerate(api, rs)
    ok = len(elems) == group_order(kind, rank)
    for w in elems:
        chain = _reduce(api, w)
        brute = api.call("conjclass.min_length_bruteforce", conjclass.min_length_bruteforce, w)
        ok &= _cox_len(api, chain.terminal) == brute
    return ok


def q_class_reps(api, kind, rank):
    """Criterion 5 style: every shift closure reaches a block representative
    of minimal length."""
    data = api.call("conjclass.gp_enumerate", conjclass.gp_enumerate, kind, rank)
    reps = [api.call("conjclass.gp_element", conjclass.gp_element, d) for d in data]
    rep_mats = {w.matrix for w in reps}
    rs = reps[0].rs
    ok = True
    for w in _enumerate(api, rs):
        cold = _table_cold(api, rs)
        closure = api.call("conjclass.shift_closure", conjclass.shift_closure, w)
        api.tag(cold=cold, n=len(closure))
        lengths = [_cox_len(api, x) for x in closure]
        mn = min(lengths)
        ok &= any(x.matrix in rep_mats and l == mn for x, l in zip(closure, lengths))
    return ok


def q_classify(api, n_max, t_max, q, bound):
    """Criterion 8: survivor counts per (n, t) and the total record count."""
    recs = api.call("classify.classification_scan", classify.classification_scan,
                    n_max, t_max, q, bound)
    api.tag(n=len(recs))
    survivors = Counter((r.n, r.t) for r in recs if r.verdict.is_case)
    expected = {k: v for k, v in CLASSIFY_SURVIVORS.items() if k[0] <= n_max and k[1] <= t_max}
    return len(recs) == scan_record_count(n_max, t_max, bound) and survivors == expected


# -- criterion: feasibility systems and block-representative scans --------


def q_criterion(api, kind, rank, profile, word, q, mode, via_cli):
    """Decide the criterion; re-verify the witness or certificate exactly."""
    rs = _build(api, kind, rank, profile)
    w = api.call("weyl.from_word", weyl.from_word, rs, word)
    system = api.call("dlcrit.build_criterion_system", dlcrit.build_criterion_system, w, q, mode)
    if via_cli:
        out = run_cli(api, ["dl-criterion", "--type", kind, "--rank", str(rank), "--profile",
                            profile, "--word", word, "--q", str(q), "--mode", mode])
        printed = [f["coeffs"] for f in out["forms"]]
        ok = printed == [[str(c) for c in f.coeffs] for f in system.forms]
        feasible, witness, cert = out["feasible"], _fracs(out["witness"]), _fracs(out["certificate"])
    else:
        res = _solve(api, system)
        ok = True
        feasible, witness, cert = res.feasible, res.witness, res.certificate
    ok &= _verify(api, system, feasible, witness, cert)
    if mode == "chamber_C" and feasible:  # the chamber lies in every inversion region
        full = api.call("dlcrit.build_criterion_system", dlcrit.build_criterion_system, w, q, "full_D")
        ok &= _verify(api, full, True, witness, None)
    return ok


def q_scan(api, kind, rank, q, via_cli):
    """Criterion 3: every block representative has a verified witness."""
    data = api.call("conjclass.gp_enumerate", conjclass.gp_enumerate, kind, rank)
    if via_cli:
        out = run_cli(api, ["gp-scan", "--type", kind, "--rank", str(rank), "--q", str(q)])
        ok = out["all_pass"] and [e["datum"] for e in out["entries"]] == [str(d) for d in data]
        for d, e in zip(data, out["entries"]):
            w = api.call("conjclass.gp_element", conjclass.gp_element, d)
            system = api.call("dlcrit.build_criterion_system", dlcrit.build_criterion_system,
                              w, q, "chamber_C")
            ok &= _verify(api, system, True, _fracs(e["witness"].split(",")), None)
        return ok
    res = api.call("dlcrit.scan_gp", dlcrit.scan_gp, kind, rank, q, "chamber_C")
    api.tag(n=len(res.entries))
    ok = res.all_pass and len(res.entries) == len(data)
    for e in res.entries:
        ok &= _verify(api, e.report.system, True, e.report.result.witness, None)
    return ok


def q_corpus(api, systems):
    """Criterion 9 shape: small random strict systems, each answer re-verified."""
    ok = True
    for rows in systems:
        system = api.call("feaslin.strict_system", feaslin.strict_system, rows)
        res = _solve(api, system)
        ok &= _verify(api, system, res.feasible, res.witness, res.certificate)
    return ok


# -- flags: finite fields and flag counts ---------------------------------


def _count_cold(api, n, q, e) -> int:
    """Flags walked by this call: all complete flags on a cell's first use."""
    if not api.first(("tally", n, q, e)):
        return 0
    return api.call("gfflag.flag_count", gfflag.flag_count, n, tuple(range(1, n)), q**e)


def q_tally(api, n, q, e):
    """Criterion 7: the tally partitions all complete flags; the identity
    position holds exactly the GF(q)-rational flags."""
    walked = _count_cold(api, n, q, e)
    tally = api.call("gfflag.dl_point_tally", gfflag.dl_point_tally, n, q, e)
    api.tag(flags=walked)
    identity = tuple(range(n))
    return (sum(tally.values()) == complete_flags(n, q**e)
            and tally.get(identity, 0) == complete_flags(n, q)
            and all(sorted(w) == list(identity) for w in tally))


def q_count(api, n, q, e, perm):
    """A single relative position, against the tally of its cell."""
    walked = _count_cold(api, n, q, e)
    count = api.call("gfflag.dl_point_count", gfflag.dl_point_count, n, q, e, perm)
    api.tag(flags=walked)
    tally = api.call("gfflag.dl_point_tally", gfflag.dl_point_tally, n, q, e)
    ok = count == tally.get(perm, 0)
    if perm == tuple(range(n)):
        ok &= count == complete_flags(n, q)
    return ok


def _period(api, nu, q, e):
    dims = tuple(i + 1 for i in range(len(nu) - 1) if nu[i] > nu[i + 1])
    count = api.call("gfflag.period_point_count", gfflag.period_point_count, nu, q, e)
    api.tag(flags=flags_of_type(len(nu), dims, q**e))
    return count


def q_coxeter_cell(api, n, q, e, via_cli):
    """Criterion 6: on the Coxeter cell the DL count equals the Omega count,
    the semistable count for (1,0,..,0) and, dually, for (1,..,1,0)."""
    nus = dict.fromkeys([(1,) + (0,) * (n - 1), (1,) * (n - 1) + (0,)])  # one when n = 2
    if via_cli:
        api.first(("tally", n, q, e))
        cell = ["--q", str(q), "--e", str(e)]
        word = " ".join(f"s{i}" for i in range(1, n))
        counts = [
            run_cli(api, ["count-points", "--n", str(n), "--w", word] + cell)["count"],
            run_cli(api, ["omega", "--n", str(n)] + cell)["count"],
        ] + [run_cli(api, ["period-domain", "--nu", ",".join(map(str, nu))] + cell)["count"]
             for nu in nus]
    else:
        perm = api.call("gfflag.coxeter_perm", gfflag.coxeter_perm, n)
        walked = _count_cold(api, n, q, e)
        dl = api.call("gfflag.dl_point_count", gfflag.dl_point_count, n, q, e, perm)
        api.tag(flags=walked)
        om = api.call("gfflag.omega_point_count", gfflag.omega_point_count, n, q, e)
        api.tag(points=projective_points(n, q**e))
        counts = [dl, om] + [_period(api, nu, q, e) for nu in nus]
    ok = len(set(counts)) == 1
    if (n, q, e) in PINNED_OMEGA:
        ok &= counts[0] == PINNED_OMEGA[n, q, e]
    return ok


def q_omega(api, n, q, e, via_cli):
    """The Omega count against its closed form."""
    if via_cli:
        count = run_cli(api, ["omega", "--n", str(n), "--q", str(q), "--e", str(e)])["count"]
    else:
        count = api.call("gfflag.omega_point_count", gfflag.omega_point_count, n, q, e)
        api.tag(points=projective_points(n, q**e))
    return count == omega_closed_form(n, q, e)


def q_period_dual(api, nu, q, e):
    """Duality V -> V*: nu and its dual have equally many semistable flags."""
    dual = tuple(nu[0] - x for x in reversed(nu))
    a, b = _period(api, nu, q, e), _period(api, dual, q, e)
    dims = tuple(i + 1 for i in range(len(nu) - 1) if nu[i] > nu[i + 1])
    return a == b <= flags_of_type(len(nu), dims, q**e)


def q_field(api, p, k, probes):
    """A primitive element generates all units; inverses and the p-power
    Frobenius behave on a few seeded elements."""
    fld = api.call("gfflag.field_build", gfflag.field_build, p, k)
    units = p**k - 1
    ok = fld.size == p**k and len(fld.exp) == units == len(set(fld.exp))
    frob = fld.frob_map(p)
    for a in probes:
        a = 1 + a % units
        ok &= fld.mul(a, fld.inv(a)) == 1
        x = a
        for _ in range(k):
            x = frob[x]
        ok &= x == a
    return ok


# -- seeded query sets ----------------------------------------------------

CLI_SHARE = 4  # one query in CLI_SHARE of each CLI-expressible kind goes through cli.main


def _cli_mask(rng, count: int) -> list:
    """Exactly count // CLI_SHARE seeded positions routed through the CLI: one
    in each full block of CLI_SHARE consecutive queries.  Query lists are in
    rough order of cost, so the routed queries spread over the whole range of
    costs whatever the seed, and the latency percentiles do not depend on
    which cheap or dear queries the seed happened to pick."""
    chosen = {b + rng.randrange(CLI_SHARE) for b in range(0, count - CLI_SHARE + 1, CLI_SHARE)}
    return [i in chosen for i in range(count)]


def _letters(rng, rank: int, length: int) -> str:
    """A random word of 1-based generator positions, e.g. '3 1 2'."""
    return " ".join(str(rng.randint(1, rank)) for _ in range(length))


def _word(rng, rank: int, max_len: int) -> str:
    """A random word of random length 1..max_len."""
    return _letters(rng, rank, rng.randint(1, max_len))


TABLE_SYSTEMS = (
    [("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(3, 9)] + [("D", r) for r in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)
ENUM_GROUPS = [("F", 4, "bourbaki"), ("A", 5, "bourbaki"), ("D", 5, "bourbaki"), ("B", 5, "paper5")]
MIN_LENGTH_GROUPS = [
    ("A", 3, "bourbaki"), ("A", 4, "bourbaki"), ("B", 3, "bourbaki"), ("G", 2, "bourbaki"),
    ("A", 3, "paper5"), ("B", 3, "paper5"), ("D", 4, "paper5"),
]
WALK_GROUPS = [("A", 3, "bourbaki"), ("B", 3, "paper5"), ("G", 2, "bourbaki")]
REP_GROUPS = [("A", 3), ("B", 3)]


def build_groups(rng, tiny: bool) -> list:
    tables = TABLE_SYSTEMS if not tiny else [("A", 1), ("A", 2), ("B", 2), ("G", 2)]
    enums = ENUM_GROUPS if not tiny else [("A", 3, "bourbaki")]
    min_groups = MIN_LENGTH_GROUPS if not tiny else [("A", 2, "bourbaki"), ("B", 2, "paper5")]
    words_per_group = 4 if not tiny else 2
    out = []
    for (kind, rank), cli in zip(tables, _cli_mask(rng, len(tables))):
        out.append(("parabolic", q_parabolic, (kind, rank, cli)))
    for kind, rank, profile in enums:
        probes = tuple(rng.randrange(group_order(kind, rank)) for _ in range(8))
        out.append(("enumerate", q_enumerate, (kind, rank, profile, probes)))
    words = [(g, _word(rng, g[1], 12)) for g in min_groups for _ in range(words_per_group)]
    for ((kind, rank, profile), word), cli in zip(words, _cli_mask(rng, len(words))):
        out.append(("min_length", q_min_length, (kind, rank, profile, word, cli)))
    for spec in WALK_GROUPS if not tiny else [("G", 2, "bourbaki")]:
        out.append(("class_walk", q_class_walk, spec))
    for spec in REP_GROUPS if not tiny else [("A", 2)]:
        out.append(("class_reps", q_class_reps, spec))
    out.append(("classify", q_classify, (3, 2, 2, 2) if not tiny else (2, 1, 2, 2)))
    return out


# Longest random word per group.  Longer words reach Fourier-Motzkin systems
# that alone outlast a run (see NOTES.md, "Heavy tail").
CRITERION_GROUPS = {("B", 5): 4, ("D", 5): 4, ("B", 6): 3, ("D", 6): 3}
PROFILES = ("bourbaki", "paper5")
WORDS_PER_CELL = 4
# A known Fourier-Motzkin blow-up, asked in every session, so that each
# session pays the same heavy tail.  About 1 in 300 random words of length
# up to 4 costs as much; when only those carried the tail, the median
# session jumped between sessions with and without one (see NOTES.md,
# "Heavy tail").
HEAVY_WORDS = [("B", 5, "paper5", "3 4 1 5", 4, "full_D")]
SCAN_CELLS = (
    [("A", r) for r in range(2, 7)] + [("B", r) for r in range(2, 5)] + [("D", 4)]
)
CORPUS_QUERIES, CORPUS_SIZE = 10, 20


def _corpus_rows(rng) -> tuple:
    d, m = rng.randint(1, 4), rng.randint(1, 8)
    return tuple(tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(m))


def build_criterion(rng, tiny: bool) -> list:
    groups = CRITERION_GROUPS if not tiny else {("B", 5): 2}
    qs = (2, 3, 4, 5) if not tiny else (2,)
    # Every session asks the same number of words of each (profile, length)
    # in each group; the seed decides only which cell gets which, and the
    # letters, so that sessions differ in which words they solve but not in
    # how many long or `paper5` ones.
    words = []
    for (kind, rank), max_len in groups.items():
        cells = [(q, mode) for q in qs for mode in dlcrit.MODES
                 for _ in range(WORDS_PER_CELL if not tiny else 1)]
        mix = [(PROFILES[i % 2], 1 + (i // 2) % max_len) for i in range(len(cells))]
        rng.shuffle(mix)
        words += [(kind, rank, profile, _letters(rng, rank, length), q, mode)
                  for (q, mode), (profile, length) in zip(cells, mix)]
    out = [("criterion", q_criterion, args + (cli,))
           for args, cli in zip(words, _cli_mask(rng, len(words)))]
    out += [("criterion", q_criterion, args + (False,)) for args in (HEAVY_WORDS if not tiny else ())]
    cells = [(kind, rank, q) for kind, rank in (SCAN_CELLS if not tiny else [("A", 2), ("B", 2)])
             for q in (2, 3)]
    out += [("scan_gp", q_scan, cell + (cli,)) for cell, cli in zip(cells, _cli_mask(rng, len(cells)))]
    n_corpus, size = (CORPUS_QUERIES, CORPUS_SIZE) if not tiny else (1, 5)
    out += [("corpus", q_corpus, (tuple(_corpus_rows(rng) for _ in range(size)),))
            for _ in range(n_corpus)]
    return out


def _cell_cost(cell) -> int:
    """Point-hyperplane tests of an Omega count, the order of a cell's cost."""
    n, q, e = cell
    return projective_points(n, q**e) * projective_points(n, q)


# criterion 6, cheapest first
COXETER_CELLS = sorted(((n, q, e) for n in (2, 3) for q in (2, 3) for e in (1, 2, 3)), key=_cell_cost)
TALLY_CELLS = COXETER_CELLS + [(4, 2, 1)]  # 13 cells: the tally cache holds 16
COUNT_QUERIES = 12
PERIOD_DUALS, PERIOD_CELL = 2, (2, 3)
FIELDS = (
    [(2, k) for k in range(1, 14)] + [(3, k) for k in (1, 2, 3, 4, 5, 7, 8)]
    + [(5, k) for k in (1, 2, 3, 5)] + [(7, k) for k in (1, 2, 4)]
)
# Every Omega cell over a field the field queries build, with at most 2,000
# point-hyperplane tests, cheapest first, so that each takes a millisecond or
# two.  These many small queries, the same in every session, make the middle
# of the latency distribution dense; without them the median fell in a gap
# between two queries and jumped from run to run.
OMEGA_CELLS = sorted((
    (n, q, e)
    for n in (2, 3, 4)
    for q, (p, m) in {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}.items()
    for e in range(1, 7)
    if (p, m * e) in FIELDS and _cell_cost((n, q, e)) <= 2_000
), key=_cell_cost)


def build_flags(rng, tiny: bool) -> list:
    tally_cells = TALLY_CELLS if not tiny else [(2, 2, 1), (2, 2, 2), (3, 2, 1)]
    cox_cells = COXETER_CELLS if not tiny else [(2, 2, 2), (3, 2, 2)]
    out = [("tally", q_tally, cell) for cell in tally_cells]
    out += [("coxeter_cell", q_coxeter_cell, cell + (cli,))
            for cell, cli in zip(cox_cells, _cli_mask(rng, len(cox_cells)))]
    for _ in range(COUNT_QUERIES if not tiny else 2):
        n, q, e = rng.choice(tally_cells)
        perm = list(range(n))
        rng.shuffle(perm)
        out.append(("count", q_count, (n, q, e, tuple(perm))))
    for _ in range(PERIOD_DUALS if not tiny else 1):
        # a strictly decreasing weight (a, b, 0) that is not its own dual
        a = rng.randint(3, 6)
        b = rng.choice([b for b in range(1, a) if 2 * b != a])
        out.append(("period_dual", q_period_dual, ((a, b, 0),) + PERIOD_CELL))
    for p, k in FIELDS if not tiny else [(2, 3), (3, 2), (5, 1)]:
        out.append(("field", q_field, (p, k, tuple(rng.randrange(p**k) for _ in range(4)))))
    cells = OMEGA_CELLS if not tiny else [(2, 2, 2), (3, 2, 3)]
    out += [("omega", q_omega, cell + (cli,)) for cell, cli in zip(cells, _cli_mask(rng, len(cells)))]
    return out


WORKLOADS = {"groups": build_groups, "criterion": build_criterion, "flags": build_flags}
