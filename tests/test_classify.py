from itertools import combinations_with_replacement, groupby

import pytest

from _oracles import within
from dlperiod import CapacityError, UsageError
from dlperiod.classify import (
    GroupSpec,
    _nu_stats,
    classification_scan,
    pd_dimension,
    res_coxeter_check,
    theorem_verdict,
)
from dlperiod.gfflag import (
    _symmetric,
    cochar,
    dl_point_count,
    nu_jump_dims,
    perm_from_word,
    period_point_count,
)
from dlperiod.rootsys import build_root_system, parabolic_dim
from dlperiod.weyl import from_word, identity_elem


RS3 = build_root_system("A", 2)
RS4 = build_root_system("A", 3)


def test_group_spec_validation():
    assert GroupSpec(4).rank == 3
    assert GroupSpec(2, t=3).t == 3
    with pytest.raises(UsageError):
        GroupSpec(1)
    with pytest.raises(UsageError):
        GroupSpec(3, t=0)


def test_pd_dimension():
    assert pd_dimension(GroupSpec(4), (1, 0, 0, 0)) == 3
    assert pd_dimension(GroupSpec(4), (1, 1, 0, 0)) == 4
    assert pd_dimension(GroupSpec(4), (2, 1, 0, 0)) == 5  # two jump nodes
    assert pd_dimension(GroupSpec(4), (1, 1, 1, 1)) == 0  # central
    two = GroupSpec(3, t=2)
    assert pd_dimension(two, ((1, 0, 0), (1, 1, 1))) == 2
    assert pd_dimension(two, ((1, 0, 0), (1, 1, 0))) == 4
    assert pd_dimension(two, cochar((1, 0, 0), (1, 1, 0))) == 4
    assert pd_dimension(two, [[1, 0, 0], [1, 1, 0]]) == 4


def test_res_coxeter_check():
    w = from_word(RS4, "s3 s2 s1")
    assert res_coxeter_check(GroupSpec(4), w)
    assert not res_coxeter_check(GroupSpec(4), from_word(RS4, "s1 s2 s1"))
    assert not res_coxeter_check(GroupSpec(4), from_word(RS4, "s1 s2"))
    two = GroupSpec(3, t=2)
    assert res_coxeter_check(two, (from_word(RS3, "s1"), from_word(RS3, "s2")))
    assert res_coxeter_check(two, (from_word(RS3, "s1 s2"), identity_elem(RS3)))
    assert not res_coxeter_check(two, (from_word(RS3, "s1"), from_word(RS3, "s1")))


def test_wrong_factor_elements_are_named_briefly():
    w = from_word(build_root_system("B", 3), "s1 s2")
    with pytest.raises(UsageError) as err:
        res_coxeter_check(GroupSpec(3), w)
    assert str(err.value) == (
        "factor elements must come from A2[bourbaki]; got <B3[bourbaki] s1 s2>"
    )
    with pytest.raises(UsageError) as err:
        res_coxeter_check(GroupSpec(3), ["s1"])
    assert str(err.value) == "factor elements must come from A2[bourbaki]; got 's1'"


def test_input_messages():
    two = GroupSpec(3, t=2)
    cases = [
        (lambda: res_coxeter_check(two, [identity_elem(RS3)]), "expected 2 factor elements, got 1"),
        (lambda: pd_dimension(two, (1, 0, 0)), "expected 2 cocharacter factors, got 1"),
        (lambda: pd_dimension(GroupSpec(3), (1, 0)), "cocharacter length 2 does not match degree 3"),
        (
            lambda: classification_scan(1, 1, 2, 1),
            "need n_max >= 2, t_max >= 1, nu_bound >= 0; got (1, 1, 1)",
        ),
        # a bool or a float is no count, even where it compares like one
        (lambda: GroupSpec(2, t=True), "factor count must be >= 1, got True"),
        (lambda: GroupSpec(2.0), "factor degree must be >= 2, got 2.0"),
        (lambda: GroupSpec(True), "factor degree must be >= 2, got True"),
        (
            lambda: classification_scan(2, True, 2, 1),
            "need n_max >= 2, t_max >= 1, nu_bound >= 0; got (2, True, 1)",
        ),
        (
            lambda: classification_scan(2.0, 1, 2, 1),
            "need n_max >= 2, t_max >= 1, nu_bound >= 0; got (2.0, 1, 1)",
        ),
        (
            lambda: classification_scan(2, 1, 2, 1.0),
            "need n_max >= 2, t_max >= 1, nu_bound >= 0; got (2, 1, 1.0)",
        ),
    ]
    for call, msg in cases:
        with pytest.raises(UsageError) as err:
            call()
        assert str(err.value) == msg


def test_verdict_chain_values():
    v = theorem_verdict(GroupSpec(4), from_word(RS4, "s1 s2 s3"), (1, 1, 0, 0))
    assert v.outcome == "excluded"
    d = v.chain_dict()
    assert d["length"] == 3 and d["dim"] == 4
    assert not v.is_case


def test_verdict_cases():
    ok = theorem_verdict(GroupSpec(4), from_word(RS4, "s3 s2 s1"), (1, 0, 0, 0))
    assert ok.is_case and ok.side == "lower"
    up = theorem_verdict(GroupSpec(4), from_word(RS4, "s1 s2 s3"), (1, 1, 1, 0))
    assert up.is_case and up.side == "upper"
    central = theorem_verdict(GroupSpec(4), identity_elem(RS4), (2, 2, 2, 2))
    assert central.outcome == "excluded" and "scalar" in central.reason
    # length 6 against dim 5: the dimension test decides before the rank bound
    long = theorem_verdict(GroupSpec(4), from_word(RS4, "s1 s2 s1 s3 s2 s1"), (2, 1, 0, 0))
    assert long.outcome == "excluded"
    assert long.reason == "dimension test: length 6 != dim 5"
    # length equal to the dimension (nu jumps (1,3), dim 5) but above the rank 3
    sh = theorem_verdict(GroupSpec(4), from_word(RS4, "s1 s2 s1 s3 s2"), (2, 1, 1, 0))
    assert sh.outcome == "excluded"
    assert sh.reason == "rank bound: length 5 > rank 3"
    # twisted test: correct length and shape but scattered support
    tw = theorem_verdict(GroupSpec(4), from_word(RS4, "s1 s2 s1"), (1, 0, 0, 0))
    assert tw.outcome == "excluded"


def test_two_factor_verdicts():
    two = GroupSpec(3, t=2)
    ws = (from_word(RS3, "s1 s2"), identity_elem(RS3))
    nu = ((1, 0, 0), (1, 1, 1))
    v = theorem_verdict(two, ws, nu)
    assert v.is_case and v.side == "lower"
    # the nonscalar weight on both factors doubles the dimension to 4
    v2 = theorem_verdict(two, ws, ((1, 0, 0), (1, 0, 0)))
    assert v2.outcome == "excluded"
    assert v2.reason == "dimension test: length 2 != dim 4"


def test_nonscalar_weights_have_dim_at_least_rank():
    # the fact that lets the verdict chain assert, not test, the dimension
    # and shape once the dimension test and the rank bound pass
    for n in range(2, 9):
        for v in combinations_with_replacement(range(2, -1, -1), n):
            dim, side = _nu_stats(v)
            if len(set(v)) == 1:
                assert (dim, side) == (0, None), v
            else:
                assert dim >= n - 1, v
                assert (side is not None) == (dim == n - 1), v


def test_nu_dim_matches_parabolic_dim():
    # the block-size formula against the positive roots of A_{n-1} supported
    # on a removed node
    for n in range(2, 9):
        rs = _symmetric(n)
        for v in combinations_with_replacement(range(3, -1, -1), n):
            assert _nu_stats(v)[0] == parabolic_dim(rs, nu_jump_dims(v)), v


def test_scan_small_frozen():
    recs = classification_scan(2, 2, 2, 1)
    assert len(recs) == (2 * 3) + (4 * 9)
    surv = [r for r in recs if r.verdict.is_case]
    # t=1: (s1, (1,0)).  t=2: one factor carries s1 and one carries the
    # weight (1,0), independently (2 slots each), the idle weight constant
    # (0,0) or (1,1): 2*2*2 = 8.
    assert len(surv) == 9
    t1 = [r for r in surv if r.t == 1]
    assert len(t1) == 1 and t1[0].words == (("s1",),) and t1[0].nu.nu == ((1, 0),)


def test_scan_survivor_structure():
    recs = classification_scan(3, 2, 2, 2)
    surv = [r for r in recs if r.verdict.is_case]
    by_nt = {}
    for r in surv:
        by_nt[(r.n, r.t)] = by_nt.get((r.n, r.t), 0) + 1
    assert by_nt == {(2, 1): 3, (2, 2): 36, (3, 1): 12, (3, 2): 216}
    # every survivor passes the explicit biconditional, every non-survivor fails it
    for r in recs:
        again = theorem_verdict(GroupSpec(r.n, t=r.t), _elems(r), r.nu.nu if r.t > 1 else r.nu.nu[0])
        assert again.outcome == r.verdict.outcome


def _elems(rec):
    rs = build_root_system("A", rec.n - 1)
    ws = tuple(from_word(rs, " ".join(w) if w else "") for w in rec.words)
    return ws if rec.t > 1 else ws[0]


def test_scan_is_q_independent():
    a = classification_scan(2, 1, 2, 1)
    b = classification_scan(2, 1, 3, 1)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert (ra.words, ra.nu.nu, ra.verdict.outcome) == (rb.words, rb.nu.nu, rb.verdict.outcome)
    with pytest.raises(UsageError):
        classification_scan(2, 1, 6, 1)  # q must be a prime power


def test_t1_survivors_satisfy_point_count_identity():
    recs = classification_scan(3, 1, 2, 2)
    for r in recs:
        if not r.verdict.is_case:
            continue
        perm = perm_from_word(r.n, " ".join(r.words[0]))
        assert dl_point_count(r.n, 2, 3, perm) == period_point_count(r.nu.nu[0], 2, 3), (
            r.words, r.nu.nu)


def _oracle_verdict(rec):
    """(outcome, reason, side, chain) of a scan record, from first principles.

    The length is the inversion count of the permutation the record's swaps
    give, the support holds s_i iff that permutation moves {1..i}, the
    dimension of a factor is (n^2 - sum of squared block sizes) / 2 over its
    blocks of equal entries, and the side is read off blocks (1, n-1) or
    (n-1, 1)."""
    n, r0 = rec.n, rec.n - 1
    lw, covered = 0, set()
    for word in rec.words:
        perm = list(range(n))
        for name in word:
            i = int(name[1:])
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
        lw += sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        covered |= {i for i in range(1, n) if set(perm[:i]) != set(range(i))}
    dim, sides = 0, []
    for v in rec.nu.nu:
        blocks = [len(list(g)) for _, g in groupby(v)]
        dim += (n * n - sum(b * b for b in blocks)) // 2
        if len(blocks) > 1:
            sides.append("lower" if blocks == [1, r0] else "upper" if blocks == [r0, 1] else None)
    t1 = len(sides)
    chain = (("length", lw), ("dim", dim), ("rank_bound", r0), ("rank_times_nonscalar", r0 * t1))
    if t1 == 0:
        return "excluded", "central cocharacter: every factor is scalar", None, chain
    if lw != dim:
        return "excluded", f"dimension test: length {lw} != dim {dim}", None, chain
    if lw > r0:
        return "excluded", f"rank bound: length {lw} > rank {r0}", None, chain
    if r0 * t1 != dim:
        return "excluded", f"rank-dimension test: rank*nonscalar {r0 * t1} != dim {dim}", None, chain
    if t1 != 1:
        return "excluded", f"rank-dimension test: {t1} nonscalar factors", None, chain
    if sides[0] is None:
        return "excluded", "shape test: nonscalar factor is not minuscule of end type", None, chain
    if not lw == len(covered) == r0:
        return "excluded", "twisted Coxeter test failed", None, chain
    return "drinfeld_case", f"all tests passed; minuscule {sides[0]} end", sides[0], chain


@pytest.mark.parametrize("args", [(3, 2, 2, 2), (4, 1, 2, 2)])
def test_scan_verdicts_match_first_principles_oracle(args):
    recs = classification_scan(*args)
    for r in recs:
        v = r.verdict
        assert (v.n, v.t) == (r.n, r.t)
        assert (v.outcome, v.reason, v.side, v.chain) == _oracle_verdict(r), (r.words, r.nu.nu)
    # A nonscalar factor has dim >= n - 1, with equality only for the two end
    # shapes, so the rank-dimension and shape tests never decide in a scan.
    assert {r.verdict.reason.split(":")[0] for r in recs} == {
        "central cocharacter",
        "dimension test",
        "rank bound",
        "twisted Coxeter test failed",
        "all tests passed; minuscule lower end",
        "all tests passed; minuscule upper end",
    }


def test_scan_cap():
    # (n! * C(b + n, n))^t summed: 6,486,696 records, refused before any is built
    with pytest.raises(CapacityError) as err:
        classification_scan(5, 2, 2, 2)
    assert str(err.value) == (
        "classification scan (5, 2, 2) needs at least 6486696 records, exceeding cap 1000000"
    )
    assert len(classification_scan(4, 2, 2, 2)) == 133776


def test_scan_refuses_a_big_q_by_size():
    # 2^61 - 1 is past the field cap: the size rule of every count refuses
    # it before trial division would take seconds to factor it
    q = 2**61 - 1
    with pytest.raises(CapacityError) as err:
        within(5, lambda: classification_scan(2, 1, q, 1))
    assert str(err.value) == f"field GF({q}^1) would have {q} elements, exceeding cap 65536"
