from fractions import Fraction as Q

import pytest

from dlperiod import CapacityError, UsageError
from dlperiod.linalg import matmul
from dlperiod.rootsys import build_root_system
from dlperiod.weyl import (
    act,
    coxeter_length,
    enumerate_group,
    from_word,
    generator,
    inverse,
    multiply,
    word_names,
)
from dlperiod.conjclass import (
    GPDatum,
    cyclic_shift_step,
    gp_element,
    gp_enumerate,
    gp_system,
    gp_word_tokens,
    group_table,
    min_length_bruteforce,
    reduce_to_minimal,
    shift_closure,
    twisted_class,
)


def brute_class(w, F=None):
    """Conjugation orbit under generators, matrix-level, as the oracle."""
    rs = w.rs
    gens = [generator(rs, i) for i in range(len(rs.gen_names))]
    fgens = gens if F is None else [F(g) for g in gens]
    seen = {w.matrix}
    frontier = [w]
    while frontier:
        nxt = []
        for x in frontier:
            for g, fg in zip(gens, fgens):
                y = multiply(multiply(g, x), fg)
                if y.matrix not in seen:
                    seen.add(y.matrix)
                    nxt.append(y)
        frontier = nxt
    return seen


def test_twisted_class_matches_brute_force():
    rs = build_root_system("B", 2, "paper5")
    for w in enumerate_group(rs):
        cls = {x.matrix for x in twisted_class(w)}
        assert cls == brute_class(w), w.word


def test_min_length_t_is_one():
    rs = build_root_system("B", 2, "paper5")
    t = from_word(rs, "t")
    assert min_length_bruteforce(t) == 1
    chain = reduce_to_minimal(t)
    assert coxeter_length(chain.terminal) == 1
    assert chain.steps == ()


def test_reduction_chain_replays():
    for spec in [("B", 2, "paper5"), ("A", 3, "bourbaki"), ("G", 2, "bourbaki")]:
        rs = build_root_system(*spec)
        for w in enumerate_group(rs):
            chain = reduce_to_minimal(w)
            cur = w
            lengths = [coxeter_length(cur)]
            for step in chain.steps:
                cur = cyclic_shift_step(cur, step.gen)
                lengths.append(coxeter_length(cur))
            assert cur.matrix == chain.terminal.matrix, (spec, w.word)
            # monotone: no step may increase the length
            assert all(b <= a for a, b in zip(lengths, lengths[1:])), (spec, w.word)
            assert coxeter_length(chain.terminal) == min_length_bruteforce(w), (spec, w.word)


def test_cyclic_shift_step_is_conjugation():
    rs = build_root_system("B", 3, "paper5")
    w = from_word(rs, "t s1 s2 t")
    for g in range(3):
        s = generator(rs, g)
        assert cyclic_shift_step(w, g).matrix == multiply(multiply(s, w), s).matrix


def test_twisted_variant_with_diagram_automorphism():
    rs = build_root_system("A", 3)
    flip = {1: 3, 2: 2, 3: 1}  # 1-based generator relabeling
    w = from_word(rs, "s1")
    cls = twisted_class(w, F=flip)
    mats = {x.matrix for x in cls}
    s3 = from_word(rs, "s3")
    # s3 * s1 * flip(s3) = s3 s1 s1 = s3
    assert s3.matrix in mats
    with pytest.raises(UsageError):
        twisted_class(w, F={1: 2, 2: 2, 3: 3})


def test_shift_closure_contains_start_and_is_length_monotone():
    rs = build_root_system("D", 4, "paper5")
    w = from_word(rs, "tp s2 s3")
    cl = shift_closure(w)
    assert any(x.matrix == w.matrix for x in cl)
    lw = coxeter_length(w)
    assert all(coxeter_length(x) <= lw for x in cl)


def test_cached_group_table_respects_cap():
    rs = build_root_system("B", 3)
    assert len(group_table(rs).elems) == 48
    with pytest.raises(CapacityError) as exc:
        group_table(rs, cap=10)
    assert "48" in str(exc.value)
    with pytest.raises(CapacityError):
        reduce_to_minimal(from_word(rs, "s1 s2"), cap=47)
    assert group_table(rs, cap=48) is group_table(rs)


# --- distinguished representatives -----------------------------------------

def test_gp_datum_validation():
    with pytest.raises(UsageError):
        GPDatum("C", 3, (3,), (1,))
    with pytest.raises(UsageError):
        GPDatum("A", 3, (2,), (1,))  # parts must sum to rank
    with pytest.raises(UsageError):
        GPDatum("A", 3, (2, 1), (1, -1))  # kind A is all-plus
    with pytest.raises(UsageError):
        GPDatum("B", 3, (2, 1), (1,))  # one sign per part
    with pytest.raises(UsageError):
        GPDatum("B", 3, (2, 1), (1, 0))
    with pytest.raises(UsageError):
        GPDatum("B", 3, (3,), (1,), delta="s1")  # delta is kind D only
    with pytest.raises(UsageError):
        GPDatum("D", 4, (3,), (1,), delta="weird")
    with pytest.raises(UsageError):
        GPDatum("D", 3, (2,), (1,))
    d = GPDatum("D", 4, (2, 1), (-1, 1), delta="tprime")
    assert str(d) == "D4(2,1;-,+;tprime)"
    assert str(GPDatum("A", 3, (2, 1), (1, 1))) == "A3(2,1;+,+)"


def test_gp_word_tokens_frozen():
    assert gp_word_tokens(GPDatum("A", 3, (3,), (1,))) == ("s1", "s2")
    assert gp_word_tokens(GPDatum("B", 2, (2,), (-1,))) == ("sp0", "s1")
    assert gp_word_tokens(GPDatum("B", 3, (1, 2), (1, -1))) == ("sp1", "s2")
    assert gp_word_tokens(GPDatum("D", 4, (3,), (-1,), delta="s1")) == (
        "s1", "sp0", "s2", "s3",
    )
    assert gp_word_tokens(GPDatum("D", 4, (2, 1), (1, -1), delta="tprime")) == (
        "tp", "s2", "sp2",
    )


def test_gp_system_ranks():
    assert str(gp_system(GPDatum("A", 4, (4,), (1,)))) == "A3[paper5]"
    assert str(gp_system(GPDatum("B", 3, (3,), (1,)))) == "B3[paper5]"
    assert str(gp_system(GPDatum("D", 5, (4,), (1,)))) == "D5[paper5]"


def test_gp_element_signed_cycles():
    w = gp_element(GPDatum("B", 2, (2,), (-1,)))
    assert act(w, (Q(1), Q(0))) == (Q(0), Q(1))
    assert act(w, (Q(0), Q(1))) == (Q(-1), Q(0))
    w = gp_element(GPDatum("B", 2, (2,), (1,)))
    assert act(w, (Q(1), Q(0))) == (Q(0), Q(1))
    assert act(w, (Q(0), Q(1))) == (Q(1), Q(0))
    # kind D: blocks act one to the right of the special first coordinate
    w = gp_element(GPDatum("D", 4, (3,), (1,)))
    assert act(w, (Q(9), Q(1), Q(2), Q(3))) == (Q(9), Q(3), Q(1), Q(2))
    w = gp_element(GPDatum("D", 4, (3,), (-1,)))
    # the sign ladder flips the special coordinate and the cycle end
    v = act(w, (Q(9), Q(1), Q(2), Q(3)))
    assert sorted(abs(c) for c in v) == [Q(1), Q(2), Q(3), Q(9)]
    neg = sum(1 for c in v if c < 0)
    assert neg % 2 == 0 and neg > 0


def test_gp_element_matches_word_expansion():
    for kind, rank in [("A", 4), ("B", 3), ("D", 4)]:
        for d in gp_enumerate(kind, rank):
            w = gp_element(d)
            w2 = from_word(w.rs, gp_word_tokens(d))
            assert w.matrix == w2.matrix, str(d)


def test_gp_enumerate_counts_and_order():
    assert len(gp_enumerate("A", 3)) == 4
    assert len(gp_enumerate("B", 2)) == 6
    assert len(gp_enumerate("D", 4)) == 54
    assert [str(d) for d in gp_enumerate("A", 3)] == [
        "A3(3;+)", "A3(2,1;+,+)", "A3(1,2;+,+)", "A3(1,1,1;+,+,+)",
    ]
    assert [str(d) for d in gp_enumerate("B", 2)] == [
        "B2(2;+)", "B2(2;-)",
        "B2(1,1;+,+)", "B2(1,1;+,-)", "B2(1,1;-,+)", "B2(1,1;-,-)",
    ]
    d4 = [str(d) for d in gp_enumerate("D", 4)]
    assert d4[:6] == [
        "D4(3;+)", "D4(3;+;s1)", "D4(3;+;tprime)",
        "D4(3;-)", "D4(3;-;s1)", "D4(3;-;tprime)",
    ]
    with pytest.raises(UsageError):
        gp_enumerate("G", 2)
    with pytest.raises(UsageError):
        gp_enumerate("D", 3)


def test_gp_data_may_collide_as_elements():
    # the three delta variants are kept distinct even when two of them
    # produce the same group element
    mats = {}
    dups = 0
    for d in gp_enumerate("D", 4):
        m = gp_element(d).matrix
        dups += m in mats
        mats.setdefault(m, str(d))
    assert len(mats) + dups == 54


def test_blocks_commute_everywhere_d5():
    for d in gp_enumerate("D", 5):
        gp_element(d)  # raises AssertionError inside if a pair fails
