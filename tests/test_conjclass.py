import hashlib
import random
from fractions import Fraction as Q
from functools import reduce
from itertools import combinations

import pytest

from _oracles import act
from dlperiod import CapacityError, UsageError
from dlperiod.rootsys import build_root_system
from dlperiod.weyl import (
    WeylElem,
    coxeter_length,
    enumerate_group,
    from_word,
    generator,
    multiply,
)
from dlperiod.conjclass import (
    GPDatum,
    cyclic_shift_step,
    gp_element,
    gp_enumerate,
    gp_system,
    gp_word_tokens,
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


def test_twist_keys_by_generator_name():
    rs = build_root_system("A", 3)
    w = from_word(rs, "s1 s2")
    assert twisted_class(w, F={"s1": "s3", "s3": "s1"}) == twisted_class(w, F={1: 3, 3: 1})
    b3 = build_root_system("B", 3, "paper5")
    t = from_word(b3, "t")
    assert twisted_class(t, F={"t": "t", "2": 2}) == twisted_class(t)
    # sp1 expands to the three letters s1 t s1: not one generator
    with pytest.raises(UsageError, match="single generator"):
        twisted_class(t, F={"sp1": "t"})
    with pytest.raises(UsageError):
        twisted_class(t, F={"tp": "t"})


def test_shift_closure_contains_start_and_is_length_monotone():
    rs = build_root_system("D", 4, "paper5")
    w = from_word(rs, "tp s2 s3")
    cl = shift_closure(w)
    assert any(x.matrix == w.matrix for x in cl)
    lw = coxeter_length(w)
    assert all(coxeter_length(x) <= lw for x in cl)


def test_class_walks_respect_the_group_order_cap():
    rs = build_root_system("B", 3)
    w = from_word(rs, "s1 s2")
    with pytest.raises(CapacityError) as exc:
        reduce_to_minimal(w, cap=47)
    assert "48" in str(exc.value)
    assert reduce_to_minimal(w, cap=48) == reduce_to_minimal(w)


@pytest.mark.parametrize("spec", [
    ("E", 6, "bourbaki"), ("F", 4, "bourbaki"), ("B", 5, "paper5"), ("D", 5, "paper5"),
])
def test_reduction_chains_on_seeded_words(spec):
    rs = build_root_system(*spec)
    rng = random.Random(7)
    for _ in range(6):
        w = from_word(rs, [rng.randrange(len(rs.gen_names)) + 1 for _ in range(12)])
        chain = reduce_to_minimal(w)
        cur, lengths = w, [coxeter_length(w)]
        for step in chain.steps:
            assert step.source == cur
            cur = cyclic_shift_step(cur, step.gen)
            assert step.target == cur
            lengths.append(coxeter_length(cur))
        assert cur == chain.terminal
        assert all(b <= a for a, b in zip(lengths, lengths[1:])), (spec, w.word)
        assert lengths[-1] == min_length_bruteforce(w), (spec, w.word)


def test_class_walks_reject_elements_outside_the_group():
    rs = build_root_system("B", 3, "paper5")
    perm = list(range(len(rs.doubled)))
    # swapping two roots and fixing a basis of the others: only the identity
    # fixes that basis, and it swaps nothing
    perm[0], perm[1] = perm[1], perm[0]
    w = WeylElem(rs, tuple(perm))
    for walk in (reduce_to_minimal, shift_closure, twisted_class, min_length_bruteforce):
        with pytest.raises(UsageError, match="does not belong"):
            walk(w)


# sha256 of repr() of, for each element w of the group in enumeration order,
# the perms of twisted_class(w, F), of shift_closure(w, F) and (gen, source,
# target) of each step of reduce_to_minimal(w, F): the discovery order of
# every walk, and so the chains and terminals, must not move
WALK_DIGESTS = {
    ("A", 1, "bourbaki", None): "18f18d84bc9385463fad0bc6d33b299f5eb0de54a47dac62014219eb6d31ef6a",
    ("G", 2, "bourbaki", None): "bec0f5adb12af1eda8de9a50ba1d4343cef7171a090e30819072229799d9c209",
    ("B", 3, "paper5", None): "9a862eb175082613e4b0d63b899de342ff164465e213de942cd5a57ce68b8499",
    ("D", 4, "paper5", None): "3b03a04682a49ef5754a09821c7ab3680385656d3408036d66f9a44951070963",
    ("A", 3, "bourbaki", ((1, 3), (3, 1))): "213651b514c445bbf35efefa187d5d8584817aaa34c6801efaecae6aebed69c2",
}


@pytest.mark.parametrize(
    "spec", WALK_DIGESTS, ids=[f"{k}{r}-{p}-{'F' if f else 'id'}" for k, r, p, f in WALK_DIGESTS]
)
def test_class_walk_order_frozen(spec):
    kind, rank, profile, twist = spec
    F = None if twist is None else dict(twist)
    out = []
    for w in enumerate_group(build_root_system(kind, rank, profile)):
        chain = reduce_to_minimal(w, F)
        out.append((
            [x.perm for x in twisted_class(w, F)],
            [x.perm for x in shift_closure(w, F)],
            [(s.gen, s.source.perm, s.target.perm) for s in chain.steps],
        ))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == WALK_DIGESTS[spec]


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


def test_gp_data_are_values():
    a = GPDatum("D", 5, (2, 2), (1, -1), "s1")
    b = GPDatum(kind="D", rank=5, parts=(2, 2), signs=(1, -1), delta="s1")
    assert a == b and hash(a) == hash(b) and a is not b
    assert gp_element(a) is gp_element(b)
    assert repr(a) == "GPDatum(kind='D', rank=5, parts=(2, 2), signs=(1, -1), delta='s1')"
    with pytest.raises(AttributeError):
        a.rank = 6


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


def test_gp_input_messages():
    cases = [
        (lambda: gp_enumerate("G", 2), "block representatives exist for kinds A, B, D, not G"),
        (lambda: GPDatum("C", 3, (3,), (1,)), "block representatives exist for kinds A, B, D, not C"),
        (lambda: gp_enumerate("D", 3), "kind D needs rank >= 4"),
        (lambda: gp_enumerate("A", 1), "kind A needs rank >= 2"),
        (lambda: GPDatum("D", 3, (2,), (1,)), "kind D needs rank >= 4"),
        (lambda: gp_enumerate("D4", 5), "kind 'D4' contradicts rank=5"),
        (lambda: GPDatum("A", 2, (), ()), "parts must be a nonempty composition of positive integers"),
        (
            lambda: cyclic_shift_step(gp_element(gp_enumerate("A", 2)[0]), 2),
            "generator position 2 out of range for A1[paper5]",
        ),
    ]
    for call, msg in cases:
        with pytest.raises(UsageError) as err:
            call()
        assert str(err.value) == msg


_PARTS = "parts must be a nonempty composition of positive integers"
_SIGNS = "signs must be +-1, one per part"
# a datum holds exact values: an int rank and tuples of int parts and signs
INEXACT_DATA = {
    "float_rank": (("A", 3.0, (3,), (1,)), "rank 3.0 is not an integer"),
    "bool_rank": (("B", True, (1,), (1,)), "rank True is not an integer"),
    "float_part": (("B", 3, (2.0, 1), (1, 1)), _PARTS),
    "bool_part": (("B", 3, (True, 2), (1, 1)), _PARTS),
    "scalar_parts": (("A", 3, 3, (1,)), _PARTS),
    "float_sign": (("B", 3, (3,), (-1.0,)), _SIGNS),
    "bool_sign": (("A", 3, (3,), (True,)), _SIGNS),
    "scalar_signs": (("A", 3, (3,), 1), _SIGNS),
}


@pytest.mark.parametrize("case", sorted(INEXACT_DATA))
def test_gp_datum_refuses_inexact_values(case):
    args, msg = INEXACT_DATA[case]
    with pytest.raises(UsageError) as err:
        GPDatum(*args)
    assert str(err.value) == msg


def test_gp_datum_stores_sequences_as_tuples():
    d = GPDatum("D", 5, [2, 2], [-1, 1], "s1")
    assert d == GPDatum("D", 5, (2, 2), (-1, 1), "s1")
    assert type(d.parts) is tuple and type(d.signs) is tuple
    assert hash(d) == hash(GPDatum("D", 5, (2, 2), (-1, 1), "s1"))
    assert gp_element(d) == gp_element(GPDatum("D", 5, (2, 2), (-1, 1), "s1"))


def test_gp_element_answers_alike_cold_and_warm():
    datum = GPDatum("A", 3, (3,), (1,))
    gp_element.cache_clear()
    for _ in range(2):  # cold, then with the datum's element cached
        with pytest.raises(UsageError, match="rank 3.0 is not an integer"):
            gp_element(GPDatum("A", 3.0, (3,), (1,)))
        with pytest.raises(AttributeError):  # a plain tuple is no datum
            gp_element(tuple(datum))
        assert gp_element(datum) == from_word(gp_system(datum), "s1 s2")


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


GP_CELLS = [("A", r) for r in range(2, 9)] + [("B", r) for r in range(2, 8)] + [
    ("D", r) for r in range(4, 8)
]
DELTA_WORDS = {"one": (), "s1": ("s1",), "tprime": ("tp",)}


def split_blocks(d):
    """d's block words, read from its parts and signs alone: a part of the
    given size after c earlier coordinates holds the cycle s_(f+c) ...
    s_(f+c+size-2), f the first coordinate a part may hold (2 in kind D,
    where coordinate 1 is special), and a negative part starts with sp<c>,
    the sign change on its first coordinate (kind D: and on coordinate 1)."""
    f = 2 if d.kind == "D" else 1
    blocks, c = [], 0
    for size, sign in zip(d.parts, d.signs):
        cycle = tuple(f"s{i}" for i in range(f + c, f + c + size - 1))
        blocks.append(cycle if sign == 1 else (f"sp{c}", *cycle))
        c += size
    return blocks


def test_blocks_commute_everywhere():
    # gp_element is the product of the construction word and takes the
    # blocks' commutation from the construction; every datum checks here
    # that the word splits into delta and the blocks, that the blocks
    # commute, and that gp_element is their product
    count = 0
    for kind, rank in GP_CELLS:
        for d in gp_enumerate(kind, rank):
            rs, blocks = gp_system(d), split_blocks(d)
            assert DELTA_WORDS[d.delta] + sum(blocks, ()) == gp_word_tokens(d), str(d)
            elems = [from_word(rs, b) for b in blocks]
            for a, b in combinations(elems, 2):
                assert multiply(a, b) == multiply(b, a), str(d)
            delta = from_word(rs, DELTA_WORDS[d.delta])
            assert reduce(multiply, elems, delta) == gp_element(d), str(d)
            count += 1
    assert count == 4598
