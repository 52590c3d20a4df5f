import hashlib
import random
from collections import Counter, deque
from fractions import Fraction as Q

import pytest

from _oracles import act, identity, is_reflection_matrix, matmul, reflect
from dlperiod import CapacityError, UsageError
from dlperiod.conjclass import cyclic_shift_step, twisted_class
from dlperiod.rootsys import build_root_system
from dlperiod.weyl import (
    WeylElem,
    coxeter_length,
    coxeter_standard,
    descents,
    enumerate_group,
    from_word,
    generator,
    generators,
    identity_elem,
    inverse,
    length,
    multiply,
    parse_word,
    reduced_word,
    support,
    word_names,
)


def bfs_word_lengths(rs):
    """Distance from the identity in the Cayley graph — the length oracle."""
    gens = [g.matrix for g in generators(rs)]
    start = identity(rs.ambient)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        m = queue.popleft()
        for g in gens:
            nxt = matmul(m, g)
            if nxt not in dist:
                dist[nxt] = dist[m] + 1
                queue.append(nxt)
    return dist


def poincare_coefficients(degrees):
    """Coefficients of the Poincare polynomial prod_i [d_i]_q, where
    [d]_q = 1 + q + ... + q^(d-1): the number of elements of each length."""
    coeffs = [1]
    for d in degrees:
        out = [0] * (len(coeffs) + d - 1)
        for i, c in enumerate(coeffs):
            for j in range(d):
                out[i + j] += c
        coeffs = out
    return coeffs


def reflection_matrix(alpha):
    """Matrix of the reflection in alpha, column j the image of e_j."""
    n = len(alpha)
    cols = [reflect(tuple(Q(int(i == j)) for i in range(n)), alpha) for j in range(n)]
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def test_parse_word_forms():
    rs = build_root_system("B", 3, "paper5")
    assert parse_word(rs, "t s1 s2") == (0, 1, 2)
    assert parse_word(rs, ["t", 2, "s2"]) == (0, 1, 2)  # ints are 1-based
    assert parse_word(rs, "") == ()
    assert parse_word(rs, "sp0") == (0,)
    assert parse_word(rs, "sp2") == (2, 1, 0, 1, 2)
    d = build_root_system("D", 4, "paper5")
    assert parse_word(d, "sp0") == (0, 1)
    assert parse_word(d, "sp1") == (2, 0, 1, 2)
    assert parse_word(d, "sp2") == (3, 2, 0, 1, 2, 3)
    a = build_root_system("A", 3, "paper5")
    assert parse_word(a, "sp1") == ()
    with pytest.raises(UsageError):
        parse_word(rs, "s9")
    with pytest.raises(UsageError):
        parse_word(rs, [0])
    with pytest.raises(UsageError):
        parse_word(rs, "sp3")
    with pytest.raises(UsageError):
        parse_word(build_root_system("B", 3), "sp1")  # needs paper5


def test_extended_tokens_out_of_range():
    cases = [
        (build_root_system("A", 3, "paper5"), "sp4", "sp4 out of range for A3[paper5]"),
        (build_root_system("D", 4, "paper5"), "sp3", "sp3 out of range for D4[paper5]"),
    ]
    for rs, token, msg in cases:
        with pytest.raises(UsageError) as err:
            parse_word(rs, token)
        assert str(err.value) == msg


def test_multiply_refuses_elements_of_two_systems():
    a, b = build_root_system("A", 2), build_root_system("A", 2, "paper5")
    with pytest.raises(UsageError, match="multiply: elements live in different systems"):
        multiply(identity_elem(a), identity_elem(b))


def test_word_input_messages():
    # positions are ints only: a bool is a token like any other, a float
    # position and a word or a map that is no sequence are refused
    a2 = build_root_system("A", 2)
    w = from_word(a2, "s1 s2")
    on = "for A2[bourbaki]"
    cases = [
        (lambda: parse_word(a2, [True]), f"unknown generator token 'True' {on}"),
        (lambda: from_word(a2, [False]), f"unknown generator token 'False' {on}"),
        (lambda: twisted_class(w, F={True: 2, 2: 1}), f"unknown generator token 'True' {on}"),
        (lambda: generator(a2, True), f"generator position True out of range {on}"),
        (lambda: generator(a2, 1.0), f"generator position 1.0 out of range {on}"),
        (lambda: generator(a2, 2), f"generator position 2 out of range {on}"),
        (lambda: cyclic_shift_step(w, True), f"generator position True out of range {on}"),
        (lambda: cyclic_shift_step(w, 1.0), f"generator position 1.0 out of range {on}"),
        (lambda: from_word(a2, 5), "a word must be a sequence, got 5"),
        (lambda: twisted_class(w, F=[1, 2]), "F must be a mapping of generators, got [1, 2]"),
    ]
    for call, msg in cases:
        with pytest.raises(UsageError) as err:
            call()
        assert str(err.value) == msg
    assert generator(a2, 1) == from_word(a2, [2]) == from_word(a2, "s2")


def test_word_positions_share_one_range_check():
    # int and digit positions meet one range check; a digit int() cannot
    # read, such as a superscript, is an unknown token
    a2 = build_root_system("A", 2)
    on = "for A2[bourbaki]"
    cases = [
        (lambda: parse_word(a2, [3]), f"generator position 3 out of range {on}"),
        (lambda: parse_word(a2, "s1 3"), f"generator position 3 out of range {on}"),
        (lambda: parse_word(a2, [" 0 "]), f"generator position 0 out of range {on}"),
        (lambda: parse_word(a2, [-1]), f"generator position -1 out of range {on}"),
        (lambda: parse_word(a2, "s1 \u00b2"), f"unknown generator token '\u00b2' {on}"),
        (lambda: parse_word(a2, ["sp\u00b2"]), f"unknown generator token 'sp\u00b2' {on}"),
    ]
    for call, msg in cases:
        with pytest.raises(UsageError) as err:
            call()
        assert str(err.value) == msg
    assert parse_word(a2, [2, " 1", "s2 "]) == (1, 0, 1)


def test_word_convention_rightmost_first():
    rs = build_root_system("B", 2, "paper5")
    w = from_word(rs, "t s1")
    # s1 swaps the coordinates, then t negates the first
    assert act(w, (Q(4), Q(1))) == (Q(-1), Q(4))
    t, s1 = from_word(rs, "t"), from_word(rs, "s1")
    assert w.matrix == matmul(t.matrix, s1.matrix)
    assert act(w, (Q(4), Q(1))) == act(t, act(s1, (Q(4), Q(1))))


def test_sp_tokens_negate_single_coordinates():
    rs = build_root_system("B", 3, "paper5")
    for k in range(3):
        w = from_word(rs, f"sp{k}")
        vec = [Q(0)] * 3
        vec[k] = Q(1)
        assert act(w, tuple(vec)) == tuple(-v for v in vec), k
        other = [Q(1)] * 3
        other[k] = Q(0)
        assert act(w, tuple(other)) == tuple(other)
    d = build_root_system("D", 4, "paper5")
    assert act(from_word(d, "sp0"), (Q(1), Q(2), Q(3), Q(4))) == (Q(-1), Q(-2), Q(3), Q(4))
    assert act(from_word(d, "sp1"), (Q(1), Q(2), Q(3), Q(4))) == (Q(-1), Q(2), Q(-3), Q(4))
    assert act(from_word(d, "sp2"), (Q(1), Q(2), Q(3), Q(4))) == (Q(-1), Q(2), Q(3), Q(-4))


def test_standard_length_counts_standard_inversions():
    rs = build_root_system("B", 3, "paper5")
    t = from_word(rs, "t")
    assert length(t) == 5  # 2*rank - 1 standard inversions
    assert coxeter_length(t) == 1
    # on the standard profile the two lengths agree everywhere
    for w in enumerate_group(build_root_system("B", 2)):
        assert length(w) == coxeter_length(w)


def test_coxeter_length_matches_cayley_distance():
    for spec in [("A", 3, "bourbaki"), ("B", 2, "paper5"), ("B", 3, "paper5"),
                 ("D", 4, "paper5"), ("G", 2, "bourbaki")]:
        rs = build_root_system(*spec)
        dist = bfs_word_lengths(rs)
        group = enumerate_group(rs)
        assert len(group) == len(dist)
        for w in group:
            assert coxeter_length(w) == dist[w.matrix], (spec, w.word)


def least_reduced_words(rs):
    """The lexicographically least reduced word of every element, keyed by
    root permutation: a breadth-first walk over words that takes each level
    in the order of its words and tries generators in their listed order, so
    the first word to reach a new element is its least reduced word."""
    level = {tuple(range(len(rs.doubled))): ()}
    least = dict(level)
    while level:
        nxt = {}
        for p, word in sorted(level.items(), key=lambda item: item[1]):
            for g, s in enumerate(rs.gen_perms):
                x = tuple(p[i] for i in s)  # p * s: s acts first
                if x not in least and x not in nxt:
                    nxt[x] = word + (g,)
        least.update(nxt)
        level = nxt
    return least


def test_word_is_the_least_reduced_word():
    for spec in [("A", 3, "bourbaki"), ("B", 3, "paper5"), ("D", 4, "paper5"),
                 ("G", 2, "bourbaki"), ("F", 4, "bourbaki")]:
        rs = build_root_system(*spec)
        least = least_reduced_words(rs)
        group = enumerate_group(rs)
        assert len(group) == len(least), spec
        for w in group:
            assert w.word == least[w.perm], (spec, w.word)
    # the word is the element's, not the one it was built from
    rs = build_root_system("B", 2, "paper5")
    assert from_word(rs, "s1 t t s1 s1").word == from_word(rs, "s1").word == (1,)


def test_reduced_word_and_support():
    for spec in [("B", 3, "paper5"), ("A", 3, "bourbaki"), ("D", 4, "paper5"),
                 ("A", 1, "bourbaki"), ("G", 2, "bourbaki")]:
        rs = build_root_system(*spec)
        for w in enumerate_group(rs):
            rw = reduced_word(w)
            assert len(rw) == coxeter_length(w)
            assert from_word(rs, word_names(rs, rw)).matrix == w.matrix
    rs = build_root_system("B", 2, "paper5")
    assert support(from_word(rs, "t s1 t")) == {1, 2}
    assert support(from_word(rs, "t t")) == set()
    assert support(from_word(rs, "t")) == {1}


@pytest.mark.parametrize("spec", [("B", 3, "paper5"), ("A", 2, "bourbaki")])
def test_word_of_a_permutation_outside_the_group(spec):
    # swapping two roots and fixing a basis of the others: only the identity
    # fixes that basis, and it swaps nothing.  In B3 paper5 every peel finds
    # a descent without shortening; in A2 the swap keeps the positive roots
    # positive, so there is no descent to peel at all.
    rs = build_root_system(*spec)
    perm = list(range(len(rs.doubled)))
    perm[0], perm[1] = perm[1], perm[0]
    w = WeylElem(rs, tuple(perm))
    for read in (lambda x: x.word, str, support):
        with pytest.raises(UsageError, match="does not belong"):
            read(w)


def test_descents_and_identity():
    rs = build_root_system("A", 3)
    e = identity_elem(rs)
    assert descents(e) == ()
    assert coxeter_length(e) == 0
    w = from_word(rs, "s1 s2 s1")
    assert 0 in descents(w) and 1 in descents(w)


def test_group_ops():
    rs = build_root_system("G", 2)
    a = from_word(rs, "s1 s2")
    b = from_word(rs, "s2 s1 s2")
    assert multiply(a, inverse(a)).matrix == identity(rs.ambient)
    assert multiply(a, b).matrix == matmul(a.matrix, b.matrix)
    for x in (multiply(a, b), inverse(b)):
        # the derived word rebuilds the element and is reduced
        assert from_word(rs, word_names(rs, x.word)) == x
        assert len(x.word) == coxeter_length(x)
    with pytest.raises(UsageError):
        act(a, (Q(1), Q(2)))  # ambient is 3 here


def test_elements_are_read_only_values():
    rs = build_root_system("G", 2)
    a = from_word(rs, "s1 s2 s1")
    b = from_word(rs, "s2 s1 s2 s1 s2 s1 s2 s1 s2")  # the same element
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != from_word(build_root_system("A", 2), "s1 s2 s1")
    assert a != a.perm
    with pytest.raises(AttributeError):
        a.perm = b.perm
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError, match="WeylElem is read-only; cannot delete 'perm'"):
        del a.perm
    assert a == b
    assert repr(a) == f"WeylElem(rs=RootSystem(kind='G', rank=2, profile='bourbaki'), perm={a.perm})"


def test_reflections():
    rs = build_root_system("B", 2, "paper5")
    assert is_reflection_matrix(from_word(rs, "t"))
    assert is_reflection_matrix(from_word(rs, "s1 t s1"))
    assert not is_reflection_matrix(from_word(rs, "t s1"))
    assert not is_reflection_matrix(identity_elem(rs))


def test_enumerate_group_counts_and_cap():
    assert len(enumerate_group(build_root_system("A", 3))) == 24
    assert len(enumerate_group(build_root_system("B", 4, "paper5"))) == 384
    assert len(enumerate_group(build_root_system("D", 4, "paper5"))) == 192
    assert len(enumerate_group(build_root_system("F", 4))) == 1152
    with pytest.raises(CapacityError) as exc:
        enumerate_group(build_root_system("E", 8))
    assert "696729600" in str(exc.value)


def test_group_order_cap_messages():
    b3 = build_root_system("B", 3)
    cases = [
        (lambda: enumerate_group(build_root_system("A", 3), cap=23),
         "group A3[bourbaki] has order 24, exceeding cap 23"),
        (lambda: enumerate_group(build_root_system("E", 8)),
         "group E8[bourbaki] has order 696729600, exceeding cap 1000000"),
        (lambda: twisted_class(from_word(b3, "s1 s2"), cap=47),
         "group B3[bourbaki] has order 48, exceeding cap 47"),
    ]
    for call, msg in cases:
        with pytest.raises(CapacityError) as err:
            call()
        assert str(err.value) == msg


@pytest.mark.parametrize("cap", ["x", 1.5, True, None])
def test_group_order_cap_must_be_an_int(cap):
    b3 = build_root_system("B", 3)
    for call in (lambda: enumerate_group(b3, cap=cap),
                 lambda: twisted_class(from_word(b3, "s1 s2"), cap=cap)):
        with pytest.raises(UsageError) as err:
            call()
        assert str(err.value) == f"cap must be an integer, got {cap!r}"


# sha256 of repr([w.perm for w in enumerate_group(rs)]), frozen when every
# generator was still tried at every element; the breadth-first order must
# not move, whatever the walk skips
ENUMERATION_DIGESTS = {
    ("A", 1, "bourbaki"): "6df3ef58aaac2aff5d071b5f4bcbd92f0014181fe5e884295db42b5a3abfbf47",
    ("G", 2, "bourbaki"): "e2e329cd89f9e187ac29957846561f46a475c8cf8171598e3f68b01566191d9b",
    ("F", 4, "bourbaki"): "fde069bffeb7576a63c7b50252cb5cec78144d583b0b171cd1a0da065f211b67",
    ("A", 5, "bourbaki"): "148bcc5a3200f19ac77621a7ad9713ca60bf6dae7d53b3b2a806a4f2142f38bc",
    ("D", 5, "bourbaki"): "97895ad4f732b106cb0c737615f8c19923d07d7591b3f5529bfb431dc4083023",
    ("B", 5, "paper5"): "15bc1b202031a6877c1491f6621f8721b2b9e3d7ddb2fa014a5d6613b6f66ecb",
    ("D", 4, "paper5"): "2f243aed448389dacc26139a5697b30ad9d7678b370fe0490f83cecb5c7cd757",
}


@pytest.mark.parametrize(
    "spec", ENUMERATION_DIGESTS, ids=[f"{k}{r}-{p}" for k, r, p in ENUMERATION_DIGESTS]
)
def test_enumeration_order_frozen(spec):
    elems = enumerate_group(build_root_system(*spec))
    digest = hashlib.sha256(repr([w.perm for w in elems]).encode()).hexdigest()
    assert digest == ENUMERATION_DIGESTS[spec]
    lengths = [coxeter_length(w) for w in elems]
    assert lengths == sorted(lengths)


def test_rank_one():
    rs = build_root_system("A", 1)
    e, s = enumerate_group(rs)
    assert e == identity_elem(rs) and s == from_word(rs, "s1") == from_word(rs, [1])
    assert s.perm == (1, 0)
    assert [coxeter_length(e), coxeter_length(s)] == [0, 1]
    assert [reduced_word(e), reduced_word(s)] == [(), (0,)]
    assert from_word(rs, "s1 s1") == e
    assert twisted_class(s) == [s] and twisted_class(e) == [e]


def test_signed_permutation_shape():
    for spec in [("B", 3, "paper5"), ("D", 4, "paper5")]:
        rs = build_root_system(*spec)
        for w in enumerate_group(rs):
            for row in w.matrix:
                nz = [c for c in row if c != 0]
                assert len(nz) == 1 and nz[0] in (Q(1), Q(-1))
            cols = set()
            for row in w.matrix:
                cols.add(next(i for i, c in enumerate(row) if c != 0))
            assert len(cols) == rs.ambient


def test_coxeter_standard_element():
    rs = build_root_system("A", 3)
    c = coxeter_standard(rs)
    assert word_names(rs, c.word) == ("s1", "s2", "s3")
    b = build_root_system("B", 2, "paper5")
    assert word_names(b, coxeter_standard(b).word) == ("t", "s1")


# degrees of the basic invariants of each Coxeter type
DEGREES = {
    ("A", 5): (2, 3, 4, 5, 6),
    ("B", 5): (2, 4, 6, 8, 10),
    ("D", 5): (2, 4, 5, 6, 8),
    ("F", 4): (2, 6, 8, 12),
    ("E", 6): (2, 5, 6, 8, 9, 12),
}


def test_length_distribution_matches_poincare_polynomial():
    for spec in [("A", 5, "bourbaki"), ("B", 5, "paper5"), ("D", 5, "paper5"),
                 ("F", 4, "bourbaki"), ("E", 6, "bourbaki")]:
        rs = build_root_system(*spec)
        counts = Counter()
        for w in enumerate_group(rs):
            counts[coxeter_length(w)] += 1
        expected = poincare_coefficients(DEGREES[spec[:2]])
        assert [counts[k] for k in range(len(expected))] == expected, spec
        assert sum(counts.values()) == sum(expected), spec


def test_matrix_is_product_of_reflection_matrices():
    rng = random.Random(20070510)
    # every standard system up to rank 8 and every paper5 system up to rank 6
    lows = {"A": 1, "B": 2, "C": 3, "D": 4}
    specs = [(k, r, "bourbaki") for k, lo in lows.items() for r in range(lo, 9)]
    specs += [("E", 6, "bourbaki"), ("E", 7, "bourbaki"), ("E", 8, "bourbaki")]
    specs += [("F", 4, "bourbaki"), ("G", 2, "bourbaki")]
    specs += [(k, r, "paper5") for k in "ABD" for r in range(lows[k], 7)]
    for spec in specs:
        rs = build_root_system(*spec)
        mats = [reflection_matrix(a) for a in rs.simple_roots]
        for _ in range(6):
            word = [rng.randrange(len(mats)) for _ in range(rng.randint(0, 12))]
            m = identity(rs.ambient)
            for g in word:
                m = matmul(m, mats[g])
            w = from_word(rs, [g + 1 for g in word])
            assert w.matrix == m, (spec, word)
            assert inverse(w).matrix == tuple(zip(*m)), (spec, word)


@pytest.mark.parametrize("spec, order", [
    (("F", 4, "bourbaki"), 1152), (("G", 2, "bourbaki"), 12), (("A", 5, "bourbaki"), 720),
    (("D", 5, "bourbaki"), 1920), (("B", 5, "paper5"), 3840),
])
def test_matrices_are_distinct_keys_equal_to_plain_tuples(spec, order):
    elems = enumerate_group(build_root_system(*spec))
    assert len({w.matrix for w in elems}) == order
    plain = {tuple(map(tuple, w.matrix)) for w in elems}
    for w in elems:
        m = w.matrix
        assert hash(m) == hash(tuple(map(tuple, m))) and m in plain, (spec, w.word)
    assert repr(m) == repr(tuple(map(tuple, m)))


def test_matrix_rows_are_shared():
    # B5 matrices are signed permutation matrices: at most 10 rows per row
    # index, whatever the number of matrices derived
    mats = [w.matrix for w in enumerate_group(build_root_system("B", 5, "paper5"))]
    assert len({id(r) for m in mats for r in m}) <= 50  # mats alive: no id reuse
