import random
from collections import Counter, deque
from fractions import Fraction as Q

import pytest

from dlperiod import CapacityError, UsageError
from dlperiod.linalg import identity, matmul
from dlperiod.rootsys import build_root_system, reflect
from dlperiod.weyl import (
    act,
    coxeter_length,
    coxeter_standard,
    descents,
    enumerate_group,
    from_word,
    generator,
    generators,
    identity_elem,
    inverse,
    is_reflection_matrix,
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


def test_reduced_word_and_support():
    for spec in [("B", 3, "paper5"), ("A", 3, "bourbaki"), ("D", 4, "paper5")]:
        rs = build_root_system(*spec)
        for w in enumerate_group(rs):
            rw = reduced_word(w)
            assert len(rw) == coxeter_length(w)
            assert from_word(rs, word_names(rs, rw)).matrix == w.matrix
    rs = build_root_system("B", 2, "paper5")
    assert support(from_word(rs, "t s1 t")) == {1, 2}
    assert support(from_word(rs, "t t")) == set()
    assert support(from_word(rs, "t")) == {1}


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
    assert multiply(a, b).word == a.word + b.word
    assert inverse(b).word == tuple(reversed(b.word))
    with pytest.raises(ValueError):
        act(a, (Q(1), Q(2)))  # ambient is 3 here


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
            lw = coxeter_length(w)
            assert len(w.word) == lw, (spec, w.word)  # breadth-first words are geodesic
            counts[lw] += 1
        expected = poincare_coefficients(DEGREES[spec[:2]])
        assert [counts[k] for k in range(len(expected))] == expected, spec
        assert sum(counts.values()) == sum(expected), spec


def test_matrix_is_product_of_reflection_matrices():
    rng = random.Random(20070510)
    specs = [
        ("A", 1, "bourbaki"), ("A", 4, "bourbaki"), ("B", 3, "bourbaki"),
        ("C", 3, "bourbaki"), ("C", 5, "bourbaki"), ("D", 4, "bourbaki"),
        ("D", 6, "bourbaki"), ("E", 6, "bourbaki"), ("E", 7, "bourbaki"),
        ("E", 8, "bourbaki"), ("F", 4, "bourbaki"), ("G", 2, "bourbaki"),
        ("A", 3, "paper5"), ("B", 2, "paper5"), ("B", 4, "paper5"),
        ("D", 4, "paper5"), ("D", 5, "paper5"),
    ]
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
