import hashlib
from fractions import Fraction as Q
from itertools import chain, combinations
from math import comb

import pytest

from _oracles import dot, reflect, simple_coordinates
from dlperiod import UsageError
from dlperiod.conjclass import gp_enumerate
from dlperiod.rootsys import (
    build_root_system,
    parabolic_dim,
    positive_root_count,
    rank_vs_dim_table,
    weyl_order,
)

# Frozen per-node dimension tables for the exceptional systems.  Obtained by
# hand from the root coordinates before parabolic_dim existed; the middle
# entries are the easiest to get wrong, so keep the full tuples.
EXCEPTIONAL_NODE_DIMS = {
    "E6": (16, 21, 25, 29, 25, 16),
    "E7": (33, 42, 47, 53, 50, 42, 27),
    "E8": (78, 92, 98, 106, 104, 97, 83, 57),
    "F4": (15, 20, 20, 15),
    "G2": (5, 5),
}


def classical_node_dim(kind, l, i):
    """Closed forms for the number of positive roots through node i."""
    if kind == "A":
        return i * (l + 1 - i)
    if kind in ("B", "C"):
        return i * (l - i) + i + comb(l, 2) - comb(l - i, 2)
    if kind == "D":
        if i <= l - 2:
            return i * (l - i) + comb(l, 2) - comb(l - i, 2)
        return comb(l, 2)
    raise AssertionError(kind)


def test_positive_root_counts():
    expected = {
        ("A", 1): 1, ("A", 2): 3, ("A", 5): 15,
        ("B", 2): 4, ("B", 3): 9,
        ("C", 3): 9, ("C", 4): 16,
        ("D", 4): 12, ("D", 5): 20,
        ("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
        ("F", 4): 24, ("G", 2): 6,
    }
    for (kind, rank), n in expected.items():
        rs = build_root_system(kind, rank)
        assert positive_root_count(kind, rank) == n
        assert len(rs.positive_roots) == n, (kind, rank)


def test_weyl_orders():
    assert weyl_order("A", 3) == 24
    assert weyl_order("B", 4) == 384
    assert weyl_order("D", 4) == 192
    assert weyl_order("G", 2) == 12
    assert weyl_order("F", 4) == 1152
    assert weyl_order("E", 8) == 696729600


def test_simple_roots_are_roots_and_closure_is_reflection_stable():
    for kind, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2), ("E", 6)]:
        rs = build_root_system(kind, rank)
        pos_set = frozenset(rs.positive_roots)
        allroots = pos_set | {tuple(-c for c in r) for r in rs.positive_roots}
        assert len(allroots) == 2 * len(rs.positive_roots)
        for s in rs.simple_roots:
            assert s in pos_set
            for beta in allroots:
                assert reflect(beta, s) in allroots, (kind, rank, s, beta)


def test_positivity_partition_via_simple_coordinates():
    # every positive root must be a nonnegative integer combination of simples
    for kind, rank in [("A", 4), ("B", 3), ("D", 4), ("G", 2), ("F", 4)]:
        rs = build_root_system(kind, rank)
        for coeffs in rs.pos_coords:
            assert all(c >= 0 for c in coeffs)
            assert any(c > 0 for c in coeffs)
            assert all(c.denominator == 1 for c in coeffs)


def test_cartan_matrix_of_g2_and_f4():
    def cartan(rs):
        return tuple(
            tuple(2 * dot(a, b) / dot(b, b) for b in rs.simple_roots)
            for a in rs.simple_roots
        )

    g2 = cartan(build_root_system("G", 2))
    assert g2 == ((2, -1), (-3, 2)) or g2 == ((2, -3), (-1, 2))
    f4 = cartan(build_root_system("F", 4))
    # one double bond between nodes 2 and 3, arrows consistent
    assert f4[0][1] == f4[1][0] == -1
    assert {f4[1][2], f4[2][1]} == {-1, -2}
    assert f4[2][3] == f4[3][2] == -1


def test_exceptional_parabolic_tables_frozen():
    for name, dims in EXCEPTIONAL_NODE_DIMS.items():
        rs = build_root_system(name)
        got = tuple(parabolic_dim(rs, i) for i in range(1, rs.rank + 1))
        assert got == dims, name


def test_classical_parabolic_closed_forms():
    for kind, lo in (("A", 1), ("B", 2), ("C", 3), ("D", 4)):
        for l in range(lo, 9):
            rs = build_root_system(kind, l)
            for i in range(1, l + 1):
                assert parabolic_dim(rs, i) == classical_node_dim(kind, l, i), (kind, l, i)


def test_dim_equals_rank_only_at_type_a_ends():
    hits = []
    for kind, lo in (("A", 1), ("B", 2), ("C", 3), ("D", 4)):
        for l in range(lo, 9):
            for node, d, _, eq in rank_vs_dim_table(build_root_system(kind, l)):
                assert eq == (d == l)
                if eq:
                    hits.append((kind, l, node))
    for name in EXCEPTIONAL_NODE_DIMS:
        for node, d, _, eq in rank_vs_dim_table(build_root_system(name)):
            assert not eq, (name, node)
    assert hits == [("A", l, n) for l in range(1, 9) for n in ((1,) if l == 1 else (1, l))]


def test_parabolic_dim_multinode_and_errors():
    rs = build_root_system("A", 3)
    assert parabolic_dim(rs, (1, 2, 3)) == 6  # everything
    assert parabolic_dim(rs, (1, 3)) == 5  # all but e2-e3
    assert parabolic_dim(rs, 2) == 4
    with pytest.raises(UsageError):
        parabolic_dim(rs, (0,))
    with pytest.raises(UsageError):
        parabolic_dim(rs, (4,))
    with pytest.raises(UsageError):
        parabolic_dim(build_root_system("B", 2, "paper5"), 1)
    with pytest.raises(UsageError, match="expects the standard"):
        rank_vs_dim_table(build_root_system("B", 2, "paper5"))


@pytest.mark.parametrize("node", [1.7, True, "2"], ids=["float", "bool", "str"])
def test_parabolic_nodes_are_not_truncated(node):
    rs = build_root_system("A", 3)
    with pytest.raises(UsageError, match=f"node {node!r} is not an integer"):
        parabolic_dim(rs, [node])
    with pytest.raises(UsageError, match=f"node {node!r} is not an integer"):
        parabolic_dim(rs, node)


def test_rank_ranges_and_kind_normalization():
    with pytest.raises(UsageError):
        build_root_system("B", 1)
    with pytest.raises(UsageError):
        build_root_system("C", 2)
    with pytest.raises(UsageError):
        build_root_system("D", 3)
    with pytest.raises(UsageError):
        build_root_system("E", 9)
    with pytest.raises(UsageError):
        build_root_system("H", 3)
    with pytest.raises(UsageError):
        build_root_system("E")  # rank required
    # a non-integral or malformed rank is refused by name, never truncated
    for kind, rank in (("A", 2.7), ("A", "3x"), ("E6", "6.5")):
        with pytest.raises(UsageError, match=f"rank {rank!r} is not an integer"):
            build_root_system(kind, rank)
    with pytest.raises(UsageError, match="rank '3x' is not an integer"):
        gp_enumerate("A", "3x")
    assert build_root_system("A", "3") is build_root_system("A", 3)
    assert build_root_system("E6") is build_root_system("E", 6)
    assert build_root_system("E6", "6") is build_root_system("E", 6)
    assert str(build_root_system("B", 3, "paper5")) == "B3[paper5]"


def test_bool_rank_is_refused():
    # bool is an int subclass; True must not read as rank 1
    for kind in ("A", "A1", "B"):
        with pytest.raises(UsageError, match="rank True is not an integer"):
            build_root_system(kind, True)
    with pytest.raises(UsageError, match="rank False is not an integer"):
        gp_enumerate("D", False)


def test_paper5_profiles():
    b = build_root_system("B", 3, "paper5")
    assert b.gen_names == ("t", "s1", "s2")
    assert b.simple_roots[0] == (Q(1), Q(0), Q(0))
    d = build_root_system("D", 4, "paper5")
    assert d.gen_names == ("tp", "s1", "s2", "s3")
    assert d.simple_roots[0] == (Q(1), Q(1), Q(0), Q(0))
    a = build_root_system("A", 2, "paper5")
    assert a.trace_zero and not build_root_system("A", 2).trace_zero
    # positive_roots agree with the standard profile, only the chamber moves
    assert set(b.positive_roots) == set(build_root_system("B", 3).positive_roots)
    assert set(d.positive_roots) == set(build_root_system("D", 4).positive_roots)
    with pytest.raises(UsageError):
        build_root_system("G", 2, "paper5")
    with pytest.raises(UsageError):
        build_root_system("B", 3, "nonsense")


def test_coxeter_positive_roots_flip_only_for_paper5_bd():
    b = build_root_system("B", 3, "paper5")
    cox_pos = frozenset(b.coxeter_positive_roots)
    assert cox_pos != frozenset(b.positive_roots)
    # the flipped chamber still splits the root set in half
    assert len(cox_pos) == len(b.positive_roots)
    assert not (cox_pos & {tuple(-c for c in r) for r in cox_pos})
    for rs in (build_root_system("B", 3), build_root_system("A", 3, "paper5")):
        assert frozenset(rs.coxeter_positive_roots) == frozenset(rs.positive_roots)


def test_interning():
    assert build_root_system("A", 3) is build_root_system("A", 3)
    assert build_root_system("A", 3) is not build_root_system("A", 3, "paper5")
    rs = build_root_system("B", 3)
    assert rs == build_root_system("B", 3) and rs != build_root_system("B", 3, "paper5")
    with pytest.raises(AttributeError):
        rs.rank = 4
    with pytest.raises(AttributeError, match="RootSystem is read-only; cannot delete 'kind'"):
        del rs.kind
    assert rs.kind == "B"
    assert repr(rs) == "RootSystem(kind='B', rank=3, profile='bourbaki')"
    for view in ("positive_roots", "simple_roots"):
        with pytest.raises(AttributeError, match=f"RootSystem is read-only; cannot set '{view}'"):
            setattr(rs, view, ())
        with pytest.raises(AttributeError, match=f"RootSystem is read-only; cannot delete '{view}'"):
            delattr(rs, view)
        assert getattr(rs, view) == getattr(rs, view)


# sha256 of the public root data of every system up to rank 8, one digest
# per (kind, profile) over its ranks in increasing order; frozen while the
# simple roots were still written as Fractions, before they became doubled
# integers
ROOT_DATA_DIGESTS = {
    ("A", "bourbaki"): "18367a6a23ebccbcc7075b124d5f35dddbf162c0120a060d4ad1f8f5bd7e8404",
    ("A", "paper5"): "e02653c6eb2844ed6f5d891913124ec9a03e6f34bbf28f1c1aba44efca50bb50",
    ("B", "bourbaki"): "54e6e681c7ef01da56c04c1372f437c264893a2ae4fd6af8a0cc6904f200de07",
    ("B", "paper5"): "0c756147c464f9e883e7d6ff96f80abe1cdc6cb1344b3b556ac9b42c09d31de4",
    ("C", "bourbaki"): "fa059bd0bf4fe7447e7591e3a802246ac8bd6d938e8f0a3e725c4814d04dee8a",
    ("D", "bourbaki"): "feabc892764ce735fc4950275a2799ea81e9cb74448c37bd1fa6d66062b2cc1a",
    ("D", "paper5"): "f1dae3cb7a8ae7b48b80c28cd31b381eb70ffaabaa4cedcf5ac6d37586623249",
    ("E", "bourbaki"): "494833476709178e71faf117aacdc35605c1bcdce621c4a75fb8b24e91318b95",
    ("F", "bourbaki"): "d55ba44b8546d4fdc0ee301cf3272e5fa29ac88b77d3c51bd7441c508f2f9ed6",
    ("G", "bourbaki"): "3e0c6785659bb14b4ef2f95334b7e8cef3d7f5970cb864e63c71546c57a8c0d3",
}
RANKS_UP_TO_8 = {
    "A": range(1, 9), "B": range(2, 9), "C": range(3, 9), "D": range(4, 9),
    "E": range(6, 9), "F": (4,), "G": (2,),
}


@pytest.mark.parametrize(
    "kind,profile", ROOT_DATA_DIGESTS, ids=[f"{k}-{p}" for k, p in ROOT_DATA_DIGESTS]
)
def test_root_data_frozen(kind, profile):
    data = ""
    for rank in RANKS_UP_TO_8[kind]:
        rs = build_root_system(kind, rank, profile)
        data += repr((
            rs.gen_names, rs.ambient, rs.trace_zero, rs.simple_roots,
            rs.positive_roots, rs.pos_coords, rs.coxeter_positive_roots,
        ))
    assert hashlib.sha256(data.encode()).hexdigest() == ROOT_DATA_DIGESTS[kind, profile]


def _holds_fraction(value):
    if isinstance(value, Q):
        return True
    return isinstance(value, tuple) and any(map(_holds_fraction, value))


def test_root_systems_store_no_fractions():
    """A RootSystem stores integer data only; its Fraction views are derived
    on each read."""
    for kind, profile in ROOT_DATA_DIGESTS:
        for rank in RANKS_UP_TO_8[kind]:
            rs = build_root_system(kind, rank, profile)
            for slot in type(rs).__slots__:
                assert not _holds_fraction(getattr(rs, slot)), (kind, rank, profile, slot)


@pytest.mark.parametrize("kind", sorted(RANKS_UP_TO_8))
def test_parabolic_dim_matches_fraction_count(kind):
    """parabolic_dim counts integer coordinates; the oracle counts nonzero
    Fraction coordinates found by row reduction: every node subset up to
    rank 5, every single node up to rank 8."""
    for rank in RANKS_UP_TO_8[kind]:
        rs = build_root_system(kind, rank)
        coords = simple_coordinates(rs.simple_roots, rs.positive_roots)
        nodes = range(1, rank + 1)
        if rank <= 5:
            subsets = chain.from_iterable(combinations(nodes, k) for k in range(rank + 1))
        else:
            subsets = ((i,) for i in nodes)
        for removed in subsets:
            expected = sum(1 for c in coords if any(c[i - 1] != 0 for i in removed))
            assert parabolic_dim(rs, removed) == expected, (kind, rank, removed)


# every system up to rank 8, plus one larger rank per classical kind
ORACLE_RANKS = {**RANKS_UP_TO_8, **{
    kind: (*RANKS_UP_TO_8[kind], big) for kind, big in (("A", 20), ("B", 12), ("C", 12), ("D", 12))
}}


@pytest.mark.parametrize(
    "kind,profile", ROOT_DATA_DIGESTS, ids=[f"{k}-{p}" for k, p in ROOT_DATA_DIGESTS]
)
def test_root_permutations_match_reflection_oracle(kind, profile):
    """gen_perms, base_idx and cox_positive against the Fraction roots: the
    generator g sends positive root i to the index of reflect(root i, simple
    root g), and root i + N to the negative of that, N indices away."""
    for rank in ORACLE_RANKS[kind]:
        rs = build_root_system(kind, rank, profile)
        n = len(rs.positive_roots)
        roots = rs.positive_roots + tuple(tuple(-x for x in r) for r in rs.positive_roots)
        index = {r: i for i, r in enumerate(roots)}
        cox = frozenset(rs.coxeter_positive_roots)
        assert rs.cox_positive == tuple(r in cox for r in roots), (kind, rank)
        assert len(rs.gen_perms) == len(rs.base_idx) == len(rs.simple_roots) == rank
        for a, b, perm in zip(rs.simple_roots, rs.base_idx, rs.gen_perms):
            assert roots[b] in (a, tuple(-x for x in a)) and roots[b] in cox
            assert perm[:n] == tuple(index[reflect(r, a)] for r in roots[:n]), (kind, rank)
            assert all(abs(perm[i + n] - perm[i]) == n for i in range(n)), (kind, rank)
            assert all(perm[j] == i for i, j in enumerate(perm)), (kind, rank)
