import hashlib
import random
import tracemalloc
from collections import Counter
from itertools import product as iproduct
from math import comb, factorial

import pytest

from _oracles import (
    _rational_subspaces,
    enumerate_flags,
    flag_from_chain,
    frobenius_flag,
    omega_by_points,
    relative_position,
    rref,
    semistable,
    within,
)
from dlperiod import DEFAULT_CAP, CapacityError, UsageError, gffield, gfflag
from dlperiod.gffield import FIELD_CAP, _VALUES, _digit_sums, _frob_table
from dlperiod.gfflag import (
    Cochar,
    Field,
    _dl_tally_cached,
    _one_line,
    _walk,
    build_extension,
    cochar,
    complete_dims,
    coxeter_perm,
    dl_point_count,
    dl_point_tally,
    field_build,
    flag_count,
    gaussian_binomial,
    nu_jump_dims,
    omega_point_count,
    period_point_count,
    perm_from_word,
    prime_power,
    rational_scalars,
)
from dlperiod.rootsys import _build_interned, build_root_system
from dlperiod.weyl import enumerate_group, word_names

# frozen tallies for complete flags on a 3-space over GF(2), by extension degree
COMPLETE_3_2_TOTALS = {1: 21, 2: 105, 3: 657}


def test_prime_power():
    assert prime_power(2) == (2, 1)
    assert prime_power(8) == (2, 3)
    assert prime_power(27) == (3, 3)
    assert prime_power(49) == (7, 2)
    for bad in (0, 1, 6, 12, 100):
        with pytest.raises(UsageError):
            prime_power(bad)


def test_canonical_moduli():
    # lexicographically-first irreducible, highest coefficient compared first
    assert build_extension(2, 2).modulus == (1, 1, 1)          # x^2+x+1
    assert build_extension(2, 3).modulus == (1, 1, 0, 1)       # x^3+x+1
    assert build_extension(2, 4).modulus == (1, 1, 0, 0, 1)    # x^4+x+1
    assert build_extension(3, 2).modulus == (1, 0, 1)          # x^2+1
    assert field_build(5, 1).modulus == (0, 1)  # plain x for prime fields


def test_field_laws_exhaustive():
    for p, k in [(2, 2), (2, 3), (3, 2), (5, 1)]:
        fld = field_build(p, k)
        n = fld.size
        els = range(n)
        for a in els:
            assert fld.add(a, 0) == a and fld.mul(a, 1) == a
            assert fld.add(a, fld.neg(a)) == 0
            if a:
                assert fld.mul(a, fld.inv(a)) == 1
            for b in els:
                assert fld.add(a, b) == fld.add(b, a)
                assert fld.mul(a, b) == fld.mul(b, a)
        # spot-check associativity and distributivity on a subgrid
        for a, b, c in iproduct(range(0, n, max(1, n // 5)), repeat=3):
            assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))
            assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))


def test_frobenius_and_rational_scalars():
    f4 = build_extension(2, 2)
    frob = f4.frob_map(2)
    for a in range(4):
        assert frob[a] == f4.mul(a, a)
    assert rational_scalars(f4, 2) == (0, 1)
    f27 = build_extension(3, 3)
    frob3 = f27.frob_map(3)
    for a in range(27):
        assert frob3[a] == f27.mul(a, f27.mul(a, a))
        # additive and multiplicative
        for b in range(0, 27, 5):
            assert frob3[f27.add(a, b)] == f27.add(frob3[a], frob3[b])
    assert len(rational_scalars(f27, 3)) == 3
    with pytest.raises(UsageError):
        f4.frob_map(3)  # GF(3) is not inside GF(4)
    with pytest.raises(CapacityError):
        build_extension(2, 17)  # over the field size cap


def test_frobenius_answers_alike_cold_and_warm():
    # a float or bool q never finds the table or the scalars of an int q
    fld = field_build(3, 2)
    _frob_table.cache_clear()
    rational_scalars.cache_clear()
    for _ in range(2):  # cold, then with q = 3 cached
        for q in (3.0, True):
            with pytest.raises(UsageError, match=f"q must be a prime power >= 2, got {q}"):
                fld.frob_map(q)
            with pytest.raises(UsageError, match=f"q must be a prime power >= 2, got {q}"):
                rational_scalars(fld, q)
        assert rational_scalars(fld, 3) == (0, 1, 2)


def test_field_inverse_of_zero():
    with pytest.raises(ZeroDivisionError, match="field inverse of 0"):
        field_build(5, 1).inv(0)


def test_field_equality_and_repr():
    assert build_extension(2, 2) == field_build(2, 2)
    assert repr(build_extension(3, 2)) == "GF(3^2)"


def test_gaussian_binomials_and_flag_counts():
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(3, -1, 2) == gaussian_binomial(3, 4, 2) == 0
    assert flag_count(3, (1, 2), 2) == 21
    assert flag_count(3, (1, 2), 8) == 657
    assert flag_count(3, (1,), 4) == 21
    assert flag_count(2, (1,), 9) == 10
    assert flag_count(3, (), 5) == 1


def test_rref_canonical():
    f2 = build_extension(2, 1)
    rows = rref(f2, ((1, 1, 0), (0, 1, 1)))
    assert rows == ((1, 0, 1), (0, 1, 1))
    # scaling and reordering cannot change the canonical form
    f3 = build_extension(3, 1)
    a = rref(f3, ((1, 2, 0), (0, 1, 1)))
    b = rref(f3, ((0, 2, 2), (1, 2, 0)))
    assert a == b


def test_enumerate_flags_counts_and_uniqueness():
    f2 = build_extension(2, 1)
    lines = enumerate_flags(f2, 3, (1,))
    assert len(lines) == 7
    full = enumerate_flags(f2, 3, (1, 2))
    assert len(full) == 21
    assert len({fl.steps for fl in full}) == 21
    f4 = build_extension(2, 2)
    assert len(enumerate_flags(f4, 2, (1,))) == 5
    with pytest.raises(CapacityError) as exc:
        enumerate_flags(f2, 3, (1, 2), cap=10)
    assert "21" in str(exc.value)
    with pytest.raises(UsageError):
        enumerate_flags(f2, 3, (2, 1))


def test_flag_from_chain():
    f2 = build_extension(2, 1)
    fl = flag_from_chain(f2, 3, [((1, 1, 0),), ((1, 1, 0), (0, 0, 1))])
    assert fl.dims == (1, 2)
    assert fl.steps[0] == ((1, 1, 0),)
    with pytest.raises(UsageError):
        flag_from_chain(f2, 3, [((1, 1, 0),), ((1, 1, 0),)])  # not increasing
    with pytest.raises(UsageError):
        flag_from_chain(f2, 3, [((0, 0, 0),)])


def test_frobenius_flag_fixed_exactly_on_rational_flags():
    f4 = build_extension(2, 2)
    fixed = [fl for fl in enumerate_flags(f4, 2, (1,)) if frobenius_flag(fl, 2) == fl]
    assert len(fixed) == 3  # the GF(2)-rational lines


def test_perm_from_word_and_coxeter():
    assert perm_from_word(3, "s1") == (1, 0, 2)
    assert perm_from_word(3, "s1 s2") == (1, 2, 0)
    assert perm_from_word(3, "s2 s1") == (2, 0, 1)
    assert coxeter_perm(2) == (1, 0)
    assert coxeter_perm(4) == (1, 2, 3, 0)
    assert perm_from_word(4, "s1 s2 s3") == coxeter_perm(4)
    with pytest.raises(UsageError):
        perm_from_word(3, "s3")


def test_perm_from_word_takes_digit_tokens():
    assert perm_from_word(3, "1 2") == perm_from_word(3, "s1 s2") == (1, 2, 0)
    assert perm_from_word(3, [2, "s1"]) == perm_from_word(3, "s2 s1")


def _swap_oracle(n, swaps):
    """One-line form of s_{v1} ... s_{vk}, the last swap acting first, by
    composing adjacent transpositions of 0..n-1 one at a time."""
    out = []
    for j in range(n):
        for v in reversed(swaps):
            if j in (v - 1, v):
                j = 2 * v - 1 - j
        out.append(j)
    return tuple(out)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_perm_from_word_on_every_element_of_the_symmetric_group(n):
    rs = build_root_system("A", n - 1)
    seen = set()
    for w in enumerate_group(rs):
        names = word_names(rs, w.word)
        got = perm_from_word(n, " ".join(names))
        assert got == _swap_oracle(n, [int(t[1:]) for t in names])
        seen.add(got)
    assert len(seen) == factorial(n)


def test_perm_from_word_on_seeded_mixed_tokens():
    rng = random.Random(21)
    for n in range(2, 8):
        for _ in range(50):
            swaps = [rng.randint(1, n - 1) for _ in range(rng.randint(0, 12))]
            tokens = [rng.choice((f"s{v}", str(v), v)) for v in swaps]
            want = _swap_oracle(n, swaps)
            assert perm_from_word(n, tokens) == want
            assert perm_from_word(n, " ".join(map(str, tokens))) == want
        assert coxeter_perm(n) == _swap_oracle(n, list(range(1, n)))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_one_line_form_matches_the_matrix(rank):
    # the matrix of w sends e_j to e_{w(j)}: M[w(j)][j] = 1
    for w in enumerate_group(build_root_system("A", rank)):
        perm = _one_line(w)
        assert sorted(perm) == list(range(rank + 1))
        assert all(w.matrix[i][j] == 1 for j, i in enumerate(perm))


def test_permutation_words_take_the_weyl_grammar():
    assert perm_from_word(3, [" s1 ", "2 "]) == perm_from_word(3, "s1 s2")
    assert perm_from_word(4, "sp2 s1 sp0") == perm_from_word(4, "s1")
    with pytest.raises(UsageError, match="unknown generator token 's01'"):
        perm_from_word(3, "s01")
    with pytest.raises(UsageError, match="generator position 3 out of range for A2"):
        perm_from_word(3, [3])


# the full text of every cap refusal in gfflag
CAP_MESSAGES = {
    "tally": (
        lambda: dl_point_tally(3, 2, 2, cap=10),
        "flag family of type (1, 2) in dimension 3 over GF(2^2) has 105 members, exceeding cap 10",
    ),
    "count": (
        lambda: dl_point_count(3, 2, 2, "s1", cap=10),
        "flag family of type (1, 2) in dimension 3 over GF(2^2) has 105 members, exceeding cap 10",
    ),
    "omega": (
        lambda: omega_point_count(3, 2, 3, cap=10),
        "projective space over GF(2^3) has 73 points, exceeding cap 10",
    ),
    "period_flags": (
        lambda: period_point_count((1, 0, 0), 2, 3, cap=10),
        "flag family of type (1,) in dimension 3 over GF(2^3) has 73 members, exceeding cap 10",
    ),
    "period_subspaces": (
        lambda: period_point_count((1,) + (0,) * 8, 2, 1),
        "GF(2)^9 has 8283456 rational proper subspaces, exceeding cap 1000000",
    ),
    "period_trivial": (
        lambda: period_point_count((0, 0, 0), 2, 1, cap=0),
        "flag family of type () in dimension 3 over GF(2) has 1 members, exceeding cap 0",
    ),
    # sizes of more than 4,300 digits are named by a power-of-two bound
    "count_n200": (
        lambda: dl_point_count(200, 2, 1, "s1"),
        f"flag family of type {tuple(range(1, 200))} in dimension 200 over GF(2) "
        "has more than 2^20098 members, exceeding cap 1000000",
    ),
    "omega_n8000": (
        lambda: omega_point_count(8000, 2, 2),
        "projective space over GF(2^2) has more than 2^15998 points, exceeding cap 1000000",
    ),
    "field": (
        lambda: build_extension(2, 17),
        "field GF(2^17) has 131072 elements, exceeding cap 65536",
    ),
    # the power is cut at 2^14285 > 10^4300, so any degree is refused at once
    "field_huge": (
        lambda: omega_point_count(2, 3, 30_000_000),
        "field GF(3^30000000) has more than 2^22641 elements, exceeding cap 65536",
    ),
}


@pytest.mark.parametrize("case", sorted(CAP_MESSAGES))
def test_cap_messages(case):
    call, msg = CAP_MESSAGES[case]
    with pytest.raises(CapacityError) as err:
        call()
    assert str(err.value) == msg


BIG_PRIME = 2**61 - 1
# refusals of sizes that are cheap to bound but costly to factor or count
BOUNDED_REFUSALS = {
    "field_p": (
        lambda: field_build(BIG_PRIME, 1),
        CapacityError,
        f"field GF({BIG_PRIME}^1) would have {BIG_PRIME} elements, exceeding cap 65536",
    ),
    "extension_q": (
        lambda: omega_point_count(2, BIG_PRIME, 1),
        CapacityError,
        f"field GF({BIG_PRIME}^1) would have {BIG_PRIME} elements, exceeding cap 65536",
    ),
    # a q above the cap is not factored, so no prime power check runs
    "extension_not_prime_power": (
        lambda: build_extension(100000, 1),
        CapacityError,
        "field GF(100000^1) would have 100000 elements, exceeding cap 65536",
    ),
    "extension_huge_degree": (
        lambda: build_extension(2**17, 30_000_000),
        CapacityError,
        "field GF(131072^30000000) would have more than 2^14296 elements, exceeding cap 65536",
    ),
    "frob_q": (
        lambda: field_build(2, 4).frob_map(BIG_PRIME),
        UsageError,
        f"GF({BIG_PRIME}) is not a subfield of GF(2^4)",
    ),
    "scalars_q": (
        lambda: rational_scalars(field_build(2, 4), BIG_PRIME),
        UsageError,
        f"GF({BIG_PRIME}) is not a subfield of GF(2^4)",
    ),
    # the big Bruhat cell, 2^(n(n-1)/2) flags, bounds the count it is not worth forming
    "count_n20000": (
        lambda: dl_point_count(20000, 2, 1, "s1"),
        CapacityError,
        f"flag family of type {tuple(range(1, 20000))} in dimension 20000 over GF(2) "
        "has more than 2^199990000 members, exceeding cap 1000000",
    ),
    "period_n400": (
        lambda: period_point_count((1,) * 200 + (0,) * 200, 2, 2),
        CapacityError,
        "flag family of type (200,) in dimension 400 over GF(2^2) "
        "has more than 4^40000 members, exceeding cap 1000000",
    ),
    # Q^(n-1) points have first coordinate 1, a bound on the exact count
    "omega_n1000000": (
        lambda: omega_point_count(10**6, 3, 10),
        CapacityError,
        "projective space over GF(3^10) has more than 59049^999999 points, exceeding cap 1000000",
    ),
    # a raised flag cap admits n = 10, but the count walks S_10, past the group cap
    "count_n10_group": (
        lambda: dl_point_count(10, 2, 1, "s1", cap=10**60),
        CapacityError,
        "group A9[bourbaki] has order 3628800, exceeding cap 1000000",
    ),
}


@pytest.mark.parametrize("case", sorted(BOUNDED_REFUSALS))
def test_refusals_run_in_bounded_time(case):
    call, kind, msg = BOUNDED_REFUSALS[case]
    with pytest.raises(kind) as err:
        within(5, call)
    assert str(err.value) == msg


def test_flag_cap_above_the_bound_takes_the_exact_count():
    # a cap past 2^(2^16) is compared with the exact count, not the bound
    exact = flag_count(400, (200,), 4)
    with pytest.raises(CapacityError) as err:
        period_point_count((1,) * 200 + (0,) * 200, 2, 2, cap=2 ** 2**16)
    assert str(err.value) == (
        "flag family of type (200,) in dimension 400 over GF(2^2) has more than "
        f"2^{(exact - 1).bit_length() - 1} members, exceeding cap more than 2^65535"
    )


def test_count_refuses_before_reading_the_word():
    # a word is read in A_{n-1}; a count the cap refuses builds no root system
    before = _build_interned.cache_info()
    with pytest.raises(CapacityError, match=r"in dimension 150 over GF\(2\) has \d+ members"):
        dl_point_count(150, 2, 1, "s1")
    assert _build_interned.cache_info() == before


# every error path of the cell (n, q, e), cocharacter and permutation rules
INPUT_RULE_MESSAGES = {
    "n": (lambda: dl_point_tally(1, 2, 1), "ambient dimension must be an integer >= 2, got 1"),
    "float_n": (
        lambda: omega_point_count(3.0, 2, 1), "ambient dimension must be an integer >= 2, got 3.0"
    ),
    "omega_e": (
        lambda: omega_point_count(3, 2, 0), "extension degree must be an integer >= 1, got 0"
    ),
    "bool_e": (
        lambda: omega_point_count(3, 2, True), "extension degree must be an integer >= 1, got True"
    ),
    "float_e": (
        lambda: omega_point_count(3, 2, 1.5), "extension degree must be an integer >= 1, got 1.5"
    ),
    "period_e": (
        lambda: period_point_count((1, 0), 2, 0), "extension degree must be an integer >= 1, got 0"
    ),
    "extension_e": (
        lambda: build_extension(2, 0), "extension degree must be an integer >= 1, got 0"
    ),
    "float_q": (
        lambda: period_point_count((1, 0, 0), 2.0, 1), "q must be a prime power >= 2, got 2.0"
    ),
    "bool_q": (lambda: dl_point_tally(3, True, 1), "q must be a prime power >= 2, got True"),
    "field_p": (lambda: field_build(4, 1), "field characteristic must be prime, got 4"),
    "field_k": (lambda: field_build(2, 0), "field degree must be >= 1, got 0"),
    "float_field_p": (lambda: field_build(3.0, 1), "field characteristic must be prime, got 3.0"),
    "bool_field_k": (lambda: field_build(3, True), "field degree must be >= 1, got True"),
    "scalar_vector": (lambda: cochar(5), "a cocharacter vector must be a sequence, got 5"),
    "scalar_second_vector": (
        lambda: cochar((1, 0), 5), "a cocharacter vector must be a sequence, got 5"
    ),
    "two_factor_cochar": (
        lambda: period_point_count(cochar((1, 0), (0, 0)), 2, 2),
        "this operation takes a single-factor cocharacter",
    ),
    "two_factor_tuple": (
        lambda: period_point_count(((1, 0), (0, 0)), 2, 2),
        "this operation takes a single-factor cocharacter",
    ),
    "nested_vectors": (lambda: cochar([[(1, 0)]]), "cocharacter entries must be integers"),
    "non_permutation": (
        lambda: dl_point_count(3, 2, 2, (0, 0, 1)),
        "(0, 0, 1) is not a 0-based permutation of range(3)",
    ),
    "float_permutation": (
        lambda: dl_point_count(3, 2, 2, (1.0, 0.5, 2)),
        "(1.0, 0.5, 2) is not a 0-based permutation of range(3)",
    ),
    "bool_permutation": (
        lambda: dl_point_count(3, 2, 2, (True, False, 2)),
        "(True, False, 2) is not a 0-based permutation of range(3)",
    ),
    "unknown_token": (
        lambda: perm_from_word(3, "s1 x2"), "unknown generator token 'x2' for A2[bourbaki]"
    ),
    "bool_token": (
        lambda: perm_from_word(3, [True]), "unknown generator token 'True' for A2[bourbaki]"
    ),
    "scalar_word": (lambda: perm_from_word(3, 5), "a word must be a sequence, got 5"),
    "bool_coxeter_n": (
        lambda: coxeter_perm(True), "ambient dimension must be an integer >= 2, got True"
    ),
    "float_coxeter_n": (
        lambda: coxeter_perm(2.0), "ambient dimension must be an integer >= 2, got 2.0"
    ),
    "float_word_n": (
        lambda: perm_from_word(3.0, "s1"), "ambient dimension must be an integer >= 2, got 3.0"
    ),
    "word_n": (lambda: perm_from_word(1, ""), "ambient dimension must be an integer >= 2, got 1"),
    "str_tally_cap": (lambda: dl_point_tally(3, 2, 1, cap="x"), "cap must be an integer, got 'x'"),
    "float_tally_cap": (lambda: dl_point_tally(3, 2, 1, cap=1.5), "cap must be an integer, got 1.5"),
    "bool_count_cap": (
        lambda: dl_point_count(3, 2, 1, "s1", cap=True), "cap must be an integer, got True"
    ),
    "none_omega_cap": (
        lambda: omega_point_count(3, 2, 1, cap=None), "cap must be an integer, got None"
    ),
    "str_period_cap": (
        lambda: period_point_count((1, 0, 0), 2, 1, cap="x"), "cap must be an integer, got 'x'"
    ),
    "str_trivial_period_cap": (
        lambda: period_point_count((0, 0, 0), 2, 1, cap="x"), "cap must be an integer, got 'x'"
    ),
    "scalar_permutation": (
        lambda: dl_point_count(3, 2, 2, 5), "a permutation must be a sequence, got 5"
    ),
}


@pytest.mark.parametrize("case", sorted(INPUT_RULE_MESSAGES))
def test_input_rule_messages(case):
    call, msg = INPUT_RULE_MESSAGES[case]
    with pytest.raises(UsageError) as err:
        call()
    assert str(err.value) == msg


def test_counts_check_the_field_without_building_it():
    """Every count checks GF(q^e) by field_build's rules and reads only its
    order: no field_build miss on its answers or on its pinned refusals."""
    field_build.cache_clear()
    before = field_build.cache_info().misses
    assert omega_point_count(2, 3, 10) == 3**10 - 3
    assert period_point_count((1, 0), 2, 16) == 2**16 - 2
    assert dl_point_count(2, 5, 6, "s1") == 5**6 - 5
    assert dl_point_tally(2, 13, 4) == {(0, 1): 14, (1, 0): 13**4 - 13}
    pinned = [CAP_MESSAGES[case] for case in (
        "tally", "count", "omega", "period_flags", "period_subspaces", "period_trivial",
        "count_n200", "omega_n8000", "field_huge",
    )]
    pinned += [BOUNDED_REFUSALS[case][::2] for case in (
        "extension_q", "count_n20000", "period_n400", "omega_n1000000", "count_n10_group",
    )]
    pinned += [INPUT_RULE_MESSAGES[case] for case in ("n", "omega_e", "float_q", "bool_q")]
    pinned.append((
        lambda: omega_point_count(2, 2, 17), "field GF(2^17) has 131072 elements, exceeding cap 65536"
    ))
    for call, msg in pinned:
        with pytest.raises((CapacityError, UsageError)) as err:
            call()
        assert str(err.value) == msg
    assert field_build.cache_info().misses == before


def test_relative_position_identity_and_inverse():
    f2 = build_extension(2, 1)
    flags = enumerate_flags(f2, 3, (1, 2))
    id3 = (0, 1, 2)
    inv = {w: tuple(sorted(range(3), key=lambda i: w[i])) for w in
           set(iproduct(range(3), repeat=3))}
    for F in flags:
        assert relative_position(F, F) == id3
    for F in flags[:7]:
        for G in flags:
            w = relative_position(F, G)
            assert relative_position(G, F) == inv[w]


def test_relative_position_cell_sizes():
    # over GF(q) the cell of w relative to a fixed flag has q^length(w) points
    for q in (2, 3):
        fld = build_extension(q, 1)
        flags = enumerate_flags(fld, 3, (1, 2))
        base = flags[0]
        from collections import Counter
        c = Counter(relative_position(base, G) for G in flags)
        assert c[(0, 1, 2)] == 1
        assert c[(1, 0, 2)] == q and c[(0, 2, 1)] == q
        assert c[(1, 2, 0)] == q * q and c[(2, 0, 1)] == q * q
        assert c[(2, 1, 0)] == q ** 3


def test_relative_position_input_checks():
    f2 = build_extension(2, 1)
    f4 = build_extension(2, 2)
    a = enumerate_flags(f2, 3, (1, 2))[0]
    b = enumerate_flags(f4, 3, (1, 2))[0]
    with pytest.raises(UsageError):
        relative_position(a, b)
    partial = enumerate_flags(f2, 3, (1,))[0]
    with pytest.raises(UsageError):
        relative_position(partial, partial)


def test_dl_point_counts_frozen():
    assert dl_point_count(2, 2, 1, "s1") == 0
    assert dl_point_count(2, 2, 2, "s1") == 2
    assert dl_point_tally(3, 2, 1) == {(0, 1, 2): 21}
    t = dl_point_tally(3, 2, 3)
    assert t[(1, 2, 0)] == 24 and t[(2, 0, 1)] == 24
    for e, total in COMPLETE_3_2_TOTALS.items():
        assert sum(dl_point_tally(3, 2, e).values()) == total
    assert dl_point_count(3, 2, 3, "s1 s2") == dl_point_count(3, 2, 3, (1, 2, 0))
    with pytest.raises(CapacityError) as exc:
        dl_point_tally(3, 2, 3, cap=100)
    assert "657" in str(exc.value)
    assert dl_point_tally(3, 3, 3) == {
        (0, 1, 2): 52, (0, 2, 1): 312, (1, 0, 2): 312,
        (1, 2, 0): 432, (2, 0, 1): 432, (2, 1, 0): 19656,
    }


def test_omega_counts():
    assert omega_point_count(2, 2, 2) == 2
    assert omega_point_count(3, 2, 2) == 0
    assert omega_point_count(3, 2, 3) == 24
    # degree-1 extension leaves nothing off the rational hyperplanes
    assert omega_point_count(2, 5, 1) == 0
    # projective line: all points minus the rational ones
    assert omega_point_count(2, 3, 2) == (9 ** 2 - 1) // (9 - 1) - 4


def test_field_build_answer_does_not_depend_on_its_cache():
    # an untyped cache would answer 3.0 and True from the GF(3) entry
    assert field_build(3, 1) is field_build(3, 1)
    for p, k in [(3.0, 1), (3, True), (True, 1)]:
        with pytest.raises(UsageError):
            field_build(p, k)
    assert field_build.cache_info().currsize >= 1


def test_cochar_and_jumps():
    c = cochar((1, 0, 0))
    assert isinstance(c, Cochar) and c.nu == ((1, 0, 0),)
    assert cochar((1, 0), (2, 2)).nu == ((1, 0), (2, 2))
    assert nu_jump_dims((1, 0, 0)) == (1,)
    assert nu_jump_dims((2, 2, 0)) == (2,)
    assert nu_jump_dims((2, 1, 0)) == (1, 2)
    assert nu_jump_dims((1, 1, 1)) == ()
    with pytest.raises(UsageError):
        cochar((0, 1))  # must be weakly decreasing
    with pytest.raises(UsageError):
        cochar(())


def test_cochar_forms():
    c = cochar((1, 0), (2, 2))
    assert cochar(c) is c
    assert cochar([(1, 0), (2, 2)]) == cochar(((1, 0), (2, 2))) == c
    assert cochar([1, 0, 0]) == cochar((1, 0, 0))
    assert period_point_count(cochar((1, 0, 0)), 2, 3) == period_point_count((1, 0, 0), 2, 3)


def test_cochar_messages():
    cases = [
        ((), "empty cocharacter"),
        (((1,), (1, 0)), "cocharacter factors of unequal lengths [1, 2]"),
        (((),), "empty cocharacter factor"),
    ]
    for vectors, msg in cases:
        with pytest.raises(UsageError) as err:
            cochar(*vectors)
        assert str(err.value) == msg


@pytest.mark.parametrize(
    "nu", [(1.5, 0, 0), ("1", 0, 0), (True, False), (1, 0.0)], ids=["float", "str", "bool", "zero"]
)
def test_cochar_refuses_non_int_entries(nu):
    # entries are taken as given: nothing is truncated or parsed
    with pytest.raises(UsageError) as err:
        cochar(nu)
    assert str(err.value) == "cocharacter entries must be integers"
    with pytest.raises(UsageError):
        period_point_count(nu, 2, 2)


def test_semistable_lines_over_gf4():
    f4 = build_extension(2, 2)
    lines = enumerate_flags(f4, 2, (1,))
    flags_ss = [fl for fl in lines if semistable((1, 0), fl, 2)]
    assert len(flags_ss) == 2
    rational = [fl for fl in lines if frobenius_flag(fl, 2) == fl]
    assert all(fl not in rational for fl in flags_ss)
    # type mismatch is an error, not False
    with pytest.raises(UsageError):
        semistable((1, 1, 0), lines[0], 2)


def test_period_domain_counts():
    assert period_point_count((1, 0), 2, 2) == 2
    assert period_point_count((1, 0, 0), 2, 3) == 24
    assert period_point_count((1, 0, 0), 2, 2) == 0
    # constant weights: the empty flag, one point
    assert period_point_count((1, 1, 1), 2, 3) == 1
    # invariance under shift and positive scaling of the weights
    assert period_point_count((2, 1, 1), 2, 3) == period_point_count((1, 0, 0), 2, 3)
    assert period_point_count((2, 0, 0), 2, 3) == period_point_count((1, 0, 0), 2, 3)
    assert period_point_count((3, 1), 3, 2) == period_point_count((1, 0), 3, 2)


def test_two_step_period_count_cross_checked():
    # n=3 full flags, nu with two jumps; brute force the count independently
    f8 = build_extension(2, 3)
    nu = (2, 1, 0)
    got = period_point_count(nu, 2, 3)
    brute = sum(1 for fl in enumerate_flags(f8, 3, (1, 2)) if semistable(nu, fl, 2))
    assert got == brute


def test_caps_are_enforced():
    with pytest.raises(CapacityError):
        period_point_count((1, 0, 0), 2, 3, cap=10)
    with pytest.raises(CapacityError):
        omega_point_count(3, 2, 3, cap=10)


def test_period_count_checks_its_caps_before_building_subspaces():
    before = _rational_subspaces.cache_info()
    # 255 lines over GF(2), over the flag cap
    with pytest.raises(CapacityError, match="255"):
        period_point_count((1,) + (0,) * 7, 2, 1, cap=10)
    # 511 lines, within the cap, but 8,283,456 rational subspaces
    with pytest.raises(CapacityError, match="8283456"):
        period_point_count((1,) + (0,) * 8, 2, 1)
    assert _rational_subspaces.cache_info() == before


def test_tally_cache_ignores_the_cap():
    dl_point_tally(4, 2, 2)
    hits = _dl_tally_cached.cache_info().hits
    misses = _dl_tally_cached.cache_info().misses
    dl_point_tally(4, 2, 2, cap=10**7)
    assert _dl_tally_cached.cache_info().hits == hits + 1
    assert _dl_tally_cached.cache_info().misses == misses


def test_field_primitive_elements_pinned():
    # exp[1] is the smallest primitive element; every table hangs off it
    pinned = {(2, 12): 3, (3, 5): 3, (3, 8): 38, (5, 5): 10, (7, 4): 12}
    for (p, k), g in pinned.items():
        fld = field_build(p, k)
        assert fld.exp[1] == g
        assert len(set(fld.exp)) == fld.size - 1


def _digest(table):
    return hashlib.sha256(",".join(map(str, table)).encode()).hexdigest()[:16]


# (p, k): (modulus, exp[1], sha256 prefix of exp, of frob_map(p)), frozen from
# the field build that multiplied polynomials entry by entry; every field of
# the flags benchmark plus the largest fields of each addition path
FIELD_TABLES = {
    (2, 1): ((0, 1), None, '6b86b273ff34fce1', '83b97b859aa5f81b'),
    (2, 2): ((1, 1, 1), 2, '8a6ae15122001229', 'a428682b12fc83ce'),
    (2, 3): ((1, 1, 0, 1), 2, '532e44873f848976', '3e7f0c5c6d4dce41'),
    (2, 4): ((1, 1, 0, 0, 1), 2, '2118825d65017511', 'f85d2b8be1df2099'),
    (2, 5): ((1, 0, 1, 0, 0, 1), 2, '1aae48154ea2150d', 'f4b48a570a86d440'),
    (2, 6): ((1, 1, 0, 0, 0, 0, 1), 2, 'add391b6e7520c4f', '0090882a4c62bb11'),
    (2, 7): ((1, 1, 0, 0, 0, 0, 0, 1), 2, 'cd62bd15b3fdd5ad', '163525cbad730579'),
    (2, 8): ((1, 1, 0, 1, 1, 0, 0, 0, 1), 3, 'c35609d7d6dbc90e', 'e6d4677f13058bc4'),
    (2, 9): ((1, 1, 0, 0, 0, 0, 0, 0, 0, 1), 7, '4e0016b3c7cf30e1', 'fe2dd5b56ab08533'),
    (2, 10): ((1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1), 2, '97ee35015bb19e57', '6fd7daba4259a861'),
    (2, 11): ((1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 2, '0ddc7628e768d29a', '829983726a2d2bf5'),
    (2, 12): ((1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 3, '3b99066734910660', 'c0753236d1c5346a'),
    (2, 13): ((1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 2, '375bb488ba675c28', 'eb777cd6b3f77975'),
    (3, 1): ((0, 1), 2, '17f8af97ad4a7f76', 'c0be322c1ad6af50'),
    (3, 2): ((1, 0, 1), 4, 'b351095dd920918f', '3777e6fe509d42c3'),
    (3, 3): ((1, 2, 0, 1), 3, '62f2ccfa842b73c3', '4f01873b2a130952'),
    (3, 4): ((2, 1, 0, 0, 1), 3, '3d1b96486dbf892d', '00b60221b89ab819'),
    (3, 5): ((1, 2, 0, 0, 0, 1), 3, '3972215707772f60', '993b917e6b6c0cc8'),
    (3, 7): ((2, 0, 1, 0, 0, 0, 0, 1), 5, 'c99ad20113c7b7e9', '41e697d2e25f7260'),
    (3, 8): ((2, 0, 1, 0, 0, 0, 0, 0, 1), 38, 'ae4826aa570ad5b1', 'fc01a4b4478e4f14'),
    (5, 1): ((0, 1), 2, 'a476677e7e6c27f0', '6484c68c0c85987f'),
    (5, 2): ((2, 0, 1), 6, 'dc195559d55f793a', 'bd9ec5bde32f77d1'),
    (5, 3): ((1, 1, 0, 1), 9, '6591e5b8ef32c55c', '87e6b62cdd448c09'),
    (5, 5): ((1, 4, 0, 0, 0, 1), 10, '35b52509d05cd994', '47878bb1a95b3f1c'),
    (7, 1): ((0, 1), 3, '8857bfd80b140972', '594a7c1b42ceaed6'),
    (7, 2): ((1, 0, 1), 9, '0a53d11615247132', 'adcd5b0007e74e3b'),
    (7, 4): ((1, 1, 0, 0, 1), 12, '418fce1d7f4cc810', 'd38467d862550b20'),
    (2, 16): ((1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), 3, '5860a63f932f7cb6', '69cc050f3a9266e1'),
    (3, 10): ((1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1), 34, '9cc6265c9b4aa255', 'c67e4c9e93b8ebf7'),
    (31, 2): ((1, 0, 1), 35, '5bc82a685b18a54a', 'd2d5889640c002cd'),
    (37, 3): ((2, 0, 0, 1), 75, 'b310ee756eb028e1', '48ed54b384b73997'),
    (251, 2): ((1, 0, 1), 256, '7889c485a7f1779f', 'd0d5b50880dff3f7'),
    (1031, 1): ((0, 1), 14, '7b9a04deddc045b9', 'cd0451ac63b4be30'),
}


@pytest.mark.parametrize("p,k", list(FIELD_TABLES))
def test_field_tables_pinned(p, k):
    modulus, g, exp_digest, frob_digest = FIELD_TABLES[p, k]
    fld = field_build(p, k)
    assert fld.modulus == modulus
    assert (fld.exp[1] if fld.size > 2 else None) == g
    assert _digest(fld.exp) == exp_digest
    assert _digest(fld.frob_map(p)) == frob_digest


def test_fields_share_one_int_object_per_value():
    # exp, log and the Frobenius table hold the pool's object for each value
    # (log[0] = -1 marks zero), so two fields hold a common value once
    fields = [field_build(2, 13), field_build(3, 8)]
    for fld in fields:
        for table in (fld.exp, fld.log[1:], fld.frob_map(fld.p)):
            assert all(v is _VALUES[v] for v in table)
    small, big = sorted(fields, key=lambda fld: fld.size)
    for v in range(1, small.size):
        assert small.exp[small.log[v]] is big.exp[big.log[v]]


def test_walk_takes_its_entries_from_the_value_pool():
    # GF(2^9) has values above 256, which CPython does not share by itself
    fld = field_build(2, 9)
    rows = []

    def enter(depth, new_rows, state, ctx):
        rows.extend(new_rows)

    list(_walk(fld, 2, (1,), enter, None))
    assert len(rows) == fld.size + 1  # the lines of GF(2^9)^2
    assert all(v is _VALUES[v] for row in rows for v in row)


def test_digit_sums_are_built_once_per_shape():
    # GF(3^7) and GF(3^8) both add in two chunks of four digits
    Field(3, 7)
    misses = _digit_sums.cache_info().misses
    Field(3, 8)
    assert _digit_sums.cache_info().misses == misses


def test_gfflag_reexports_the_field_layer():
    assert set(gfflag.__all__) == {
        "Cochar", "Field", "build_extension", "complete_dims", "coxeter_perm",
        "dl_point_count", "dl_point_tally", "field_build", "flag_count",
        "gaussian_binomial", "omega_point_count", "perm_from_word",
        "period_point_count", "prime_power", "rational_scalars",
    }
    assert set(gffield.__all__) < set(gfflag.__all__)
    for name in gffield.__all__:
        assert getattr(gfflag, name) is getattr(gffield, name)


@pytest.mark.parametrize("p,k", list(FIELD_TABLES))
def test_neg_is_digit_wise(p, k):
    # -a negates each base-p digit; every element up to 2^13, seeded ones
    # above (p = 2, one add table, chunks and p > 256 alike)
    fld = field_build(p, k)
    assert fld.neg(0) == 0
    if fld.size <= 2**13:
        elems = range(fld.size)
    else:
        rng = random.Random(20)
        elems = [rng.randrange(fld.size) for _ in range(5000)]
    for a in elems:
        assert fld.neg(a) == sum((-(a // p**i) % p) * p**i for i in range(k))


def test_odd_characteristic_add_table_field_laws():
    for p, k in [(3, 5), (5, 3)]:
        fld = field_build(p, k)
        n = fld.size

        def digits(a):
            return [(a // p**i) % p for i in range(k)]

        for a in range(n):
            da = digits(a)
            assert fld.add(a, 0) == a and fld.add(a, fld.neg(a)) == 0
            for b in range(n):
                s = fld.add(a, b)
                assert s == fld.add(b, a)
                assert digits(s) == [(x + y) % p for x, y in zip(da, digits(b))]
        grid = range(0, n, max(1, n // 9))
        for a, b, c in iproduct(grid, repeat=3):
            assert fld.add(fld.add(a, b), c) == fld.add(a, fld.add(b, c))
            assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))


@pytest.mark.parametrize(
    "p,k", [(3, 7), (3, 8), (5, 5), (7, 4), (37, 3), (31, 2), (7, 5), (1031, 1)]
)
def test_big_odd_fields_add_digit_wise(p, k):
    # above 256 elements addition reads one table of at most 256 rows chunk
    # by chunk (a prime field adds mod p); seeded pairs must add digit by
    # digit mod p
    fld = field_build(p, k)

    def digits(a):
        return [(a // p**i) % p for i in range(k)]

    rng = random.Random(8)
    for _ in range(5000):
        a, b = rng.randrange(fld.size), rng.randrange(fld.size)
        s = fld.add(a, b)
        assert digits(s) == [(x + y) % p for x, y in zip(digits(a), digits(b))]
        assert s == fld.add(b, a) and fld.add(a, fld.neg(a)) == 0


@pytest.mark.parametrize("p,k", [(31, 2), (3, 6)])
def test_odd_field_add_table_stays_small(p, k):
    # a full add table would hold p^k rows of p^k entries (27 MiB for
    # GF(31^2)); the chunked one has at most 256 rows
    tracemalloc.start()
    try:
        Field(p, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("q,e", [(3, 7), (5, 5)])
def test_big_odd_fields_count_lines(q, e):
    # GF(3^7) and GF(5^5) exceed the 256-element add table, so the oracle's
    # echelon steps subtract chunk by chunk; on the projective line
    # q + 1 points are rational and the other q^e - q are not
    lines = {(0, 1): q + 1, (1, 0): q**e - q}
    assert dl_point_tally(2, q, e) == lines
    fld = build_extension(q, e)
    flagwise = Counter(
        relative_position(fl, frobenius_flag(fl, q)) for fl in enumerate_flags(fld, 2, (1,))
    )
    assert flagwise == lines
    if q == 3:
        assert period_point_count((1, 0), q, e) == q**e - q


@pytest.mark.parametrize(
    "n,q,e",
    [
        (2, 3, 2), (2, 4, 3), (3, 2, 2), (3, 3, 1), (3, 3, 2), (3, 2, 3),
        (3, 4, 1), (4, 2, 1), (4, 2, 2), (4, 3, 1), (5, 2, 1),
    ],
)
def test_tally_matches_flagwise_relative_position(n, q, e):
    # brute force: each flag against its rref'd Frobenius image
    fld = build_extension(q, e)
    brute = Counter(
        relative_position(fl, frobenius_flag(fl, q))
        for fl in enumerate_flags(fld, n, complete_dims(n))
    )
    assert dl_point_tally(n, q, e) == dict(brute)


def _rational_subspace_rows(fld, n, q):
    """Rows of every proper subspace fixed by the q-Frobenius."""
    return [
        sub.steps[0]
        for du in range(1, n)
        for sub in enumerate_flags(fld, n, (du,))
        if frobenius_flag(sub, q) == sub
    ]


def _slope_oracle(nu, flag, rational):
    """Semistability from first principles: intersections with the
    rational subspaces come from rank(U + V)."""
    fld, n = flag.field, flag.n
    cuts = (0,) + flag.dims + (n,)
    weights = [nu[0]] + [nu[d] for d in flag.dims]
    for urows in rational:
        du = len(urows)
        inter = [0] + [
            du + d - len(rref(fld, urows + step)) for d, step in zip(flag.dims, flag.steps)
        ] + [du]
        deg = sum(weights[i - 1] * (inter[i] - inter[i - 1]) for i in range(1, len(cuts)))
        if deg * n > sum(nu) * du:
            return False
    return True


@pytest.mark.parametrize(
    "nu,q,e",
    [
        ((1, 1, 0), 3, 2), ((1, 0, 0, 0), 2, 2), ((2, 1, 0), 2, 2), ((1, 1, 0, 0), 2, 2),
        # one cut at a line or a hyperplane, weights other than 0/1 and n = 4
        ((5, 5, 2), 2, 3), ((3, 1, 1), 2, 3), ((1, 1, 1, 0), 2, 2),
        # last cuts n-2 and n-1: q = 3, n = 4, n = 2
        ((2, 1, 0), 3, 2), ((3, 2, 1, 0), 2, 1), ((3, 1), 3, 2),
        # a middle cut, and two cuts not ending at n-2 and n-1, in dimension 4
        ((1, 1, 0, 0), 3, 1), ((2, 1, 1, 0), 3, 1), ((2, 1, 0, 0), 3, 1), ((3, 2, 2, 0), 2, 1),
    ],
)
def test_period_count_matches_flagwise_slope_test(nu, q, e):
    fld = build_extension(q, e)
    flags = enumerate_flags(fld, len(nu), nu_jump_dims(nu))
    rational = _rational_subspace_rows(fld, len(nu), q)
    verdicts = [semistable(nu, fl, q) for fl in flags]
    assert period_point_count(nu, q, e) == sum(verdicts)
    assert verdicts == [_slope_oracle(nu, fl, rational) for fl in flags]


def _omega_closed_form(n, q, e):
    """Points off every GF(q)-rational hyperplane, by Moebius inversion over
    the lattice of rational subspaces:
    sum_k (-1)^(n-k) q^C(n-k,2) [n,k]_q q^(ek), divided by q^e - 1."""
    big = q**e
    total = sum(
        (-1) ** (n - k) * q ** comb(n - k, 2) * gaussian_binomial(n, k, q) * big**k
        for k in range(n + 1)
    )
    return total // (big - 1)


@pytest.mark.parametrize(
    "nu,q,e,count",
    [
        ((5, 5, 2), 2, 3, 24), ((3, 1, 1), 2, 3, 24), ((2, 1, 0), 3, 2, 702),
        # frozen from the walk that extended every rational U along every flag
        ((3, 2, 1, 0), 2, 2, 2240), ((2, 1, 1, 0), 2, 2, 1120), ((2, 2, 1, 0), 2, 2, 0),
        ((3, 3, 0, 0), 2, 2, 112),
    ],
)
def test_period_counts_frozen(nu, q, e, count):
    assert period_point_count(nu, q, e) == count


# past every flag walk: the counts come from the recursion alone
BIG_CAP = 10**30


def test_grassmannian_count_past_the_walks():
    # Gr(2,5) over GF(32) has 1,210,362,905,649 points
    assert period_point_count((1, 1, 0, 0, 0), 2, 5, cap=BIG_CAP) == 950_584_320


@pytest.mark.parametrize("n", [5, 6, 7, 8])
@pytest.mark.parametrize("e", [1, 2, 5, 12])
def test_drinfeld_cells_match_moebius_closed_form(n, e):
    count = _omega_closed_form(n, 2, e)
    assert period_point_count((1,) + (0,) * (n - 1), 2, e, cap=BIG_CAP) == count
    assert period_point_count((1,) * (n - 1) + (0,), 2, e, cap=BIG_CAP) == count


def test_period_count_is_invariant_under_duality_past_the_walks():
    rng = random.Random(3)
    nu = tuple(sorted((rng.randrange(4) for _ in range(6)), reverse=True))
    dual = tuple(nu[0] - x for x in reversed(nu))
    assert nu != dual
    for q, e in ((2, 3), (3, 3)):
        count = period_point_count(nu, q, e, cap=BIG_CAP)
        assert 0 < count < flag_count(6, nu_jump_dims(nu), q**e)
        assert period_point_count(dual, q, e, cap=BIG_CAP) == count


@pytest.mark.parametrize(
    "n,q,e,count", [(3, 2, 4, 168), (3, 2, 5, 840), (3, 3, 3, 432), (4, 2, 4, 1344)]
)
def test_coxeter_cell_matches_moebius_closed_form(n, q, e, count):
    assert _omega_closed_form(n, q, e) == count
    assert period_point_count((1,) + (0,) * (n - 1), q, e) == count
    assert period_point_count((1,) * (n - 1) + (0,), q, e) == count
    # GF(16)^4 has 20,276,529 complete flags, past the tally's default cap
    if flag_count(n, complete_dims(n), q**e) <= DEFAULT_CAP:
        assert dl_point_count(n, q, e, coxeter_perm(n)) == count


@pytest.mark.parametrize(
    "n,q,e", [(2, 3, 7), (2, 5, 5), (2, 7, 4), (3, 3, 3), (4, 2, 3)]
)
def test_omega_count_matches_moebius_closed_form(n, q, e):
    # through the oracle, GF(3^7), GF(5^5) and GF(7^4) add chunk by chunk
    count = omega_point_count(n, q, e)
    assert count == omega_by_points(n, q, e) == _omega_closed_form(n, q, e)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_omega_product_matches_moebius_closed_form_on_every_field(q):
    # every degree the field cap admits; a cell past BIG_CAP points is refused
    e = 1
    while q**e <= FIELD_CAP:
        big = q**e
        for n in range(2, 9):
            if (big**n - 1) // (big - 1) <= BIG_CAP:
                assert omega_point_count(n, q, e, cap=BIG_CAP) == _omega_closed_form(n, q, e)
            else:
                with pytest.raises(CapacityError):
                    omega_point_count(n, q, e, cap=BIG_CAP)
        e += 1


def test_omega_count_past_the_enumeration():
    # about 1.9 * 10^25 points of P^7(GF(2^12)) have x_1 = 1
    count = within(5, lambda: omega_point_count(8, 2, 12, cap=BIG_CAP))
    assert count == 18_167_718_822_006_802_486_394_880


def test_coxeter_count_past_the_walks():
    # GF(32)^5 has about 1.2 * 10^15 complete flags
    count = within(5, lambda: dl_point_count(5, 2, 5, coxeter_perm(5), cap=BIG_CAP))
    assert count == 322_560


@pytest.mark.parametrize("q", [2, 3])
def test_tally_matches_the_other_counts_on_every_field(q):
    # every n <= 5 and every degree with Q <= 2^16, the cap raised to the flag count
    for n in range(2, 6):
        e = 1
        while q**e <= 2**16:
            total = flag_count(n, complete_dims(n), q**e)
            tally = dl_point_tally(n, q, e, cap=total)
            assert sum(tally.values()) == total
            assert tally[tuple(range(n))] == flag_count(n, complete_dims(n), q)
            coxeter = tally.get(coxeter_perm(n), 0)
            assert coxeter == omega_point_count(n, q, e, cap=total)
            assert coxeter == period_point_count((1,) + (0,) * (n - 1), q, e, cap=total)
            e += 1


@pytest.mark.parametrize("n,q", [(3, 5), (3, 7), (4, 3)])
def test_tally_over_the_base_field_is_all_identity(n, q):
    # over GF(q) every flag is rational, and no zero count is kept
    assert dl_point_tally(n, q, 1) == {tuple(range(n)): flag_count(n, complete_dims(n), q)}


@pytest.mark.parametrize("q, e", [(257, 1), (17, 2)], ids=["prime_above_256", "two_chunks"])
def test_tally_through_the_general_add_step(q, e):
    # GF(257) adds mod p and GF(17^2) in two table chunks, so the oracle's
    # echelon step subtracts through Field.add rather than one add table
    size = q**e
    flagwise = Counter(
        relative_position(fl, frobenius_flag(fl, q))
        for fl in enumerate_flags(build_extension(q, e), 2, (1,))
    )
    assert flagwise == dl_point_tally(2, q, e)
    total = flag_count(3, complete_dims(3), size)
    tally = dl_point_tally(3, q, e, cap=total)
    assert sum(tally.values()) == total
    assert tally[(0, 1, 2)] == (q * q + q + 1) * (q + 1)  # the rational flags
    for s in ((1, 0, 2), (0, 2, 1)):
        assert tally.get(s, 0) == (q * q + q + 1) * (size - q)
    for coxeter in ((1, 2, 0), (2, 0, 1)):  # Moebius Omega is 0 for e < n
        assert coxeter not in tally
