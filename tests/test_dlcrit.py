import json
import random
from fractions import Fraction as Q

import pytest

from dlperiod import UsageError
from dlperiod.conjclass import GPDatum, gp_element, gp_enumerate
from dlperiod.dlcrit import (
    build_criterion_system,
    check_dl_criterion,
    gp_witness,
    report_payload,
    scan_gp,
)
from dlperiod.feaslin import form_label, verify_witness
from dlperiod.rootsys import build_root_system
from dlperiod.weyl import (
    enumerate_group,
    from_word,
    identity_elem,
    inverse,
    reduced_word,
    word_names,
)

G2_Q2_INFEASIBLE = {("s1", "s2", "s1"), ("s2", "s1", "s2")}


def test_identity_criterion_forms():
    rs = build_root_system("A", 2)
    e = identity_elem(rs)
    sys_full = build_criterion_system(e, 3, "full_D")
    # no inversions: only the scaling forms (q-1)*alpha remain
    labels = [f.label for f in sys_full.forms]
    assert all(l.startswith("crit:") for l in labels)
    assert len(labels) == 2
    rep = check_dl_criterion(e, 3, "full_D")
    assert rep.result.feasible


def test_form_counts_and_labels():
    rs = build_root_system("A", 2)
    w = from_word(rs, "s1")
    sys_ = build_criterion_system(w, 2, "full_D")
    labels = [f.label for f in sys_.forms]
    assert sum(l.startswith("inv:") for l in labels) == 1  # one inversion
    assert sum(l.startswith("crit:") for l in labels) == 2
    sys_c = build_criterion_system(w, 2, "chamber_C")
    labels_c = [f.label for f in sys_c.forms]
    assert sum(l.startswith("base:") for l in labels_c) == 2
    with pytest.raises(UsageError):
        build_criterion_system(w, 1, "full_D")
    with pytest.raises(UsageError):
        build_criterion_system(w, 2, "everything")


def test_g2_boundary_frozen():
    rs = build_root_system("G", 2)
    for q in (2, 3, 4, 5):
        infeasible = set()
        for w in enumerate_group(rs):
            rep = check_dl_criterion(w, q, "full_D")
            if not rep.result.feasible:
                infeasible.add(word_names(rs, reduced_word(w)))
        if q == 2:
            assert infeasible == G2_Q2_INFEASIBLE
        else:
            assert infeasible == set(), q


def test_chamber_implies_full():
    rs = build_root_system("B", 3, "paper5")
    for w in enumerate_group(rs):
        c = check_dl_criterion(w, 2, "chamber_C")
        if c.result.feasible:
            f = check_dl_criterion(w, 2, "full_D")
            assert f.result.feasible, w.word


def test_paper5_words_get_standard_chamber():
    # the criterion must not depend on which presentation built the element
    b5 = build_root_system("B", 2, "paper5")
    b = build_root_system("B", 2)
    w5 = from_word(b5, "t s1")
    # same matrix, standard profile
    w = next(x for x in enumerate_group(b) if x.matrix == w5.matrix)
    r5 = check_dl_criterion(w5, 2, "full_D")
    r = check_dl_criterion(w, 2, "full_D")
    assert r5.result.feasible == r.result.feasible
    assert {f.coeffs for f in r5.system.forms} == {f.coeffs for f in r.system.forms}


def test_standard_twin_word_is_valid_in_its_own_generators():
    # t is the reflection in e1, which is s1 s2 s3 s2 s1 in the standard profile
    r = check_dl_criterion(from_word(build_root_system("B", 3, "paper5"), "t"), 2)
    assert r.w == from_word(build_root_system("B", 3), "s1 s2 s3 s2 s1")
    for kind, rank in [("B", 3), ("D", 4)]:
        for w in enumerate_group(build_root_system(kind, rank, "paper5")):
            rw = check_dl_criterion(w, 2).w
            assert rw.rs.profile == "bourbaki" and rw.perm == w.perm
            assert from_word(rw.rs, word_names(rw.rs, rw.word)) == rw, (kind, w.word)


def test_recipe_witnesses_frozen():
    assert gp_witness(GPDatum("A", 3, (3,), (1,)), 2) == (Q(1), Q(5, 6), Q(2, 3))
    assert gp_witness(GPDatum("B", 2, (2,), (-1,)), 2) == (Q(1), Q(3, 4))


def test_recipe_witness_beats_naive_point():
    d = GPDatum("B", 2, (2,), (-1,))
    sys_ = build_criterion_system(gp_element(d), 2, "chamber_C")
    assert verify_witness(sys_, gp_witness(d, 2))
    # a generic dominant point does not satisfy the criterion here
    assert not verify_witness(sys_, (Q(4), Q(1)))


def test_recipe_witnesses_validate_across_kinds_and_q():
    for kind, rank in [("A", 4), ("B", 3), ("D", 4)]:
        for d in gp_enumerate(kind, rank):
            for q in (2, 3, 7):
                x = gp_witness(d, q)
                sys_ = build_criterion_system(gp_element(d), q, "chamber_C")
                assert verify_witness(sys_, x), (str(d), q)


def test_scan_gp_shapes():
    res = scan_gp("B", 2, 2)
    assert res.all_pass and len(res.entries) == 6
    assert [str(e.datum) for e in res.entries] == [str(d) for d in gp_enumerate("B", 2)]
    for e in res.entries:
        assert e.report.result.feasible
        assert e.report.result.witness is not None
    res3 = scan_gp("D", 4, 3)
    assert res3.all_pass and len(res3.entries) == 54


def test_q_and_mode_messages():
    d = gp_enumerate("A", 2)[0]
    modes = "('full_D', 'chamber_C')"
    cases = [
        (lambda: scan_gp("A", 2, 2, "everything"), f"mode must be one of {modes}, got 'everything'"),
        (lambda: scan_gp("A", 2, 1), "q must be an integer >= 2, got 1"),
        (lambda: gp_witness(d, 1), "q must be an integer >= 2, got 1"),
        (lambda: build_criterion_system(gp_element(d), 2.0), "q must be an integer >= 2, got 2.0"),
    ]
    for call, msg in cases:
        with pytest.raises(UsageError) as err:
            call()
        assert str(err.value) == msg


def test_report_payload_is_json_ready():
    rs = build_root_system("G", 2)
    rep = check_dl_criterion(from_word(rs, "s1 s2 s1"), 2, "full_D")
    payload = report_payload(rep)
    text = json.dumps(payload, sort_keys=True)
    assert '"feasible": false' in text
    assert payload["certificate"] is not None
    rep2 = check_dl_criterion(from_word(rs, "s1"), 2, "full_D")
    payload2 = report_payload(rep2)
    assert payload2["witness"] is not None
    assert json.dumps(payload2, sort_keys=True) == json.dumps(
        report_payload(check_dl_criterion(from_word(rs, "s1"), 2, "full_D")),
        sort_keys=True,
    )


def _image(matrix, root):
    return tuple(sum((m * x for m, x in zip(row, root) if m and x), Q(0)) for row in matrix)


def _recipe_forms(w):
    """Criterion forms of w from their definition, in Fractions: a map from
    (q, mode) to the (label prefix, labelled root, coeffs) of each form.
    The region is the standard positive roots that w makes negative
    (full_D) or the standard simple roots (chamber_C); each crit form is
    q*alpha - w^{-1}(alpha)."""
    std = build_root_system(w.rs.kind, w.rs.rank)
    positive, wm, winv = set(std.positive_roots), w.matrix, inverse(w).matrix
    region = {
        "full_D": [("inv:", b, b) for b in std.positive_roots if _image(wm, b) not in positive],
        "chamber_C": [("base:", a, a) for a in std.simple_roots],
    }
    pulled = [(a, _image(winv, a)) for a in std.simple_roots]
    return lambda q, mode: region[mode] + [
        ("crit:", a, tuple(q * x - y for x, y in zip(a, b))) for a, b in pulled
    ]


def test_forms_match_their_definition():
    # seeded words in every kind, both profiles where defined, including the
    # half-integer roots of E and F and the G2 model
    rng = random.Random(6)
    cells = ([("A", r) for r in range(1, 9)] + [("B", r) for r in (2, 3, 5)]
             + [("C", r) for r in (3, 4)] + [("D", r) for r in (4, 5)]
             + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
    for kind, rank in cells:
        for profile in ("bourbaki", "paper5") if kind in "ABD" else ("bourbaki",):
            rs = build_root_system(kind, rank, profile)
            for _ in range(3):
                word = [rng.randint(1, rank) for _ in range(rng.randint(0, 3 * rank))]
                w = from_word(rs, word)
                recipe = _recipe_forms(w)
                for q in (2, 3, 5):
                    for mode in ("full_D", "chamber_C"):
                        forms = build_criterion_system(w, q, mode).forms
                        expected = recipe(q, mode)
                        where = (kind, rank, profile, word, q, mode)
                        assert len(forms) == len(expected), where
                        for f, (prefix, root, coeffs) in zip(forms, expected):
                            assert f.coeffs == coeffs, where
                            assert f.label == prefix + form_label(root), where
