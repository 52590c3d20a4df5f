import random
from fractions import Fraction as Q

import pytest

from _oracles import ray_feasible
from dlperiod import UsageError
from dlperiod.dlcrit import MODES, build_criterion_system
from dlperiod.feaslin import (
    FeasibilityResult,
    LinearForm,
    StrictSystem,
    form_label,
    strict_feasible,
    strict_system,
    verify_certificate,
    verify_witness,
)
from dlperiod.rootsys import build_root_system
from dlperiod.weyl import from_word


def decide(rows):
    return strict_feasible(strict_system(rows))


def test_one_dimensional():
    r = decide([(1,)])
    assert r.feasible and r.witness[0] > 0
    r = decide([(1,), (-1,)])
    assert not r.feasible
    assert verify_certificate(strict_system([(1,), (-1,)]), r.certificate)


def test_chain_and_gordan():
    r = decide([(1, -1, 0), (0, 1, -1), (0, 0, 1)])
    assert r.feasible
    x = r.witness
    assert x[0] > x[1] > x[2] > 0
    r = decide([(1, 1), (-1, 0), (0, -1)])
    assert not r.feasible
    y = r.certificate
    assert all(c >= 0 for c in y) and any(c > 0 for c in y)


def test_zero_form_is_instantly_infeasible():
    r = decide([(0, 0), (1, 1)])
    assert not r.feasible
    # certificate puts all weight on the zero form
    assert r.certificate[0] > 0 and r.certificate[1] == 0


def test_empty_system_is_feasible():
    r = strict_feasible(StrictSystem(()))
    assert r.feasible and r.witness == ()


def test_input_validation():
    with pytest.raises(UsageError):
        strict_system([(1, 0), (1, 0, 0)])  # mixed dimensions
    with pytest.raises(UsageError):
        strict_system([()])



def test_system_messages():
    for rows, msg in [([(1, 0), (1, 0, 0)], "mixed form dimensions in system: [2, 3]"),
                      ([()], "zero-dimensional forms")]:
        with pytest.raises(UsageError) as err:
            strict_system(rows)
        assert str(err.value) == msg


def test_results_are_read_only():
    r = FeasibilityResult(feasible=True, witness=(1,))
    with pytest.raises(AttributeError):
        r.feasible = False
    assert r == FeasibilityResult(True, (1,), None)


def test_accepts_linear_forms_and_fractions():
    forms = [LinearForm((3, -2), 6), (Q(1, 2), Q(-1, 3)), (0, 1)]
    sys_ = strict_system(forms)
    assert sys_.dim == 2
    assert [(f.num, f.den) for f in sys_.forms] == [((3, -2), 6)] * 2 + [((0, 1), 1)]
    r = strict_feasible(sys_)
    assert r.feasible
    assert verify_witness(sys_, r.witness)


def test_form_coefficients_and_labels():
    f = LinearForm((3, -2), 6)
    assert f.coeffs == (Q(1, 2), Q(-1, 3))
    assert f.label == "1/2*x1 - 1/3*x2"
    # the label may name another vector over the same denominator
    assert LinearForm((3, -2), 6, "crit:", (2, 0)).label == "crit:1/3*x1"
    assert repr(LinearForm((3, -2), 6, "crit:", (2, 0))) == (
        "LinearForm(coeffs=(Fraction(1, 2), Fraction(-1, 3)), label='crit:1/3*x1')"
    )
    assert LinearForm((1, 1, 0, 0), 1, "base:").label == "base:x1 + x2"
    assert LinearForm((0, 0)).label == "0"
    assert form_label((Q(2), Q(0), Q(-1, 2))) == "2*x1 - 1/2*x3"


def test_witness_is_integral():
    r = decide([(2, -3), (0, 1)])
    assert r.feasible
    assert all(x.denominator == 1 for x in r.witness)


def test_determinism():
    rows = [(1, -2, 1), (0, 1, -1), (-1, 3, 0), (0, 0, 1)]
    a = strict_feasible(strict_system(rows))
    b = strict_feasible(strict_system(rows))
    assert a.feasible == b.feasible and a.witness == b.witness


def test_verifiers_reject_garbage():
    sys_ = strict_system([(1, 0), (0, 1)])
    assert not verify_witness(sys_, (Q(1), Q(-1)))
    assert not verify_certificate(sys_, (Q(1), Q(0)))  # combo is not zero
    assert not verify_certificate(sys_, (Q(0), Q(0)))  # must be nonzero
    bad = strict_system([(1, 0), (-1, 0)])
    assert verify_certificate(bad, (Q(1), Q(1)))
    assert not verify_certificate(bad, (Q(-1), Q(1)))


def test_verifier_contract():
    # ints and Fractions with denominators, up to positive rescaling
    sys_ = strict_system([(Q(1, 2), Q(-1, 3)), (0, 1)])
    for x in [(2, 1), (Q(1), Q(1, 2)), (Q(2, 7), Q(1, 7)), (6, Q(3))]:
        assert verify_witness(sys_, x), x
        assert not verify_witness(sys_, tuple(-c for c in x)), x
    for x in [(1, 2), (Q(1, 3), Q(2, 3)), (0, 0), (1, -1)]:
        assert not verify_witness(sys_, x), x
    assert not verify_witness(sys_, (2,))
    assert not verify_witness(sys_, (2, 1, 0))
    # a certificate over forms with different denominators
    pair = strict_system([(Q(1, 2), Q(-1, 3)), (-3, 2)])
    for y in [(6, 1), (Q(6), Q(1)), (Q(3, 5), Q(1, 10)), (12, 2)]:
        assert verify_certificate(pair, y), y
        assert not verify_certificate(pair, tuple(-c for c in y)), y
    for y in [(5, 1), (Q(5, 2), Q(1, 2)), (1, 0), (0, 0)]:
        assert not verify_certificate(pair, y), y
    assert not verify_certificate(pair, (6,))
    assert not verify_certificate(pair, (6, 1, 0))


def test_random_systems_against_ray_oracle():
    rng = random.Random(7)
    agree_f = agree_i = 0
    for _ in range(400):
        d = rng.randint(1, 4)
        m = rng.randint(1, 8)
        rows = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(m)]
        sys_ = strict_system(rows)
        res = strict_feasible(sys_)
        if res.feasible:
            assert verify_witness(sys_, res.witness), rows
            agree_f += 1
        else:
            assert verify_certificate(sys_, res.certificate), rows
            agree_i += 1
        assert res.feasible == ray_feasible(rows), rows
    # the corpus should exercise both outcomes heavily
    assert agree_f > 100 and agree_i > 100


def test_pruning_counterexample_is_infeasible_with_certificate():
    # the zero form certifying infeasibility is lost by Chernikov pruning
    # applied to the homogeneous strict system
    rows = [(1, 3, -1, 3), (2, 0, 2, -3), (3, -2, 2, 1),
            (-2, 2, -2, 0), (-2, 2, 1, -1), (-2, -3, -1, -3)]
    sys_ = strict_system(rows)
    res = strict_feasible(sys_)
    assert not res.feasible and not ray_feasible(rows)
    assert verify_certificate(sys_, res.certificate)


def test_criterion_corpus_is_decided_and_verified():
    # seeded long words in large groups, both modes, q in {2, 4}
    rng = random.Random(2024)
    outcomes = {True: 0, False: 0}
    cells = [("B", 6, "bourbaki", 16), ("B", 6, "paper5", 16),
             ("D", 6, "bourbaki", 16), ("D", 6, "paper5", 16), ("E", 8, "bourbaki", 30)]
    for kind, rank, profile, max_len in cells:
        rs = build_root_system(kind, rank, profile)
        for _ in range(20):
            word = [rng.randint(1, rank) for _ in range(rng.randint(1, max_len))]
            w = from_word(rs, word)
            for q in (2, 4):
                for mode in MODES:
                    sys_ = build_criterion_system(w, q, mode)
                    res = strict_feasible(sys_)
                    if res.feasible:
                        assert verify_witness(sys_, res.witness), (kind, profile, word, q, mode)
                    else:
                        assert verify_certificate(sys_, res.certificate), (kind, profile, word, q, mode)
                    outcomes[res.feasible] += 1
    assert outcomes[True] > 0 and outcomes[False] > 0, outcomes
