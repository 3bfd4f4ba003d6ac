import json
from fractions import Fraction

import pytest

from homprop.builtins import (
    AsVariant,
    SubgroupTag,
    a_infinity,
    as_g,
    as_variant,
    bialgebra,
    l_infinity,
    nambu,
    ybe,
)
from homprop.corpus import c2_bialgebra, dual_numbers, dual_numbers_beta, flip_ybe, sl2
from homprop.presentation import homify_typed, theta_min
from homprop.serialize import (
    ParseError,
    algebra_from_json,
    algebra_to_json,
    dumps,
    endomorphism_from_json,
    endomorphism_to_json,
    plan_from_json,
    plan_to_json,
    presentation_from_json,
    presentation_to_json,
    term_from_json,
    term_to_json,
)
from homprop.term import GeneratorSymbol, Signature, layerize

ALL_PRESENTATIONS = [
    as_g(SubgroupTag.E),
    as_g(SubgroupTag.S3),
    as_variant(AsVariant.II1)[0],
    as_variant(AsVariant.III)[0],
    nambu(2)[0],
    nambu(3)[0],
    bialgebra(),
    ybe(),
    a_infinity(3)[0],
    l_infinity(3)[0],
]


@pytest.mark.parametrize("p", ALL_PRESENTATIONS, ids=lambda p: ",".join(
    g.name for g in p.signature.generators))
def test_presentation_round_trip_exact(p):
    data = presentation_to_json(p)
    back = presentation_from_json(json.loads(dumps(data)))
    assert back.signature == p.signature
    assert back.relations == p.relations
    assert back.unit_index == p.unit_index  # label stability


def test_round_trip_of_homified():
    p = bialgebra()
    q = homify_typed(p, theta_min(p.labels))
    back = presentation_from_json(presentation_to_json(q))
    assert back.relations == q.relations


def test_term_round_trip_with_marks():
    p, _ = as_variant(AsVariant.II1)
    mono = p.relations[0].terms[0][1]
    data = term_to_json(mono)
    back = layerize(term_from_json(data, p.signature))
    assert back == mono


def test_term_json_examples():
    sig = Signature((GeneratorSymbol("mu", 1, 2),))
    t = term_from_json(
        {"vcomp": [{"gen": "mu"}, {"tensor": [{"unit": True}, {"gen": "mu"}]}]},
        sig,
    )
    assert layerize(t).biarity == (1, 3)
    with pytest.raises(ParseError):
        term_from_json({"gen": "nope"}, sig)
    with pytest.raises(ParseError):
        term_from_json({"wat": 1}, sig)


def test_nary_nodes_right_associate():
    sig = Signature((GeneratorSymbol("mu", 1, 2),))
    nary = term_from_json(
        {"tensor": [{"unit": True}, {"unit": True}, {"gen": "mu"}]}, sig
    )
    nested = term_from_json(
        {"tensor": [{"unit": True}, {"tensor": [{"unit": True}, {"gen": "mu"}]}]}, sig
    )
    assert layerize(nary) == layerize(nested)


def test_plan_round_trip():
    _, plan = nambu(3)
    back = plan_from_json(plan_to_json(plan))
    assert back == plan


def test_plan_without_names_gets_defaults():
    data = {"S": [1, 2], "theta": [[1, 2]]}
    plan = plan_from_json(data)
    assert plan.blocks == (("alpha", (1, 2)),)
    data = {"S": [1, 2], "theta": [[1], [2]]}
    plan = plan_from_json(data)
    assert plan.blocks == (("alpha_1", (1,)), ("alpha_2", (2,)))


@pytest.mark.parametrize("lam,p", [
    (dual_numbers(), as_g(SubgroupTag.E)),
    (sl2(), as_g(SubgroupTag.A3)),
    (c2_bialgebra(), bialgebra()),
    (flip_ybe(), ybe()),
])
def test_algebra_round_trip(lam, p):
    back = algebra_from_json(algebra_to_json(lam), p)
    assert back == lam


def test_algebra_missing_map_rejected():
    p = bialgebra()
    data = algebra_to_json(c2_bialgebra())
    del data["maps"]["delta"]
    with pytest.raises(ParseError):
        algebra_from_json(data, p)


def test_endomorphism_round_trip():
    beta = dual_numbers_beta(2)
    back = endomorphism_from_json(endomorphism_to_json(beta))
    assert back == beta


def test_rationals_as_strings():
    data = algebra_to_json(dual_numbers())
    assert data["maps"]["mu"][0][0] == "1"
    text = dumps(data)
    assert '"1"' in text


def test_dumps_stable():
    p = bialgebra()
    assert dumps(presentation_to_json(p)) == dumps(presentation_to_json(bialgebra()))


INEXACT_OR_MALFORMED = [0.1, 1.0, True, False, None, [1], "1/0", "one"]


@pytest.mark.parametrize("bad", INEXACT_OR_MALFORMED, ids=repr)
def test_matrix_entries_must_be_exact_rationals(bad):
    data = endomorphism_to_json(dual_numbers_beta(2))
    data["matrix"][0][1] = bad
    with pytest.raises(ParseError):
        endomorphism_from_json(data)


@pytest.mark.parametrize("bad", INEXACT_OR_MALFORMED, ids=repr)
def test_algebra_entries_must_be_exact_rationals(bad):
    data = algebra_to_json(dual_numbers())
    data["maps"]["mu"][1][2] = bad
    with pytest.raises(ParseError):
        algebra_from_json(data, as_g(SubgroupTag.E))


@pytest.mark.parametrize("bad", INEXACT_OR_MALFORMED, ids=repr)
def test_presentation_coefficients_must_be_exact_rationals(bad):
    data = presentation_to_json(as_g(SubgroupTag.E))
    data["relations"][0][1]["coef"] = bad
    with pytest.raises(ParseError):
        presentation_from_json(data)


def test_matrix_rows_must_be_lists():
    data = endomorphism_to_json(dual_numbers_beta(2))
    data["matrix"][0] = "20"
    with pytest.raises(ParseError):
        endomorphism_from_json(data)


def test_integers_and_rational_strings_are_exact():
    data = endomorphism_to_json(dual_numbers_beta(2))
    data["matrix"] = [[2, "0"], [" -3/6 ", 1]]
    beta = endomorphism_from_json(data)
    assert beta.entries == ((Fraction(2), Fraction(0)), (Fraction(-1, 2), Fraction(1)))
