import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
from homprop.perm import Permutation
from homprop.presentation import Presentation, homify_typed, theta_min
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
from homprop.term import (
    UNIT,
    GeneratorSymbol,
    Interlayer,
    Layer,
    LayeredMonomial,
    LinearTerm,
    Signature,
)

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
    back = term_from_json(data, p.signature)
    assert back == mono


def test_term_json_examples():
    sig = Signature((GeneratorSymbol("mu", 1, 2),))
    t = term_from_json(
        {"vcomp": [{"gen": "mu"}, {"tensor": [{"unit": True}, {"gen": "mu"}]}]},
        sig,
    )
    assert t.biarity == (1, 3)
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
    assert nary == nested


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


# ---------------------------------------------------------------------------
# Properties on generated layered monomials: units as factors, marks on
# gaps, permutation gaps, odd-degree and (0,1)/(1,0) generators.

PROPERTY_GENS = (
    GeneratorSymbol("mu", 1, 2),
    GeneratorSymbol("delta", 2, 1),
    GeneratorSymbol("alpha", 1, 1),
    GeneratorSymbol("odd", 1, 1, 1),
    GeneratorSymbol("odd3", 2, 1, 3),
    GeneratorSymbol("eps", 0, 1),
    GeneratorSymbol("eta", 1, 0, 1),
)
PROPERTY_SIG = Signature(PROPERTY_GENS)
PROPERTIES = settings(derandomize=True, max_examples=100, deadline=None, database=None)


def _out(f):
    return 1 if f is UNIT else f.out_arity


def _in(f):
    return 1 if f is UNIT else f.in_arity


@st.composite
def gaps(draw, width):
    images = draw(st.permutations(range(1, width + 1)))
    marks = draw(st.sets(st.integers(1, width))) if width else set()
    return Interlayer(Permutation(tuple(images)), tuple(sorted(marks)))


@st.composite
def rows(draw, width):
    """Factors with ``width`` outputs in all, at least one a generator (a
    row of units alone is a gap's marks, not a layer)."""
    factors, remaining = [], width
    while remaining or all(f is UNIT for f in factors):
        choices = [f for f in (UNIT,) + PROPERTY_GENS if _out(f) <= remaining
                   and (_out(f) or remaining == 0 or len(factors) <= width)]
        f = draw(st.sampled_from(choices))
        factors.append(f)
        remaining -= _out(f)
    return tuple(factors)


@st.composite
def layered_monomials(draw):
    width = draw(st.integers(0, 3))
    top = draw(gaps(width))
    layers = []
    for _ in range(draw(st.integers(0, 3))):
        factors = draw(rows(width))
        width = sum(_in(f) for f in factors)
        layers.append(Layer(factors, draw(gaps(width))))
    return LayeredMonomial(top, tuple(layers))


@st.composite
def presentations(draw):
    """Monomials with nonzero coefficients, one relation per biarity."""
    by_biarity = {}
    for m in draw(st.lists(layered_monomials(), min_size=1, max_size=6)):
        coef = draw(st.fractions(-5, 5, max_denominator=6).filter(bool))
        by_biarity.setdefault(m.biarity, []).append((coef, m))
    return Presentation(PROPERTY_SIG, tuple(LinearTerm(tuple(terms))
                                            for terms in by_biarity.values()))


@PROPERTIES
@given(layered_monomials())
def test_monomial_json_round_trip_property(m):
    assert term_from_json(term_to_json(m), PROPERTY_SIG) == m


@PROPERTIES
@given(presentations())
def test_presentation_json_round_trip_property(p):
    q = presentation_from_json(json.loads(dumps(presentation_to_json(p))))
    assert q == p
    assert q.unit_index == p.unit_index
