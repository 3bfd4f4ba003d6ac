import random
from fractions import Fraction

import pytest

from homprop import presentation
from homprop.builtins import (
    AsVariant,
    SubgroupTag,
    as_g,
    as_variant,
    associativity,
    bialgebra,
    builtin,
    generalized_bialgebra_plan,
    nambu,
    ybe,
)
from homprop.graphprop import DecoratedGraph
from homprop.presentation import (
    HomPlan,
    NameCollision,
    PlanError,
    Presentation,
    apply_substitution_to_relations,
    homify_multiplicative,
    homify_typed,
    is_normal,
    presentation_matches,
    projection_pi,
    relations_match,
    simplify_relation,
    theta_max,
    theta_min,
)
from homprop.term import (
    Gen,
    GeneratorSymbol,
    LinearTerm,
    Signature,
    Tensor,
    UnitLeaf,
    linear_term,
    tensor,
    vcomp,
)

MU = GeneratorSymbol("mu", 1, 2)
DELTA = GeneratorSymbol("delta", 2, 1)
ALPHA = GeneratorSymbol("alpha", 1, 1)


def hom_associativity_reference():
    """mu . (mu (x) alpha) - mu . (alpha (x) mu), built by hand."""
    return linear_term([
        (1, vcomp(Gen(MU), Tensor(Gen(MU), Gen(ALPHA)))),
        (-1, vcomp(Gen(MU), Tensor(Gen(ALPHA), Gen(MU)))),
    ])


def test_theta_min_max():
    plan = theta_min((1, 2))
    assert plan.blocks == (("alpha", (1, 2)),)
    plan = theta_max((1, 2))
    assert plan.blocks == (("alpha_1", (1,)), ("alpha_2", (2,)))
    with pytest.raises(PlanError):
        theta_min(())


def test_plan_validation():
    with pytest.raises(PlanError):
        HomPlan((1, 2), (("a", (1,)),))  # does not cover S
    with pytest.raises(PlanError):
        HomPlan((1, 2), (("a", (1, 2)), ("b", (2,))))  # overlap
    with pytest.raises(PlanError):
        HomPlan((1,), (("a", ()), ("b", (1,))))  # empty block


def test_homify_typed_as_gives_hom_associativity():
    p = associativity()
    q = homify_typed(p, theta_min(p.labels))
    assert [g.name for g in q.signature.generators] == ["mu", "alpha"]
    assert len(q.relations) == 1
    assert relations_match(q.relations[0], hom_associativity_reference())
    # exact equality too: the canonical forms coincide
    assert q.relations[0] == hom_associativity_reference()


def test_homify_multiplicative_as():
    p = associativity()
    q = homify_multiplicative(p)
    assert q.kind == "multiplicative"
    assert [g.name for g in q.signature.generators] == ["mu", "alpha"]
    assert len(q.relations) == 2
    compat_ref = linear_term([
        (1, vcomp(Gen(MU), Tensor(Gen(ALPHA), Gen(ALPHA)))),
        (-1, vcomp(Gen(ALPHA), Gen(MU))),
    ])
    assert relations_match(q.relations[0], compat_ref)
    assert relations_match(q.relations[1], hom_associativity_reference())


def test_homify_multiplicative_ybe_is_hybe():
    p = ybe()
    q = homify_multiplicative(p)
    b = p.signature["braiding"]
    alpha = q.signature["alpha"]
    compat_ref = linear_term([
        (1, vcomp(Gen(b), Tensor(Gen(alpha), Gen(alpha)))),
        (-1, vcomp(Tensor(Gen(alpha), Gen(alpha)), Gen(b))),
    ])
    assert relations_match(q.relations[0], compat_ref)
    hybe_ref = linear_term([
        (1, vcomp(
            Tensor(Gen(alpha), Gen(b)),
            Tensor(Gen(b), Gen(alpha)),
            Tensor(Gen(alpha), Gen(b)),
        )),
        (-1, vcomp(
            Tensor(Gen(b), Gen(alpha)),
            Tensor(Gen(alpha), Gen(b)),
            Tensor(Gen(b), Gen(alpha)),
        )),
    ])
    assert relations_match(q.relations[1], hybe_ref)


def test_homify_multiplicative_no_units():
    # A presentation whose single relation has no units: only compatibility
    # relations are added.
    braiding = GeneratorSymbol("braiding", 2, 2)
    rel = linear_term([
        (1, vcomp(Gen(braiding), Gen(braiding))),
        (-1, PermLeaf_id2()),
    ])
    p = Presentation(Signature((braiding,)), (rel,))
    q = homify_multiplicative(p)
    assert len(q.relations) == 2
    assert q.relations[1] == rel


def PermLeaf_id2():
    from homprop.perm import identity
    from homprop.term import PermLeaf

    return PermLeaf(identity(2))


def test_homify_name_collision():
    p = Presentation(
        Signature((MU, GeneratorSymbol("alpha", 1, 1))),
        (linear_term([(1, Gen(MU))]),),
    )
    with pytest.raises(NameCollision):
        homify_multiplicative(p)


def test_homify_typed_bialgebra_generalized():
    p = bialgebra()
    q = homify_typed(p, generalized_bialgebra_plan())
    a1 = q.signature["alpha_1"]
    a2 = q.signature["alpha_2"]
    hom_as = linear_term([
        (1, vcomp(Gen(MU), Tensor(Gen(MU), Gen(a1)))),
        (-1, vcomp(Gen(MU), Tensor(Gen(a1), Gen(MU)))),
    ])
    hom_coas = linear_term([
        (1, vcomp(Tensor(Gen(DELTA), Gen(a2)), Gen(DELTA))),
        (-1, vcomp(Tensor(Gen(a2), Gen(DELTA)), Gen(DELTA))),
    ])
    assert relations_match(q.relations[0], hom_as)
    assert relations_match(q.relations[1], hom_coas)
    assert q.relations[2] == p.relations[2]  # compatibility untouched


def test_homify_typed_ii1_matches_displayed_relation():
    p, plan = as_variant(AsVariant.II1)
    q = homify_typed(p, plan)
    alpha = q.signature["alpha"]
    ref = linear_term([
        (1, vcomp(
            Gen(MU),
            Tensor(Gen(MU), UnitLeaf()),
            tensor(Gen(alpha), Gen(alpha), UnitLeaf()),
        )),
        (-1, vcomp(
            Gen(MU),
            Tensor(UnitLeaf(), Gen(MU)),
            tensor(UnitLeaf(), Gen(alpha), Gen(alpha)),
        )),
    ])
    assert relations_match(q.relations[0], ref)


def test_homify_typed_iii_matches_displayed_relation():
    p, plan = as_variant(AsVariant.III)
    q = homify_typed(p, plan)
    alpha = q.signature["alpha"]
    ref = linear_term([
        (1, vcomp(Gen(alpha), Gen(MU), Tensor(Gen(MU), UnitLeaf()))),
        (-1, vcomp(Gen(alpha), Gen(MU), Tensor(UnitLeaf(), Gen(MU)))),
    ])
    assert relations_match(q.relations[0], ref)


def test_homify_typed_theta_max_one_alpha_per_unit():
    p = associativity()
    q = homify_typed(p, theta_max(p.labels))
    names = [g.name for g in q.signature.generators]
    assert names == ["mu", "alpha_1", "alpha_2"]


def test_typed_theta_min_equals_multiplicative_replacement_part():
    for p in (associativity(), bialgebra(), ybe(), as_g(SubgroupTag.A3)):
        q_typed = homify_typed(p, theta_min(p.labels))
        q_mult = homify_multiplicative(p)
        n_compat = len(p.signature.generators)
        assert q_typed.relations == q_mult.relations[n_compat:]


def test_projection_pi_round_trip_typed():
    for p in (associativity(), as_g(SubgroupTag.A3), bialgebra(), ybe(), nambu(2)[0]):
        for plan in (theta_min(p.labels), theta_max(p.labels)):
            q = homify_typed(p, plan)
            sub = projection_pi(q, "pi")
            projected = apply_substitution_to_relations(q.relations, sub)
            assert len(projected) == len(p.relations)
            for got, want in zip(projected, p.relations):
                assert relations_match(got, want)


def test_projection_pi2_round_trip_multiplicative():
    for p in (associativity(), ybe(), bialgebra()):
        q = homify_multiplicative(p)
        sub = projection_pi(q, "pi2")
        projected = apply_substitution_to_relations(q.relations, sub)
        n_compat = len(p.signature.generators)
        for rel in projected[:n_compat]:
            assert simplify_relation(rel) is None  # x . 1 - 1 . x collapses
        for got, want in zip(projected[n_compat:], p.relations):
            assert relations_match(got, want)


def test_projection_pi1_needs_full_coverage():
    p, plan = as_variant(AsVariant.II1)
    q = homify_typed(p, plan)
    with pytest.raises(PlanError):
        projection_pi(q, "pi1")


def test_projection_pi1_reaches_multiplicative_relations():
    p = associativity()
    q = homify_typed(p, theta_max(p.labels))
    sub = projection_pi(q, "pi1")
    projected = apply_substitution_to_relations(q.relations, sub)
    q_mult = homify_multiplicative(p)
    assert relations_match(projected[0], q_mult.relations[1])


def test_is_normal_builtins():
    assert is_normal(associativity()).degrees() == (2,)
    assert is_normal(ybe()).degrees() == (3,)
    assert is_normal(bialgebra()).degrees() == (2, 2, 2)


def test_is_normal_counterexample():
    # A degree-1 monomial minus a degree-2 monomial of the same biarity;
    # a ternary generator stands in for the single-layer side.
    nu = GeneratorSymbol("nu", 1, 3)
    rel = linear_term([
        (1, Gen(nu)),
        (-1, vcomp(Gen(MU), Tensor(Gen(MU), UnitLeaf()))),
    ])
    p = Presentation(Signature((MU, nu)), (rel,))
    report = is_normal(p)
    assert not report.all_normal()
    entry = report.entries[0]
    assert not entry.homogeneous
    assert entry.witness == ((0, 1), (1, 2))


def test_presentation_matches_with_rename():
    p = associativity()
    q_typed = homify_typed(p, theta_min(p.labels, name="twister"))
    q_ref = homify_typed(p, theta_min(p.labels))
    assert presentation_matches(q_typed, q_ref, rename={"twister": "alpha"})


def _shuffled(p: Presentation, rng: random.Random) -> Presentation:
    """Relation and monomial order shuffled, and every relation rescaled."""
    rels = []
    for rel in p.relations:
        terms = list(rel.terms)
        rng.shuffle(terms)
        rels.append(LinearTerm(tuple(terms)).scaled(Fraction(rng.choice((-2, 1, 3)), 5)))
    rng.shuffle(rels)
    return Presentation(p.signature, tuple(rels))


def test_presentation_matches_out_of_stored_order():
    p, _ = builtin("ainf:4")
    rng = random.Random(5)
    shuffled = _shuffled(p, rng)
    assert shuffled.relations != p.relations
    assert presentation_matches(shuffled, p)
    assert presentation_matches(p, shuffled)

    # One coefficient's sign flipped: no relation of p is proportional to it.
    rels = list(shuffled.relations)
    r = next(i for i, rel in enumerate(rels) if len(rel.terms) >= 2)
    (c, m), *rest = rels[r].terms
    rels[r] = LinearTerm(((-c, m), *rest))
    flipped = Presentation(p.signature, tuple(rels))
    assert not presentation_matches(flipped, p)
    assert not presentation_matches(p, flipped)


def test_presentation_matches_counts_multiplicity():
    p, _ = builtin("ainf:4")
    first, second, *rest = p.relations
    assert not relations_match(first, second)
    doubled = Presentation(p.signature, (first, first, *rest))
    assert not presentation_matches(doubled, p)
    assert not presentation_matches(p, doubled)


def test_linf5_round_trip_builds_one_graph_per_monomial(monkeypatch):
    p, _ = builtin("linf:5")
    q = homify_typed(p, theta_max(p.labels))
    back = Presentation(p.signature, apply_substitution_to_relations(
        q.relations, projection_pi(q, "pi")))
    built, lowered = [], []
    validate = DecoratedGraph.__post_init__
    lower = presentation.term_to_graph

    def counting_validate(self):
        built.append(self)
        validate(self)

    def counting_lower(mono):
        lowered.append(mono)
        return lower(mono)

    monkeypatch.setattr(DecoratedGraph, "__post_init__", counting_validate)
    monkeypatch.setattr(presentation, "term_to_graph", counting_lower)
    assert presentation_matches(back, p)
    assert len(lowered) > 0
    assert len(built) == len(lowered)  # no intermediate graphs


def test_unit_index_recomputed_on_homified():
    p = associativity()
    q = homify_typed(p, theta_min(p.labels))
    assert q.unit_index == ()  # every unit was replaced
    p2, plan2 = as_variant(AsVariant.II1)
    q2 = homify_typed(p2, plan2)
    assert len(q2.unit_index) == 4  # the four untouched units remain
