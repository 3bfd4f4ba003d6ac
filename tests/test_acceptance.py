"""Acceptance suite: each test pins one shipped guarantee at its exact
tolerance (which is everywhere exact equality; the arithmetic is rational).
Every test prints a single PASS line on success, so a verbose run reads as
a checklist."""
import random
from fractions import Fraction

from homprop.algebra import check_algebra, eval_term, structure_map
from homprop.builtins import (
    AsVariant,
    SubgroupTag,
    a_infinity,
    as_g,
    as_variant,
    associativity,
    bialgebra,
    frozen_sign_offset,
    generalized_bialgebra_plan,
    l_infinity,
    nambu,
    ybe,
)
from homprop.corpus import SL2_SPACE, corpus, sl2, sl2_beta, sl2_gamma
from homprop.linalg import (
    GradedSpace,
    compose,
    identity_map,
    interchange_sign,
    inverse_map,
    make_map,
    maps_equal,
    matrix_power,
    tensor,
    zero_map,
)
from homprop.presentation import (
    Presentation,
    apply_substitution_to_relations,
    homify_multiplicative,
    homify_typed,
    is_normal,
    projection_pi,
    relations_match,
    simplify_relation,
    theta_max,
    theta_min,
)
from homprop.term import GeneratorSymbol, Signature
from homprop.twist import conjugacy_invariant, derived_sequence, iso_witness_check, twist, yau_twist

from oracles import Gen, Tensor, UnitLeaf, linear_term, tensor_degrees, vcomp


def report(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def test_criterion_1_unit_counts():
    expected_as = {
        SubgroupTag.E: 2,
        SubgroupTag.ID_12: 4,
        SubgroupTag.A3: 6,
        SubgroupTag.S3: 12,
    }
    for tag, count in expected_as.items():
        assert len(as_g(tag).unit_index) == count
    assert len(bialgebra().unit_index) == 4
    for n, count in ((2, 3), (3, 8), (4, 15)):
        p, _ = nambu(n)
        assert len(p.unit_index) == count
        assert count == (n + 1) * (n - 1)
    report(1, "unit-count reproduction")


def test_criterion_2_homification_fidelity():
    mu = GeneratorSymbol("mu", 1, 2)
    delta = GeneratorSymbol("delta", 2, 1)
    alpha = GeneratorSymbol("alpha", 1, 1)

    p = associativity()
    q = homify_typed(p, theta_min(p.labels))
    hom_as = linear_term([
        (1, vcomp(Gen(mu), Tensor(Gen(mu), Gen(alpha)))),
        (-1, vcomp(Gen(mu), Tensor(Gen(alpha), Gen(mu)))),
    ])
    assert len(q.relations) == 1
    assert relations_match(q.relations[0], hom_as)

    p2, plan2 = as_variant(AsVariant.II1)
    q2 = homify_typed(p2, plan2)
    from oracles import tensor as tensor_term
    ii1_ref = linear_term([
        (1, vcomp(Gen(mu), Tensor(Gen(mu), UnitLeaf()),
                  tensor_term(Gen(alpha), Gen(alpha), UnitLeaf()))),
        (-1, vcomp(Gen(mu), Tensor(UnitLeaf(), Gen(mu)),
                   tensor_term(UnitLeaf(), Gen(alpha), Gen(alpha)))),
    ])
    assert relations_match(q2.relations[0], ii1_ref)

    p3 = bialgebra()
    q3 = homify_typed(p3, generalized_bialgebra_plan())
    a1 = q3.signature["alpha_1"]
    a2 = q3.signature["alpha_2"]
    hom_as_1 = linear_term([
        (1, vcomp(Gen(mu), Tensor(Gen(mu), Gen(a1)))),
        (-1, vcomp(Gen(mu), Tensor(Gen(a1), Gen(mu)))),
    ])
    hom_coas_2 = linear_term([
        (1, vcomp(Tensor(Gen(delta), Gen(a2)), Gen(delta))),
        (-1, vcomp(Tensor(Gen(a2), Gen(delta)), Gen(delta))),
    ])
    assert relations_match(q3.relations[0], hom_as_1)
    assert relations_match(q3.relations[1], hom_coas_2)
    assert relations_match(q3.relations[2], p3.relations[2])
    report(2, "hom-ification fidelity")


def test_criterion_3_normality():
    families = {
        "as-g": [as_g(t) for t in SubgroupTag],
        "variants": [as_variant(AsVariant.II1)[0], as_variant(AsVariant.III)[0]],
        "bialgebra": [bialgebra()],
        "nambu": [nambu(n)[0] for n in (2, 3, 4)],
        "ybe": [ybe()],
        "ainf": [a_infinity(n)[0] for n in (1, 2, 3, 4)],
        "linf": [l_infinity(n)[0] for n in (1, 2, 3, 4)],
    }
    expected_generator_degree = {
        "as-g": 2, "variants": 2, "bialgebra": 2, "nambu": 2, "ybe": 3,
        "ainf": 2, "linf": 2,
    }
    for family, presentations in families.items():
        want = expected_generator_degree[family]
        for p in presentations:
            rep = is_normal(p)
            assert rep.all_normal(), family
            if family == "linf":
                # the arity-indexed relations are the last N entries; the
                # antisymmetry relations are homogeneous of degree 1
                n_rel = len([g for g in p.signature.generators])
                for e in rep.entries[-n_rel:]:
                    assert e.degree == 2
                for e in rep.entries[:-n_rel]:
                    assert e.degree == 1
            else:
                assert all(e.degree == want for e in rep.entries), family
    # constructed counterexample: degree-1 vs degree-2 monomials
    mu = GeneratorSymbol("mu", 1, 2)
    nu = GeneratorSymbol("nu", 1, 3)
    bad = Presentation(
        Signature((mu, nu)),
        (linear_term([
            (1, Gen(nu)),
            (-1, vcomp(Gen(mu), Tensor(Gen(mu), UnitLeaf()))),
        ]),),
    )
    assert not is_normal(bad).all_normal()
    report(3, "normality of the stock presentations")


def test_criterion_4_twist_theorem_on_corpus():
    for entry in corpus():
        lam = entry.algebra()
        assert check_algebra(lam, entry.presentation).all_passed(), entry.name
        for make_beta in entry.betas:
            beta = make_beta()
            assert not maps_equal(beta, identity_map(lam.space)), entry.name
            result, target = yau_twist(lam, beta, entry.presentation, entry.plan)
            assert result.verified.all_passed(), entry.name
            for c in result.verified.checks:
                assert eval_term(result.twisted, target.relations[c.relation_index]).is_zero()
            # twist the hom-structure once more by the same morphism
            again = twist(result.twisted, beta, target)
            assert again.verified.all_passed(), entry.name
    report(4, "twisting verified across the corpus")


def test_criterion_5_derived_sequence():
    from homprop.corpus import dual_numbers, dual_numbers_beta

    p = associativity()
    beta = dual_numbers_beta(2)
    result, target = yau_twist(dual_numbers(), beta, p, "multiplicative")
    lam = result.twisted
    alpha = target.twisting[0]
    for n in (1, 2, 3):
        derived = derived_sequence(lam, target, n)
        assert derived.verified.all_passed()
        assert maps_equal(derived.twisted[alpha], matrix_power(lam[alpha], n + 1))
    report(5, "derived sequences of the multiplicative hom-structure")


def test_criterion_6_projection_round_trips():
    stock = [
        associativity(), as_g(SubgroupTag.A3), bialgebra(), ybe(),
        nambu(2)[0], nambu(3)[0], a_infinity(3)[0], l_infinity(3)[0],
    ]
    for p in stock:
        if not p.labels:
            continue
        for plan in (theta_min(p.labels), theta_max(p.labels)):
            q = homify_typed(p, plan)
            projected = apply_substitution_to_relations(
                q.relations, projection_pi(q, "pi")
            )
            for got, want in zip(projected, p.relations):
                assert relations_match(got, want)
        q = homify_multiplicative(p)
        projected = apply_substitution_to_relations(
            q.relations, projection_pi(q, "pi2")
        )
        n_compat = len(p.signature.generators)
        for rel in projected[:n_compat]:
            assert simplify_relation(rel) is None
        for got, want in zip(projected[n_compat:], p.relations):
            assert relations_match(got, want)
    # identity twists turn every corpus algebra into a hom-algebra
    for entry in corpus():
        lam = entry.algebra()
        plan = entry.plan
        if plan == "multiplicative" or plan is None:
            q = homify_multiplicative(entry.presentation)
        else:
            q = homify_typed(entry.presentation, plan)
        extended = lam.with_assignments(
            {sym: identity_map(lam.space) for sym in q.twisting}
        )
        assert check_algebra(extended, q).all_passed(), entry.name
    report(6, "projection round trips and identity twists")


def test_criterion_7_classification_on_sl2():
    p = as_g(SubgroupTag.A3)
    beta = sl2_beta(2)
    gamma = sl2_gamma()
    beta_conj = compose(compose(gamma, beta), inverse_map(gamma))
    result = iso_witness_check(gamma, sl2(), beta, sl2(), beta_conj, p)
    assert result.is_witness
    assert result.direct_twisted_check.holds
    assert conjugacy_invariant(beta) == conjugacy_invariant(beta_conj)
    other = sl2_beta(3)
    assert conjugacy_invariant(beta) != conjugacy_invariant(other)
    # no witness can exist for the distinct pair; the identity certainly fails
    no_witness = iso_witness_check(
        identity_map(SL2_SPACE), sl2(), beta, sl2(), other, p
    )
    assert not no_witness.is_witness
    report(7, "conjugacy classification on the 3-dimensional simple algebra")


def test_criterion_8_sign_convention_frozen():
    from homprop.corpus import exterior_dga, odd_heisenberg_dgla

    offset = frozen_sign_offset()
    assert offset == 0
    p_a, _ = a_infinity(4, offset)
    assert check_algebra(exterior_dga(4), p_a).all_passed()
    p_l, _ = l_infinity(4, offset)
    assert check_algebra(odd_heisenberg_dgla(4), p_l).all_passed()
    # an ungraded Lie algebra packaged with l2 only
    bracket = sl2()[as_g(SubgroupTag.A3).signature["mu"]]
    maps = {}
    for g in p_l.signature.generators:
        if g.in_arity == 2:
            maps[g] = bracket
        else:
            maps[g] = zero_map(SL2_SPACE, g.in_arity, SL2_SPACE, 1, degree=g.degree)
    assert check_algebra(structure_map(SL2_SPACE, maps), p_l).all_passed()
    report(8, "a-infinity/l-infinity sign convention pinned by graded oracles")


def test_criterion_9_interchange_law_1000_quadruples():
    # 1000 random exact graded quadruples, dims <= 3.  The law is asserted
    # on the nose whenever the Koszul interchange sign is +1 (in particular
    # for every quadruple the twisting machinery ever produces, where one
    # side has degree 0); on the remaining odd-odd pairs the two sides are
    # asserted to differ by exactly that sign, which pins the convention.
    rng = random.Random(20240817)
    spaces = [
        GradedSpace.ungraded(2),
        GradedSpace.ungraded(3),
        GradedSpace.from_dims({0: 1, 1: 1}),
        GradedSpace.from_dims({0: 2, 1: 1}),
        GradedSpace.from_dims({-1: 1, 0: 1, 1: 1}),
    ]

    def rand_map(space, sp, tp, degree):
        src = tensor_degrees(space, sp)
        tgt = tensor_degrees(space, tp)
        rows = [
            [
                Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                if tgt[r] == src[c] + degree else Fraction(0)
                for c in range(len(src))
            ]
            for r in range(len(tgt))
        ]
        return make_map(space, space, rows, source_power=sp, target_power=tp,
                        degree=degree)

    def rand_power(space):
        # keep each factor's matrix at dimension <= 4
        return rng.randint(1, 2) if space.dim <= 2 else 1

    strict = signed = 0
    for _ in range(1000):
        space = rng.choice(spaces)
        p1, p2, p3 = (rand_power(space) for _ in range(3))
        q1, q2, q3 = (rand_power(space) for _ in range(3))
        da, db, dc, dd = (rng.choice((0, 1)) for _ in range(4))
        c = rand_map(space, p1, p2, dc)
        a = rand_map(space, p2, p3, da)
        d = rand_map(space, q1, q2, dd)
        b = rand_map(space, q2, q3, db)
        lhs = tensor(compose(a, c), compose(b, d))
        rhs = compose(tensor(a, b), tensor(c, d))
        s = interchange_sign(b, c)
        if s == 1:
            assert maps_equal(lhs, rhs)
            strict += 1
        else:
            assert maps_equal(lhs, rhs.scale(Fraction(-1)))
            signed += 1
    assert strict + signed == 1000
    assert strict > 0 and signed > 0
    report(9, f"interchange law on 1000 graded quadruples "
              f"({strict} strict, {signed} Koszul-signed)")
