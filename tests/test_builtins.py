import pytest

from homprop.algebra import check_algebra, structure_map
from homprop.builtins import (
    DEFAULT_AINF_SIGN_OFFSET,
    AsVariant,
    SubgroupTag,
    a_infinity,
    as_g,
    as_variant,
    bialgebra,
    builtin,
    frozen_sign_offset,
    l_infinity,
    nambu,
    subgroup_elements,
    ybe,
)
from homprop.linalg import GradedSpace, LinearMap, make_map, zero_map
from homprop.perm import sign
from homprop.presentation import homify_typed, is_normal


def test_subgroup_sizes_and_closure():
    sizes = {
        SubgroupTag.E: 1,
        SubgroupTag.ID_12: 2,
        SubgroupTag.ID_23: 2,
        SubgroupTag.A3: 3,
        SubgroupTag.S3: 6,
    }
    for tag, size in sizes.items():
        elems = subgroup_elements(tag)  # closure asserted inside
        assert len(elems) == size
        assert elems[0].is_identity()


def test_as_g_unit_counts():
    assert len(as_g(SubgroupTag.E).unit_index) == 2
    assert len(as_g(SubgroupTag.ID_12).unit_index) == 4
    assert len(as_g(SubgroupTag.A3).unit_index) == 6
    assert len(as_g(SubgroupTag.S3).unit_index) == 12


def test_as_g_a3_signs():
    p = as_g(SubgroupTag.A3)
    rel = p.relations[0]
    assert len(rel.terms) == 6
    assert [c for c, _ in rel.terms] == [1, -1, 1, -1, 1, -1]
    for elem in subgroup_elements(SubgroupTag.A3):
        assert sign(elem) == 1


def test_as_g_s3_monomial_count():
    rel = as_g(SubgroupTag.S3).relations[0]
    assert len(rel.terms) == 12


def test_variants():
    p1, plan1 = as_variant(AsVariant.II1)
    assert len(p1.unit_index) == 8
    assert plan1.S == (2, 3, 7, 8)
    assert len(plan1.blocks) == 1
    p2, plan2 = as_variant(AsVariant.III)
    assert len(p2.unit_index) == 4
    assert plan2.S == (1, 3)


def test_nambu_counts_and_plans():
    p2, plan2 = nambu(2)
    assert len(p2.unit_index) == 3
    assert [len(labels) for _, labels in plan2.blocks] == [3]
    p3, plan3 = nambu(3)
    assert len(p3.unit_index) == 8
    assert [len(labels) for _, labels in plan3.blocks] == [4, 4]
    p4, _ = nambu(4)
    assert len(p4.unit_index) == 15
    assert len(p2.relations[0].terms) == 3  # n + 1 monomials
    assert len(p3.relations[0].terms) == 4
    with pytest.raises(ValueError):
        nambu(1)


def test_bialgebra_units_in_expected_relations():
    p = bialgebra()
    occs = p.unit_index
    assert [o.label for o in occs] == [1, 2, 3, 4]
    assert [o.relation_index for o in occs] == [0, 0, 1, 1]


def test_normality_degrees_all_families():
    assert is_normal(as_g(SubgroupTag.E)).degrees() == (2,)
    assert is_normal(as_g(SubgroupTag.S3)).degrees() == (2,)
    assert is_normal(as_variant(AsVariant.II1)[0]).degrees() == (2,)
    assert is_normal(as_variant(AsVariant.III)[0]).degrees() == (2,)
    assert is_normal(bialgebra()).degrees() == (2, 2, 2)
    assert is_normal(nambu(2)[0]).degrees() == (2,)
    assert is_normal(nambu(4)[0]).degrees() == (2,)
    assert is_normal(ybe()).degrees() == (3,)
    pa, _ = a_infinity(4)
    assert is_normal(pa).degrees() == (2, 2, 2, 2)
    pl, _ = l_infinity(3)
    report = is_normal(pl)
    assert report.all_normal()
    # antisymmetry relations have one generator layer, the rest two
    jacobi_degrees = report.degrees()[-3:]
    assert jacobi_degrees == (2, 2, 2)
    anti_degrees = set(report.degrees()[:-3])
    assert anti_degrees == {1}


def test_a_infinity_n1():
    p, plan = a_infinity(1)
    assert plan is None
    assert len(p.relations) == 1
    rel = p.relations[0]
    assert len(rel.terms) == 1
    coef, mono = rel.terms[0]
    assert coef == 1
    assert [l.factors for l in mono.layers] == [(p.signature["m_1"],), (p.signature["m_1"],)]


def test_a_infinity_plan_groups_by_slot():
    p, plan = a_infinity(2)
    assert plan is not None
    assert [name for name, _ in plan.blocks] == ["alpha_1", "alpha_2"]
    # relation n=2 has a unit in slot 2 (term l=0,k=1) and slot 1 (term l=1,k=1)
    assert plan.blocks[0][1] == (2,)
    assert plan.blocks[1][1] == (1,)


def test_l_infinity_antisymmetry_shape():
    p, _ = l_infinity(2)
    anti = p.relations[0]
    assert len(anti.terms) == 2
    (c1, m1), (c2, m2) = anti.terms
    assert c1 == 1 and c2 == 1  # mu_2 + mu_2 . (1 2) before Koszul signs
    assert m2.layers[0].below.perm.images == (2, 1)


def test_builtin_names_resolve():
    for name in ("as", "as-g:a3", "as-ii1", "as-iii", "nambu:2", "bialgebra",
                 "bialgebra-generalized", "ybe", "ainf:2", "linf:2"):
        p, _ = builtin(name)
        assert p.relations
    with pytest.raises(ValueError):
        builtin("nope")


@pytest.mark.parametrize("offset", [0, 1])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_builtin_towers_take_the_sign_offset(n, offset):
    # Presentation and plan both, as the command line resolves them.
    assert builtin(f"ainf:{n}", offset) == a_infinity(n, offset)
    assert builtin(f"linf:{n}", offset) == l_infinity(n, offset)


def test_frozen_sign_offset():
    assert frozen_sign_offset() == 0
    assert DEFAULT_AINF_SIGN_OFFSET == frozen_sign_offset()


# ---------------------------------------------------------------------------
# Sign-convention oracles.

ACYCLIC = GradedSpace.from_dims({-1: 1, 0: 1})  # basis: eps (deg -1), one (deg 0)


def acyclic_line_dga(n_max: int = 3):
    """1 in degree 0, eps in degree -1, eps^2 = 0, d(eps) = 1: an honest
    differential graded algebra with nonzero differential."""
    p, plan = a_infinity(n_max)
    maps = {}
    for g in p.signature.generators:
        k = g.in_arity
        if k == 1:
            # columns (eps, one) -> d(eps) = one
            maps[g] = make_map(ACYCLIC, ACYCLIC, [[0, 0], [1, 0]], degree=1)
        elif k == 2:
            # basis order (eps, one); columns ee, e1, 1e, 11
            rows = [[0, 1, 1, 0],
                    [0, 0, 0, 1]]
            maps[g] = make_map(ACYCLIC, ACYCLIC, rows, source_power=2)
        else:
            maps[g] = zero_map(ACYCLIC, k, ACYCLIC, 1, degree=g.degree)
    return p, structure_map(ACYCLIC, maps)


def test_a_infinity_leibniz_oracle_pins_signs():
    # The n=2 relation must evaluate to the graded Leibniz rule; with the
    # shipped convention the acyclic line satisfies every relation.
    p, lam = acyclic_line_dga(3)
    report = check_algebra(lam, p)
    assert report.all_passed()


def test_a_infinity_leibniz_oracle_rejects_flipped_convention():
    p_flipped, _ = a_infinity(2, sign_offset=1)
    _, lam = acyclic_line_dga(2)
    report = check_algebra(lam, p_flipped)
    assert not report.all_passed()


def test_exterior_dga_passes_n4():
    from homprop.corpus import exterior_dga

    p, _ = a_infinity(4)
    assert check_algebra(exterior_dga(4), p).all_passed()


def sl2_as_l_infinity(n):
    """l_infinity(n) with sl2's bracket on the binary generator and zero maps
    on the others."""
    from homprop.corpus import SL2_SPACE, sl2

    p, _ = l_infinity(n)
    bracket = sl2()[as_g(SubgroupTag.A3).signature["mu"]]
    maps = {}
    for g in p.signature.generators:
        if g.in_arity == 2:
            maps[g] = bracket
        else:
            maps[g] = zero_map(SL2_SPACE, g.in_arity, SL2_SPACE, 1, degree=g.degree)
    return p, structure_map(SL2_SPACE, maps)


def test_sl2_as_l_infinity_passes_n4():
    p, lam = sl2_as_l_infinity(4)
    assert check_algebra(lam, p).all_passed()


def test_sl2_as_l_infinity_passes_n5():
    p, lam = sl2_as_l_infinity(5)
    report = check_algebra(lam, p)
    assert len(report.checks) == 153
    assert report.all_passed()


def test_sl2_as_l_infinity_passes_n6(monkeypatch):
    p, lam = sl2_as_l_infinity(6)
    built = []
    validate = LinearMap.__post_init__

    def counting(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(LinearMap, "__post_init__", counting)
    report = check_algebra(lam, p)
    assert len(report.checks) == 873
    assert report.all_passed()
    assert len(built) == 0  # verdicts come off the sparse sums, not dense maps


def test_odd_heisenberg_passes_n4():
    from homprop.corpus import odd_heisenberg_dgla

    p, _ = l_infinity(4)
    assert check_algebra(odd_heisenberg_dgla(4), p).all_passed()


def test_hom_nambu_relation_instantiates():
    # Hom-ified ternary bracket: two twisting generators, relation stays
    # homogeneous of degree 2 and has (n+1) monomials.
    p, plan = nambu(3)
    q = homify_typed(p, plan)
    assert [g.name for g in q.signature.generators] == ["mu", "alpha_1", "alpha_2"]
    assert is_normal(q).degrees() == (2,)
    assert len(q.relations[0].terms) == 4
