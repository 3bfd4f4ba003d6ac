import itertools
from fractions import Fraction

import pytest

from homprop.algebra import check_algebra, is_morphism, structure_map
from homprop.builtins import (
    AsVariant,
    SubgroupTag,
    as_g,
    as_variant,
    associativity,
    bialgebra,
    generalized_bialgebra_plan,
    nambu,
    subgroup_elements,
    ybe,
)
from homprop.corpus import (
    DUAL_SPACE,
    SL2_SPACE,
    aff1_beta,
    aff1_bracket,
    c2_beta,
    c2_bialgebra,
    corpus,
    dual_numbers,
    dual_numbers_beta,
    flip_beta,
    flip_ybe,
    sl2,
    sl2_beta,
    sl2_gamma,
)
from homprop.linalg import (
    LinearMap,
    compose,
    identity_map,
    inverse_map,
    make_map,
    maps_equal,
    matrix_power,
)
from homprop.perm import sign
from homprop.presentation import homify_multiplicative, homify_typed, theta_min
from homprop.serialize import matrix_to_json
from homprop.twist import (
    BetaNotMorphism,
    NormalityViolated,
    NotAnAlgebra,
    PreconditionFailed,
    SNotI,
    conjugacy_invariant,
    derived_sequence,
    iso_witness_check,
    transport_morphism,
    twist,
    yau_twist,
)


def multiplicative_hom_dual():
    """The Yau-twisted dual numbers as a multiplicative hom-structure."""
    p = associativity()
    result, target = yau_twist(dual_numbers(), dual_numbers_beta(2), p, "multiplicative")
    return result.twisted, target


def test_twist_by_identity_is_identity():
    lam, target = multiplicative_hom_dual()
    result = twist(lam, identity_map(DUAL_SPACE), target)
    assert result.verified.all_passed()
    for g, m in result.twisted.assignments:
        assert maps_equal(m, lam[g])


def test_twist_hom_dual_numbers_again_by_alpha():
    lam, target = multiplicative_hom_dual()
    alpha = dual_numbers_beta(2)
    result = twist(lam, alpha, target)
    assert result.verified.all_passed()
    assert result.preconditions.all_hold()


def test_twist_refuses_partial_plans():
    p, plan = as_variant(AsVariant.II1)
    q = homify_typed(p, plan)
    alpha = q.signature["alpha"]
    lam = structure_map(DUAL_SPACE, {
        p.signature["mu"]: dual_numbers()[p.signature["mu"]],
        alpha: identity_map(DUAL_SPACE),
    })
    with pytest.raises(SNotI):
        twist(lam, identity_map(DUAL_SPACE), q)


def test_twist_rejects_non_morphism():
    lam, target = multiplicative_hom_dual()
    bad = make_map(DUAL_SPACE, DUAL_SPACE, [[1, 1], [0, 0]])
    with pytest.raises(BetaNotMorphism):
        twist(lam, bad, target)


def test_derived_sequence_powers():
    lam, target = multiplicative_hom_dual()
    alpha_sym = target.twisting[0]
    a = lam[alpha_sym]
    for n in (1, 2, 3):
        result = derived_sequence(lam, target, n)
        assert result.verified.all_passed()
        assert maps_equal(result.twisted[alpha_sym], matrix_power(a, n + 1))
    two = derived_sequence(lam, target, 2)
    assert two.twisted[alpha_sym].entries == (
        (Fraction(1), Fraction(0)), (Fraction(0), Fraction(8))
    )


def test_derived_sequence_identity_alpha_is_stationary():
    p = associativity()
    q = homify_multiplicative(p)
    lam = dual_numbers().with_assignments({q.twisting[0]: identity_map(DUAL_SPACE)})
    result = derived_sequence(lam, q, 3)
    assert result.verified.all_passed()
    for g, m in result.twisted.assignments:
        assert maps_equal(m, lam[g])


def test_derived_sequence_requires_multiplicative():
    p = associativity()
    q = homify_typed(p, theta_min(p.labels))
    lam = dual_numbers().with_assignments({q.twisting[0]: identity_map(DUAL_SPACE)})
    with pytest.raises(TypeError):
        derived_sequence(lam, q, 1)


def test_yau_twist_dual_numbers_multiplicative():
    p = associativity()
    result, target = yau_twist(dual_numbers(), dual_numbers_beta(2), p, "multiplicative")
    assert result.verified.all_passed()
    mu = p.signature["mu"]
    # twisted multiplication is beta . mu
    expected = compose(dual_numbers_beta(2), dual_numbers()[mu])
    assert maps_equal(result.twisted[mu], expected)
    assert maps_equal(result.twisted[target.twisting[0]], dual_numbers_beta(2))


def hom_jacobi_brute_force(bracket, alpha):
    """Evaluate the alternating hom-associator sum over A3 on all basis
    triples, with a dict-arithmetic bracket; returns True when all vanish."""
    basis = [{0: 1}, {1: 1}, {2: 1}]

    def apply_linear(m, v):
        out = {}
        for j, c in v.items():
            for i, a in m.get(j, {}).items():
                out[i] = out.get(i, 0) + a * c
        return out

    def as_alpha(x, y, z):
        left = bracket(bracket(x, y), apply_linear(alpha, z))
        right = bracket(apply_linear(alpha, x), bracket(y, z))
        return {k: left.get(k, 0) - right.get(k, 0) for k in set(left) | set(right)}

    for x, y, z in itertools.product(basis, repeat=3):
        total = {}
        for p in subgroup_elements(SubgroupTag.A3):
            # precompose with the tuple action of p^{-1}: pick x_{p(i)}
            args = (x, y, z)
            picked = tuple(args[p(i) - 1] for i in (1, 2, 3))
            term = as_alpha(*picked)
            for k, v in term.items():
                total[k] = total.get(k, 0) + sign(p) * v
        if any(v for v in total.values()):
            return False
    return True


def test_yau_twist_sl2_matches_brute_force():
    c = Fraction(2)
    p = as_g(SubgroupTag.A3)
    result, target = yau_twist(sl2(), sl2_beta(c), p, theta_min(p.labels))
    assert result.verified.all_passed()

    # independent verification with dict arithmetic
    table = {
        (0, 1): {1: 2}, (1, 0): {1: -2},
        (0, 2): {2: -2}, (2, 0): {2: 2},
        (1, 2): {0: 1}, (2, 1): {0: -1},
    }
    beta_cols = {0: {0: 1}, 1: {1: c}, 2: {2: 1 / c}}

    def twisted_bracket(a, b):
        raw = {}
        for i, ca in a.items():
            for j, cb in b.items():
                for k, coeff in table.get((i, j), {}).items():
                    raw[k] = raw.get(k, 0) + ca * cb * coeff
        out = {}
        for j, coeff in raw.items():
            for i, a2 in beta_cols[j].items():
                out[i] = out.get(i, 0) + a2 * coeff
        return out

    assert hom_jacobi_brute_force(twisted_bracket, beta_cols)


def test_yau_twist_aff1_nambu():
    p, plan = nambu(2)
    result, target = yau_twist(aff1_bracket(), aff1_beta(3), p, plan)
    assert result.verified.all_passed()


def test_yau_twist_c2_bialgebra():
    p = bialgebra()
    result, target = yau_twist(c2_bialgebra(), c2_beta(), p, generalized_bialgebra_plan())
    assert result.verified.all_passed()
    assert len(target.twisting) == 2
    # the single-twist version is a hom-bialgebra proper
    single, target_min = yau_twist(c2_bialgebra(), c2_beta(), p, theta_min(p.labels))
    assert single.verified.all_passed()
    assert [g.name for g in target_min.twisting] == ["alpha"]


def test_yau_twist_flip_hybe_and_derived():
    p = ybe()
    result, target = yau_twist(flip_ybe(), flip_beta(), p, "multiplicative")
    assert result.verified.all_passed()
    derived = derived_sequence(result.twisted, target, 1)
    assert derived.verified.all_passed()
    alpha = target.twisting[0]
    assert maps_equal(derived.twisted[alpha], matrix_power(flip_beta(), 2))


def test_yau_twist_rejects_non_algebra():
    p = associativity()
    mu = p.signature["mu"]
    rows = [[0, 0, 0, 0], [1, 1, 1, 0]]
    broken = structure_map(
        DUAL_SPACE, {mu: make_map(DUAL_SPACE, DUAL_SPACE, rows, source_power=2)}
    )
    with pytest.raises(NotAnAlgebra):
        yau_twist(broken, dual_numbers_beta(2), p, "multiplicative")


def test_transport_morphism_dual_numbers():
    p = associativity()
    q = homify_typed(p, theta_min(p.labels))
    alpha = q.signature["alpha"]
    mu = q.signature["mu"]
    beta = dual_numbers_beta(2)
    base = dual_numbers()
    lam = base.with_assignments({mu: compose(beta, base[mu]), alpha: beta})
    f = make_map(DUAL_SPACE, DUAL_SPACE, [[1, 0], [0, 3]])
    assert transport_morphism(f, lam, beta, lam, beta, q)


def test_transport_morphism_trivial_f_equals_beta():
    lam, target = multiplicative_hom_dual()
    beta = dual_numbers_beta(2)
    assert transport_morphism(beta, lam, beta, lam, beta, target)


def test_transport_morphism_commuting_precondition():
    # identity-twist hom structure, so every diagonal map is a morphism,
    # but f . beta != beta' . f
    p = associativity()
    q = homify_typed(p, theta_min(p.labels))
    lam = dual_numbers().with_assignments(
        {q.signature["alpha"]: identity_map(DUAL_SPACE)}
    )
    beta = dual_numbers_beta(2)
    beta2 = dual_numbers_beta(5)
    f = make_map(DUAL_SPACE, DUAL_SPACE, [[1, 0], [0, 3]])
    with pytest.raises(PreconditionFailed) as exc:
        transport_morphism(f, lam, beta, lam, beta2, q)
    assert exc.value.difference is not None


@pytest.mark.parametrize("refusal", [SNotI, NormalityViolated, BetaNotMorphism, NotAnAlgebra])
def test_twist_refusals_are_precondition_failures(refusal):
    assert issubclass(refusal, PreconditionFailed)


def test_iso_witness_identity():
    p = associativity()
    beta = dual_numbers_beta(2)
    result = iso_witness_check(
        identity_map(DUAL_SPACE), dual_numbers(), beta, dual_numbers(), beta, p
    )
    assert result.is_witness
    assert result.certified_equivalence
    assert result.direct_twisted_check.holds


def test_iso_witness_sl2_conjugate_pair():
    p = as_g(SubgroupTag.A3)
    beta = sl2_beta(2)
    gamma = sl2_gamma()
    beta2 = compose(compose(gamma, beta), inverse_map(gamma))
    # gamma swaps e and f, so the conjugate is the inverse-parameter twist
    assert maps_equal(beta2, sl2_beta(Fraction(1, 2)))
    result = iso_witness_check(gamma, sl2(), beta, sl2(), beta2, p)
    assert result.is_witness
    assert result.direct_twisted_check.holds
    assert result.direct_twisted_check_inverse.holds
    assert conjugacy_invariant(beta) == conjugacy_invariant(beta2)


def test_iso_witness_rejects_singular_gamma():
    p = associativity()
    beta = dual_numbers_beta(2)
    singular = make_map(DUAL_SPACE, DUAL_SPACE, [[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        iso_witness_check(singular, dual_numbers(), beta, dual_numbers(), beta, p)


def test_conjugacy_invariant_examples():
    v3 = SL2_SPACE
    assert conjugacy_invariant(identity_map(v3)) == (
        Fraction(1), Fraction(-3), Fraction(3), Fraction(-1)
    )
    assert conjugacy_invariant(sl2_beta(2)) == (
        Fraction(1), Fraction(-7, 2), Fraction(7, 2), Fraction(-1)
    )


def test_conjugacy_invariant_separates():
    assert conjugacy_invariant(sl2_beta(2)) != conjugacy_invariant(sl2_beta(3))


def test_derived_of_yau_equals_yau_of_power():
    for algebra, beta_fn, presentation in (
        (dual_numbers(), dual_numbers_beta, associativity()),
        (sl2(), sl2_beta, as_g(SubgroupTag.A3)),
    ):
        beta = beta_fn(2)
        base_result, target = yau_twist(algebra, beta, presentation, "multiplicative")
        for n in (1, 2):
            via_derived = derived_sequence(base_result.twisted, target, n)
            power = matrix_power(beta, n + 1)
            via_power, _ = yau_twist(algebra, power, presentation, "multiplicative")
            for g, m in via_derived.twisted.assignments:
                assert maps_equal(m, via_power.twisted[g])


def test_yau_twist_is_the_twist_of_the_identity_twisted_structure():
    """The paper's corollary as an equality: Yau-twisting an algebra by beta
    gives exactly the twist by beta of the Hom-structure whose twisting maps
    are all the identity."""
    for entry in corpus():
        lam = entry.algebra()
        beta = entry.betas[0]()
        yau, target = yau_twist(lam, beta, entry.presentation, entry.plan)
        untwisted = lam.with_assignments(
            {s: identity_map(lam.space) for s in target.twisting})
        via_twist = twist(untwisted, beta, target).twisted
        assert yau.twisted.symbols() == via_twist.symbols(), entry.name
        for g, m in yau.twisted.assignments:
            assert m.entries == via_twist[g].entries, (entry.name, g)


def test_checks_morphisms_and_twists_read_no_dense_rows(monkeypatch):
    """Only serialization, rank, inverse_map and char_poly read ``entries``."""
    reads = []
    dense = LinearMap.entries
    monkeypatch.setattr(LinearMap, "entries", property(lambda m: reads.append(m) or dense.fget(m)))
    for entry in corpus():
        lam, beta = entry.algebra(), entry.betas[0]()
        assert check_algebra(lam, entry.presentation).all_passed(), entry.name
        assert is_morphism(beta, lam, lam, entry.presentation).holds, entry.name
        yau, target = yau_twist(lam, beta, entry.presentation, entry.plan)
        assert twist(yau.twisted, beta, target).verified.all_passed(), entry.name
    assert reads == []
    matrix_to_json(beta)  # the count does see a read
    assert len(reads) == 1
