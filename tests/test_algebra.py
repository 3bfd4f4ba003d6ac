import itertools
import random
from fractions import Fraction

import pytest

from homprop.algebra import (
    MissingAssignment,
    StructureMap,
    check_algebra,
    eval_term,
    is_morphism,
    structure_map,
)
from homprop.builtins import SubgroupTag, as_g, associativity, ybe
from homprop.corpus import (
    DUAL_SPACE,
    FLIP_SPACE,
    SL2_SPACE,
    dual_numbers,
    dual_numbers_beta,
    flip_beta,
    flip_ybe,
    sl2,
)
from homprop.linalg import (
    GradedSpace,
    identity_map,
    make_map,
    maps_equal,
    perm_action,
)
from homprop.perm import Permutation
from homprop.presentation import homify_typed, theta_min
from homprop.term import (
    GeneratorSymbol,
    LinearTerm,
    Signature,
    generator,
    tensor,
    unit,
    vcomp,
)

import oracles
from oracles import Gen, Tensor, UnitLeaf, VComp, infer_biarity, layerize, linear_term

MU = GeneratorSymbol("mu", 1, 2)


# ---------------------------------------------------------------------------
# Independent multiplication tables for brute-force oracles.


def dual_product(a, b):
    """Product on span(e, x) as coefficient dicts, e = basis 0, x = basis 1."""
    out = {}
    for (i, ca) in a.items():
        for (j, cb) in b.items():
            if i == 0 and j == 0:
                out[0] = out.get(0, 0) + ca * cb
            elif (i, j) in ((0, 1), (1, 0)):
                out[1] = out.get(1, 0) + ca * cb
            # x.x = 0
    return out


def test_dual_numbers_associativity_brute_force():
    basis = [{0: 1}, {1: 1}]
    for a, b, c in itertools.product(basis, repeat=3):
        left = dual_product(dual_product(a, b), c)
        right = dual_product(a, dual_product(b, c))
        assert {k: v for k, v in left.items() if v} == {k: v for k, v in right.items() if v}


def test_check_algebra_dual_numbers():
    lam = dual_numbers()
    report = check_algebra(lam, associativity())
    assert report.all_passed()
    value = eval_term(lam, associativity().relations[0])
    assert (value.rows, value.cols) == (2, 8)
    assert value.is_zero()


def corrupted_product(a, b):
    # e.e redirected to x; note that x.x = e would NOT break associativity
    # (it gives the group algebra of C2), so the corruption must hit the unit.
    out = {}
    for i, ca in a.items():
        for j, cb in b.items():
            if i == 0 and j == 0:
                out[1] = out.get(1, 0) + ca * cb
            elif (i, j) in ((0, 1), (1, 0)):
                out[1] = out.get(1, 0) + ca * cb
    return out


def test_corruption_brute_force_witness():
    e, x = {0: 1}, {1: 1}
    left = corrupted_product(corrupted_product(e, e), x)   # x.x = 0
    right = corrupted_product(e, corrupted_product(e, x))  # e.x = x
    assert {k: v for k, v in left.items() if v} != {k: v for k, v in right.items() if v}


def test_check_algebra_corrupted_dual_numbers_fails():
    p = associativity()
    mu = p.signature["mu"]
    rows = [[0, 0, 0, 0],
            [1, 1, 1, 0]]
    lam = structure_map(
        DUAL_SPACE, {mu: make_map(DUAL_SPACE, DUAL_SPACE, rows, source_power=2)}
    )
    report = check_algebra(lam, p)
    assert not report.all_passed()
    assert report.checks[0].max_abs_entry > 0


def test_eval_unit_powers_is_identity():
    lam = dual_numbers()
    t = tensor(unit(), unit(), unit())
    assert maps_equal(eval_term(lam, t), identity_map(DUAL_SPACE, 3))


def test_eval_term_accepts_monomials_and_sums():
    lam = dual_numbers()
    t = vcomp(generator(MU), tensor(unit(), generator(MU)))
    direct = eval_term(lam, t)
    as_sum = eval_term(lam, LinearTerm(((Fraction(1), t),)))
    assert maps_equal(direct, as_sum)


def test_flip_satisfies_ybe_and_equals_outer_swap():
    lam = flip_ybe()
    p = ybe()
    report = check_algebra(lam, p)
    assert report.all_passed()
    b = p.signature["braiding"]
    side = eval_term(
        lam,
        vcomp(
            tensor(unit(), generator(b)),
            tensor(generator(b), unit()),
            tensor(unit(), generator(b)),
        ),
    )
    outer_swap = perm_action(Permutation((3, 2, 1)), FLIP_SPACE)
    assert maps_equal(side, outer_swap)


SL2_TABLE = {
    (0, 1): {1: 2},   # [h,e] = 2e
    (1, 0): {1: -2},
    (0, 2): {2: -2},  # [h,f] = -2f
    (2, 0): {2: 2},
    (1, 2): {0: 1},   # [e,f] = h
    (2, 1): {0: -1},
}


def sl2_bracket(a, b):
    out = {}
    for i, ca in a.items():
        for j, cb in b.items():
            for k, c in SL2_TABLE.get((i, j), {}).items():
                out[k] = out.get(k, 0) + ca * cb * c
    return {k: v for k, v in out.items() if v}


def test_sl2_jacobi_brute_force():
    basis = [{0: 1}, {1: 1}, {2: 1}]
    for x, y, z in itertools.product(basis, repeat=3):
        total = {}
        for term in (
            sl2_bracket(sl2_bracket(x, y), z),
            sl2_bracket(sl2_bracket(z, x), y),
            sl2_bracket(sl2_bracket(y, z), x),
        ):
            for k, v in term.items():
                total[k] = total.get(k, 0) + v
        assert not {k: v for k, v in total.items() if v}


def test_sl2_satisfies_alternating_sum():
    lam = sl2()
    report = check_algebra(lam, as_g(SubgroupTag.A3))
    assert report.all_passed()


def test_sl2_hom_with_identity_twist():
    p = as_g(SubgroupTag.A3)
    q = homify_typed(p, theta_min(p.labels))
    lam = sl2()
    alpha = q.signature["alpha"]
    extended = lam.with_assignments({alpha: identity_map(SL2_SPACE)})
    assert check_algebra(extended, q).all_passed()


def test_is_morphism_identity():
    lam = dual_numbers()
    check = is_morphism(identity_map(DUAL_SPACE), lam, lam, associativity())
    assert check.holds


def test_is_morphism_dual_scaling():
    lam = dual_numbers()
    beta = dual_numbers_beta(2)
    # independent verification on the four basis pairs
    basis = [{0: 1}, {1: 1}]

    def beta_apply(v):
        return {0: v.get(0, 0), 1: 2 * v.get(1, 0)}

    for a, b in itertools.product(basis, repeat=2):
        lhs = beta_apply(dual_product(a, b))
        rhs = dual_product(beta_apply(a), beta_apply(b))
        assert {k: v for k, v in lhs.items() if v} == {k: v for k, v in rhs.items() if v}
    assert is_morphism(beta, lam, lam, associativity()).holds


def test_is_morphism_failure_witness():
    lam = dual_numbers()
    bad = make_map(DUAL_SPACE, DUAL_SPACE, [[1, 1], [0, 0]])  # e -> e, x -> e
    check = is_morphism(bad, lam, lam, associativity())
    assert not check.holds
    assert check.witness_generator.name == "mu"
    assert check.difference is not None and not check.difference.is_zero()


def test_is_morphism_rejects_nonzero_degree():
    lam = dual_numbers()
    graded = GradedSpace.from_dims({0: 1, 1: 1})
    odd = make_map(graded, graded, [[0, 0], [1, 0]], degree=1)
    with pytest.raises(ValueError):
        is_morphism(odd, lam, lam, associativity())


def test_missing_assignment_raises():
    p = associativity()
    lam = structure_map(DUAL_SPACE, {})
    with pytest.raises(MissingAssignment):
        eval_term(lam, p.relations[0])


def test_lookups_do_not_scan():
    class Counted(tuple):
        iterations = 0

        def __iter__(self):
            self.iterations += 1
            return super().__iter__()

    gens = [GeneratorSymbol(f"g{i}", 1, 1) for i in range(50)]
    signature = Signature(Counted(gens))
    lam = StructureMap(DUAL_SPACE, Counted((g, identity_map(DUAL_SPACE)) for g in gens))
    built = (signature.generators.iterations, lam.assignments.iterations)
    for i in range(1000):
        g = gens[i % len(gens)]
        assert signature[g.name] is g and g.name in signature
        assert lam[g] is lam.get(g) is not None
    assert "missing" not in signature
    assert lam.get(GeneratorSymbol("missing", 1, 1)) is None
    extended = lam.with_assignments({gens[0]: identity_map(DUAL_SPACE)})
    assert (signature.generators.iterations, lam.assignments.iterations) == built
    assert extended.symbols() == tuple(gens)


def test_repeated_generator_first_entry_wins():
    # Lookup and evaluation read the same mapping, so they agree.
    g = GeneratorSymbol("g", 1, 1)
    first = identity_map(DUAL_SPACE)
    second = make_map(DUAL_SPACE, DUAL_SPACE, [[0, 0], [1, 0]])
    lam = StructureMap(DUAL_SPACE, ((g, first), (g, second)))
    assert lam[g] is first
    assert maps_equal(eval_term(lam, generator(g)), first)


def test_relation_with_values_in_two_degree_blocks_is_refused():
    # A non-normal relation a + b with |a| = 0 and |b| = 1: its monomials
    # have nonzero values in two degree blocks, so their sum is no
    # homogeneous map.
    space = GradedSpace.from_dims({0: 1, 1: 1})
    a, b = GeneratorSymbol("a", 1, 1, 0), GeneratorSymbol("b", 1, 1, 1)
    odd = make_map(space, space, [[0, 0], [1, 0]], degree=1)
    rel = linear_term([(1, generator(a)), (1, generator(b))])
    with pytest.raises(ValueError):
        eval_term(structure_map(space, {a: identity_map(space), b: odd}), rel)
    # A monomial whose value is zero adds nothing, whatever its degree.
    zero = make_map(space, space, [[0, 0], [0, 0]], degree=1)
    value = eval_term(structure_map(space, {a: identity_map(space), b: zero}), rel)
    assert value.degree == 0
    assert maps_equal(value, identity_map(space))


def test_flip_beta_is_morphism():
    assert is_morphism(flip_beta(), flip_ybe(), flip_ybe(), ybe()).holds


def test_eval_invariant_under_interchange_rewrites():
    # Random (1,1)-decorated rectangles evaluated both ways.
    rng = random.Random(21)
    space = GradedSpace.ungraded(2)
    a, b, c, d = (GeneratorSymbol(n, 1, 1) for n in "abcd")

    def rand_map():
        return make_map(space, space,
                        [[Fraction(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)])

    for _ in range(20):
        lam = structure_map(space, {g: rand_map() for g in (a, b, c, d)})
        t1 = tensor(vcomp(generator(a), generator(c)), vcomp(generator(b), generator(d)))
        t2 = vcomp(tensor(generator(a), generator(b)), tensor(generator(c), generator(d)))
        assert maps_equal(eval_term(lam, t1), eval_term(lam, t2))


def test_eval_invariant_on_random_mixed_arity_rectangles():
    # Interchange-equivalent writings of mixed-arity rectangles evaluate to
    # the same exact matrix under a random structure map.
    rng = random.Random(33)
    space = GradedSpace.ungraded(2)
    mu = GeneratorSymbol("mu", 1, 2)
    delta = GeneratorSymbol("delta", 2, 1)
    eta = GeneratorSymbol("eta", 1, 1)
    gens = [mu, delta, eta]

    def rand_map(g):
        rows = [
            [Fraction(rng.randint(-2, 2)) for _ in range(2 ** g.in_arity)]
            for _ in range(2 ** g.out_arity)
        ]
        return make_map(space, space, rows,
                        source_power=g.in_arity, target_power=g.out_arity)

    def strip(out_arity):
        parts = []
        remaining = out_arity
        while remaining > 0:
            pool = [g for g in gens if g.out_arity <= remaining] + ["unit"]
            pick = pool[rng.randrange(len(pool))]
            if pick == "unit":
                parts.append(UnitLeaf())
                remaining -= 1
            else:
                parts.append(Gen(pick))
                remaining -= pick.out_arity
        return oracles.tensor(*parts)

    done = 0
    while done < 25:
        lam = structure_map(space, {g: rand_map(g) for g in gens})
        a = strip(rng.randint(1, 2))
        b = strip(rng.randint(1, 2))
        c = strip(infer_biarity(a)[1])
        d = strip(infer_biarity(b)[1])
        widths = [infer_biarity(t)[i] for t in (a, b, c, d) for i in (0, 1)]
        if infer_biarity(c)[1] + infer_biarity(d)[1] > 6 or max(widths) > 4:
            continue  # keep the dense matrices inside the width cap
        one_way = VComp(Tensor(a, b), Tensor(c, d))
        other_way = Tensor(VComp(a, c), VComp(b, d))
        assert maps_equal(eval_term(lam, layerize(one_way)), eval_term(lam, layerize(other_way)))
        done += 1


def test_eval_respects_graph_isomorphism_on_padding():
    # The same element written with different unit padding evaluates equally.
    lam = dual_numbers()
    inner = vcomp(generator(MU), tensor(generator(MU), unit()))
    padded = tensor(unit(), inner)
    expanded = vcomp(
        tensor(unit(), generator(MU)),
        tensor(unit(), tensor(generator(MU), unit())),
    )
    assert maps_equal(eval_term(lam, padded), eval_term(lam, expanded))


def test_tower_check_inverts_only_when_building_gap_steps(monkeypatch):
    # A bottom gap's columns are read through its images; the only
    # permutation inverses left are the one per distinct gap step built.
    from homprop import algebra
    from homprop.builtins import l_infinity
    from homprop.corpus import odd_heisenberg_dgla

    counts = {"inverse": 0, "gap": 0, "inverse_in_gap": 0}
    inverse, gap = Permutation.inverse, algebra._Evaluator._gap

    def counting_inverse(self):
        counts["inverse"] += 1
        return inverse(self)

    def counting_gap(self, perm):
        counts["gap"] += 1
        before = counts["inverse"]
        step = gap(self, perm)
        counts["inverse_in_gap"] += counts["inverse"] - before
        return step

    p, _ = l_infinity(5)
    lam = odd_heisenberg_dgla(5)
    monkeypatch.setattr(Permutation, "inverse", counting_inverse)
    monkeypatch.setattr(algebra._Evaluator, "_gap", counting_gap)
    assert check_algebra(lam, p).all_passed()
    assert counts["gap"] > 0
    assert counts["inverse"] == counts["inverse_in_gap"] == counts["gap"]
