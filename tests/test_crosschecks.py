"""Dual-route checks: independent evaluators and frozen golden outputs."""
import functools
import random
from fractions import Fraction

from homprop.algebra import check_algebra, eval_term, structure_map
from homprop.builtins import AsVariant, as_variant, bialgebra
from homprop.graphprop import dump_graph
from homprop.linalg import (
    GradedSpace,
    compose,
    identity_map,
    make_map,
    maps_equal,
    perm_action,
    tensor as tensor_map,
    zero_map,
)
from homprop.perm import Permutation
from homprop.presentation import HomPlan, Presentation, homify_typed
from homprop.serialize import space_from_json, space_to_json, term_from_json, term_to_json
from homprop.term import GeneratorSymbol, Signature, UnitFactor

from oracles import (
    Gen,
    PermLeaf,
    UnitLeaf,
    VComp,
    infer_biarity,
    layerize,
    linear_term,
    tensor,
    tensor_degrees,
    term_to_graph,
    tree_to_json,
    vcomp,
)

SPACE = GradedSpace.from_dims({0: 1, 1: 1})  # basis 0 even, basis 1 odd
MU = GeneratorSymbol("mu", 1, 2)
NU = GeneratorSymbol("nu", 1, 2, 1)
DELTA = GeneratorSymbol("delta", 2, 1, 1)
ETA = GeneratorSymbol("eta", 1, 1, -1)
POINT = GeneratorSymbol("point", 1, 0, 1)
GENERATORS = (MU, NU, DELTA, ETA, POINT)


def dense_fold(lam, mono):
    """Independent evaluator: the dense matrix fold.  Each gap is a signed
    permutation matrix, each layer the Koszul-signed Kronecker product of
    its factors, and successive rows compose."""
    out = perm_action(mono.top.perm, lam.space)
    for layer in mono.layers:
        mats = [identity_map(lam.space) if isinstance(f, UnitFactor) else lam[f]
                for f in layer.factors]
        out = compose(out, functools.reduce(tensor_map, mats))
        out = compose(out, perm_action(layer.below.perm, lam.space))
    return out


def random_homogeneous(rng, g):
    """A random matrix for ``g`` that respects its degree."""
    src = tensor_degrees(SPACE, g.in_arity)
    tgt = tensor_degrees(SPACE, g.out_arity)
    rows = [[rng.randint(-2, 2) if t == s + g.degree else 0 for s in src] for t in tgt]
    return make_map(SPACE, SPACE, rows, source_power=g.in_arity,
                    target_power=g.out_arity, degree=g.degree)


def random_permutation(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


def random_monomial(rng):
    """A random raw term with permutation gaps between its rows and below
    its bottom row."""
    def strip(out_arity):
        parts = []
        remaining = out_arity
        while remaining > 0:
            pool = [g for g in GENERATORS if g.out_arity <= remaining] + ["unit"]
            pick = pool[rng.randrange(len(pool))]
            if pick == "unit":
                parts.append(UnitLeaf())
                remaining -= 1
            else:
                parts.append(Gen(pick))
                remaining -= pick.out_arity
        return tensor(*parts)

    t = VComp(PermLeaf(random_permutation(rng, 2)), strip(2))
    for _ in range(rng.randint(1, 3)):
        m = infer_biarity(t)[1]
        if m == 0 or m > 3:
            break
        t = vcomp(t, PermLeaf(random_permutation(rng, m)), strip(m))
    m = infer_biarity(t)[1]
    return VComp(t, PermLeaf(random_permutation(rng, m))) if m > 1 else t


def test_sparse_evaluation_matches_graded_dense_fold():
    rng = random.Random(101)
    compared = odd_nonzero = permuted = 0
    for _ in range(150):
        lam = structure_map(SPACE, {g: random_homogeneous(rng, g) for g in GENERATORS})
        mono = layerize(random_monomial(rng))
        if max([mono.top.width] + [layer.below.width for layer in mono.layers]) > 4:
            continue
        expected = dense_fold(lam, mono)
        value = eval_term(lam, mono)
        assert value.degree == expected.degree
        assert maps_equal(value, expected)
        # A sum of the monomial and a permuted copy of it, against the
        # dense sum.
        twin = layerize(VComp(PermLeaf(random_permutation(rng, mono.out_arity)), mono))
        rel = linear_term([(Fraction(rng.choice((-2, 1, 3))), mono), (Fraction(1, 2), twin)])
        dense_sum = expected.scale(rel.terms[0][0]).add(dense_fold(lam, twin).scale(Fraction(1, 2)))
        assert maps_equal(eval_term(lam, rel), dense_sum)
        compared += 1
        if not expected.is_zero() and any(g.degree % 2 for g in mono.generators()):
            odd_nonzero += 1
        if mono.layers and not mono.layers[-1].below.perm.is_identity():
            permuted += 1
    # The sample must exercise the graded signs and the permutation gaps.
    assert compared >= 100 and odd_nonzero >= 30 and permuted >= 30, (compared, odd_nonzero, permuted)


def random_rational(rng, g, den):
    """A random matrix for ``g`` that respects its degree, with entries
    over the denominators 1 and ``den``."""
    src = tensor_degrees(SPACE, g.in_arity)
    tgt = tensor_degrees(SPACE, g.out_arity)
    rows = [[Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, den)))
             if t == s + g.degree and rng.random() < 0.7 else 0 for s in src] for t in tgt]
    return make_map(SPACE, SPACE, rows, source_power=g.in_arity,
                    target_power=g.out_arity, degree=g.degree)


def test_sparse_evaluation_scales_rational_tables():
    """Rational generator maps, one denominator per generator, against the
    dense fold: sums with coefficients 1/2 and -2/3, and sums that cancel.
    The relation check reads the same verdict and largest entry off the
    sparse sum."""
    rng = random.Random(202)
    dens = {MU: 2, NU: 3, DELTA: 4, ETA: 1}  # POINT is the zero map
    compared = rational = nonzero = rational_max = 0
    for _ in range(300):
        maps = {g: random_rational(rng, g, den) for g, den in dens.items()}
        maps[POINT] = zero_map(SPACE, 0, SPACE, 1, degree=POINT.degree)
        lam = structure_map(SPACE, maps)
        mono = layerize(random_monomial(rng))
        if max([mono.top.width] + [layer.below.width for layer in mono.layers]) > 4:
            continue
        expected = dense_fold(lam, mono)
        value = eval_term(lam, mono)
        assert value.degree == expected.degree
        assert maps_equal(value, expected)
        twin = layerize(VComp(PermLeaf(random_permutation(rng, mono.out_arity)), mono))
        rel = linear_term([(Fraction(1, 2), mono), (Fraction(-2, 3), twin)])
        dense_sum = expected.scale(Fraction(1, 2)).add(
            dense_fold(lam, twin).scale(Fraction(-2, 3)))
        assert maps_equal(eval_term(lam, rel), dense_sum)
        # -2/3 of the twin plus (1/2 + 1/6) of a copy of it cancels exactly.
        ident = Permutation(tuple(range(1, mono.out_arity + 1)))
        copy = layerize(VComp(PermLeaf(ident), twin))
        cancelling = linear_term([(Fraction(-2, 3), twin), (Fraction(1, 2), copy),
                                  (Fraction(1, 6), copy)])
        zero = eval_term(lam, cancelling)
        assert zero.is_zero() and zero.degree == expected.degree
        checks = check_algebra(lam, Presentation(Signature(tuple(maps)), (rel, cancelling))).checks
        largest = max((abs(v) for row in dense_sum.entries for v in row), default=Fraction(0))
        assert checks[0].passed == dense_sum.is_zero()
        assert checks[0].max_abs_entry == largest
        assert checks[1].passed and checks[1].max_abs_entry == Fraction(0)
        if largest.denominator > 1:
            rational_max += 1
        compared += 1
        if any(v.denominator > 1 for row in value.entries for v in row):
            rational += 1
        if not expected.is_zero():
            nonzero += 1
    assert compared >= 200 and rational >= 25 and nonzero >= 40, (compared, rational, nonzero)
    assert rational_max >= 25, rational_max


def test_raw_term_json_is_its_layered_form():
    rng = random.Random(57)
    signature = Signature(GENERATORS)
    for _ in range(200):
        t = random_monomial(rng)
        mono = layerize(t)
        assert term_from_json(tree_to_json(t, rng), signature) == mono
        assert term_from_json(term_to_json(mono), signature) == mono


def test_graph_dump_golden():
    mono = bialgebra().relations[2].terms[1][1]  # the compatibility rectangle
    # vertex order is bottom-up (grafting numbers the lower graph first);
    # the crossing sends each delta's outputs to the two different mu's.
    expected = "\n".join([
        "graph (2,2)",
        "  v0: delta (2,1)",
        "  v1: delta (2,1)",
        "  v2: mu (1,2)",
        "  v3: mu (1,2)",
        "  ('in', 1) -> ('vi', 0, 1)",
        "  ('in', 2) -> ('vi', 1, 1)",
        "  ('vo', 0, 1) -> ('vi', 2, 1)",
        "  ('vo', 0, 2) -> ('vi', 3, 1)",
        "  ('vo', 1, 1) -> ('vi', 2, 2)",
        "  ('vo', 1, 2) -> ('vi', 3, 2)",
        "  ('vo', 2, 1) -> ('out', 1)",
        "  ('vo', 3, 1) -> ('out', 2)",
    ])
    assert term_to_graph(mono).dump() == expected
    assert dump_graph(mono) == expected


def test_double_homification():
    # Hom-ify the expanded variant on its distinguished subset, then hom-ify
    # the remaining units of the result with fresh names.
    p, plan = as_variant(AsVariant.II1)
    q = homify_typed(p, plan)
    assert len(q.unit_index) == 4
    again = homify_typed(q, HomPlan(tuple(q.labels), (("beta", tuple(q.labels)),)))
    assert "beta" in again.signature
    assert len(again.unit_index) == 0


def test_space_json_negative_degrees():
    space = GradedSpace.from_dims({-1: 1, 0: 2, 3: 1})
    assert space_from_json(space_to_json(space)) == space


def test_associative_algebras_satisfy_the_weaker_families():
    # Associative implies pre-Lie implies Lie-admissible: the dual numbers
    # pass every alternating-sum presentation.
    from homprop.algebra import check_algebra
    from homprop.builtins import SubgroupTag, as_g
    from homprop.corpus import dual_numbers

    base = dual_numbers()
    mu_map = base[as_g(SubgroupTag.E).signature["mu"]]
    for tag in SubgroupTag:
        p = as_g(tag)
        lam = structure_map(base.space, {p.signature["mu"]: mu_map})
        assert check_algebra(lam, p).all_passed(), tag


def test_lie_bracket_satisfies_binary_nambu_and_a3():
    from homprop.algebra import check_algebra
    from homprop.builtins import SubgroupTag, as_g, nambu
    from homprop.corpus import aff1_bracket

    base = aff1_bracket()
    bracket = base[nambu(2)[0].signature["mu"]]
    p = as_g(SubgroupTag.A3)
    lam = structure_map(base.space, {p.signature["mu"]: bracket})
    assert check_algebra(lam, p).all_passed()


def test_tower_relation_counts():
    from homprop.builtins import a_infinity, l_infinity

    for n_max in (1, 2, 3, 4):
        pa, _ = a_infinity(n_max)
        # relation n has one term per (l, k) pair: n(n+1)/2 of them
        assert [len(r.terms) for r in pa.relations] == [
            n * (n + 1) // 2 for n in range(1, n_max + 1)
        ]
        pl, _ = l_infinity(n_max)
        jacobi = pl.relations[-n_max:]
        # relation n sums over i and the (i, n-i)-unshuffles: 2^n - 1 terms
        assert [len(r.terms) for r in jacobi] == [
            2 ** n - 1 for n in range(1, n_max + 1)
        ]


def test_cli_emitted_hom_presentation_verifies(tmp_path):
    import json

    from homprop.algebra import check_algebra
    from homprop.cli import main
    from homprop.corpus import flip_beta, flip_ybe
    from homprop.serialize import (
        algebra_from_json,
        algebra_to_json,
        dumps,
        endomorphism_to_json,
        presentation_from_json,
    )

    algebra = tmp_path / "flip.json"
    algebra.write_text(dumps(algebra_to_json(flip_ybe())))
    beta = tmp_path / "beta.json"
    beta.write_text(dumps(endomorphism_to_json(flip_beta())))
    out = tmp_path / "report.json"
    assert main([
        "yau-twist", "--builtin", "ybe", "--plan", "multiplicative",
        "--algebra", str(algebra), "--beta", str(beta), "--out", str(out),
    ]) == 0
    report = json.loads(out.read_text())
    target = presentation_from_json(report["hom_presentation"])
    twisted = algebra_from_json(
        {"space": {"dims": {"0": 2}}, "maps": report["twisted"]}, target
    )
    assert check_algebra(twisted, target).all_passed()
