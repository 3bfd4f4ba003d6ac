import random
from fractions import Fraction

import pytest

from homprop.perm import Permutation, identity, transposition
from homprop.term import (
    UNIT,
    Gen,
    GeneratorSymbol,
    LinearTerm,
    PermLeaf,
    Signature,
    Signature,
    SubstitutionError,
    Tensor,
    UnitLeaf,
    VComp,
    VCompArityMismatch,
    index_units,
    infer_biarity,
    layerize,
    linear_term,
    monomial_degree,
    substitute,
    tensor,
    vcomp,
)

MU = GeneratorSymbol("mu", 1, 2)
DELTA = GeneratorSymbol("delta", 2, 1)
B = GeneratorSymbol("braiding", 2, 2)
ALPHA = GeneratorSymbol("alpha", 1, 1)


def test_infer_biarity_examples():
    assert infer_biarity(UnitLeaf()) == (1, 1)
    assert infer_biarity(VComp(Gen(MU), Tensor(UnitLeaf(), Gen(MU)))) == (1, 3)
    with pytest.raises(VCompArityMismatch) as exc:
        infer_biarity(VComp(Gen(MU), Gen(MU)))
    assert exc.value.expected == 2
    assert exc.value.found == 1
    assert exc.value.subterm is not None


def test_infer_biarity_perm_and_tensor():
    assert infer_biarity(PermLeaf(identity(3))) == (3, 3)
    assert infer_biarity(Tensor(Gen(MU), Gen(DELTA))) == (3, 3)


def test_layerize_right_unit_padding():
    m = layerize(VComp(Gen(MU), Tensor(UnitLeaf(), Gen(MU))))
    assert monomial_degree(m) == 2
    assert m.top.perm.is_identity() and not m.top.marks
    assert m.layers[0].factors == (MU,)
    assert m.layers[1].factors == (UNIT, MU)
    assert m.biarity == (1, 3)


def test_layerize_compatibility_shape():
    # (mu (x) mu) . (2 3) . (delta (x) delta)
    t = vcomp(
        Tensor(Gen(MU), Gen(MU)),
        PermLeaf(transposition(4, 2, 3)),
        Tensor(Gen(DELTA), Gen(DELTA)),
    )
    m = layerize(t)
    assert monomial_degree(m) == 2
    assert m.layers[0].factors == (MU, MU)
    assert m.layers[0].below.perm == transposition(4, 2, 3)
    assert m.layers[1].factors == (DELTA, DELTA)
    assert m.biarity == (2, 2)


def test_layerize_interchange_strict():
    a, b, c, d = (GeneratorSymbol(n, 1, 1) for n in "abcd")
    lhs = Tensor(VComp(Gen(a), Gen(c)), VComp(Gen(b), Gen(d)))
    rhs = VComp(Tensor(Gen(a), Gen(b)), Tensor(Gen(c), Gen(d)))
    assert layerize(lhs) == layerize(rhs)


def test_layerize_idempotent():
    m = layerize(VComp(Gen(MU), Tensor(UnitLeaf(), Gen(MU))))
    assert layerize(m) == m


def test_layerize_pure_vertical_unit_string_becomes_marks():
    # mu . (mu (x) 1) . (1 (x) 1 (x) 1): the bottom unit row decorates the gap.
    t = vcomp(
        Gen(MU),
        Tensor(Gen(MU), UnitLeaf()),
        tensor(UnitLeaf(), UnitLeaf(), UnitLeaf()),
    )
    m = layerize(t)
    assert monomial_degree(m) == 2
    assert m.layers[1].below.marks == (1, 2, 3)
    assert m.layers[1].factors == (MU, UNIT)


def test_layerize_top_unit_becomes_top_mark():
    t = vcomp(UnitLeaf(), Gen(MU), Tensor(Gen(MU), UnitLeaf()))
    m = layerize(t)
    assert monomial_degree(m) == 2
    assert m.top.marks == (1,)


def test_layerize_pure_permutation():
    p = Permutation((2, 3, 1))
    m = layerize(PermLeaf(p))
    assert monomial_degree(m) == 0
    assert m.top.perm == p


def test_monomial_degree_examples():
    assert monomial_degree(layerize(Gen(MU))) == 1
    ybe_mono = vcomp(
        Tensor(UnitLeaf(), Gen(B)),
        Tensor(Gen(B), UnitLeaf()),
        Tensor(UnitLeaf(), Gen(B)),
    )
    assert monomial_degree(layerize(ybe_mono)) == 3


def test_index_units_counts():
    from homprop.builtins import SubgroupTag, as_g, bialgebra, nambu

    assert len(as_g(SubgroupTag.E).unit_index) == 2
    assert len(bialgebra().unit_index) == 4
    assert len(nambu(3)[0].unit_index) == 8


def test_index_units_ordering():
    rel = linear_term([
        (1, vcomp(Gen(MU), Tensor(UnitLeaf(), Gen(MU)))),
        (-1, vcomp(Gen(MU), Tensor(Gen(MU), UnitLeaf()))),
    ])
    occs = index_units([rel])
    assert [o.label for o in occs] == [1, 2]
    assert occs[0].monomial_index == 0 and occs[0].slot_index == 1
    assert occs[1].monomial_index == 1 and occs[1].slot_index == 2
    # factor rows are odd row numbers
    assert occs[0].layer_index == 3  # layer 2 factors


def test_substitute_units_with_alpha():
    rel = linear_term([
        (1, vcomp(Gen(MU), Tensor(Gen(MU), UnitLeaf()))),
        (-1, vcomp(Gen(MU), Tensor(UnitLeaf(), Gen(MU)))),
    ])
    occs = index_units([rel])
    hom = substitute(rel, {o: ALPHA for o in occs})
    expected = linear_term([
        (1, vcomp(Gen(MU), Tensor(Gen(MU), Gen(ALPHA)))),
        (-1, vcomp(Gen(MU), Tensor(Gen(ALPHA), Gen(MU)))),
    ])
    assert hom == expected


def test_substitute_empty_assignment_is_identity():
    rel = linear_term([(1, vcomp(Gen(MU), Tensor(Gen(MU), UnitLeaf())))])
    assert substitute(rel, {}) == rel


def test_substitute_gap_marks_materialize_layer():
    t = vcomp(
        Gen(MU),
        Tensor(Gen(MU), UnitLeaf()),
        tensor(UnitLeaf(), UnitLeaf(), UnitLeaf()),
    )
    rel = linear_term([(1, t)])
    occs = index_units([rel])
    assert len(occs) == 4
    # replace the first two bottom-row units (labels 2 and 3)
    out = substitute(rel, {occs[1]: ALPHA, occs[2]: ALPHA})
    mono = out.terms[0][1]
    assert monomial_degree(mono) == 3
    assert mono.layers[2].factors == (ALPHA, ALPHA, UNIT)
    assert mono.layers[1].below.marks == ()


def test_substitute_top_mark():
    t = vcomp(UnitLeaf(), Gen(MU), Tensor(Gen(MU), UnitLeaf()))
    rel = linear_term([(1, t)])
    occs = index_units([rel])
    out = substitute(rel, {occs[0]: ALPHA})
    mono = out.terms[0][1]
    assert monomial_degree(mono) == 3
    assert mono.layers[0].factors == (ALPHA,)


def test_substitute_symbol_rename_roundtrip():
    mu2 = GeneratorSymbol("mult", 1, 2)
    rel = linear_term([(1, vcomp(Gen(MU), Tensor(Gen(MU), UnitLeaf())))])
    renamed = substitute(rel, {MU: mu2})
    back = substitute(renamed, {mu2: MU})
    assert back == rel


def test_substitute_generator_to_unit_requires_11():
    rel = linear_term([(1, vcomp(Gen(MU), Tensor(Gen(ALPHA), Gen(MU))))])
    out = substitute(rel, {ALPHA: UNIT})
    assert out.terms[0][1].layers[1].factors == (UNIT, MU)
    with pytest.raises(SubstitutionError):
        substitute(rel, {MU: UNIT})


def test_substitute_unit_with_wrong_biarity_rejected():
    rel = linear_term([(1, vcomp(Gen(MU), Tensor(UnitLeaf(), Gen(MU))))])
    occs = index_units([rel])
    with pytest.raises(SubstitutionError):
        substitute(rel, {occs[0]: MU})


def test_linear_term_mixed_biarity_rejected():
    with pytest.raises(ValueError):
        LinearTerm((
            (Fraction(1), layerize(Gen(MU))),
            (Fraction(1), layerize(Gen(DELTA))),
        ))


# ---------------------------------------------------------------------------
# Random well-typed terms for property tests.

LEAF_GENS = [
    GeneratorSymbol("mu", 1, 2),
    GeneratorSymbol("delta", 2, 1),
    GeneratorSymbol("eta", 1, 1),
    GeneratorSymbol("braiding", 2, 2),
]


def random_strip(rng, out_arity):
    """A horizontal strip of leaves with the given total out-arity."""
    parts = []
    remaining = out_arity
    while remaining > 0:
        options = [g for g in LEAF_GENS if g.out_arity <= remaining]
        choice = rng.randrange(len(options) + 2)
        if choice == len(options):
            parts.append(UnitLeaf())
            remaining -= 1
        elif choice == len(options) + 1:
            w = rng.randint(1, remaining)
            images = list(range(1, w + 1))
            rng.shuffle(images)
            parts.append(PermLeaf(Permutation(tuple(images))))
            remaining -= w
        else:
            g = options[choice]
            parts.append(Gen(g))
            remaining -= g.out_arity
    return tensor(*parts)


def random_term(rng, depth):
    if depth == 0:
        return random_strip(rng, rng.randint(1, 3))
    kind = rng.random()
    left = random_term(rng, depth - 1)
    if kind < 0.45:
        right = random_term(rng, depth - 1)
        return Tensor(left, right)
    if kind < 0.9:
        _, m = infer_biarity(left)
        return VComp(left, random_strip(rng, m))
    return left


def test_layerize_preserves_biarity_random():
    rng = random.Random(5)
    for _ in range(200):
        t = random_term(rng, rng.randint(0, 5))
        n, m = infer_biarity(t)
        lm = layerize(t)
        assert lm.biarity == (n, m)


def test_layerize_reassociation_invariant():
    # Right- vs left-associated tensors and vcomps give identical forms.
    rng = random.Random(9)
    for _ in range(100):
        a = random_term(rng, 1)
        b = random_term(rng, 1)
        c = random_term(rng, 1)
        left = Tensor(Tensor(a, b), c)
        right = Tensor(a, Tensor(b, c))
        assert layerize(left) == layerize(right)
    s1 = random_strip(rng, 2)
    n1, m1 = infer_biarity(s1)
    s2 = random_strip(rng, m1)
    _, m2 = infer_biarity(s2)
    s3 = random_strip(rng, m2)
    assert layerize(VComp(VComp(s1, s2), s3)) == layerize(VComp(s1, VComp(s2, s3)))
