import random
from fractions import Fraction

import pytest

from homprop import term
from homprop.perm import Permutation, compose, identity, transposition
from homprop.serialize import ParseError, term_from_json
from homprop.term import (
    UNIT,
    GeneratorSymbol,
    Interlayer,
    Layer,
    LayeredMonomial,
    LinearTerm,
    Signature,
    SubstitutionError,
    VCompArityMismatch,
    index_units,
    monomial_degree,
    substitute,
)

from oracles import (
    Gen,
    PermLeaf,
    Tensor,
    UnitLeaf,
    VComp,
    infer_biarity,
    layerize,
    linear_term,
    tensor,
    tree_from_json,
    tree_to_json,
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


# ---------------------------------------------------------------------------
# layerize against the chain fold it replaced: every leaf became a validated
# LayeredMonomial, and every binary Tensor and every VComp run built and
# validated a new one.


def ref_merge_gaps(upper, lower):
    perm = compose(upper.perm, lower.perm)
    inv = lower.perm.inverse()
    carried = {inv(s) for s in upper.marks}
    return Interlayer(perm, tuple(sorted(carried | set(lower.marks))))


def ref_vcomp_chains(chains):
    for a, b in reversed(list(zip(chains, chains[1:]))):
        if a.in_arity != b.out_arity:
            raise VCompArityMismatch(a.in_arity, b.out_arity)
    top, layers = chains[0].top, list(chains[0].layers)
    for c in chains[1:]:
        if layers:
            last = layers[-1]
            layers[-1] = Layer(last.factors, ref_merge_gaps(last.below, c.top))
        else:
            top = ref_merge_gaps(top, c.top)
        layers.extend(c.layers)
    return LayeredMonomial(top, tuple(layers))


def block_sum(p, q):
    """``p`` acting on the first block of slots, ``q`` shifted after it."""
    return Permutation(p.images + tuple(q(i) + p.n for i in range(1, q.n + 1)))


def test_block_sum():
    p = Permutation((2, 1))
    q = Permutation((1, 3, 2))
    assert block_sum(p, q) == Permutation((2, 1, 3, 5, 4))


def ref_join_gaps(left, right):
    perm = block_sum(left.perm, right.perm)
    marks = left.marks + tuple(s + left.width for s in right.marks)
    return Interlayer(perm, tuple(sorted(marks)))


def ref_pad_chain(c, k):
    if len(c.layers) == k:
        return c
    if not c.layers:
        w = c.top.width
        rows = tuple(Layer((UNIT,) * w, Interlayer(identity(w))) for _ in range(k))
        return LayeredMonomial(Interlayer(c.top.perm), rows)
    w = c.in_arity
    pads = tuple(
        Layer((UNIT,) * w, Interlayer(identity(w))) for _ in range(k - len(c.layers))
    )
    return LayeredMonomial(c.top, c.layers + pads)


def ref_tensor_chains(a, b):
    k = max(len(a.layers), len(b.layers))
    a, b = ref_pad_chain(a, k), ref_pad_chain(b, k)
    top = ref_join_gaps(a.top, b.top)
    layers = tuple(
        Layer(la.factors + lb.factors, ref_join_gaps(la.below, lb.below))
        for la, lb in zip(a.layers, b.layers)
    )
    return LayeredMonomial(top, layers)


def ref_leaf_chain(t):
    if isinstance(t, LayeredMonomial):
        return t
    if isinstance(t, Gen):
        g = t.symbol
        return LayeredMonomial(
            Interlayer(identity(g.out_arity)),
            (Layer((g,), Interlayer(identity(g.in_arity))),),
        )
    if isinstance(t, UnitLeaf):
        return LayeredMonomial(Interlayer(identity(1), (1,)), ())
    if isinstance(t, PermLeaf):
        return LayeredMonomial(Interlayer(t.perm), ())
    raise TypeError(f"not a term: {t!r}")


def ref_layerize(t):
    spine = []
    while isinstance(t, (Tensor, VComp)):
        is_tensor = isinstance(t, Tensor)
        part = ref_layerize(t.left if is_tensor else t.upper)
        if is_tensor or not spine or spine[-1][0]:
            spine.append((is_tensor, [part]))
        else:
            spine[-1][1].append(part)
        t = t.right if is_tensor else t.lower
    out = ref_leaf_chain(t)
    for is_tensor, parts in reversed(spine):
        out = ref_tensor_chains(parts[0], out) if is_tensor else ref_vcomp_chains(parts + [out])
    return out


ORACLE_GENS = [
    MU, DELTA, B, ALPHA,
    GeneratorSymbol("eps", 0, 1),
    GeneratorSymbol("eta", 1, 0),
    GeneratorSymbol("odd", 1, 1, 1),
    GeneratorSymbol("odd3", 2, 1, 3),
]
NON_TERMS = [None, 7, "mu", MU, identity(2), (UnitLeaf(),)]


def oracle_piece(rng, room, depth):
    """A leaf with at most ``room`` outputs (a generator, a unit, a
    permutation, a layered monomial or, rarely, a non-term) and its biarity."""
    r = rng.random()
    if r < 0.01:
        return rng.choice(NON_TERMS), (0, 0)
    if r < 0.2 and room:
        return UnitLeaf(), (1, 1)
    if r < 0.32:
        images = list(range(1, rng.randint(0, min(room, 3)) + 1))
        rng.shuffle(images)
        return PermLeaf(Permutation(tuple(images))), (len(images), len(images))
    if r < 0.4 and depth > 0 and room:
        t, (n, m) = oracle_term(rng, rng.randint(1, room), depth - 1, mismatches=0)
        try:
            return layerize(t), (n, m)
        except (TypeError, VCompArityMismatch):
            pass
    g = rng.choice([g for g in ORACLE_GENS if g.out_arity <= room])
    return Gen(g), (g.out_arity, g.in_arity)


def oracle_strip(rng, n, depth):
    """A right-nested tensor of leaves with ``n`` outputs in all."""
    parts, inputs, remaining = [], 0, n
    while remaining > 0 or not parts or rng.random() < 0.1:
        leaf, (out, inp) = oracle_piece(rng, remaining, depth)
        parts.append(leaf)
        inputs += inp
        remaining -= out
    return tensor(*parts), (n - remaining, inputs)


def oracle_term(rng, n, depth, mismatches=0.1):
    """A random term with about ``n`` outputs and its biarity, where each
    vcomp junction is off by one with probability ``mismatches``."""
    kind = rng.random() if depth > 0 else 1.0
    if kind < 0.3:
        a = rng.randint(0, n)
        left, (ln, lm) = oracle_term(rng, a, depth - 1, mismatches)
        right, (rn, rm) = oracle_term(rng, n - a, depth - 1, mismatches)
        return Tensor(left, right), (ln + rn, lm + rm)
    if kind < 0.7:
        parts = [oracle_term(rng, n, depth - 1, mismatches)]
        for _ in range(rng.randint(1, 4)):
            want = parts[-1][1][1]
            if rng.random() < mismatches:
                want = want + 1 if want == 0 or rng.random() < 0.5 else want - 1
            parts.append(oracle_term(rng, want, depth - 1, mismatches))
        nested = vcomp(*(t for t, _ in parts))
        if len(parts) > 2 and rng.random() < 0.3:
            nested = VComp(VComp(parts[0][0], parts[1][0]), vcomp(*(t for t, _ in parts[2:])))
        return nested, (parts[0][1][0], parts[-1][1][1])
    return oracle_strip(rng, n, depth)


def layerize_outcome(f, t):
    """The layered form, or the exception's type, message and arities."""
    try:
        return f(t)
    except VCompArityMismatch as e:
        return VCompArityMismatch, str(e), e.expected, e.found
    except Exception as e:
        return type(e), str(e)


def test_layerize_matches_the_chain_fold():
    rng = random.Random(13)
    seen = {}
    for i in range(3200):
        t, _ = oracle_term(rng, rng.randint(0, 4), rng.randint(0, 4))
        if i % 50 == 0:
            t = rng.choice(NON_TERMS)
        want = layerize_outcome(ref_layerize, t)
        assert layerize_outcome(layerize, t) == want
        kind = "ok" if isinstance(want, LayeredMonomial) else want[0]
        seen[kind] = seen.get(kind, 0) + 1
    assert seen.keys() == {"ok", TypeError, VCompArityMismatch}
    assert min(seen.values()) >= 100


def test_layerize_reports_the_lowest_mismatch_of_a_run():
    # Each junction of the run is off: (expected, found) is (2, 1), (1, 2), (2, 3).
    run = vcomp(Gen(MU), Gen(ALPHA), Gen(B), tensor(UnitLeaf(), UnitLeaf(), UnitLeaf()))
    for f in (layerize, ref_layerize):
        with pytest.raises(VCompArityMismatch) as exc:
            f(run)
        assert (exc.value.expected, exc.value.found) == (2, 3)
    rng = random.Random(113)
    multi = 0
    for _ in range(300):
        parts = [oracle_term(rng, rng.randint(0, 3), 1, mismatches=0) for _ in range(5)]
        multi += sum(a[1][1] != b[1][0] for a, b in zip(parts, parts[1:])) >= 2
        t = vcomp(*(t for t, _ in parts))
        assert layerize_outcome(layerize, t) == layerize_outcome(ref_layerize, t)
    assert multi >= 100


def test_builders_make_the_leaves_and_need_a_part():
    for g in ORACLE_GENS:
        assert term.generator(g) == ref_leaf_chain(Gen(g))
    assert term.unit() == ref_leaf_chain(UnitLeaf())
    for images in ((), (1,), (3, 1, 2)):
        p = Permutation(images)
        assert term.permutation(p) == ref_leaf_chain(PermLeaf(p))
    for compose_parts in (term.tensor, term.vcomp):
        with pytest.raises(ValueError, match="needs at least one part"):
            compose_parts()


BAD_NODES = [{"wat": 1}, {"gen": "nope"}, {"gen": ["mu"]}, {"unit": 0}, {"perm": [1, 1]},
             {"perm": [1.0]}, {"tensor": []}, {"vcomp": {}}, [], {"gen": "mu", "unit": True}]


def corrupt(rng, data):
    """``data`` with one node, picked at random, replaced by a malformed one."""
    slots, todo = [], [data]
    while todo:
        for value in todo.pop().values():
            if isinstance(value, list) and value and isinstance(value[0], dict):
                slots += [(value, i) for i in range(len(value))]
                todo += value
    if not slots:
        return rng.choice(BAD_NODES)
    nodes, i = rng.choice(slots)
    nodes[i] = rng.choice(BAD_NODES)
    return data


def test_reading_json_matches_the_tree_reader():
    # The reader goes straight to chains; the reference reads the whole tree,
    # checking every node, and only then layers it.  Outcomes, errors and
    # their ranking included, must agree.
    signature = Signature(tuple(ORACLE_GENS))
    rng = random.Random(17)
    seen = {}
    for _ in range(2400):
        t, _ = oracle_term(rng, rng.randint(0, 4), rng.randint(0, 4))
        try:
            data = tree_to_json(t, rng)
        except TypeError:
            continue
        if rng.random() < 0.3:
            data = corrupt(rng, data)
        want = layerize_outcome(lambda d: layerize(tree_from_json(d, signature)), data)
        assert layerize_outcome(lambda d: term_from_json(d, signature), data) == want
        kind = "ok" if isinstance(want, LayeredMonomial) else want[0]
        seen[kind] = seen.get(kind, 0) + 1
    assert seen.keys() == {"ok", ParseError, ValueError, VCompArityMismatch}
    assert min(seen.values()) >= 50, seen


def test_parsing_builds_each_monomial_once(monkeypatch):
    from homprop.builtins import builtin
    from homprop.serialize import presentation_from_json, presentation_to_json

    p, _ = builtin("linf:5")
    data = presentation_to_json(p)
    built = []
    post_init = LayeredMonomial.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(LayeredMonomial, "__post_init__", counting)
    q = presentation_from_json(data)
    monomials = [m for rel in q.relations for _, m in rel.terms]
    assert len(monomials) == 353
    assert len(built) == 353
    assert q == p


def test_wide_row_is_independent_of_bracketing():
    rng = random.Random(2000)
    parts = []
    for _ in range(2000):
        r = rng.random()
        if r < 0.2:
            parts.append(UnitLeaf())
        elif r < 0.3:
            parts.append(PermLeaf(transposition(2, 1, 2)))
        else:
            parts.append(Gen(rng.choice(ORACLE_GENS)))
    left = parts[0]
    for part in parts[1:]:
        left = Tensor(left, part)
    m = layerize(tensor(*parts))
    assert layerize(left) == m
    assert monomial_degree(m) == 1
    assert len(m.layers[0].factors) == sum(2 if isinstance(t, PermLeaf) else 1 for t in parts)
