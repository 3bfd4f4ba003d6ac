import itertools
import random

import pytest

from homprop.builtins import BUILTIN_NAMES, builtin
from homprop.graphprop import dump_graph, monomial_key
from homprop.perm import Permutation, transposition
from homprop.presentation import (
    apply_substitution_to_relations,
    homify_multiplicative,
    homify_typed,
    projection_pi,
    theta_max,
)
from homprop import term
from homprop.term import (
    UNIT,
    GeneratorSymbol,
    Interlayer,
    Layer,
    LayeredMonomial,
    UnitFactor,
)

from oracles import (
    DecoratedGraph,
    Gen,
    GraftMismatch,
    PermLeaf,
    Tensor,
    UnitLeaf,
    VComp,
    canonical_key,
    corolla,
    disjoint_union,
    exceptional,
    graft,
    isomorphic,
    permutation_graph,
    ref_monomial_key,
    same_partition,
    term_to_graph,
    vcomp,
)

MU = GeneratorSymbol("mu", 1, 2)
DELTA = GeneratorSymbol("delta", 2, 1)
ALPHA = GeneratorSymbol("alpha", 1, 1)


def brute_force_isomorphic(a: DecoratedGraph, b: DecoratedGraph) -> bool:
    """Independent oracle: try every vertex bijection and compare edge sets."""
    if (a.n_in, a.n_out) != (b.n_in, b.n_out):
        return False
    n = len(a.decorations)
    if n != len(b.decorations):
        return False
    for perm in itertools.permutations(range(n)):
        if any(a.decorations[v] != b.decorations[perm[v]] for v in range(n)):
            continue

        def rename(e, perm=perm):
            if e[0] in ("vo", "vi"):
                return (e[0], perm[e[1]], e[2])
            return e

        if {(rename(x), rename(y)) for x, y in a.edges} == set(b.edges):
            return True
    return False


def test_corolla_shapes():
    g = corolla(MU)
    assert (g.n_out, g.n_in) == (1, 2)
    assert len(g.edges) == 3
    assert corolla(ALPHA).n_in == 1
    d = corolla(DELTA)
    assert (d.n_out, d.n_in) == (2, 1)


def test_disjoint_union_neutral_and_arities():
    g = corolla(MU)
    assert disjoint_union(exceptional(0), g) == g
    both = disjoint_union(g, g)
    assert (both.n_out, both.n_in) == (2, 4)
    assert len(both.decorations) == 2
    strand_plus = disjoint_union(exceptional(1), corolla(MU))
    assert (strand_plus.n_out, strand_plus.n_in) == (2, 3)


def test_disjoint_union_associative_up_to_iso():
    g1, g2, g3 = corolla(MU), corolla(DELTA), exceptional(1)
    l = disjoint_union(disjoint_union(g1, g2), g3)
    r = disjoint_union(g1, disjoint_union(g2, g3))
    assert l == r  # strictly equal with ordered ports


def test_graft_identities():
    g = corolla(MU)
    assert graft(exceptional(1), g) == g
    assert graft(g, exceptional(2)) == g
    with pytest.raises(GraftMismatch):
        graft(corolla(MU), corolla(MU))


def test_graft_builds_the_two_level_tree():
    tree = graft(corolla(MU), disjoint_union(exceptional(1), corolla(MU)))
    assert (tree.n_out, tree.n_in) == (1, 3)
    assert len(tree.decorations) == 2
    graph_term = term_to_graph(VComp(Gen(MU), Tensor(UnitLeaf(), Gen(MU))))
    assert isomorphic(tree, graph_term) is not None


def test_term_to_graph_left_vs_right_not_isomorphic():
    left = term_to_graph(VComp(Gen(MU), Tensor(UnitLeaf(), Gen(MU))))
    right = term_to_graph(VComp(Gen(MU), Tensor(Gen(MU), UnitLeaf())))
    assert isomorphic(left, right) is None
    assert not brute_force_isomorphic(left, right)


def test_term_to_graph_pure_permutation():
    p = Permutation((2, 3, 1))
    g = term_to_graph(PermLeaf(p))
    assert g == permutation_graph(p.images)
    assert len(g.decorations) == 0


def test_term_to_graph_compatibility_monomial():
    t = vcomp(
        Tensor(Gen(MU), Gen(MU)),
        PermLeaf(transposition(4, 2, 3)),
        Tensor(Gen(DELTA), Gen(DELTA)),
    )
    g = term_to_graph(t)
    assert (g.n_out, g.n_in) == (2, 2)
    assert len(g.decorations) == 4
    # the crossing: output 2 of the first delta feeds the second mu
    assert brute_force_isomorphic(g, g)


def graft_chain(mono: LayeredMonomial) -> DecoratedGraph:
    """Reference lowering: one graph per row and per gap, grafted from the
    top down."""
    g = permutation_graph(mono.top.perm.images)
    for layer in mono.layers:
        row = exceptional(0)
        for f in layer.factors:
            row = disjoint_union(row, exceptional(1) if isinstance(f, UnitFactor) else corolla(f))
        g = graft(graft(g, row), permutation_graph(layer.below.perm.images))
    return g


WALK_GENS = [MU, DELTA, ALPHA, GeneratorSymbol("braiding", 2, 2),
             GeneratorSymbol("z", 0, 0), GeneratorSymbol("eps", 0, 1),
             GeneratorSymbol("eta", 1, 0), GeneratorSymbol("d", 1, 1, 1),
             GeneratorSymbol("m3", 1, 3, -1)]


def random_gap(rng: random.Random, width: int) -> Interlayer:
    images = list(range(1, width + 1))
    rng.shuffle(images)
    marks = tuple(s for s in range(1, width + 1) if rng.random() < 0.2)
    return Interlayer(Permutation(tuple(images)), marks)


def random_monomial(rng: random.Random) -> LayeredMonomial:
    """A layered monomial of 0..4 layers: units, zero-arity and odd-degree
    generators, random permutation gaps and marks."""
    width = rng.randint(0, 3)
    top = random_gap(rng, width)
    layers = []
    for _ in range(rng.randint(0, 4)):
        factors = []
        left = width
        while left > 0 or not factors or rng.random() < 0.15:
            pool = [UNIT] * (left > 0) + [g for g in WALK_GENS if g.out_arity <= left]
            f = rng.choice(pool)
            factors.append(f)
            left -= 1 if f is UNIT else f.out_arity
        rng.shuffle(factors)
        width = sum(1 if f is UNIT else f.in_arity for f in factors)
        layers.append(Layer(tuple(factors), random_gap(rng, width)))
    return LayeredMonomial(top, tuple(layers))


def walk_monomials() -> list[LayeredMonomial]:
    """600 seeded random monomials, then every monomial of the round-trip
    builtins, their theta_max and multiplicative hom-ifications and the pi
    projection of the former."""
    rng = random.Random(77)
    monomials = [random_monomial(rng) for _ in range(600)]
    assert any(not m.layers for m in monomials)
    for name in ("linf:5", "ainf:7", "nambu:4", "bialgebra", "ybe"):
        p, _ = builtin(name)
        q = homify_typed(p, theta_max(p.labels))
        back = apply_substitution_to_relations(q.relations, projection_pi(q, "pi"))
        for rels in (p.relations, q.relations, homify_multiplicative(p).relations, back):
            monomials.extend(mono for rel in rels for _, mono in rel.terms)
    return monomials


def test_term_to_graph_matches_graft_chain():
    for mono in walk_monomials():
        got, want = term_to_graph(mono), graft_chain(mono)
        assert got == want
        assert got.dump() == want.dump()


def key_or_error(key, x):
    try:
        return key(x)
    except ValueError as e:
        return (type(e), str(e))


def test_monomial_key_is_the_key_of_the_graph():
    closed = 0
    for mono in walk_monomials():
        want = key_or_error(lambda m: canonical_key(term_to_graph(m)), mono)
        assert key_or_error(monomial_key, mono) == want
        closed += isinstance(want[0], type)
    assert closed > 0  # the random monomials include closed components


def test_monomial_key_equality_agrees_with_the_reference():
    monomials = walk_monomials()
    keys = [key_or_error(monomial_key, m) for m in monomials]
    refs = [key_or_error(ref_monomial_key, m) for m in monomials]
    assert same_partition(keys, refs)
    assert [isinstance(k[0], type) for k in keys] == [isinstance(r[0], type) for r in refs]
    distinct = {k for k in keys if not isinstance(k[0], type)}
    assert len(distinct) > 100
    sorted(distinct)  # totally ordered
    for (n_out, n_in), decorations, ports in distinct:
        assert all(type(e) is int for e in ports)
        assert len(ports) == n_in + sum(out for _, out, _, _ in decorations)


def test_monomial_key_refuses_a_closed_component():
    mono = term.vcomp(term.generator(EPS), term.generator(ETA))
    with pytest.raises(ValueError, match="without boundary ports") as by_graph:
        canonical_key(term_to_graph(mono))
    with pytest.raises(ValueError, match="without boundary ports") as by_walk:
        monomial_key(mono)
    assert str(by_walk.value) == str(by_graph.value)


def test_isomorphic_reflexive_and_rebuilt():
    g = term_to_graph(VComp(Gen(MU), Tensor(UnitLeaf(), Gen(MU))))
    assert isomorphic(g, g) == {0: 0, 1: 1}
    # Same tree assembled with the opposite vertex order.
    rebuilt = DecoratedGraph(
        1, 3, (MU, MU),
        frozenset({
            (("vo", 1, 1), ("out", 1)),
            (("in", 1), ("vi", 1, 1)),
            (("vo", 0, 1), ("vi", 1, 2)),
            (("in", 2), ("vi", 0, 1)),
            (("in", 3), ("vi", 0, 2)),
        }),
    )
    found = isomorphic(g, rebuilt)
    assert found is not None
    assert brute_force_isomorphic(g, rebuilt)


def test_isomorphism_respects_port_order():
    # mu with inputs crossed is distinct from mu with straight inputs.
    straight = term_to_graph(Gen(MU))
    crossed = term_to_graph(VComp(Gen(MU), PermLeaf(Permutation((2, 1)))))
    assert isomorphic(straight, crossed) is None


def test_interchange_at_graph_level():
    a, b, c, d = (GeneratorSymbol(n, 1, 1) for n in "abcd")
    lhs = term_to_graph(Tensor(VComp(Gen(a), Gen(c)), VComp(Gen(b), Gen(d))))
    rhs = term_to_graph(VComp(Tensor(Gen(a), Gen(b)), Tensor(Gen(c), Gen(d))))
    assert isomorphic(lhs, rhs) is not None


def test_unit_padding_graphs_isomorphic():
    # 1 (x) (mu . (mu (x) 1)) built two ways
    inner = VComp(Gen(MU), Tensor(Gen(MU), UnitLeaf()))
    padded = Tensor(UnitLeaf(), inner)
    expanded = VComp(
        Tensor(UnitLeaf(), Gen(MU)),
        Tensor(UnitLeaf(), Tensor(Gen(MU), UnitLeaf())),
    )
    assert isomorphic(term_to_graph(padded), term_to_graph(expanded)) is not None


def test_interchange_rewrites_of_random_terms_lower_identically():
    # Build random four-part rectangles, write them both ways, wrap them in
    # random context, and check the graphs agree.
    from oracles import infer_biarity, tensor as tensor_term

    rng = random.Random(31)
    gens = [MU, DELTA, ALPHA, GeneratorSymbol("braiding", 2, 2)]

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
        return tensor_term(*parts)

    for _ in range(60):
        a = strip(rng.randint(1, 2))
        b = strip(rng.randint(1, 2))
        c = strip(infer_biarity(a)[1])
        d = strip(infer_biarity(b)[1])
        one_way = VComp(Tensor(a, b), Tensor(c, d))
        other_way = Tensor(VComp(a, c), VComp(b, d))
        if rng.random() < 0.5:
            extra = strip(1)
            one_way, other_way = Tensor(extra, one_way), Tensor(extra, other_way)
        assert isomorphic(term_to_graph(one_way), term_to_graph(other_way)) is not None


def test_interchange_rule_random_graphs():
    # graft(du(a,b), du(c,d)) ~ du(graft(a,c), graft(b,d)) whenever arities meet
    rng = random.Random(17)
    gens = [MU, DELTA, ALPHA, GeneratorSymbol("braiding", 2, 2)]

    def random_piece():
        g = corolla(gens[rng.randrange(len(gens))])
        if rng.random() < 0.3:
            g = disjoint_union(g, exceptional(rng.randint(1, 2)))
        return g

    for _ in range(60):
        c, d = random_piece(), random_piece()
        a = disjoint_union(corolla(ALPHA), exceptional(c.n_out - 1))
        b = disjoint_union(exceptional(d.n_out - 1), corolla(ALPHA))
        lhs = graft(disjoint_union(a, b), disjoint_union(c, d))
        rhs = disjoint_union(graft(a, c), graft(b, d))
        assert isomorphic(lhs, rhs) is not None


def test_graft_never_creates_cycles_random():
    rng = random.Random(3)
    pieces = [corolla(MU), corolla(DELTA), corolla(ALPHA), exceptional(1), exceptional(2)]
    for _ in range(100):
        g = pieces[rng.randrange(len(pieces))]
        for _ in range(rng.randint(1, 4)):
            h = pieces[rng.randrange(len(pieces))]
            # pad with strands to make the graft legal
            if h.n_out < g.n_in:
                h = disjoint_union(h, exceptional(g.n_in - h.n_out))
            elif h.n_out > g.n_in:
                g = disjoint_union(g, exceptional(h.n_out - g.n_in))
            g = graft(g, h)  # validation runs in the constructor


def test_cycle_detection_rejects_manual_cycle():
    loop_gen = GeneratorSymbol("f", 1, 1)
    with pytest.raises(ValueError):
        DecoratedGraph(
            0, 0, (loop_gen, loop_gen),
            frozenset({
                (("vo", 0, 1), ("vi", 1, 1)),
                (("vo", 1, 1), ("vi", 0, 1)),
            }),
        )


@pytest.mark.parametrize("edges, message", [
    # input 2 unused, input 1 used twice
    ({(("in", 1), ("vi", 0, 1)), (("in", 1), ("vi", 0, 2)), (("vo", 0, 1), ("out", 1))},
     "initial endpoints"),
    # output port 2 of a (1,2) vertex does not exist
    ({(("in", 1), ("vi", 0, 1)), (("in", 2), ("vi", 0, 2)), (("vo", 0, 2), ("out", 1))},
     "initial endpoints"),
    # vertex input 2 fed twice over, input 1 never
    ({(("in", 1), ("vi", 0, 2)), (("in", 2), ("vi", 0, 2)), (("vo", 0, 1), ("out", 1))},
     "terminal endpoints"),
    # graph output 1 left open
    ({(("in", 1), ("vi", 0, 1)), (("in", 2), ("vi", 0, 2))}, "initial endpoints"),
])
def test_validation_refuses_bad_endpoints(edges, message):
    with pytest.raises(ValueError, match=message):
        DecoratedGraph(1, 2, (MU,), frozenset(edges))
    good = {(("in", 1), ("vi", 0, 1)), (("in", 2), ("vi", 0, 2)), (("vo", 0, 1), ("out", 1))}
    assert DecoratedGraph(1, 2, (MU,), frozenset(good)) == term_to_graph(Gen(MU))


def test_dump_deterministic():
    t = vcomp(Gen(MU), Tensor(UnitLeaf(), Gen(MU)))
    d1 = term_to_graph(t).dump()
    d2 = term_to_graph(t).dump()
    assert d1 == d2
    assert d1.splitlines()[0] == "graph (1,3)"
    assert "v0: mu (1,2)" in d1


def test_dump_graph_matches_the_graph_dump():
    monomials = walk_monomials()
    for name in (*BUILTIN_NAMES, "linf:5", "ainf:7", "nambu:4"):
        p, _ = builtin(name)
        q = homify_typed(p, theta_max(p.labels))
        monomials.extend(mono for rel in (*p.relations, *q.relations) for _, mono in rel.terms)
    for mono in monomials:
        assert dump_graph(mono) == term_to_graph(mono).dump()


ETA = GeneratorSymbol("eta", 1, 0)
EPS = GeneratorSymbol("eps", 0, 1)
KEY_GENS = [MU, DELTA, ALPHA, ETA, EPS, GeneratorSymbol("braiding", 2, 2),
            GeneratorSymbol("d", 1, 1, 1), GeneratorSymbol("mu", 1, 2, 1)]


def random_graph(rng: random.Random, size: int) -> DecoratedGraph:
    """Corollas joined by disjoint union (either side) or grafted on top,
    with strands padding either side and a random permutation between."""
    g = exceptional(rng.randint(0, 1))
    for _ in range(size):
        piece = corolla(rng.choice(KEY_GENS))
        if rng.random() < 0.4:
            g = disjoint_union(g, piece) if rng.random() < 0.5 else disjoint_union(piece, g)
            continue
        pad = exceptional(abs(piece.n_in - g.n_out))
        if piece.n_in < g.n_out:
            piece = disjoint_union(piece, pad) if rng.random() < 0.5 else disjoint_union(pad, piece)
        elif g.n_out < piece.n_in:
            g = disjoint_union(g, pad) if rng.random() < 0.5 else disjoint_union(pad, g)
        images = list(range(1, g.n_out + 1))
        rng.shuffle(images)
        g = graft(piece, graft(permutation_graph(tuple(images)), g))
    return g


def renumbered(g: DecoratedGraph, perm: list[int]) -> DecoratedGraph:
    """The same graph with vertex v renamed perm[v]."""
    decorations = [None] * len(perm)
    for v, d in enumerate(g.decorations):
        decorations[perm[v]] = d

    def rename(e):
        return (e[0], perm[e[1]], e[2]) if e[0] in ("vo", "vi") else e

    return DecoratedGraph(g.n_out, g.n_in, tuple(decorations),
                          frozenset((rename(a), rename(b)) for a, b in g.edges))


def has_closed_component(g: DecoratedGraph) -> bool:
    """Independent of the walk: union-find over edges, then look for a
    vertex whose component touches no graph input or output."""
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    def node(e):
        return ("v", e[1]) if e[0] in ("vo", "vi") else e

    for a, b in g.edges:
        parent[find(node(a))] = find(node(b))
    open_roots = {find(node(e)) for edge in g.edges for e in edge if e[0] in ("in", "out")}
    return any(find(("v", v)) not in open_roots for v in range(len(g.decorations)))


def test_canonical_key_decides_isomorphism_random():
    rng = random.Random(2024)
    by_shape: dict = {}
    closed = 0
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 4))
        if has_closed_component(g):
            closed += 1
            with pytest.raises(ValueError):
                canonical_key(g)
            continue
        perm = list(range(len(g.decorations)))
        rng.shuffle(perm)
        copy = renumbered(g, perm)
        assert canonical_key(copy) == canonical_key(g)
        iso = isomorphic(g, copy)  # carries decorations and edges of g onto copy's
        assert renumbered(g, [iso[v] for v in range(len(perm))]) == copy
        # repr leaves out the degree, so graphs that differ only in it meet.
        shape = (g.n_out, g.n_in, tuple(sorted(map(repr, g.decorations))))
        by_shape.setdefault(shape, []).append(g)
    assert closed > 0
    pairs = agreeing = 0
    for graphs in by_shape.values():
        for a, b in itertools.combinations(graphs, 2):
            same = canonical_key(a) == canonical_key(b)
            assert same == brute_force_isomorphic(a, b)
            assert (isomorphic(a, b) is not None) == same
            pairs += 1
            agreeing += same
    assert 0 < agreeing < pairs  # both verdicts occur


def test_closed_component_is_refused():
    closed = graft(corolla(EPS), corolla(ETA))
    assert (closed.n_out, closed.n_in) == (0, 0)
    for g in (closed, disjoint_union(corolla(MU), closed)):
        with pytest.raises(ValueError, match="without boundary ports"):
            canonical_key(g)
        with pytest.raises(ValueError):
            isomorphic(g, g)
