"""Reference implementations kept beside the tests as oracles.

- ``Gen``, ``UnitLeaf``, ``PermLeaf``, ``Tensor`` and ``VComp``: monomials
  as raw term trees, with the right-associated n-ary builders ``tensor``
  and ``vcomp``, ``infer_biarity``, ``layerize`` (the layered form of a
  tree, joined through ``homprop.term.tensor``/``vcomp``), ``linear_term``
  (a sum of trees or monomials), and ``tree_from_json``/``tree_to_json``
  (JSON read as a whole tree before it is layered, as ``serialize`` did).
  ``homprop`` builds layered monomials directly; these are the reference
  its builders and its JSON reader are tested against.
- ``ref_walk``/``ref_numbering``/``ref_monomial_key``: the canonical graph
  key with string-tagged endpoint tuples, ``("in", i)``, ``("out", j)``,
  ``("vo", v, p)`` and ``("vi", v, q)``, as ``graphprop`` computed it before
  endpoints became integers.
- ``ref_relation_key``: the relation key with ``Fraction`` coefficients
  divided by the leading one, over ``ref_monomial_key``.
- ``tensor_degrees``: the dense list of basis degrees of a tensor power.
- ``DecoratedGraph`` and its builders (``exceptional``, ``corolla``,
  ``permutation_graph``, ``disjoint_union``, ``graft``), ``term_to_graph``,
  ``canonical_key`` and ``isomorphic``: graphs as validated sets of
  tuple-endpoint edges, as ``graphprop`` held them before ``graph-dump``
  read the port tables directly.  ``DecoratedGraph.dump`` is the reference
  for ``graphprop.dump_graph``, grafting for ``graphprop._walk`` and the
  graph form of the key for ``graphprop._numbering``.

Key values differ between ``graphprop`` and these references; what must
agree is which pairs of keys are equal.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from homprop import term
from homprop.graphprop import Tables, _numbering, _stride, _walk
from homprop.linalg import GradedSpace, check_width
from homprop.perm import Permutation
from homprop.serialize import _TERM_KINDS, _integer, _list, _require, term_to_json
from homprop.term import (
    GeneratorSymbol,
    LayeredMonomial,
    LinearTerm,
    Signature,
    UnitFactor,
    VCompArityMismatch,
)


# ---------------------------------------------------------------------------
# Raw term trees


@dataclass(frozen=True)
class Gen:
    symbol: GeneratorSymbol


@dataclass(frozen=True)
class UnitLeaf:
    pass


@dataclass(frozen=True)
class PermLeaf:
    perm: Permutation


@dataclass(frozen=True)
class Tensor:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class VComp:
    upper: "Term"
    lower: "Term"


Term = Union[Gen, UnitLeaf, PermLeaf, Tensor, VComp]


def tensor(*parts: Term) -> Term:
    """Right-associated n-ary horizontal composition of trees."""
    if not parts:
        raise ValueError("tensor needs at least one part")
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Tensor(p, out)
    return out


def vcomp(*parts: Term) -> Term:
    """Right-associated n-ary vertical composition of trees, top first."""
    if not parts:
        raise ValueError("vcomp needs at least one part")
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = VComp(p, out)
    return out


def infer_biarity(t: Term) -> tuple[int, int]:
    """Biarity ``(n, m)`` = (outputs, inputs) of a tree, or raise."""
    if isinstance(t, Gen):
        return (t.symbol.out_arity, t.symbol.in_arity)
    if isinstance(t, UnitLeaf):
        return (1, 1)
    if isinstance(t, PermLeaf):
        return (t.perm.n, t.perm.n)
    if isinstance(t, Tensor):
        ln, lm = infer_biarity(t.left)
        rn, rm = infer_biarity(t.right)
        return (ln + rn, lm + rm)
    if isinstance(t, VComp):
        un, um = infer_biarity(t.upper)
        ln, lm = infer_biarity(t.lower)
        if um != ln:
            raise VCompArityMismatch(um, ln, t)
        return (un, lm)
    raise TypeError(f"not a term: {t!r}")


def _leaf(t) -> LayeredMonomial:
    if isinstance(t, LayeredMonomial):
        return t
    if isinstance(t, Gen):
        return term.generator(t.symbol)
    if isinstance(t, UnitLeaf):
        return term.unit()
    if isinstance(t, PermLeaf):
        return term.permutation(t.perm)
    raise TypeError(f"not a term: {t!r}")


def _run(t: Tensor | VComp) -> tuple:
    """The join and the parts of the run that starts at ``t``: every
    tensor below a tensor, left to right, or the vcomps down the right
    spine of a vcomp, top first (a vcomp on the left is a run of its own,
    so that its mismatch is met first)."""
    if isinstance(t, VComp):
        parts = []
        while isinstance(t, VComp):
            parts.append(t.upper)
            t = t.lower
        return term.vcomp, parts + [t]
    parts, todo = [], [t]
    while todo:
        t = todo.pop()
        if isinstance(t, Tensor):
            todo += (t.right, t.left)
        else:
            parts.append(t)
    return term.tensor, parts


def layerize(t) -> LayeredMonomial:
    """The layered form of a tree, idempotent on layered input.

    The tree is walked depth first, left to right, on explicit stacks; each
    run is joined by ``term.tensor`` or ``term.vcomp`` once its parts are
    layered, so errors are raised in the order of a recursive walk."""
    todo: list = [(t, None)]  # (tree, None) to walk, or (None, (join, n)) to join n parts
    done: list[LayeredMonomial] = []
    while todo:
        t, run = todo.pop()
        if run is not None:
            join, n = run
            out = join(*done[-n:])
            del done[-n:]
            done.append(out)
        elif isinstance(t, (Tensor, VComp)):
            join, parts = _run(t)
            todo.append((None, (join, len(parts))))
            todo += ((p, None) for p in reversed(parts))
        else:
            done.append(_leaf(t))
    return done[0]


def tree_from_json(data, signature: Signature) -> Term:
    """A monomial read from JSON as a tree, every node checked before it
    is layered; n-ary nodes are right-associated."""
    _require(isinstance(data, dict), "term node must be an object, got {!r}", data)
    _require(len(data) == 1 and next(iter(data)) in _TERM_KINDS,
             "term node needs exactly one key, one of gen, unit, perm, tensor, vcomp; got {!r}",
             data)
    ((kind, value),) = data.items()
    if kind == "gen":
        _require(isinstance(value, str) and value in signature, "unknown generator {!r}", value)
        return Gen(signature[value])
    if kind == "unit":
        _require(value is True, "unit node must be {{\"unit\": true}}, got {!r}", data)
        return UnitLeaf()
    if kind == "perm":
        return PermLeaf(Permutation(tuple(_integer(i, "perm image") for i in _list(value, "perm"))))
    parts = [tree_from_json(p, signature) for p in _list(value, kind)]
    _require(len(parts) >= 1, "empty {} node", kind)
    return tensor(*parts) if kind == "tensor" else vcomp(*parts)


def tree_to_json(t, rng=None):
    """The JSON of a tree, a layered leaf written by ``serialize``.  With
    ``rng``, a run of one kind down a right spine is written, at random,
    as one n-ary node."""
    if isinstance(t, (Tensor, VComp)):
        kind, node = type(t), t
        parts = []
        while True:
            left, right = (node.left, node.right) if kind is Tensor else (node.upper, node.lower)
            parts.append(left)
            if not (rng and isinstance(right, kind) and rng.random() < 0.5):
                break
            node = right
        parts.append(right)
        return {"tensor" if kind is Tensor else "vcomp": [tree_to_json(p, rng) for p in parts]}
    if isinstance(t, Gen):
        return {"gen": t.symbol.name}
    if isinstance(t, UnitLeaf):
        return {"unit": True}
    if isinstance(t, PermLeaf):
        return {"perm": list(t.perm.images)}
    if isinstance(t, LayeredMonomial):
        return term_to_json(t)
    raise TypeError(f"not a term: {t!r}")


def linear_term(pairs) -> LinearTerm:
    """Build a LinearTerm, coercing coefficients, dropping zeros and
    layering trees."""
    out = []
    for coef, mono in pairs:
        c = Fraction(coef)
        if c != 0:
            out.append((c, layerize(mono)))
    return LinearTerm(tuple(out))


# ---------------------------------------------------------------------------
# Graph keys


def ref_walk(m):
    """``(n_out, n_in, decorations, edges)`` of the graph of a monomial,
    from one walk over its layers from the top down."""
    mono = layerize(m)
    rows = [[f for f in layer.factors if isinstance(f, GeneratorSymbol)]
            for layer in mono.layers]
    first = sum(map(len, rows))
    ends = [("out", j) for j in mono.top.perm.images]
    edges = []
    for layer, row in zip(mono.layers, rows):
        first -= len(row)
        v, w = first, 0
        inputs = []
        for f in layer.factors:
            if isinstance(f, UnitFactor):
                inputs.append(ends[w])
                w += 1
                continue
            for p in range(1, f.out_arity + 1):
                edges.append((("vo", v, p), ends[w]))
                w += 1
            inputs += [("vi", v, q) for q in range(1, f.in_arity + 1)]
            v += 1
        ends = [inputs[i - 1] for i in layer.below.perm.images]
    edges.extend((("in", i), e) for i, e in enumerate(ends, start=1))
    decorations = tuple(g for row in reversed(rows) for g in row)
    return mono.out_arity, mono.in_arity, decorations, edges


def ref_numbering(n_out, n_in, decorations, edges):
    """The breadth-first vertex order (outputs, then inputs; at each vertex
    its output ports, then its input ports) and the key: biarity,
    decorations in that order, the edge list renumbered by it."""
    below_out = [None] * n_out
    above_in = [None] * n_in
    above_vo = [[None] * d.out_arity for d in decorations]
    below_vi = [[None] * d.in_arity for d in decorations]
    for a, b in edges:
        if len(a) == 2:
            above_in[a[1] - 1] = b
        else:
            above_vo[a[1]][a[2] - 1] = b
        if len(b) == 2:
            below_out[b[1] - 1] = a
        else:
            below_vi[b[1]][b[2] - 1] = a
    order = []
    number = [-1] * len(decorations)
    frontier = [below_out, above_in]
    for ends in frontier:
        for e in ends:
            if len(e) == 3 and number[e[1]] < 0:
                v = e[1]
                number[v] = len(order)
                order.append(v)
                frontier += (above_vo[v], below_vi[v])
    if len(order) != len(decorations):
        raise ValueError("a graph component without boundary ports has no canonical form")
    renamed = [(("in", i), e) for i, e in enumerate(above_in, start=1)]
    for k, v in enumerate(order):
        renamed += [(("vo", k, p), e) for p, e in enumerate(above_vo[v], start=1)]
    renamed = [(a, b if len(b) == 2 else ("vi", number[b[1]], b[2])) for a, b in renamed]
    key_decorations = tuple(
        (d.name, d.out_arity, d.in_arity, d.degree) for d in (decorations[v] for v in order)
    )
    return order, ((n_out, n_in), key_decorations, tuple(renamed))


def ref_monomial_key(m) -> tuple:
    return ref_numbering(*ref_walk(m))[1]


def ref_relation_key(rel: LinearTerm) -> tuple:
    """Sorted (graph key, coefficient) pairs of the simplified relation,
    divided by the leading coefficient; () if everything cancels."""
    groups: dict = {}
    for coef, mono in rel.terms:
        key = ref_monomial_key(mono)
        groups[key] = groups.get(key, 0) + coef
    pairs = sorted((key, c) for key, c in groups.items() if c != 0)
    if not pairs:
        return ()
    lead = pairs[0][1]
    return tuple((key, Fraction(c) / lead) for key, c in pairs)


def tensor_degrees(space: GradedSpace, power: int) -> tuple[int, ...]:
    """Degrees of the basis of ``space^{(x)power}`` in lexicographic order."""
    check_width(power)
    single = space.basis_degrees()
    degs = [0]
    for _ in range(power):
        degs = [d + s for d in degs for s in single]
    return tuple(degs)


def same_partition(xs, ys) -> bool:
    """Whether ``xs[i] == xs[j]`` exactly when ``ys[i] == ys[j]``, for all
    ``i`` and ``j``: the distinct pairs are as many as the distinct values
    on either side."""
    xs, ys = list(xs), list(ys)
    assert len(xs) == len(ys)
    return len(set(xs)) == len(set(ys)) == len(set(zip(xs, ys)))


class GraftMismatch(ValueError):
    pass


# Edge endpoints: ("in", i) graph input, ("out", j) graph output,
# ("vo", v, p) output port p of vertex v, ("vi", v, p) input port p of vertex v.
Endpoint = tuple


@dataclass(frozen=True)
class DecoratedGraph:
    n_out: int
    n_in: int
    decorations: tuple[GeneratorSymbol, ...]
    edges: frozenset[tuple[Endpoint, Endpoint]]

    def __post_init__(self) -> None:
        self._validate()

    def _validate(self) -> None:
        starts = [e[0] for e in self.edges]
        ends = [e[1] for e in self.edges]
        expected_starts = {("in", i) for i in range(1, self.n_in + 1)} | {
            ("vo", v, p)
            for v, g in enumerate(self.decorations)
            for p in range(1, g.out_arity + 1)
        }
        expected_ends = {("out", j) for j in range(1, self.n_out + 1)} | {
            ("vi", v, p)
            for v, g in enumerate(self.decorations)
            for p in range(1, g.in_arity + 1)
        }
        if len(starts) != len(expected_starts) or set(starts) != expected_starts:
            raise ValueError("edge initial endpoints must hit every source port exactly once")
        if len(ends) != len(expected_ends) or set(ends) != expected_ends:
            raise ValueError("edge terminal endpoints must hit every sink port exactly once")
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        """Kahn's algorithm: peel off vertices with no incoming edge."""
        n = len(self.decorations)
        succ: list[list[int]] = [[] for _ in range(n)]
        indegree = [0] * n
        for (a, b) in self.edges:
            if a[0] == "vo" and b[0] == "vi":
                succ[a[1]].append(b[1])
                indegree[b[1]] += 1
        ready = [v for v in range(n) if indegree[v] == 0]
        peeled = 0
        while ready:
            v = ready.pop()
            peeled += 1
            for w in succ[v]:
                indegree[w] -= 1
                if indegree[w] == 0:
                    ready.append(w)
        if peeled != n:
            raise ValueError("directed cycle created")

    def dump(self) -> str:
        """Deterministic text form for golden-file comparisons."""
        lines = [f"graph ({self.n_out},{self.n_in})"]
        for v, g in enumerate(self.decorations):
            lines.append(f"  v{v}: {g.name} ({g.out_arity},{g.in_arity})")
        for a, b in sorted(self.edges):
            lines.append(f"  {a} -> {b}")
        return "\n".join(lines)


def exceptional(n: int) -> DecoratedGraph:
    return DecoratedGraph(
        n, n, (), frozenset((("in", i), ("out", i)) for i in range(1, n + 1))
    )


def corolla(g: GeneratorSymbol) -> DecoratedGraph:
    edges = {(("in", i), ("vi", 0, i)) for i in range(1, g.in_arity + 1)}
    edges |= {(("vo", 0, p), ("out", p)) for p in range(1, g.out_arity + 1)}
    return DecoratedGraph(g.out_arity, g.in_arity, (g,), frozenset(edges))


def permutation_graph(images: tuple[int, ...]) -> DecoratedGraph:
    """Strand i enters at input i and exits at output images[i-1]."""
    n = len(images)
    return DecoratedGraph(
        n, n, (), frozenset((("in", i), ("out", images[i - 1])) for i in range(1, n + 1))
    )


def _shift_endpoint(e: Endpoint, dv: int, din: int, dout: int) -> Endpoint:
    if e[0] == "in":
        return ("in", e[1] + din)
    if e[0] == "out":
        return ("out", e[1] + dout)
    if e[0] == "vo":
        return ("vo", e[1] + dv, e[2])
    return ("vi", e[1] + dv, e[2])


def disjoint_union(a: DecoratedGraph, b: DecoratedGraph) -> DecoratedGraph:
    """a's ports precede b's in the combined orderings."""
    dv, din, dout = len(a.decorations), a.n_in, a.n_out
    edges = set(a.edges)
    edges |= {
        (_shift_endpoint(x, dv, din, dout), _shift_endpoint(y, dv, din, dout))
        for x, y in b.edges
    }
    return DecoratedGraph(
        a.n_out + b.n_out, a.n_in + b.n_in, a.decorations + b.decorations, frozenset(edges)
    )


def graft(upper: DecoratedGraph, lower: DecoratedGraph) -> DecoratedGraph:
    """Fuse output j of ``lower`` to input j of ``upper``."""
    if upper.n_in != lower.n_out:
        raise GraftMismatch(f"grafting {upper.n_in} inputs onto {lower.n_out} outputs")
    dv = len(lower.decorations)
    up_from_input: dict[int, Endpoint] = {}
    up_edges = []
    for a, b in upper.edges:
        b2 = _shift_endpoint(b, dv, 0, 0) if b[0] != "out" else b
        a2 = _shift_endpoint(a, dv, 0, 0) if a[0] != "in" else a
        if a[0] == "in":
            up_from_input[a[1]] = b2
        else:
            up_edges.append((a2, b2))
    edges = set(up_edges)
    for a, b in lower.edges:
        if b[0] == "out":
            edges.add((a, up_from_input[b[1]]))
        else:
            edges.add((a, b))
    return DecoratedGraph(
        upper.n_out, lower.n_in, lower.decorations + upper.decorations, frozenset(edges)
    )


def _tables(g: DecoratedGraph) -> Tables:
    """The port tables of a graph, indexed from its edges."""
    S = _stride(g.decorations)
    size = len(g.decorations) * S
    above = [0] * (size + g.n_in)
    below = [0] * (size + g.n_out)
    for a, b in g.edges:  # boundary endpoints are pairs, vertex ports triples
        x = -a[1] if len(a) == 2 else a[1] * S + a[2]
        y = -b[1] if len(b) == 2 else b[1] * S + b[2]
        above[x] = y
        below[y] = x
    return g.n_out, g.n_in, g.decorations, S, above, below


def term_to_graph(m: Term | LayeredMonomial) -> DecoratedGraph:
    """Lower a monomial to its decorated graph, validated; permutations and
    units leave no vertices."""
    n_out, n_in, decorations, S, above, _ = _walk(layerize(m))
    size, n = len(decorations) * S, len(above)
    edges = frozenset(  # no endpoint is 0, so a 0 entry is an unused slot
        (("vo", x // S, x % S) if x < size else ("in", n - x),
         ("vi", y // S, y % S) if y > 0 else ("out", -y))
        for x, y in enumerate(above) if y)
    return DecoratedGraph(n_out, n_in, decorations, edges)


def canonical_key(g: DecoratedGraph) -> tuple:
    """A hashable, sortable key that is equal exactly for isomorphic graphs:
    the biarity, the decorations in canonical order and the edges
    renumbered by that order."""
    return _numbering(*_tables(g))[1]


def isomorphic(a: DecoratedGraph, b: DecoratedGraph) -> Optional[dict[int, int]]:
    """A decoration- and port-preserving isomorphism as a vertex map, or None.

    Graph input/output port labels must correspond identically; vertex ports
    must match index by index.
    """
    order_a, key_a = _numbering(*_tables(a))
    order_b, key_b = _numbering(*_tables(b))
    if key_a != key_b:
        return None
    return dict(zip(order_a, order_b))
