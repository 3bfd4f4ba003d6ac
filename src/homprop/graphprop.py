"""Free PROPs as decorated directed (n,m)-graphs.

A graph has m input ports (bottom), n output ports (top) and vertices
decorated by generator symbols.  Edges run upward from an initial endpoint
(a graph input or a vertex output port) to a terminal endpoint (a graph
output or a vertex input port); ports are ordered and part of the data, so
isomorphisms must match them exactly.  The exceptional graph with n
parallel strands and no vertices is ``exceptional(n)``.

Horizontal composition is disjoint union, vertical composition grafting;
the unit and all permutations become bare strands, so interchange-equival-
ent terms lower to isomorphic graphs.  One walk over the layers of a
monomial (``_walk``) gives the vertices and edges that grafting its rows
would build; ``term_to_graph`` wraps them in a validated graph, and
``graft`` and ``disjoint_union`` remain as operations on graphs.  Because
every port is labelled, the graphs are rigid: one breadth-first walk from
the boundary (``_numbering``) numbers the vertices canonically, and two
graphs are isomorphic exactly when their ``canonical_key``s are equal.  ``monomial_key`` numbers the layer walk's
output directly, with no graph built: a monomial's widths meet and its
layers admit no cycle, so there is nothing to validate.  A component
without boundary ports cannot be reached by the numbering walk and is
refused with ValueError.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .term import (
    GeneratorSymbol,
    LayeredMonomial,
    UnitFactor,
    layerize,
    Term,
)

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
        if sorted(starts) != sorted(expected_starts) or len(set(starts)) != len(starts):
            raise ValueError("edge initial endpoints must hit every source port exactly once")
        if sorted(ends) != sorted(expected_ends) or len(set(ends)) != len(ends):
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


def _walk(m: Term | LayeredMonomial) -> tuple[int, int, tuple[GeneratorSymbol, ...], list]:
    """``(n_out, n_in, decorations, edges)`` of the graph of a monomial.

    One walk over the layers from the top down keeps, for each open wire,
    the terminal endpoint above it.  A generator's output ports take edges
    to the endpoints of its wires and its input ports become the new
    endpoints; a unit passes its endpoint straight down, and a gap permutes
    the endpoints.  Vertices are numbered bottom layer first, left to right
    within a layer, the order in which grafting the rows would number them.
    """
    mono = layerize(m)
    rows = [[f for f in layer.factors if isinstance(f, GeneratorSymbol)]
            for layer in mono.layers]
    first = sum(map(len, rows))
    ends: list[Endpoint] = [("out", j) for j in mono.top.perm.images]
    edges: list[tuple[Endpoint, Endpoint]] = []
    for layer, row in zip(mono.layers, rows):
        first -= len(row)
        v, w = first, 0
        inputs: list[Endpoint] = []
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


def term_to_graph(m: Term | LayeredMonomial) -> DecoratedGraph:
    """Lower a monomial to its decorated graph, validated; permutations and
    units leave no vertices."""
    n_out, n_in, decorations, edges = _walk(m)
    return DecoratedGraph(n_out, n_in, decorations, frozenset(edges))


def _numbering(n_out: int, n_in: int, decorations: tuple[GeneratorSymbol, ...],
               edges) -> tuple[list[int], tuple]:
    """The canonical vertex order of a graph and its canonical key.

    The edges are first indexed by port: the endpoint across from output
    ``p`` and from input ``q`` of each vertex, from graph output ``j`` and
    from graph input ``i``.  A breadth-first walk then enters from outputs
    1..n, then from inputs 1..m; at each vertex it follows the output
    ports, then the input ports, in port order, and numbers vertices by
    first visit.  Ports are labelled, so an isomorphism carries this order
    of one graph onto that of the other.  A component with no boundary
    port is never reached: ValueError.

    The key is the biarity, the decorations in that order and the edge
    list renumbered by it.  Initial endpoints are distinct, so listing the
    graph inputs, then each vertex's output ports in order, gives the edges
    already sorted.
    """
    below_out: list = [None] * n_out
    above_in: list = [None] * n_in
    above_vo: list[list] = [[None] * d.out_arity for d in decorations]
    below_vi: list[list] = [[None] * d.in_arity for d in decorations]
    for a, b in edges:  # boundary endpoints are pairs, vertex ports triples
        if len(a) == 2:
            above_in[a[1] - 1] = b
        else:
            above_vo[a[1]][a[2] - 1] = b
        if len(b) == 2:
            below_out[b[1] - 1] = a
        else:
            below_vi[b[1]][b[2] - 1] = a
    order: list[int] = []
    number = [-1] * len(decorations)
    frontier = [below_out, above_in]
    for ends in frontier:  # the walk appends to ``frontier`` while it runs
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


def canonical_key(g: DecoratedGraph) -> tuple:
    """A hashable, sortable key that is equal exactly for isomorphic graphs:
    the biarity, the decorations in canonical order and the sorted edge
    list renumbered by that order."""
    return _numbering(g.n_out, g.n_in, g.decorations, g.edges)[1]


def monomial_key(m: Term | LayeredMonomial) -> tuple:
    """``canonical_key(term_to_graph(m))``, numbered straight from the walk
    over the layers with no graph built: the layers' widths meet, so every
    port has exactly one edge, and a layered graph has no cycle."""
    return _numbering(*_walk(m))[1]


def isomorphic(a: DecoratedGraph, b: DecoratedGraph) -> Optional[dict[int, int]]:
    """A decoration- and port-preserving isomorphism as a vertex map, or None.

    Graph input/output port labels must correspond identically; vertex ports
    must match index by index.
    """
    order_a, key_a = _numbering(a.n_out, a.n_in, a.decorations, a.edges)
    order_b, key_b = _numbering(b.n_out, b.n_in, b.decorations, b.edges)
    if key_a != key_b:
        return None
    return dict(zip(order_a, order_b))
