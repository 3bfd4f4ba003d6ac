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
monomial (``_walk``) fills the port tables of its graph: which endpoint
sits across the edge from each port, with every endpoint an int.
``term_to_graph`` builds a validated graph from those tables, and ``graft``
and ``disjoint_union`` remain as operations on graphs.  Because every port
is labelled, the graphs are rigid: one breadth-first walk over the tables
from the boundary (``_numbering``) numbers the vertices canonically, and
two graphs are isomorphic exactly when their ``canonical_key``s are equal.
``monomial_key`` numbers the tables of the layer walk directly, with no
graph built: a monomial's widths meet and its layers admit no cycle, so
there is nothing to validate.  A component without boundary ports cannot
be reached by the numbering walk and is refused with ValueError.
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


# Inside the walk and the numbering an endpoint is an int: graph input or
# output k is -k, and port p of vertex v is v * S + p, where the stride S
# exceeds every arity.  A port table is a flat list of V * S + n entries for
# V vertices and n graph ports, so negative indexing puts graph port k at
# entry V * S + n - k, after every vertex port.
Tables = tuple  # (n_out, n_in, decorations, S, above, below)


def _stride(decorations: tuple[GeneratorSymbol, ...]) -> int:
    return 1 + max([max(d.out_arity, d.in_arity) for d in decorations], default=0)


def _walk(m: Term | LayeredMonomial) -> Tables:
    """The port tables of the graph of a monomial, filled in one walk.

    ``above`` takes each initial endpoint (a graph input or a vertex output
    port) to the terminal endpoint of its edge, ``below`` each terminal
    endpoint (a graph output or a vertex input port) to its initial one.
    The walk goes over the layers from the top down and keeps, for each
    open wire, the terminal endpoint above it.  A generator's output ports
    are joined to the endpoints of its wires and its input ports become the
    new endpoints; a unit passes its endpoint straight down, and a gap
    permutes the endpoints.  Vertices are numbered bottom layer first, left
    to right within a layer, the order in which grafting the rows would
    number them.
    """
    mono = layerize(m)
    rows = [[f for f in layer.factors if isinstance(f, GeneratorSymbol)]
            for layer in mono.layers]
    decorations = tuple(g for row in reversed(rows) for g in row)
    S = _stride(decorations)
    first = len(decorations) * S
    ends = [-j for j in mono.top.perm.images]
    n_out = len(ends)
    above = [0] * first
    below = [0] * (first + n_out)
    for layer, row in zip(mono.layers, rows):
        first -= len(row) * S
        port, w = first, 0
        inputs: list[int] = []
        for f in layer.factors:
            if isinstance(f, UnitFactor):
                inputs.append(ends[w])
                w += 1
                continue
            for p in range(port + 1, port + f.out_arity + 1):
                e = ends[w]
                above[p] = e
                below[e] = p
                w += 1
            inputs.extend(range(port + 1, port + f.in_arity + 1))
            port += S
        ends = [inputs[i - 1] for i in layer.below.perm.images]
    above += reversed(ends)  # entry -i is graph input i
    for i, e in enumerate(ends, start=1):
        below[e] = -i
    return n_out, len(ends), decorations, S, above, below


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
    n_out, n_in, decorations, S, above, _ = _walk(m)
    size, n = len(decorations) * S, len(above)
    edges = frozenset(  # no endpoint is 0, so a 0 entry is an unused slot
        (("vo", x // S, x % S) if x < size else ("in", n - x),
         ("vi", y // S, y % S) if y > 0 else ("out", -y))
        for x, y in enumerate(above) if y)
    return DecoratedGraph(n_out, n_in, decorations, edges)


def _numbering(n_out: int, n_in: int, decorations: tuple[GeneratorSymbol, ...],
               S: int, above: list[int], below: list[int]) -> tuple[list[int], tuple]:
    """The canonical vertex order of a graph and its canonical key.

    A breadth-first walk over the port tables enters from outputs 1..n,
    then from inputs 1..m; at each vertex it follows the output ports, then
    the input ports, in port order, and numbers vertices by first visit.
    Ports are labelled, so an isomorphism carries this order of one graph
    onto that of the other.  A component with no boundary port is never
    reached: ValueError.

    The key is the biarity, the ``(name, out, in, degree)`` decorations in
    that order and the terminal endpoints of the edges, renumbered by it,
    listed from the graph inputs, then from each vertex's output ports in
    order.  The initial endpoints of that list follow from the biarity and
    the decorations, and equal decorations give equal strides, so the key
    determines the graph up to isomorphism.
    """
    size = len(decorations) * S
    order: list[int] = []
    number = [-1] * len(decorations)
    frontier = [below[size:][::-1], above[size:][::-1]]
    for ends in frontier:  # the walk appends to ``frontier`` while it runs
        for e in ends:
            if e > 0 and number[e // S] < 0:
                v = e // S
                number[v] = len(order)
                order.append(v)
                d, p = decorations[v], v * S + 1
                frontier += (above[p:p + d.out_arity], below[p:p + d.in_arity])
    if len(order) != len(decorations):
        raise ValueError("a graph component without boundary ports has no canonical form")

    # frontier[1] is above the graph inputs, frontier[2::2] above each
    # vertex's output ports in canonical order.
    shift = [(k - v) * S for v, k in enumerate(number)]
    ports = tuple([e if e < 0 else e + shift[e // S]
                   for ends in (frontier[1], *frontier[2::2]) for e in ends])
    key_decorations = tuple([
        (d.name, d.out_arity, d.in_arity, d.degree) for d in map(decorations.__getitem__, order)
    ])
    return order, ((n_out, n_in), key_decorations, ports)


def canonical_key(g: DecoratedGraph) -> tuple:
    """A hashable, sortable key that is equal exactly for isomorphic graphs:
    the biarity, the decorations in canonical order and the edges
    renumbered by that order."""
    return _numbering(*_tables(g))[1]


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
    order_a, key_a = _numbering(*_tables(a))
    order_b, key_b = _numbering(*_tables(b))
    if key_a != key_b:
        return None
    return dict(zip(order_a, order_b))
