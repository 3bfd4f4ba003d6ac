"""Free PROPs as decorated directed (n,m)-graphs, held as integer port tables.

The graph of a monomial has m input ports (bottom), n output ports (top)
and vertices decorated by generator symbols.  Edges run upward from an
initial endpoint (a graph input or a vertex output port) to a terminal
endpoint (a graph output or a vertex input port); ports are ordered and
part of the data, so isomorphisms must match them exactly.  Units and
permutations leave bare strands and no vertices, so interchange-equivalent
terms have isomorphic graphs.

One walk over the layers of a monomial (``_walk``) fills the port tables
of its graph: which endpoint sits across the edge from each port, with
every endpoint an int.  A monomial's widths meet and its layers admit no
cycle, so the tables need no validation.  Both products read them:

- ``monomial_key``: because every port is labelled, the graphs are rigid,
  and one breadth-first walk over the tables from the boundary
  (``_numbering``) numbers the vertices canonically.  Two monomials have
  equal keys exactly when their graphs are isomorphic.  A component
  without boundary ports cannot be reached by that walk and is refused
  with ValueError.
- ``dump_graph``: the deterministic text that ``graph-dump`` prints.
"""
from __future__ import annotations

from .term import GeneratorSymbol, LayeredMonomial, UnitFactor


# An endpoint is an int: graph input or output k is -k, and port p of
# vertex v is v * S + p, where the stride S exceeds every arity.  A port
# table is a flat list of V * S + n entries for V vertices and n graph
# ports, so negative indexing puts graph port k at entry V * S + n - k,
# after every vertex port.
Tables = tuple  # (n_out, n_in, decorations, S, above, below)


def _stride(decorations: tuple[GeneratorSymbol, ...]) -> int:
    return 1 + max([max(d.out_arity, d.in_arity) for d in decorations], default=0)


def _walk(mono: LayeredMonomial) -> Tables:
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


def monomial_key(m: LayeredMonomial) -> tuple:
    """The canonical key of the graph of a monomial, numbered straight from
    the port tables of the walk: equal exactly for isomorphic graphs."""
    return _numbering(*_walk(m))[1]


def dump_graph(m: LayeredMonomial) -> str:
    """The deterministic text form of the graph of a monomial.

    A ``graph (n,m)`` header, one line per vertex in the walk's order, then
    one line per edge: from graph inputs 1..m, then from each vertex's
    output ports in order, each to its terminal endpoint, written as the
    tuple ``('vi', v, p)`` or ``('out', j)``.
    """
    n_out, n_in, decorations, S, above, _ = _walk(m)

    def terminal(y: int) -> str:
        return f"('vi', {y // S}, {y % S})" if y > 0 else f"('out', {-y})"

    lines = [f"graph ({n_out},{n_in})"]
    lines += [f"  v{v}: {g.name} ({g.out_arity},{g.in_arity})" for v, g in enumerate(decorations)]
    lines += [f"  ('in', {i}) -> {terminal(above[-i])}" for i in range(1, n_in + 1)]
    lines += [f"  ('vo', {v}, {p}) -> {terminal(above[v * S + p])}"
              for v, g in enumerate(decorations) for p in range(1, g.out_arity + 1)]
    return "\n".join(lines)
