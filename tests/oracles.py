"""Reference implementations kept beside the tests as oracles.

- ``ref_walk``/``ref_numbering``/``ref_monomial_key``: the canonical graph
  key with string-tagged endpoint tuples, ``("in", i)``, ``("out", j)``,
  ``("vo", v, p)`` and ``("vi", v, q)``, as ``graphprop`` computed it before
  endpoints became integers.
- ``ref_relation_key``: the relation key with ``Fraction`` coefficients
  divided by the leading one, over ``ref_monomial_key``.
- ``tensor_degrees``: the dense list of basis degrees of a tensor power.

Key values differ between ``graphprop`` and these references; what must
agree is which pairs of keys are equal.
"""
from __future__ import annotations

from fractions import Fraction

from homprop.linalg import GradedSpace, check_width
from homprop.term import GeneratorSymbol, LinearTerm, UnitFactor, layerize


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
