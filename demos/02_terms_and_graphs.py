#!/usr/bin/env python3
"""From string-diagram expressions to layered normal forms to graphs.

A monomial is built from generators, units and permutations by horizontal
(``tensor``) and vertical (``vcomp``) composition.  Each composition lands
in the layered normal form, via the interchange law: a stack of full-width
generator rows separated by permutation gaps.  Lowering further to a
decorated graph forgets exactly the unit padding, so graph isomorphism is
the right equality test for free-PROP monomials.
"""
from homprop.graphprop import dump_graph, monomial_key
from homprop.term import (
    GeneratorSymbol,
    generator,
    monomial_degree,
    tensor,
    unit,
    vcomp,
)

mu = GeneratorSymbol("mu", 1, 2)

left = vcomp(generator(mu), tensor(generator(mu), unit()))    # (xy)z
right = vcomp(generator(mu), tensor(unit(), generator(mu)))   # x(yz)
print("biarity of (xy)z:", left.biarity)

print("layers of x(yz):", [[str(f) for f in layer.factors] for layer in right.layers])
print("monomial degree:", monomial_degree(right))

print("\ngraph of (xy)z:")
print(dump_graph(left))
print("\n(xy)z vs x(yz) isomorphic?", monomial_key(left) == monomial_key(right))

# The interchange law makes differently-written rectangles equal.
a, b, c, d = (generator(GeneratorSymbol(n, 1, 1)) for n in "abcd")
rect1 = tensor(vcomp(a, c), vcomp(b, d))
rect2 = vcomp(tensor(a, b), tensor(c, d))
print("\n(a.c) (x) (b.d) and (a (x) b).(c (x) d) layerize identically?",
      rect1 == rect2)
print("...and their graphs are isomorphic?",
      monomial_key(rect1) == monomial_key(rect2))
