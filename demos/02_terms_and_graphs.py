#!/usr/bin/env python3
"""From string-diagram expressions to layered normal forms to graphs.

A term is a tree of generators, units, permutations, horizontal and
vertical compositions.  Layerizing rewrites it, via the interchange law,
into a stack of full-width generator rows separated by permutation gaps;
lowering further to a decorated graph forgets exactly the unit padding, so
graph isomorphism is the right equality test for free-PROP monomials.
"""
from homprop.graphprop import dump_graph, monomial_key
from homprop.term import (
    Gen,
    GeneratorSymbol,
    Tensor,
    UnitLeaf,
    VComp,
    infer_biarity,
    layerize,
    monomial_degree,
    vcomp,
)

mu = GeneratorSymbol("mu", 1, 2)

left = VComp(Gen(mu), Tensor(Gen(mu), UnitLeaf()))    # (xy)z
right = VComp(Gen(mu), Tensor(UnitLeaf(), Gen(mu)))   # x(yz)
print("biarity of (xy)z:", infer_biarity(left))

lm = layerize(right)
print("layers of x(yz):", [[str(f) for f in layer.factors] for layer in lm.layers])
print("monomial degree:", monomial_degree(lm))

print("\ngraph of (xy)z:")
print(dump_graph(left))
print("\n(xy)z vs x(yz) isomorphic?", monomial_key(left) == monomial_key(right))

# The interchange law makes differently-written rectangles equal.
a, b, c, d = (GeneratorSymbol(n, 1, 1) for n in "abcd")
rect1 = Tensor(VComp(Gen(a), Gen(c)), VComp(Gen(b), Gen(d)))
rect2 = VComp(Tensor(Gen(a), Gen(b)), Tensor(Gen(c), Gen(d)))
print("\n(a.c) (x) (b.d) and (a (x) b).(c (x) d) layerize identically?",
      layerize(rect1) == layerize(rect2))
print("...and their graphs are isomorphic?",
      monomial_key(rect1) == monomial_key(rect2))
