"""Exact computer algebra for presented PROPs and their Hom-structures.

The package is organized bottom-up:

- ``perm``: symmetric-group elements, signs, unshuffles, Koszul signs
- ``term``: free-PROP monomials, built and held in the layered canonical form
- ``graphprop``: monomials as decorated graphs held in integer port tables:
  canonical keys (equal exactly for isomorphic graphs) and the graph dump
- ``presentation``: generators/relations, hom-ification, projections
- ``builtins``: the stock presentations (associativity families, brackets,
  bialgebra, Yang-Baxter, truncated a-/l-infinity towers)
- ``linalg``: exact rational graded matrices (the endomorphism PROP)
- ``algebra``: structure maps, evaluation, relation and morphism checks
- ``twist``: the twisting constructions and classification helpers
- ``corpus``: small worked example algebras
- ``serialize``/``cli``: JSON file formats and the command-line interface

The package root re-exports nothing: callers import from the modules.
"""

__version__ = "0.1.0"
