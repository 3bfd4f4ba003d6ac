"""Algebras over a presented PROP: structure maps, evaluation, checking.

A structure map assigns to each generator an exact map of the right shape
and homological degree.  Terms evaluate by layerizing first and then
pushing basis tuples bottom-up through the rows of the layered monomial,
reading each generator's integer columns (``LinearMap.columns``, over its
denominator ``den``) as they are stored.  A permutation gap moves the slots
of a tuple with its Koszul sign, and a layer applies its factors side by
side, factor ``j`` picking up ``(-1)^(|f_j| * sum of the degrees of the
inputs left of j)``.  These are the signs of :func:`linalg.tensor` and
:func:`linalg.perm_action`, so the result equals the fold of products and
tensors while only ever touching nonzero entries, and every pushed
coefficient is an ``int``.  A sum weighs each monomial by its coefficient
over the product of its generators' ``den``, brought to one common
denominator ``L``, so its value stays a sparse integer matrix over ``L``.
A relation check reads its verdict off that sum: the largest
``|entry| / L``, which is zero exactly when the relation holds; no
tolerances exist anywhere.  Only :func:`eval_term` builds a ``LinearMap``,
handing the sum and ``L`` to :func:`linalg.from_columns`.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional, Union

from .linalg import (
    Basis,
    GradedSpace,
    LinearMap,
    ShapeMismatch,
    check_width,
    compose,
    from_columns,
    maps_equal,
    tensor_power,
)
from .perm import Permutation, koszul_sign
from .presentation import Presentation
from .term import (
    GeneratorSymbol,
    LayeredMonomial,
    LinearTerm,
    UnitFactor,
    homological_degree,
)


class MissingAssignment(KeyError):
    pass


@dataclass(frozen=True)
class StructureMap:
    """Candidate morphism from a presented PROP into the endomorphism PROP
    of ``space``, given on generators.  ``by_symbol`` indexes the maps by
    generator; for a repeated generator the first entry wins."""

    space: GradedSpace
    assignments: tuple[tuple[GeneratorSymbol, LinearMap], ...]
    by_symbol: dict[GeneratorSymbol, LinearMap] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_symbol: dict[GeneratorSymbol, LinearMap] = {}
        for g, m in self.assignments:
            if (m.source, m.source_power) != (self.space, g.in_arity) or (
                m.target, m.target_power
            ) != (self.space, g.out_arity):
                raise ValueError(f"assignment for {g!r} has the wrong shape")
            if m.degree != g.degree:
                raise ValueError(
                    f"assignment for {g!r} has degree {m.degree}, expected {g.degree}"
                )
            by_symbol.setdefault(g, m)
        object.__setattr__(self, "by_symbol", by_symbol)

    def __getitem__(self, g: GeneratorSymbol) -> LinearMap:
        m = self.by_symbol.get(g)
        if m is None:
            raise MissingAssignment(f"no assignment for {g!r}")
        return m

    def get(self, g: GeneratorSymbol) -> Optional[LinearMap]:
        return self.by_symbol.get(g)

    def symbols(self) -> tuple[GeneratorSymbol, ...]:
        return tuple(g for g, _ in self.assignments)

    def with_assignments(
        self, new: Mapping[GeneratorSymbol, LinearMap]
    ) -> "StructureMap":
        return structure_map(self.space, {**self.by_symbol, **new})


def structure_map(
    space: GradedSpace, assignments: Mapping[GeneratorSymbol, LinearMap]
) -> StructureMap:
    return StructureMap(space, tuple(assignments.items()))


# A step sends one basis tuple to its nonzero images.
Step = Callable[[Basis], tuple[tuple[Basis, int], ...]]
# A sparse matrix: (output tuple, input tuple) -> nonzero coefficient.
Sparse = dict[tuple[Basis, Basis], int]


class _Evaluator:
    """Evaluates terms under one structure map, reading its maps' columns.

    Within one relation, a row (a gap or a layer) met in several monomials
    is one step with one memo of its per-tuple images.
    """

    def __init__(self, lam: StructureMap) -> None:
        self.space = lam.space
        self.maps = lam.by_symbol
        self.degrees = lam.space.basis_degrees()
        self.graded = any(d % 2 for d in self.degrees)

    def _gap(self, perm: Permutation) -> Step:
        order = tuple(i - 1 for i in perm.inverse().images)
        degrees, graded = self.degrees, self.graded

        def step(tup: Basis):
            moved = tuple(tup[i] for i in order)
            sign = koszul_sign(perm, [degrees[i] for i in tup]) if graded else 1
            return ((moved, sign),)

        return step

    def _layer(self, factors) -> Step:
        spans = []
        pos = 0
        for f in factors:
            if isinstance(f, UnitFactor):
                spans.append((pos, pos + 1, None, 0))
                pos += 1
                continue
            m = self.maps.get(f)
            if m is None:
                raise MissingAssignment(f"no assignment for generator {f!r}")
            spans.append((pos, pos + f.in_arity, m.columns, f.degree % 2))
            pos += f.in_arity
        degrees = self.degrees

        def step(tup: Basis):
            partial: list[tuple[Basis, int]] = [((), 1)]
            odd_left = 0
            for start, stop, table, odd in spans:
                piece = tup[start:stop]
                if table is None:
                    partial = [(t + piece, c) for t, c in partial]
                else:
                    images = table.get(piece)
                    if images is None:
                        return ()
                    if odd and odd_left % 2:
                        images = tuple((u, -c) for u, c in images)
                    partial = [(t + u, c * cu) for t, c in partial for u, cu in images]
                odd_left += sum(degrees[i] for i in piece)
            return tuple(partial)

        return step

    def monomial(self, mono: LayeredMonomial, shared: dict) -> Sparse:
        """The monomial's matrix, one input column at a time.  ``shared``
        holds the steps already built for the current relation.

        Only the columns that the bottom layer does not send to zero are
        pushed: the products of its factors' nonzero columns, moved back
        through the gap below it: slot ``j`` of a column is slot
        ``images[j]`` of the product.
        """
        check_width(max([mono.top.width] + [layer.below.width for layer in mono.layers]))
        rows = [(mono.top.perm, self._gap)]
        for layer in mono.layers:
            rows.append((layer.factors, self._layer))
            rows.append((layer.below.perm, self._gap))
        steps = []
        for key, build in reversed(rows):
            if isinstance(key, Permutation) and key.is_identity():
                continue
            if key not in shared:
                shared[key] = (build(key), {})
            steps.append(shared[key])
        d = self.space.dim
        if mono.layers:
            bottom = mono.layers[-1]
            unit = [(i,) for i in range(d)]
            supports = [unit if isinstance(f, UnitFactor) else self.maps[f].columns
                        for f in bottom.factors]
            # ``cols`` is lazy and reads ``picks`` while the push loop
            # below runs, so no name bound in that loop may be ``picks``.
            picks = [i - 1 for i in bottom.below.perm.images]
            products = (sum(pieces, ()) for pieces in itertools.product(*supports))
            cols = (tuple(flat[i] for i in picks) for flat in products)
        else:
            cols = itertools.product(range(d), repeat=mono.in_arity)
        out: Sparse = {}
        for col in cols:
            vec: dict[Basis, int] = {col: 1}
            for step, memo in steps:
                pushed: dict[Basis, int] = {}
                for tup, c in vec.items():
                    images = memo.get(tup)
                    if images is None:
                        images = memo[tup] = step(tup)
                    for u, cu in images:
                        pushed[u] = pushed.get(u, 0) + c * cu
                vec = pushed
                if not vec:
                    break
            for row, v in vec.items():
                if v:
                    out[row, col] = v
        return out

    def term(self, t: Union[LinearTerm, LayeredMonomial]) -> tuple[Sparse, int, int]:
        """The value of a sum (a bare monomial is a one-term sum) as
        ``(total, L, degree)``: the value is ``total / L``.

        The columns hold ``den_g`` times each generator map, so monomial
        ``m`` is pushed as ``prod den_g`` times its value and enters the sum
        with the scale ``coef_m / prod den_g``.  With ``L`` the lcm of the
        scales' denominators, the integer weights ``scale_m * L`` keep the
        running sum on integers.  Every nonzero entry of a monomial's value
        has the monomial's homological degree, and the sum refuses a second
        degree, so the value is homogeneous by construction.
        """
        terms = t.terms if isinstance(t, LinearTerm) else ((1, t),)
        scales = [Fraction(coef) / math.prod(self.maps[g].den for g in mono.generators()
                                             if g in self.maps)
                  for coef, mono in terms]
        lcm = math.lcm(*(scale.denominator for scale in scales))
        shared: dict = {}
        total: Sparse = {}
        degree = 0
        for (_, mono), scale in zip(terms, scales):
            d = homological_degree(mono)
            value = self.monomial(mono, shared)
            if not total:
                degree = d
            elif value and d != degree:
                raise ShapeMismatch(f"cannot add degrees {degree} and {d}")
            w = scale.numerator * (lcm // scale.denominator)
            for key, v in value.items():
                s = total.get(key, 0) + w * v
                if s:
                    total[key] = s
                else:
                    del total[key]
        return total, lcm, degree


def eval_term(
    lam: StructureMap, t: Union[LinearTerm, LayeredMonomial]
) -> LinearMap:
    """Evaluate a monomial or a sum in the endomorphism PROP of the carrier."""
    total, den, degree = _Evaluator(lam).term(t)
    columns: dict[Basis, list[tuple[Basis, int]]] = {}
    for (row, col), v in total.items():
        columns.setdefault(col, []).append((row, v))
    n, m = t.biarity
    return from_columns(lam.space, m, lam.space, n, degree, den, columns)


@dataclass(frozen=True)
class RelationCheck:
    relation_index: int
    max_abs_entry: Fraction

    @property
    def passed(self) -> bool:
        return self.max_abs_entry == 0


@dataclass(frozen=True)
class CheckReport:
    checks: tuple[RelationCheck, ...]

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def check_algebra(lam: StructureMap, p: Presentation) -> CheckReport:
    """Evaluate every relation; Passed means the sum is exactly zero."""
    evaluator = _Evaluator(lam)
    checks = []
    for r, rel in enumerate(p.relations):
        total, den, _ = evaluator.term(rel)
        checks.append(RelationCheck(r, Fraction(max(map(abs, total.values()), default=0), den)))
    return CheckReport(tuple(checks))


@dataclass(frozen=True)
class MorphismCheck:
    holds: bool
    witness_generator: Optional[GeneratorSymbol]
    difference: Optional[LinearMap]


def is_morphism(
    f: LinearMap,
    lam: StructureMap,
    rho: StructureMap,
    p: Presentation,
) -> MorphismCheck:
    """Whether ``f`` intertwines the two structures on every generator.

    Checking generators suffices: both sides extend to PROP morphisms, so
    agreement on generators forces agreement everywhere.
    """
    if f.degree != 0:
        raise ValueError("algebra morphisms must have degree 0")
    for g in p.signature.generators:
        left = compose(tensor_power(f, g.out_arity), lam[g])
        right = compose(rho[g], tensor_power(f, g.in_arity))
        if not maps_equal(left, right):
            diff = left.add(right.scale(Fraction(-1)))
            return MorphismCheck(False, g, diff)
    return MorphismCheck(True, None, None)
