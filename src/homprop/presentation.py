"""PROP presentations and the hom-ification procedures.

A presentation is a signature plus relations stored in canonical layered
form; the unit-occurrence set I is recomputed from that representation, so
occurrence labels are reproducible.  Hom-ification replaces selected unit
occurrences with fresh (1,1) twisting generators:

- the multiplicative flavour adds a single ``alpha``, replaces every unit,
  and adds one compatibility relation per original generator;
- the typed flavour takes a plan (a subset S of I partitioned into named
  blocks), adds one twisting generator per block and adds no compatibility
  relations.

The projections send twisting generators back to the unit (or to the single
multiplicative ``alpha``); applying one to a hom-ified presentation recovers
the original relations up to graph isomorphism.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Literal, Optional, Sequence, Union

from .graphprop import monomial_key
from .perm import identity
from .term import (
    UNIT,
    GeneratorSymbol,
    Interlayer,
    Layer,
    LayeredMonomial,
    LinearTerm,
    Signature,
    UnitOccurrence,
    index_units,
    monomial_degree,
    substitute_all,
)


class PlanError(ValueError):
    """Invalid subset/partition data for a hom-ification."""


class NameCollision(ValueError):
    """A twisting generator name already exists in the signature."""


@dataclass(frozen=True)
class Presentation:
    signature: Signature
    relations: tuple[LinearTerm, ...]
    unit_index: tuple[UnitOccurrence, ...] = field(init=False)

    def __post_init__(self) -> None:
        known = set(self.signature.generators)
        for rel in self.relations:
            for _, mono in rel.terms:
                for g in mono.generators():
                    if g not in known:
                        raise ValueError(f"relation uses {g!r} not in the signature")
        object.__setattr__(self, "unit_index", index_units(self.relations))

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(o.label for o in self.unit_index)


@dataclass(frozen=True)
class HomPlan:
    """A subset S of occurrence labels with a partition into named blocks."""

    S: tuple[int, ...]
    blocks: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        if not self.S:
            raise PlanError("S must be non-empty")
        covered: list[int] = []
        for name, labels in self.blocks:
            if not labels:
                raise PlanError(f"block {name!r} is empty")
            covered.extend(labels)
        if sorted(covered) != sorted(set(covered)):
            raise PlanError("blocks overlap")
        if set(covered) != set(self.S):
            raise PlanError("blocks must cover S exactly")

    def block_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.blocks)


def theta_min(S: Sequence[int], name: str = "alpha") -> HomPlan:
    """The trivial partition: one block, one twisting map."""
    labels = tuple(sorted(S))
    return HomPlan(labels, ((name, labels),))


def theta_max(S: Sequence[int]) -> HomPlan:
    """Singleton blocks: one twisting map per unit occurrence."""
    labels = tuple(sorted(S))
    return HomPlan(labels, tuple((f"alpha_{s}", (s,)) for s in labels))


@dataclass(frozen=True)
class HomPresentation(Presentation):
    """A hom-ified presentation remembering where it came from."""

    base: Presentation = None  # type: ignore[assignment]
    plan: Optional[HomPlan] = None
    kind: Literal["multiplicative", "typed"] = "typed"
    twisting: tuple[GeneratorSymbol, ...] = ()

    def covers_all_units(self) -> bool:
        if self.kind == "multiplicative":
            return True
        assert self.plan is not None
        return set(self.plan.S) == set(self.base.labels)


def _fresh_symbol(taken, name: str) -> GeneratorSymbol:
    """A (1,1) twisting generator named ``name``, which ``taken`` (a
    signature or a set of names) must not contain."""
    if name in taken:
        raise NameCollision(f"generator {name!r} already exists; rename before hom-ifying")
    return GeneratorSymbol(name, 1, 1, 0)


def _replace_units(
    p: Presentation, targets: dict[int, GeneratorSymbol]
) -> tuple[LinearTerm, ...]:
    assignment = {occ: targets[occ.label] for occ in p.unit_index if occ.label in targets}
    return substitute_all(p.relations, assignment)


def _compatibility_relation(g: GeneratorSymbol, alpha: GeneratorSymbol) -> LinearTerm:
    n, m = g.out_arity, g.in_arity
    first = LayeredMonomial(
        Interlayer(identity(n)),
        (
            Layer((g,), Interlayer(identity(m))),
            Layer((alpha,) * m, Interlayer(identity(m))),
        ),
    )
    second = LayeredMonomial(
        Interlayer(identity(n)),
        (
            Layer((alpha,) * n, Interlayer(identity(n))),
            Layer((g,), Interlayer(identity(m))),
        ),
    )
    return LinearTerm(((Fraction(1), first), (Fraction(-1), second)))


def homify_multiplicative(p: Presentation) -> HomPresentation:
    """Adjoin one twisting generator alpha, make it commute with every
    generator, and replace every unit occurrence in the relations by it."""
    alpha = _fresh_symbol(p.signature, "alpha")
    compat = tuple(_compatibility_relation(g, alpha) for g in p.signature.generators)
    replaced = _replace_units(p, {occ.label: alpha for occ in p.unit_index})
    return HomPresentation(
        signature=p.signature.extend([alpha]),
        relations=compat + replaced,
        base=p,
        plan=None,
        kind="multiplicative",
        twisting=(alpha,),
    )


def homify_typed(p: Presentation, plan: HomPlan) -> HomPresentation:
    """Replace the units of S blockwise by per-block twisting generators."""
    valid = set(p.labels)
    if not set(plan.S) <= valid:
        raise PlanError(f"plan labels {sorted(set(plan.S) - valid)} not in I")
    symbols = []
    targets: dict[int, GeneratorSymbol] = {}
    taken = {g.name for g in p.signature.generators}
    for name, labels in plan.blocks:
        sym = _fresh_symbol(taken, name)
        taken.add(name)
        symbols.append(sym)
        for lab in labels:
            targets[lab] = sym
    replaced = _replace_units(p, targets)
    return HomPresentation(
        signature=p.signature.extend(symbols),
        relations=replaced,
        base=p,
        plan=plan,
        kind="typed",
        twisting=tuple(symbols),
    )


def homify(p: Presentation, plan: Union[HomPlan, str, None]) -> HomPresentation:
    """The multiplicative hom-ification for ``"multiplicative"`` or None,
    the typed one for a ``HomPlan``."""
    if plan == "multiplicative" or plan is None:
        return homify_multiplicative(p)
    return homify_typed(p, plan)


def projection_pi(
    q: HomPresentation, kind: Literal["pi", "pi1", "pi2"]
) -> dict[GeneratorSymbol, object]:
    """The symbol-level substitution realizing the projection maps.

    ``pi`` sends every twisting generator of a typed hom-ification to the
    unit; ``pi2`` does the same for the multiplicative alpha; ``pi1`` sends
    every typed twisting generator to ``alpha`` and exists only when S = I.
    """
    if kind == "pi":
        if q.kind != "typed":
            raise PlanError("pi projects a typed hom-ification")
        return {sym: UNIT for sym in q.twisting}
    if kind == "pi2":
        if q.kind != "multiplicative":
            raise PlanError("pi2 projects a multiplicative hom-ification")
        return {sym: UNIT for sym in q.twisting}
    if kind == "pi1":
        if q.kind != "typed":
            raise PlanError("pi1 projects a typed hom-ification")
        if not q.covers_all_units():
            raise PlanError("pi1 exists only when S = I")
        alpha = GeneratorSymbol("alpha", 1, 1, 0)
        return {sym: alpha for sym in q.twisting}
    raise ValueError(f"unknown projection {kind!r}")


def apply_substitution_to_relations(
    relations: Sequence[LinearTerm], mapping: dict
) -> tuple[LinearTerm, ...]:
    return substitute_all(relations, mapping)


# ---------------------------------------------------------------------------
# Normality


@dataclass(frozen=True)
class RelationNormality:
    relation_index: int
    homogeneous: bool
    degree: Optional[int]
    witness: Optional[tuple[tuple[int, int], tuple[int, int]]]  # (monomial, degree) pair


@dataclass(frozen=True)
class NormalityReport:
    entries: tuple[RelationNormality, ...]

    def all_normal(self) -> bool:
        return all(e.homogeneous and (e.degree or 0) >= 1 for e in self.entries)

    def degrees(self) -> tuple[Optional[int], ...]:
        return tuple(e.degree for e in self.entries)


def is_normal(p: Presentation) -> NormalityReport:
    """Per relation: homogeneous of which degree, or a witness pair."""
    entries = []
    for r, rel in enumerate(p.relations):
        degs = [monomial_degree(m) for _, m in rel.terms]
        base = degs[0]
        bad = next((i for i, d in enumerate(degs) if d != base), None)
        if bad is None:
            entries.append(RelationNormality(r, True, base, None))
        else:
            entries.append(
                RelationNormality(r, False, None, ((0, base), (bad, degs[bad])))
            )
    return NormalityReport(tuple(entries))


# ---------------------------------------------------------------------------
# Relation comparison modulo graph isomorphism


def _grouped(terms) -> dict[tuple, list]:
    """Canonical graph key -> [summed coefficient, first monomial with that
    key], over ``(coefficient, monomial)`` pairs."""
    groups: dict[tuple, list] = {}
    for coef, mono in terms:
        groups.setdefault(monomial_key(mono), [0, mono])[0] += coef
    return groups


def simplify_relation(rel: LinearTerm) -> Optional[LinearTerm]:
    """Combine graph-isomorphic monomials; None if everything cancels."""
    remaining = tuple((c, m) for c, m in _grouped(rel.terms).values() if c != 0)
    if not remaining:
        return None
    return LinearTerm(remaining)


def relation_key(rel: LinearTerm) -> tuple:
    """The sorted (graph key, int coefficient) pairs of the simplified
    relation, scaled to coprime integers with a positive first coefficient;
    () if everything cancels.  Two relations match exactly when their keys
    are equal, that is when one is a nonzero multiple of the other."""
    den = lcm(*(c.denominator for c, _ in rel.terms))
    groups = _grouped((c.numerator * (den // c.denominator), m) for c, m in rel.terms)
    pairs = sorted((key, c) for key, (c, _) in groups.items() if c)
    if not pairs:
        return ()
    g = gcd(*(c for _, c in pairs))
    if pairs[0][1] < 0:
        g = -g
    return tuple((key, c // g) for key, c in pairs)


def relations_match(r1: LinearTerm, r2: LinearTerm) -> bool:
    """Equality of relations up to graph isomorphism of monomials and an
    overall scalar."""
    return relation_key(r1) == relation_key(r2)


def presentation_matches(p: Presentation, q: Presentation) -> bool:
    """Same generators and matching relation sets."""
    if p.signature.by_name != q.signature.by_name:
        return False
    if len(p.relations) != len(q.relations):
        return False
    return all(map(relations_match, sorted(p.relations, key=relation_key),
                   sorted(q.relations, key=relation_key)))
