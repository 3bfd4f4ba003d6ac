"""The stock presentations: associativity families, Nambu brackets,
bialgebras, the Yang-Baxter relation, and truncated A-infinity/L-infinity
towers, each with its canonical hom-ification plan where one exists.

Permutation conventions: a trailing permutation in a written relation acts
on the inputs first.  Where a source formula indexes inputs through sigma
(``f(x_{sigma(1)}, ...)``), the stored interlayer carries ``sigma^{-1}`` so
that evaluation under this package's slot-moving action reproduces exactly
that indexing, Koszul signs included.  Block permutations are stored as the
tuple rearrangement they denote.

Signs for the A-infinity/L-infinity relations are split: the stored scalar
is the element-independent part; the degree-dependent Koszul part arises
during graded evaluation.  ``sign_offset`` flips an extra (-1)^(offset * k)
per inner operation; the shipped convention is offset 0, frozen in
``data/sign_convention.json`` and pinned by the graded-algebra oracles in
the test suite.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .perm import (
    Permutation,
    all_permutations,
    block_permutation,
    compose,
    from_cycle,
    identity,
    sign,
    transposition,
    unshuffles,
)
from .presentation import HomPlan, Presentation, theta_min
from .term import (
    UNIT,
    Factor,
    GeneratorSymbol,
    Interlayer,
    Layer,
    LayeredMonomial,
    LinearTerm,
    Signature,
    UnitFactor,
)

DEFAULT_AINF_SIGN_OFFSET = 0


def frozen_sign_offset() -> int:
    """The shipped sign convention, from the golden config."""
    import json
    from importlib import resources

    data = json.loads(
        resources.files("homprop").joinpath("data/sign_convention.json").read_text()
    )
    return int(data["ainf_sign_offset"])


def _gap(width_or_perm, marks: Sequence[int] = ()) -> Interlayer:
    perm = (
        identity(width_or_perm) if isinstance(width_or_perm, int) else width_or_perm
    )
    return Interlayer(perm, tuple(marks))


def _layer(factors: Sequence[Factor], below=None, marks: Sequence[int] = ()) -> Layer:
    width = sum(1 if isinstance(f, UnitFactor) else f.in_arity for f in factors)
    gap = _gap(width if below is None else below, marks)
    return Layer(tuple(factors), gap)


def _mono(layers: Sequence[Layer], top=None, top_marks: Sequence[int] = ()) -> LayeredMonomial:
    width = layers[0].out_width if layers else None
    gap = _gap(width if top is None else top, top_marks)
    return LayeredMonomial(gap, tuple(layers))


class SubgroupTag(Enum):
    """The subgroups of Sigma_3 used by the associativity family."""

    E = "e"
    ID_12 = "12"
    ID_23 = "23"
    A3 = "a3"
    S3 = "s3"


def subgroup_elements(tag: SubgroupTag) -> tuple[Permutation, ...]:
    """Elements of the tagged subgroup, identity first then by image tuple;
    closure under composition and inverse is asserted."""
    if tag is SubgroupTag.E:
        elems = [identity(3)]
    elif tag is SubgroupTag.ID_12:
        elems = [identity(3), transposition(3, 1, 2)]
    elif tag is SubgroupTag.ID_23:
        elems = [identity(3), transposition(3, 2, 3)]
    elif tag is SubgroupTag.A3:
        elems = [identity(3), from_cycle(3, (1, 2, 3)), from_cycle(3, (1, 3, 2))]
    elif tag is SubgroupTag.S3:
        elems = list(all_permutations(3))
    else:
        raise ValueError(f"unknown subgroup tag {tag!r}")
    elems.sort(key=lambda p: p.images)
    group = {p.images for p in elems}
    for p in elems:
        assert p.inverse().images in group, f"{tag} not closed under inverse"
        for q in elems:
            assert compose(p, q).images in group, f"{tag} not closed under composition"
    return tuple(elems)


MU = GeneratorSymbol("mu", 1, 2)
DELTA = GeneratorSymbol("delta", 2, 1)
BRAIDING = GeneratorSymbol("braiding", 2, 2)


def as_g(tag: SubgroupTag = SubgroupTag.E) -> Presentation:
    """The G-associativity presentation: one generator mu of biarity (1,2)
    and the single relation  sum_{s in G} sign(s) { mu.(mu (x) 1).s -
    mu.(1 (x) mu).s }."""
    terms = []
    for p in subgroup_elements(tag):
        s = Fraction(sign(p))
        inv = p.inverse()
        left = _mono([_layer([MU]), _layer([MU, UNIT], below=inv)])
        right = _mono([_layer([MU]), _layer([UNIT, MU], below=inv)])
        terms.append((s, left))
        terms.append((-s, right))
    return Presentation(Signature((MU,)), (LinearTerm(tuple(terms)),))


def associativity() -> Presentation:
    return as_g(SubgroupTag.E)


class AsVariant(Enum):
    II1 = "ii1"
    III = "iii"


def as_variant(kind: AsVariant) -> tuple[Presentation, HomPlan]:
    """Associativity written with the expanded unit pattern of the variant
    Hom-associative axioms, plus the subset S and its trivial partition."""
    if kind is AsVariant.II1:
        left = _mono([_layer([MU]), _layer([MU, UNIT], marks=(1, 2, 3))])
        right = _mono([_layer([MU]), _layer([UNIT, MU], marks=(1, 2, 3))])
        s = (2, 3, 7, 8)
    elif kind is AsVariant.III:
        left = _mono([_layer([MU]), _layer([MU, UNIT])], top_marks=(1,))
        right = _mono([_layer([MU]), _layer([UNIT, MU])], top_marks=(1,))
        s = (1, 3)
    else:
        raise ValueError(f"unknown variant {kind!r}")
    rel = LinearTerm(((Fraction(1), left), (Fraction(-1), right)))
    p = Presentation(Signature((MU,)), (rel,))
    return p, theta_min(s)


def nambu(n: int) -> tuple[Presentation, HomPlan]:
    """The n-ary bracket presentation: the derivation-style relation with
    its block permutations, and the partition grouping the j-th unit of
    every monomial into one block."""
    if n < 2:
        raise ValueError(f"nambu needs n >= 2, got {n}")
    mu = GeneratorSymbol("mu", 1, n)
    lead = _mono([_layer([mu]), _layer([UNIT] * (n - 1) + [mu])])
    terms: list[tuple[Fraction, LayeredMonomial]] = [(Fraction(1), lead)]
    for i in range(1, n + 1):
        row: list[Factor] = [UNIT] * (i - 1) + [mu] + [UNIT] * (n - i)
        mono = _mono([_layer([mu]), _layer(row, below=block_permutation(n, i))])
        terms.append((Fraction(-1), mono))
    p = Presentation(Signature((mu,)), (LinearTerm(tuple(terms)),))
    blocks = tuple(
        (f"alpha_{j}", (j,) + tuple((n - 1) * i + j for i in range(1, n + 1)))
        for j in range(1, n)
    )
    labels = tuple(sorted(l for _, ls in blocks for l in ls))
    return p, HomPlan(labels, blocks)


def bialgebra() -> Presentation:
    """Generators mu (1,2) and delta (2,1) with associativity,
    coassociativity and the mu/delta compatibility relation."""
    as_rel = LinearTerm((
        (Fraction(1), _mono([_layer([MU]), _layer([MU, UNIT])])),
        (Fraction(-1), _mono([_layer([MU]), _layer([UNIT, MU])])),
    ))
    coas_rel = LinearTerm((
        (Fraction(1), _mono([_layer([DELTA, UNIT]), _layer([DELTA])])),
        (Fraction(-1), _mono([_layer([UNIT, DELTA]), _layer([DELTA])])),
    ))
    middle = transposition(4, 2, 3)
    comp_rel = LinearTerm((
        (Fraction(1), _mono([_layer([DELTA]), _layer([MU])])),
        (Fraction(-1), _mono([_layer([MU, MU], below=middle), _layer([DELTA, DELTA])])),
    ))
    return Presentation(Signature((MU, DELTA)), (as_rel, coas_rel, comp_rel))


def generalized_bialgebra_plan() -> HomPlan:
    """Two blocks: the associativity units and the coassociativity units."""
    return HomPlan((1, 2, 3, 4), (("alpha_1", (1, 2)), ("alpha_2", (3, 4))))


def ybe() -> Presentation:
    """One generator of biarity (2,2); the braid-style relation of degree 3."""
    b = BRAIDING
    left = _mono([_layer([UNIT, b]), _layer([b, UNIT]), _layer([UNIT, b])])
    right = _mono([_layer([b, UNIT]), _layer([UNIT, b]), _layer([b, UNIT])])
    rel = LinearTerm(((Fraction(1), left), (Fraction(-1), right)))
    return Presentation(Signature((b,)), (rel,))


def _slot_blocks(slot_lists: list[list[int]], prefix: str = "alpha_") -> Optional[HomPlan]:
    """Build a plan grouping occurrence labels by their recorded slot."""
    by_slot: dict[int, list[int]] = {}
    label = 1
    for slots in slot_lists:
        for slot in slots:
            by_slot.setdefault(slot, []).append(label)
            label += 1
    if not by_slot:
        return None
    blocks = tuple(
        (f"{prefix}{i}", tuple(by_slot[i])) for i in sorted(by_slot)
    )
    labels = tuple(sorted(l for _, ls in blocks for l in ls))
    return HomPlan(labels, blocks)


def a_infinity(
    n_max: int, sign_offset: int = DEFAULT_AINF_SIGN_OFFSET
) -> tuple[Presentation, Optional[HomPlan]]:
    """Truncated tower: operations m_1..m_N of degree 2-k, one relation per
    arity n <= N, units grouped by input slot.

    The stored coefficient of the (l, k) term is
    (-1)^((k+1)(l+1) - 1 + k n + offset k); the degree-dependent part of the
    usual sign appears at evaluation time through the Koszul convention.
    """
    if n_max < 1:
        raise ValueError(f"a_infinity needs N >= 1, got {n_max}")
    gens = tuple(GeneratorSymbol(f"m_{k}", 1, k, 2 - k) for k in range(1, n_max + 1))
    sym = {k: gens[k - 1] for k in range(1, n_max + 1)}
    relations = []
    slot_lists: list[list[int]] = []
    for n in range(1, n_max + 1):
        terms = []
        for l in range(0, n):
            for k in range(1, n - l + 1):
                exponent = (k + 1) * (l + 1) - 1 + k * n + sign_offset * k
                coef = Fraction(-1) ** exponent
                outer = sym[n - k + 1]
                row: list[Factor] = [UNIT] * l + [sym[k]] + [UNIT] * (n - l - k)
                mono = _mono([_layer([outer]), _layer(row)])
                terms.append((coef, mono))
                slot_lists.append(
                    list(range(1, l + 1)) + list(range(l + k + 1, n + 1))
                )
        relations.append(LinearTerm(tuple(terms)))
    p = Presentation(Signature(gens), tuple(relations))
    return p, _slot_blocks(slot_lists)


def l_infinity(
    n_max: int, sign_offset: int = DEFAULT_AINF_SIGN_OFFSET
) -> tuple[Presentation, Optional[HomPlan]]:
    """Truncated tower: antisymmetric brackets l_1..l_N of degree 2-k.

    Relations: antisymmetry  l_k - sign(s) l_k . s  for every non-identity
    s in Sigma_k (the Koszul half of the usual anti-symmetry sign arises at
    evaluation), then one unshuffle relation per arity n <= N with stored
    scalar sign(s) (-1)^(i(j-1) + offset i).  Units are grouped by their
    position after the inner bracket.
    """
    if n_max < 1:
        raise ValueError(f"l_infinity needs N >= 1, got {n_max}")
    gens = tuple(GeneratorSymbol(f"l_{k}", 1, k, 2 - k) for k in range(1, n_max + 1))
    sym = {k: gens[k - 1] for k in range(1, n_max + 1)}
    relations = []
    slot_lists: list[list[int]] = []
    for k in range(2, n_max + 1):
        for p in all_permutations(k):
            if p.is_identity():
                continue
            plain = _mono([_layer([sym[k]])])
            permed = _mono([_layer([sym[k]], below=p.inverse())])
            relations.append(
                LinearTerm(((Fraction(1), plain), (Fraction(-sign(p)), permed)))
            )
            slot_lists.append([])
    for n in range(1, n_max + 1):
        terms = []
        for i in range(1, n + 1):
            j = n + 1 - i
            for s in unshuffles(i, n - i):
                exponent = i * (j - 1) + sign_offset * i
                coef = Fraction(sign(s)) * Fraction(-1) ** exponent
                row: list[Factor] = [sym[i]] + [UNIT] * (n - i)
                mono = _mono([_layer([sym[j]]), _layer(row, below=s.inverse())])
                terms.append((coef, mono))
                slot_lists.append(list(range(2, n - i + 2)))
        relations.append(LinearTerm(tuple(terms)))
    p = Presentation(Signature(gens), tuple(relations))
    # Slot t in a row [l_i, 1 x (n-i)] is factor position t+1; group by t.
    plan = _slot_blocks([[pos - 1 for pos in slots] for slots in slot_lists])
    return p, plan


def _size(name: str) -> int:
    """The size after the colon of ``nambu:n``, ``ainf:N`` or ``linf:N``:
    plain ASCII decimal digits, so no sign, space, ``_`` or other script."""
    size = name.split(":", 1)[1]
    if not (size.isascii() and size.isdigit()):
        raise ValueError(f"unknown builtin {name!r}")
    return int(size)


def builtin(
    name: str, sign_offset: int = DEFAULT_AINF_SIGN_OFFSET
) -> tuple[Presentation, Optional[HomPlan]]:
    """Resolve a CLI builtin name to (presentation, canonical plan).

    Names: as, as-g:{e,12,23,a3,s3}, as-ii1, as-iii, nambu:n, bialgebra,
    ybe, ainf:N, linf:N.  Where no distinguished subset exists, the plan is
    theta_min over the whole of I (or None when I is empty).  ``sign_offset``
    reaches the ainf:/linf: towers only.
    """
    if name == "as":
        p = associativity()
        return p, theta_min(p.labels)
    if name.startswith("as-g:"):
        p = as_g(SubgroupTag(name.split(":", 1)[1]))
        return p, theta_min(p.labels)
    if name == "as-ii1":
        return as_variant(AsVariant.II1)
    if name == "as-iii":
        return as_variant(AsVariant.III)
    if name.startswith("nambu:"):
        return nambu(_size(name))
    if name == "bialgebra":
        return bialgebra(), theta_min((1, 2, 3, 4))
    if name == "bialgebra-generalized":
        return bialgebra(), generalized_bialgebra_plan()
    if name == "ybe":
        p = ybe()
        return p, theta_min(p.labels)
    if name.startswith("ainf:"):
        return a_infinity(_size(name), sign_offset)
    if name.startswith("linf:"):
        return l_infinity(_size(name), sign_offset)
    raise ValueError(f"unknown builtin {name!r}")


BUILTIN_NAMES = (
    "as", "as-g:e", "as-g:12", "as-g:23", "as-g:a3", "as-g:s3",
    "as-ii1", "as-iii", "nambu:2", "nambu:3", "bialgebra",
    "bialgebra-generalized", "ybe", "ainf:3", "linf:3",
)
