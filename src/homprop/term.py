"""Free-PROP monomials over a signature in their layered normal form.

Every monomial is held as a ``LayeredMonomial``: a top permutation gap
followed by alternating generator layers and permutation gaps,

    top . (layer_1 . gap_1) . (layer_2 . gap_2) . ... . (layer_k . gap_k)

read top-to-bottom, inputs at the bottom.  This is the interchange-law
normal form of the free PROP (Markl, "Operads and PROPs", Handbook of
Algebra 5, 2008).  Monomials are built from ``generator``, ``unit`` and
``permutation`` with ``tensor`` and ``vcomp``, which compose in normal
form: while parts are joined they are plain lists, a run of vertical
compositions is stacked in one step, a run of tensors is padded to a
common number of layers and concatenated in one step, and the result is
built, and validated, once.  ``serialize.term_from_json`` reads JSON into
the same lists.

Unit occurrences are first-class data: hom-ification replaces selected ones
with twisting generators, so they must stay addressable.  A unit occurrence
lives either as a factor inside a mixed layer (``mu . (1 (x) mu)`` keeps its
unit next to ``mu``) or as a mark on a wire of a permutation gap (a purely
vertical unit string such as the bottom ``1 (x) 1 (x) 1`` of the expanded
associativity variants contributes no layer; its units decorate the gap).
Consequently the degree of a monomial is its number of generator layers,
and purely vertical unit/permutation monomials have degree 0.

Interlayer gap marks are per-wire: vertically stacked units on one wire
collapse when the representation is canonicalized.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .perm import Permutation, identity


class VCompArityMismatch(ValueError):
    """Vertical composition of shapes that do not meet."""

    def __init__(self, expected: int, found: int, subterm=None):
        self.expected = expected
        self.found = found
        self.subterm = subterm
        super().__init__(f"vertical composition expects inner arity {expected}, found {found}")


class SubstitutionError(ValueError):
    """Replacement that would break biarities."""


@dataclass(frozen=True)
class GeneratorSymbol:
    """Named generator with ``out_arity`` outputs, ``in_arity`` inputs and a
    homological degree (0 in ungraded settings)."""

    name: str
    out_arity: int
    in_arity: int
    degree: int = 0

    def __repr__(self) -> str:
        return f"{self.name}({self.out_arity},{self.in_arity})"


@dataclass(frozen=True)
class Signature:
    """Generators in their given order, indexed by name in ``by_name``."""

    generators: tuple[GeneratorSymbol, ...]
    by_name: dict[str, GeneratorSymbol] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_name = {g.name: g for g in self.generators}
        if len(by_name) != len(self.generators):
            raise ValueError(f"duplicate generator names in {[g.name for g in self.generators]}")
        object.__setattr__(self, "by_name", by_name)

    def __getitem__(self, name: str) -> GeneratorSymbol:
        return self.by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self.by_name

    def extend(self, extra: Sequence[GeneratorSymbol]) -> "Signature":
        return Signature(self.generators + tuple(extra))


@dataclass(frozen=True)
class UnitFactor:
    """Marker for a unit occurrence used as a layer factor."""

    def __repr__(self) -> str:
        return "1"


UNIT = UnitFactor()

Factor = Union[GeneratorSymbol, UnitFactor]


# ---------------------------------------------------------------------------
# Layered monomials


@dataclass(frozen=True)
class Interlayer:
    """A permutation gap, possibly decorated with unit occurrences.

    ``marks`` are 1-based wire indices counted on the bottom side of the
    gap, sorted, distinct.  A mark stands for a unit occurrence riding that
    wire.
    """

    perm: Permutation
    marks: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if list(self.marks) != sorted(set(self.marks)):
            raise ValueError(f"marks must be sorted and distinct: {self.marks}")
        if any(not 1 <= s <= self.perm.n for s in self.marks):
            raise ValueError(f"mark out of range 1..{self.perm.n}: {self.marks}")

    @property
    def width(self) -> int:
        return self.perm.n


def _factor_out(f: Factor) -> int:
    return 1 if isinstance(f, UnitFactor) else f.out_arity


def _factor_in(f: Factor) -> int:
    return 1 if isinstance(f, UnitFactor) else f.in_arity


@dataclass(frozen=True)
class Layer:
    """A horizontal row of generator/unit factors with the gap below it."""

    factors: tuple[Factor, ...]
    below: Interlayer

    @property
    def out_width(self) -> int:
        return sum(_factor_out(f) for f in self.factors)

    @property
    def in_width(self) -> int:
        return sum(_factor_in(f) for f in self.factors)

    def __post_init__(self) -> None:
        if self.below.width != self.in_width:
            raise ValueError(
                f"gap width {self.below.width} != layer input width {self.in_width}"
            )


@dataclass(frozen=True)
class LayeredMonomial:
    top: Interlayer
    layers: tuple[Layer, ...]

    def __post_init__(self) -> None:
        width = self.top.width
        for layer in self.layers:
            if layer.out_width != width:
                raise ValueError(
                    f"layer output width {layer.out_width} does not meet {width} above it"
                )
            width = layer.below.width

    @property
    def out_arity(self) -> int:
        return self.top.width

    @property
    def in_arity(self) -> int:
        return self.layers[-1].below.width if self.layers else self.top.width

    @property
    def biarity(self) -> tuple[int, int]:
        return (self.out_arity, self.in_arity)

    def generators(self) -> list[GeneratorSymbol]:
        return [f for layer in self.layers for f in layer.factors
                if isinstance(f, GeneratorSymbol)]


def monomial_degree(m: LayeredMonomial) -> int:
    """Number of layers of the stored representation."""
    return len(m.layers)


def homological_degree(m: LayeredMonomial) -> int:
    return sum(g.degree for g in m.generators())


@dataclass(frozen=True)
class LinearTerm:
    """Finite sum of layered monomials with exact rational coefficients."""

    terms: tuple[tuple[Fraction, LayeredMonomial], ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("a relation needs at least one monomial")
        biarities = {m.biarity for _, m in self.terms}
        if len(biarities) > 1:
            raise ValueError(f"monomials of mixed biarity in one sum: {biarities}")
        if any(c == 0 for c, _ in self.terms):
            raise ValueError("zero coefficients must be dropped before storing")

    @property
    def biarity(self) -> tuple[int, int]:
        return self.terms[0][1].biarity

    def scaled(self, c: Fraction) -> "LinearTerm":
        return LinearTerm(tuple((c * coef, m) for coef, m in self.terms))


# ---------------------------------------------------------------------------
# Building monomials


# While a monomial is built it is a chain of plain data: ``[top gap, rows]``
# with one ``[factors, gap]`` row per layer, a gap being ``[images, marks]``,
# all of them lists owned by the chain.  Chains are joined in place, and the
# permutations, gaps, layers and monomial are built and validated once, by
# ``_build``.  ``serialize.term_from_json`` reads JSON straight into chains.


def _generator_chain(g: GeneratorSymbol) -> list:
    return [[list(range(1, g.out_arity + 1)), []],
            [[[g], [list(range(1, g.in_arity + 1)), []]]]]


def _unit_chain() -> list:
    return [[[1], [1]], []]


def _permutation_chain(p: Permutation) -> list:
    return [[list(p.images), []], []]


def _chain(m: LayeredMonomial) -> list:
    return [_gap_lists(m.top),
            [[list(layer.factors), _gap_lists(layer.below)] for layer in m.layers]]


def _gap_lists(gap: Interlayer) -> list:
    return [list(gap.perm.images), list(gap.marks)]


def _in_width(chain: list) -> int:
    top, rows = chain
    return len(rows[-1][1][0]) if rows else len(top[0])


def _fuse(upper: list, lower: list) -> list:
    """The gap ``upper`` followed by ``lower``: permutations composed, and
    the marks of ``upper`` carried down their wires through ``lower``."""
    images = [upper[0][j - 1] for j in lower[0]]
    if not upper[1]:
        return [images, lower[1]]
    inv = [0] * len(lower[0])
    for i, j in enumerate(lower[0], start=1):
        inv[j - 1] = i
    return [images, sorted({inv[s - 1] for s in upper[1]}.union(lower[1]))]


def _vcomp_run(parts: list) -> list:
    """Stack chains, top first: their rows in order, each chain's top gap
    fused into the gap above it.  Fusing gaps is associative, so this is
    the nested binary composition; like it, a mismatch is reported at the
    lowest junction first."""
    for i in range(len(parts) - 1, 0, -1):
        expected, found = _in_width(parts[i - 1]), len(parts[i][0][0])
        if expected != found:
            raise VCompArityMismatch(expected, found)
    out = parts[0]
    rows = out[1]
    for top, more in parts[1:]:
        if rows:
            rows[-1][1] = _fuse(rows[-1][1], top)
        else:
            out[0] = _fuse(out[0], top)
        rows.extend(more)
    return out


def _pad(chain: list, k: int) -> list:
    """Raise a chain to exactly ``k`` rows by adding unit rows below.  A
    chain with no rows is a purely vertical gap: its permutation stays on
    top, its wires become unit factors through all ``k`` rows, and its
    marks are absorbed."""
    top, rows = chain
    missing = k - len(rows)
    if missing:
        if rows:
            w = len(rows[-1][1][0])
        else:
            w = len(top[0])
            top[1] = []
        rows.extend([[UNIT] * w, [list(range(1, w + 1)), []]] for _ in range(missing))
    return chain


def _join(left: list, right: list) -> None:
    """Put gap ``right`` beside gap ``left``, in place."""
    w = len(left[0])
    left[0].extend([j + w for j in right[0]])
    left[1].extend([s + w for s in right[1]])


def _tensor_run(parts: list) -> list:
    """Set chains side by side: pad each to the most rows, then concatenate
    the top gaps and, row by row, the factors and the gaps.  A row of width
    w costs O(w)."""
    k = max(len(rows) for _, rows in parts)
    out = _pad(parts[0], k)
    for part in parts[1:]:
        top, rows = _pad(part, k)
        _join(out[0], top)
        for row, (factors, gap) in zip(out[1], rows):
            row[0].extend(factors)
            _join(row[1], gap)
    return out


def _gap(gap: list) -> Interlayer:
    return Interlayer(Permutation(tuple(gap[0])), tuple(gap[1]))


def _build(chain: list) -> LayeredMonomial:
    top, rows = chain
    return LayeredMonomial(_gap(top), tuple(Layer(tuple(f), _gap(g)) for f, g in rows))


def generator(g: GeneratorSymbol) -> LayeredMonomial:
    """One generator as a monomial of one layer."""
    return _build(_generator_chain(g))


def unit() -> LayeredMonomial:
    """The unit: one wire, marked as a unit occurrence."""
    return _build(_unit_chain())


def permutation(p: Permutation) -> LayeredMonomial:
    """A permutation of wires: a monomial with no layer."""
    return _build(_permutation_chain(p))


def tensor(*parts: LayeredMonomial) -> LayeredMonomial:
    """Horizontal composition, left to right: the parts padded with unit
    rows to the same number of layers and set side by side."""
    if not parts:
        raise ValueError("tensor needs at least one part")
    return _build(_tensor_run([_chain(m) for m in parts]))


def vcomp(*parts: LayeredMonomial) -> LayeredMonomial:
    """Vertical composition, top first; raises ``VCompArityMismatch`` at
    the lowest junction whose widths do not meet."""
    if not parts:
        raise ValueError("vcomp needs at least one part")
    return _build(_vcomp_run([_chain(m) for m in parts]))


# ---------------------------------------------------------------------------
# Unit occurrences


@dataclass(frozen=True)
class UnitOccurrence:
    """Address of one unit inside a stored relation list.

    Rows of a monomial are numbered top to bottom: row 0 is the top gap,
    row ``2j - 1`` the factors of layer ``j``, row ``2j`` the gap below
    layer ``j``.  ``slot_index`` is the 1-based factor position (factor
    rows) or wire index (gap rows).  ``label`` is the 1-based position in
    the whole occurrence set I.
    """

    relation_index: int
    monomial_index: int
    layer_index: int
    slot_index: int
    label: int


def _monomial_unit_addresses(m: LayeredMonomial) -> list[tuple[int, int]]:
    """(row, slot) of every unit occurrence, top-to-bottom, left-to-right."""
    out = [(0, s) for s in m.top.marks]
    for j, layer in enumerate(m.layers, start=1):
        out.extend((2 * j - 1, i) for i, f in enumerate(layer.factors, start=1)
                   if isinstance(f, UnitFactor))
        out.extend((2 * j, s) for s in layer.below.marks)
    return out


def index_units(relations: Sequence[LinearTerm]) -> tuple[UnitOccurrence, ...]:
    """Deterministic labeling of every unit occurrence in a relation list."""
    out: list[UnitOccurrence] = []
    label = 1
    for r, rel in enumerate(relations):
        for mi, (_, mono) in enumerate(rel.terms):
            for row, slot in _monomial_unit_addresses(mono):
                out.append(UnitOccurrence(r, mi, row, slot, label))
                label += 1
    return tuple(out)


# ---------------------------------------------------------------------------
# Substitution


def _bad_replacement(sym: Factor) -> bool:
    return isinstance(sym, GeneratorSymbol) and (sym.out_arity, sym.in_arity) != (1, 1)


def _check_unit_replacement(sym: Factor) -> None:
    if _bad_replacement(sym):
        raise SubstitutionError(f"units may only be replaced by (1,1) symbols, got {sym!r}")


def _substitute_factor(f: Factor, symbol_map: Mapping[GeneratorSymbol, Factor]) -> Factor:
    if isinstance(f, GeneratorSymbol) and f in symbol_map:
        new = symbol_map[f]
        if isinstance(new, GeneratorSymbol):
            if (new.out_arity, new.in_arity) != (f.out_arity, f.in_arity):
                raise SubstitutionError(f"cannot replace {f!r} by {new!r}: biarity changes")
        elif (f.out_arity, f.in_arity) != (1, 1):
            raise SubstitutionError(f"cannot replace {f!r} by the unit: biarity changes")
        return new
    return f


def _materialize_gap(gap: Interlayer, repl: Mapping[int, GeneratorSymbol] | None) -> tuple[Interlayer, Layer | None]:
    """Replace marked wires of a gap; returns the stripped gap and, if any
    replacement happened, the freshly created layer sitting below the
    permutation."""
    if not repl:
        return gap, None
    w = gap.width
    factors: list[Factor] = []
    for s in range(1, w + 1):
        if s in repl:
            factors.append(repl[s])
        else:
            # Unreplaced wires keep a unit in the new row (marked wires stay
            # occurrences; unmarked wires acquire padding units).
            factors.append(UNIT)
    new_layer = Layer(tuple(factors), Interlayer(identity(w)))
    return Interlayer(gap.perm), new_layer


@dataclass(frozen=True)
class _Split:
    """An assignment classified once.

    ``units`` buckets the occurrences by relation, then by (monomial, row),
    as ``{slot: symbol}``.  An invalid entry is kept to be raised where
    ``substitute`` would meet it: ``bad_value`` holds, per relation, the
    first replacement that is not a (1,1) symbol, and ``bad_key`` the first
    key that is neither a symbol nor an occurrence, as a 1-tuple (later
    entries cannot matter, since every relation raises at it or before)."""

    symbols: dict
    units: dict
    bad_value: dict
    bad_key: tuple = ()

    def apply(self, t: LinearTerm, r: int) -> LinearTerm:
        if r in self.bad_value:
            _check_unit_replacement(self.bad_value[r])
        if self.bad_key:
            raise SubstitutionError(f"bad assignment key {self.bad_key[0]!r}")
        rows = self.units.get(r, {})
        if not rows and not self.symbols:
            return t
        return LinearTerm(tuple((coef, self._monomial(mono, mi, rows))
                                for mi, (coef, mono) in enumerate(t.terms)))

    def _monomial(self, mono: LayeredMonomial, mi: int, rows: dict) -> LayeredMonomial:
        top, top_layer = _materialize_gap(mono.top, rows.get((mi, 0)))
        layers: list[Layer] = [] if top_layer is None else [top_layer]
        for j, layer in enumerate(mono.layers, start=1):
            here = rows.get((mi, 2 * j - 1), {})
            factors = []
            for i, f in enumerate(layer.factors, start=1):
                g = here.get(i)
                if g is not None:
                    if not isinstance(f, UnitFactor):
                        raise SubstitutionError(
                            f"occurrence (mono {mi}, row {2*j-1}, slot {i}) is not a unit"
                        )
                    factors.append(g)
                else:
                    factors.append(_substitute_factor(f, self.symbols))
            gap, gap_layer = _materialize_gap(layer.below, rows.get((mi, 2 * j)))
            layers.append(Layer(tuple(factors), gap))
            if gap_layer is not None:
                layers.append(gap_layer)
        return LayeredMonomial(top, tuple(layers))


def _split(assignment: Mapping) -> _Split:
    symbols: dict[GeneratorSymbol, Factor] = {}
    units: dict[int, dict[tuple[int, int], dict[int, GeneratorSymbol]]] = {}
    bad_value: dict[int, object] = {}
    for key, value in assignment.items():
        if isinstance(key, GeneratorSymbol):
            symbols[key] = value
        elif isinstance(key, UnitOccurrence):
            r = key.relation_index
            if r not in bad_value and _bad_replacement(value):
                bad_value[r] = value
            rows = units.setdefault(r, {})
            rows.setdefault((key.monomial_index, key.layer_index), {})[key.slot_index] = value
        else:
            return _Split(symbols, units, bad_value, (key,))
    return _Split(symbols, units, bad_value)


def substitute(
    t: LinearTerm,
    assignment: Mapping,
    *,
    relation_index: int = 0,
) -> LinearTerm:
    """Occurrence-wise and symbol-wise replacement inside one relation.

    ``assignment`` keys are ``GeneratorSymbol`` (symbol-level renaming, the
    value may be a symbol of equal biarity or ``UNIT``) or ``UnitOccurrence``
    objects addressing units of this relation; their values must be
    ``(1,1)`` symbols.
    """
    return _split(assignment).apply(t, relation_index)


def substitute_all(relations: Sequence[LinearTerm], assignment: Mapping) -> tuple[LinearTerm, ...]:
    """``substitute`` on every relation, relation ``r`` at relation_index
    ``r``, with the assignment classified once."""
    split = _split(assignment)
    return tuple(split.apply(rel, r) for r, rel in enumerate(relations))
