"""JSON file formats for presentations, plans, spaces, matrices, algebras.

Rationals travel as strings ("p/q" or "n") so no consumer can lose
precision.  On input, strings and JSON integers are accepted; floats and
booleans are refused, because a float such as ``0.1`` already lost its
exact value when it was parsed.  Arities, degrees, dimensions,
permutation images and plan labels must be JSON integers.  Monomials use
the five-node schema

    {"gen": name} | {"unit": true} | {"perm": [images]} |
    {"tensor": [t1, t2, ...]} | {"vcomp": [top, ..., bottom]}

where every node has exactly one of these keys and a unit is written
``true``; anything else is a ``ParseError``.  A monomial is read straight
into its layered normal form, with n-ary tensor/vcomp nodes composed in
one step each.  Serialization of a stored monomial emits one row per
layer and permutation gap, so parsing it back yields the identical
canonical form; unit-occurrence labels survive round trips.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Optional

from .linalg import GradedSpace, LinearMap, make_map
from .presentation import HomPlan, Presentation
from .algebra import StructureMap, structure_map
from .perm import Permutation
from .term import (
    GeneratorSymbol,
    Interlayer,
    LayeredMonomial,
    LinearTerm,
    Signature,
    UnitFactor,
    VCompArityMismatch,
    _build,
    _generator_chain,
    _permutation_chain,
    _tensor_run,
    _unit_chain,
    _vcomp_run,
)


class ParseError(ValueError):
    pass


def _require(cond: bool, msg: str, *args: Any) -> None:
    """Raise ``ParseError(msg.format(*args))`` unless ``cond``; the message
    is only formatted on failure, so a valid node's repr is never built."""
    if not cond:
        raise ParseError(msg.format(*args) if args else msg)


def _rational(v: Any, where: str) -> Fraction:
    """An exact rational from a JSON string or integer."""
    _require(isinstance(v, (str, int)) and not isinstance(v, bool),
             "{}: {!r} is not exact; write rationals as strings or integers", where, v)
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"{where}: {v!r} is not a rational") from e


def _integer(v: Any, where: str, lowest: Optional[int] = None) -> int:
    """A JSON integer (not a boolean), at least ``lowest`` if given."""
    _require(isinstance(v, int) and not isinstance(v, bool), "{}: {!r} is not an integer", where, v)
    _require(lowest is None or v >= lowest, "{}: {!r} is below {}", where, v, lowest)
    return v


def _list(v: Any, where: str) -> list:
    _require(isinstance(v, list), "{} must be a list, got {!r}", where, v)
    return v


# ---------------------------------------------------------------------------
# Terms


def _gap_rows(gap: Interlayer) -> list[Any]:
    rows: list[Any] = []
    if not gap.perm.is_identity():
        rows.append({"perm": list(gap.perm.images)})
    if gap.marks:
        marked = set(gap.marks)
        cells = [
            {"unit": True} if s in marked else {"perm": [1]}
            for s in range(1, gap.width + 1)
        ]
        rows.append({"tensor": cells} if len(cells) > 1 else cells[0])
    return rows


def term_to_json(m: LayeredMonomial) -> Any:
    """A monomial as JSON: one row per layer and gap."""
    rows: list[Any] = list(_gap_rows(m.top))
    for layer in m.layers:
        cells = [
            {"unit": True} if isinstance(f, UnitFactor) else {"gen": f.name}
            for f in layer.factors
        ]
        rows.append({"tensor": cells} if len(cells) > 1 else cells[0])
        rows.extend(_gap_rows(layer.below))
    if not rows:
        return {"perm": list(m.top.perm.images)}
    if len(rows) == 1:
        return rows[0]
    return {"vcomp": rows}


_TERM_KINDS = ("gen", "unit", "perm", "tensor", "vcomp")


def _leaf_chain(kind: str, value: Any, node: dict, signature: Signature) -> list:
    if kind == "gen":
        # Only a string is looked up: a list or an object cannot be hashed.
        _require(isinstance(value, str) and value in signature, "unknown generator {!r}", value)
        return _generator_chain(signature[value])
    if kind == "unit":
        _require(value is True, "unit node must be {{\"unit\": true}}, got {!r}", node)
        return _unit_chain()
    return _permutation_chain(
        Permutation(tuple(_integer(i, "perm image") for i in _list(value, "perm"))))


def term_from_json(data: Any, signature: Signature) -> LayeredMonomial:
    """Read a monomial straight into its layered form.

    The nodes are walked depth first, left to right, on a stack of open
    tensor/vcomp nodes, so deep nesting needs no recursion.  Each closed
    node joins the chains of its parts (see ``term``).  A vertical
    mismatch is kept and raised only once the whole monomial has been
    read, so a malformed node anywhere in it is reported first; of several
    mismatches, the first met is raised.
    """
    mismatch: Optional[VCompArityMismatch] = None
    open_nodes: list[tuple[str, list, list]] = []  # (kind, child nodes, their chains)
    node = data
    while True:
        _require(isinstance(node, dict), "term node must be an object, got {!r}", node)
        _require(len(node) == 1 and next(iter(node)) in _TERM_KINDS,
                 "term node needs exactly one key, one of gen, unit, perm, tensor, vcomp; got {!r}",
                 node)
        ((kind, value),) = node.items()
        if kind == "tensor" or kind == "vcomp":
            children = _list(value, kind)
            _require(len(children) >= 1, "empty {} node", kind)
            open_nodes.append((kind, children, []))
            node = children[0]
            continue
        chain = _leaf_chain(kind, value, node, signature)
        while open_nodes:
            kind, children, chains = open_nodes[-1]
            chains.append(chain)
            if len(chains) < len(children):
                node = children[len(chains)]
                break
            open_nodes.pop()
            try:
                chain = _tensor_run(chains) if kind == "tensor" else _vcomp_run(chains)
            except VCompArityMismatch as e:
                mismatch = mismatch or e
                chain = chains[0]  # any chain will do: the monomial is refused
        else:  # every node is closed
            if mismatch is not None:
                raise mismatch
            return _build(chain)


# ---------------------------------------------------------------------------
# Presentations and plans


def presentation_to_json(p: Presentation) -> Any:
    return {
        "generators": [
            {"name": g.name, "out": g.out_arity, "in": g.in_arity, "degree": g.degree}
            for g in p.signature.generators
        ],
        "relations": [
            [
                {"coef": str(coef), "monomial": term_to_json(mono)}
                for coef, mono in rel.terms
            ]
            for rel in p.relations
        ],
    }


def presentation_from_json(data: Any) -> Presentation:
    _require(isinstance(data, dict), "presentation file must be an object")
    _require("generators" in data and "relations" in data,
             "presentation needs 'generators' and 'relations'")
    gens = []
    for g in _list(data["generators"], "generators"):
        _require(isinstance(g, dict) and {"name", "out", "in"} <= g.keys(),
                 "generator needs 'name', 'out' and 'in', got {!r}", g)
        name = g["name"]
        _require(isinstance(name, str), f"generator name {name!r} is not a string")
        gens.append(GeneratorSymbol(
            name,
            _integer(g["out"], f"generator {name!r} out", 0),
            _integer(g["in"], f"generator {name!r} in", 0),
            _integer(g.get("degree", 0), f"generator {name!r} degree"),
        ))
    sig = Signature(tuple(gens))
    relations = []
    for rel in _list(data["relations"], "relations"):
        _require(len(_list(rel, "relation")) >= 1, "empty relation")
        pairs = []
        for item in rel:
            _require(isinstance(item, dict) and "coef" in item and "monomial" in item,
                     "relation item needs 'coef' and 'monomial', got {!r}", item)
            coef = _rational(item["coef"], "coef")
            pairs.append((coef, term_from_json(item["monomial"], sig)))
        relations.append(LinearTerm(tuple(pairs)))
    return Presentation(sig, tuple(relations))


def plan_to_json(plan: HomPlan) -> Any:
    return {
        "S": list(plan.S),
        "theta": [list(labels) for _, labels in plan.blocks],
        "names": [name for name, _ in plan.blocks],
    }


def plan_from_json(data: Any) -> HomPlan:
    _require(isinstance(data, dict) and "S" in data and "theta" in data,
             "plan file needs 'S' and 'theta'")
    S = tuple(_integer(s, "S label") for s in _list(data["S"], "S"))
    blocks_labels = [
        tuple(_integer(s, "theta label") for s in _list(b, "theta block"))
        for b in _list(data["theta"], "theta")
    ]
    names = data.get("names")
    if names is None:
        if len(blocks_labels) == 1:
            names = ["alpha"]
        else:
            names = [f"alpha_{min(b, default='')}" for b in blocks_labels]
    _require(all(isinstance(n, str) for n in _list(names, "names")),
             f"names must be strings, got {names!r}")
    _require(len(names) == len(blocks_labels), "names/theta length mismatch")
    return HomPlan(S, tuple(zip(names, blocks_labels)))


# ---------------------------------------------------------------------------
# Spaces, matrices, algebras


def space_to_json(space: GradedSpace) -> Any:
    return {"dims": {str(d): k for d, k in space.dims}}


def space_from_json(data: Any) -> GradedSpace:
    _require(isinstance(data, dict) and isinstance(data.get("dims"), dict),
             "space needs 'dims', an object from degree to dimension")
    dims = {}
    for d, k in data["dims"].items():
        _require(re.fullmatch(r"0|-?[1-9][0-9]*", d) is not None,
                 f"dims: degree key {d!r} is not an integer")
        dims[int(d)] = _integer(k, f"dims[{d!r}]", 0)
    return GradedSpace.from_dims(dims)


def matrix_to_json(m: LinearMap) -> Any:
    return [[str(v) for v in row] for row in m.entries]


def matrix_rows_from_json(data: Any) -> list[list[Fraction]]:
    _require(isinstance(data, list) and all(isinstance(row, list) for row in data),
             "matrix must be a list of rows")
    return [[_rational(v, "matrix entry") for v in row] for row in data]


def algebra_to_json(lam: StructureMap) -> Any:
    return {
        "space": space_to_json(lam.space),
        "maps": {g.name: matrix_to_json(m) for g, m in lam.assignments},
    }


def algebra_from_json(data: Any, p: Presentation) -> StructureMap:
    _require(isinstance(data, dict) and "space" in data and "maps" in data,
             "algebra file needs 'space' and 'maps'")
    _require(isinstance(data["maps"], dict),
             f"maps must be an object from generator name to matrix, got {data['maps']!r}")
    space = space_from_json(data["space"])
    maps = {}
    for g in p.signature.generators:
        _require(g.name in data["maps"], f"algebra file missing map for {g.name!r}")
        rows = matrix_rows_from_json(data["maps"][g.name])
        maps[g] = make_map(
            space, space, rows,
            source_power=g.in_arity, target_power=g.out_arity, degree=g.degree,
        )
    return structure_map(space, maps)


def endomorphism_to_json(m: LinearMap) -> Any:
    return {"space": space_to_json(m.source), "matrix": matrix_to_json(m)}


def endomorphism_from_json(data: Any) -> LinearMap:
    _require(isinstance(data, dict) and "space" in data and "matrix" in data,
             "endomorphism file needs 'space' and 'matrix'")
    space = space_from_json(data["space"])
    rows = matrix_rows_from_json(data["matrix"])
    return make_map(space, space, rows)


def dumps(data: Any) -> str:
    """Stable JSON encoding: sorted keys, newline-terminated."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
