import math
import random
from fractions import Fraction

import pytest

from homprop import graphprop, presentation, term
from homprop.builtins import (
    BUILTIN_NAMES,
    AsVariant,
    SubgroupTag,
    as_g,
    as_variant,
    associativity,
    bialgebra,
    builtin,
    generalized_bialgebra_plan,
    nambu,
    ybe,
)
from homprop.presentation import (
    HomPlan,
    NameCollision,
    PlanError,
    Presentation,
    apply_substitution_to_relations,
    homify_multiplicative,
    homify_typed,
    is_normal,
    presentation_matches,
    projection_pi,
    relation_key,
    relations_match,
    simplify_relation,
    theta_max,
    theta_min,
)
from homprop.perm import identity
from homprop.term import (
    UNIT,
    GeneratorSymbol,
    Interlayer,
    Layer,
    LayeredMonomial,
    LinearTerm,
    Signature,
    SubstitutionError,
    UnitFactor,
    UnitOccurrence,
    index_units,
    substitute,
)

from oracles import (
    Gen,
    Tensor,
    UnitLeaf,
    linear_term,
    ref_relation_key,
    same_partition,
    tensor,
    vcomp,
)

MU = GeneratorSymbol("mu", 1, 2)
DELTA = GeneratorSymbol("delta", 2, 1)
ALPHA = GeneratorSymbol("alpha", 1, 1)


def hom_associativity_reference():
    """mu . (mu (x) alpha) - mu . (alpha (x) mu), built by hand."""
    return linear_term([
        (1, vcomp(Gen(MU), Tensor(Gen(MU), Gen(ALPHA)))),
        (-1, vcomp(Gen(MU), Tensor(Gen(ALPHA), Gen(MU)))),
    ])


def test_theta_min_max():
    plan = theta_min((1, 2))
    assert plan.blocks == (("alpha", (1, 2)),)
    plan = theta_max((1, 2))
    assert plan.blocks == (("alpha_1", (1,)), ("alpha_2", (2,)))
    with pytest.raises(PlanError):
        theta_min(())


def test_plan_validation():
    with pytest.raises(PlanError):
        HomPlan((1, 2), (("a", (1,)),))  # does not cover S
    with pytest.raises(PlanError):
        HomPlan((1, 2), (("a", (1, 2)), ("b", (2,))))  # overlap
    with pytest.raises(PlanError):
        HomPlan((1,), (("a", ()), ("b", (1,))))  # empty block


def test_homify_typed_as_gives_hom_associativity():
    p = associativity()
    q = homify_typed(p, theta_min(p.labels))
    assert [g.name for g in q.signature.generators] == ["mu", "alpha"]
    assert len(q.relations) == 1
    assert relations_match(q.relations[0], hom_associativity_reference())
    # exact equality too: the canonical forms coincide
    assert q.relations[0] == hom_associativity_reference()


def test_homify_multiplicative_as():
    p = associativity()
    q = homify_multiplicative(p)
    assert q.kind == "multiplicative"
    assert [g.name for g in q.signature.generators] == ["mu", "alpha"]
    assert len(q.relations) == 2
    compat_ref = linear_term([
        (1, vcomp(Gen(MU), Tensor(Gen(ALPHA), Gen(ALPHA)))),
        (-1, vcomp(Gen(ALPHA), Gen(MU))),
    ])
    assert relations_match(q.relations[0], compat_ref)
    assert relations_match(q.relations[1], hom_associativity_reference())


def test_homify_multiplicative_ybe_is_hybe():
    p = ybe()
    q = homify_multiplicative(p)
    b = p.signature["braiding"]
    alpha = q.signature["alpha"]
    compat_ref = linear_term([
        (1, vcomp(Gen(b), Tensor(Gen(alpha), Gen(alpha)))),
        (-1, vcomp(Tensor(Gen(alpha), Gen(alpha)), Gen(b))),
    ])
    assert relations_match(q.relations[0], compat_ref)
    hybe_ref = linear_term([
        (1, vcomp(
            Tensor(Gen(alpha), Gen(b)),
            Tensor(Gen(b), Gen(alpha)),
            Tensor(Gen(alpha), Gen(b)),
        )),
        (-1, vcomp(
            Tensor(Gen(b), Gen(alpha)),
            Tensor(Gen(alpha), Gen(b)),
            Tensor(Gen(b), Gen(alpha)),
        )),
    ])
    assert relations_match(q.relations[1], hybe_ref)


def test_homify_multiplicative_no_units():
    # A presentation whose single relation has no units: only compatibility
    # relations are added.
    braiding = GeneratorSymbol("braiding", 2, 2)
    rel = linear_term([
        (1, vcomp(Gen(braiding), Gen(braiding))),
        (-1, PermLeaf_id2()),
    ])
    p = Presentation(Signature((braiding,)), (rel,))
    q = homify_multiplicative(p)
    assert len(q.relations) == 2
    assert q.relations[1] == rel


def PermLeaf_id2():
    from homprop.perm import identity
    from oracles import PermLeaf

    return PermLeaf(identity(2))


def test_homify_name_collision():
    p = Presentation(
        Signature((MU, GeneratorSymbol("alpha", 1, 1))),
        (linear_term([(1, Gen(MU))]),),
    )
    with pytest.raises(NameCollision):
        homify_multiplicative(p)


def test_homify_typed_bialgebra_generalized():
    p = bialgebra()
    q = homify_typed(p, generalized_bialgebra_plan())
    a1 = q.signature["alpha_1"]
    a2 = q.signature["alpha_2"]
    hom_as = linear_term([
        (1, vcomp(Gen(MU), Tensor(Gen(MU), Gen(a1)))),
        (-1, vcomp(Gen(MU), Tensor(Gen(a1), Gen(MU)))),
    ])
    hom_coas = linear_term([
        (1, vcomp(Tensor(Gen(DELTA), Gen(a2)), Gen(DELTA))),
        (-1, vcomp(Tensor(Gen(a2), Gen(DELTA)), Gen(DELTA))),
    ])
    assert relations_match(q.relations[0], hom_as)
    assert relations_match(q.relations[1], hom_coas)
    assert q.relations[2] == p.relations[2]  # compatibility untouched


def test_homify_typed_ii1_matches_displayed_relation():
    p, plan = as_variant(AsVariant.II1)
    q = homify_typed(p, plan)
    alpha = q.signature["alpha"]
    ref = linear_term([
        (1, vcomp(
            Gen(MU),
            Tensor(Gen(MU), UnitLeaf()),
            tensor(Gen(alpha), Gen(alpha), UnitLeaf()),
        )),
        (-1, vcomp(
            Gen(MU),
            Tensor(UnitLeaf(), Gen(MU)),
            tensor(UnitLeaf(), Gen(alpha), Gen(alpha)),
        )),
    ])
    assert relations_match(q.relations[0], ref)


def test_homify_typed_iii_matches_displayed_relation():
    p, plan = as_variant(AsVariant.III)
    q = homify_typed(p, plan)
    alpha = q.signature["alpha"]
    ref = linear_term([
        (1, vcomp(Gen(alpha), Gen(MU), Tensor(Gen(MU), UnitLeaf()))),
        (-1, vcomp(Gen(alpha), Gen(MU), Tensor(UnitLeaf(), Gen(MU)))),
    ])
    assert relations_match(q.relations[0], ref)


def test_homify_typed_theta_max_one_alpha_per_unit():
    p = associativity()
    q = homify_typed(p, theta_max(p.labels))
    names = [g.name for g in q.signature.generators]
    assert names == ["mu", "alpha_1", "alpha_2"]


def test_typed_theta_min_equals_multiplicative_replacement_part():
    for p in (associativity(), bialgebra(), ybe(), as_g(SubgroupTag.A3)):
        q_typed = homify_typed(p, theta_min(p.labels))
        q_mult = homify_multiplicative(p)
        n_compat = len(p.signature.generators)
        assert q_typed.relations == q_mult.relations[n_compat:]


def test_projection_pi_round_trip_typed():
    for p in (associativity(), as_g(SubgroupTag.A3), bialgebra(), ybe(), nambu(2)[0]):
        for plan in (theta_min(p.labels), theta_max(p.labels)):
            q = homify_typed(p, plan)
            sub = projection_pi(q, "pi")
            projected = apply_substitution_to_relations(q.relations, sub)
            assert len(projected) == len(p.relations)
            for got, want in zip(projected, p.relations):
                assert relations_match(got, want)


def test_projection_pi2_round_trip_multiplicative():
    for p in (associativity(), ybe(), bialgebra()):
        q = homify_multiplicative(p)
        sub = projection_pi(q, "pi2")
        projected = apply_substitution_to_relations(q.relations, sub)
        n_compat = len(p.signature.generators)
        for rel in projected[:n_compat]:
            assert simplify_relation(rel) is None  # x . 1 - 1 . x collapses
        for got, want in zip(projected[n_compat:], p.relations):
            assert relations_match(got, want)


def test_projection_pi1_needs_full_coverage():
    p, plan = as_variant(AsVariant.II1)
    q = homify_typed(p, plan)
    with pytest.raises(PlanError):
        projection_pi(q, "pi1")


def test_projection_pi1_reaches_multiplicative_relations():
    p = associativity()
    q = homify_typed(p, theta_max(p.labels))
    sub = projection_pi(q, "pi1")
    projected = apply_substitution_to_relations(q.relations, sub)
    q_mult = homify_multiplicative(p)
    assert relations_match(projected[0], q_mult.relations[1])


def test_is_normal_builtins():
    assert is_normal(associativity()).degrees() == (2,)
    assert is_normal(ybe()).degrees() == (3,)
    assert is_normal(bialgebra()).degrees() == (2, 2, 2)


def test_is_normal_counterexample():
    # A degree-1 monomial minus a degree-2 monomial of the same biarity;
    # a ternary generator stands in for the single-layer side.
    nu = GeneratorSymbol("nu", 1, 3)
    rel = linear_term([
        (1, Gen(nu)),
        (-1, vcomp(Gen(MU), Tensor(Gen(MU), UnitLeaf()))),
    ])
    p = Presentation(Signature((MU, nu)), (rel,))
    report = is_normal(p)
    assert not report.all_normal()
    entry = report.entries[0]
    assert not entry.homogeneous
    assert entry.witness == ((0, 1), (1, 2))


def test_presentation_matches_with_rename():
    # Renaming is the caller's substitution: the twisting generator differs
    # by name only, so the pair matches exactly when it is renamed.
    p = associativity()
    q_typed = homify_typed(p, theta_min(p.labels, name="twister"))
    q_ref = homify_typed(p, theta_min(p.labels))
    (twister,), (alpha,) = q_typed.twisting, q_ref.twisting
    assert (twister.name, alpha.name) == ("twister", "alpha")
    renamed = Presentation(q_ref.signature, apply_substitution_to_relations(
        q_typed.relations, {twister: alpha}))
    assert not presentation_matches(q_typed, q_ref)
    assert not presentation_matches(q_ref, q_typed)
    assert presentation_matches(renamed, q_ref)
    assert presentation_matches(q_ref, renamed)


def _shuffled(p: Presentation, rng: random.Random) -> Presentation:
    """Relation and monomial order shuffled, and every relation rescaled."""
    rels = []
    for rel in p.relations:
        terms = list(rel.terms)
        rng.shuffle(terms)
        rels.append(LinearTerm(tuple(terms)).scaled(Fraction(rng.choice((-2, 1, 3)), 5)))
    rng.shuffle(rels)
    return Presentation(p.signature, tuple(rels))


def test_presentation_matches_out_of_stored_order():
    p, _ = builtin("ainf:4")
    rng = random.Random(5)
    shuffled = _shuffled(p, rng)
    assert shuffled.relations != p.relations
    assert presentation_matches(shuffled, p)
    assert presentation_matches(p, shuffled)

    # One coefficient's sign flipped: no relation of p is proportional to it.
    rels = list(shuffled.relations)
    r = next(i for i, rel in enumerate(rels) if len(rel.terms) >= 2)
    (c, m), *rest = rels[r].terms
    rels[r] = LinearTerm(((-c, m), *rest))
    flipped = Presentation(p.signature, tuple(rels))
    assert not presentation_matches(flipped, p)
    assert not presentation_matches(p, flipped)


def test_presentation_matches_counts_multiplicity():
    p, _ = builtin("ainf:4")
    first, second, *rest = p.relations
    assert not relations_match(first, second)
    doubled = Presentation(p.signature, (first, first, *rest))
    assert not presentation_matches(doubled, p)
    assert not presentation_matches(p, doubled)


def test_linf5_round_trip_builds_no_graph(monkeypatch):
    p, _ = builtin("linf:5")
    q = homify_typed(p, theta_max(p.labels))
    back = Presentation(p.signature, apply_substitution_to_relations(
        q.relations, projection_pi(q, "pi")))
    walked, keyed = [], []
    walk = graphprop._walk
    key = presentation.monomial_key

    def counting_walk(mono):
        walked.append(mono)
        return walk(mono)

    def counting_key(mono):
        keyed.append(mono)
        return key(mono)

    monkeypatch.setattr(graphprop, "_walk", counting_walk)
    monkeypatch.setattr(presentation, "monomial_key", counting_key)
    assert presentation_matches(back, p)
    assert len(keyed) > 0
    assert walked == keyed  # one walk over the layers per key, and no other


SCALES = (Fraction(-1), Fraction(-3, 2), Fraction(2, 7), Fraction(5))


def key_relations() -> list[LinearTerm]:
    """The relations of every builtin and of its multiplicative
    hom-ification, each also scaled by every ``SCALES`` entry and with its
    first coefficient doubled or negated, and the relations that cancel."""
    base = []
    for name in BUILTIN_NAMES:
        p, _ = builtin(name)
        base += p.relations + homify_multiplicative(p).relations
    out = list(base)
    for rel in base:
        out += [rel.scaled(c) for c in SCALES]
        (c, m), *rest = rel.terms
        out += [LinearTerm(((k * c, m), *rest)) for k in (2, -1)]
    x = linear_term([(1, Gen(MU))]).terms[0][1]
    out.append(LinearTerm(((Fraction(1, 3), x), (Fraction(-1, 3), x))))
    p, _ = builtin("as")
    q = homify_multiplicative(p)
    out += apply_substitution_to_relations(q.relations, projection_pi(q, "pi2"))
    return out


def test_relation_key_equality_agrees_with_the_reference():
    relations = key_relations()
    keys = [relation_key(r) for r in relations]
    refs = [ref_relation_key(r) for r in relations]
    assert same_partition(keys, refs)
    assert keys.count(()) == refs.count(()) >= 2
    assert 1 < len(set(keys)) < len(keys)


def test_relation_key_is_scale_free_with_int_coefficients():
    for rel in key_relations():
        key = relation_key(rel)
        assert all(type(c) is int for _, c in key)
        if key:
            assert key[0][1] > 0
            assert math.gcd(*(c for _, c in key)) == 1
        for c in SCALES:
            assert relation_key(rel.scaled(c)) == key


def test_simplify_relation_keeps_fractions_and_first_occurrences():
    left = vcomp(Gen(MU), Tensor(Gen(MU), UnitLeaf()))
    right = vcomp(Gen(MU), Tensor(UnitLeaf(), Gen(MU)))
    rel = linear_term([(Fraction(1, 2), right), (Fraction(1, 3), left),
                       (Fraction(1, 6), right), (Fraction(-1, 3), left)])
    (c, m), = simplify_relation(rel).terms
    assert (c, type(c), m) == (Fraction(2, 3), Fraction, rel.terms[0][1])
    assert simplify_relation(linear_term([(1, left), (-1, left)])) is None


@pytest.mark.parametrize("blocks, name", [
    ((("mu", (1, 2)),), "mu"),  # a generator of the signature
    ((("t", (1,)), ("t", (2,))), "t"),  # two blocks of one name
])
def test_homify_typed_refuses_taken_names(blocks, name):
    p = associativity()
    with pytest.raises(NameCollision) as exc:
        homify_typed(p, HomPlan((1, 2), blocks))
    assert str(exc.value) == f"generator {name!r} already exists; rename before hom-ifying"


def test_homify_and_projection_classify_once(monkeypatch):
    p, _ = builtin("linf:4")
    extended, split = [], []
    extend, classify = Signature.extend, term._split

    def counting_extend(self, extra):
        extended.append(extra)
        return extend(self, extra)

    def counting_split(assignment):
        split.append(assignment)
        return classify(assignment)

    monkeypatch.setattr(Signature, "extend", counting_extend)
    monkeypatch.setattr(term, "_split", counting_split)
    q = homify_typed(p, theta_max(p.labels))
    assert len(extended) == 1 and len(split) == 1
    apply_substitution_to_relations(q.relations, projection_pi(q, "pi"))
    assert len(split) == 2


def test_unit_index_recomputed_on_homified():
    p = associativity()
    q = homify_typed(p, theta_min(p.labels))
    assert q.unit_index == ()  # every unit was replaced
    p2, plan2 = as_variant(AsVariant.II1)
    q2 = homify_typed(p2, plan2)
    assert len(q2.unit_index) == 4  # the four untouched units remain


# ---------------------------------------------------------------------------
# Substitution against the per-relation reference


def ref_check_unit_replacement(sym):
    if isinstance(sym, GeneratorSymbol) and (sym.out_arity, sym.in_arity) != (1, 1):
        raise SubstitutionError(f"units may only be replaced by (1,1) symbols, got {sym!r}")


def ref_substitute_factor(f, symbol_map):
    if isinstance(f, GeneratorSymbol) and f in symbol_map:
        new = symbol_map[f]
        if isinstance(new, GeneratorSymbol):
            if (new.out_arity, new.in_arity) != (f.out_arity, f.in_arity):
                raise SubstitutionError(f"cannot replace {f!r} by {new!r}: biarity changes")
        elif (f.out_arity, f.in_arity) != (1, 1):
            raise SubstitutionError(f"cannot replace {f!r} by the unit: biarity changes")
        return new
    return f


def ref_materialize_gap(gap, repl):
    if not repl:
        return gap, None
    for g in repl.values():
        ref_check_unit_replacement(g)
    w = gap.width
    factors = [repl[s] if s in repl else UNIT for s in range(1, w + 1)]
    return Interlayer(gap.perm), Layer(tuple(factors), Interlayer(identity(w)))


def ref_substitute(t, assignment, *, relation_index=0):
    """Reference: the assignment is classified again for every relation, and
    every row's occurrences are looked up in the whole occurrence map."""
    symbol_map = {}
    occ_map = {}
    for key, value in assignment.items():
        if isinstance(key, GeneratorSymbol):
            symbol_map[key] = value
        elif isinstance(key, UnitOccurrence):
            if key.relation_index == relation_index:
                ref_check_unit_replacement(value)
                occ_map[(key.monomial_index, key.layer_index, key.slot_index)] = value
        else:
            raise SubstitutionError(f"bad assignment key {key!r}")

    new_terms = []
    for mi, (coef, mono) in enumerate(t.terms):
        top, top_layer = ref_materialize_gap(
            mono.top,
            {slot: g for (m, row, slot), g in occ_map.items() if m == mi and row == 0},
        )
        layers = [] if top_layer is None else [top_layer]
        for j, layer in enumerate(mono.layers, start=1):
            factors = []
            for i, f in enumerate(layer.factors, start=1):
                g = occ_map.get((mi, 2 * j - 1, i))
                if g is not None:
                    if not isinstance(f, UnitFactor):
                        raise SubstitutionError(
                            f"occurrence (mono {mi}, row {2*j-1}, slot {i}) is not a unit"
                        )
                    ref_check_unit_replacement(g)
                    factors.append(g)
                else:
                    factors.append(ref_substitute_factor(f, symbol_map))
            gap, gap_layer = ref_materialize_gap(
                layer.below,
                {slot: g for (m, row, slot), g in occ_map.items() if m == mi and row == 2 * j},
            )
            layers.append(Layer(tuple(factors), gap))
            if gap_layer is not None:
                layers.append(gap_layer)
        new_terms.append((coef, LayeredMonomial(top, tuple(layers))))
    return LinearTerm(tuple(new_terms))


def ref_apply(relations, mapping):
    return tuple(ref_substitute(rel, mapping, relation_index=r) for r, rel in enumerate(relations))


def ref_replace_units(p, targets):
    out = []
    for r, rel in enumerate(p.relations):
        assignment = {occ: targets[occ.label] for occ in p.unit_index
                      if occ.relation_index == r and occ.label in targets}
        out.append(ref_substitute(rel, assignment, relation_index=r) if assignment else rel)
    return tuple(out)


def outcome(f, *args, **kwargs):
    """The result with its repr, or the exception's type and message."""
    try:
        got = f(*args, **kwargs)
    except Exception as e:
        return type(e), str(e)
    return got, repr(got)


ORACLE_BUILTINS = ("as", "as-g:s3", "as-ii1", "as-iii", "nambu:3", "bialgebra", "ybe",
                   "ainf:5", "linf:4")


def random_plan(p: Presentation, rng: random.Random) -> HomPlan:
    S = rng.sample(p.labels, rng.randint(1, len(p.labels)))
    blocks = [[] for _ in range(rng.randint(1, len(S)))]
    for k, label in enumerate(S):
        blocks[k if k < len(blocks) else rng.randrange(len(blocks))].append(label)
    return HomPlan(tuple(sorted(S)), tuple((f"t{b}", tuple(labels))
                                          for b, labels in enumerate(blocks)))


def test_homify_and_projections_match_the_reference():
    rng = random.Random(12)
    for name in ORACLE_BUILTINS:
        p, _ = builtin(name)
        plans = [theta_min(p.labels), theta_max(p.labels)]
        plans += [random_plan(p, rng) for _ in range(4)]
        homified = []
        for plan in plans:
            q = homify_typed(p, plan)
            targets = {label: GeneratorSymbol(block, 1, 1) for block, labels in plan.blocks
                       for label in labels}
            assert q.relations == ref_replace_units(p, targets)
            assert q.signature == p.signature.extend(
                [GeneratorSymbol(block, 1, 1) for block in plan.block_names()])
            homified.append(q)
        q = homify_multiplicative(p)
        replaced = q.relations[len(p.signature.generators):]
        assert replaced == ref_replace_units(p, {label: ALPHA for label in p.labels})
        homified.append(q)
        for q in homified:
            kinds = ("pi2",) if q.kind == "multiplicative" else (
                ("pi", "pi1") if q.covers_all_units() else ("pi",))
            for kind in kinds:
                mapping = projection_pi(q, kind)
                got = apply_substitution_to_relations(q.relations, mapping)
                want = ref_apply(q.relations, mapping)
                assert got == want and repr(got) == repr(want)


def substitution_pool(relations) -> list:
    """Assignment entries for a relation list: valid and invalid unit
    replacements, addresses of generator factors and of wires past a gap,
    symbol renamings that keep or change the biarity, and bad keys."""
    wrong = (GeneratorSymbol("mu3", 1, 2), GeneratorSymbol("delta3", 2, 1))
    pool = []
    for occ in index_units(relations):
        pool += [(occ, ALPHA), (occ, wrong[occ.label % 2]), (occ, UNIT)]
    pool.append((index_units(relations)[0], None))
    symbols = []
    for r, rel in enumerate(relations):
        for mi, (_, mono) in enumerate(rel.terms):
            for j, layer in enumerate(mono.layers, start=1):
                for i, f in enumerate(layer.factors, start=1):
                    if isinstance(f, GeneratorSymbol):
                        pool.append((UnitOccurrence(r, mi, 2 * j - 1, i, 0), ALPHA))
                        symbols.append(f)
                pool.append((UnitOccurrence(r, mi, 2 * j, layer.below.width + 1, 0), ALPHA))
    for g in set(symbols):
        pool += [(g, GeneratorSymbol(g.name + "'", g.out_arity, g.in_arity, g.degree)),
                 (g, UNIT), (g, GeneratorSymbol(g.name + "*", g.in_arity, g.out_arity + 1))]
    pool += [("x", ALPHA), (None, ALPHA), (7, ALPHA)]
    return pool


def test_substitution_errors_match_the_reference():
    rng = random.Random(2012)
    seen = set()
    for name in ORACLE_BUILTINS:
        p, _ = builtin(name)
        relations = p.relations
        pool = substitution_pool(relations)
        for _ in range(30):
            assignment = dict(rng.sample(pool, rng.randint(1, min(6, len(pool)))))
            got = outcome(apply_substitution_to_relations, relations, assignment)
            assert got == outcome(ref_apply, relations, assignment)
            seen.add(got[0] if isinstance(got[0], type) else "ok")
            for r, rel in enumerate(relations):
                assert (outcome(substitute, rel, assignment, relation_index=r)
                        == outcome(ref_substitute, rel, assignment, relation_index=r))
            assert apply_substitution_to_relations((), assignment) == ()
    assert seen >= {"ok", SubstitutionError}


@pytest.mark.parametrize("entries, message", [
    ([("x", ALPHA)], "bad assignment key 'x'"),
    ([(None, ALPHA)], "bad assignment key None"),
    ([(UnitOccurrence(0, 0, 1, 1, 0), ALPHA)], "occurrence (mono 0, row 1, slot 1) is not a unit"),
    ([(MU, ALPHA)], "cannot replace mu(1,2) by alpha(1,1): biarity changes"),
    ([(MU, UNIT)], "cannot replace mu(1,2) by the unit: biarity changes"),
    ([(UnitOccurrence(0, 0, 1, 2, 1), MU)], "units may only be replaced by (1,1) symbols, got mu(1,2)"),
    # The first entry in assignment order that relation 0 meets is raised.
    ([(UnitOccurrence(0, 0, 1, 2, 1), MU), ("x", ALPHA)], "units may only be replaced"),
    ([("x", ALPHA), (UnitOccurrence(0, 0, 1, 2, 1), MU)], "bad assignment key 'x'"),
    ([(UnitOccurrence(1, 0, 1, 2, 1), MU), ("x", ALPHA)], "bad assignment key 'x'"),
])
def test_substitution_error_inputs(entries, message):
    relations = associativity().relations
    assignment = dict(entries)
    want = outcome(ref_apply, relations, assignment)
    assert want[0] is SubstitutionError and message in want[1]
    assert outcome(apply_substitution_to_relations, relations, assignment) == want
    assert outcome(substitute, relations[0], assignment) == outcome(ref_substitute, relations[0], assignment)
