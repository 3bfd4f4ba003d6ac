"""Seeded benchmark inputs whose verdicts are known from how they were built.

Every algebra is a corpus or tower algebra transported along a change of
basis ``g`` that preserves degrees:

    lam'(x) = g^{(x) out} . lam(x) . (g^-1)^{(x) in},    beta' = g beta g^-1

``g`` is an isomorphism from ``lam`` to ``lam'`` that intertwines the
signed permutation actions (it is block-diagonal by degree and has degree
0), so every relation, morphism and twist verdict of the original carries
over unchanged.  The expected ``(exit code, status)`` of each command is
therefore fixed here, from the construction and from a few deliberate
failures, and never read off the code under test.

Inputs are written once through ``homprop.serialize`` into a work
directory; the measured passes only run the commands on those files.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from homprop import builtins, cli, corpus, linalg, serialize
from homprop import presentation as pres
from homprop.algebra import StructureMap, structure_map
from homprop.presentation import Presentation

# Builtin names and CLI plans of the corpus entries, in corpus order.  The
# plans are the builtin defaults except for the flip, whose corpus plan is
# the multiplicative hom-ification.
CORPUS_CLI = {
    "dual-numbers": ("as", None),
    "sl2": ("as-g:a3", None),
    "aff1-bracket": ("nambu:2", None),
    "c2-bialgebra": ("bialgebra-generalized", None),
    "flip-ybe": ("ybe", "multiplicative"),
    "one-odd-line-dga": ("ainf:3", None),
    "odd-heisenberg-dgla": ("linf:3", None),
}

ROUNDTRIP_BUILTINS = ("linf:5", "ainf:7", "nambu:4", "bialgebra", "ybe")

PASS = (0, "pass")
FAIL = (1, "fail")
PRECONDITION = (2, None)


@dataclass(frozen=True)
class Case:
    """One command of a pass: ``run`` does the work and returns the observed
    verdict, which must equal ``expected``."""

    label: str
    run: Callable[[], object]
    expected: object


# ---------------------------------------------------------------------------
# Changes of basis


# Fixed magnitudes; the seed picks only the signs, so every seed does the same
# amount of rational arithmetic.
DIAGONAL = (Fraction(3, 2), Fraction(2, 3), Fraction(2))
DENSE_BLOCKS = {
    1: ((Fraction(3, 2),),),
    2: ((Fraction(1), Fraction(1, 2)),
        (Fraction(2, 3), Fraction(3, 2))),
    3: ((Fraction(1), Fraction(1, 2), Fraction(2, 3)),
        (Fraction(1, 3), Fraction(3, 2), Fraction(1)),
        (Fraction(2), Fraction(1), Fraction(5, 4))),
}


def _signs(n: int, rng: random.Random) -> list[int]:
    return [rng.choice((-1, 1)) for _ in range(n)]


def diagonal_basis_change(space: linalg.GradedSpace, rng: random.Random) -> linalg.LinearMap:
    n = space.dim
    signs = _signs(n, rng)
    rows = [[signs[r] * DIAGONAL[r] if r == c else Fraction(0) for c in range(n)]
            for r in range(n)]
    return linalg.make_map(space, space, rows)


def dense_basis_change(space: linalg.GradedSpace, rng: random.Random) -> linalg.LinearMap:
    """Block-diagonal by degree; each block is a fixed dense invertible block
    whose rows and columns the seed multiplies by signs."""
    n = space.dim
    rows = [[Fraction(0)] * n for _ in range(n)]
    start = 0
    for _, k in space.dims:
        block = DENSE_BLOCKS[k]
        row_sign, col_sign = _signs(k, rng), _signs(k, rng)
        for r in range(k):
            for c in range(k):
                rows[start + r][start + c] = row_sign[r] * col_sign[c] * block[r][c]
        start += k
    return linalg.make_map(space, space, rows)


def transport(lam: StructureMap, g: linalg.LinearMap, g_inv: linalg.LinearMap) -> StructureMap:
    return structure_map(lam.space, {
        sym: linalg.compose(
            linalg.compose(linalg.tensor_power(g, sym.out_arity), m),
            linalg.tensor_power(g_inv, sym.in_arity),
        )
        for sym, m in lam.assignments
    })


def conjugate(g: linalg.LinearMap, beta: linalg.LinearMap, g_inv: linalg.LinearMap) -> linalg.LinearMap:
    return linalg.compose(linalg.compose(g, beta), g_inv)


def yau_twisted(lam: StructureMap, beta: linalg.LinearMap, twisting_names) -> dict:
    """Maps of the Yau twist: beta^{(x) out} . lam on every generator, beta on
    every twisting generator."""
    maps = {
        sym.name: linalg.compose(linalg.tensor_power(beta, sym.out_arity), m)
        for sym, m in lam.assignments
    }
    maps.update({name: beta for name in twisting_names})
    return maps


def nonzero_share(maps) -> tuple[int, int]:
    """(nonzero entries, entries) over a collection of matrices."""
    nz = total = 0
    for m in maps:
        for row in m.entries:
            total += len(row)
            nz += sum(1 for v in row if v != 0)
    return nz, total


# ---------------------------------------------------------------------------
# The command runners


def run_cli(argv: list[str]) -> tuple[int, object]:
    """Run ``cli.main`` in-process; the observed verdict is the exit code with
    the report's ``status``, or a structural summary where it has none."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    if not text:
        return code, None
    if argv[0] == "graph-dump":
        return code, sum(1 for line in text.splitlines() if line.startswith("relation "))
    report = json.loads(text)
    if argv[0] == "homify":
        return code, len(report["relations"])
    return code, report.get("status")


class Inputs:
    """Writes the files of one workload and lists its cases."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.rng = random.Random(f"{workload}/{seed}")
        self.dir = workdir
        self.cases: list[Case] = []
        self.warmup: list[Case] = []  # the same commands on the smallest input
        # Input properties recorded for the workload description.
        self.generator_nonzero = [0, 0]
        self.relations_in_place = [0, 0]
        getattr(self, "_build_" + workload.replace("-", "_"))()

    # -- helpers ----------------------------------------------------------

    def _write(self, name: str, data) -> str:
        path = self.dir / name
        path.write_text(serialize.dumps(data))
        return str(path)

    def _algebra(self, name: str, lam: StructureMap) -> str:
        nz, total = nonzero_share(m for _, m in lam.assignments)
        self.generator_nonzero[0] += nz
        self.generator_nonzero[1] += total
        return self._write(name, serialize.algebra_to_json(lam))

    def _endo(self, name: str, m: linalg.LinearMap) -> str:
        return self._write(name, serialize.endomorphism_to_json(m))

    def _cli(self, label: str, argv: list[str], expected) -> None:
        self.cases.append(Case(label, lambda: run_cli(argv), expected))

    # -- tower-check ------------------------------------------------------

    def _build_tower_check(self) -> None:
        bracket = corpus.sl2()[builtins.as_g(builtins.SubgroupTag.A3).signature["mu"]]

        def bracket_only(p: Presentation) -> StructureMap:
            return structure_map(corpus.SL2_SPACE, {
                g: bracket if g.in_arity == 2 else linalg.zero_map(
                    corpus.SL2_SPACE, g.in_arity, corpus.SL2_SPACE, 1, degree=g.degree)
                for g in p.signature.generators
            })

        towers = (
            ("sl2-linf4", "linf:4", bracket_only(builtins.l_infinity(4)[0]), PASS),
            # The sl2 bracket is not associative, so m2 alone fails ainf.
            ("sl2-ainf4", "ainf:4", bracket_only(builtins.a_infinity(4)[0]), FAIL),
            ("exterior-ainf6", "ainf:6", corpus.exterior_dga(6), PASS),
            ("heisenberg-linf5", "linf:5", corpus.odd_heisenberg_dgla(5), PASS),
        )
        for name, builtin, lam, expected in towers:
            g = diagonal_basis_change(lam.space, self.rng)
            path = self._algebra(f"{name}.json", transport(lam, g, linalg.inverse_map(g)))
            self._cli(f"check {name}", ["check", "--builtin", builtin, "--algebra", path], expected)
        # The warm-up checks the smallest rung of the same kind.
        path = self._write("sl2-linf2.json", serialize.algebra_to_json(
            bracket_only(builtins.l_infinity(2)[0])))
        argv = ["check", "--builtin", "linf:2", "--algebra", path]
        self.warmup = [Case("check sl2-linf2", lambda: run_cli(argv), PASS)]

    # -- twist-suite ------------------------------------------------------

    def _build_twist_suite(self) -> None:
        for entry in corpus.corpus():
            builtin, cli_plan = CORPUS_CLI[entry.name]
            plan_args = ["--plan", cli_plan] if cli_plan else []
            lam = entry.algebra()
            beta = entry.betas[0]()
            g = dense_basis_change(lam.space, self.rng)
            g_inv = linalg.inverse_map(g)
            lam_t = transport(lam, g, g_inv)
            beta_t = conjugate(g, beta, g_inv)
            twisting = ("alpha",) if entry.plan == "multiplicative" else entry.plan.block_names()
            n = entry.name
            files = {
                "lam": self._algebra(f"{n}.json", lam_t),
                "orig": self._write(f"{n}-orig.json", serialize.algebra_to_json(lam)),
                "beta": self._endo(f"{n}-beta.json", beta_t),
                "beta0": self._endo(f"{n}-beta0.json", beta),
                "g": self._endo(f"{n}-g.json", g),
                "yau": self._write(f"{n}-yau.json", {
                    "space": serialize.space_to_json(lam.space),
                    "maps": {k: serialize.matrix_to_json(m)
                             for k, m in yau_twisted(lam_t, beta_t, twisting).items()},
                }),
                "mult": self._write(f"{n}-mult.json", {
                    "space": serialize.space_to_json(lam.space),
                    "maps": {k: serialize.matrix_to_json(m)
                             for k, m in yau_twisted(lam_t, beta_t, ("alpha",)).items()},
                }),
            }
            b = ["--builtin", builtin]
            self._cli(f"check {n}", ["check", *b, "--algebra", files["lam"]], PASS)
            self._cli(f"morphism {n}", ["morphism", *b, "--algebra", files["lam"],
                                        "--beta", files["beta"]], PASS)
            self._cli(f"yau-twist {n}", ["yau-twist", *b, *plan_args, "--algebra", files["lam"],
                                         "--beta", files["beta"]], PASS)
            self._cli(f"twist {n}", ["twist", *b, *plan_args, "--algebra", files["yau"],
                                     "--beta", files["beta"]], PASS)
            self._cli(f"derived {n}", ["derived", *b, "--algebra", files["mult"], "--n", "2"], PASS)
            self._cli(f"iso-check {n}", ["iso-check", *b, "--algebra", files["orig"],
                                         "--algebra2", files["lam"], "--beta", files["beta0"],
                                         "--beta2", files["beta"], "--gamma", files["g"]], PASS)
            if n == "dual-numbers":
                # diag(2, 1) doubles the unit e, while mu(2e, 2e) = 4e: not a morphism.
                diag21 = linalg.make_map(lam.space, lam.space, [[2, 0], [0, 1]])
                bad = self._endo("dual-bad-beta.json", conjugate(g, diag21, g_inv))
                self._cli("morphism dual-bad", ["morphism", *b, "--algebra", files["lam"],
                                                "--beta", bad], FAIL)
                self._cli("yau-twist dual-bad", ["yau-twist", *b, "--algebra", files["lam"],
                                                 "--beta", bad], PRECONDITION)
                self._cli("twist dual-bad", ["twist", *b, "--algebra", files["yau"],
                                             "--beta", bad], PRECONDITION)
                self.warmup = list(self.cases)  # dual numbers, the smallest

    # -- presentation-roundtrip ------------------------------------------

    def _shuffled(self, data: dict) -> dict:
        """Relation and monomial order shuffled, never left as stored.

        The relations of more than two monomials go to the middle of the
        file, in shuffled order.  ``presentation_matches`` compares each
        relation of the file with every unused builtin relation stored
        before its match, and these comparisons cost most for the large
        relations, which the builtins store last.  With them in the middle,
        a round trip costs about the same on every seed and in either
        direction."""
        stored = data["relations"]
        while True:
            large = [r for r, rel in enumerate(stored) if len(rel) > 2]
            small = [r for r, rel in enumerate(stored) if len(rel) <= 2]
            self.rng.shuffle(large)
            self.rng.shuffle(small)
            half = len(small) // 2
            order = small[:half] + large + small[half:]
            rels = []
            for r in order:
                terms = list(stored[r])
                self.rng.shuffle(terms)
                rels.append(terms)
            if rels != stored:
                break
        self.relations_in_place[0] += sum(1 for i, r in enumerate(order) if i == r)
        self.relations_in_place[1] += len(order)
        return {"generators": data["generators"], "relations": rels}

    def _reversed_flipped(self, data: dict) -> dict:
        """The shuffled copy in reverse relation order, with one monomial's sign
        flipped in the last relation that has two or more monomials.

        ``presentation_matches`` pairs the relations in file order, scanning
        the builtin's relations for each; over the shuffled copy and its
        reverse every pair of relations is compared exactly once, so the two
        round trips together cost the same whatever the shuffle.  With the
        flip last, refusing the copy takes a full scan.  The relations of
        these builtins have pairwise distinct monomial sets, so the flipped
        relation is proportional to no builtin relation and the copy cannot
        match."""
        rels = [list(rel) for rel in reversed(data["relations"])]
        r = max(i for i, rel in enumerate(rels) if len(rel) >= 2)
        m = self.rng.randrange(len(rels[r]))
        term = dict(rels[r][m])
        term["coef"] = str(-Fraction(term["coef"]))
        rels[r][m] = term
        return {"generators": data["generators"], "relations": rels}

    def _roundtrip(self, label: str, path: str, reference: Presentation, expected: bool) -> None:
        def run() -> bool:
            p = serialize.presentation_from_json(json.loads(Path(path).read_text()))
            q = pres.homify_typed(p, pres.theta_max(p.labels))
            back = Presentation(p.signature, pres.apply_substitution_to_relations(
                q.relations, pres.projection_pi(q, "pi")))
            return pres.presentation_matches(back, reference)

        self.cases.append(Case(label, run, expected))

    def _build_presentation_roundtrip(self) -> None:
        for name in ROUNDTRIP_BUILTINS:
            p, _ = builtins.builtin(name)
            data = self._shuffled(serialize.presentation_to_json(p))
            stem = name.replace(":", "")
            path = self._write(f"{stem}.json", data)
            flipped = self._write(f"{stem}-flipped.json", self._reversed_flipped(data))
            n_rel = len(data["relations"])
            n_mono = sum(len(rel) for rel in data["relations"])
            args = ["--presentation", path]
            self._cli(f"homify {stem}", ["homify", *args, "--plan", "theta-max"], (0, n_rel))
            self._cli(f"normality {stem}", ["normality", *args], (0, "normal"))
            self._cli(f"graph-dump {stem}", ["graph-dump", *args], (0, n_mono))
            self._roundtrip(f"roundtrip {stem}", path, p, True)
            self._roundtrip(f"roundtrip {stem}-flipped", flipped, p, False)
        self.warmup = self.cases[-5:]  # ybe, the smallest

    # -- recorded input properties -----------------------------------------

    def properties(self) -> dict:
        nz, total = self.generator_nonzero
        placed, rels = self.relations_in_place
        out: dict = {"cases": len(self.cases)}
        if total:
            out["generator_nonzero_frac"] = nz / total
        if rels:
            out["relations_at_stored_index_frac"] = placed / rels
            out["order_agrees_with_builtin"] = False
        return out
