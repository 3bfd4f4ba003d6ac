"""Command-line entry point.

Commands: check, homify, normality, twist, derived, yau-twist, morphism,
iso-check, builtins, graph-dump.  All interchange is JSON with rationals as
strings; reports are deterministic for identical inputs.

Exit codes: 0 pass, 1 check failed, 2 precondition failed, 3 input error.

Twisting commands take the *base* presentation (--builtin or
--presentation) together with --plan; the hom-ified presentation is rebuilt
internally so its provenance (which units were replaced) is available for
the S = I precondition.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Any, Optional

from . import builtins as stock
from .algebra import check_algebra, is_morphism
from .graphprop import term_to_graph
from .presentation import (
    HomPlan,
    PlanError,
    Presentation,
    homify,
    homify_multiplicative,
    is_normal,
    theta_max,
    theta_min,
)
from .serialize import (
    ParseError,
    algebra_from_json,
    dumps,
    endomorphism_from_json,
    matrix_to_json,
    plan_from_json,
    presentation_from_json,
    presentation_to_json,
)
from .twist import (
    BetaNotMorphism,
    NormalityViolated,
    NotAnAlgebra,
    PreconditionFailed,
    SNotI,
    conjugacy_invariant,
    derived_sequence,
    iso_witness_check,
    twist as twist_structure,
    yau_twist,
)

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_PRECONDITION = 2
EXIT_INPUT = 3


class InputError(ValueError):
    pass


def _load_json(path: str) -> Any:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as e:
        raise InputError(f"no such file: {path}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}") from e
    except RecursionError as e:
        raise InputError(f"{path}: JSON nested too deeply") from e


def _emit(report: Any, out: Optional[str]) -> None:
    text = dumps(report)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _presentation(args) -> tuple[Presentation, Optional[HomPlan]]:
    if args.builtin and args.presentation:
        raise InputError("give either --builtin or --presentation, not both")
    if args.builtin:
        name = args.builtin
        offset = getattr(args, "ainf_sign_offset", 0) or 0
        if name.startswith("ainf:"):
            return stock.a_infinity(int(name.split(":", 1)[1]), offset)
        if name.startswith("linf:"):
            return stock.l_infinity(int(name.split(":", 1)[1]), offset)
        return stock.builtin(name)
    if args.presentation:
        return presentation_from_json(_load_json(args.presentation)), None
    raise InputError("a presentation is required (--builtin or --presentation)")


def _plan(args, p: Presentation, default_plan: Optional[HomPlan]):
    """Resolve --plan into 'multiplicative', a HomPlan, or the default."""
    spec = args.plan
    if spec is None:
        return default_plan if default_plan is not None else "multiplicative"
    if spec == "multiplicative":
        return "multiplicative"
    if spec == "theta-min":
        return theta_min(p.labels)
    if spec == "theta-max":
        return theta_max(p.labels)
    return plan_from_json(_load_json(spec))


def _check_report(report) -> Any:
    return [
        {
            "index": c.relation_index,
            "passed": c.passed,
            "max_abs_entry": str(c.max_abs_entry),
        }
        for c in report.checks
    ]


def cmd_check(args) -> int:
    p, _ = _presentation(args)
    lam = algebra_from_json(_load_json(args.algebra), p)
    report = check_algebra(lam, p)
    _emit(
        {
            "command": "check",
            "status": "pass" if report.all_passed() else "fail",
            "relations": _check_report(report),
        },
        args.out,
    )
    return EXIT_PASS if report.all_passed() else EXIT_CHECK_FAILED


def cmd_homify(args) -> int:
    p, default_plan = _presentation(args)
    plan = _plan(args, p, default_plan)
    _emit(presentation_to_json(homify(p, plan)), args.out)
    return EXIT_PASS


def cmd_normality(args) -> int:
    p, _ = _presentation(args)
    report = is_normal(p)
    _emit(
        {
            "command": "normality",
            "status": "normal" if report.all_normal() else "not-normal",
            "relations": [
                {
                    "index": e.relation_index,
                    "homogeneous": e.homogeneous,
                    "degree": e.degree,
                    "witness": e.witness,
                }
                for e in report.entries
            ],
        },
        args.out,
    )
    return EXIT_PASS if report.all_normal() else EXIT_CHECK_FAILED


def _twist_report(result, command: str) -> Any:
    return {
        "command": command,
        "status": "pass" if result.verified.all_passed() else "fail",
        "relations": _check_report(result.verified),
        "twisted": {
            g.name: matrix_to_json(m) for g, m in result.twisted.assignments
        },
    }


def cmd_twist(args) -> int:
    p, default_plan = _presentation(args)
    plan = _plan(args, p, default_plan)
    q = homify(p, plan)
    lam = algebra_from_json(_load_json(args.algebra), q)
    beta = endomorphism_from_json(_load_json(args.beta))
    result = twist_structure(lam, beta, q)
    _emit(_twist_report(result, "twist"), args.out)
    return EXIT_PASS if result.verified.all_passed() else EXIT_CHECK_FAILED


def cmd_derived(args) -> int:
    p, _ = _presentation(args)
    q = homify_multiplicative(p)
    lam = algebra_from_json(_load_json(args.algebra), q)
    result = derived_sequence(lam, q, args.n)
    _emit(_twist_report(result, "derived"), args.out)
    return EXIT_PASS if result.verified.all_passed() else EXIT_CHECK_FAILED


def cmd_yau_twist(args) -> int:
    p, default_plan = _presentation(args)
    plan = _plan(args, p, default_plan)
    lam = algebra_from_json(_load_json(args.algebra), p)
    beta = endomorphism_from_json(_load_json(args.beta))
    result, target = yau_twist(lam, beta, p, plan)
    report = _twist_report(result, "yau-twist")
    report["hom_presentation"] = presentation_to_json(target)
    _emit(report, args.out)
    return EXIT_PASS if result.verified.all_passed() else EXIT_CHECK_FAILED


def cmd_morphism(args) -> int:
    p, _ = _presentation(args)
    lam = algebra_from_json(_load_json(args.algebra), p)
    rho = (
        algebra_from_json(_load_json(args.algebra2), p) if args.algebra2 else lam
    )
    f = endomorphism_from_json(_load_json(args.beta))
    check = is_morphism(f, lam, rho, p)
    _emit(
        {
            "command": "morphism",
            "status": "pass" if check.holds else "fail",
            "witness_generator": (
                None if check.holds else check.witness_generator.name
            ),
            "difference": (
                None if check.holds else matrix_to_json(check.difference)
            ),
        },
        args.out,
    )
    return EXIT_PASS if check.holds else EXIT_CHECK_FAILED


def cmd_iso_check(args) -> int:
    p, default_plan = _presentation(args)
    plan = _plan(args, p, default_plan)
    if plan == "multiplicative":
        plan = None
    lam = algebra_from_json(_load_json(args.algebra), p)
    rho = (
        algebra_from_json(_load_json(args.algebra2), p) if args.algebra2 else lam
    )
    beta = endomorphism_from_json(_load_json(args.beta))
    beta2 = endomorphism_from_json(_load_json(args.beta2)) if args.beta2 else beta
    gamma = endomorphism_from_json(_load_json(args.gamma))
    result = iso_witness_check(gamma, lam, beta, rho, beta2, p, plan)
    _emit(
        {
            "command": "iso-check",
            "status": "pass" if result.is_witness else "fail",
            "certified_equivalence": result.certified_equivalence,
            "commutes_with_twists": result.commutes,
            "char_poly_beta": [str(c) for c in conjugacy_invariant(beta)],
            "char_poly_beta2": [str(c) for c in conjugacy_invariant(beta2)],
        },
        args.out,
    )
    return EXIT_PASS if result.is_witness else EXIT_CHECK_FAILED


def cmd_builtins(args) -> int:
    rows = []
    for name in stock.BUILTIN_NAMES:
        p, plan = stock.builtin(name)
        report = is_normal(p)
        rows.append(
            {
                "name": name,
                "generators": [g.name for g in p.signature.generators],
                "relations": len(p.relations),
                "unit_count": len(p.unit_index),
                "degrees": report.degrees(),
                "plan_blocks": None if plan is None else [
                    list(labels) for _, labels in plan.blocks
                ],
            }
        )
    _emit({"command": "builtins", "builtins": rows}, args.out)
    return EXIT_PASS


def cmd_graph_dump(args) -> int:
    p, _ = _presentation(args)
    chunks = []
    for r, rel in enumerate(p.relations):
        for mi, (coef, mono) in enumerate(rel.terms):
            g = term_to_graph(mono)
            chunks.append(f"relation {r} monomial {mi} coefficient {coef}")
            chunks.append(g.dump())
    text = "\n".join(chunks) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_PASS


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: every call of
    :func:`main` parses into a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="homprop",
        description="PROP presentations, hom-ification, and twisting checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p_: argparse.ArgumentParser, *, algebra=False, algebra2=False,
               beta=False, beta2=False, gamma=False, plan=False, n=False) -> None:
        p_.add_argument("--presentation", help="presentation JSON file")
        p_.add_argument("--builtin", help="builtin presentation name")
        p_.add_argument("--out", help="write the JSON report here")
        p_.add_argument(
            "--ainf-sign-offset", type=int, choices=(0, 1), default=0,
            help="sign convention toggle for the ainf:/linf: builtins",
        )
        if algebra:
            p_.add_argument("--algebra", required=True, help="algebra JSON file")
        if algebra2:
            p_.add_argument("--algebra2", help="second algebra JSON file")
        if beta:
            p_.add_argument("--beta", required=True, help="endomorphism JSON file")
        if beta2:
            p_.add_argument("--beta2", help="second endomorphism JSON file")
        if gamma:
            p_.add_argument("--gamma", required=True, help="candidate isomorphism file")
        if plan:
            p_.add_argument(
                "--plan",
                help="theta-min | theta-max | multiplicative | plan JSON file",
            )
        if n:
            p_.add_argument("--n", type=int, default=1, help="derived power")

    sp = sub.add_parser("check", help="verify an algebra against a presentation")
    common(sp, algebra=True)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("homify", help="emit a hom-ified presentation")
    common(sp, plan=True)
    sp.set_defaults(func=cmd_homify)

    sp = sub.add_parser("normality", help="per-relation homogeneity report")
    common(sp)
    sp.set_defaults(func=cmd_normality)

    sp = sub.add_parser("twist", help="twist a hom-algebra by a morphism")
    common(sp, algebra=True, beta=True, plan=True)
    sp.set_defaults(func=cmd_twist)

    sp = sub.add_parser("derived", help="derived sequence of a multiplicative hom-algebra")
    common(sp, algebra=True, n=True)
    sp.set_defaults(func=cmd_derived)

    sp = sub.add_parser("yau-twist", help="twist an ordinary algebra into a hom-algebra")
    common(sp, algebra=True, beta=True, plan=True)
    sp.set_defaults(func=cmd_yau_twist)

    sp = sub.add_parser("morphism", help="check an algebra morphism on generators")
    common(sp, algebra=True, algebra2=True, beta=True)
    sp.set_defaults(func=cmd_morphism)

    sp = sub.add_parser("iso-check", help="certify an isomorphism witness for twisted structures")
    common(sp, algebra=True, algebra2=True, beta=True, beta2=True, gamma=True,
           plan=True)
    sp.set_defaults(func=cmd_iso_check)

    sp = sub.add_parser("builtins", help="list builtin presentations")
    sp.add_argument("--out", help="write the JSON report here")
    sp.set_defaults(func=cmd_builtins)

    sp = sub.add_parser("graph-dump", help="deterministic graph dump of all relations")
    common(sp)
    sp.set_defaults(func=cmd_graph_dump)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SNotI, NormalityViolated, BetaNotMorphism, NotAnAlgebra,
            PreconditionFailed, PlanError) as e:
        sys.stderr.write(f"precondition failed: {e}\n")
        return EXIT_PRECONDITION
    except (InputError, ParseError, ValueError, KeyError) as e:
        sys.stderr.write(f"input error: {e}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
