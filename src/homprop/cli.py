"""Command-line entry point.

Commands: check, homify, normality, twist, derived, yau-twist, morphism,
iso-check, builtins, graph-dump.  All interchange is JSON with rationals as
strings; reports are deterministic for identical inputs.

Exit codes: 0 pass, 1 check failed, 2 precondition failed (a
``twist.PreconditionFailed`` or a ``presentation.PlanError``), 3 input
error, 4 internal error (an ``AssertionError``, such as a twist that
fails verification although its preconditions hold).  ``_report`` writes
every JSON report and turns its pass flag into the exit code; builtin
names are resolved by ``builtins.builtin``.

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
from .graphprop import dump_graph
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
    PreconditionFailed,
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
EXIT_INTERNAL = 4


class InputError(ValueError):
    pass


def _load_json(path: str) -> Any:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as e:
        raise InputError(f"no such file: {path}") from e
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}") from e
    except RecursionError as e:
        raise InputError(f"{path}: JSON nested too deeply") from e


def _write(text: str, out: Optional[str]) -> None:
    if out:
        try:
            Path(out).write_text(text)
        except OSError as e:
            raise InputError(f"cannot write {out}: {e.strerror}") from e
    else:
        sys.stdout.write(text)


def _report(report: Any, out: Optional[str], passed: bool = True) -> int:
    """Write a JSON report; its exit code follows ``passed``."""
    _write(dumps(report), out)
    return EXIT_PASS if passed else EXIT_CHECK_FAILED


def _presentation(args) -> tuple[Presentation, Optional[HomPlan]]:
    if args.builtin and args.presentation:
        raise InputError("give either --builtin or --presentation, not both")
    if args.builtin:
        return stock.builtin(args.builtin, args.ainf_sign_offset)
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
    passed = report.all_passed()
    return _report(
        {
            "command": "check",
            "status": "pass" if passed else "fail",
            "relations": _check_report(report),
        },
        args.out,
        passed,
    )


def cmd_homify(args) -> int:
    p, default_plan = _presentation(args)
    plan = _plan(args, p, default_plan)
    return _report(presentation_to_json(homify(p, plan)), args.out)


def cmd_normality(args) -> int:
    p, _ = _presentation(args)
    report = is_normal(p)
    normal = report.all_normal()
    return _report(
        {
            "command": "normality",
            "status": "normal" if normal else "not-normal",
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
        normal,
    )


def _twist_report(result, command: str, out: Optional[str], **extra: Any) -> int:
    passed = result.verified.all_passed()
    return _report(
        {
            "command": command,
            "status": "pass" if passed else "fail",
            "relations": _check_report(result.verified),
            "twisted": {
                g.name: matrix_to_json(m) for g, m in result.twisted.assignments
            },
            **extra,
        },
        out,
        passed,
    )


def cmd_twist(args) -> int:
    p, default_plan = _presentation(args)
    plan = _plan(args, p, default_plan)
    q = homify(p, plan)
    lam = algebra_from_json(_load_json(args.algebra), q)
    beta = endomorphism_from_json(_load_json(args.beta))
    return _twist_report(twist_structure(lam, beta, q), "twist", args.out)


def cmd_derived(args) -> int:
    p, _ = _presentation(args)
    q = homify_multiplicative(p)
    lam = algebra_from_json(_load_json(args.algebra), q)
    return _twist_report(derived_sequence(lam, q, args.n), "derived", args.out)


def cmd_yau_twist(args) -> int:
    p, default_plan = _presentation(args)
    plan = _plan(args, p, default_plan)
    lam = algebra_from_json(_load_json(args.algebra), p)
    beta = endomorphism_from_json(_load_json(args.beta))
    result, target = yau_twist(lam, beta, p, plan)
    return _twist_report(result, "yau-twist", args.out,
                         hom_presentation=presentation_to_json(target))


def cmd_morphism(args) -> int:
    p, _ = _presentation(args)
    lam = algebra_from_json(_load_json(args.algebra), p)
    rho = (
        algebra_from_json(_load_json(args.algebra2), p) if args.algebra2 else lam
    )
    f = endomorphism_from_json(_load_json(args.beta))
    check = is_morphism(f, lam, rho, p)
    return _report(
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
        check.holds,
    )


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
    return _report(
        {
            "command": "iso-check",
            "status": "pass" if result.is_witness else "fail",
            "certified_equivalence": result.certified_equivalence,
            "commutes_with_twists": result.commutes,
            "char_poly_beta": [str(c) for c in conjugacy_invariant(beta)],
            "char_poly_beta2": [str(c) for c in conjugacy_invariant(beta2)],
        },
        args.out,
        result.is_witness,
    )


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
    return _report({"command": "builtins", "builtins": rows}, args.out)


def cmd_graph_dump(args) -> int:
    p, _ = _presentation(args)
    chunks = []
    for r, rel in enumerate(p.relations):
        for mi, (coef, mono) in enumerate(rel.terms):
            chunks.append(f"relation {r} monomial {mi} coefficient {coef}")
            chunks.append(dump_graph(mono))
    _write("\n".join(chunks) + "\n", args.out)
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
            "--ainf-sign-offset", type=int, choices=(0, 1),
            default=stock.DEFAULT_AINF_SIGN_OFFSET,
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
    except (PreconditionFailed, PlanError) as e:
        sys.stderr.write(f"precondition failed: {e}\n")
        return EXIT_PRECONDITION
    except (InputError, ParseError, ValueError, KeyError) as e:
        sys.stderr.write(f"input error: {e}\n")
        return EXIT_INPUT
    except AssertionError as e:
        sys.stderr.write(f"internal error: {e}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
