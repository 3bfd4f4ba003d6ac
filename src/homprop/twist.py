"""Twisting constructions and the partial classification machinery.

The central construction: over a normal presentation whose hom-ification
covered every unit occurrence, any endomorphism ``beta`` that is a morphism
of a Hom-structure twists it into another one by

    twisted(y) = beta^{(x) q} . lam(y)        (q = out-arity of y)

for every generator, twisting generators included.  ``_twisted`` builds it,
and every construction here calls it: the derived structure is the twist by
a power of the structure's own twisting map, and the Yau twist is the twist
of an ordinary algebra whose twisting maps are the identity, so each
twisting generator becomes ``beta``.

Every construction re-verifies its output against the target presentation
even though the underlying theorem guarantees it; a verification failure
with satisfied preconditions aborts loudly, because it can only be a bug.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .algebra import (
    CheckReport,
    MorphismCheck,
    StructureMap,
    check_algebra,
    is_morphism,
    structure_map,
)
from .linalg import (
    LinearMap,
    char_poly,
    compose,
    is_injective,
    inverse_map,
    maps_equal,
    matrix_power,
    tensor_power,
)
from .presentation import (
    HomPlan,
    HomPresentation,
    NormalityReport,
    Presentation,
    homify,
    homify_typed,
    is_normal,
    theta_min,
)
from .term import GeneratorSymbol


class PreconditionFailed(ValueError):
    """A hypothesis of a construction does not hold: the command line
    reports every subclass as a precondition failure."""

    def __init__(self, message: str, difference: Optional[LinearMap] = None):
        self.difference = difference
        super().__init__(message)


class NormalityViolated(PreconditionFailed):
    def __init__(self, report: NormalityReport):
        self.report = report
        super().__init__("the underlying presentation is not normal")


class BetaNotMorphism(PreconditionFailed):
    def __init__(self, check: MorphismCheck):
        self.check = check
        super().__init__(
            f"beta is not a morphism; first failing generator: {check.witness_generator!r}"
        )


class SNotI(PreconditionFailed):
    def __init__(self) -> None:
        super().__init__(
            "the hom-ification plan left some units untouched (S != I); "
            "the twisting theorem does not apply"
        )


class NotAnAlgebra(PreconditionFailed):
    def __init__(self, report: CheckReport):
        self.report = report
        super().__init__("the given structure map does not satisfy the presentation")


@dataclass(frozen=True)
class TwistPreconditions:
    normality: NormalityReport
    beta_morphism: MorphismCheck

    def all_hold(self) -> bool:
        return self.normality.all_normal() and self.beta_morphism.holds


@dataclass(frozen=True)
class TwistResult:
    twisted: StructureMap
    verified: CheckReport
    preconditions: TwistPreconditions


def _require_algebra(lam: StructureMap, p: Presentation) -> None:
    given = check_algebra(lam, p)
    if not given.all_passed():
        raise NotAnAlgebra(given)


def _require_normal(p: Presentation) -> NormalityReport:
    normality = is_normal(p)
    if not normality.all_normal():
        raise NormalityViolated(normality)
    return normality


def _require_morphism(beta: LinearMap, lam: StructureMap, p: Presentation) -> MorphismCheck:
    check = is_morphism(beta, lam, lam, p)
    if not check.holds:
        raise BetaNotMorphism(check)
    return check


def _twisted(
    lam: StructureMap, beta: LinearMap, twisting: Sequence[GeneratorSymbol] = ()
) -> StructureMap:
    """``beta^{(x) q} . lam(y)`` on every generator ``y`` of ``lam``, and
    ``beta`` on each of the fresh ``twisting`` symbols."""
    new = {g: compose(tensor_power(beta, g.out_arity), m) for g, m in lam.assignments}
    new.update((sym, beta) for sym in twisting)
    return structure_map(lam.space, new)


def _verified_result(
    twisted: StructureMap, target: Presentation, pre: TwistPreconditions
) -> TwistResult:
    verified = check_algebra(twisted, target)
    if pre.all_hold() and not verified.all_passed():
        raise AssertionError(
            "twisting preconditions hold but the twisted "
            "structure fails verification"
        )
    return TwistResult(twisted, verified, pre)


def twist(lam: StructureMap, beta: LinearMap, p_h: HomPresentation) -> TwistResult:
    """Twist a Hom-structure by an endomorphism that is a morphism of it.

    Requires: the underlying presentation is normal, the plan replaced every
    unit occurrence (refused otherwise), and ``beta`` is a morphism of
    ``lam``.  Every generator of the hom-ified presentation is twisted.
    """
    if not isinstance(p_h, HomPresentation):
        raise TypeError("twist needs a hom-ified presentation")
    if not p_h.covers_all_units():
        raise SNotI()
    normality = _require_normal(p_h.base)
    _require_algebra(lam, p_h)
    pre = TwistPreconditions(normality, _require_morphism(beta, lam, p_h))
    return _verified_result(_twisted(lam, beta), p_h, pre)


def derived_sequence(
    lam: StructureMap, p_mh: HomPresentation, n: int
) -> TwistResult:
    """The n-th derived structure of a multiplicative Hom-algebra: its twist
    by the n-th power of the twisting map, which itself becomes its (n+1)-st
    power."""
    if p_mh.kind != "multiplicative":
        raise TypeError("derived sequences live over multiplicative hom-ifications")
    if n < 1:
        raise ValueError(f"derived power must be >= 1, got {n}")
    _require_algebra(lam, p_mh)
    beta = matrix_power(lam[p_mh.twisting[0]], n)
    pre = TwistPreconditions(is_normal(p_mh.base), is_morphism(beta, lam, lam, p_mh))
    return _verified_result(_twisted(lam, beta), p_mh, pre)


def yau_twist(
    lam: StructureMap,
    beta: LinearMap,
    p: Presentation,
    plan: Union[HomPlan, str, None] = "multiplicative",
) -> tuple[TwistResult, HomPresentation]:
    """From an ordinary algebra and an endomorphism of it, produce the
    hom-structure with every generator twisted by ``beta`` and every
    twisting generator interpreted as ``beta``.

    ``plan`` is ``"multiplicative"`` (default) or a typed plan covering I.
    Returns the result together with the target hom-ified presentation.
    """
    _require_algebra(lam, p)
    normality = _require_normal(p)
    beta_check = _require_morphism(beta, lam, p)
    target = homify(p, plan)
    if not target.covers_all_units():
        raise SNotI()
    pre = TwistPreconditions(normality, beta_check)
    return _verified_result(_twisted(lam, beta, target.twisting), target, pre), target


def transport_morphism(
    f: LinearMap,
    lam: StructureMap,
    beta: LinearMap,
    lam2: StructureMap,
    beta2: LinearMap,
    p_h: HomPresentation,
) -> bool:
    """If f intertwines two Hom-structures and f.beta = beta'.f, then f also
    intertwines the twisted structures.  Returns that final check, which
    must come out true when the preconditions hold."""
    f_check = is_morphism(f, lam, lam2, p_h)
    if not f_check.holds:
        raise PreconditionFailed(
            f"f is not a morphism of the untwisted structures "
            f"(generator {f_check.witness_generator!r})",
            f_check.difference,
        )
    _require_morphism(beta, lam, p_h)
    _require_morphism(beta2, lam2, p_h)
    left = compose(f, beta)
    right = compose(beta2, f)
    if not maps_equal(left, right):
        raise PreconditionFailed(
            "f . beta != beta' . f", left.add(right.scale(-1))
        )
    result = is_morphism(f, _twisted(lam, beta), _twisted(lam2, beta2), p_h)
    if not result.holds:
        raise AssertionError(
            "morphism transport preconditions hold but the "
            "twisted morphism check failed"
        )
    return result.holds


@dataclass(frozen=True)
class IsoWitnessResult:
    is_witness: bool
    certified_equivalence: bool  # beta' injective, so witness <=> isomorphism
    gamma_morphism: MorphismCheck
    commutes: bool
    direct_twisted_check: Optional[MorphismCheck]
    direct_twisted_check_inverse: Optional[MorphismCheck]


def iso_witness_check(
    gamma: LinearMap,
    lam: StructureMap,
    beta: LinearMap,
    lam2: StructureMap,
    beta2: LinearMap,
    p: Presentation,
    plan: Optional[HomPlan] = None,
) -> IsoWitnessResult:
    """Certify that gamma witnesses an isomorphism of Yau-twisted structures.

    A witness is an invertible algebra morphism with gamma.beta = beta'.gamma.
    When beta' is injective this is equivalent to the twisted structures
    being isomorphic; otherwise the witness is only sufficient.  The twisted
    structures are additionally compared directly, and a true witness with a
    failing direct check is an internal error.
    """
    try:
        gamma_inv = inverse_map(gamma)
    except ValueError:  # singular, or ShapeMismatch for a non-square gamma
        raise PreconditionFailed("gamma must be invertible") from None
    g_check = is_morphism(gamma, lam, lam2, p)
    g_inv_check = is_morphism(gamma_inv, lam2, lam, p)
    commutes = maps_equal(compose(gamma, beta), compose(beta2, gamma))
    witness = g_check.holds and g_inv_check.holds and commutes
    certified = is_injective(beta2)

    target = homify_typed(p, plan if plan is not None else theta_min(p.labels))
    twisted1 = _twisted(lam, beta, target.twisting)
    twisted2 = _twisted(lam2, beta2, target.twisting)
    direct = is_morphism(gamma, twisted1, twisted2, target)
    direct_inv = is_morphism(gamma_inv, twisted2, twisted1, target)
    if witness and not (direct.holds and direct_inv.holds):
        raise AssertionError(
            "an isomorphism witness fails the direct check "
            "on the twisted structures"
        )
    return IsoWitnessResult(witness, certified, g_check, commutes, direct, direct_inv)


def conjugacy_invariant(beta: LinearMap) -> tuple:
    """Characteristic polynomial coefficients (1, c_{n-1}, ..., c_0): a
    computable invariant separating conjugacy classes of automorphisms."""
    if beta.degree != 0:
        raise ValueError("conjugacy invariants are for degree-0 endomorphisms")
    return char_poly(beta)
