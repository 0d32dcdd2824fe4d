"""Constructions and characterizations of approximately dual and g-dual frames.

Terminology used throughout:

* A pair (phi, psi) is *dual* when the mixed operator (synthesis of phi
  composed with analysis of psi) is the identity, *approximately dual*
  when ||Id - mixed|| < 1, and *g-dual* when the mixed operator is merely
  invertible.  The inverse of the mixed operator is the pair's
  *corresponding operator*.
* Every dual-type family of a frame phi decomposes against two free
  parameters: a d x d operator and an annihilator (pure kernel content).
  The operator can be given either as the *whitened* factor W with
  mixed = S^{1/2} W (S the frame operator of phi), or directly as the
  target mixed operator.  Constructions for both parameterizations are
  provided, together with exact recovery of the parameters from a pair.
  All build through ``_with_mixed``: vectors A* S^{-1} phi_k + theta*(delta_k)
  for the mixed operator A; a pair's record recovers theta* as the partner's
  factor projected off range(T*), through the frame's one thin SVD
  (:class:`dualframes.oplin.Spectrum`).
* Every function reads phi's operators as blocks and its vectors as its class
  factor (a matrix is one class), by one operand rule
  (:func:`dualframes.frames._aligned`): a d x d operand is read class by class
  when it is a LatticeOperator on phi's classes or an array exactly zero between
  them; any other operand, or a partner of other classes, reads every frame
  through its one-class view.  A pair's mixed operator, rate, corresponding
  operator, whitened factor and annihilator part are read from its record
  (:func:`dualframes.frames._pair`), which computes each once while both frames
  live.

All strict norm conditions ``< 1`` are enforced as ``< STRICT_FACTOR`` so that
boundary cases are rejected deterministically; every threshold is in
:mod:`dualframes.tolerances`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import oplin
from .errors import (
    ContractViolation,
    DimensionMismatch,
    NotApproxDual,
    NotDualPair,
    NotEquivalent,
    Singular,
)
from .frames import (
    Annihilator,
    Frame,
    _aligned,
    _Pair,
    _pair,
    _same_frame,
    _vector,
    canonical_dual,
    frame_bounds,
    require_frame,
)
from .oplin import LatticeOperator, _largest_norm, _paired, _squared, _strictly_below, adjoint
from .tolerances import BESSEL_CHECK_TOL, DUAL_TOL, EQUIVALENCE_TOL, RANGE_TOL


@dataclass(frozen=True, eq=False)
class DualReport:
    """Verdict on a frame pair.

    ``kind`` is the strongest applicable class among ``dual`` (mixed
    operator is the identity), ``approx`` (rate < 1), ``gdual`` (mixed
    operator invertible) and ``none``.  ``corresponding_op`` is the
    inverse of the mixed operator whenever it exists; ``whitened`` and
    ``factor_residual`` report the factorization mixed = S^{1/2} W when
    it was computed; ``bessel_bound_ok`` records whether
    lambda_max(W W*) stays below the optimal Bessel bound of the second
    family (margin included).  The two operators are the pair's block values
    (:class:`~dualframes.oplin.LatticeOperator`, on its classes), kept on its
    record; ``np.asarray`` gives the dense d x d matrix.
    """

    kind: str
    rate: float
    corresponding_op: Optional[LatticeOperator] = None
    whitened: Optional[LatticeOperator] = None
    factor_residual: Optional[float] = None
    bessel_bound_ok: Optional[bool] = None
    bessel_margin: Optional[float] = None

    @property
    def is_dual(self) -> bool:
        return self.kind == "dual"

    @property
    def is_approx_dual(self) -> bool:
        return self.kind in ("dual", "approx")

    @property
    def is_gdual(self) -> bool:
        return self.kind in ("dual", "approx", "gdual")


def _classify(pair: _Pair) -> Tuple[str, Optional[LatticeOperator]]:
    rate = pair.mixed.gap()
    try:
        corresponding = pair.mixed.inverse()
    except Singular:
        corresponding = None
    if rate <= DUAL_TOL:
        kind = "dual"
    elif _strictly_below(rate, 1.0):
        kind = "approx"
    elif corresponding is not None:
        kind = "gdual"
    else:
        kind = "none"
    return kind, corresponding


def classify_pair(phi: Frame, psi: Frame) -> DualReport:
    """Classify a pair as dual / approximately dual / g-dual / none."""
    pair = _pair(phi, psi)
    kind, corresponding = _classify(pair)
    return DualReport(kind=kind, rate=pair.mixed.gap(), corresponding_op=corresponding)


def gdual_factorization(phi: Frame, psi: Frame) -> DualReport:
    """Factor the mixed operator as S^{1/2} W and classify the pair.

    The pair is g-dual exactly when the whitened factor W is invertible,
    and approximately dual exactly when ||Id - S^{1/2} W|| < 1, which is
    the approximation rate ``report.rate``.  The report also checks
    lambda_max(W W*) = ||W||^2 against the Bessel bound of ``psi``, which
    must hold for any genuine frame pair, up to the relative slack
    ``BESSEL_CHECK_TOL``.  Every read is block by block.
    """
    require_frame(phi, "first frame")
    view, partner = _aligned(phi, psi)
    pair = _pair(view, partner)
    whitened = pair.whitened
    residual = pair.mixed.distance(view.spectrum.root @ whitened)
    peak = _squared(whitened.norm())
    upper_psi = frame_bounds(psi).upper
    kind, corresponding = _classify(pair)
    return DualReport(
        kind=kind,
        rate=pair.mixed.gap(),
        corresponding_op=corresponding,
        whitened=whitened,
        factor_residual=residual,
        bessel_bound_ok=bool(peak <= upper_psi * (1.0 + BESSEL_CHECK_TOL)),
        bessel_margin=upper_psi - peak,
    )


def _operand(phi: Frame, m, name: str):
    """A d x d operand: a LatticeOperator as it is, else a finite matrix."""
    a = m if isinstance(m, LatticeOperator) else oplin.as_operator(m)
    if a.shape != (phi.dim, phi.dim):
        raise DimensionMismatch(f"{name} must be {phi.dim}x{phi.dim}, got {a.shape}")
    return a


def _require_base(phi: Frame, theta: Optional[Annihilator]) -> None:
    if theta is not None and not _same_frame(theta.base, phi):
        raise DimensionMismatch("annihilator was built for a different frame")


def _with_mixed(phi: Frame, a: LatticeOperator, theta=None) -> Frame:
    """( a* S^{-1} phi_k + theta*(delta_k) )_k: mixed operator ``a`` if theta maps into ker T.
    On phi's classes: the factor a_r* U_r diag(1/s_r) V_r* + theta*_r, for theta* a factor
    or an annihilator's."""
    dual = canonical_dual(phi)._system
    star = theta.star if isinstance(theta, Annihilator) else theta
    if star is None:
        return Frame._over(dual._with(adjoint(b) @ f for b, f in _paired(a, dual)))
    # promoted, not added in place: a real stack takes a complex theta*
    return Frame._over(dual._with(adjoint(b) @ f + t for b, f, t in _paired(a, dual, star)))


def _approx_dual(phi: Frame, a: LatticeOperator, theta, condition: str) -> Frame:
    """``result = _with_mixed(phi, a, theta)`` once ``condition`` is below 1.

    The condition, ||Id - a||, is checked on the pair returned: its rate
    ||Id - mixed_operator(phi, result)||, kept on the pair's record.  It differs
    from ||Id - a|| by rounding and by T theta, which for the kernel term of an
    exact dual phi_d (:func:`_via_dual`) is (T T_d* - Id) S: bounded by the
    dual's gate, times ||S||.  A failing rate is reported with ||Id - a||.  The
    condition is read from ``a`` itself where no family is built: when an entry of
    Id - a has a real or imaginary part of modulus 1 or more (which fails it, and
    could make the family overflow), and when the build raises ValueError (S
    overflows), which is raised only if the condition holds.
    """
    rate = None
    if max(np.max(np.abs((np.eye(b.shape[-1]) - b).view(float))) for _, b in a.groups) < 1.0:
        try:
            result = _with_mixed(phi, a, theta)
        except ValueError:
            if _strictly_below(a.gap(), 1.0):
                raise
        else:
            rate = _pair(phi, result).mixed.gap()
            if _strictly_below(rate, 1.0):
                return result
    if rate is None:
        raise ContractViolation(f"requires {condition} < 1", measured=a.gap())
    raise ContractViolation(f"requires {condition} < 1: it is {a.gap():.6g}, but the rate of the pair "
                            "built is not below 1", measured=rate)


def approx_dual_from_whitened(
    phi: Frame, whitened, theta: Optional[Annihilator] = None
) -> Frame:
    """Approximate dual with vectors W* S^{-1/2} phi_k + theta*(delta_k).

    Requires ||Id - S^{1/2} W|| < 1.  The resulting mixed operator equals
    S^{1/2} W regardless of the annihilator, and the construction ranges
    over *all* approximate duals of ``phi`` as (W, theta) vary.
    """
    require_frame(phi, "frame")
    _require_base(phi, theta)
    phi, w, theta = _aligned(phi, _operand(phi, whitened, "whitened"), theta)
    return _approx_dual(phi, phi.spectrum.root @ w, theta, "||Id - S^(1/2) W||")


@dataclass(frozen=True)
class WhitenedAdmissibility:
    """Outcome of the sufficient condition ||S^{-1/2} - W|| < 1 / sqrt(M)."""

    admissible: bool
    distance: float
    threshold: float
    implied_rate_bound: float  # sqrt(M) * distance, an upper bound on the rate


def whitened_admissibility(phi: Frame, whitened) -> WhitenedAdmissibility:
    """Check the closeness-to-S^{-1/2} condition that guarantees an approximate dual."""
    require_frame(phi, "frame")
    bounds = frame_bounds(phi)
    phi, w = _aligned(phi, _operand(phi, whitened, "whitened"))
    distance = phi.spectrum.inv_root.distance(w)
    threshold = 1.0 / np.sqrt(bounds.upper)
    return WhitenedAdmissibility(
        admissible=_strictly_below(distance, threshold),
        distance=distance,
        threshold=threshold,
        implied_rate_bound=float(np.sqrt(bounds.upper) * distance),
    )


def approx_dual_from_mixed(
    phi: Frame, target, theta: Optional[Annihilator] = None
) -> Frame:
    """Approximate dual realizing a prescribed mixed operator.

    Requires ||Id - target|| < 1; the result psi satisfies
    mixed_operator(phi, psi) == target, with vectors
    target* S^{-1} phi_k + theta*(delta_k).
    """
    require_frame(phi, "frame")
    _require_base(phi, theta)
    phi, a, theta = _aligned(phi, _operand(phi, target, "target"), theta)
    return _approx_dual(phi, a, theta, "||Id - target||")


def gdual_from_corresponding(
    phi: Frame, corresponding, theta: Optional[Annihilator] = None
) -> Frame:
    """g-dual of ``phi`` with prescribed corresponding operator.

    ``corresponding`` must be invertible; the result psi satisfies
    mixed_operator(phi, psi) == corresponding^{-1}, with vectors
    (corresponding^{-1})* S^{-1} phi_k + theta*(delta_k).
    """
    require_frame(phi, "frame")
    _require_base(phi, theta)
    phi, c, theta = _aligned(phi, _operand(phi, corresponding, "corresponding"), theta)
    return _with_mixed(phi, c.inverse(), theta)


def recover_parameters(phi: Frame, phi_ad: Frame) -> Tuple[LatticeOperator, Annihilator]:
    """Invert the whitened construction: recover (W, theta) from a pair.

    Feeding the result back into :func:`approx_dual_from_whitened`
    reproduces ``phi_ad`` columnwise, on phi's classes.  W is the pair's block
    value S^{-1/2} mixed, the one :func:`gdual_factorization` reports
    (``np.asarray`` gives the dense matrix); theta is held as its factor theta*
    (see :class:`~dualframes.frames.Annihilator`).
    """
    require_frame(phi, "frame")
    phi, phi_ad = _aligned(phi, phi_ad)
    pair = _pair(phi, phi_ad)
    rate = pair.mixed.gap()
    if not _strictly_below(rate, 1.0):
        raise NotApproxDual("pair is not approximately dual", measured=rate)
    return pair.whitened, Annihilator._over(pair.theta, phi, pair.theta_norm)


def approx_dual_via_dual(
    phi: Frame,
    phi_d: Frame,
    whitened=None,
    target=None,
) -> Frame:
    """Approximate dual built from an arbitrary exact dual of ``phi``.

    Exactly one of ``whitened`` (W with ||S^{-1/2} - W|| < 1/sqrt(M)) or
    ``target`` (mixed operator with ||Id - target|| < 1) must be given.
    The vectors are  Op phi_k - phi_k + S phi^d_k  with Op the respective
    left factor; the kernel content S phi^d_k - phi_k plays the role of
    the annihilator term.
    """
    if (whitened is None) == (target is None):
        raise ValueError("provide exactly one of whitened= or target=")
    require_frame(phi, "frame")
    gap = _pair(phi, phi_d).mixed.gap()
    if gap > DUAL_TOL:
        raise NotDualPair("(phi, phi_d) must be an exact dual pair", measured=gap)
    if whitened is not None:
        check = whitened_admissibility(phi, whitened)
        if not check.admissible:
            raise ContractViolation(
                "requires ||S^(-1/2) - W|| < 1/sqrt(upper bound)", measured=check.distance
            )
        phi, phi_d, w = _aligned(phi, phi_d, _operand(phi, whitened, "whitened"))
        a, condition = phi.spectrum.root @ w, "||Id - S^(1/2) W||"
    else:
        phi, phi_d, a = _aligned(phi, phi_d, _operand(phi, target, "target"))
        condition = "||Id - target||"
    return _via_dual(phi, phi_d, a, condition)


def _via_dual(phi: Frame, phi_d: Frame, a: LatticeOperator, condition: str) -> Frame:
    """:func:`_approx_dual` with the kernel term S T_d - T of an exact dual phi_d as theta*."""
    kernel_part = _pair(phi, phi).mixed @ phi_d._system - phi._system
    return _approx_dual(phi, a, kernel_part, condition)


def reconstruct(phi: Frame, psi: Frame, f) -> np.ndarray:
    """Reconstruct ``f`` through a g-dual pair.

    Applies the corresponding operator (inverse of the mixed operator)
    before analysis, which makes the reconstruction algebraically exact:
    sum_k <A_inv f, psi_k> phi_k == f.  Both steps are block by block: the
    corresponding operator, then the mixed operator synthesis(phi) o analysis(psi).
    """
    mixed = _pair(phi, psi).mixed
    return mixed.apply(mixed.inverse().apply(_vector(f, phi.dim, "vector")))


class RangeRelation(enum.Enum):
    """Relation between the analysis ranges of two families."""

    EQUAL = "equal"
    LEFT_IN_RIGHT = "left_in_right"
    RIGHT_IN_LEFT = "right_in_left"
    INCOMPARABLE = "incomparable"


def _containment_defect(small: Frame, big: Frame) -> float:
    # sin of the largest principal angle from range(T_small*) into range(T_big*), class by class
    return _largest_norm(big.spectrum.off_range(small.spectrum.range_rows))


def range_compare(phi: Frame, psi: Frame) -> RangeRelation:
    """Compare the analysis ranges (column spaces in coefficient space).

    Two frames of the same space with the same index count both have
    d-dimensional ranges, so strict one-sided inclusion can never occur
    for valid frame inputs; those verdicts only arise for rank-deficient
    (Bessel-only) families.  On shared classes a range contains another
    when each class's range(V_r) does.
    """
    phi, psi = _aligned(phi, psi)
    left_in_right = _containment_defect(phi, psi) <= RANGE_TOL
    right_in_left = _containment_defect(psi, phi) <= RANGE_TOL
    if left_in_right and right_in_left:
        return RangeRelation.EQUAL
    if left_in_right:
        return RangeRelation.LEFT_IN_RIGHT
    if right_in_left:
        return RangeRelation.RIGHT_IN_LEFT
    return RangeRelation.INCOMPARABLE


def equivalence_inverse(phi: Frame, psi: Frame) -> LatticeOperator:
    """Inverse of the mixed operator for equivalent frames.

    When the analysis ranges coincide, the mixed operator of the two
    canonical duals (taken in reverse order) is a two-sided inverse of
    mixed_operator(phi, psi); both identities are verified numerically,
    block by block.  It is returned as that pair's block value
    (``np.asarray`` gives the dense matrix).
    """
    if range_compare(phi, psi) is not RangeRelation.EQUAL:
        raise NotEquivalent("analysis ranges differ")
    phi, psi = _aligned(phi, psi)
    result = _pair(canonical_dual(psi), canonical_dual(phi)).mixed
    mixed = _pair(phi, psi).mixed
    defect = max((mixed @ result).gap(), (result @ mixed).gap())
    if defect > EQUIVALENCE_TOL:
        raise NotEquivalent(f"inverse check failed with defect {defect:.3e}")
    return result
