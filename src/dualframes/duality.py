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

All strict norm conditions ``< 1`` are enforced as ``< 1 - 1e-12`` so that
boundary cases are rejected deterministically.
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
    _check_same_shape,
    canonical_dual,
    frame_bounds,
    frame_operator,
    frame_operator_inv_sqrt,
    frame_operator_sqrt,
    mixed_operator,
    require_frame,
)
from .oplin import _strictly_below, adjoint, operator_norm

# Exact duality: ||Id - mixed|| at or below this is "dual".
DUAL_TOL = 1e-10
# Slack allowed when checking lambda_max(W W*) against the Bessel bound.
BESSEL_CHECK_TOL = 1e-9


@dataclass(frozen=True)
class DualReport:
    """Verdict on a frame pair.

    ``kind`` is the strongest applicable class among ``dual`` (mixed
    operator is the identity), ``approx`` (rate < 1), ``gdual`` (mixed
    operator invertible) and ``none``.  ``corresponding_op`` is the
    inverse of the mixed operator whenever it exists; ``whitened`` and
    ``factor_residual`` report the factorization mixed = S^{1/2} W when
    it was computed; ``bessel_bound_ok`` records whether
    lambda_max(W W*) stays below the optimal Bessel bound of the second
    family (margin included).
    """

    kind: str
    rate: float
    corresponding_op: Optional[np.ndarray] = None
    whitened: Optional[np.ndarray] = None
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


def _classify(mixed: np.ndarray, rate: float) -> Tuple[str, Optional[np.ndarray]]:
    try:
        corresponding = oplin.inverse(mixed)
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
    mixed = mixed_operator(phi, psi)
    rate = operator_norm(oplin.identity(phi.dim) - mixed)
    kind, corresponding = _classify(mixed, rate)
    return DualReport(kind=kind, rate=rate, corresponding_op=corresponding)


def gdual_factorization(phi: Frame, psi: Frame) -> DualReport:
    """Factor the mixed operator as S^{1/2} W and classify the pair.

    The pair is g-dual exactly when the whitened factor W is invertible,
    and approximately dual exactly when ||Id - S^{1/2} W|| < 1, which is
    the approximation rate ``report.rate``.  The report also checks
    lambda_max(W W*) against the Bessel bound of ``psi``, which must hold
    for any genuine frame pair.
    """
    require_frame(phi, "first frame")
    mixed = mixed_operator(phi, psi)
    rate = operator_norm(oplin.identity(phi.dim) - mixed)
    whitened = frame_operator_inv_sqrt(phi) @ mixed
    residual = operator_norm(mixed - frame_operator_sqrt(phi) @ whitened)
    gram = whitened @ adjoint(whitened)
    peak = float(np.linalg.eigvalsh(gram)[-1])
    upper_psi = frame_bounds(psi).upper
    margin = upper_psi - peak
    kind, corresponding = _classify(mixed, rate)
    return DualReport(
        kind=kind,
        rate=rate,
        corresponding_op=corresponding,
        whitened=whitened,
        factor_residual=residual,
        bessel_bound_ok=bool(peak <= upper_psi + BESSEL_CHECK_TOL),
        bessel_margin=margin,
    )


def _theta_term(phi: Frame, theta: Optional[Annihilator]) -> np.ndarray:
    if theta is None:
        return np.zeros((phi.dim, phi.count), dtype=complex)
    if theta.base is not phi and not np.array_equal(theta.base.synthesis, phi.synthesis):
        raise DimensionMismatch("annihilator was built for a different frame")
    return adjoint(theta.map)


def approx_dual_from_whitened(
    phi: Frame, whitened, theta: Optional[Annihilator] = None
) -> Frame:
    """Approximate dual with vectors W* S^{-1/2} phi_k + theta*(delta_k).

    Requires ||Id - S^{1/2} W|| < 1.  The resulting mixed operator equals
    S^{1/2} W regardless of the annihilator, and the construction ranges
    over *all* approximate duals of ``phi`` as (W, theta) vary.
    """
    require_frame(phi, "frame")
    w = oplin.as_operator(whitened)
    gap = operator_norm(oplin.identity(phi.dim) - frame_operator_sqrt(phi) @ w)
    if not _strictly_below(gap, 1.0):
        raise ContractViolation("requires ||Id - S^(1/2) W|| < 1", measured=gap)
    syn = adjoint(w) @ frame_operator_inv_sqrt(phi) @ phi.synthesis + _theta_term(phi, theta)
    return Frame._adopt(syn)


@dataclass(frozen=True)
class WhitenedAdmissibility:
    """Outcome of the sufficient condition ||S^{-1/2} - W|| < 1 / sqrt(M)."""

    admissible: bool
    distance: float
    threshold: float
    implied_rate_bound: float  # sqrt(M) * distance, an upper bound on the rate


def whitened_admissibility(phi: Frame, whitened) -> WhitenedAdmissibility:
    """Check the closeness-to-S^{-1/2} condition that guarantees an approximate dual."""
    bounds = require_frame(phi, "frame")
    w = oplin.as_operator(whitened)
    distance = operator_norm(frame_operator_inv_sqrt(phi) - w)
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
    a = oplin.as_operator(target)
    gap = operator_norm(oplin.identity(phi.dim) - a)
    if not _strictly_below(gap, 1.0):
        raise ContractViolation("requires ||Id - target|| < 1", measured=gap)
    syn = adjoint(a) @ canonical_dual(phi).synthesis + _theta_term(phi, theta)
    return Frame._adopt(syn)


def gdual_from_corresponding(
    phi: Frame, corresponding, theta: Optional[Annihilator] = None
) -> Frame:
    """g-dual of ``phi`` with prescribed corresponding operator.

    ``corresponding`` must be invertible; the result psi satisfies
    mixed_operator(phi, psi) == corresponding^{-1}, with vectors
    (corresponding^{-1})* S^{-1} phi_k + theta*(delta_k).
    """
    require_frame(phi, "frame")
    inv = oplin.inverse(corresponding)
    syn = adjoint(inv) @ canonical_dual(phi).synthesis + _theta_term(phi, theta)
    return Frame._adopt(syn)


def _theta_part(phi: Frame, partner: Frame, mixed: np.ndarray) -> np.ndarray:
    """Annihilator part  partner* - (S^{-1} T)* mixed  of a pair with the given mixed operator.

    Projected onto ker(synthesis) to scrub roundoff before the invariant
    check.  No rate is checked: g-dual partners are valid input.
    """
    theta_map = adjoint(partner.synthesis) - adjoint(canonical_dual(phi).synthesis) @ mixed
    kernel = phi.kernel
    return kernel @ (adjoint(kernel) @ theta_map)


def recover_parameters(phi: Frame, phi_ad: Frame) -> Tuple[np.ndarray, Annihilator]:
    """Invert the whitened construction: recover (W, theta) from a pair.

    Feeding the result back into :func:`approx_dual_from_whitened`
    reproduces ``phi_ad`` columnwise.
    """
    require_frame(phi, "frame")
    mixed = mixed_operator(phi, phi_ad)
    rate = operator_norm(oplin.identity(phi.dim) - mixed)
    if not _strictly_below(rate, 1.0):
        raise NotApproxDual("pair is not approximately dual", measured=rate)
    whitened = frame_operator_inv_sqrt(phi) @ mixed
    return whitened, Annihilator(map=_theta_part(phi, phi_ad, mixed), base=phi)


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
    gap = operator_norm(oplin.identity(phi.dim) - mixed_operator(phi, phi_d))
    if gap > DUAL_TOL:
        raise NotDualPair("(phi, phi_d) must be an exact dual pair", measured=gap)
    if whitened is not None:
        check = whitened_admissibility(phi, whitened)
        if not check.admissible:
            raise ContractViolation(
                "requires ||S^(-1/2) - W|| < 1/sqrt(upper bound)", measured=check.distance
            )
        head = adjoint(oplin.as_operator(whitened)) @ frame_operator_inv_sqrt(phi) @ phi.synthesis
    else:
        head = approx_dual_from_mixed(phi, target).synthesis
    return Frame._adopt(head - phi.synthesis + frame_operator(phi) @ phi_d.synthesis)


def reconstruct(phi: Frame, psi: Frame, f) -> np.ndarray:
    """Reconstruct ``f`` through a g-dual pair.

    Applies the corresponding operator (inverse of the mixed operator)
    before analysis, which makes the reconstruction algebraically exact:
    sum_k <A_inv f, psi_k> phi_k == f.
    """
    mixed = mixed_operator(phi, psi)
    corrected = oplin.inverse(mixed) @ np.asarray(f, dtype=complex).reshape(-1)
    return phi.synthesis @ (adjoint(psi.synthesis) @ corrected)


class RangeRelation(enum.Enum):
    """Relation between the analysis ranges of two families."""

    EQUAL = "equal"
    LEFT_IN_RIGHT = "left_in_right"
    RIGHT_IN_LEFT = "right_in_left"
    INCOMPARABLE = "incomparable"


_RANGE_TOL = 1e-9


def _containment_defect(q_small: np.ndarray, q_big: np.ndarray) -> float:
    # sin of the largest principal angle from range(q_small) into range(q_big)
    return operator_norm(q_small - q_big @ (adjoint(q_big) @ q_small))


def range_compare(phi: Frame, psi: Frame) -> RangeRelation:
    """Compare the analysis ranges (column spaces in coefficient space).

    Two frames of the same space with the same index count both have
    d-dimensional ranges, so strict one-sided inclusion can never occur
    for valid frame inputs; those verdicts only arise for rank-deficient
    (Bessel-only) families.
    """
    _check_same_shape(phi, psi)
    q_phi = oplin.svd_split(phi.synthesis)[0]
    q_psi = oplin.svd_split(psi.synthesis)[0]
    left_in_right = _containment_defect(q_phi, q_psi) <= _RANGE_TOL
    right_in_left = _containment_defect(q_psi, q_phi) <= _RANGE_TOL
    if left_in_right and right_in_left:
        return RangeRelation.EQUAL
    if left_in_right:
        return RangeRelation.LEFT_IN_RIGHT
    if right_in_left:
        return RangeRelation.RIGHT_IN_LEFT
    return RangeRelation.INCOMPARABLE


def equivalence_inverse(phi: Frame, psi: Frame) -> np.ndarray:
    """Inverse of the mixed operator for equivalent frames.

    When the analysis ranges coincide, the mixed operator of the two
    canonical duals (taken in reverse order) is a two-sided inverse of
    mixed_operator(phi, psi); both identities are verified numerically.
    """
    if range_compare(phi, psi) is not RangeRelation.EQUAL:
        raise NotEquivalent("analysis ranges differ")
    result = mixed_operator(canonical_dual(psi), canonical_dual(phi))
    mixed = mixed_operator(phi, psi)
    eye = oplin.identity(phi.dim)
    defect = max(
        operator_norm(mixed @ result - eye), operator_norm(result @ mixed - eye)
    )
    if defect > 1e-9:
        raise NotEquivalent(f"inverse check failed with defect {defect:.3e}")
    return result
