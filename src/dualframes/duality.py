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
  for the mixed operator A; ``_theta_part`` recovers theta as the partner's
  analysis operator projected onto ker(synthesis), through the frame's one
  thin SVD (:class:`dualframes.oplin.Spectrum`).
* A pair's mixed operator, rate, corresponding operator and annihilator
  part are read from its record (:func:`dualframes.frames._pair`), which
  computes each once while both frames live.

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
    _frozen,
    _Pair,
    _pair,
    _vector,
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
# Relative slack allowed when checking lambda_max(W W*) against the Bessel bound.
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


def _classify(pair: _Pair) -> Tuple[str, Optional[np.ndarray]]:
    rate = pair.rate
    try:
        corresponding = pair.corresponding
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
    return DualReport(kind=kind, rate=pair.rate, corresponding_op=corresponding)


def gdual_factorization(phi: Frame, psi: Frame) -> DualReport:
    """Factor the mixed operator as S^{1/2} W and classify the pair.

    The pair is g-dual exactly when the whitened factor W is invertible,
    and approximately dual exactly when ||Id - S^{1/2} W|| < 1, which is
    the approximation rate ``report.rate``.  The report also checks
    lambda_max(W W*) = ||W||^2 against the Bessel bound of ``psi``, which
    must hold for any genuine frame pair, up to the relative slack
    ``BESSEL_CHECK_TOL``.
    """
    require_frame(phi, "first frame")
    pair = _pair(phi, psi)
    mixed = pair.dense
    whitened = frame_operator_inv_sqrt(phi) @ mixed
    residual = operator_norm(mixed - frame_operator_sqrt(phi) @ whitened)
    peak = operator_norm(whitened) ** 2
    upper_psi = frame_bounds(psi).upper
    kind, corresponding = _classify(pair)
    return DualReport(
        kind=kind,
        rate=pair.rate,
        corresponding_op=corresponding,
        whitened=whitened,
        factor_residual=residual,
        bessel_bound_ok=bool(peak <= upper_psi * (1.0 + BESSEL_CHECK_TOL)),
        bessel_margin=upper_psi - peak,
    )


def _operand(phi: Frame, m, name: str) -> np.ndarray:
    a = oplin.as_operator(m)
    if a.shape != (phi.dim, phi.dim):
        raise DimensionMismatch(f"{name} must be {phi.dim}x{phi.dim}, got {a.shape}")
    return a


def _theta_map(phi: Frame, theta: Optional[Annihilator]) -> Optional[np.ndarray]:
    if theta is None:
        return None
    if theta.base is not phi and not np.array_equal(theta.base.synthesis, phi.synthesis):
        raise DimensionMismatch("annihilator was built for a different frame")
    return theta.map


def _with_mixed(phi: Frame, a: np.ndarray, theta_map: Optional[np.ndarray] = None) -> Frame:
    """( a* S^{-1} phi_k + theta*(delta_k) )_k: mixed operator ``a`` if theta maps into ker T."""
    syn = adjoint(a) @ canonical_dual(phi).synthesis
    if theta_map is not None:
        syn += adjoint(theta_map)
    return Frame._adopt(syn)


def _approx_dual(phi: Frame, a: np.ndarray, theta_map, condition: str) -> Frame:
    """``_with_mixed(phi, a, theta_map)`` once ``condition`` = ||Id - a|| is below 1."""
    gap = oplin.identity_gap(a)
    if not _strictly_below(gap, 1.0):
        raise ContractViolation(f"requires {condition} < 1", measured=gap)
    return _with_mixed(phi, a, theta_map)


def approx_dual_from_whitened(
    phi: Frame, whitened, theta: Optional[Annihilator] = None
) -> Frame:
    """Approximate dual with vectors W* S^{-1/2} phi_k + theta*(delta_k).

    Requires ||Id - S^{1/2} W|| < 1.  The resulting mixed operator equals
    S^{1/2} W regardless of the annihilator, and the construction ranges
    over *all* approximate duals of ``phi`` as (W, theta) vary.
    """
    require_frame(phi, "frame")
    a = frame_operator_sqrt(phi) @ _operand(phi, whitened, "whitened")
    return _approx_dual(phi, a, _theta_map(phi, theta), "||Id - S^(1/2) W||")


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
    w = _operand(phi, whitened, "whitened")
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
    a = _operand(phi, target, "target")
    return _approx_dual(phi, a, _theta_map(phi, theta), "||Id - target||")


def gdual_from_corresponding(
    phi: Frame, corresponding, theta: Optional[Annihilator] = None
) -> Frame:
    """g-dual of ``phi`` with prescribed corresponding operator.

    ``corresponding`` must be invertible; the result psi satisfies
    mixed_operator(phi, psi) == corresponding^{-1}, with vectors
    (corresponding^{-1})* S^{-1} phi_k + theta*(delta_k).
    """
    require_frame(phi, "frame")
    a = oplin.inverse(_operand(phi, corresponding, "corresponding"))
    return _with_mixed(phi, a, _theta_map(phi, theta))


def _theta_part(phi: Frame, partner: Frame) -> np.ndarray:
    """Annihilator part: the theta map with partner == _with_mixed(phi, mixed, theta_map),
    read-only, built once and kept on the pair's record with its norm.

    It is T_partner* projected onto ker T (``Spectrum.kernel_part``): the projection
    removes the part A* S^{-1} phi_k, whose analysis lies in range(T*).  No rate is
    checked: g-dual partners are valid input.
    """
    pair = _pair(phi, partner)
    if pair.theta is None:
        pair.theta = _frozen(phi.spectrum.kernel_part(adjoint(partner.synthesis)))
        pair.theta_norm = operator_norm(pair.theta)
    return pair.theta


def recover_parameters(phi: Frame, phi_ad: Frame) -> Tuple[np.ndarray, Annihilator]:
    """Invert the whitened construction: recover (W, theta) from a pair.

    Feeding the result back into :func:`approx_dual_from_whitened`
    reproduces ``phi_ad`` columnwise.
    """
    require_frame(phi, "frame")
    pair = _pair(phi, phi_ad)
    if not _strictly_below(pair.rate, 1.0):
        raise NotApproxDual("pair is not approximately dual", measured=pair.rate)
    whitened = frame_operator_inv_sqrt(phi) @ pair.dense
    return whitened, Annihilator._kept(_theta_part(phi, phi_ad), phi, pair.theta_norm)


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
    gap = _pair(phi, phi_d).rate
    if gap > DUAL_TOL:
        raise NotDualPair("(phi, phi_d) must be an exact dual pair", measured=gap)
    if whitened is not None:
        check = whitened_admissibility(phi, whitened)
        if not check.admissible:
            raise ContractViolation(
                "requires ||S^(-1/2) - W|| < 1/sqrt(upper bound)", measured=check.distance
            )
        a = frame_operator_sqrt(phi) @ _operand(phi, whitened, "whitened")
        condition = "||Id - S^(1/2) W||"
    else:
        a, condition = _operand(phi, target, "target"), "||Id - target||"
    kernel_part = adjoint(frame_operator(phi) @ phi_d.synthesis - phi.synthesis)
    return _approx_dual(phi, a, kernel_part, condition)


def reconstruct(phi: Frame, psi: Frame, f) -> np.ndarray:
    """Reconstruct ``f`` through a g-dual pair.

    Applies the corresponding operator (inverse of the mixed operator)
    before analysis, which makes the reconstruction algebraically exact:
    sum_k <A_inv f, psi_k> phi_k == f.
    """
    corrected = _pair(phi, psi).corresponding @ _vector(f, phi.dim, "vector")
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
    q_phi = phi.spectrum.range_basis
    q_psi = psi.spectrum.range_basis
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
    defect = max(oplin.identity_gap(mixed @ result), oplin.identity_gap(result @ mixed))
    if defect > 1e-9:
        raise NotEquivalent(f"inverse check failed with defect {defect:.3e}")
    return result
