"""Transfer of dual-type frames across nearby frames.

Given a frame pair (phi, phi_dual) of dual type (approximate or
generalized) and a second frame psi close to phi in the Bessel-difference
sense, these routines build a dual-type partner for psi that stays close
to phi_dual and realizes the *same* mixed operator.  The quantitative
closeness claim is surfaced as a closed-form predicted bound so it can be
checked against the measured one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oplin
from .duality import _theta_part, _with_mixed
from .errors import NotApproxDual, NotRieszBasis, SmallnessViolated
from .frames import (
    Frame,
    _aligned,
    _pair,
    bessel_bound_difference,
    frame_bounds,
    is_riesz,
    require_frame,
)
from .oplin import LatticeOperator, _strictly_below
from .tolerances import SMALLNESS_MARGIN


@dataclass(frozen=True, eq=False)
class TransferResult:
    """Outcome of a dual-type transfer.

    ``psi_dual`` is the constructed partner for the perturbed frame,
    ``omega`` the intermediate family before correction, ``corrector``
    the operator whose inverse aligns omega with psi.  On success
    ``mixed_match_residual`` is at machine level and
    ``measured_diff_bound`` stays below ``predicted_diff_bound``.
    """

    psi_dual: Frame
    omega: Frame
    corrector: np.ndarray
    predicted_diff_bound: float
    measured_diff_bound: float
    mixed_match_residual: float
    smallness: float


def _transfer(phi: Frame, psi: Frame, phi_dual: Frame, expect_approx: bool) -> TransferResult:
    require_frame(phi, "original frame")
    require_frame(psi, "perturbed frame")
    m_phi, big_m_phi = frame_bounds(phi)
    m_psi, big_m_psi = frame_bounds(psi)
    big_m_dual = frame_bounds(phi_dual).upper
    phi, psi, phi_dual = _aligned(phi, psi, phi_dual)

    pair = _pair(phi, phi_dual)
    if expect_approx and not _strictly_below(pair.rate, 1.0):
        raise NotApproxDual("(phi, phi_dual) is not approximately dual", measured=pair.rate)
    mixed = pair.mixed
    inv_mixed = pair.inverse
    mixed_norm = float(pair.singular_values[0])
    inv_mixed_norm = 1.0 / float(pair.singular_values[-1])

    theta = _theta_part(phi, phi_dual)
    theta_norm = pair.theta_norm

    diff_bound = bessel_bound_difference(phi, psi)
    smallness = math.sqrt(diff_bound) * (theta_norm * inv_mixed_norm)
    if smallness >= 1.0 - SMALLNESS_MARGIN:
        raise SmallnessViolated(
            "requires sqrt(M_diff) * ||theta|| * ||inv mixed|| < 1", measured=smallness
        )

    omega = _with_mixed(psi, mixed, theta)
    corrector = omega._system.blocks(inv_mixed @ psi._system)  # T_omega T_psi* M^{-*}
    # The corrector is Id + theta*(T_psi - T_phi)* M^{-*}, as T_phi theta = 0, so the
    # guard of oplin.solve is certified from ||corrector - Id||_F, with no singular
    # values.  The smallness estimate is sufficient, not necessary (vacuous for
    # theta == 0); invertibility of the corrector is what actually matters.
    psi_dual = Frame._over(oplin._require_invertible(corrector).solve(omega._system))

    # formed here, not through mixed_operator, so that psi keeps no record of this pair
    mixed_match = psi._system.blocks(psi_dual._system).distance(mixed)
    measured = bessel_bound_difference(phi_dual, psi_dual)
    # The closed form sqrt(M_diff) ||M^-1|| / (1 - smallness) (||theta|| sqrt(M_dual)
    # + ||M|| (m_phi + M_phi + sqrt(M_psi M_phi)) / (m_phi m_psi)), squared, read in units
    # of M_phi: scale-free ratios times one power of sqrt(M_phi) each, so that no product
    # of bounds under- or overflows where the bounds are normal floats.
    unit = math.sqrt(big_m_phi)
    ratio_phi, ratio_psi = m_phi / big_m_phi, m_psi / big_m_phi
    spread = (inv_mixed_norm * theta_norm) * (math.sqrt(big_m_dual) * unit) + (
        inv_mixed_norm * mixed_norm
    ) * (ratio_phi + 1.0 + math.sqrt(big_m_psi / big_m_phi)) / (ratio_phi * ratio_psi) / unit
    predicted = (math.sqrt(diff_bound / big_m_phi) * spread / (1.0 - smallness)) ** 2
    return TransferResult(
        psi_dual=psi_dual,
        omega=omega,
        corrector=np.asarray(corrector),
        predicted_diff_bound=float(predicted),
        measured_diff_bound=float(measured),
        mixed_match_residual=float(mixed_match),
        smallness=smallness,
    )


def transfer_approx_dual(phi: Frame, psi: Frame, phi_ad: Frame) -> TransferResult:
    """Carry an approximate dual of phi over to the nearby frame psi.

    The result satisfies mixed_operator(psi, psi_dual) ==
    mixed_operator(phi, phi_ad), and the Bessel bound of the difference
    (phi_ad_k - psi_dual_k)_k is bounded by the returned closed form,
    itself a multiple of the Bessel bound of (phi_k - psi_k)_k.
    """
    return _transfer(phi, psi, phi_ad, expect_approx=True)


def transfer_gdual(phi: Frame, psi: Frame, phi_gd: Frame) -> TransferResult:
    """Same transfer for a g-dual (mixed operator merely invertible)."""
    return _transfer(phi, psi, phi_gd, expect_approx=False)


def self_gdual_transfer(phi: Frame, psi: Frame) -> TransferResult:
    """Transfer of the tautological g-dual of phi (phi itself).

    Every frame is a g-dual of itself with mixed operator S_phi; the
    transferred family satisfies mixed_operator(psi, psi_dual) == S_phi.
    The recovered annihilator is exactly zero here, so the smallness
    hypothesis is vacuous and the corrector is the identity.
    """
    return _transfer(phi, psi, phi, expect_approx=False)


def riesz_difference_bound(phi: Frame, psi: Frame) -> float:
    """Closed-form Bessel bound for the difference of two Riesz bases.

    With D the operator mapping phi_k to psi_k, returns
    min(M_phi ||Id - D||^2, M_psi ||Id - D^{-1}||^2), a valid (possibly
    non-optimal) Bessel bound of (phi_k - psi_k)_k.
    """
    if not (is_riesz(phi) and is_riesz(psi)):
        raise NotRieszBasis("both inputs must be Riesz bases (square, invertible synthesis)")
    big_m_phi = frame_bounds(phi).upper
    big_m_psi = frame_bounds(psi).upper
    oplin._require_conditioned(phi._singular_values)  # the guard of oplin.inverse(T_phi)
    phi, psi = _aligned(phi, psi)
    # each class of a Riesz basis is square, so D is psi_r phi_r^{-1} class by class
    pairs = zip(phi._system.groups, psi._system.groups)
    d = LatticeOperator._of(phi._system.grid, phi._system.lattice,
                            ((i, q @ np.linalg.inv(p)) for (i, p), (_, q) in pairs))
    return float(min(big_m_phi * d.gap() ** 2, big_m_psi * oplin._require_invertible(d).inverse().gap() ** 2))
