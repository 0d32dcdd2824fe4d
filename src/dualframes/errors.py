"""Typed errors raised across the package.

Every error that corresponds to a violated mathematical hypothesis carries
the measured quantity that broke it (``measured`` attribute), so callers and
the CLI can report exactly which condition failed and by how much.
"""


class FrameError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(FrameError):
    """Operands have incompatible dimensions or index counts."""


class NotHermitian(FrameError):
    """A matrix required to be Hermitian is not (beyond tolerance)."""


class NotPSD(FrameError):
    """A matrix required to be positive semidefinite has a significantly
    negative eigenvalue."""


class Singular(FrameError):
    """A matrix required to be invertible is numerically singular.

    This error is meaningful in its own right: it is how failure of
    g-duality (non-invertible mixed operator) is detected.
    """


class NotAFrame(FrameError):
    """A vector family required to be a frame has lower bound 0."""


class NotRieszBasis(FrameError):
    """A frame required to be a Riesz basis is redundant or rank deficient."""


class ContractViolation(FrameError):
    """A quantitative hypothesis (norm condition) does not hold.

    ``condition`` describes the required inequality, ``measured`` is the
    offending value.
    """

    def __init__(self, condition, measured=None):
        self.condition = condition
        self.measured = measured
        msg = condition if measured is None else f"{condition} (measured {measured:.6g})"
        super().__init__(msg)


class NotApproxDual(ContractViolation):
    """The pair is not approximately dual (rate >= 1)."""


class NotDualPair(ContractViolation):
    """The pair is not an exact dual pair."""


class NotEquivalent(FrameError):
    """Analysis ranges differ; the frames are not equivalent."""


class SmallnessViolated(ContractViolation):
    """The perturbation is too large for the transfer construction."""


class OffGrid(FrameError):
    """A rational parameter does not land on the sampling grid."""


class SupportOverflow(FrameError):
    """A window's support does not fit inside one period."""


class LatticeMismatch(FrameError):
    """Lattice parameters are incommensurate with the grid, or operands lie on different ones."""


class HypothesisViolated(ContractViolation):
    """A named hypothesis of a Gabor construction fails."""


class BadCoefficients(FrameError):
    """Dual-window coefficients violate their linear constraints."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("coefficient constraints violated: " + "; ".join(self.violations))


class NotCommuting(ContractViolation):
    """The operator does not commute with the lattice generators."""


class ParseError(FrameError):
    """A JSON/flag input could not be parsed."""
