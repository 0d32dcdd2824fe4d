"""Finite frames, generalized and approximately dual frames, and discrete
Gabor constructions on a sampled periodic line.

The package is organized in layers:

* :mod:`dualframes.tolerances` -- every verdict threshold, each named once
  with what it decides, its scale and why it has its value.
* :mod:`dualframes.oplin` -- complex operator helpers (norms, guarded
  inverses) and the one representation of a synthesis matrix: its class
  factor, a matrix being the one-class case, with one batched thin SVD and
  the spectral facts read from it, and block-diagonal operators.
* :mod:`dualframes.frames` -- finite frames, their three canonical
  operators, optimal bounds, canonical duals, and annihilators.
* :mod:`dualframes.duality` -- classification of frame pairs and the
  operator-parameterized constructions of approximate and g-duals.
* :mod:`dualframes.perturbation` -- transfer of dual-type frames across
  nearby frames, with quantitative bounds.
* :mod:`dualframes.gabor` -- Gabor systems, explicit dual windows, and
  approximately dual windows on a sampled periodic line.
* :mod:`dualframes.io` / :mod:`dualframes.cli` -- JSON wire formats and
  the command-line front end.
"""

from .errors import (
    BadCoefficients,
    ContractViolation,
    DimensionMismatch,
    FrameError,
    HypothesisViolated,
    LatticeMismatch,
    NotAFrame,
    NotApproxDual,
    NotCommuting,
    NotDualPair,
    NotEquivalent,
    NotRieszBasis,
    OffGrid,
    ParseError,
    Singular,
    SmallnessViolated,
    SupportOverflow,
)
from .oplin import (
    Spectrum,
    adjoint,
    as_operator,
    identity,
    inverse,
    operator_norm,
    solve,
)
from .frames import (
    Annihilator,
    Frame,
    FrameBounds,
    analysis,
    approximation_rate,
    bessel_bound_difference,
    canonical_dual,
    frame_bounds,
    frame_operator,
    frame_operator_inv_sqrt,
    frame_operator_sqrt,
    is_frame,
    is_riesz,
    mixed_operator,
    random_annihilator,
    synthesis,
)
from .duality import (
    DualReport,
    RangeRelation,
    WhitenedAdmissibility,
    approx_dual_from_mixed,
    approx_dual_from_whitened,
    approx_dual_via_dual,
    classify_pair,
    equivalence_inverse,
    gdual_factorization,
    gdual_from_corresponding,
    range_compare,
    reconstruct,
    recover_parameters,
    whitened_admissibility,
)
from .perturbation import (
    TransferResult,
    riesz_difference_bound,
    self_gdual_transfer,
    transfer_approx_dual,
    transfer_gdual,
)
from .gabor import (
    GaborLattice,
    GridSpec,
    LatticeOperator,
    PainlessReport,
    SampledWindow,
    approx_dual_window,
    bspline_value,
    char_dual_check,
    ck_dual1,
    ck_dual2,
    commutation_check,
    gabor_frame,
    janssen_residual,
    janssen_residual_table,
    mixed_lattice_operator,
    painless_check,
    partition_of_unity_residual,
    sample_bspline,
    sample_char,
    sample_function,
    scaled_gabor_operator,
    walnut_weight,
)

__version__ = "0.1.0"
