"""Interval exchange transformations embedded into planar piecewise isometries.

The package renormalizes interval exchanges with exact integer arithmetic,
builds the associated sequence of unit-speed piecewise-linear curves by
rotating segments along the renormalization data, constructs the adapted
planar piecewise isometries, analyzes the cocycle spectrum, and certifies
numerically every identity the construction is supposed to satisfy.
"""

from .errors import (
    AtomMissesCurve,
    AtomsOverlap,
    BudgetExceeded,
    ExhaustedResamples,
    IetPwiError,
    InsufficientGap,
    IntervalOutOfRange,
    LevelMismatch,
    NonPositiveLength,
    NonUnitSpeed,
    OutOfDomain,
    RauzyUndefined,
    Reducible,
    UnclassifiablePoint,
)
from .iet import (
    IETState,
    Lengths,
    Permutation,
    apply,
    build_iet,
    build_iet_from,
    is_irreducible,
    omega_matrix,
)
from .rauzy import (
    InductionStep,
    InductionTrace,
    RauzyGraph,
    rauzy_class,
    rauzy_iterate,
    rauzy_step,
    torus_project,
    zorich_iterate,
)
from .breaking import (
    IntervalSeq,
    PLCurve,
    ThetaSeq,
    breaking_intervals,
    breaking_operator,
    breaking_sequence,
    curve_levels,
    rokhlin_towers,
    theta_sequence,
)
from .pwi import (
    AdaptedPWI,
    PlanarIsometry,
    adapted_pwi,
    hat_maps,
    inductive_maps,
    iterate,
)
from .spectral import (
    LyapunovEstimate,
    ThetaSample,
    genus,
    h_pi_basis,
    lyapunov_spectrum,
    sample_theta,
    stable_subspace,
    summability_check,
)
from .verify import (
    VerificationReport,
    certify,
    convergence_report,
    discontinuity_orbit,
    embedding_defect,
    injectivity,
    isometry_defect,
    nontriviality,
    quasi_embedding_suite,
)
from .catalog import SelfInducingIET, symmetric4_self_inducing

__version__ = "0.1.0"
