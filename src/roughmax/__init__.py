"""Numerical toolkit for maximal averages along floor-of-smooth-growth
integer sequences: growth functions and their inverses, the generated
integer sets, smoothed kernels and their autocorrelation decomposition,
phase-sum bounds, weak-type diagnostics with a dyadic stopping-time
decomposition, and averages on finite dynamical systems.
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DegenerateError,
    DomainError,
    EmptyRangeError,
    InsufficientDataError,
    PreconditionError,
    RangeError,
    RoughMaxError,
    SequenceOverflowError,
    SignalSizeError,
    SingularityError,
    ValidationError,
)
from .growth import (
    AuxFunctionReport,
    GrowthFunction,
    InverseFunction,
    Variant,
    build_aux_report,
    identity_growth,
    make_growth,
)
from .seqset import (
    SequenceSet,
    contains_via_inverse_batch,
    count,
    generate,
    verify_membership_equivalence,
)
from .signals import Signal, autocorrelation_signal, convolve
from .kernel import (
    DecompositionReport,
    Kernel,
    autocorrelation,
    build_kernel,
    compute_gn,
    decomposition_report,
    decomposition_reports,
    estimate_chi,
    eta,
    gn_profile,
)
from .expsum import (
    ExpSumResult,
    abel_sum,
    min_norm_sum,
    min_norm_sweep,
    ratio_sweep,
    resonant_alpha,
    sawtooth,
    single_phase_sum,
    two_phase_sum,
)
from .maximal import (
    CZAtom,
    CZDecomposition,
    FamilyHypothesesReport,
    RefinedBadPart,
    ScaleFamily,
    build_scale_family,
    cz_decompose,
    default_lambda_grid,
    maximal_function,
    refine_bad_part,
    verify_family_hypotheses,
    weak_type_profile,
)
from .ergodic import (
    FiniteSystem,
    cyclic_shift,
    ergodic_average,
    indicator,
    oscillation_diagnostic,
    weighted_average,
)
