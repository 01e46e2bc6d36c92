"""Fidelity-based metrics and maximum-probability uncertainty relations
for finite-dimensional quantum systems."""

from .config import TOL, Tolerances
from .errors import (
    DimensionMismatch,
    DomainError,
    FidurError,
    IndexOutOfRange,
    NoConvergence,
    NotHermitian,
    NotPSD,
    ValidationError,
)
from .linalg import hermitian_eig, psd_sqrt
from .states import (
    DensityMatrix,
    ProjectiveObservable,
    PureState,
    computational_observable,
    derived_seed,
    fourier_observable,
    partial_trace_aux,
    projector,
    purify,
    sample_haar_unitary,
    sample_mixed,
    sample_observable,
    sample_pure,
)
from .fidelity import (
    fidelity,
    fidelity_oracle,
    fidelity_pure_mixed,
    fidelity_pure_pure,
    purification_overlap_search,
)
from .metrics import MetricKind, f_of, metric_distance, metric_kind
from .uncertainty import (
    URReport,
    check_ur,
    max_probability,
    outcome_probabilities,
    overlap,
    report_from_probabilities,
)
from .domains import (
    DomainSpec,
    QuadraticForm,
    boundary_from_quadratic,
    g_boundary,
    h_boundary,
    in_domain,
    quadratic_form,
    region_samples,
)
from .sweep import SweepConfig, SweepResult, run_sweep

__version__ = "0.1.0"
