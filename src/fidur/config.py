"""Centralized numerical tolerances.

Every tolerance used by the package lives in this one record so that the
guard bands applied across modules stay consistent and auditable. All
values are absolute unless the field comment says otherwise.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    hermitian: float = 1e-10          # max element of |H - H^dag|
    psd_clamp: float = 1e-10          # eigenvalues below -psd_clamp are a hard error
    trace_one: float = 1e-10          # |tr(rho) - 1|
    unit_norm: float = 1e-12          # pure-state normalization
    orthonormal: float = 1e-10        # |E^dag E - I| element-wise
    rank_cutoff: float = 1e-10        # eigenvalues above this count toward rank
    fidelity_guard: float = 1e-9      # admissible excursion of F outside [0, 1]
    probability_imag: float = 1e-10   # |Im <a|rho|a>|
    probability_clamp: float = 1e-10  # admissible excursion of p_i outside [0, 1]
    probability_sum: float = 1e-9     # |sum p_i - 1|
    overlap_guard: float = 1e-9       # admissible excursion of c outside [1/sqrt(N), 1]
    metric_domain_guard: float = 1e-9 # admissible excursion of f's argument outside [0, 1]
    ur_slack: float = 1e-9            # default violation tolerance for UR checks
    domain_guard: float = 1e-9        # membership slack for feasibility domains


TOL = Tolerances()
