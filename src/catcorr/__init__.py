"""Pairwise quantum correlations of multimode coherent-state superpositions.

The package maps balanced two-branch superpositions of n product
coherent states onto logical qubit pairs and computes their geometric
quantum discord and Wootters concurrence, in closed form and through
independent numerical routes, including the decay of both under local
phase damping.
"""

from .correlations import (
    Branch,
    CorrelationReport,
    branch_and_discord,
    concurrence_mixed,
    geometric_discord_numeric,
    k_matrix,
    mixed_discord_closed,
    pair_k_spectrum,
    werner_limit_discord,
    werner_limit_k_eigenvalues,
)
from .dephasing import (
    DephasingParams,
    apply_dephasing,
    discord_trajectory,
    kraus_ops,
    sudden_death_time,
)
from .errors import (
    CatcorrError,
    DivergentNormalizationError,
    DomainError,
    InvalidDensityError,
    UnsupportedOverlapError,
)
from .kernels import WEYL_HEISENBERG, Family, FamilyParams, overlap, su2, su11
from .oracle import (
    discord_by_measurement_search,
    pair_density_from_overlaps,
)
from .states import (
    BlochForm,
    PairInputs,
    Parity,
    SuperpositionSpec,
    bloch_compose,
    bloch_decompose,
    check_density,
    reduced_pair_density,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "BlochForm",
    "CatcorrError",
    "CorrelationReport",
    "DephasingParams",
    "DivergentNormalizationError",
    "DomainError",
    "Family",
    "FamilyParams",
    "InvalidDensityError",
    "PairInputs",
    "Parity",
    "SuperpositionSpec",
    "UnsupportedOverlapError",
    "WEYL_HEISENBERG",
    "apply_dephasing",
    "bloch_compose",
    "bloch_decompose",
    "branch_and_discord",
    "check_density",
    "concurrence_mixed",
    "discord_by_measurement_search",
    "discord_trajectory",
    "geometric_discord_numeric",
    "k_matrix",
    "kraus_ops",
    "mixed_discord_closed",
    "pair_k_spectrum",
    "overlap",
    "pair_density_from_overlaps",
    "reduced_pair_density",
    "su11",
    "su2",
    "sudden_death_time",
    "werner_limit_discord",
    "werner_limit_k_eigenvalues",
]
