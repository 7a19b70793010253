"""spinsep: reduced spin states of spatially separated identical particles.

Builds symmetric or antisymmetric states of n particles with interleaved
spatial and spin degrees of freedom, extracts the spin-only reduced states
measured in spatial regions, and provides the diagnostics (entanglement
measures, symmetry classification, subalgebra commutation) needed to study
how spatial separation erases exchange statistics.
"""

from .algebra import BipartitionVerdict, bipartition_check, commutator_expansion
from .embedding import embed_mixed, embed_pure, embedding_rank
from .entanglement import (
    SchmidtData,
    negativity,
    partial_transpose,
    ppt_classification,
    schmidt,
    von_neumann_entropy,
)
from .lift import lift_one_particle, lift_product
from .linalg import kron, permute_factors
from .reduction import (
    RawReduced,
    ReductionReport,
    classify_symmetry,
    cluster_expectation,
    reduced_spin_probe,
    reduction_report,
    trace_out_spatial,
)
from .spatial import (
    SpaceSpec,
    SpatialRegion,
    Wavefunction,
    mode_wavefunction,
    overlap,
    projector,
    wavefunction,
)
from .states import (
    BuiltState,
    LocalizedFactor,
    SubspaceKind,
    SuperpositionTerm,
    ZeroStateError,
    n_particle_localized,
    subspace_state,
    superposition_state,
)
from .symmetry import Parity, enumerate_sn, exchange_character

__version__ = "0.1.0"

__all__ = [
    "BipartitionVerdict",
    "BuiltState",
    "LocalizedFactor",
    "Parity",
    "RawReduced",
    "ReductionReport",
    "SchmidtData",
    "SpaceSpec",
    "SpatialRegion",
    "SubspaceKind",
    "SuperpositionTerm",
    "Wavefunction",
    "ZeroStateError",
    "bipartition_check",
    "classify_symmetry",
    "cluster_expectation",
    "commutator_expansion",
    "embed_mixed",
    "embed_pure",
    "embedding_rank",
    "enumerate_sn",
    "exchange_character",
    "kron",
    "lift_one_particle",
    "lift_product",
    "mode_wavefunction",
    "n_particle_localized",
    "negativity",
    "overlap",
    "partial_transpose",
    "permute_factors",
    "ppt_classification",
    "projector",
    "reduced_spin_probe",
    "reduction_report",
    "schmidt",
    "subspace_state",
    "superposition_state",
    "trace_out_spatial",
    "von_neumann_entropy",
    "wavefunction",
]
