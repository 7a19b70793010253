"""spinsep: reduced spin states of spatially separated identical particles.

Builds symmetric or antisymmetric states of n particles with interleaved
spatial and spin degrees of freedom, extracts the spin-only reduced states
measured in spatial regions, and provides the diagnostics (entanglement
measures, symmetry classification, subalgebra commutation) needed to study
how spatial separation erases exchange statistics.
"""

from .algebra import BipartitionVerdict, bipartition_check, commutator_expansion, local_generator
from .embedding import EmbeddingPlan, embed_mixed, embed_pure, embedding_plan
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
    reduced_spin_closed_form,
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
    SubspaceState,
    SuperpositionTerm,
    ZeroStateError,
    n_particle_localized,
    subspace_state,
    superposition_state,
    two_particle_localized,
)
from .symmetry import (
    Parity,
    enumerate_sn,
    exchange_character,
    perm_sign,
    perm_unitary,
    symmetrizer,
)

__version__ = "0.1.0"

__all__ = [
    "BipartitionVerdict",
    "BuiltState",
    "EmbeddingPlan",
    "LocalizedFactor",
    "Parity",
    "RawReduced",
    "ReductionReport",
    "SchmidtData",
    "SpaceSpec",
    "SpatialRegion",
    "SubspaceKind",
    "SubspaceState",
    "SuperpositionTerm",
    "Wavefunction",
    "ZeroStateError",
    "bipartition_check",
    "classify_symmetry",
    "cluster_expectation",
    "commutator_expansion",
    "embed_mixed",
    "embed_pure",
    "embedding_plan",
    "enumerate_sn",
    "exchange_character",
    "kron",
    "lift_one_particle",
    "lift_product",
    "local_generator",
    "mode_wavefunction",
    "n_particle_localized",
    "negativity",
    "overlap",
    "partial_transpose",
    "perm_sign",
    "perm_unitary",
    "permute_factors",
    "ppt_classification",
    "projector",
    "reduced_spin_closed_form",
    "reduced_spin_probe",
    "reduction_report",
    "schmidt",
    "subspace_state",
    "superposition_state",
    "symmetrizer",
    "trace_out_spatial",
    "two_particle_localized",
    "von_neumann_entropy",
    "wavefunction",
]
