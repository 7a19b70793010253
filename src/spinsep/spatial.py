"""Finite-mode spatial model: regions as subsets of an orthonormal mode basis,
localized wavefunctions, and the diagonal projections they induce."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import as_vector, basis_vector

SUPPORT_TOL = 1e-14


@dataclass(frozen=True)
class SpaceSpec:
    """Dimensions of the model: spatial modes, spin levels, particle count."""

    num_modes: int
    spin_dim: int
    particles: int

    def __post_init__(self):
        for name in ("num_modes", "spin_dim", "particles"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")

    @property
    def one_particle_dim(self) -> int:
        return self.num_modes * self.spin_dim

    @property
    def total_dim(self) -> int:
        return self.one_particle_dim**self.particles


@dataclass(frozen=True)
class SpatialRegion:
    """A nonempty subset of spatial mode indices."""

    modes: frozenset[int] = field()

    def __init__(self, modes):
        mode_set = frozenset(int(m) for m in modes)
        if not mode_set:
            raise ValueError("a spatial region must contain at least one mode")
        if any(m < 0 for m in mode_set):
            raise ValueError("mode indices must be non-negative")
        object.__setattr__(self, "modes", mode_set)

    def require_within(self, num_modes: int) -> None:
        if max(self.modes) >= num_modes:
            raise ValueError(
                f"region modes {sorted(self.modes)} exceed the {num_modes}-mode space"
            )

    def sorted_modes(self) -> list[int]:
        return sorted(self.modes)

    def disjoint_from(self, other: "SpatialRegion") -> bool:
        return not (self.modes & other.modes)


def projector(region: SpatialRegion, num_modes: int) -> np.ndarray:
    """Diagonal 0/1 projection onto the region's modes."""
    region.require_within(num_modes)
    diag = np.zeros(num_modes, dtype=complex)
    for m in region.modes:
        diag[m] = 1.0
    return np.diag(diag)


@dataclass(frozen=True, eq=False)
class Wavefunction:
    """A unit-norm spatial amplitude vector, optionally pinned to a region."""

    amplitudes: np.ndarray
    support: SpatialRegion | None = None

    def __post_init__(self):
        amps = as_vector(self.amplitudes)
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError("wavefunction must have unit norm")
        if self.support is not None:
            self.support.require_within(amps.size)
            outside = [m for m in range(amps.size) if m not in self.support.modes]
            if outside and float(np.max(np.abs(amps[outside]))) > SUPPORT_TOL:
                raise ValueError("wavefunction leaks outside its declared support")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def num_modes(self) -> int:
        return self.amplitudes.size


def wavefunction(amplitudes, support: SpatialRegion | None = None) -> Wavefunction:
    """Build a Wavefunction, normalizing the amplitudes first."""
    amps = as_vector(amplitudes)
    norm = float(np.linalg.norm(amps))
    if norm < 1e-12:
        raise ValueError("cannot build a wavefunction from a zero amplitude vector")
    return Wavefunction(amps / norm, support)


def mode_wavefunction(mode: int, num_modes: int) -> Wavefunction:
    """The basis wavefunction concentrated on a single mode."""
    if not 0 <= mode < num_modes:
        raise ValueError(f"mode {mode} out of range for a {num_modes}-mode space")
    return Wavefunction(basis_vector(num_modes, mode), SpatialRegion([mode]))

