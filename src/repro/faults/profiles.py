"""Vulnerable-cell profiles (``C_rh`` and ``C_rp`` in Section VI).

A :class:`BitFlipProfile` is the artifact a real attacker obtains from the
profiling stage: the set of DRAM cell locations where the chosen mechanism
can induce a flip within the attacker's budget, together with the direction
each cell flips.  The DRAM-profile-aware attack (Algorithm 3) intersects the
profile with the memory region holding the victim model's weight bits.

Profiles can be produced two ways:

* :class:`~repro.faults.profiler.ChipProfiler` runs the actual fault
  injection algorithms against the simulated chip — faithful but bounded by
  the simulated geometry;
* :meth:`BitFlipProfile.from_vulnerability_model` thresholds the statistical
  cell model directly — equivalent by construction and cheap enough to build
  chip-scale profiles for the DNN experiments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.dram.cells import CellFlip
from repro.dram.geometry import DramGeometry
from repro.dram.vulnerability import BankVulnerabilityMap, CellVulnerabilityModel, FlipDirection
from repro.utils.rng import derive_rng
from repro.utils.validation import check_positive


def reachable_cells(bank_map: BankVulnerabilityMap, mechanism: str, budget: float) -> np.ndarray:
    """Mask of the bank's ``mechanism`` cells whose threshold is within ``budget``.

    These are the cells an idealised exhaustive profiling campaign finds
    in that bank (see :meth:`BitFlipProfile.from_vulnerability_model`).
    """
    check_positive("budget", budget)
    return bank_map.arrays_for(mechanism)[2] <= budget


@dataclass
class BitFlipProfile:
    """Sparse description of the cells vulnerable to one mechanism.

    Attributes
    ----------
    mechanism:
        ``"rowhammer"`` or ``"rowpress"``.
    flat_indices:
        Flat bit addresses of the vulnerable cells (see
        :class:`~repro.dram.address.AddressMapper` for the layout).
    directions:
        Per-cell flip direction encoded as 1 for ``1->0`` and 0 for
        ``0->1``.
    capacity_bits:
        Size of the address space the profile was taken over; used to
        compute densities and to validate mappings.
    budget:
        The attack budget used during profiling (hammer counts for
        RowHammer, open-window cycles for RowPress); informational.
    """

    mechanism: str
    flat_indices: np.ndarray
    directions: np.ndarray
    capacity_bits: int
    budget: float = 0.0

    def __post_init__(self) -> None:
        self.flat_indices = np.asarray(self.flat_indices, dtype=np.int64)
        self.directions = np.asarray(self.directions, dtype=np.int8)
        if self.flat_indices.shape != self.directions.shape:
            raise ValueError(
                "flat_indices and directions must have the same shape, got "
                f"{self.flat_indices.shape} vs {self.directions.shape}"
            )
        if self.flat_indices.size:
            if self.flat_indices.min() < 0 or self.flat_indices.max() >= self.capacity_bits:
                raise ValueError("flat indices out of range for the declared capacity")
            if self.directions.min() < 0 or self.directions.max() > 1:
                raise ValueError("directions must be 1 (1->0) or 0 (0->1)")
            if np.all(self.flat_indices[1:] > self.flat_indices[:-1]):
                return  # already sorted and duplicate-free
            order = np.argsort(self.flat_indices, kind="stable")
            self.flat_indices = self.flat_indices[order]
            self.directions = self.directions[order]
            unique, first = np.unique(self.flat_indices, return_index=True)
            self.flat_indices = unique
            self.directions = self.directions[first]

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.flat_indices.size)

    def __contains__(self, flat_index: int) -> bool:
        position = np.searchsorted(self.flat_indices, flat_index)
        return bool(
            position < self.flat_indices.size and self.flat_indices[position] == flat_index
        )

    @property
    def density(self) -> float:
        """Fraction of the address space that is vulnerable."""
        if self.capacity_bits == 0:
            return 0.0
        return len(self) / self.capacity_bits

    def direction_of(self, flat_index: int) -> FlipDirection:
        """Preferred flip direction of a profiled cell."""
        position = np.searchsorted(self.flat_indices, flat_index)
        if position >= self.flat_indices.size or self.flat_indices[position] != flat_index:
            raise KeyError(f"flat index {flat_index} is not in the profile")
        return (
            FlipDirection.ONE_TO_ZERO
            if self.directions[position] == 1
            else FlipDirection.ZERO_TO_ONE
        )

    def direction_counts(self) -> Dict[str, int]:
        """Number of cells per flip direction."""
        one_to_zero = int(np.count_nonzero(self.directions == 1))
        return {"1->0": one_to_zero, "0->1": len(self) - one_to_zero}

    # ------------------------------------------------------------------
    # Set operations
    # ------------------------------------------------------------------
    def overlap(self, other: "BitFlipProfile") -> np.ndarray:
        """Flat indices vulnerable under both profiles."""
        return np.intersect1d(self.flat_indices, other.flat_indices, assume_unique=True)

    def overlap_fraction(self, other: "BitFlipProfile") -> float:
        """Jaccard-style overlap: |intersection| / |union|."""
        intersection = self.overlap(other).size
        union = len(self) + len(other) - intersection
        return intersection / union if union else 0.0

    def restricted_to(self, flat_indices: Sequence[int]) -> "BitFlipProfile":
        """Profile restricted to a set of addresses (e.g. the model's region)."""
        wanted = np.asarray(sorted(set(int(i) for i in flat_indices)), dtype=np.int64)
        mask = np.isin(self.flat_indices, wanted, assume_unique=True)
        return BitFlipProfile(
            mechanism=self.mechanism,
            flat_indices=self.flat_indices[mask],
            directions=self.directions[mask],
            capacity_bits=self.capacity_bits,
            budget=self.budget,
        )

    def sample(self, count: int, seed: Optional[int] = None) -> "BitFlipProfile":
        """Random subset of ``count`` cells (used for density ablations)."""
        check_positive("count", count)
        if count >= len(self):
            return self
        rng = derive_rng(seed)
        chosen = np.sort(rng.choice(len(self), size=count, replace=False))
        return BitFlipProfile(
            mechanism=self.mechanism,
            flat_indices=self.flat_indices[chosen],
            directions=self.directions[chosen],
            capacity_bits=self.capacity_bits,
            budget=self.budget,
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_flips(
        cls,
        mechanism: str,
        flips: Iterable[CellFlip],
        geometry: DramGeometry,
        budget: float = 0.0,
    ) -> "BitFlipProfile":
        """Build a profile from observed :class:`CellFlip` records."""
        from repro.dram.address import AddressMapper, CellAddress

        mapper = AddressMapper(geometry)
        flats: List[int] = []
        directions: List[int] = []
        for flip in flips:
            flats.append(mapper.to_flat(CellAddress(flip.bank, flip.row, flip.col)))
            directions.append(1 if flip.before == 1 else 0)
        return cls(
            mechanism=mechanism,
            flat_indices=np.asarray(flats, dtype=np.int64),
            directions=np.asarray(directions, dtype=np.int8),
            capacity_bits=geometry.total_cells,
            budget=budget,
        )

    @classmethod
    def from_cells(
        cls,
        mechanism: str,
        banks: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        before: np.ndarray,
        geometry: DramGeometry,
        budget: float = 0.0,
    ) -> "BitFlipProfile":
        """Array form of :meth:`from_flips`: one observed flip per int64 entry."""
        # Same layout as AddressMapper.to_flat, vectorised over all flips.
        flats = (rows * geometry.num_banks + banks) * geometry.cols_per_row + cols
        return cls(
            mechanism=mechanism,
            flat_indices=flats,
            directions=before == 1,
            capacity_bits=geometry.total_cells,
            budget=budget,
        )

    @classmethod
    def from_vulnerability_model(
        cls,
        model: CellVulnerabilityModel,
        mechanism: str,
        budget: float,
    ) -> "BitFlipProfile":
        """Threshold the statistical cell model directly.

        A cell appears in the profile when its threshold is within
        ``budget`` (hammer counts for ``"rowhammer"``, open-window cycles
        for ``"rowpress"``).  This is what an idealised exhaustive profiling
        campaign would discover.
        """
        geometry = model.geometry
        row_chunks: List[np.ndarray] = []
        flat_chunks: List[np.ndarray] = []
        direction_chunks: List[np.ndarray] = []
        for bank_map in model.bank_maps():
            rows, cols, _, dirs = bank_map.arrays_for(mechanism)
            reachable = reachable_cells(bank_map, mechanism, budget)
            rows = rows[reachable]
            row_chunks.append(rows)
            # Same layout as AddressMapper.to_flat, vectorised over all cells.
            row_major = rows * geometry.num_banks + bank_map.bank
            flat_chunks.append(row_major * geometry.cols_per_row + cols[reachable])
            direction_chunks.append(dirs[reachable])
        # Each bank lists its cells by ascending (row, col) and a flat index
        # orders cells by (row, bank, col), so a stable sort of the banks'
        # concatenated rows (one presorted run per bank, merged by timsort)
        # puts the flat indices in ascending order.
        order = np.argsort(np.concatenate(row_chunks), kind="stable")
        flats = np.concatenate(flat_chunks)[order]
        directions = np.concatenate(direction_chunks)[order]
        return cls(
            mechanism=mechanism,
            flat_indices=flats,
            directions=directions,
            capacity_bits=geometry.total_cells,
            budget=budget,
        )

    @classmethod
    def synthetic(
        cls,
        mechanism: str,
        capacity_bits: int,
        density: float,
        one_to_zero_probability: float,
        seed: Optional[int] = None,
        budget: float = 0.0,
    ) -> "BitFlipProfile":
        """Directly sample a synthetic profile of a given density.

        Used for ablation studies (profile-density sweeps) and for building
        profiles over address spaces larger than the simulated chip.
        """
        if not 0.0 <= density <= 1.0:
            raise ValueError(f"density must be within [0, 1], got {density}")
        rng = derive_rng(seed)
        count = int(round(capacity_bits * density))
        count = min(count, capacity_bits)
        flats = np.sort(rng.choice(capacity_bits, size=count, replace=False)) if count else np.empty(0, dtype=np.int64)
        directions = (rng.random(count) < one_to_zero_probability).astype(np.int8)
        return cls(
            mechanism=mechanism,
            flat_indices=flats,
            directions=directions,
            capacity_bits=capacity_bits,
            budget=budget,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "mechanism": self.mechanism,
            "capacity_bits": int(self.capacity_bits),
            "budget": float(self.budget),
            "flat_indices": self.flat_indices.tolist(),
            "directions": self.directions.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BitFlipProfile":
        """Inverse of :meth:`to_dict`."""
        return cls(
            mechanism=payload["mechanism"],
            flat_indices=np.asarray(payload["flat_indices"], dtype=np.int64),
            directions=np.asarray(payload["directions"], dtype=np.int8),
            capacity_bits=int(payload["capacity_bits"]),
            budget=float(payload.get("budget", 0.0)),
        )

    def save(self, path: Union[str, Path]) -> None:
        """Write the profile to a JSON file."""
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "BitFlipProfile":
        """Read a profile previously written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass
class ProfilePair:
    """The two profiles of one chip, plus the comparison statistics of Fig. 4."""

    rowhammer: BitFlipProfile
    rowpress: BitFlipProfile

    def statistics(self) -> Dict[str, float]:
        """Counts, densities, ratio and overlap — the Fig. 4 quantities."""
        overlap = self.rowhammer.overlap(self.rowpress).size
        union = len(self.rowhammer) + len(self.rowpress) - overlap
        return {
            "rh_cells": float(len(self.rowhammer)),
            "rp_cells": float(len(self.rowpress)),
            "rh_density": self.rowhammer.density,
            "rp_density": self.rowpress.density,
            "rp_to_rh_ratio": (
                len(self.rowpress) / len(self.rowhammer) if len(self.rowhammer) else float("nan")
            ),
            "overlap_cells": float(overlap),
            "overlap_fraction_of_union": overlap / union if union else 0.0,
        }

    def profile_for(self, mechanism: str) -> BitFlipProfile:
        """Select a profile by mechanism name."""
        if mechanism == "rowhammer":
            return self.rowhammer
        if mechanism == "rowpress":
            return self.rowpress
        raise ValueError(f"unknown mechanism {mechanism!r}")
