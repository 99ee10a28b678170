"""The simulated DDR4 chip: a collection of banks plus timing metadata.

:class:`DramChip` is the object the fault injectors, the profiler and the
weight-placement code all share.  It lazily constructs banks (and their
vulnerability maps) on first access so that experiments touching only a few
banks stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.dram.address import AddressMapper, CellAddress
from repro.dram.bank import DramBank
from repro.dram.cells import CellFlip
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimings
from repro.dram.vulnerability import CellVulnerabilityModel, VulnerabilityParameters
from repro.utils.validation import check_engine


@dataclass(frozen=True)
class ChipInfo:
    """Metadata describing the modelled part (mirrors Section VII-A)."""

    manufacturer: str = "SimCorp"
    density_gib: int = 16
    die_revision: str = "B"
    organisation: str = "x8"
    speed_grade: str = "DDR4-2400"


class DramChip:
    """A behavioural DDR4 chip assembled from :class:`DramBank` objects."""

    def __init__(
        self,
        geometry: Optional[DramGeometry] = None,
        timings: Optional[DramTimings] = None,
        vulnerability_parameters: Optional[VulnerabilityParameters] = None,
        seed: int = 0,
        info: Optional[ChipInfo] = None,
        engine: str = "compiled",
    ):
        self.geometry = geometry or DramGeometry()
        self.timings = timings or DramTimings()
        self.seed = seed
        self.info = info or ChipInfo()
        #: Flip-engine implementation handed to every bank ("compiled" or
        #: the loop "reference" kept for golden-equivalence testing).
        check_engine(engine)
        self.engine = engine
        self.vulnerability_model = CellVulnerabilityModel(
            self.geometry, vulnerability_parameters, seed=seed
        )
        self.address_mapper = AddressMapper(self.geometry)
        self._banks: Dict[int, DramBank] = {}

    @classmethod
    def from_vulnerability_model(
        cls,
        model: CellVulnerabilityModel,
        timings: Optional[DramTimings] = None,
        engine: str = "compiled",
    ) -> "DramChip":
        """A fresh chip whose banks read ``model``'s already-sampled maps.

        The chip equals ``DramChip(model.geometry, timings,
        model.parameters, model.seed, engine=engine)``: the model is seeded
        per bank, so both see the same vulnerable cells (see
        :meth:`reset`), but this one samples nothing the model already
        holds.  Bank data and accumulators are the new chip's own.
        """
        chip = cls(model.geometry, timings, model.parameters, model.seed, engine=engine)
        chip.vulnerability_model = model
        return chip

    # ------------------------------------------------------------------
    # Bank access
    # ------------------------------------------------------------------
    def bank(self, index: int) -> DramBank:
        """Return (lazily constructing) the bank at ``index``."""
        self.geometry.validate_bank(index)
        if index not in self._banks:
            self._banks[index] = DramBank(
                index=index,
                geometry=self.geometry,
                vulnerability=self.vulnerability_model.bank_map(index),
                engine=self.engine,
            )
        return self._banks[index]

    @property
    def instantiated_banks(self) -> List[int]:
        """Indices of banks that have been touched so far."""
        return sorted(self._banks)

    # ------------------------------------------------------------------
    # Data access by cell address or flat bit index
    # ------------------------------------------------------------------
    def write_row(self, bank: int, row: int, bits: np.ndarray) -> None:
        """Write a full row of bits."""
        self.bank(bank).write_row(row, bits)

    def read_row(self, bank: int, row: int) -> np.ndarray:
        """Read a full row of bits."""
        return self.bank(bank).read_row(row)

    def write_bit(self, address: CellAddress, value: int) -> None:
        """Write a single bit cell."""
        self.bank(address.bank).write_bit(address.row, address.col, value)

    def read_bit(self, address: CellAddress) -> int:
        """Read a single bit cell."""
        return self.bank(address.bank).read_bit(address.row, address.col)

    def write_bits_flat(self, start_bit: int, bits: np.ndarray) -> None:
        """Write a contiguous flat bit range (used to deploy model weights)."""
        bits = np.asarray(bits).astype(np.uint8).ravel()
        for offset, value in enumerate(bits):
            address = self.address_mapper.to_cell(start_bit + offset)
            self.write_bit(address, int(value))

    def read_bits_flat(self, start_bit: int, num_bits: int) -> np.ndarray:
        """Read a contiguous flat bit range back from the chip."""
        out = np.zeros(num_bits, dtype=np.uint8)
        for offset in range(num_bits):
            address = self.address_mapper.to_cell(start_bit + offset)
            out[offset] = self.read_bit(address)
        return out

    # ------------------------------------------------------------------
    # Disturbance entry points (used by the injectors via the controller)
    # ------------------------------------------------------------------
    def hammer(self, bank: int, aggressor_rows, hammer_count: int) -> List[CellFlip]:
        """Apply a RowHammer disturbance to the neighbours of the aggressors."""
        return self.bank(bank).hammer(aggressor_rows, hammer_count)

    def press(self, bank: int, row: int, open_cycles: int) -> List[CellFlip]:
        """Apply a RowPress disturbance around an open row."""
        return self.bank(bank).press(row, open_cycles)

    def press_many(self, bank: int, rows, open_cycles: int) -> List[CellFlip]:
        """Apply a RowPress disturbance around a whole set of open rows."""
        return self.bank(bank).press_many(rows, open_cycles)

    def refresh_row(self, bank: int, row: int) -> None:
        """Refresh a single row (used for NRR)."""
        self.bank(bank).refresh_row(row)

    def refresh_all(self) -> None:
        """Refresh every instantiated bank (periodic REF)."""
        for bank in self._banks.values():
            bank.refresh_all()

    def reset(self) -> None:
        """Drop all bank state (data and accumulators).

        The vulnerability model is seeded per-bank, so after a reset the same
        cells are vulnerable again — exactly like power-cycling a real chip.
        """
        self._banks.clear()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def vulnerability_statistics(self) -> Dict[str, float]:
        """Chip-wide vulnerable-cell statistics (Fig. 4 numbers)."""
        return self.vulnerability_model.chip_statistics()

    def describe(self) -> str:
        """One-line human-readable description of the modelled part."""
        return (
            f"{self.info.manufacturer} {self.info.density_gib}Gb "
            f"{self.info.organisation} {self.info.speed_grade} "
            f"(die rev {self.info.die_revision}); simulated geometry: "
            f"{self.geometry.num_banks} banks x {self.geometry.rows_per_bank} rows "
            f"x {self.geometry.cols_per_row} cols"
        )
