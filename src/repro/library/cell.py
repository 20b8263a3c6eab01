"""Standard-cell and cell-library data model.

Cells carry everything the mapper, placer and timer consume:

* one or more read-once pattern trees over the base functions,
* the logic function (derived from the first pattern),
* area in µm² (the mapper's AREA term and the placer's footprint),
* a linear delay model: ``delay = intrinsic + drive_resistance * load``
  (ns, kΩ, pF), plus per-input-pin capacitance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..errors import LibraryError
from ..network.sop import Sop
from .patterns import PatternNode, PatternTable, pattern_to_sop


@dataclass(frozen=True)
class LibCell:
    """One library cell."""

    name: str
    patterns: Tuple[PatternNode, ...]
    area: float
    intrinsic_delay: float
    drive_resistance: float
    pin_caps: Dict[str, float]
    output: str = "Y"

    def __post_init__(self) -> None:  # noqa: D105
        if not self.patterns:
            raise LibraryError(f"cell {self.name!r} has no pattern")
        for pattern in self.patterns:
            pattern.check()
        pins = sorted(self.patterns[0].leaves())
        for pattern in self.patterns[1:]:
            if sorted(pattern.leaves()) != pins:
                raise LibraryError(
                    f"cell {self.name!r}: patterns disagree on pin set")
            if pattern_to_sop(pattern) != self.function:
                raise LibraryError(
                    f"cell {self.name!r}: patterns disagree on function")
        missing = [p for p in pins if p not in self.pin_caps]
        if missing:
            raise LibraryError(
                f"cell {self.name!r}: missing pin capacitance for {missing}")
        if self.area <= 0:
            raise LibraryError(f"cell {self.name!r}: non-positive area")

    @property
    def function(self) -> Sop:
        """Logic function over formal pin names (from the first pattern)."""
        return pattern_to_sop(self.patterns[0])

    @property
    def input_pins(self) -> List[str]:
        """Sorted formal input pin names."""
        return sorted(self.patterns[0].leaves())

    @property
    def num_inputs(self) -> int:
        """Input pin count."""
        return len(self.patterns[0].leaves())

    def input_cap(self, pin: str) -> float:
        """Capacitance (pF) of one input pin."""
        return self.pin_caps[pin]

    def delay(self, load: float) -> float:
        """Pin-to-output delay (ns) for the given load (pF)."""
        return self.intrinsic_delay + self.drive_resistance * load

    def __repr__(self) -> str:
        return f"LibCell({self.name}, area={self.area}, pins={self.input_pins})"


class CellLibrary:
    """A named collection of :class:`LibCell` objects.

    ``pattern_table`` is every cell's patterns compiled once into the
    interned :class:`~repro.library.patterns.PatternTable` (cells in
    name order) that the matcher enumerates.
    """

    def __init__(self, name: str, cells: Sequence[LibCell],
                 row_height: float = 5.2):  # noqa: D107
        self.name = name
        self.row_height = row_height
        self._cells: Dict[str, LibCell] = {}
        for cell in cells:
            if cell.name in self._cells:
                raise LibraryError(f"duplicate cell name {cell.name!r}")
            self._cells[cell.name] = cell
        if not self._cells:
            raise LibraryError("library has no cells")
        self._inverter = self._find_inverter()
        self._base_nand = self._find_base_nand()
        self.pattern_table = PatternTable(
            (cell, cell.patterns) for cell in self.cells())

    def _find_inverter(self) -> LibCell:
        candidates = [c for c in self._cells.values()
                      if c.num_inputs == 1 and c.patterns[0].num_gates() == 1]
        if not candidates:
            raise LibraryError("library has no inverter cell")
        return min(candidates, key=lambda c: (c.area, c.name))

    def _find_base_nand(self) -> LibCell:
        for cell in sorted(self._cells.values(), key=lambda c: (c.area, c.name)):
            pat = cell.patterns[0]
            if pat.kind == "nand2" and pat.num_gates() == 1:
                return cell
        raise LibraryError("library has no two-input NAND cell")

    def cell(self, name: str) -> LibCell:
        """Look up a cell by name."""
        try:
            return self._cells[name]
        except KeyError:
            raise LibraryError(f"unknown cell {name!r}") from None

    def cells(self) -> List[LibCell]:
        """All cells, sorted by name."""
        return [self._cells[n] for n in sorted(self._cells)]

    def cell_names(self) -> List[str]:
        """Sorted cell names."""
        return sorted(self._cells)

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def inverter(self) -> LibCell:
        """The smallest single-inverter cell (used for phase fixes)."""
        return self._inverter

    @property
    def base_nand(self) -> LibCell:
        """The smallest plain NAND2 cell (fallback cover)."""
        return self._base_nand

    def cell_width(self, name: str) -> float:
        """Placement footprint width (µm) of a cell: area / row height."""
        return self.cell(name).area / self.row_height

    def max_pattern_depth(self) -> int:
        """Deepest pattern in the library (bounds matcher recursion)."""
        return max(p.depth() for c in self._cells.values() for p in c.patterns)

    def __repr__(self) -> str:
        return f"CellLibrary({self.name!r}, {len(self)} cells)"
