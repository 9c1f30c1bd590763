"""March test algorithms.

A march test is a sequence of march elements; each element walks all
cells in ascending or descending address order applying a fixed sequence
of read/write operations.  Complexity is quoted in operations per cell:
MATS+ is 5N, March C- is 10N, March B is 17N.  "As DRAM test programs
include a lot of waiting, DRAM test times are quite high" — the retention
component is modeled by :func:`retention_test_time_s` and by pauses
between elements.

Tests execute against a :class:`~repro.dft.faults.FaultyArray`, so
detection is measured, not asserted: March C- detects all unlinked
stuck-at, transition and inversion coupling faults; MATS+ misses
transition and coupling faults — the coverage/test-time trade Section 6
alludes to ("the test concept should take this cost-reduction potential
into account").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.dft.faults import FaultyArray


class Direction(enum.Enum):
    """Address order of a march element."""

    UP = "up"
    DOWN = "down"
    EITHER = "either"


@dataclass(frozen=True)
class MarchElement:
    """One march element, e.g. up(r0, w1).

    Attributes:
        direction: Address order.
        operations: Sequence of operations from {"r0","r1","w0","w1"}.
    """

    direction: Direction
    operations: tuple

    def __post_init__(self) -> None:
        if not self.operations:
            raise ConfigurationError("march element needs operations")
        for op in self.operations:
            if op not in ("r0", "r1", "w0", "w1"):
                raise ConfigurationError(f"unknown march operation {op!r}")

    @property
    def ops_per_cell(self) -> int:
        return len(self.operations)

    def __str__(self) -> str:
        arrow = {"up": "⇑", "down": "⇓", "either": "⇕"}[self.direction.value]
        return f"{arrow}({','.join(self.operations)})"


@dataclass(frozen=True)
class MarchTest:
    """A complete march algorithm.

    Attributes:
        name: Algorithm name.
        elements: March elements in order.
        pause_after_element: Index of the element after which a retention
            pause is inserted, or None (used by the retention variant).
    """

    name: str
    elements: tuple
    pause_after_element: int | None = None

    def __post_init__(self) -> None:
        if not self.elements:
            raise ConfigurationError("march test needs elements")
        if self.pause_after_element is not None and not (
            0 <= self.pause_after_element < len(self.elements)
        ):
            raise ConfigurationError("pause index out of range")

    @property
    def ops_per_cell(self) -> int:
        """The 'kN' complexity figure."""
        return sum(element.ops_per_cell for element in self.elements)

    def operation_count(self, cells: int) -> int:
        """Total tester operations for ``cells`` memory cells."""
        if cells < 1:
            raise ConfigurationError("cell count must be positive")
        return self.ops_per_cell * cells

    def run(
        self,
        array: FaultyArray,
        pause_s: float = 0.0,
    ) -> "MarchResult":
        """Execute the test against a faulty array.

        Returns a :class:`MarchResult` with the failing cells observed
        (cells where any read returned the unexpected value).  Each
        element is applied to the whole array at once by
        :meth:`FaultyArray.march_element`; the result, operation count
        and final array state equal :meth:`run_reference`'s.
        """
        failing: set = set()
        flagged = np.zeros((array.rows, array.cols), dtype=bool)
        for index, element in enumerate(self.elements):
            descending = element.direction is Direction.DOWN
            new = array.march_element(element.operations, descending)
            new &= ~flagged
            if new.any():
                flagged |= new
                # Insert in the order the per-cell loop first flags them
                # so the set iterates identically downstream.
                cells = np.argwhere(new).tolist()
                if descending:
                    cells.reverse()
                failing.update(map(tuple, cells))
            if self.pause_after_element == index and pause_s > 0:
                array.pause(pause_s)
        return MarchResult(
            test=self,
            failing_cells=failing,
            operations=self.operation_count(array.rows * array.cols),
        )

    def run_reference(
        self,
        array: FaultyArray,
        pause_s: float = 0.0,
    ) -> "MarchResult":
        """The per-cell loop :meth:`run` must match: one
        :meth:`FaultyArray.write` / :meth:`FaultyArray.read` call per
        cell per operation.  Kept as the differential oracle."""
        failing: set = set()
        operations = 0
        for index, element in enumerate(self.elements):
            coords = self._addresses(array, element.direction)
            for row, col in coords:
                for op in element.operations:
                    operations += 1
                    if op == "w0":
                        array.write(row, col, False)
                    elif op == "w1":
                        array.write(row, col, True)
                    elif op == "r0":
                        if array.read(row, col) is not False:
                            failing.add((row, col))
                    elif op == "r1":
                        if array.read(row, col) is not True:
                            failing.add((row, col))
            if self.pause_after_element == index and pause_s > 0:
                array.pause(pause_s)
        return MarchResult(
            test=self, failing_cells=failing, operations=operations
        )

    @staticmethod
    def _addresses(array: FaultyArray, direction: Direction):
        rows = range(array.rows)
        if direction is Direction.DOWN:
            rows = range(array.rows - 1, -1, -1)
        for row in rows:
            cols = range(array.cols)
            if direction is Direction.DOWN:
                cols = range(array.cols - 1, -1, -1)
            for col in cols:
                yield row, col


@dataclass(frozen=True)
class MarchResult:
    """Outcome of one march run.

    Attributes:
        test: The algorithm that ran.
        failing_cells: Cells observed to fail.
        operations: Tester operations executed.
    """

    test: MarchTest
    failing_cells: set
    operations: int

    def detected(self, ground_truth: set) -> float:
        """Fault coverage: fraction of truly faulty cells flagged."""
        if not ground_truth:
            return 1.0
        return len(self.failing_cells & ground_truth) / len(ground_truth)

    @property
    def passed(self) -> bool:
        return not self.failing_cells


_UP = Direction.UP
_DOWN = Direction.DOWN
_ANY = Direction.EITHER

#: MATS+: 5N.  Detects stuck-at faults only.
MATS_PLUS = MarchTest(
    name="MATS+",
    elements=(
        MarchElement(_ANY, ("w0",)),
        MarchElement(_UP, ("r0", "w1")),
        MarchElement(_DOWN, ("r1", "w0")),
    ),
)

#: March C-: 10N.  Detects stuck-at, transition, and coupling faults.
MARCH_C_MINUS = MarchTest(
    name="March C-",
    elements=(
        MarchElement(_ANY, ("w0",)),
        MarchElement(_UP, ("r0", "w1")),
        MarchElement(_UP, ("r1", "w0")),
        MarchElement(_DOWN, ("r0", "w1")),
        MarchElement(_DOWN, ("r1", "w0")),
        MarchElement(_ANY, ("r0",)),
    ),
)

#: March B: 17N.  Adds linked-fault coverage.
MARCH_B = MarchTest(
    name="March B",
    elements=(
        MarchElement(_ANY, ("w0",)),
        MarchElement(_UP, ("r0", "w1", "r1", "w0", "r0", "w1")),
        MarchElement(_UP, ("r1", "w0", "w1")),
        MarchElement(_DOWN, ("r1", "w0", "w1", "w0")),
        MarchElement(_DOWN, ("r0", "w1", "w0")),
    ),
)

#: March C- with a retention pause: write background, wait, read back.
MARCH_C_RETENTION = MarchTest(
    name="March C- + retention",
    elements=MARCH_C_MINUS.elements,
    pause_after_element=1,  # pause while the array holds the '1' background
)

#: Retention screen: 2N.  Write the '1' background, wait, read it back;
#: flags every cell that does not hold a 1 across the pause.
RETENTION_SCREEN = MarchTest(
    name="retention screen",
    elements=(
        MarchElement(_ANY, ("w1",)),
        MarchElement(_ANY, ("r1",)),
    ),
    pause_after_element=0,
)


def retention_test_time_s(
    n_pauses: int = 2, pause_s: float = 0.2
) -> float:
    """Pure waiting time of the retention portion of a test program.

    Two pauses (backgrounds of all-0 and all-1) of 100-500 ms each are
    typical; this waiting dominates DRAM test time and is independent of
    interface width — the reason parallelism alone cannot reduce DRAM
    test cost to logic-like levels.
    """
    if n_pauses < 0:
        raise ConfigurationError("pause count must be >= 0")
    if pause_s < 0:
        raise ConfigurationError("pause must be >= 0")
    return n_pauses * pause_s
