"""The pre-fuse / fuse / post-fuse production test flow.

"As DRAMs include redundancy, the order of testing is (1) pre-fuse
testing, (2) fuse blowing, (3) post-fuse testing.  There are thus two
wafer-level tests." (Section 6.)

:class:`TestFlow` runs the whole loop on simulated dies: inject defects,
pre-fuse march test, repair allocation against the spare budget, fuse
(apply the repair), post-fuse march test, and classify each die as good /
repaired / scrap.  Quality-target relaxation ("occasional soft problems
... are much more acceptable" for graphics than for program storage) is
modeled by optionally waiving retention-only failures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.dft.faults import FaultyArray, inject_random_faults
from repro.dft.march import MARCH_C_MINUS, RETENTION_SCREEN, MarchTest
from repro.dft.redundancy import RepairPlan, allocate_spares


@dataclass(frozen=True)
class FlowResult:
    """Aggregate outcome of a production lot.

    Attributes:
        dies: Dies processed.
        perfect: Dies with no pre-fuse failures.
        repaired: Dies fixed by redundancy.
        scrap: Unrepairable dies.
        waived: Dies shipped with waived retention-only failures (relaxed
            quality target).
        spares_used_total: Spare lines burned across the lot.
    """

    dies: int
    perfect: int
    repaired: int
    scrap: int
    waived: int
    spares_used_total: int

    @property
    def yield_pre_repair(self) -> float:
        return self.perfect / self.dies if self.dies else 0.0

    @property
    def yield_post_repair(self) -> float:
        good = self.perfect + self.repaired + self.waived
        return good / self.dies if self.dies else 0.0

    @property
    def repair_gain(self) -> float:
        """Post-repair / pre-repair yield ratio."""
        if self.yield_pre_repair == 0:
            return float("inf") if self.yield_post_repair > 0 else 1.0
        return self.yield_post_repair / self.yield_pre_repair


@dataclass(frozen=True)
class TestFlow:
    """Pre-fuse -> repair -> fuse -> post-fuse flow over a simulated lot.

    Attributes:
        rows: Array rows per die (model scale, not production scale).
        cols: Array columns per die.
        spare_rows: Spare rows per die.
        spare_cols: Spare columns per die.
        test: March algorithm used pre- and post-fuse.
        mean_faults_per_die: Poisson mean of injected cell faults.
        line_fault_rate: Probability a die carries a full line failure.
        waive_retention_only: Relaxed quality target: ship dies that
            pass the march and fail only the retention screen
            (graphics-grade parts).
        retention_pause_s: Pause of the retention screen that follows
            the march.
    """

    rows: int = 64
    cols: int = 64
    spare_rows: int = 2
    spare_cols: int = 2
    test: MarchTest = MARCH_C_MINUS
    mean_faults_per_die: float = 1.2
    line_fault_rate: float = 0.05
    waive_retention_only: bool = False
    retention_pause_s: float = 0.2

    #: Not a pytest test class despite the Test* name.
    __test__ = False

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ConfigurationError("array dimensions must be positive")
        if self.spare_rows < 0 or self.spare_cols < 0:
            raise ConfigurationError("spare budgets must be >= 0")
        if self.mean_faults_per_die < 0:
            raise ConfigurationError("fault mean must be >= 0")
        if not 0 <= self.line_fault_rate <= 1:
            raise ConfigurationError("line fault rate must be in [0, 1]")

    def _build_die(self, rng: np.random.Generator, seed: int) -> FaultyArray:
        n_faults = int(rng.poisson(self.mean_faults_per_die))
        n_lines = 1 if rng.random() < self.line_fault_rate else 0
        return inject_random_faults(
            rows=self.rows,
            cols=self.cols,
            n_cell_faults=n_faults,
            n_line_faults=n_lines,
            seed=seed,
        )

    def process_die(self, array: FaultyArray) -> tuple:
        """Run one die through the flow.

        Returns ``(category, plan)`` where category is one of
        ``"perfect"``, ``"repaired"``, ``"waived"``, ``"scrap"``.
        """
        # (1) Pre-fuse test: the march, then a retention screen at
        # ``retention_pause_s`` over the whole array.
        pre = self.test.run(array)
        retention = RETENTION_SCREEN.run(array, pause_s=self.retention_pause_s)
        failing = pre.failing_cells | retention.failing_cells
        if not failing:
            return "perfect", None
        # Relaxed quality target: waive dies only the retention screen
        # flagged.
        if self.waive_retention_only and pre.passed:
            return "waived", None
        # (2) Repair allocation + fuse blowing.  A plan is ``repaired``
        # only when its spares cover every failing cell, so (3) the
        # post-fuse test passes exactly for repaired dies.
        plan = allocate_spares(
            failing, self.spare_rows, self.spare_cols
        )
        if not plan.repaired:
            return "scrap", plan
        return "repaired", plan

    def run_lot(self, dies: int, seed: int = 0) -> FlowResult:
        """Process a lot of simulated dies."""
        if dies < 1:
            raise ConfigurationError("lot must contain dies")
        rng = np.random.default_rng(seed)
        perfect = repaired = scrap = waived = spares = 0
        for index in range(dies):
            array = self._build_die(rng, seed=seed * 100_003 + index)
            category, plan = self.process_die(array)
            if category == "perfect":
                perfect += 1
            elif category == "repaired":
                repaired += 1
                assert plan is not None
                spares += plan.spares_used
            elif category == "waived":
                waived += 1
            else:
                scrap += 1
        return FlowResult(
            dies=dies,
            perfect=perfect,
            repaired=repaired,
            scrap=scrap,
            waived=waived,
            spares_used_total=spares,
        )
