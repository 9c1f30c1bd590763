"""Tests for repro.dft.bist, test_cost, and flow (E9)."""

import pytest

from repro.dft.bist import BISTController
from repro.dft.faults import Fault, FaultKind, FaultyArray
from repro.dft.flow import TestFlow
from repro.dft.march import MARCH_C_MINUS
from repro.dft.test_cost import (
    LOGIC_TESTER,
    MEMORY_TESTER,
    TestCostModel,
    TesterSpec,
)
from repro.errors import ConfigurationError
from repro.units import MBIT


class TestBISTController:
    def test_gate_count_scales_with_width(self):
        narrow = BISTController(internal_width_bits=64)
        wide = BISTController(internal_width_bits=512)
        assert wide.gate_count > narrow.gate_count

    def test_bist_is_small_logic(self):
        # "A small, synthesizable BIST controller": tens of kgates at
        # most, even at full width.
        assert BISTController(internal_width_bits=512).gate_count < 30e3

    def test_march_time_inverse_in_width(self):
        test = MARCH_C_MINUS
        narrow = BISTController(internal_width_bits=32)
        wide = BISTController(internal_width_bits=256)
        assert narrow.march_time_s(test, 16 * MBIT) == pytest.approx(
            8 * wide.march_time_s(test, 16 * MBIT)
        )

    def test_speedup_vs_external(self):
        bist = BISTController(internal_width_bits=256, clock_hz=143e6)
        speedup = bist.speedup_vs_external(16, 50e6)
        assert speedup == pytest.approx(256 * 143e6 / (16 * 50e6))
        assert speedup > 40

    def test_bad_width(self):
        with pytest.raises(ConfigurationError):
            BISTController(internal_width_bits=0)


class TestTestCostModel:
    def test_bist_cuts_pattern_time(self):
        external = TestCostModel(tester=LOGIC_TESTER)
        with_bist = TestCostModel(
            tester=LOGIC_TESTER, bist=BISTController()
        )
        slow = external.march_time_s(MARCH_C_MINUS, 64 * MBIT)
        fast = with_bist.march_time_s(MARCH_C_MINUS, 64 * MBIT)
        assert fast < slow / 10

    def test_waiting_dominates_with_bist(self):
        # Parallelism saturates: with BIST the retention waits dominate,
        # which caps further gains (Section 6's structure).
        model = TestCostModel(tester=LOGIC_TESTER, bist=BISTController())
        assert model.waiting_fraction(MARCH_C_MINUS, 64 * MBIT) > 0.8

    def test_memory_tester_multi_site_cheaper_per_die(self):
        memory = TestCostModel(tester=MEMORY_TESTER)
        logic = TestCostModel(tester=LOGIC_TESTER)
        assert memory.cost_per_die(
            MARCH_C_MINUS, 16 * MBIT
        ) < logic.cost_per_die(MARCH_C_MINUS, 16 * MBIT)

    def test_bist_enables_logic_tester(self):
        # The paper's business-model point: with BIST, a logic tester
        # tests the memory at a fraction of the raw cost — bounded below
        # by the width-independent retention waits.
        bist_on_logic = TestCostModel(
            tester=LOGIC_TESTER, bist=BISTController()
        )
        raw_on_logic = TestCostModel(tester=LOGIC_TESTER)
        assert bist_on_logic.cost_per_die(
            MARCH_C_MINUS, 64 * MBIT
        ) < 0.4 * raw_on_logic.cost_per_die(MARCH_C_MINUS, 64 * MBIT)

    def test_cost_scales_with_memory(self):
        model = TestCostModel(tester=MEMORY_TESTER)
        small = model.cost_per_die(MARCH_C_MINUS, 4 * MBIT)
        large = model.cost_per_die(MARCH_C_MINUS, 64 * MBIT)
        assert large > small

    def test_tester_validation(self):
        with pytest.raises(ConfigurationError):
            TesterSpec(
                name="bad",
                cost_per_hour=0.0,
                interface_width_bits=16,
                rate_hz=50e6,
            )


class TestProductionFlow:
    def test_repair_improves_yield(self):
        flow = TestFlow(mean_faults_per_die=1.2)
        result = flow.run_lot(300, seed=7)
        assert result.yield_post_repair > result.yield_pre_repair
        assert result.repair_gain > 1.5

    def test_no_spares_no_repair(self):
        flow = TestFlow(spare_rows=0, spare_cols=0)
        result = flow.run_lot(200, seed=7)
        assert result.repaired == 0
        assert result.yield_post_repair == pytest.approx(
            result.yield_pre_repair
        )

    def test_more_spares_higher_yield(self):
        lean = TestFlow(spare_rows=1, spare_cols=1).run_lot(300, seed=9)
        rich = TestFlow(spare_rows=4, spare_cols=4).run_lot(300, seed=9)
        assert rich.yield_post_repair >= lean.yield_post_repair

    def test_waiving_retention_raises_yield(self):
        # Graphics-grade quality target (Section 6): retention-only
        # failures are acceptable -> higher effective yield.
        strict = TestFlow(waive_retention_only=False).run_lot(300, seed=11)
        relaxed = TestFlow(waive_retention_only=True).run_lot(300, seed=11)
        assert relaxed.yield_post_repair >= strict.yield_post_repair
        assert relaxed.waived > 0

    def test_categories_partition_lot(self):
        result = TestFlow().run_lot(100, seed=3)
        assert (
            result.perfect + result.repaired + result.scrap + result.waived
            == result.dies
        )

    def test_bad_lot(self):
        with pytest.raises(ConfigurationError):
            TestFlow().run_lot(0)

    @pytest.mark.parametrize(
        "waive, category", [(False, "repaired"), (True, "waived")]
    )
    def test_retention_screen_is_a_measurement(self, waive, category):
        # A tester cannot read the ground-truth fault list: a die whose
        # list was dropped (its fault masks stay) must still be caught
        # by the retention screen, not come out "perfect".
        flow = TestFlow(waive_retention_only=waive)
        for blind in (False, True):
            die = FaultyArray(rows=64, cols=64)
            die.inject(Fault(kind=FaultKind.RETENTION, row=3, col=5))
            if blind:
                die.faults.clear()
            assert flow.process_die(die)[0] == category

    def test_lot_ignores_ground_truth(self, monkeypatch):
        flow = TestFlow(waive_retention_only=True, line_fault_rate=0.3)
        known = flow.run_lot(60, seed=11)
        build = TestFlow._build_die

        def build_blind(self, rng, seed):
            die = build(self, rng, seed)
            die.faults.clear()
            return die

        monkeypatch.setattr(TestFlow, "_build_die", build_blind)
        assert flow.run_lot(60, seed=11) == known
        assert known.waived > 0
