"""Edge cases at the event-engine skip x refresh boundary.

The riskiest interaction in the engine's skipping: an inert span it
wants to jump over that *contains a refresh deadline*.  The skip target
must be capped at the scheduler's quiescent point so the controller
wakes up exactly when refresh is due — never a cycle late.  These tests
pin the off-by-one surface: deadlines strictly inside a skipped window,
the quiescent cycle landing exactly on the deadline (integer and
fractional intervals), and bit-identity with the stepped reference loop
across a retention sweep.
"""

import math

import pytest

from repro.dram.refresh import RefreshScheduler
from repro.dram.timing import PC100_TIMING
from repro.sim.event_engine import EventEngine
from repro.verify.differential import result_fingerprint
from repro.verify.fuzz import build_simulator


def idle_params(retention_cycles, cycles=900, rate=0.004, n_rows=16):
    """A nearly idle workload whose refresh interval is
    ``retention_cycles / n_rows`` cycles: small enough that many
    deadlines fall inside the long idle gaps between requests."""
    clock_ns = 10.0
    return {
        "timing": {
            "clock_period_ns": clock_ns,
            "t_rcd": 2,
            "t_cas": 2,
            "t_rp": 2,
            "t_ras": 4,
            "t_rc": 6,
            "t_rrd": 1,
            "t_wr": 1,
            "t_rfc": 5,
            "burst_length": 2,
            "t_turnaround": 1,
        },
        "organization": {
            "n_banks": 2,
            "n_rows": n_rows,
            "page_bits": 512,
            "word_bits": 16,
        },
        "scheme": "row:bank:col",
        "controller": {
            "window_size": 4,
            "fifo_capacity": 4,
            "refresh_enabled": True,
            "refresh_retention_s": retention_cycles * clock_ns * 1e-9,
        },
        "sim": {"cycles": cycles, "warmup_cycles": 0},
        "clients": [
            {
                "name": "c0",
                "pattern": {"kind": "sequential", "base": 0, "length": 512},
                "rate": rate,
                "read_fraction": 1.0,
                "seed": 1,
            }
        ],
    }


def fingerprints(params):
    reference = build_simulator(params)
    engine = build_simulator(params)
    reference_result = reference.run_reference()
    engine_result = engine.run()
    assert reference.cycles_fast_forwarded == 0
    assert engine.backend_used == "event"
    return (
        result_fingerprint(reference_result),
        result_fingerprint(engine_result),
        engine,
    )


class TestDeadlineInsideSkippedWindow:
    def test_refresh_fires_despite_long_idle_skips(self):
        # Interval of 100 cycles, requests ~250 cycles apart: most
        # refresh deadlines sit strictly inside skipped idle windows.
        params = idle_params(retention_cycles=1600)
        reference_fp, engine_fp, engine = fingerprints(params)
        assert reference_fp == engine_fp
        assert engine.cycles_fast_forwarded > 100
        result = build_simulator(params).run()
        assert result.refreshes >= 5

    @pytest.mark.parametrize(
        "retention_cycles", [130, 399, 400, 1000, 4096, 9999]
    )
    def test_retention_sweep_is_bit_identical(self, retention_cycles):
        # Odd intervals produce fractional due cycles; powers of two
        # and round numbers produce exact integer deadlines.  All must
        # agree with the stepped reference loop.
        reference_fp, engine_fp, _ = fingerprints(
            idle_params(retention_cycles=retention_cycles)
        )
        assert reference_fp == engine_fp

    def test_skips_stay_clean_under_live_invariants(self):
        simulator = build_simulator(
            idle_params(retention_cycles=1600), check_invariants="raise"
        )
        simulator.run()  # skip.refresh_deadline would raise here
        report = simulator.invariant_report
        assert report.clean
        assert report.skips_checked > 0


class TestQuiescentExactlyAtDeadline:
    def make(self, n_rows=8, retention_cycles=800.0):
        return RefreshScheduler(
            timing=PC100_TIMING,
            n_rows_total=n_rows,
            retention_s=retention_cycles * PC100_TIMING.clock_period_ns
            * 1e-9,
        )

    def test_due_exactly_at_quiescent_cycle(self):
        # Pin the boundary with an exact integer deadline: quiescent
        # lands on it dead-on, and due() flips exactly there.
        scheduler = self.make()
        scheduler._next_due_cycle = 100.0
        quiescent = scheduler.quiescent_until(5)
        assert quiescent == 100
        assert not scheduler.due(quiescent - 1)
        assert scheduler.due(quiescent)

    def test_quiescent_is_never_past_a_due_cycle(self):
        # Whatever float the interval arithmetic lands on, the skip
        # target must be the *first* cycle where due() is true.
        scheduler = self.make()
        assert scheduler.interval_cycles == pytest.approx(100.0)
        scheduler.mark_issued(0)
        quiescent = scheduler.quiescent_until(5)
        assert scheduler.due(quiescent)
        assert not scheduler.due(quiescent - 1)

    def test_fractional_interval_rounds_up_never_late(self):
        scheduler = self.make(n_rows=3)  # interval = 800/3 cycles
        assert scheduler.interval_cycles == pytest.approx(800 / 3)
        scheduler.mark_issued(0)
        quiescent = scheduler.quiescent_until(1)
        assert quiescent == math.ceil(scheduler.interval_cycles)
        # The skip target must not be a cycle where refresh was already
        # due (late) nor one where it is not yet due (early wake is
        # allowed only from the ceiling, by at most one fraction).
        assert not scheduler.due(quiescent - 1)
        assert scheduler.due(quiescent)

    def test_due_now_means_no_skip(self):
        scheduler = self.make()
        assert scheduler.due(0)
        assert scheduler.quiescent_until(0) == 0
        scheduler.mark_issued(0)
        # Past the new deadline, quiescent_until never points backwards.
        assert scheduler.quiescent_until(250) == 250

    def test_controller_quiescence_is_capped_by_refresh(self):
        params = idle_params(retention_cycles=1600)
        simulator = build_simulator(params)
        controller = simulator.controller
        scheduler = controller._refresh
        engine = EventEngine(simulator)
        simulator._drive_clients(0)
        controller.step(0)  # the refresh due at cycle 0 issues
        assert controller.refreshes_issued == 1
        # Idle controller, no traffic yet (the client's first wake lies
        # beyond the deadline): its only obligation is the next refresh
        # deadline, and the engine must skip to exactly that cycle.
        deadline = scheduler.quiescent_until(1)
        wake = 1 + simulator.clients[0].cycles_until_wants(10_000)
        assert 1 < deadline < wake
        assert engine._skip_target(1, 10_000, warmup_barrier=-1) == deadline
        assert not scheduler.due(deadline - 1)
        controller.step(deadline)
        assert controller.refreshes_issued == 2
