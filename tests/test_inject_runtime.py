"""Tests for repro.inject.runtime: degradation under injected faults."""

import pytest

from repro.dram.organizations import Organization
from repro.inject import FaultInjector, FaultMap, InjectionConfig
from repro.inject.runtime import build_injected_simulator
from repro.verify.differential import (
    diff_injection_off,
    result_fingerprint,
)

RUN = dict(cycles=3_000, warmup_cycles=200)
ORG = Organization(n_banks=4, n_rows=2048, page_bits=4096, word_bits=16)


def _run(injection=None, injector=None, **kwargs):
    params = dict(RUN)
    params.update(kwargs)
    simulator = build_injected_simulator(
        injection, injector=injector, **params
    )
    result = simulator.run()
    return simulator, result


def _single_bit_map(rows, word_range=(0, 16)):
    """A map with one bad bit in every word of the given rows of bank 0."""
    fault_map = FaultMap()
    for row in rows:
        fault_map.word_errors[(0, row)] = {
            word: 1 for word in range(*word_range)
        }
    return fault_map


class TestBitIdentity:
    def test_disabled_injection_is_bit_identical(self):
        report = diff_injection_off(
            cycles=3_000, warmup_cycles=200, n_cell_faults=50
        )
        assert report.identical, report.describe()

    def test_injected_run_reproducible(self):
        injection = InjectionConfig(
            seed=5,
            n_cell_faults=300,
            refresh_drop_rate=0.2,
            fifo_stall_rate=0.05,
        )
        _, a = _run(injection)
        _, b = _run(injection)
        assert result_fingerprint(a) == result_fingerprint(b)


class TestLoopSelection:
    """A resilient controller whose hooks all delegate to the stock ones
    runs on the event engine; an enabled injector runs stepped."""

    def test_no_or_disabled_injector_runs_on_engine(self):
        plain_sim, plain = _run(refresh_retention_s=1e-3)
        assert plain_sim.backend_used == "event"
        disabled_sim, disabled = _run(
            InjectionConfig(enabled=False, n_cell_faults=50),
            refresh_retention_s=1e-3,
        )
        no_injector_sim = build_injected_simulator(
            InjectionConfig(enabled=False),
            refresh_retention_s=1e-3,
            **RUN,
        )
        no_injector_sim.controller.injector = None
        no_injector = no_injector_sim.run()
        for simulator in (disabled_sim, no_injector_sim):
            assert type(simulator.controller).__name__ == (
                "ResilientController"
            )
            assert simulator.backend_used == "event"
            assert simulator.backend_fallback_reason is None
        assert result_fingerprint(disabled) == result_fingerprint(plain)
        assert result_fingerprint(no_injector) == result_fingerprint(plain)

    def test_enabled_injector_falls_back_with_reason(self):
        simulator, _ = _run(InjectionConfig(n_cell_faults=50))
        assert simulator.backend_used == "cycle"
        reason = simulator.backend_fallback_reason
        assert reason is not None and "ResilientController" in reason

    def test_resilient_subclass_falls_back(self):
        from repro.inject.runtime import ResilientController

        class AuditedController(ResilientController):
            pass

        simulator = build_injected_simulator(
            InjectionConfig(enabled=False), **RUN
        )
        simulator.controller.__class__ = AuditedController
        simulator.run()
        assert simulator.backend_used == "cycle"
        assert "AuditedController" in simulator.backend_fallback_reason


class TestEccRetry:
    def test_correctable_reads_retried_then_accepted(self):
        injector = FaultInjector(
            InjectionConfig(read_retry_limit=1),
            organization=ORG,
            fault_map=_single_bit_map(range(8)),
        )
        simulator, result = _run(injector=injector)
        counters = injector.counters
        assert counters.get("reads_corrected", 0) > 0
        assert counters.get("retries", 0) > 0
        assert counters.get("reads_uncorrectable", 0) == 0
        assert result.requests_completed > 0

    def test_retry_budget_bounded(self):
        injector = FaultInjector(
            InjectionConfig(read_retry_limit=2),
            organization=ORG,
            fault_map=_single_bit_map(range(4)),
        )
        _run(injector=injector)
        # Every corrected read costs at most `read_retry_limit` retries.
        assert injector.counters.get("retries", 0) <= (
            2 * injector.counters.get("reads_corrected", 0)
        )


class TestRemapAndQuarantine:
    def test_dead_rows_remapped_to_spares(self):
        fault_map = FaultMap(dead_rows={(0, row) for row in range(8)})
        injector = FaultInjector(
            InjectionConfig(quarantine_threshold=1, spare_rows_per_bank=8),
            organization=ORG,
            fault_map=fault_map,
        )
        simulator, _ = _run(injector=injector)
        assert injector.counters.get("rows_remapped", 0) > 0
        assert not injector.banks_quarantined

    def test_exhausted_spares_quarantine_bank(self):
        fault_map = FaultMap(dead_rows={(0, row) for row in range(64)})
        injector = FaultInjector(
            InjectionConfig(quarantine_threshold=1, spare_rows_per_bank=1),
            organization=ORG,
            fault_map=fault_map,
        )
        simulator, result = _run(injector=injector)
        assert 0 in injector.banks_quarantined
        assert 0 in simulator.controller.quarantined_banks
        assert result.requests_completed > 0

    def test_stuck_bank_detected_and_quarantined(self):
        injection = InjectionConfig(
            stuck_bank=0,
            stuck_bank_from_cycle=0,
            stuck_request_cycles=64,
        )
        simulator, result = _run(injection)
        assert simulator.controller.quarantined_banks == {0}
        assert result.requests_completed > 0

    def test_healthy_banks_never_quarantined(self):
        simulator, _ = _run(InjectionConfig(n_cell_faults=100))
        assert not simulator.controller.quarantined_banks


class TestRefreshFates:
    def test_drops_accumulate_deficit_and_are_counted(self):
        injection = InjectionConfig(
            refresh_drop_rate=1.0, retention_margin_refreshes=0
        )
        simulator, result = _run(injection, refresh_retention_s=1e-3)
        injector = simulator.controller.injector
        assert injector.counters.get("refreshes_dropped", 0) > 0
        assert injector.retention_active
        assert result.refreshes == 0

    def test_delays_still_issue(self):
        injection = InjectionConfig(
            refresh_delay_rate=1.0, refresh_delay_cycles=16
        )
        simulator, result = _run(injection, refresh_retention_s=1e-3)
        injector = simulator.controller.injector
        assert injector.counters.get("refreshes_delayed", 0) > 0
        assert result.refreshes > 0

    def test_issue_resets_retention(self):
        injection = InjectionConfig(retention_margin_refreshes=0)
        simulator, _ = _run(injection, refresh_retention_s=1e-3)
        assert not simulator.controller.injector.retention_active


class TestFifoStalls:
    def test_injected_stalls_counted(self):
        injection = InjectionConfig(fifo_stall_rate=0.5)
        simulator, result = _run(injection)
        injector = simulator.controller.injector
        assert injector.counters.get("fifo_stalls_injected", 0) > 0
        assert sum(result.fifo_stall_cycles.values()) > 0

    def test_zero_rate_never_stalls(self):
        simulator, _ = _run(InjectionConfig(fifo_stall_rate=0.0))
        injector = simulator.controller.injector
        assert injector.counters.get("fifo_stalls_injected", 0) == 0


class TestObservability:
    def test_fault_events_hit_metrics_and_trace(self):
        from repro.obs import Observability

        obs = Observability.create(trace=True)
        injection = InjectionConfig(
            seed=1, refresh_drop_rate=1.0, fifo_stall_rate=0.3
        )
        simulator = build_injected_simulator(
            injection, obs=obs, refresh_retention_s=1e-3, **RUN
        )
        simulator.run()
        snapshot = obs.metrics.snapshot()
        assert snapshot["counters"].get("inject.refresh_dropped", 0) > 0
        assert snapshot["counters"].get(
            "inject.fifo_stall_injected", 0
        ) > 0
        assert any(
            event.get("name") == "refresh_dropped"
            for event in obs.trace.events
        )
