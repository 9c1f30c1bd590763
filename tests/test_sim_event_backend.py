"""Differential tests: the event engine vs the stepped reference loop.

``run()`` executes on the event engine for every stock-controller
configuration; its whole contract is *bit-identity on
``result_fingerprint``* with ``run_reference()`` across everything the
fuzz corpus generates — page policies, refresh pressure, backpressure,
truncation — with observability off, with it attached, and under live
invariant checking.  Divergences are localized to the first divergent
command cycle by the ``diff_engine`` oracle, and the engine's skip
audit is shown to fail when a skip is unsound.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import VerificationError
from repro.obs import Observability
from repro.sim import EventEngine, event_fallback_reason
from repro.sim.simulator import MemorySystemSimulator, SimulationConfig
from repro.verify import fuzz
from repro.verify.differential import (
    diff_engine,
    engine_comparable_metrics,
    result_fingerprint,
)


def _diff_case(params: dict, **overrides) -> None:
    """Assert engine == reference for one fuzz case (with sim
    overrides)."""
    params = {**params, "sim": {**params["sim"], **overrides}}
    report = diff_engine(
        lambda record_commands: fuzz.build_simulator(
            params, record_commands=record_commands
        )
    )
    assert report.identical, report.describe()


def _corpus(tag: str, count: int) -> list:
    return [
        fuzz.gen_sim_case(random.Random(f"{tag}:{index}"))
        for index in range(count)
    ]


def _subclassed(simulator):
    """Swap in a controller subclass the engine has not analyzed."""
    from repro.controller.controller import MemoryController

    class TracingController(MemoryController):
        pass

    simulator.controller.__class__ = TracingController
    return simulator


def test_backend_bit_identity_fuzz_corpus():
    """The engine matches the reference loop across generated cases."""
    for params in _corpus("event-backend", 20):
        _diff_case(params)


def test_backend_bit_identity_truncated():
    """``max_cycles`` truncation lands on the same cycle in both
    loops — including a cap that cuts the run inside warm-up."""
    for params in _corpus("event-truncate", 6):
        total = params["sim"]["cycles"] + params["sim"]["warmup_cycles"]
        for cap in (max(1, total // 3), max(1, total // 30)):
            _diff_case(params, max_cycles=cap)


def test_backend_bit_identity_refresh_deadline_edges():
    """Tight retention makes refresh deadlines land mid-skip; the skip
    target must stop at the drain window every time."""
    for params in _corpus("event-refresh", 6):
        params["controller"] = {
            **params["controller"],
            "refresh_enabled": True,
            # Retention near the simulated horizon: a handful of rows
            # refresh per interval and the deadlines pile up.
            "refresh_retention_s": params["controller"][
                "refresh_retention_s"
            ]
            / 4,
        }
        _diff_case(params)


def test_backend_used_diagnostics():
    params = fuzz.gen_sim_case(random.Random("event-diag"))
    reference = fuzz.build_simulator(params)
    reference.run_reference()
    assert reference.backend_used == "cycle"
    assert reference.backend_fallback_reason is None
    assert reference.cycles_fast_forwarded == 0
    engine = fuzz.build_simulator(params)
    engine.run()
    assert engine.backend_used == "event"
    assert engine.backend_fallback_reason is None
    assert engine.cycles_fast_forwarded >= 0


def test_observability_runs_on_engine():
    """With observability attached, ``run()`` stays on the engine and
    gives the reference loop's fingerprint and metrics snapshot, apart
    from the metrics only jumps produce."""
    skipped = 0
    for params in _corpus("event-obs", 20):
        reference_obs = Observability.create(trace=False)
        reference = fuzz.build_simulator(params, obs=reference_obs)
        reference_result = reference.run_reference()
        engine_obs = Observability.create(trace=False)
        engine = fuzz.build_simulator(params, obs=engine_obs)
        engine_result = engine.run()
        assert engine.backend_used == "event"
        assert result_fingerprint(engine_result) == result_fingerprint(
            reference_result
        )
        assert engine_comparable_metrics(
            engine_obs.metrics.snapshot()
        ) == engine_comparable_metrics(reference_obs.metrics.snapshot())
        skipped += engine_obs.metrics.value("sim.cycles_fast_forwarded")
        assert engine_obs.metrics.value(
            "sim.cycles_fast_forwarded"
        ) == engine.cycles_fast_forwarded
    assert skipped > 0


def test_invariant_checking_runs_on_engine():
    """``check_invariants="raise"`` runs on the engine, audits every
    jump, stays silent and changes nothing."""
    audited = 0
    for params in _corpus("event-invariants", 20):
        checked = fuzz.build_simulator(params, check_invariants="raise")
        result = checked.run()
        assert checked.backend_used == "event"
        assert checked.invariant_report.clean
        audited += checked.invariant_report.skips_checked
        reference = fuzz.build_simulator(params).run_reference()
        assert result_fingerprint(result) == result_fingerprint(reference)
    assert audited > 0


def _skip_past_everything(monkeypatch, span: int) -> None:
    """Make every skip jump ``span`` cycles (capped at the run's last
    cycle), ignoring what falls due inside — an unsound engine."""
    def reckless(self, next_cycle, hard_total, warmup_barrier):
        del warmup_barrier
        return min(next_cycle + span, hard_total - 1)

    monkeypatch.setattr(EventEngine, "_skip_target", reckless)


def _saturated_params() -> dict:
    params = fuzz.gen_sim_case(random.Random("event-audit"))
    for client in params["clients"]:
        client["rate"] = 0.9
    return params


def test_skip_audit_flags_jump_past_legal_command(monkeypatch):
    params = _saturated_params()
    # The sound engine runs clean on this workload.
    fuzz.build_simulator(params, check_invariants="raise").run()
    _skip_past_everything(monkeypatch, span=40)
    simulator = fuzz.build_simulator(params, check_invariants="collect")
    simulator.run()
    checks = {v.check for v in simulator.invariant_report.violations}
    assert "skip.command" in checks
    with pytest.raises(VerificationError, match=r"\[skip\."):
        fuzz.build_simulator(params, check_invariants="raise").run()


def test_skip_audit_flags_jump_past_refresh_deadline(monkeypatch):
    from tests.test_verify_fastforward_refresh import idle_params

    params = idle_params(retention_cycles=1600)
    _skip_past_everything(monkeypatch, span=10_000)
    simulator = fuzz.build_simulator(params, check_invariants="collect")
    simulator.run()
    checks = {v.check for v in simulator.invariant_report.violations}
    assert "skip.refresh_deadline" in checks
    assert "skip.client" in checks


def test_backend_fallback_on_subclassed_controller():
    """Unknown controller subclasses may override stepped hooks the
    skip analysis never sees — the engine must refuse them."""
    params = fuzz.gen_sim_case(random.Random("event-subclass"))
    sim = _subclassed(fuzz.build_simulator(params))
    reason = event_fallback_reason(sim)
    assert reason is not None and "controller" in reason
    sim.run()
    assert sim.backend_used == "cycle"
    assert sim.backend_fallback_reason == reason


def test_oracle_cannot_pass_on_a_fallback():
    """``diff_engine`` reports a fallback as a difference, never as a
    vacuous "identical"."""
    params = fuzz.gen_sim_case(random.Random("event-subclass"))
    report = diff_engine(
        lambda record_commands: _subclassed(
            fuzz.build_simulator(params, record_commands=record_commands)
        )
    )
    assert not report.identical
    assert report.diffs[0].path == "backend_used"
    assert "TracingController" in report.describe()


def test_loop_selection_knobs_are_gone():
    """The configuration, not a flag, selects the loop."""
    for knob in ("fast_forward", "backend"):
        with pytest.raises(TypeError):
            SimulationConfig(cycles=100, **{knob: True})


def test_stock_workloads_run_on_engine(monkeypatch):
    """The canned observability workload and E5's simulations run on
    the engine."""
    from repro.experiments.e05_sustainable_bw import simulate_org
    from repro.obs.workloads import mpeg2_decoder_simulator

    used = []
    run = MemorySystemSimulator.run

    def spy(self):
        result = run(self)
        used.append(self.backend_used)
        return result

    monkeypatch.setattr(MemorySystemSimulator, "run", spy)
    mpeg2_decoder_simulator(
        cycles=1_500, warmup_cycles=200, obs=Observability.create()
    ).run()
    simulate_org(banks=2, page_bits=2048, cycles=1_500)
    assert used == ["event", "event"]


def test_event_engine_exported():
    assert EventEngine is not None
