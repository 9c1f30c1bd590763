"""The event engine's own command pick vs the scheduler's ranking.

``run()`` does not call ``Scheduler.candidates`` or
``MemoryController._next_command``: the engine classifies the window in
one pass with closed-form legality and builds one ``Command`` per
issued command.  The reference loop keeps the ranking, so the two must
issue the same command sequence — across both schedulers, every page
policy (the closing ones block banks through ``_close_wanted``),
refresh drains and read/write mixes that force bus turnarounds.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.controller.controller import ControllerConfig, MemoryController
from repro.controller.page_policy import (
    AdaptivePagePolicy,
    ClosedPagePolicy,
    OpenPagePolicy,
)
from repro.controller.scheduler import FCFSScheduler, FRFCFSScheduler
from repro.dram.commands import CommandType
from repro.dram.edram import EDRAMMacro
from repro.dram.organizations import AddressMapping, MappingScheme
from repro.errors import ProtocolError
from repro.sim import EventEngine
from repro.sim.simulator import MemorySystemSimulator, SimulationConfig
from repro.traffic.client import MemoryClient
from repro.traffic.patterns import RandomPattern, SequentialPattern
from repro.units import MBIT
from repro.verify.differential import result_fingerprint

SCHEDULERS = {"fcfs": FCFSScheduler, "fr-fcfs": FRFCFSScheduler}
POLICIES = {
    "open": OpenPagePolicy,
    "closed": ClosedPagePolicy,
    "adaptive": AdaptivePagePolicy,
}
#: Refresh interval of the short-retention cases, in cycles: short
#: enough that several drains land inside every run.
SHORT_REFRESH_CYCLES = 150


def build(
    scheduler="fr-fcfs",
    policy="open",
    short_refresh=False,
    read_fraction=1.0,
    rate=0.3,
    record_commands=True,
    cycles=1_500,
):
    macro = EDRAMMacro.build(
        size_bits=4 * MBIT, width=64, banks=4, page_bits=2048
    )
    device = macro.device()
    organization = device.organization
    config = {"record_commands": record_commands}
    if short_refresh:
        config["refresh_retention_s"] = (
            SHORT_REFRESH_CYCLES
            * organization.n_rows
            / device.timing.clock_hz
        )
    controller = MemoryController(
        device=device,
        mapping=AddressMapping(organization, MappingScheme.ROW_BANK_COL),
        scheduler=SCHEDULERS[scheduler](),
        page_policy=POLICIES[policy](),
        config=ControllerConfig(**config),
    )
    clients = [
        MemoryClient(
            name="stream",
            pattern=SequentialPattern(base=0, length=32_768),
            rate=rate,
            read_fraction=read_fraction,
            seed=3,
        ),
        MemoryClient(
            name="random",
            pattern=RandomPattern(
                base=0, length=organization.total_words, seed=5
            ),
            rate=rate,
            read_fraction=read_fraction,
            seed=5,
        ),
    ]
    return MemorySystemSimulator(
        controller=controller,
        clients=clients,
        config=SimulationConfig(cycles=cycles, warmup_cycles=100),
    )


@pytest.mark.parametrize("read_fraction", [1.0, 0.5])
@pytest.mark.parametrize("short_refresh", [False, True])
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_pick_matches_reference_ranking(
    scheduler, policy, short_refresh, read_fraction
):
    case = dict(
        scheduler=scheduler,
        policy=policy,
        short_refresh=short_refresh,
        read_fraction=read_fraction,
    )
    reference = build(**case)
    reference_result = reference.run_reference()
    engine = build(**case)
    engine_result = engine.run()
    assert engine.backend_used == "event"
    assert engine.controller.command_log == reference.controller.command_log
    assert result_fingerprint(engine_result) == result_fingerprint(
        reference_result
    )
    # The grid exercises what it claims to.
    log = [command.kind for command in engine.controller.command_log]
    counts = Counter(log)
    columns = [
        kind for kind in log if kind in (CommandType.READ, CommandType.WRITE)
    ]
    assert columns and counts[CommandType.ACTIVATE] > 0
    if policy == "closed":
        # Every access waits out its bank's committed precharge, so no
        # request ever reuses an open row (a refresh drain can close a
        # row between its ACTIVATE and the access, costing one more).
        assert counts[CommandType.ACTIVATE] >= len(columns)
    if short_refresh:
        assert counts[CommandType.REFRESH] > 5
    if read_fraction < 1.0:
        switches = sum(
            1
            for before, after in zip(columns, columns[1:])
            if before != after
        )
        assert switches > 10  # the bus turnaround decides real picks


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_run_skips_the_scheduler_ranking(monkeypatch, scheduler):
    """A stock run never ranks the window nor builds trial commands;
    the reference loop does (so the spies are live)."""
    calls = {"candidates": 0, "next_command": 0}

    def spy(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for cls in (FCFSScheduler, FRFCFSScheduler):
        monkeypatch.setattr(
            cls, "candidates", spy("candidates", cls.candidates)
        )
    monkeypatch.setattr(
        MemoryController,
        "_next_command",
        spy("next_command", MemoryController._next_command),
    )
    simulator = build(scheduler=scheduler, record_commands=False)
    simulator.run()
    assert simulator.backend_used == "event"
    assert simulator.controller.commands[CommandType.READ] > 0
    assert calls == {"candidates": 0, "next_command": 0}
    build(scheduler=scheduler, record_commands=False).run_reference()
    assert calls["candidates"] > 0 and calls["next_command"] > 0


def test_wrong_pick_raises_protocol_error(monkeypatch):
    """The device model validates every picked command: a pick the
    closed form gets wrong raises instead of diverging silently."""
    scan = EventEngine._scan

    def wrong(self, requests, cycle):
        when, request, kind = scan(self, requests, cycle)
        if request is None and requests:
            # Claim a column command to a closed bank is legal now.
            return cycle, requests[0], CommandType.READ
        return when, request, kind

    monkeypatch.setattr(EventEngine, "_scan", wrong)
    with pytest.raises(ProtocolError):
        build(record_commands=False).run()
