"""The event engine: the simulator's production loop.

Stepping every cycle (the reference loop,
:meth:`~repro.sim.simulator.MemorySystemSimulator.run_reference`) costs
time in proportion to cycles elapsed.  This engine jumps over every
span of cycles where stepping would provably change nothing observable,
even while the window is full of requests and clients are
back-pressured.  What remains is a timestamp-ordered walk over the
cycles where something *can* happen:

* a client's token bucket reaches issue threshold (its absolute wake
  cycle, cached until the client next issues);
* a queued request's next DRAM command becomes legal (bank ready
  cycles, tRRD, shared-data-bus availability — the same rules the
  device model enforces);
* a committed page-policy precharge becomes legal (tRAS expiry);
* the refresh scheduler's next deadline;
* the warm-up reset and the final cycle (always stepped).

Between those timestamps the engine batch-accrues exactly what the
reference loop would have accrued: token-bucket credit for idle clients
(bit-identical iterated accrual via ``tick_many``), stall cycles for
back-pressured clients, and FIFO occupancy statistics.  Cost therefore
scales with commands issued, not cycles elapsed.

On stepped cycles the controller's phases run individually, and the
engine picks the request command itself instead of running the
scheduler's ranking: one pass over the window in acceptance order
(:meth:`EventEngine._scan`) classifies each request by closed-form
legality (row hit, bank preparation, or no candidate) and yields the
FR-FCFS or FCFS winner, or, when nothing is legal yet, the earliest
cycle something will be.  Exactly one ``Command`` is built per issued
command and the device model still validates it, so a pick the device
disagrees with raises ``ProtocolError`` instead of diverging silently.
The cached next-command time is maintained incrementally: an accepted
request min-updates it in O(1); any issued command (request, refresh or
policy precharge) invalidates it for lazy recomputation.

Attached observability and live invariant checking ride along: stepped
cycles emit the same hooks as the reference loop, each jump calls
``obs.on_skip`` once (plus the per-cycle ``on_fifo_stall`` events a
back-pressured client would have raised) and
``LiveInvariantChecker.on_skip`` audits the jump against the soundness
conditions below before it is applied.

Safety argument, pinned by ``tests/test_sim_event_backend.py`` and the
``diff_engine`` oracle: command legality is monotone in the cycle for
fixed bank/device state, the FR-FCFS ranking depends on bank state
only through ``_open_row`` (which changes only when commands
issue), and all three stock arbiters are state-neutral on cycles where
no request can be accepted (window full or all FIFOs empty).  Every
skip event is computed conservatively — stepping a cycle where nothing
happens is always exact; only a *late* event could diverge, and the
differential fuzz corpus exists to catch exactly that.

The reference loop (``Scheduler.candidates`` ranking,
``MemoryController._next_command`` and ``_issue_request_command``)
stays the oracle.  Configurations outside the analyzed envelope
(controllers whose ``event_engine_safe()`` is False, device subclasses,
unknown scheduler or arbiter types) run on it;
``MemorySystemSimulator.backend_fallback_reason`` records why.
"""

from __future__ import annotations

import time

from repro.controller.arbiter import (
    PriorityArbiter,
    RoundRobinArbiter,
    TDMArbiter,
)
from repro.controller.scheduler import FCFSScheduler, FRFCFSScheduler
from repro.dram.commands import Command, CommandType
from repro.dram.device import DRAMDevice
from repro.sim.stats import SimulationResult

#: Sentinel "never" timestamp for blocked candidates.
_NEVER = 1 << 62

_SCHEDULERS = (FCFSScheduler, FRFCFSScheduler)
_ARBITERS = (RoundRobinArbiter, PriorityArbiter, TDMArbiter)


def event_fallback_reason(simulator) -> str | None:
    """Why ``simulator`` cannot run on the event engine (None = it can).

    The engine's skip analysis is proven against the stock controller,
    schedulers and arbiters; anything it has not been analyzed for runs
    on the reference loop instead of risking silent divergence.
    """
    controller = simulator.controller
    if not controller.event_engine_safe():
        return (
            f"controller {type(controller).__name__} runs hooks "
            "not analyzed for event skipping"
        )
    if type(simulator.device) is not DRAMDevice:
        return (
            f"device subclass {type(simulator.device).__name__} "
            "not analyzed for event skipping"
        )
    if not isinstance(controller.scheduler, _SCHEDULERS):
        return (
            f"scheduler {type(controller.scheduler).__name__} "
            "has no next-command-time model"
        )
    if not isinstance(controller.arbiter, _ARBITERS):
        return (
            f"arbiter {type(controller.arbiter).__name__} "
            "not proven state-neutral across skips"
        )
    return None


class EventEngine:
    """One event-driven run over a :class:`MemorySystemSimulator`.

    Stateless between runs; construct a fresh engine per ``run()``.
    """

    def __init__(self, simulator) -> None:
        self.sim = simulator
        self.controller = simulator.controller
        self.device = simulator.device
        #: Earliest cycle at which a request command can issue, given
        #: current window/bank/bus state (:meth:`_scan`); None = stale.
        self._next_cmd_time: int | None = None
        #: Per client: ``(issued, wake)`` — the absolute cycle at which
        #: the client next wants to issue, valid while its ``issued``
        #: count is unchanged (credit only moves along its idle
        #: trajectory in between; a back-pressure freeze always starts
        #: with an issue).
        self._wake = [(-1, 0)] * len(simulator.clients)
        self._fcfs = type(self.controller.scheduler) is FCFSScheduler

    # -- main loop -----------------------------------------------------------

    def run(self) -> SimulationResult:
        sim = self.sim
        controller = self.controller
        hard_total, budget_reason = sim._budget()
        deadline = sim._deadline()
        cancel = sim.config.cancel
        warmup_barrier = sim.config.warmup_cycles - 1
        clients = sim.clients
        pending = sim._pending
        fifos = controller.fifos
        obs = sim.obs
        checker = sim.invariant_checker
        cycle = 0
        while cycle < hard_total:
            self._step(cycle)
            if checker is not None:
                checker.on_cycle(cycle, sim)
                sim._maybe_raise_violations(checker)
            if cycle == warmup_barrier:
                sim._reset_measurement()
            cycle += 1
            if (
                deadline is not None
                and cycle < hard_total
                and time.perf_counter() > deadline
            ):
                return sim._collect(
                    cycle, truncation=("max_wall_s", cycle)
                )
            if (
                cancel is not None
                and cycle < hard_total
                and cancel.cancelled
            ):
                return sim._collect(cycle, truncation=("cancelled", cycle))
            if cycle >= hard_total:
                break
            target = self._skip_target(cycle, hard_total, warmup_barrier)
            if target > cycle:
                skipped = target - cycle
                if checker is not None:
                    checker.on_skip(cycle, skipped, sim)
                    sim._maybe_raise_violations(checker)
                if obs is not None:
                    obs.on_skip(cycle, skipped)
                for client in clients:
                    held = pending.get(client.name)
                    if held is None:
                        client.tick_many(skipped)
                        continue
                    # The reference loop re-offers the held request
                    # every cycle; each refusal is one recorded stall
                    # and the client's credit stays frozen.
                    fifos[client.name].stall_cycles += skipped
                    if obs is not None:
                        for _ in range(skipped):
                            obs.on_fifo_stall(
                                client.name, held.created_cycle
                            )
                controller.skip_idle_cycles(skipped)
                sim.cycles_fast_forwarded += skipped
                cycle = target
        if budget_reason is not None:
            return sim._collect(
                hard_total, truncation=(budget_reason, hard_total)
            )
        return sim._collect(hard_total)

    # -- one stepped cycle ----------------------------------------------------

    def _step(self, cycle: int) -> None:
        """One full simulated cycle, phase-decomposed.

        Identical effects to ``sim._drive_clients(cycle)`` followed by
        ``controller.step(cycle)``, except that the request command is
        picked by the engine's own window pass (:meth:`_scan`), and
        only on cycles where the cached next-command time says one can
        issue.
        """
        self.sim._drive_clients(cycle)
        controller = self.controller
        controller._retire(cycle)
        window = controller.window
        accepted = len(window)
        controller._accept(cycle)
        if len(window) != accepted and self._next_cmd_time is not None:
            # The newcomer is the youngest request, so it cannot delay
            # anyone; alone in the scan it counts as the oldest for its
            # bank, which can only make the estimate early (safe).
            earliest = self._scan(window[-1:], cycle)[0]
            if earliest < self._next_cmd_time:
                self._next_cmd_time = earliest
        if controller._service_refresh(cycle):
            # A drain precharge or REFRESH may have changed bank state.
            self._next_cmd_time = None
            controller._observe(cycle)
            return
        if controller._close_wanted:
            before = len(controller._close_wanted)
            if controller._issue_policy_precharge(cycle):
                self._next_cmd_time = None
                controller._observe(cycle)
                return
            if len(controller._close_wanted) != before:
                # Stale entries were purged; previously blocked
                # candidates may have become schedulable.
                self._next_cmd_time = None
        if window:
            when = self._next_cmd_time
            if when is None or when <= cycle:
                when, request, kind = self._scan(self._candidates(), cycle)
                if request is not None:
                    self._issue_request(request, kind, cycle)
                    when = None
                self._next_cmd_time = when
        controller._observe(cycle)

    def _issue_request(self, request, kind: CommandType, cycle: int) -> None:
        """Issue the picked command: one ``Command``, validated by the
        device model (a wrong pick raises ``ProtocolError``)."""
        controller = self.controller
        decoded = request.decoded
        if kind is CommandType.PRECHARGE:
            controller._issue(
                Command(kind=kind, cycle=cycle, bank=decoded.bank)
            )
        elif kind is CommandType.ACTIVATE:
            controller._issue(
                Command(
                    kind=kind,
                    cycle=cycle,
                    bank=decoded.bank,
                    row=decoded.row,
                    request_id=request.request_id,
                )
            )
        else:
            end = controller._issue(
                Command(
                    kind=kind,
                    cycle=cycle,
                    bank=decoded.bank,
                    column=decoded.column,
                    request_id=request.request_id,
                )
            )
            controller._commit_access(request, cycle, end)

    # -- request classification ----------------------------------------------

    def _candidates(self) -> list:
        """The requests the scheduler may advance: FCFS only ever
        advances the head; FR-FCFS considers the whole window."""
        window = self.controller.window
        return window[:1] if self._fcfs else window

    def _scan(self, requests, cycle: int) -> tuple:
        """One pass over ``requests`` (acceptance order) at ``cycle``.

        If some candidate's command is legal at ``cycle``, returns
        ``(when, request, kind)`` for the winner, with ``when <= cycle``:
        the first legal row hit by age, else the first legal
        oldest-per-bank non-hit, which gets PRECHARGE or ACTIVATE (the
        FR-FCFS order; under FCFS ``requests`` is just the head).
        Otherwise returns ``(earliest, None, None)``: the earliest cycle
        any candidate's command becomes legal.

        Legality is ``MemoryController._next_command`` plus
        ``DRAMDevice.can_issue`` in closed form, read straight from the
        bank and device state: exact for fixed state (legality is
        monotone in the cycle), and any issued command invalidates the
        cached time before state changes.  Row hits of one bank and
        direction share a legality, so each such class is computed
        once.  Banks awaiting a committed policy precharge are blocked.
        """
        controller = self.controller
        device = self.device
        banks = device.banks
        timing = device.timing
        close_wanted = controller._close_wanted
        bus_free = device.data_bus_free_cycle
        last_read = device.last_data_was_read
        activate_floor = device.last_activate_cycle + timing.t_rrd
        t_cas = timing.t_cas
        t_turnaround = timing.t_turnaround
        earliest = _NEVER
        prep = prep_kind = None
        seen_banks: set[int] = set()
        seen_hits: set[tuple[int, bool]] = set()
        for request in requests:
            decoded = request.decoded
            index = decoded.bank
            oldest = index not in seen_banks
            if oldest:
                seen_banks.add(index)
            if index in close_wanted:
                continue
            bank = banks[index]
            open_row = bank._open_row  # _settle() never changes it
            if open_row == decoded.row:
                is_read = request.is_read
                key = (index, is_read)
                if key in seen_hits:
                    continue  # same legality as an earlier, older hit
                seen_hits.add(key)
                bus = bus_free
                if last_read is not None and last_read != is_read:
                    bus += t_turnaround
                when = bank._ready_column
                data_start = bus - (t_cas if is_read else 1)
                if data_start > when:
                    when = data_start
                if when <= cycle:
                    return (
                        when,
                        request,
                        CommandType.READ if is_read else CommandType.WRITE,
                    )
            elif oldest and prep is None:
                if open_row is not None:
                    when = bank._ready_precharge
                    kind = CommandType.PRECHARGE
                else:
                    when = bank._ready_activate
                    if activate_floor > when:
                        when = activate_floor
                    kind = CommandType.ACTIVATE
                if when <= cycle:
                    prep, prep_kind = request, kind
                    continue  # a younger legal row hit still wins
            else:
                continue
            if when < earliest:
                earliest = when
        if prep is not None:
            return cycle, prep, prep_kind
        return earliest, None, None

    # -- skip analysis --------------------------------------------------------

    def _skip_target(
        self, next_cycle: int, hard_total: int, warmup_barrier: int
    ) -> int:
        """Furthest cycle such that ``[next_cycle, target)`` is inert.

        Returns ``next_cycle`` itself when the next cycle must be
        stepped.  A span is inert when: refresh is neither draining nor
        due within it, no committed policy precharge can land in it, no
        request can be accepted on any of its cycles (window full or
        all FIFOs empty — the stock arbiters are state-neutral then),
        no back-pressured client's FIFO has room, no queued request's
        command becomes legal, and no idle client's token bucket
        reaches threshold.  Retirement is deliberately not an event:
        completed bursts retire with their recorded end cycle whenever
        the next step happens, and nothing can observe the delay (the
        warm-up reset and final cycle are always stepped).
        """
        controller = self.controller
        if controller._refresh_draining:
            return next_cycle
        target = hard_total - 1
        if next_cycle <= warmup_barrier < target:
            target = warmup_barrier
        refresh = controller._refresh
        if refresh is not None:
            due = refresh.quiescent_until(next_cycle)
            if due < target:
                target = due
            if target <= next_cycle:
                return next_cycle
        device = self.device
        for bank_index in controller._close_wanted:
            bank = device.banks[bank_index]
            if bank._open_row is None:
                return next_cycle  # stale entry: purge by stepping
            ready = bank.earliest_precharge()
            if ready < target:
                target = ready
            if target <= next_cycle:
                return next_cycle
        window = controller.window
        if len(window) < controller.config.window_size:
            for fifo in controller._fifo_list:
                if len(fifo):
                    return next_cycle  # an accept would happen
        if window:
            when = self._next_cmd_time
            if when is None:
                when = self._scan(self._candidates(), next_cycle)[0]
                self._next_cmd_time = when
            if when < target:
                target = when
            if target <= next_cycle:
                return next_cycle
        pending = self.sim._pending
        for name in pending:
            # An accept this cycle may have freed space after the
            # drive phase ran; the held request would then land on the
            # very next re-offer.
            if not controller.fifos[name].full:
                return next_cycle
        wake = self._wake
        for index, client in enumerate(self.sim.clients):
            if client.name in pending:
                continue  # frozen: neither ticks nor polls
            issued, when = wake[index]
            if issued != client.issued or when <= next_cycle:
                when = next_cycle + client.cycles_until_wants(
                    hard_total - next_cycle
                )
                wake[index] = (client.issued, when)
                if when <= next_cycle:
                    return next_cycle
            if when < target:
                target = when
        return target
