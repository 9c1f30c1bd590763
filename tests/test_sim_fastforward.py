"""Event-engine skipping vs the stepped reference loop + pacing.

``run()`` jumps over inert spans on the event engine; it must be
*observationally indistinguishable* from ``run_reference()``, which
steps every cycle: same completed requests in the same order, same
command counts, same latency samples, same FIFO statistics.  The grid
here crosses client mixes, bank counts, refresh, page policy and
controller subclasses (which ``run()`` hands to the reference loop);
any divergence is a bug in the skip-safety analysis, not an acceptable
approximation.

Also pins the token-bucket pacing contract the skips rely on: credit
accrual freezes while a client's request is back-pressured.
"""

import pytest

from repro.controller.controller import ControllerConfig, MemoryController
from repro.controller.page_policy import ClosedPagePolicy
from repro.controller.prefetch import PrefetchingMemoryController
from repro.controller.rowcache import RowCacheController
from repro.dram.edram import EDRAMMacro
from repro.dram.organizations import AddressMapping, MappingScheme
from repro.errors import ConfigurationError
from repro.sim.simulator import MemorySystemSimulator, SimulationConfig
from repro.traffic.client import MemoryClient
from repro.traffic.patterns import RandomPattern, SequentialPattern
from repro.units import MBIT
from repro.verify.differential import result_fingerprint


def make_clients(mix: str, rate: float):
    if mix == "stream":
        return [
            MemoryClient(
                name="s0",
                pattern=SequentialPattern(base=0, length=32768),
                rate=rate,
            )
        ]
    if mix == "mixed":
        return [
            MemoryClient(
                name="s0",
                pattern=SequentialPattern(base=0, length=32768),
                rate=rate,
            ),
            MemoryClient(
                name="r0",
                pattern=RandomPattern(base=0, length=262144, seed=5),
                rate=rate,
                read_fraction=0.6,
                seed=5,
            ),
        ]
    raise ValueError(mix)


def build(
    mix="mixed",
    rate=0.02,
    banks=4,
    refresh=True,
    policy=None,
    controller_cls=MemoryController,
    cycles=3000,
    warmup=300,
    fifo_capacity=8,
):
    macro = EDRAMMacro.build(
        size_bits=4 * MBIT, width=64, banks=banks, page_bits=2048
    )
    device = macro.device()
    kwargs = {}
    if policy is not None:
        kwargs["page_policy"] = policy
    controller = controller_cls(
        device=device,
        mapping=AddressMapping(
            device.organization, MappingScheme.ROW_BANK_COL
        ),
        config=ControllerConfig(
            refresh_enabled=refresh, fifo_capacity=fifo_capacity
        ),
        **kwargs,
    )
    return MemorySystemSimulator(
        controller=controller,
        clients=make_clients(mix, rate),
        config=SimulationConfig(cycles=cycles, warmup_cycles=warmup),
    )


def assert_equivalent(**kwargs):
    reference = build(**kwargs)
    engine = build(**kwargs)
    assert result_fingerprint(reference.run_reference()) == (
        result_fingerprint(engine.run())
    )
    assert reference.cycles_fast_forwarded == 0
    return engine


class TestFastForwardEquivalence:
    @pytest.mark.parametrize("rate", [0.002, 0.02, 0.1, 0.9])
    def test_load_grid(self, rate):
        assert_equivalent(rate=rate)

    @pytest.mark.parametrize("banks", [1, 4])
    def test_bank_grid(self, banks):
        assert_equivalent(banks=banks, rate=0.01)

    @pytest.mark.parametrize("refresh", [True, False])
    def test_refresh_grid(self, refresh):
        assert_equivalent(refresh=refresh, rate=0.01)

    def test_closed_page_policy(self):
        assert_equivalent(policy=ClosedPagePolicy(), rate=0.01)

    def test_prefetch_controller(self):
        # A controller subclass runs on the reference loop, and says so.
        sim = assert_equivalent(
            controller_cls=PrefetchingMemoryController,
            mix="stream",
            rate=0.05,
        )
        assert sim.backend_used == "cycle"
        assert "PrefetchingMemoryController" in sim.backend_fallback_reason

    def test_rowcache_controller(self):
        sim = assert_equivalent(
            controller_cls=RowCacheController, mix="stream", rate=0.05
        )
        assert sim.backend_used == "cycle"
        assert "RowCacheController" in sim.backend_fallback_reason

    def test_zero_warmup(self):
        assert_equivalent(warmup=0, rate=0.01)

    def test_single_stream(self):
        assert_equivalent(mix="stream", rate=0.005)

    def test_fast_path_actually_skips(self):
        sim = build(rate=0.002)
        sim.run()
        # At 0.2% offered load the run is overwhelmingly idle; an
        # engine that never skips is a silently-broken engine.
        assert sim.backend_used == "event"
        assert sim.cycles_fast_forwarded > 1000

    def test_fast_forward_off_steps_every_cycle(self):
        sim = build(rate=0.002)
        sim.run_reference()
        assert sim.backend_used == "cycle"
        assert sim.cycles_fast_forwarded == 0

    def test_backpressure_equivalence(self):
        # A 1-deep FIFO under load keeps requests held back: the engine
        # freezes their credit and books one stall per skipped cycle.
        sim = assert_equivalent(rate=0.5, fifo_capacity=1)
        assert sum(sim.controller.fifos[n].stall_cycles for n in (
            "s0", "r0")) > 0


class TestPacingContract:
    def test_tick_many_matches_iterated_ticks(self):
        a = MemoryClient(
            name="a",
            pattern=SequentialPattern(base=0, length=1024),
            rate=0.003,
        )
        b = MemoryClient(
            name="b",
            pattern=SequentialPattern(base=0, length=1024),
            rate=0.003,
        )
        for span in (1, 7, 100, 333):
            for _ in range(span):
                a.tick()
            b.tick_many(span)
            # Bit-identical, not approximately equal: tick_many
            # replays the per-cycle loop's float rounding sequence.
            assert a._credit == b._credit

    def test_cycles_until_wants_is_pure_lookahead(self):
        client = MemoryClient(
            name="c",
            pattern=SequentialPattern(base=0, length=1024),
            rate=0.01,
        )
        before = client._credit
        ticks = client.cycles_until_wants(1000)
        assert client._credit == before
        for _ in range(ticks):
            assert not client.wants_to_issue(0)
            client.tick()
        assert client.wants_to_issue(0)

    def test_cursor_follows_mixed_ticks_and_issues(self):
        """tick, tick_many and lookahead share one cursor along the
        memoized trajectory; every mix matches plain per-cycle ticks,
        across issues."""
        def make():
            return MemoryClient(
                name="c",
                pattern=SequentialPattern(base=0, length=1024),
                rate=0.0137,
            )

        mixed, stepped = make(), make()
        for _ in range(12):
            wait = mixed.cycles_until_wants(10_000)
            brute = 0
            while not stepped.wants_to_issue(0):
                stepped.tick()
                brute += 1
            assert wait == brute
            plan = mixed._plan
            done = 0
            for span in (1, 5, 0, 13):
                span = min(span, wait - done)
                mixed.tick_many(span)
                done += span
                if done < wait:
                    mixed.tick()
                    done += 1
                # Still on the memoized trajectory: no re-anchor.
                assert mixed._plan is plan
                assert mixed.cycles_until_wants(10_000) == wait - done
            mixed.tick_many(wait - done)
            assert mixed.credit == stepped.credit
            assert mixed.wants_to_issue(0)
            mixed.next_request()
            stepped.next_request()

    def test_cycles_until_wants_respects_limit(self):
        client = MemoryClient(
            name="c",
            pattern=SequentialPattern(base=0, length=1024),
            rate=0.001,
        )
        assert client.cycles_until_wants(10) == 10

    def test_negative_arguments_rejected(self):
        client = MemoryClient(
            name="c",
            pattern=SequentialPattern(base=0, length=1024),
            rate=0.5,
        )
        with pytest.raises(ConfigurationError):
            client.tick_many(-1)
        with pytest.raises(ConfigurationError):
            client.cycles_until_wants(-1)

    def test_credit_freezes_under_backpressure(self):
        """The pinned pacing semantics: a back-pressured client accrues
        no credit while its request is held in the simulator's pending
        slot (the held request already spent its credit; banking more
        would burst out after the stall and distort pacing)."""
        sim = build(rate=0.5, fifo_capacity=1)
        client = sim.clients[0]
        observed_frozen = False
        total = sim.config.warmup_cycles + sim.config.cycles
        # Drive the loop manually, watching the pending slot.
        for cycle in range(total):
            pending_before = client.name in sim._pending
            credit_before = client._credit
            issued_before = client.issued
            sim._drive_clients(cycle)
            if pending_before and client.name in sim._pending:
                # Still back-pressured: credit frozen, nothing issued.
                assert client._credit == credit_before
                assert client.issued == issued_before
                observed_frozen = True
            sim.controller.step(cycle)
        assert observed_frozen, "scenario never back-pressured the client"
