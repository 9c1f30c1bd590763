"""The sweep point the simulation workloads evaluate.

Lives in its own small module so process-pool children and work-queue
workers (which unpickle the task by reference) can import it; nothing
here runs at import time.

The system is the MPEG2-decoder five-client mix of
``repro.obs.workloads.mpeg2_decoder_simulator`` — display and
motion-compensation reads beside reconstruction writes, a bitstream
stream and a CPU-like random client on one 16-Mbit macro — rebuilt from
the public constructors so that the client seeds come from the workload
seed and ``SimulationConfig`` keeps its defaults: neither ``backend``
nor ``fast_forward`` is pinned, so a change of default is measured.
"""

from __future__ import annotations

import hashlib
import os
import time

#: Traffic shares of the offered load (display, motion compensation,
#: reconstruction, bitstream, CPU), as in the canned MPEG2 workload.
SHARES = (0.35, 0.30, 0.20, 0.05, 0.10)
WARMUP_CYCLES = 1_000


def build_simulator(load: float, seed: int, cycles: int):
    from repro.controller.controller import ControllerConfig, MemoryController
    from repro.dram.edram import EDRAMMacro
    from repro.dram.organizations import AddressMapping, MappingScheme
    from repro.sim.simulator import MemorySystemSimulator, SimulationConfig
    from repro.traffic.client import ClientKind, MemoryClient
    from repro.traffic.patterns import (
        BlockPattern,
        RandomPattern,
        SequentialPattern,
    )
    from repro.units import MBIT

    macro = EDRAMMacro.build(
        size_bits=16 * MBIT, width=64, banks=8, page_bits=4096
    )
    device = macro.device()
    controller = MemoryController(
        device=device,
        mapping=AddressMapping(device.organization, MappingScheme.ROW_BANK_COL),
        config=ControllerConfig(),
    )
    total = device.organization.total_words
    burst = device.timing.burst_length
    frame = total // 4
    display, motion, reconstruct, bitstream, cpu = SHARES

    def block(base):
        return BlockPattern(
            base=base, width=720, height=256, block_w=16, block_h=16
        )

    clients = [
        MemoryClient(
            name="display",
            pattern=SequentialPattern(base=0, length=frame),
            rate=load * display / burst,
            kind=ClientKind.STREAM,
            seed=seed + 1,
        ),
        MemoryClient(
            name="motion",
            pattern=block(frame),
            rate=load * motion / burst,
            kind=ClientKind.BLOCK,
            seed=seed + 2,
        ),
        MemoryClient(
            name="reconstruct",
            pattern=block(2 * frame),
            rate=load * reconstruct / burst,
            read_fraction=0.0,
            kind=ClientKind.BLOCK,
            seed=seed + 3,
        ),
        MemoryClient(
            name="bitstream",
            pattern=SequentialPattern(base=3 * frame, length=frame // 4),
            rate=load * bitstream / burst,
            kind=ClientKind.STREAM,
            seed=seed + 4,
        ),
        MemoryClient(
            name="cpu",
            pattern=RandomPattern(base=0, length=total, seed=seed + 5),
            rate=load * cpu / burst,
            read_fraction=0.6,
            kind=ClientKind.RANDOM,
            seed=seed + 5,
        ),
    ]
    return MemorySystemSimulator(
        controller=controller,
        clients=clients,
        config=SimulationConfig(cycles=cycles, warmup_cycles=WARMUP_CYCLES),
    )


def fingerprint_digest(result) -> str:
    from repro.verify.differential import result_fingerprint

    return hashlib.sha256(
        repr(result_fingerprint(result)).encode()
    ).hexdigest()


def run_point(load: float, seed: int, cycles: int) -> dict:
    """Simulate one grid point; simulated statistics plus host timings.

    ``fingerprint`` (a digest of ``result_fingerprint``), ``requests``
    and ``row_hit_rate`` are deterministic.  The host timings are taken
    here, inside the worker: ``busy_s`` covers the whole point and
    ``run_s`` only ``simulator.run``, whose monotonic-clock bounds
    (``run_ns``) place it on the traced run's time line.
    """
    started = time.perf_counter()
    simulator = build_simulator(load, seed, cycles)
    run_started = time.perf_counter_ns()
    result = simulator.run()
    run_ended = time.perf_counter_ns()
    return {
        "fingerprint": fingerprint_digest(result),
        "requests": result.requests_completed,
        "row_hit_rate": result.row_hit_rate,
        "simulated_cycles": cycles + WARMUP_CYCLES,
        "fast_forwarded": simulator.cycles_fast_forwarded,
        "backend": simulator.backend_used,
        "run_s": (run_ended - run_started) / 1e9,
        "run_ns": (run_started, run_ended),
        "pid": os.getpid(),
        "busy_s": time.perf_counter() - started,
    }
