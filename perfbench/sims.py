"""Workloads ``sim_sweep`` and ``sim_queue``: simulation sweeps through
an executor.

Each iteration runs two ``Sweep.run`` calls over the MPEG2 five-client
mix (:mod:`perfbench.sim_points`):

* a *light* sweep, offered load <= 0.3 and long runs, where
  fast-forward skips most cycles and per-point work is small, so
  executor and dispatch overhead shows;
* a *saturated* sweep, offered load >= 0.9, where fast-forward finds
  nothing to skip and the controller scan dominates.

``sim_sweep`` evaluates both through
``LocalPoolExecutor(ParallelConfig(workers=nproc))``; ``sim_queue``
through ``WorkQueueExecutor(workers=nproc)`` with a fresh queue
directory per call; the executor spawns its worker processes for every
map call.
"""

from __future__ import annotations

import os
import random
import shutil
import threading
import time

from perfbench import lib

#: Offered-load bins; one load is drawn from each bin per run.
LIGHT_BINS = ((0.04, 0.06), (0.11, 0.13), (0.19, 0.21), (0.27, 0.29))
SATURATED_BINS = ((0.90, 0.95), (1.00, 1.05), (1.10, 1.15), (1.20, 1.25))
LIGHT_CYCLES = 15_000
SATURATED_CYCLES = 1_500
#: Client-seed variants per sweep call.  The seed axis comes first, so
#: the pool's contiguous per-worker chunks each hold every load.
VARIANTS = 2
#: Iterations whose client seeds are generated up front (a run stops
#: when its time is up, long before this).
MAX_ITERATIONS = 200
#: Points per kind re-run serially for the correctness check.
CHECK_SAMPLE = 2


def make_inputs(seed: int) -> dict:
    """Grid values and per-iteration client seeds, all from ``seed``."""
    rng = random.Random(f"sim-{seed}")
    return {
        "light_loads": [round(rng.uniform(*b), 4) for b in LIGHT_BINS],
        "saturated_loads": [
            round(rng.uniform(*b), 4) for b in SATURATED_BINS
        ],
        "client_seeds": [
            [[rng.randrange(1, 1 << 20) for _ in range(VARIANTS)]
             for _ in range(2)]
            for _ in range(MAX_ITERATIONS)
        ],
    }


def _sweep(loads, client_seeds: list, cycles: int):
    from repro.core.sweep import Sweep

    return Sweep(axes={
        "seed": list(client_seeds), "load": list(loads), "cycles": [cycles],
    })


def _make_executor(workload: str, workers: int, queue_dir):
    from repro.core.executor import LocalPoolExecutor, WorkQueueExecutor
    from repro.core.parallel import ParallelConfig

    if workload == "sim_queue":
        return WorkQueueExecutor(queue_dir, workers=workers)
    return LocalPoolExecutor(ParallelConfig(workers=workers))


def _setup_code(workload: str, queue_dir) -> str:
    return (
        "import perfbench.sim_points\n"
        "from perfbench.sims import _make_executor\n"
        f"_make_executor({workload!r}, {os.cpu_count() or 1}, "
        f"{str(queue_dir)!r}).close()\n"
    )


class _HeartbeatWatch:
    """Polls ``WorkQueue.worker_records()`` for each worker's first
    heartbeat while a traced queue map runs."""

    def __init__(self, queue, period_s: float = 0.01) -> None:
        self.queue = queue
        self.period_s = period_s
        self.first_beat: dict = {}  # pid -> wall time of first heartbeat
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                records = self.queue.worker_records()
            except OSError:  # the coordinator resets the queue per map
                records = []
            for record in records:
                self.first_beat.setdefault(record["pid"], record["t"])
            self._stop.wait(self.period_s)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


def check_sample(calls: list, rerun, rng: random.Random) -> int:
    """Re-run a seeded sample of points serially; fingerprints must match.

    ``calls`` holds the first iteration's sweep calls as
    ``(kind, sweep result)``; ``rerun(**parameters)`` evaluates one point
    in-process.  Returns the number of points checked.
    """
    checked = 0
    for kind, result in calls:
        if result.failures:
            raise lib.CheckFailed(
                f"{kind} sweep had {len(result.failures)} failed points"
            )
        points = list(result.points)
        for point in rng.sample(points, min(CHECK_SAMPLE, len(points))):
            again = rerun(**point.parameters)
            if again["fingerprint"] != point.result["fingerprint"]:
                raise lib.CheckFailed(
                    f"{kind} point {point.parameters} differs from its "
                    "serial re-run on result_fingerprint"
                )
            checked += 1
    return checked


def measure(workload: str, seed: int, seconds: float, tracer=None) -> dict:
    from repro.core.executor import LocalPoolExecutor, WorkQueueExecutor
    from repro.core.sweep import Sweep
    from repro.obs.metrics import GLOBAL_METRICS

    from perfbench.sim_points import run_point

    workers = os.cpu_count() or 1
    queue_root = lib.OUT / f"queues-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(queue_root, ignore_errors=True)
    setup = lib.time_fresh_import(
        _setup_code(workload, queue_root / "setup"))
    inputs = make_inputs(seed)
    queued = workload == "sim_queue"
    executor_class = WorkQueueExecutor if queued else LocalPoolExecutor
    spawns: dict = {}  # pid -> wall time of spawn
    first_beat: dict = {}  # pid -> wall time of first heartbeat
    requeued = 0

    def note_spawn(args, kwargs, proc) -> dict:
        spawns[proc.pid] = time.time()
        return {"pid": proc.pid}

    if tracer is not None:
        GLOBAL_METRICS.reset()
        GLOBAL_METRICS.enabled = True
        tracer.wrap(Sweep, "run", "core.sweep")
        tracer.wrap(executor_class, "map", "core.executor")
        if queued:
            tracer.wrap(WorkQueueExecutor, "spawn_worker", "core.worker",
                        annotate=note_spawn)
    kinds = (
        ("light", inputs["light_loads"], LIGHT_CYCLES),
        ("saturated", inputs["saturated_loads"], SATURATED_CYCLES),
    )
    calls = []  # (kind, iteration, wall_s, sweep result)
    # The pool executor is reused; the work queue gets a fresh directory
    # (and executor) per call: reusing one queue for back-to-back maps
    # lets the previous map's draining workers claim the next map's
    # half-written chunk files.
    pool = None if queued else _make_executor(workload, workers, None)
    try:
        deadline = time.perf_counter() + seconds
        for iteration, seeds in enumerate(inputs["client_seeds"]):
            if iteration and time.perf_counter() >= deadline:
                break
            for (kind, loads, cycles), client_seeds in zip(kinds, seeds):
                sweep = _sweep(loads, client_seeds, cycles)
                executor = pool if pool is not None else _make_executor(
                    workload, workers, queue_root / f"call-{len(calls)}")
                watch = (_HeartbeatWatch(executor.queue)
                         if queued and tracer is not None else None)
                try:
                    if watch is not None:
                        watch.start()
                    started = time.perf_counter()
                    result = sweep.run(run_point, executor=executor,
                                       skip_errors=True)
                    wall = time.perf_counter() - started
                finally:
                    if watch is not None:
                        watch.stop()
                        first_beat.update(watch.first_beat)
                    if executor is not pool:
                        # close() may kill a worker without reaping it.
                        spawned = list(executor._procs)
                        executor.close()
                        for proc in spawned:
                            proc.wait()
                        requeued += executor.stats["requeued"]
                calls.append((kind, iteration, wall, result))
    finally:
        if pool is not None:
            pool.close()
        if tracer is not None:
            tracer.restore()
            GLOBAL_METRICS.enabled = False
        shutil.rmtree(queue_root, ignore_errors=True)
    peak = lib.peak_rss_self_mb() + lib.peak_rss_children_mb()
    checked = check_sample(
        [(kind, result) for kind, it, _, result in calls if it == 0],
        run_point,
        random.Random(f"check-{seed}"),
    )
    points = [p for _, _, _, r in calls for p in r.points]
    failed = sum(len(r.failures) for _, _, _, r in calls)

    def cycles_per_s(kind):
        chosen = [(w, r) for k, _, w, r in calls if k == kind]
        cycles = sum(p.result["simulated_cycles"]
                     for _, r in chosen for p in r.points)
        return cycles / sum(w for w, _ in chosen)

    def call_ms(kind):
        return lib.median(w * 1e3 for k, _, w, _ in calls if k == kind)

    total_cycles = sum(p.result["simulated_cycles"] for p in points)
    outcome = {
        "attempted": len(points) + failed,
        "failed": failed,
        "checked": checked,
        "e2e": {
            "setup_s": lib.median(setup),
            "peak_rss_mb": peak,
            "heavy_p50_ms": call_ms("saturated"),
            "light_p50_ms": call_ms("light"),
            "throughput_per_s": total_cycles / sum(w for _, _, w, _ in calls),
        },
        "readable": {
            "sim_light_cycles_per_s": (cycles_per_s("light"), "cycles/s"),
            "sim_saturated_cycles_per_s": (
                cycles_per_s("saturated"), "cycles/s"),
            "sweep_calls": (len(calls), "count"),
        },
    }
    if tracer is not None:
        outcome["per_layer"] = _layer_metrics(
            calls, tracer, workers, GLOBAL_METRICS,
        )
        if queued:
            startups = [first_beat[pid] - t for pid, t in spawns.items()
                        if pid in first_beat]
            if not startups:
                raise lib.CheckFailed("no work-queue worker ever heartbeat")
            outcome["per_layer"]["core.worker.startup_s"] = lib.median(
                startups)
            outcome["per_layer"]["core.worker.requeued"] = requeued
        outcome["lanes"] = _worker_lanes(points)
    return outcome


def _layer_metrics(calls, tracer, workers, registry) -> dict:
    own = lib.self_times(tracer.spans)
    sweep_spans = [s for s in tracer.spans if s["layer"] == "core.sweep"]
    map_spans = [s for s in tracer.spans
                 if s["layer"] == "core.executor" and s["name"] == "map"]
    busy = sum(p.result["busy_s"] for _, _, _, r in calls for p in r.points)
    map_s = sum(lib.span_ms(s) for s in map_spans) / 1e3
    first = [p.result for k, it, _, r in calls if it == 0 for p in r.points]
    metrics = {
        "core.sweep.run_self_s": lib.median(
            own[s["id"]] / 1e3 for s in sweep_spans),
        "core.executor.map_s": lib.median(
            lib.span_ms(s) / 1e3 for s in map_spans),
        "core.executor.utilization": busy / (workers * map_s),
        "core.parallel.chunks_per_map": (
            registry.value("parallel_map.chunk_us") or 0) / len(map_spans),
        "core.parallel.retries": registry.value("parallel_map.retries") or 0,
        "core.parallel.fallbacks":
            registry.value("parallel_map.fallbacks") or 0,
        "core.worker.startup_s": 0.0,
        "core.worker.requeued": 0,
        "controller.requests_completed": sum(p["requests"] for p in first),
        "controller.row_hit_rate": sum(
            p["row_hit_rate"] for p in first) / len(first),
    }
    for kind in ("light", "saturated"):
        results = [p.result for k, _, _, r in calls if k == kind
                   for p in r.points]
        metrics[f"sim.simulator.run_s.{kind}"] = lib.median(
            p["run_s"] for p in results)
        metrics[f"sim.simulator.host_us_per_request.{kind}"] = lib.median(
            p["run_s"] * 1e6 / p["requests"] for p in results)
    light_first = [p.result for k, it, _, r in calls
                   if it == 0 and k == "light" for p in r.points]
    metrics["sim.simulator.fast_forward_share"] = sum(
        p["fast_forwarded"] for p in light_first) / sum(
        p["simulated_cycles"] for p in light_first)
    every = [p.result for _, _, _, r in calls for p in r.points]
    metrics["sim.simulator.event_backend_share"] = sum(
        1 for p in every if p["backend"] == "event") / len(every)
    return metrics


def _worker_lanes(points) -> list:
    """One trace lane per worker process, one span per simulator run."""
    lanes: dict = {}
    for point in points:
        value = point.result
        start, end = value["run_ns"]
        lanes.setdefault(value["pid"], []).append({
            "id": f"{value['pid']}-run-{start}",
            "parent": None,
            "layer": "sim.simulator",
            "name": "run",
            "pid": value["pid"],
            "tid": value["pid"],
            "start": start,
            "end": end,
            "args": {"requests": value["requests"],
                     "backend": value["backend"]},
        })
    return [(f"worker {pid}", spans) for pid, spans in sorted(lanes.items())]
