"""Workload ``explore_http``: seeded ``explore`` jobs against ``repro serve``.

A ``repro serve`` subprocess runs with default settings (``--port 0``
only).  Two closed-loop clients, each a ``ServeClient`` calling
``run(job)``, share one seeded job list.  Each job is a variant of one
of the application presets the repository already explores (PRESETS),
with its own capacity, bandwidth and locality drawn from the seed, and
a share of the jobs repeat a recent job, so cache fills (cold jobs) sit
beside cache reads.  Warm replay blocks, in which every job is a
cache hit, alternate with the mixed blocks.

The preset values come from the repository.  The variant spread
(VARIANT_OCTAVES, VARIANT_LOCALITY) and the repeat share (REPEAT_SHARE,
REPEAT_WINDOW) do not: no request log exists to take them from.  They
are assumptions, chosen so that every job is distinct and both cold and
warm work appear.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import threading
import time

from perfbench import lib

#: Jobs generated per run; a run stops when its time is up long before.
MAX_JOBS = 6000
#: The application requirements the repository explores, as
#: (name, capacity in bits, sustained bandwidth in bit/s, other fields).
PRESETS = (
    # E10's mpeg2_requirements() and examples/mpeg2_decoder_memory.py:
    # MPEG2MemoryBudget().total_bits and total_bandwidth_bits_per_s().
    ("MPEG2 decoder", 16_764_928, 0.5940192e9,
     {"max_latency_ns": 400.0, "volume_per_year": 10_000_000,
      "locality": 0.6}),
    # examples/design_space_exploration.py: GraphicsFrameStore(800, 600).
    ("laptop 3D graphics", 27_234_304, 4.608e9,
     {"max_latency_ns": 300.0, "volume_per_year": 5_000_000,
      "portable": True, "locality": 0.75}),
    # examples/pc_main_memory.py (the apps.pcmemory customer); the
    # locality is ApplicationRequirements' default.
    ("PC main memory", 64 * 2 ** 20, 0.8e9 * 8,
     {"volume_per_year": 100_000_000, "portable": False, "locality": 0.7}),
)
#: Assumed variant spread: capacity and bandwidth are each scaled by
#: 2 ** u, u uniform in [-VARIANT_OCTAVES, VARIANT_OCTAVES], and the
#: locality moves by up to VARIANT_LOCALITY.
VARIANT_OCTAVES = 0.5
VARIANT_LOCALITY = 0.05
#: Assumed share of jobs that repeat one of the previous REPEAT_WINDOW
#: jobs.
REPEAT_SHARE = 0.2
REPEAT_WINDOW = 64
#: Distinct cold jobs replayed in a warm block: the latest ones, few
#: enough that the server's default 256-entry LRU result cache still
#: holds every one of them.
REPLAY_JOBS = 50
#: The mixed and warm phases alternate in blocks of these lengths, so
#: both sample the whole run rather than one end of it.
MIXED_BLOCK_S = 1.4
WARM_BLOCK_S = 0.6
CLIENTS = 2
#: One client in the warm blocks: two closed-loop clients on a
#: single-threaded event loop make cache-hit latency bimodal (alone or
#: queued behind the other client), and its median flips between modes.
WARM_CLIENTS = 1
SETUP_REPEATS = 3
#: Cold frontiers re-computed in-process for the reference check.
REFERENCE_SAMPLE = 8


def make_jobs(seed: int, n: int = MAX_JOBS) -> list:
    """Seeded explore jobs: variants of each preset in turn, and repeats.

    The presets take turns rather than being drawn, so every seed has
    the same mix of them.
    """
    rng = random.Random(f"explore-{seed}")
    jobs: list = []
    for index in range(n):
        if index >= REPEAT_WINDOW and rng.random() < REPEAT_SHARE:
            jobs.append(jobs[index - 1 - rng.randrange(REPEAT_WINDOW)])
            continue
        _, bits, bits_per_s, fields = PRESETS[index % len(PRESETS)]

        def scaled(value):
            return value * 2 ** rng.uniform(-VARIANT_OCTAVES,
                                            VARIANT_OCTAVES)

        locality = fields["locality"] + rng.uniform(-VARIANT_LOCALITY,
                                                    VARIANT_LOCALITY)
        jobs.append({
            "kind": "explore",
            "requirements": {
                **fields,
                "name": f"bench-{seed}-{index}",
                "capacity_mbit": round(scaled(bits) / 2 ** 20, 3),
                "bandwidth_gbit_s": round(scaled(bits_per_s) / 2 ** 30, 3),
                "locality": round(locality, 3),
            },
        })
    return jobs


def tally(completed: int, errors: list, shed: int) -> tuple:
    """``(attempted, failed)`` of a run.

    ``ServeClient.run`` retries a 429 ``overloaded`` submission itself,
    so the client never sees it; the server's ``shed`` count adds each
    one as a refused attempt.
    """
    refused = len(errors) + shed
    return completed + refused, refused


def _client_class():
    from repro.serve.client import ServeClient

    class RecordingClient(ServeClient):
        """``ServeClient`` that keeps the submit response and the exact
        result bytes of its last ``run``."""

        def submit(self, job):
            self.last_submit = super().submit(job)
            return self.last_submit

        def result(self, job_id):
            self.last_raw = self.result_bytes(job_id)
            return json.loads(self.last_raw)

    return RecordingClient


class Server:
    """One ``repro serve`` subprocess, optionally behind the launcher."""

    def __init__(self, spans_path=None) -> None:
        args = ["serve", "--port", "0"]
        if spans_path is None:
            command = [sys.executable, "-m", "repro.serve", *args]
        else:
            launcher = lib.ROOT / "perfbench" / "serve_launcher.py"
            command = [sys.executable, str(launcher), str(spans_path), *args]
        log_path = lib.scratch_dir("logs") / "serve.log"
        started = time.perf_counter()
        with open(log_path, "a") as log:
            self.proc = subprocess.Popen(
                command, cwd=lib.ROOT, stdout=subprocess.PIPE, stderr=log,
                text=True,
            )
        try:
            line = self.proc.stdout.readline()
            if "listening on " not in line:
                raise lib.CheckFailed(
                    f"server did not start: {line!r} (see {log_path})")
            self.url = line.split("listening on ", 1)[1].strip()
            self._await_health()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _await_health(self, timeout_s: float = 30.0) -> None:
        client = _client_class()(self.url, timeout_s=5.0)
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                client.healthz()
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def stop(self) -> None:
        # SIGTERM, not SIGINT: a parent started in the background may
        # have left SIGINT ignored, and that disposition is inherited.
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _drive(url: str, take, deadline: float, records: list, errors: list,
           clients: int = CLIENTS):
    """Closed-loop clients: the next job goes out when the last returns."""
    Client = _client_class()
    lock = threading.Lock()

    def loop() -> None:
        client = Client(url, timeout_s=60.0)
        while time.perf_counter() < deadline:
            with lock:
                item = take()
            if item is None:
                return
            index, job = item
            started = time.perf_counter()
            try:
                client.run(job)
            except Exception as error:  # noqa: BLE001 - counted as failed
                errors.append(f"job {index}: {error!r}")
                continue
            rtt = time.perf_counter() - started
            end_ns = time.perf_counter_ns()
            submitted = client.last_submit
            with lock:
                records.append({
                    "index": index,
                    "job_id": submitted["job_id"],
                    "fingerprint": submitted["fingerprint"],
                    "cold": not submitted["cached"]
                    and submitted["coalesced_with"] is None,
                    "cached": submitted["cached"],
                    "rtt_ms": rtt * 1e3,
                    "raw": client.last_raw,
                    "end_ns": end_ns,
                    "thread": threading.get_ident(),
                })

    threads = [threading.Thread(target=loop) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def check_warm_identical(records: list) -> int:
    """Every response is byte-identical to the first cold one of its job.

    Returns the number of responses compared.
    """
    cold = {}
    for record in records:
        if record["cold"]:
            cold.setdefault(record["fingerprint"], record["raw"])
    for record in records:
        expected = cold.get(record["fingerprint"])
        if expected is None:
            raise lib.CheckFailed(
                f"warm job {record['job_id']} has no cold response"
            )
        if record["raw"] != expected:
            raise lib.CheckFailed(
                f"job {record['job_id']} differs from its cold bytes"
            )
    return len(records) - len(cold)


def reference_document(job: dict) -> dict:
    """The explore result fields an in-process explorer computes."""
    import dataclasses

    from repro.core.explorer import DesignSpaceExplorer
    from repro.serve.protocol import canonical_json, parse_job

    result = DesignSpaceExplorer().explore(parse_job(job).to_requirements())
    return json.loads(canonical_json({
        "n_explored": result.n_explored,
        "n_feasible": len(result.feasible),
        "frontier": [dataclasses.asdict(m) for m in result.frontier],
    }))


def check_reference(samples: list) -> int:
    """Served cold frontiers equal an in-process ``DesignSpaceExplorer``.

    ``samples`` is a list of ``(job, raw result bytes)``.
    """
    for job, raw in samples:
        served = json.loads(raw)["result"]
        expected = reference_document(job)
        got = {key: served[key] for key in expected}
        if got != expected:
            raise lib.CheckFailed(
                f"served frontier for {job['requirements']['name']} "
                "differs from the in-process explorer"
            )
    return len(samples)


def measure(seed: int, seconds: float, tracer=None) -> dict:
    jobs = make_jobs(seed)
    spans_path = None
    if tracer is not None:
        spans_path = lib.scratch_dir("spans") / f"serve-{seed}.json"
        spans_path.unlink(missing_ok=True)
    with lib.idle_spinners():
        setups = []
        for _ in range(SETUP_REPEATS - 1):
            server = Server(spans_path)
            setups.append(server.setup_s)
            server.stop()
        server = Server(spans_path)
        setups.append(server.setup_s)
        mixed, warm, errors = [], [], []
        warmup_mixed, warmup_warm = [], []
        rates = []  # jobs/s of each timed mixed block
        try:
            Client = _client_class()
            stats_client = Client(server.url)
            cursor = iter(enumerate(jobs))
            position = iter(range(10 ** 9))

            def cycle(mixed_records, warm_records) -> float:
                """One mixed block, then one warm block; the mixed jobs/s."""
                started = time.perf_counter()
                count = len(mixed_records)
                _drive(server.url, lambda: next(cursor, None),
                       started + MIXED_BLOCK_S, mixed_records, errors)
                rate = (len(mixed_records) - count) / (
                    time.perf_counter() - started)
                replay = _replay_list(jobs, mixed_records)
                _drive(server.url,
                       lambda: replay[next(position) % len(replay)],
                       time.perf_counter() + WARM_BLOCK_S, warm_records,
                       errors, clients=WARM_CLIENTS)
                return rate

            # One untimed cycle first: a fresh server's first mixed block
            # ran 5 to 30% below the later blocks of its run.
            cycle(warmup_mixed, warmup_warm)
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline:
                rates.append(cycle(mixed, warm))
            stats = stats_client.stats()
            peak = lib.vm_hwm_mb(server.proc.pid)
        finally:
            server.stop()
    if errors:
        print(f"explore_http: {len(errors)} failed jobs, first: {errors[0]}",
              file=sys.stderr)
    missed = [r for r in warmup_warm + warm if not r["cached"]]
    if missed:
        raise lib.CheckFailed(f"{len(missed)} replay jobs missed the cache")
    warmup = warmup_mixed + warmup_warm
    checked = check_warm_identical(warmup + mixed + warm)
    rng = random.Random(f"reference-{seed}")
    cold = sorted((r for r in mixed if r["cold"]), key=lambda r: r["index"])
    sample = rng.sample(cold, min(REFERENCE_SAMPLE, len(cold)))
    checked += check_reference([(jobs[r["index"]], r["raw"]) for r in sample])
    cold_ms = [r["rtt_ms"] for r in cold]
    attempted, failed = tally(len(warmup) + len(mixed) + len(warm), errors,
                              stats["shed"])
    outcome = {
        "attempted": attempted,
        "failed": failed,
        "checked": checked,
        "e2e": {
            "setup_s": lib.median(setups),
            "peak_rss_mb": peak,
            "heavy_p50_ms": lib.median(cold_ms),
            "light_p50_ms": lib.median(r["rtt_ms"] for r in warm),
            "throughput_per_s": lib.median(rates),
        },
        "readable": {
            "explore_cold_p50_ms": (lib.median(cold_ms), "ms"),
            "explore_cold_p90_ms": (lib.percentile(cold_ms, 90), "ms"),
            "explore_cold_samples": (len(cold_ms), "count"),
            "explore_warm_p50_ms": (
                lib.median(r["rtt_ms"] for r in warm), "ms"),
            "explore_jobs_per_s": (lib.median(rates), "jobs/s"),
        },
    }
    if len(cold_ms) < 100:
        print(f"explore_http: only {len(cold_ms)} cold samples; "
              "explore_cold_p90_ms needs 100", file=sys.stderr)
    if tracer is not None:
        process, server_spans = lib.load_spans(spans_path)
        client_spans = _client_spans(mixed + warm)
        tracer.spans.extend(client_spans)
        outcome["per_layer"] = layer_metrics(
            server_spans, mixed + warm, stats, outcome["e2e"]["heavy_p50_ms"]
        )
        outcome["lanes"] = [(process, server_spans)]
    return outcome


def _replay_list(jobs: list, mixed: list) -> list:
    """The last REPLAY_JOBS distinct cold jobs, in completion order."""
    seen, replay = set(), []
    for record in reversed(mixed):
        if record["cold"] and record["fingerprint"] not in seen:
            seen.add(record["fingerprint"])
            replay.append((record["index"], jobs[record["index"]]))
        if len(replay) == REPLAY_JOBS:
            break
    if not replay:
        raise lib.CheckFailed("no cold job completed in the mixed phase")
    return replay[::-1]


def _client_spans(records: list) -> list:
    """Client round trips, reconstructed as spans for the trace file."""
    spans = []
    for record in records:
        end = record["end_ns"]
        spans.append({
            "id": f"client-{record['job_id']}",
            "parent": None,
            "layer": "client",
            "name": "cold job" if record["cold"] else "warm job",
            "pid": 0,
            "tid": record["thread"],
            "start": end - int(record["rtt_ms"] * 1e6),
            "end": end,
            "args": {"job_id": record["job_id"]},
        })
    return spans


def layer_metrics(spans: list, records: list, stats: dict,
                  cold_p50_ms: float) -> dict:
    own = lib.self_times(spans)

    def named(layer, name):
        return [s for s in spans if s["layer"] == layer and s["name"] == name]

    def median_ms(chosen, self_only=False):
        if not chosen:
            return 0.0
        return lib.median(
            own[s["id"]] if self_only else lib.span_ms(s) for s in chosen
        )

    route_ms: dict = {}
    for span in named("serve.handlers", "route"):
        job_id = span["args"].get("job_id")
        route_ms[job_id] = route_ms.get(job_id, 0.0) + lib.span_ms(span)
    submit_end = {s["args"]["job_id"]: s["end"]
                  for s in named("serve.handlers", "submit")}
    explores = named("core.explorer", "explore")
    waits = [
        (s["start"] - submit_end[s["args"]["job_id"]]) / 1e6
        for s in explores if s["args"].get("job_id") in submit_end
    ]
    grids = named("core.batch", "evaluate_macro_grid")
    cache = stats["cache"]
    lookups = cache["hits"] + cache["misses"]
    grid_ms = median_ms(grids)
    return {
        "serve.server.rtt_self_ms": lib.median(
            r["rtt_ms"] - route_ms.get(r["job_id"], 0.0) for r in records),
        "serve.protocol.parse_job_ms": median_ms(
            named("serve.protocol", "parse_job")),
        "serve.protocol.canonical_json_ms": median_ms(
            named("serve.protocol", "canonical_json")),
        "serve.handlers.submit_ms": median_ms(
            named("serve.handlers", "submit"), self_only=True),
        "serve.handlers.result_ms": median_ms(
            named("serve.handlers", "result_text")),
        "serve.handlers.queue_wait_ms": lib.median(waits) if waits else 0.0,
        "serve.cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "serve.resilience.shed": stats["shed"],
        "core.explorer.explore_self_ms": median_ms(explores, self_only=True),
        "core.explorer.points": lib.median(
            s["args"]["points"] for s in explores) if explores else 0,
        "core.evaluator.evaluate_macros_self_ms": median_ms(
            named("core.evaluator", "evaluate_macros"), self_only=True),
        "core.batch.evaluate_macro_grid_ms": grid_ms,
        "core.batch.lanes": lib.median(
            s["args"]["lanes"] for s in grids) if grids else 0,
        "core.batch.share_of_cold_p50": grid_ms / cold_p50_ms,
        "core.pareto.frontier_ms": median_ms(
            named("core.pareto", "pareto_frontier")),
    }
