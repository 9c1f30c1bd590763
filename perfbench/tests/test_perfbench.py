"""The benchmark's own tests: its declaration, its inputs, its checks.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import lib  # noqa: E402

lib.require_program()

from perfbench import explore_http, paper_regen, sims  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- BENCHMARK.json ----------------------------------------------------------


def test_spec_keys_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert len(SPEC["command"]) <= 32
    assert all(len(part) <= 200 for part in SPEC["command"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_spec_names_and_units():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")


def test_setup_metric_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert bounds["setup_s"] == max(bounds.values())


def test_spec_paths_hold_only_the_benchmark():
    for path in SPEC["paths"]:
        assert re.match(r"^[A-Za-z0-9_./-]{1,200}$", path)
        assert not path.startswith("/") and ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    assert SPEC["command"][1].startswith(SPEC["paths"][0] + "/")


def test_every_workload_is_runnable():
    from perfbench import run

    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


# -- seeded inputs -----------------------------------------------------------


def test_same_seed_same_explore_jobs():
    assert explore_http.make_jobs(5, 500) == explore_http.make_jobs(5, 500)
    assert explore_http.make_jobs(5, 500) != explore_http.make_jobs(6, 500)


def test_explore_jobs_mix_repeats_with_distinct_jobs():
    jobs = explore_http.make_jobs(5, 1000)
    distinct = {json.dumps(job, sort_keys=True) for job in jobs}
    assert 0.7 * len(jobs) < len(distinct) < len(jobs)


def test_explore_presets_match_their_sources():
    from repro.apps import GraphicsFrameStore
    from repro.apps.mpeg2 import MPEG2MemoryBudget
    from repro.units import MBIT

    budget = MPEG2MemoryBudget()
    store = GraphicsFrameStore(width=800, height=600)
    expected = [
        (budget.total_bits, budget.total_bandwidth_bits_per_s()),
        (store.total_bits, store.total_bandwidth_bits_per_s()),
        (64 * MBIT, 0.8e9 * 8),
    ]
    got = [(bits, rate) for _, bits, rate, _ in explore_http.PRESETS]
    assert got == expected


def test_explore_jobs_are_preset_variants():
    jobs = explore_http.make_jobs(5, 300)
    factor = 2 ** explore_http.VARIANT_OCTAVES * 1.001
    for index, job in enumerate(jobs[:explore_http.REPEAT_WINDOW]):
        _, bits, rate, fields = explore_http.PRESETS[
            index % len(explore_http.PRESETS)]
        asked = job["requirements"]
        assert 1 / factor < asked["capacity_mbit"] * 2 ** 20 / bits < factor
        assert 1 / factor < asked["bandwidth_gbit_s"] * 2 ** 30 / rate < factor
        assert abs(asked["locality"] - fields["locality"]) <= (
            explore_http.VARIANT_LOCALITY + 1e-3)


def test_a_shed_submission_counts_as_failed():
    assert explore_http.tally(10, [], 0) == (10, 0)
    assert explore_http.tally(10, [], 3) == (13, 3)
    assert explore_http.tally(10, ["job 4: timeout"], 2) == (13, 3)


def test_same_seed_same_sweep_grids():
    assert sims.make_inputs(9) == sims.make_inputs(9)
    assert sims.make_inputs(9) != sims.make_inputs(10)
    inputs = sims.make_inputs(9)
    assert max(inputs["light_loads"]) <= 0.3
    assert min(inputs["saturated_loads"]) >= 0.9


# -- correctness checks reject corrupted output ------------------------------


def _record(job_id, fingerprint, raw, cold):
    return {"job_id": job_id, "fingerprint": fingerprint, "raw": raw,
            "cold": cold}


def test_warm_check_accepts_identical_bytes():
    records = [_record("job-1", "f1", b"abc", True),
               _record("job-2", "f1", b"abc", False)]
    assert explore_http.check_warm_identical(records) == 1


def test_warm_check_rejects_changed_bytes():
    records = [_record("job-1", "f1", b"abc", True),
               _record("job-2", "f1", b"abd", False)]
    with pytest.raises(lib.CheckFailed):
        explore_http.check_warm_identical(records)


def test_warm_check_rejects_a_warm_job_without_cold_response():
    with pytest.raises(lib.CheckFailed):
        explore_http.check_warm_identical([_record("job-1", "f", b"", False)])


def _served(job):
    document = explore_http.reference_document(job)
    return json.dumps({"ok": True, "result": document}).encode()


def test_reference_check_accepts_the_explorer_frontier():
    job = explore_http.make_jobs(3, 1)[0]
    assert explore_http.check_reference([(job, _served(job))]) == 1


def test_reference_check_rejects_a_corrupted_frontier():
    job = explore_http.make_jobs(3, 1)[0]
    served = json.loads(_served(job))
    served["result"]["frontier"][0]["power_w"] *= 1.001
    with pytest.raises(lib.CheckFailed):
        explore_http.check_reference([(job, json.dumps(served).encode())])


def _sweep_result(load=0.1, seed=3, cycles=400):
    from repro.core.sweep import SweepPoint, SweepResult

    from perfbench.sim_points import run_point

    parameters = {"seed": seed, "load": load, "cycles": cycles}
    result = SweepResult()
    result.points.append(
        SweepPoint(parameters=parameters, result=run_point(**parameters)))
    return result


def test_sim_check_accepts_a_matching_rerun():
    from perfbench.sim_points import run_point

    checked = sims.check_sample([("light", _sweep_result())], run_point,
                                __import__("random").Random(0))
    assert checked == 1


def test_sim_check_rejects_a_corrupted_fingerprint():
    from perfbench.sim_points import run_point

    result = _sweep_result()
    result.points[0].result["fingerprint"] = "0" * 64
    with pytest.raises(lib.CheckFailed):
        sims.check_sample([("light", result)], run_point,
                          __import__("random").Random(0))


def test_sim_check_rejects_failed_points():
    from repro.core.sweep import FailedPoint

    from perfbench.sim_points import run_point

    result = _sweep_result()
    result.failures.append(FailedPoint(parameters={}, error="boom"))
    with pytest.raises(lib.CheckFailed):
        sims.check_sample([("light", result)], run_point,
                          __import__("random").Random(0))


def test_sim_point_is_deterministic():
    from perfbench.sim_points import run_point

    first = run_point(load=1.0, seed=11, cycles=300)
    again = run_point(load=1.0, seed=11, cycles=300)
    assert first["fingerprint"] == again["fingerprint"]
    assert run_point(load=1.0, seed=12, cycles=300)["fingerprint"] != (
        first["fingerprint"])


COMMITTED = (ROOT / "EXPERIMENTS.md").read_bytes()
N_EXPERIMENTS = COMMITTED.decode().count("\n## ")


def test_regen_check_accepts_the_committed_text():
    text = COMMITTED.decode("utf-8")
    assert paper_regen.check_regen(text, COMMITTED, N_EXPERIMENTS) > 0


@pytest.mark.parametrize("corrupt", [
    lambda text: text.replace("| yes |", "| **NO** |", 1),
    lambda text: text.replace("all claims hold", "FAILURES", 1),
    lambda text: text.replace("0", "1", 1),
    lambda text: text[: text.rindex("\n## ")] + "\n",
])
def test_regen_check_rejects_corrupted_text(corrupt):
    text = corrupt(COMMITTED.decode("utf-8"))
    with pytest.raises(lib.CheckFailed):
        paper_regen.check_regen(text, COMMITTED, N_EXPERIMENTS)


def test_section_walls_split_at_headers():
    writes = [(0.0, "# title"), (1.0, "## E1: a"), (1.5, "x"),
              (4.0, "## E2: b"), (4.5, "y")]
    walls = paper_regen.section_walls(writes)
    assert [name for name, _ in walls] == ["## E1: a", "## E2: b"]
    assert [seconds for _, seconds in walls] == [1.5, 3.0]


# -- tracing -----------------------------------------------------------------


def test_self_times_never_exceed_their_span():
    tracer = lib.Tracer()
    with tracer.span("outer", "a"):
        with tracer.span("inner", "b"):
            time.sleep(0.002)
        with tracer.span("inner", "c"):
            time.sleep(0.001)
    own = lib.self_times(tracer.spans)
    for span in tracer.spans:
        assert 0 <= own[span["id"]] <= lib.span_ms(span)
    outer = [s for s in tracer.spans if s["layer"] == "outer"][0]
    children = sum(lib.span_ms(s) for s in tracer.spans
                   if s["parent"] == outer["id"])
    assert own[outer["id"]] == pytest.approx(lib.span_ms(outer) - children)


def test_wrap_records_and_restores():
    class Box:
        def work(self, x):
            return x * 2

    tracer = lib.Tracer()
    original = Box.work
    tracer.wrap(Box, "work", "box", annotate=lambda a, k, r: {"r": r})
    assert Box().work(4) == 8
    tracer.restore()
    assert Box.work is original
    assert tracer.spans[0]["args"] == {"r": 8}


def test_chrome_trace_is_complete_events():
    tracer = lib.Tracer()
    with tracer.span("layer", "name"):
        pass
    document = lib.chrome_trace([("bench", tracer.spans)])
    kinds = {event["ph"] for event in document["traceEvents"]}
    assert kinds == {"M", "X"}
    event = [e for e in document["traceEvents"] if e["ph"] == "X"][0]
    assert {"name", "ts", "dur", "pid", "tid"} <= set(event)
    json.dumps(document)


# -- the command -------------------------------------------------------------


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _alive(pid: int) -> bool:
    """Running, as opposed to gone or a zombie awaiting its reaper."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    return "\nState:\tZ" not in status


def _descendants(pid: int) -> set:
    parents = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            parents[int(entry.name)] = int(stat.rsplit(")", 1)[1].split()[1])
    found, frontier = set(), {pid}
    while frontier:
        frontier = {child for child, parent in parents.items()
                    if parent in frontier} - found
        found |= frontier
    return found


def _await_gone(pids, timeout_s: float = 10.0) -> set:
    deadline = time.monotonic() + timeout_s
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    return {pid for pid in pids if _alive(pid)}


def test_idle_spinners_end_with_their_parent():
    code = (f"import sys, time; sys.path.insert(0, {str(ROOT)!r})\n"
            "from perfbench import lib\n"
            "with lib.idle_spinners() as spinners:\n"
            "    print(*[s.pid for s in spinners], flush=True)\n"
            "    time.sleep(60)\n")
    parent = subprocess.Popen([sys.executable, "-c", code],
                              stdout=subprocess.PIPE, text=True)
    spinners = [int(pid) for pid in parent.stdout.readline().split()]
    assert spinners and all(_alive(pid) for pid in spinners)
    parent.kill()
    parent.wait()
    parent.stdout.close()
    assert _await_gone(spinners) == set()


def test_sigterm_stops_every_process_the_run_started():
    run = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "explore_http",
         "--seed", "1", "--seconds", "30", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    started = set()
    deadline = time.monotonic() + 30
    # The busy loops and the first server.
    while len(started) < 3 and time.monotonic() < deadline:
        started |= _descendants(run.pid)
        time.sleep(0.05)
    assert len(started) >= 3
    run.send_signal(signal.SIGTERM)
    assert run.wait(timeout=60) == 128 + signal.SIGTERM
    assert _await_gone(started) == set()
