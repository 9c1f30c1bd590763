"""The repository benchmark: one command, four workloads, checked outputs.

Run one workload (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload explore_http --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end
metrics of ``BENCHMARK.json``.  ``--trace 1`` runs the workload once
untraced and once traced, writes a Chrome trace-event file, prints the
per-layer self-time table and reports the per-layer metrics, including
``trace_overhead_ratio`` (traced / untraced ``heavy_p50_ms``).

Other modes (see perfbench/README.md)::

    python3 perfbench/run.py --all --seed 1             # every workload once
    python3 perfbench/run.py --steady 5 --workload sim_sweep --seed 100
    python3 perfbench/run.py --steady 10 --workload sim_sweep --seed 200 \\
        --baseline .perfbench_out/steady-sim_sweep-100.json

Every correctness check runs before any metric is printed; a failed
check exits with status 1 and no result line.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import lib  # noqa: E402

WORKLOADS = ("explore_http", "sim_sweep", "sim_queue", "paper_regen")


def load_spec() -> dict:
    return json.loads((lib.ROOT / "BENCHMARK.json").read_text())


def measure(workload: str, seed: int, seconds: float, tracer=None) -> dict:
    if workload == "explore_http":
        from perfbench import explore_http

        return explore_http.measure(seed, seconds, tracer)
    if workload in ("sim_sweep", "sim_queue"):
        from perfbench import sims

        return sims.measure(workload, seed, seconds, tracer)
    from perfbench import paper_regen

    return paper_regen.measure(seed, seconds, tracer)


def _as_metrics(values: dict, declared: list) -> dict:
    return {
        metric["name"]: {"value": values[metric["name"]],
                         "unit": metric["unit"]}
        for metric in declared
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = load_spec()
    outcome = measure(workload, seed, seconds)
    if trace:
        untraced = outcome
        tracer = lib.Tracer(process="perfbench")
        outcome = measure(workload, seed, seconds, tracer)
        values = {metric["name"]: 0 for metric in spec["per_layer"]}
        values.update(outcome["per_layer"])
        values["trace_overhead_ratio"] = (
            outcome["e2e"]["heavy_p50_ms"] / untraced["e2e"]["heavy_p50_ms"]
        )
        lanes = [(tracer.process, tracer.spans)] + outcome.get("lanes", [])
        spans = [span for _, lane in lanes for span in lane]
        trace_path = lib.scratch_dir("traces") / f"{workload}-{seed}.json"
        trace_path.write_text(json.dumps(lib.chrome_trace(
            lanes, {"workload": workload, "seed": seed})))
        print(lib.render_layer_table(spans))
        print(f"chrome trace: {trace_path}")
        metrics = _as_metrics(values, spec["per_layer"])
    else:
        metrics = _as_metrics(outcome["e2e"], spec["end_to_end"])
    readable = dict(outcome["readable"])
    readable["failed_ratio"] = (
        outcome["failed"] / outcome["attempted"], "ratio")
    for name, metric in metrics.items():
        print(f"{workload} {name} = {metric['value']:.6g} {metric['unit']}")
    for name, (value, unit) in readable.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    result = {
        "correct": True,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }
    lib.write_result_file(
        f"result-{workload}-{seed}-trace{int(trace)}.json",
        dict(result, workload=workload, seed=seed, seconds=seconds,
             checked=outcome["checked"],
             readable={k: {"value": v, "unit": u}
                       for k, (v, u) in readable.items()},
             environment=lib.environment()),
    )
    return result


def _child(workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """Run one workload in a fresh interpreter; its parsed result."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=lib.ROOT, capture_output=True, text=True,
    )
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise lib.CheckFailed(
            f"{workload} seed {seed} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def run_all(seed: int, seconds: float) -> None:
    for workload in WORKLOADS:
        result = _child(workload, seed, seconds)
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")


def steady(workload: str, first_seed: int, runs: int, seconds: float,
           baseline: str | None) -> None:
    """Run ``runs`` seeds; print each metric's quartiles and spread."""
    spec = load_spec()
    samples = {metric["name"]: [] for metric in spec["end_to_end"]}
    for seed in range(first_seed, first_seed + runs):
        started = time.perf_counter()
        result = _child(workload, seed, seconds)
        print(f"-- seed {seed}: {time.perf_counter() - started:.1f} s")
        for name in samples:
            samples[name].append(result["metrics"][name]["value"])
    summary = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        q1, mid, q3 = lib.quartiles(samples[name])
        spread = (q3 - q1) / mid
        summary[name] = {"q1": q1, "median": mid, "q3": q3,
                         "spread": spread, "values": samples[name]}
        verdict = "ok" if spread < bound / 3 else "WIDE"
        if name == "setup_s":
            verdict += " (setup: spread not gated)"
        print(f"{name:18} median {mid:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} "
              f"spread {spread:7.2%} bound/3 {bound / 3:6.2%} {verdict}")
    if baseline:
        before = json.loads(Path(baseline).read_text())["summary"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            old, new = before[name]["median"], summary[name]["median"]
            change = (new - old) / old
            worse = change if metric["better"] == "lower" else -change
            verdict = "ok" if worse <= metric["bound"] else "WORSE"
            print(f"{name:18} baseline median {old:12.6g} -> {new:12.6g} "
                  f"({change:+.2%}, bound {metric['bound']:.0%}) {verdict}")
    path = lib.scratch_dir("steady") / f"steady-{workload}-{first_seed}.json"
    path.write_text(json.dumps({
        "workload": workload, "first_seed": first_seed, "runs": runs,
        "seconds": seconds, "summary": summary,
        "environment": lib.environment(),
    }, indent=2) + "\n")
    print(f"steadiness summary: {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload once, in child processes")
    parser.add_argument("--steady", type=int, metavar="RUNS",
                        help="run RUNS consecutive seeds of --workload and "
                        "print each end-to-end metric's quartiles")
    parser.add_argument("--baseline", help="steady summary file to compare "
                        "medians against (with --steady)")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the finally blocks stop the
    # servers, workers and busy loops this run started.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    lib.require_program()
    try:
        if args.all:
            run_all(args.seed, args.seconds)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.steady:
            steady(args.workload, args.seed, args.steady, args.seconds,
                   args.baseline)
            return 0
        result = run_one(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except lib.CheckFailed as error:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
