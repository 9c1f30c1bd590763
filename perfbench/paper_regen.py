"""Workload ``paper_regen``: regenerate EXPERIMENTS.md.

Renders every module in ``repro.experiments.ALL_EXPERIMENTS`` exactly as
``python -m repro.experiments.generate_md`` does, into memory, then
checks that every claim holds and that the text is byte-equal to the
committed ``EXPERIMENTS.md``.  Its inputs are the paper's fixed claims,
so the workload seed does not apply.
"""

from __future__ import annotations

import io
import time

from perfbench import lib

SETUP_REPEATS = 3


class StampedStream(io.StringIO):
    """A text stream that records when each piece was written.

    ``generate_md`` prints a section's ``## E<n>:`` header once that
    experiment's ``run()`` has returned and its last line once the
    section is complete, so the write times bound each module's wall
    time without touching the program.
    """

    def __init__(self) -> None:
        super().__init__()
        self.writes: list = []  # (perf_counter, text)

    def write(self, text: str) -> int:
        self.writes.append((time.perf_counter(), text))
        return super().write(text)


def section_walls(writes: list) -> list:
    """``(section header, seconds)`` per experiment, in order.

    A section spans from the last write before its header (the end of
    the previous section) to the last write before the next header.
    """
    headers = [i for i, (_, text) in enumerate(writes)
               if text.startswith("## ")]
    if not headers or headers[0] == 0:
        raise lib.CheckFailed("rendered text has no experiment sections")
    bounds = [writes[i - 1][0] for i in headers] + [writes[-1][0]]
    return [
        (writes[i][1].split("\n")[0], bounds[k + 1] - bounds[k])
        for k, i in enumerate(headers)
    ]


def check_regen(text: str, committed: bytes, n_experiments: int) -> int:
    """Every claim holds and the text equals the committed record.

    Returns the number of claims checked.
    """
    sections = [line for line in text.splitlines() if line.startswith("## ")]
    if len(sections) != n_experiments:
        raise lib.CheckFailed(
            f"{len(sections)} sections rendered, expected {n_experiments}"
        )
    status = [line for line in text.splitlines()
              if line.startswith("*Paper location:")]
    failing = [line for line in status if "all claims hold" not in line]
    if failing or len(status) != n_experiments or "| **NO** |" in text:
        raise lib.CheckFailed(f"claims fail: {failing[:1] or 'a row'}")
    if text.encode("utf-8") != committed:
        raise lib.CheckFailed("rendered text differs from EXPERIMENTS.md")
    return sum(1 for line in text.splitlines() if line.endswith("| yes |"))


def _operations(args, kwargs, result) -> dict:
    return {"operations": result.operations}


def measure(seed: int, seconds: float, tracer=None) -> dict:
    setups = lib.time_fresh_import(
        "import repro.experiments.generate_md", SETUP_REPEATS
    )
    from repro.dft.flow import TestFlow
    from repro.dft.march import MarchTest
    from repro.experiments import ALL_EXPERIMENTS, generate_md

    committed = (lib.ROOT / "EXPERIMENTS.md").read_bytes()
    names = [module.__name__.rsplit(".", 1)[1] for module in ALL_EXPERIMENTS]
    if tracer is not None:
        tracer.wrap(MarchTest, "run", "dft.march", annotate=_operations)
        tracer.wrap(TestFlow, "run_lot", "dft.flow")
        for module, name in zip(ALL_EXPERIMENTS, names):
            tracer.wrap(module, "run", "experiments", name=f"{name}.run")
            if hasattr(module, "render_table"):
                tracer.wrap(module, "render_table", "experiments",
                            name=f"{name}.render_table")
    renders = []  # (wall_s, stream)
    try:
        deadline = time.perf_counter() + seconds
        while not renders or time.perf_counter() < deadline:
            stream = StampedStream()
            started = time.perf_counter()
            generate_md.main(stream=stream)
            renders.append((time.perf_counter() - started, stream))
    finally:
        if tracer is not None:
            tracer.restore()
    claims = 0
    for _, stream in renders:
        claims = check_regen(stream.getvalue(), committed, len(names))
    walls = [section_walls(stream.writes) for _, stream in renders]
    module_s = {
        name: lib.median(render[k][1] for render in walls)
        for k, name in enumerate(names)
    }
    regen_s = lib.median(wall for wall, _ in renders)
    # Everything but the march-dominated test-economics section.
    rest_s = lib.median(
        sum(seconds for k, (_, seconds) in enumerate(render)
            if names[k] != "e09_test_cost")
        for render in walls
    )
    outcome = {
        "attempted": len(renders),
        "failed": 0,
        "checked": claims * len(renders),
        "e2e": {
            "setup_s": lib.median(setups),
            "peak_rss_mb": lib.peak_rss_self_mb(),
            "heavy_p50_ms": regen_s * 1e3,
            "light_p50_ms": rest_s * 1e3,
            "throughput_per_s": claims / regen_s,
        },
        "readable": {
            "regen_wall_s": (regen_s, "s"),
            "regen_without_e09_s": (rest_s, "s"),
            "regen_renders": (len(renders), "count"),
            "claims_checked": (claims, "count"),
        },
    }
    if tracer is not None:
        outcome["per_layer"] = _layer_metrics(tracer.spans, module_s,
                                              len(renders))
        outcome["per_layer"]["dft.march.share_of_regen"] = (
            outcome["per_layer"]["dft.march.run_s"] / regen_s)
    return outcome


def _layer_metrics(spans: list, module_s: dict, renders: int) -> dict:
    march = [s for s in spans if s["layer"] == "dft.march"]
    flow = [s for s in spans if s["layer"] == "dft.flow"]
    march_ns = sum(s["end"] - s["start"] for s in march)
    operations = sum(s["args"]["operations"] for s in march)
    metrics = {
        f"experiments.{name}.wall_s": seconds
        for name, seconds in module_s.items()
    }
    metrics.update({
        "dft.march.run_s": march_ns / 1e9 / renders,
        "dft.march.calls": len(march) // renders,
        "dft.march.ns_per_op": march_ns / operations if operations else 0.0,
        "dft.flow.run_lot_s": sum(
            s["end"] - s["start"] for s in flow) / 1e9 / renders,
    })
    return metrics
