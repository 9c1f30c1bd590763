"""Traced ``repro serve``: wrap the service's public functions, then run
the real CLI.

Usage::

    python perfbench/serve_launcher.py SPANS.json serve --port 0

Everything after the spans path is handed to ``repro.serve.cli.main``
unchanged.  Spans stay in memory and are written to ``SPANS.json`` when
the server exits (SIGTERM, handled like the Ctrl-C that stops
``repro serve``).
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import lib  # noqa: E402


def _job_of_route(args, kwargs, result) -> dict:
    path = args[2]
    status, payload = result
    job_id = (payload or {}).get("job_id")
    if job_id is None and path.startswith("/v1/jobs/"):
        job_id = path.split("/")[3].split("?")[0]
    return {"path": path.split("?")[0], "status": status, "job_id": job_id}


def _job_of_submit(args, kwargs, result) -> dict:
    return {"job_id": result["job_id"], "cached": result["cached"]}


def _job_of_explore(args, kwargs, result) -> dict:
    ledger = kwargs.get("ledger")
    return {
        "job_id": getattr(ledger, "run_id", None),
        "points": result.n_explored,
    }


def _lanes(args, kwargs, result) -> dict:
    return {"lanes": len(kwargs["size_bits"])}


def install(tracer: lib.Tracer) -> None:
    """Wrap every service and explorer layer the explore path crosses."""
    import repro.core.batch as batch
    import repro.core.explorer as explorer
    import repro.serve.handlers as handlers
    import repro.serve.protocol as protocol
    import repro.serve.server as server
    from repro.core.evaluator import Evaluator

    tracer.wrap(server, "route", "serve.handlers", annotate=_job_of_route)
    tracer.wrap(handlers, "parse_job", "serve.protocol")
    tracer.wrap(handlers, "canonical_json", "serve.protocol")
    tracer.wrap(protocol, "canonical_json", "serve.protocol",
                name="canonical_json.fingerprint")
    tracer.wrap(handlers.ExplorationService, "submit", "serve.handlers",
                annotate=_job_of_submit)
    tracer.wrap(handlers.ExplorationService, "result_text",
                "serve.handlers")
    tracer.wrap(explorer.DesignSpaceExplorer, "explore", "core.explorer",
                annotate=_job_of_explore)
    tracer.wrap(Evaluator, "evaluate_macros", "core.evaluator")
    tracer.wrap(batch, "evaluate_macro_grid", "core.batch", annotate=_lanes)
    tracer.wrap(explorer, "pareto_frontier", "core.pareto")


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    lib.require_program()
    # Stop on SIGTERM exactly as on Ctrl-C, so the spans get written.
    signal.signal(signal.SIGTERM, _interrupt)
    from repro.serve import cli

    tracer = lib.Tracer(process="repro serve")
    install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
