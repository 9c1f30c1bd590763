"""Shared pieces of the benchmark: paths, statistics, memory, spans.

Everything here is benchmark-side.  The program under test (``src/``)
is imported as a library and, in traced runs, its public functions are
wrapped from the outside by :class:`Tracer` — no program file changes.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: Root of the checkout the benchmark runs in.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for queue directories, traces and result files
#: (listed in the root .gitignore).
OUT = ROOT / ".perfbench_out"


class CheckFailed(Exception):
    """A correctness check rejected the program's output."""


def require_program() -> None:
    """Make ``repro`` (from ``src/``) and ``perfbench`` importable.

    Exits with status 2 before any measurement when the checkout has no
    program to benchmark.  The path also goes into ``PYTHONPATH`` so
    spawned servers and work-queue workers import the same code.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC}/repro", file=sys.stderr)
        raise SystemExit(2)
    for entry in (str(ROOT), str(SRC)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    existing = os.environ.get("PYTHONPATH")
    paths = [str(SRC), str(ROOT)] + ([existing] if existing else [])
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)


def scratch_dir(name: str) -> Path:
    path = OUT / name
    path.mkdir(parents=True, exist_ok=True)
    return path


# -- statistics --------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    if not values:
        raise CheckFailed("median of no samples")
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise CheckFailed("percentile of no samples")
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def quartiles(values) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


# -- memory ------------------------------------------------------------------


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_children_mb() -> float:
    """Largest peak RSS of any child this process has waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of a live process, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise CheckFailed(f"no VmHWM for pid {pid}")


# -- idle CPUs ---------------------------------------------------------------

_SPIN = """
import os, time
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
end = time.monotonic() + {limit_s}
while time.monotonic() < end and os.getppid() == {parent}:
    pass
"""


@contextmanager
def idle_spinners(limit_s: float = 170.0):
    """Keep every CPU out of its idle state while the body runs.

    Starts one busy loop per CPU at ``SCHED_IDLE`` priority: it runs only
    when nothing else can, and a waking task preempts it at once.  On a
    virtual machine an idle vCPU halts, and a task woken on it waits
    until the host schedules that vCPU again.  That delay follows the
    host's load, and a round trip that wakes the server and the client
    several times would otherwise measure it.  Each loop also ends by
    itself after ``limit_s`` seconds, or when this process has gone.
    """
    code = _SPIN.format(limit_s=limit_s, parent=os.getpid())
    spinners = [
        subprocess.Popen([sys.executable, "-c", code], cwd=ROOT)
        for _ in range(os.cpu_count() or 1)
    ]
    try:
        yield spinners
    finally:
        for spinner in spinners:
            spinner.terminate()
        for spinner in spinners:
            spinner.wait()


# -- set-up timing -----------------------------------------------------------


def time_fresh_import(code: str, repeats: int = 3) -> list:
    """Wall seconds for a fresh interpreter to run ``code``, per repeat.

    Set-up is what a user pays before the first useful call: start the
    interpreter, import the layers, build the executor.  Timed in a
    child so every repeat starts cold.
    """
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - started)
    return samples


# -- environment -------------------------------------------------------------


def source_revision() -> str:
    """The git commit when available, else a digest of ``src/``."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "revision": source_revision(),
        "platform": platform.platform(),
    }


def write_result_file(name: str, document: dict) -> Path:
    path = scratch_dir("results") / name
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


# -- spans -------------------------------------------------------------------


class Tracer:
    """In-memory span recorder with outside-in function wrapping.

    A span is ``(id, parent, layer, name, thread, start, end, args)``
    with ``time.perf_counter_ns`` stamps (CLOCK_MONOTONIC on Linux, so
    spans written by different processes share one time axis).  The
    parent is the innermost open span on the same thread.  Spans stay
    in memory until :meth:`dump` or :meth:`chrome_trace`.
    """

    def __init__(self, process: str = "bench") -> None:
        self.process = process
        self.pid = os.getpid()
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, layer: str, name: str, **args):
        stack = self._stack()
        span = {
            "id": f"{self.pid}-{next(self._ids)}",
            "parent": stack[-1]["id"] if stack else None,
            "layer": layer,
            "name": name,
            "pid": self.pid,
            "tid": threading.get_ident(),
            "start": time.perf_counter_ns(),
            "end": None,
            "args": args,
        }
        stack.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def wrap(self, owner, attr: str, layer: str, name=None, annotate=None):
        """Replace ``owner.attr`` with a spanned wrapper.

        ``annotate(args, kwargs, result)`` may return extra span args
        (a job id, a lane count).  :meth:`restore` undoes every wrap.
        """
        original = getattr(owner, attr)
        label = name or attr

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(layer, label) as span:
                result = original(*args, **kwargs)
                if annotate is not None:
                    span["args"].update(annotate(args, kwargs, result))
                return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        return wrapper

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with self._lock:
            spans = list(self.spans)
        Path(path).write_text(
            json.dumps({"process": self.process, "spans": spans})
        )


def load_spans(path) -> tuple:
    document = json.loads(Path(path).read_text())
    return document["process"], document["spans"]


def span_ms(span: dict) -> float:
    return (span["end"] - span["start"]) / 1e6


def self_times(spans: list) -> dict:
    """Span id -> self milliseconds (duration minus direct children).

    Children run nested on their parent's thread, so they never overlap
    each other and their sum never exceeds the parent's duration.
    """
    child_ms: dict = {}
    for span in spans:
        if span["parent"] is not None:
            child_ms[span["parent"]] = (
                child_ms.get(span["parent"], 0.0) + span_ms(span)
            )
    return {
        span["id"]: span_ms(span) - child_ms.get(span["id"], 0.0)
        for span in spans
    }


def layer_table(spans: list) -> list:
    """Per ``layer.name``: calls, total ms and self ms, biggest first."""
    own = self_times(spans)
    rows: dict = {}
    for span in spans:
        key = f"{span['layer']}.{span['name']}"
        row = rows.setdefault(key, {"key": key, "calls": 0,
                                    "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += span_ms(span)
        row["self_ms"] += own[span["id"]]
    return sorted(rows.values(), key=lambda row: -row["self_ms"])


def render_layer_table(spans: list) -> str:
    lines = [f"{'layer span':44} {'calls':>7} {'total ms':>12} {'self ms':>12}"]
    for row in layer_table(spans):
        lines.append(
            f"{row['key']:44} {row['calls']:>7} {row['total_ms']:>12.3f} "
            f"{row['self_ms']:>12.3f}"
        )
    return "\n".join(lines)


def chrome_trace(processes: list, other: dict | None = None) -> dict:
    """Chrome trace-event document (Perfetto opens it).

    ``processes`` is a list of ``(process name, spans)``; each becomes
    one process lane, each thread one track, each span one complete
    ("X") event — the same layout ``repro trace --merge`` emits.
    """
    starts = [span["start"] for _, spans in processes for span in spans]
    t0 = min(starts) if starts else 0
    events = []
    for index, (name, spans) in enumerate(processes, start=1):
        events.append({"name": "process_name", "ph": "M", "pid": index,
                       "args": {"name": name}})
        threads = {}
        own = self_times(spans)
        for span in sorted(spans, key=lambda s: s["start"]):
            tid = threads.setdefault(span["tid"], len(threads) + 1)
            events.append({
                "name": f"{span['layer']}.{span['name']}",
                "cat": span["layer"],
                "ph": "X",
                "ts": round((span["start"] - t0) / 1e3, 3),
                "dur": round((span["end"] - span["start"]) / 1e3, 3),
                "pid": index,
                "tid": tid,
                "args": dict(span["args"], self_ms=round(own[span["id"]], 6)),
            })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": dict(other or {})}
