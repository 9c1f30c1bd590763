"""Differential oracles: same workload, two execution paths, zero drift.

The optimizations of the simulator and the sweep machinery all make the
same promise — *indistinguishable from the reference path*.  This module
turns that promise into machinery:

* :func:`diff_results` walks two full statistics structures
  field-by-field (dataclasses, dicts, tuples, latency sample lists) and
  returns every differing leaf with its path;
* :func:`diff_engine` runs one workload through the event engine
  (``run``) and the stepped reference loop (``run_reference``) and,
  when anything differs, re-runs both with command recording to report
  the **first divergent command cycle** — the cycle where the two
  executions stopped being the same machine;
* :func:`diff_serial_vs_parallel` compares a process-pool sweep against
  its serial reference, point by point in input order;
* :func:`diff_memoized_vs_cold` compares a memo-served evaluator result
  against a cold evaluator of identical configuration;
* :func:`diff_march` runs a march test through the whole-array engine
  (``MarchTest.run``) and the per-cell loop (``run_reference``) on two
  identically built fault arrays.

Everything returns a :class:`DifferentialReport`; ``report.identical``
is the assertion surface, ``report.describe()`` the failure message.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.sim.stats import LatencyStats, SimulationResult


@dataclass(frozen=True)
class FieldDiff:
    """One differing leaf between two compared structures."""

    path: str
    left: object
    right: object

    def __str__(self) -> str:
        return f"{self.path}: {self.left!r} != {self.right!r}"


@dataclass(frozen=True)
class FirstDivergence:
    """First command where two recorded executions disagree.

    Attributes:
        index: Position in the command logs.
        left: Command in the reference log (None if it ended early).
        right: Command in the compared log (None if it ended early).
    """

    index: int
    left: object
    right: object

    @property
    def cycle(self) -> int | None:
        """Cycle of the first divergent command (the earlier side)."""
        cycles = [
            command.cycle
            for command in (self.left, self.right)
            if command is not None
        ]
        return min(cycles) if cycles else None

    def __str__(self) -> str:
        return (
            f"first divergence at command #{self.index} "
            f"(cycle {self.cycle}): {self.left} != {self.right}"
        )


@dataclass
class DifferentialReport:
    """Outcome of one differential comparison.

    Attributes:
        label: What was compared.
        diffs: Field-level differences (empty = identical).
        first_divergence: Command-level first divergence, when the
            comparison could localize one.
    """

    label: str
    diffs: list = field(default_factory=list)
    first_divergence: FirstDivergence | None = None

    @property
    def identical(self) -> bool:
        return not self.diffs and self.first_divergence is None

    def describe(self, limit: int = 8) -> str:
        if self.identical:
            return f"{self.label}: identical"
        lines = [f"{self.label}: {len(self.diffs)} field diffs"]
        if self.first_divergence is not None:
            lines.append(f"  {self.first_divergence}")
        for diff in self.diffs[:limit]:
            lines.append(f"  {diff}")
        if len(self.diffs) > limit:
            lines.append(f"  ... and {len(self.diffs) - limit} more")
        return "\n".join(lines)


# -- structural diffing ------------------------------------------------------


def diff_values(left, right, path: str = "") -> list:
    """Recursively diff two values; returns a list of :class:`FieldDiff`.

    Dataclasses are compared field-by-field, dicts key-by-key (union of
    keys), sequences index-by-index; :class:`LatencyStats` compares its
    streaming digest, whose order-sensitive rolling checksum catches
    sample reorderings, not just aggregate drift.  Floats are compared
    exactly — the contract under test is bit-identity, not tolerance.
    """
    if isinstance(left, LatencyStats) and isinstance(right, LatencyStats):
        return diff_values(
            left.digest(), right.digest(), f"{path}.digest"
        )
    if dataclasses.is_dataclass(left) and type(left) is type(right):
        diffs: list = []
        for f in dataclasses.fields(left):
            diffs.extend(
                diff_values(
                    getattr(left, f.name),
                    getattr(right, f.name),
                    f"{path}.{f.name}" if path else f.name,
                )
            )
        return diffs
    if isinstance(left, dict) and isinstance(right, dict):
        diffs = []
        for key in sorted(set(left) | set(right), key=str):
            sub = f"{path}[{key!r}]"
            if key not in left:
                diffs.append(FieldDiff(sub, "<missing>", right[key]))
            elif key not in right:
                diffs.append(FieldDiff(sub, left[key], "<missing>"))
            else:
                diffs.extend(diff_values(left[key], right[key], sub))
        return diffs
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        diffs = []
        if len(left) != len(right):
            diffs.append(
                FieldDiff(f"{path}.len", len(left), len(right))
            )
        for index, (a, b) in enumerate(zip(left, right)):
            diffs.extend(diff_values(a, b, f"{path}[{index}]"))
        return diffs
    if left != right:
        return [FieldDiff(path or "<value>", left, right)]
    return []


def diff_results(left: SimulationResult, right: SimulationResult) -> list:
    """Field-by-field diff of two :class:`SimulationResult` structures."""
    return diff_values(left, right, "result")


def result_fingerprint(result: SimulationResult) -> tuple:
    """Canonical hashable digest of everything a result observably holds.

    The single definition shared by the equivalence tests, the fuzz
    harness and ``benchmarks/bench_perf.py`` — one place to extend when
    the result type grows a field.
    """
    return (
        result.requests_completed,
        result.data_bits_transferred,
        tuple(sorted(result.commands.items())),
        result.refreshes,
        result.bank_activations,
        tuple(sorted(result.fifo_high_water.items())),
        tuple(sorted(result.fifo_stall_cycles.items())),
        result.row_hit_rate,
        result.latency.digest(),
        tuple(
            (name, stats.digest())
            for name, stats in sorted(result.latency_by_client.items())
        ),
    )


#: Metrics only the event engine's jumps produce; the reference loop
#: never skips, so they are left out when the two are compared.
SKIP_METRICS = frozenset(
    {
        "sim.cycles_fast_forwarded",
        "sim.fast_forward_jumps",
        "sim.fast_forward_span",
    }
)


def engine_comparable_metrics(snapshot: dict) -> dict:
    """A metrics snapshot without :data:`SKIP_METRICS`: what an
    engine run and a reference run of one workload must agree on."""
    return {
        kind: {
            name: value
            for name, value in values.items()
            if name not in SKIP_METRICS
        }
        for kind, values in snapshot.items()
    }


# -- command-log localization ------------------------------------------------


def first_command_divergence(left_log, right_log) -> FirstDivergence | None:
    """First index where two command logs disagree, or None."""
    for index, (a, b) in enumerate(zip(left_log, right_log)):
        if a != b:
            return FirstDivergence(index=index, left=a, right=b)
    if len(left_log) != len(right_log):
        index = min(len(left_log), len(right_log))
        longer = left_log if len(left_log) > len(right_log) else right_log
        return FirstDivergence(
            index=index,
            left=left_log[index] if longer is left_log else None,
            right=right_log[index] if longer is right_log else None,
        )
    return None


# -- harnesses ---------------------------------------------------------------


def diff_engine(
    factory, label: str = "event engine vs reference loop"
) -> DifferentialReport:
    """Run one workload through the event engine and the reference loop.

    Args:
        factory: ``factory(record_commands)`` returning a **fresh**
            :class:`MemorySystemSimulator` for each call; its
            :meth:`run` is compared with a twin's :meth:`run_reference`.
        label: Report label.

    The oracle cannot pass vacuously: when ``run`` did not execute on
    the event engine (a controller subclass, say, sends it to the
    reference loop), the report is *not* identical and names the
    fallback reason.  When results differ, both paths re-run with
    command recording and the report localizes the first divergent
    command cycle.
    """
    engine_sim = factory(False)
    optimized = engine_sim.run()
    if engine_sim.backend_used != "event":
        return DifferentialReport(
            label=label,
            diffs=[
                FieldDiff(
                    "backend_used",
                    "event",
                    f"{engine_sim.backend_used} "
                    f"({engine_sim.backend_fallback_reason})",
                )
            ],
        )
    reference = factory(False).run_reference()
    diffs = diff_results(reference, optimized)
    first = None
    if diffs:
        ref_sim = factory(True)
        ref_sim.run_reference()
        opt_sim = factory(True)
        opt_sim.run()
        first = first_command_divergence(
            ref_sim.controller.command_log, opt_sim.controller.command_log
        )
    return DifferentialReport(
        label=label, diffs=diffs, first_divergence=first
    )


def diff_serial_vs_parallel(
    fn, items, workers: int = 2, chunk_size: int | None = None
) -> DifferentialReport:
    """Compare a process-pool map against the serial reference."""
    from repro.core.parallel import ParallelConfig, parallel_map
    from repro.errors import ReproError

    items = list(items)
    serial = parallel_map(fn, items, config=None, catch=(ReproError,))
    parallel = parallel_map(
        fn,
        items,
        config=ParallelConfig(workers=workers, chunk_size=chunk_size),
        catch=(ReproError,),
    )
    diffs = diff_values(serial, parallel, "outcomes")
    return DifferentialReport(
        label=f"serial vs parallel({workers} workers)", diffs=diffs
    )


def diff_injection_off(
    cycles: int = 4_000,
    warmup_cycles: int = 300,
    seed: int = 0,
    n_cell_faults: int = 100,
) -> DifferentialReport:
    """Pin the fault-injection bit-identity contract.

    Runs the canonical injected workload twice — once on the plain
    controller, once on the resilient controller with a *disabled*
    injector (fault map still built) — and diffs the fingerprints.
    A disabled injector must cost nothing observable; any drift here
    means the degradation machinery leaked into the baseline path.
    """
    from repro.inject import InjectionConfig, build_injected_simulator

    plain = build_injected_simulator(
        None, cycles=cycles, warmup_cycles=warmup_cycles, seed=seed
    ).run()
    disabled = build_injected_simulator(
        InjectionConfig(enabled=False, seed=seed, n_cell_faults=n_cell_faults),
        cycles=cycles,
        warmup_cycles=warmup_cycles,
        seed=seed,
    ).run()
    diffs = diff_values(
        result_fingerprint(plain), result_fingerprint(disabled), "fingerprint"
    )
    return DifferentialReport(
        label="plain vs injection-disabled", diffs=diffs
    )


def diff_memoized_vs_cold(macro, requirements) -> DifferentialReport:
    """Compare a memo-served evaluation against a cold evaluator."""
    from repro.core.evaluator import Evaluator

    warm_evaluator = Evaluator()
    warm_evaluator.evaluate_macro(macro, requirements)  # prime the memo
    memoized = warm_evaluator.evaluate_macro(macro, requirements)
    if warm_evaluator.macro_cache_info()["hits"] < 1:
        return DifferentialReport(
            label="memoized vs cold",
            diffs=[FieldDiff("cache.hits", 0, ">= 1")],
        )
    cold = Evaluator().evaluate_macro(macro, requirements)
    diffs = diff_values(memoized, cold, "metrics")
    return DifferentialReport(label="memoized vs cold", diffs=diffs)


def diff_march(test, build_array, pause_s: float = 0.0) -> DifferentialReport:
    """Compare the whole-array march engine against the per-cell loop.

    ``build_array()`` must return a fresh, identically faulted
    :class:`~repro.dft.faults.FaultyArray` on every call.  The failing
    cells (which must be tuples of Python ``int``), the operation count
    and the final stored bits must all match.
    """
    reference_array = build_array()
    engine_array = build_array()
    reference = test.run_reference(reference_array, pause_s=pause_s)
    engine = test.run(engine_array, pause_s=pause_s)
    diffs = diff_values(
        sorted(reference.failing_cells),
        sorted(engine.failing_cells),
        "failing_cells",
    )
    diffs += diff_values(reference.operations, engine.operations, "operations")
    diffs += diff_values(
        reference_array.stored_bits().tolist(),
        engine_array.stored_bits().tolist(),
        "stored_bits",
    )
    foreign = [
        cell
        for cell in engine.failing_cells
        if type(cell) is not tuple or any(type(x) is not int for x in cell)
    ]
    if foreign:
        diffs.append(FieldDiff("failing_cells.type", "(int, int)", foreign[0]))
    return DifferentialReport(
        label=f"{test.name}: run() vs run_reference()", diffs=diffs
    )
