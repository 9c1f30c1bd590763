"""The whole-array march engine against the per-cell reference loop.

``MarchTest.run`` applies each march operation to the whole array at
once and replays only the coupling cells one by one;
``MarchTest.run_reference`` visits every cell through
``FaultyArray.write`` / ``read``.  Both are run on two identically built
arrays and must agree on the failing cells, the operation count and the
final stored bits.
"""

import math

import numpy as np
import pytest

from repro.dft.faults import Fault, FaultKind, FaultyArray, inject_random_faults
from repro.dft.flow import TestFlow
from repro.dft.march import (
    MARCH_B,
    MARCH_C_MINUS,
    MARCH_C_RETENTION,
    MATS_PLUS,
    RETENTION_SCREEN,
    Direction,
    MarchElement,
    MarchTest,
)
from repro.errors import ConfigurationError
from repro.verify.differential import diff_march

#: Starts with a read and mixes DOWN / EITHER / UP elements.
READ_FIRST = MarchTest(
    name="read-first mixed",
    elements=(
        MarchElement(Direction.DOWN, ("r0", "w1", "w1")),
        MarchElement(Direction.EITHER, ("r1", "w0", "r0")),
        MarchElement(Direction.DOWN, ("w1",)),
        MarchElement(Direction.EITHER, ("r1", "w0", "w1", "r1")),
        MarchElement(Direction.UP, ("r1", "w0")),
    ),
    pause_after_element=2,
)

MARCHES = (
    MATS_PLUS,
    MARCH_C_MINUS,
    MARCH_B,
    MARCH_C_RETENTION,
    READ_FIRST,
    RETENTION_SCREEN,
)

#: No pause, exactly the 0.1 s retention threshold (retains), just
#: above it (decays) and a typical 0.2 s screen.
PAUSES = (0.0, 0.1, math.nextafter(0.1, 1.0), 0.2)

#: 1x1, non-square and square arrays.
SHAPES = ((1, 1), (1, 6), (5, 3), (4, 9), (8, 8))


def _coupling(victim, aggressor) -> Fault:
    return Fault(
        kind=FaultKind.COUPLING_INV,
        row=victim[0],
        col=victim[1],
        aggressor=aggressor,
    )


def fault_map(seed: int):
    """A factory building one seeded fault map, fresh on every call.

    Beside the random SA0/SA1/TF/RET and line faults it injects a CFin
    chain (a -> b -> c), a self-coupled cell and one coupling twice.
    """
    rows, cols = SHAPES[seed % len(SHAPES)]
    rng = np.random.default_rng(seed)
    cells = rows * cols
    n_cell = int(rng.integers(0, min(cells, 6) + 1))
    n_line = int(rng.integers(0, min(2, rows, cols) + 1))

    def cell():
        return (int(rng.integers(rows)), int(rng.integers(cols)))

    couplings = []
    if seed % 3 != 2:
        a, b, c = cell(), cell(), cell()
        couplings += [_coupling(b, a), _coupling(c, b)]
        self_coupled = cell()
        couplings.append(_coupling(self_coupled, self_coupled))
        twice = _coupling(cell(), cell())
        couplings += [twice, twice]

    def build() -> FaultyArray:
        array = inject_random_faults(
            rows, cols, n_cell, n_line, seed=seed
        )
        for fault in couplings:
            array.inject(fault)
        return array

    return build


def corpus(n_maps: int = 60):
    for seed in range(n_maps):
        build = fault_map(seed)
        for test in MARCHES:
            for pause_s in PAUSES:
                yield test, build, pause_s


def test_engine_matches_reference_on_corpus():
    failures = [
        report.describe()
        for test, build, pause_s in corpus()
        if not (report := diff_march(test, build, pause_s)).identical
    ]
    assert not failures, failures[:3]


@pytest.mark.parametrize("test", MARCHES, ids=lambda t: t.name)
def test_engine_matches_reference_on_random_dies(test):
    # TestFlow-style dies (no couplings) at the production shape.
    for seed in range(3):
        report = diff_march(
            test,
            lambda: inject_random_faults(64, 64, 4, 1, seed=seed),
            pause_s=0.2,
        )
        assert report.identical, report.describe()


def test_failing_cells_iterate_like_the_reference():
    # Downstream repair allocation iterates the failing set; the engine
    # builds it in the order the per-cell loop first flags each cell.
    for seed in range(20):
        build = fault_map(seed)
        for test in (MARCH_C_MINUS, READ_FIRST):
            reference = test.run_reference(build(), pause_s=0.2)
            engine = test.run(build(), pause_s=0.2)
            assert list(engine.failing_cells) == list(
                reference.failing_cells
            )


def test_no_per_cell_calls_without_couplings(monkeypatch):
    calls = {"read": 0, "write": 0}
    read, write = FaultyArray.read, FaultyArray.write

    def counting_read(self, row, col):
        calls["read"] += 1
        return read(self, row, col)

    def counting_write(self, row, col, value):
        calls["write"] += 1
        return write(self, row, col, value)

    monkeypatch.setattr(FaultyArray, "read", counting_read)
    monkeypatch.setattr(FaultyArray, "write", counting_write)
    array = inject_random_faults(64, 64, 8, 2, seed=3)
    result = MARCH_C_MINUS.run(array)
    assert result.failing_cells
    assert calls == {"read": 0, "write": 0}
    # The counters are live: the reference loop goes through them.
    MARCH_C_MINUS.run_reference(inject_random_faults(4, 4, 1, seed=3))
    assert calls == {"read": 5 * 16, "write": 5 * 16}


def test_production_flow_makes_no_per_cell_calls(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-cell access in the production flow")

    monkeypatch.setattr(FaultyArray, "read", refuse)
    monkeypatch.setattr(FaultyArray, "write", refuse)
    result = TestFlow().run_lot(20, seed=5)
    assert result.dies == 20


def test_wrong_replay_order_is_caught(monkeypatch):
    # A mutated engine that replays the coupling cells in the opposite
    # address order must fail the differential check.
    original = FaultyArray._replay_order
    monkeypatch.setattr(
        FaultyArray,
        "_replay_order",
        lambda self, descending: original(self, not descending),
    )
    caught = sum(
        not diff_march(test, build, pause_s).identical
        for test, build, pause_s in corpus(n_maps=12)
    )
    assert caught > 0


def test_missing_replay_is_caught(monkeypatch):
    # A mutated engine that leaves the coupling cells at their bulk
    # (coupling-blind) values must fail the differential check.
    monkeypatch.setattr(
        FaultyArray, "_replay_order", lambda self, descending: []
    )
    report = diff_march(MARCH_C_MINUS, fault_map(0))
    assert not report.identical


def test_coupling_aggressor_outside_array_rejected():
    array = FaultyArray(rows=4, cols=4)
    with pytest.raises(ConfigurationError):
        array.inject(_coupling((0, 0), (4, 0)))
    with pytest.raises(ConfigurationError):
        array.inject(_coupling((0, 0), (-1, 0)))
