"""Each output check of the benchmark fails when one output byte flips.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from repro import DimmGeometry, DimmSystem, HypercubeManager  # noqa: E402
from repro.apps.bfs import golden_bfs  # noqa: E402
from repro.core.groups import slice_groups  # noqa: E402
from repro.data import rmat_graph  # noqa: E402


def flip_one_byte(array: np.ndarray, index: int = 0) -> np.ndarray:
    """A copy of ``array`` with the lowest bit of one byte inverted."""
    flipped = np.array(array, copy=True, order="C")
    flipped.reshape(-1).view(np.uint8)[index] ^= 1
    return flipped


def edges(graph):
    src = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
    return src, graph.indices, graph.num_vertices


# ----------------------------------------------------------------------
# The references themselves
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", [(4, 2, 2), (8, 4), (16,)])
def test_group_table_follows_the_slicing_rule(shape):
    system = DimmSystem(DimmGeometry(2, 1, 4, 4))
    manager = HypercubeManager(system, shape=shape)
    grid = workloads.pe_grid(manager)
    for bits in range(1, 2 ** len(shape)):
        bitmap = "".join("1" if bits >> d & 1 else "0"
                         for d in range(len(shape)))
        table = checks.group_table(grid, workloads.selected_dims(bitmap))
        program = [list(g.pe_ids) for g in slice_groups(manager, bitmap)]
        assert table.tolist() == program


def test_collective_references_by_hand():
    inputs = np.arange(2 * 2 * 4, dtype=np.int64).reshape(2, 2, 4)
    a2a = checks.expected_collective("alltoall", inputs)
    assert a2a[0].tolist() == [[0, 1, 4, 5], [2, 3, 6, 7]]
    rs = checks.expected_collective("reduce_scatter", inputs)
    assert rs[1].tolist() == [[8 + 12, 9 + 13], [10 + 14, 11 + 15]]
    assert checks.expected_collective("reduce", inputs)[0].tolist() == \
        [4, 6, 8, 10]


# ----------------------------------------------------------------------
# Every check rejects a one-byte flip
# ----------------------------------------------------------------------
@pytest.mark.parametrize("primitive", ["alltoall", "allgather",
                                       "reduce_scatter", "allreduce",
                                       "gather", "reduce"])
def test_collective_check_rejects_flip(primitive):
    rng = np.random.default_rng(3)
    inputs = rng.integers(-9, 9, (3, 4, 8), dtype=np.int64)
    expected = checks.expected_collective(primitive, inputs)
    got = np.ascontiguousarray(expected)
    checks.require_equal(primitive, got, expected)
    with pytest.raises(checks.CheckFailed):
        checks.require_equal(primitive, flip_one_byte(got, 5), expected)


def test_bfs_properties_reject_flip():
    graph = rmat_graph(64, 400, seed=4)
    levels = golden_bfs(graph, 0)
    checks.check_bfs_levels(*edges(graph), 0, levels)
    reached = int(np.flatnonzero(levels > 0)[0])
    with pytest.raises(checks.CheckFailed):
        checks.check_bfs_levels(*edges(graph), 0,
                                flip_one_byte(levels, reached * 8 + 1))


def test_cc_properties_reject_flip():
    graph = rmat_graph(64, 120, seed=5)
    labels = checks.component_minima(*edges(graph))
    checks.check_cc_labels(*edges(graph), labels)
    with pytest.raises(checks.CheckFailed):
        checks.check_cc_labels(*edges(graph), flip_one_byte(labels, 8 * 9))


# ----------------------------------------------------------------------
# The workloads' own checks, on small instances
# ----------------------------------------------------------------------
class SmallDense(workloads.DenseCollectives):
    geometry = DimmGeometry(2, 1, 4, 4)
    shape = (8, 4)
    base_bytes = 1024
    src, dst = 0, 1024
    mram_bytes = 4096


class SmallFaulty(workloads.FaultyCollectives):
    geometry = DimmGeometry(2, 1, 4, 4)
    shape = (8, 4)
    base_bytes = 1024
    src, dst = 0, 1024
    mram_bytes = 4096


@pytest.mark.parametrize("cls", [SmallDense, SmallFaulty])
def test_dense_step_checks_every_call_and_rejects_flip(cls):
    work = cls()
    work.setup(seed=11)
    work.prepare_checks()
    for index in range(2):
        step = work.step(index, None)
        assert step.failed == 0 and step.calls == len(workloads.STEP_CALLS)
    for call in work.calls:
        work._stage(call, parity=0)
        result = work._invoke(call, parity=0)
        work._check(call, result, parity=0)
        if call.primitive in ("gather", "reduce"):
            host = result.host_outputs[0]
            result.host_outputs[0] = flip_one_byte(np.asarray(host))
        else:
            mem = work.system.memory(work.pes[3])
            byte = mem.read(work.dst, 1)
            mem.write(work.dst, byte ^ 1)
        with pytest.raises(checks.CheckFailed):
            work._check(call, result, parity=0)


def test_serving_check_rejects_flip():
    work = workloads.TenantServing()
    work.warm_rounds = 2
    work.setup(seed=5)
    step = work.step(0, None)
    assert step.failed == 0 and work.last_checked
    for request, values in work.last_checked:
        work._check(request, values)
        pe = int(work.groups[0, 0])
        mem = work.system.memory(pe)
        byte = mem.read(request.dst_offset, 1)
        mem.write(request.dst_offset, byte ^ 1)
        with pytest.raises(checks.CheckFailed):
            work._check(request, values)


def test_app_checks_reject_flip():
    work = workloads.PaperApps()
    work.setup(seed=2)
    work.prepare_checks()
    results = work._run_pass()
    work.check(results)
    for result in results:
        saved = result.output
        result.output = flip_one_byte(np.asarray(saved), 8)
        with pytest.raises(checks.CheckFailed):
            work.check(results)
        result.output = saved
