"""The tracer partitions an operation's wall time and leaves no trace.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
from repro.hw.system import DimmSystem  # noqa: E402
from test_checks import SmallDense  # noqa: E402


def test_missing_entry_point_is_reported_absent():
    entries = tracing.ENTRY_POINTS + (
        tracing.Entry("hw.gather", "repro.hw.system:DimmSystem.no_such"),
        tracing.Entry("hw.gather", "repro.no_such_module:f"),
    )
    tracer = tracing.Tracer(entries)
    absent = [target for target, _ in tracer.absent]
    assert absent == ["repro.hw.system:DimmSystem.no_such",
                      "repro.no_such_module:f"]


def test_self_times_add_up_to_the_op_wall_time(tmp_path):
    work = SmallDense()
    work.setup(seed=3)
    work.prepare_checks()
    original = DimmSystem.take_by_table
    tracer = tracing.Tracer()
    tracer.begin_op(0)
    step = work.step(0, tracer)
    record = tracer.end_op()
    assert DimmSystem.take_by_table is original
    assert record.self_s["hw.gather"] > 0
    assert record.self_s[tracing.TAX] > 0
    assert abs(sum(record.self_s.values()) - record.wall_s) < 1e-9
    assert record.wall_s <= step.wall_s
    jsonl, chrome = tracer.write(str(tmp_path / "op"))
    rows = [json.loads(line) for line in open(jsonl)]
    roots = [row for row in rows if row["parent"] == -1]
    assert len(roots) == len(work.calls)
    for row in rows:
        if row["parent"] != -1:
            parent = rows[row["parent"]]
            assert parent["start"] <= row["start"] <= row["end"] \
                <= parent["end"]
    assert json.load(open(chrome))["traceEvents"]
