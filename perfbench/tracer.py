"""Run-time span tracer for the benchmark's traced runs.

Nothing under ``src/`` knows about this module.  A traced run installs
wrappers around the program's public entry points (the table
:data:`ENTRY_POINTS` below), records one span per wrapped call while an
operation is open, and removes the wrappers again, so untraced
operations run the unmodified program.

Every span belongs to one *bucket* (a per-layer metric name).  A span's
self time -- its duration minus the time its child spans cover -- is
added to its bucket, the wrappers' own bookkeeping goes to
``trace.tax``, and the operation's root span keeps whatever no wrapped
call covers (``trace.unattributed``).  Because spans nest strictly on
the one benchmark thread, the bucket self times of an operation sum
exactly to its wall time.

Entry points that cannot be resolved (a later change renamed or deleted
them) are listed in :attr:`Tracer.absent` with the reason, and the run
continues without them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable


def _out_bytes(result, *args, **kwargs) -> int:
    return int(getattr(result, "nbytes", 0))


def _arg_bytes(index: int, name: str):
    def extract(result, *args, **kwargs) -> int:
        value = kwargs.get(name, args[index] if len(args) > index else None)
        return int(getattr(value, "nbytes", 0))
    return extract


def _select_bytes(result, self, table, width, rows, out, *rest) -> int:
    return int(len(rows) * (out.nbytes // max(1, out.shape[0])))


def _fill_bytes(result, self, pe_ids, offset, data, *rest) -> int:
    return int(len(pe_ids) * getattr(data, "nbytes", 0))


def _zero_fill_bytes(result, self, pe_ids, offset, nbytes, *rest) -> int:
    return int(len(pe_ids) * nbytes)


def _app_label(result, self, *args, **kwargs) -> str:
    return "apps." + self.name.lower().replace("-", "_").replace("&", "_") \
        + "_ms"


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point.

    ``target`` is ``"module:Qualified.name"``.  ``bucket`` receives the
    span's self time.  ``inclusive`` also adds the span's whole duration
    to a named total (a string, or a function of the call giving one).
    ``bytes_of`` computes the bytes a hardware kernel moved.  An
    ``opaque`` span records no child spans: their time stays its own.
    """

    bucket: str
    target: str
    inclusive: Any = None
    bytes_of: Callable | None = None
    opaque: bool = False


_SYS = "repro.hw.system:DimmSystem."
_PLANNER = "repro.core.collectives.planner:"

#: Every wrapped entry point, by layer.  Bucket names are the per-layer
#: metrics of BENCHMARK.json (without the unit suffix).
ENTRY_POINTS: tuple[Entry, ...] = (
    # apps
    *(Entry("apps.self", f"repro.apps.{mod}:{cls}.run", inclusive=_app_label)
      for mod, cls in (("dlrm", "DlrmApp"), ("gnn", "GnnApp"),
                       ("bfs", "BfsApp"), ("cc", "CcApp"),
                       ("mlp", "MlpApp"))),
    *(Entry("apps.golden", f"repro.apps.{mod}:golden_{mod}", opaque=True)
      for mod in ("dlrm", "gnn", "bfs", "cc", "mlp")),
    Entry("apps.harness", "repro.apps.base:AppHarness.comm",
          inclusive="apps.harness_comm_ms"),
    Entry("apps.harness", "repro.apps.base:AppHarness.comm_cost_only",
          inclusive="apps.harness_comm_ms"),
    # engine
    *(Entry("engine.self", f"repro.engine.communicator:Communicator.{name}")
      for name in ("alltoall", "allgather", "reduce_scatter", "allreduce",
                   "scatter", "gather", "reduce", "broadcast", "submit")),
    Entry("engine.cache_fetch", "repro.engine.cache:PlanCache.fetch"),
    Entry("engine.cache_fetch", "repro.engine.cache:PlanCache.fetch_program"),
    # core.collectives
    *(Entry("collectives.plan", f"{_PLANNER}plan_{name}")
      for name in ("alltoall", "allgather", "reduce_scatter", "allreduce",
                   "gather", "scatter", "reduce", "broadcast")),
    Entry("collectives.compile", "repro.core.collectives.plan:CommPlan.compile"),
    Entry("collectives.replay",
          "repro.core.collectives.program:CommProgram.replay"),
    Entry("collectives.pricing",
          "repro.core.collectives.plan:CommPlan.estimate"),
    Entry("collectives.pricing",
          "repro.core.collectives.program:CommProgram.priced"),
    Entry("collectives.interpret",
          "repro.core.collectives.plan:CommPlan.execute"),
    Entry("collectives.scan", "repro.hw.arena:scan_chunk_classes"),
    # hw: replay kernels
    Entry("hw.gather", _SYS + "take_by_table", bytes_of=_out_bytes),
    Entry("hw.gather", _SYS + "take_rows", bytes_of=_out_bytes),
    Entry("hw.gather", _SYS + "read_lanes", bytes_of=_out_bytes),
    Entry("hw.gather", _SYS + "take_band_flat",
          bytes_of=_arg_bytes(5, "out")),
    Entry("hw.gather", _SYS + "take_select_flat", bytes_of=_select_bytes),
    Entry("hw.gather", _SYS + "scan_view"),
    Entry("hw.writeback", _SYS + "put_rows", bytes_of=_arg_bytes(3, "matrix")),
    Entry("hw.writeback", _SYS + "write_lanes",
          bytes_of=_arg_bytes(3, "matrix")),
    Entry("hw.fill", _SYS + "fill_lanes", bytes_of=_fill_bytes),
    Entry("hw.fill", _SYS + "zero_fill_lanes", bytes_of=_zero_fill_bytes),
    Entry("hw.pe_kernel", _SYS + "permute_chunks"),
    # hw: host I/O and arena growth
    *(Entry("hw.host_io", _SYS + name)
      for name in ("read_elements", "write_elements", "scatter_elements",
                   "gather_elements", "memory")),
    Entry("hw.host_io", "repro.hw.memory:PeMemory.read"),
    Entry("hw.host_io", "repro.hw.memory:PeMemory.write"),
    Entry("hw.host_io", "repro.hw.memory:ArenaPeMemory.write"),
    Entry("hw.arena_grow", "repro.hw.arena:MemoryArena.touch"),
    Entry("hw.arena_grow", _SYS + "materialize"),
    # serving
    Entry("serving.admit", "repro.serving.session:Session.submit"),
    Entry("serving.dispatch",
          "repro.serving.server:CollectiveServer._run_batch"),
    Entry("serving.dispatch", "repro.serving.server:CollectiveServer.process"),
    # reliability
    *(Entry("reliability.crc", f"repro.reliability.checksum:{name}")
      for name in ("checksum", "verify", "guarded_delivery")),
    Entry("reliability.snapshot",
          "repro.engine.communicator:Communicator._snapshot", opaque=True),
    Entry("reliability.snapshot",
          "repro.engine.communicator:Communicator._restore", opaque=True),
)

#: Buckets whose calls are also counted (per operation and in set-up).
COUNTED = ("collectives.plan", "collectives.compile", "collectives.interpret")

ROOT = "trace.unattributed"
#: Bucket of the wrappers' own bookkeeping time.
TAX = "trace.tax"


@dataclass
class _Site:
    """One attribute a wrapper replaces: ``owner.name = wrapper``."""

    owner: Any
    name: str
    original: Any
    wrapper: Any


@dataclass
class OpRecord:
    """Per-operation totals folded from the spans."""

    self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    inclusive_s: dict[str, float] = field(
        default_factory=lambda: defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    kernel_bytes: list[int] = field(default_factory=list)
    wall_s: float = 0.0
    cache_hits: int = 0
    cache_lookups: int = 0
    batch_starts: dict[str, float] = field(default_factory=dict)
    batch_widths: list[int] = field(default_factory=list)


class Tracer:
    """Wraps :data:`ENTRY_POINTS` and folds spans into per-op records.

    Only the first operation keeps its raw spans for export (JSONL and
    Chrome trace); later ones are only folded.
    """

    def __init__(self, entries=ENTRY_POINTS) -> None:
        self.entries = entries
        self.absent: list[tuple[str, str]] = []
        self.sites: list[_Site] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.records: list[OpRecord] = []
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._record: OpRecord | None = None
        self._op_id = -1
        self._opaque = 0
        self._epoch = perf_counter()
        self._resolve()

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _resolve(self) -> None:
        """Build one replacement site per entry; record what is absent."""
        for entry in self.entries:
            module_name, _, qual = entry.target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *path, name = qual.split(".")
                for part in path:
                    owner = getattr(owner, part)
                static = inspect.getattr_static(owner, name)
            except (ImportError, AttributeError) as error:
                self.absent.append((entry.target, f"{type(error).__name__}: "
                                                  f"{error}"))
                continue
            if isinstance(static, (staticmethod, classmethod, property)):
                self.absent.append((entry.target,
                                    f"unsupported {type(static).__name__}"))
                continue
            wrapper = self._wrap(static, entry)
            if inspect.ismodule(owner):
                # Functions imported by name elsewhere are rebound in
                # every loaded program module that holds them.
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("repro") \
                            and mod.__dict__.get(name) is static:
                        self.sites.append(_Site(mod, name, static, wrapper))
            else:
                self.sites.append(_Site(owner, name, static, wrapper))

    def install(self) -> None:
        """Swap every wrapper in."""
        for site in self.sites:
            setattr(site.owner, site.name, site.wrapper)

    def uninstall(self) -> None:
        """Restore every original."""
        for site in self.sites:
            setattr(site.owner, site.name, site.original)

    def _wrap(self, fn, entry: Entry):
        tracer = self
        bucket = entry.bucket
        counted = bucket in COUNTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counted:
                tracer.counts[bucket] += 1
            if not tracer._stack or tracer._opaque:
                return fn(*args, **kwargs)
            entered = perf_counter()
            frame = [0.0]
            tracer._stack.append(frame)
            if entry.opaque:
                tracer._opaque += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(entry, frame, entered, start, perf_counter(),
                              None, None)
                raise
            tracer._close(entry, frame, entered, start, perf_counter(),
                          result, (args, kwargs))
            return result

        return wrapper

    def _close(self, entry: Entry, frame: list, entered: float,
               start: float, end: float, result, call) -> None:
        """Fold one finished span into the open operation's record.

        The span's own time is ``[start, end]``; the wrapper's bookkeeping
        around it (from ``entered`` until this method returns) goes to
        :data:`TAX`, so no layer is charged for the tracer's work.
        ``call`` is ``(args, kwargs)``, or None when the call raised.
        """
        if entry.opaque:
            self._opaque -= 1
        self._stack.pop()
        record = self._record
        bucket = entry.bucket
        record.self_s[bucket] += (end - start) - frame[0]
        if bucket in COUNTED:
            record.calls[bucket] += 1
        if not self.records:
            self.spans.append((bucket, entry.target.rpartition(":")[2],
                               start, end, len(self._stack), self._op_id))
        if call is not None:
            args, kwargs = call
            if entry.inclusive is not None:
                label = entry.inclusive
                if callable(label):
                    label = label(result, *args, **kwargs)
                record.inclusive_s[label] += end - start
            if entry.bytes_of is not None:
                record.kernel_bytes.append(
                    entry.bytes_of(result, *args, **kwargs))
            if entry.target.endswith("PlanCache.fetch"):
                record.cache_lookups += 1
                record.cache_hits += int(bool(result[1]))
            if entry.target.endswith("Communicator.submit"):
                requests = kwargs["requests"] if "requests" in kwargs \
                    else args[1]
                record.batch_widths.append(len(requests))
                for request in requests:
                    if request.tag is not None:
                        record.batch_starts[request.tag] = start
        left = perf_counter()
        record.self_s[TAX] += (left - entered) - (end - start)
        self._stack[-1][0] += left - entered

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def begin_op(self, op_id: int) -> None:
        """Start a traced operation (wrappers go in)."""
        self._op_id = op_id
        self._record = OpRecord()
        self.install()

    def segment(self) -> "_Segment":
        """Context manager timing one timed window of the open op."""
        return _Segment(self)

    def end_op(self) -> OpRecord:
        """Close the operation (wrappers come out); returns its record."""
        self.uninstall()
        record, self._record = self._record, None
        self.records.append(record)
        return record

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def write(self, stem: str) -> list[str]:
        """Write kept spans as JSONL and Chrome trace-event JSON."""
        rows = []
        parents: list[int] = []
        # Spans were appended at close, children before parents; a
        # span's parent is the next later-closing span one level up.
        open_at: dict[int, int] = {}
        for index in range(len(self.spans) - 1, -1, -1):
            depth = self.spans[index][4]
            open_at[depth] = index
            parents.append(open_at.get(depth - 1, -1))
        parents.reverse()
        for index, (bucket, name, start, end, depth, op_id) in \
                enumerate(self.spans):
            rows.append({"id": index, "name": name, "bucket": bucket,
                         "start": start - self._epoch,
                         "end": end - self._epoch,
                         "parent": parents[index], "op": op_id})
        jsonl = stem + ".spans.jsonl"
        with open(jsonl, "w") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
        chrome = stem + ".chrome.json"
        events = [{"name": row["name"], "cat": row["bucket"], "ph": "X",
                   "ts": row["start"] * 1e6,
                   "dur": (row["end"] - row["start"]) * 1e6,
                   "pid": 1, "tid": 1,
                   "args": {"id": row["id"], "parent": row["parent"],
                            "op": row["op"]}} for row in rows]
        with open(chrome, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"absent": self.absent}}, handle)
        return [jsonl, chrome]


class _Segment:
    """One timed window of a traced op: the root span of its children."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def __enter__(self) -> "_Segment":
        self.tracer._stack.append([0.0])
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        tracer = self.tracer
        frame = tracer._stack.pop()
        duration = end - self.start
        record = tracer._record
        record.wall_s += duration
        record.self_s[ROOT] += duration - frame[0]
        if not tracer.records:
            tracer.spans.append((ROOT, "op", self.start, end, 0,
                                 tracer._op_id))
