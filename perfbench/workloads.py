"""The benchmark's four workloads.

Each workload builds its inputs from the run's seed, sets up the
program, runs one untimed warm-up operation (which compiles every plan
and grows the arena), and then runs timed operations one after another:
every caller waits for its reply before sending the next request.  The
program only ever sees the generated inputs; the expected outputs are
computed here, apart from it (:mod:`checks`), outside the timed windows.
"""

from __future__ import annotations

import asyncio
import dataclasses
import zlib
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro import (CollectiveServer, Communicator, DimmGeometry, DimmSystem,
                   HypercubeManager, SessionConfig)
from repro.apps import (BfsApp, BfsConfig, CcApp, CcConfig, DlrmApp,
                        DlrmConfig, GnnApp, GnnConfig, MlpApp, MlpConfig,
                        PidCommBackend)
from repro.apps.dlrm import golden_dlrm
from repro.apps.gnn import golden_gnn
from repro.apps.mlp import golden_mlp
from repro.apps.bfs import golden_bfs
from repro.apps.cc import golden_cc
from repro.data import criteo_like, rmat_graph
from repro.data.synthetic import embedding_tables
from repro.dtypes import INT64
from repro.errors import PidCommError
from repro.reliability import FaultInjector
from repro.serving import LoadGenerator, TenantLoad

import checks

KIB = 1 << 10
GEOMETRY_256 = DimmGeometry(2, 2, 8, 8)
GEOMETRY_1024 = DimmGeometry(4, 4, 8, 8)


@dataclass
class StepResult:
    """What one timed step (one or more operations) produced."""

    #: Timed seconds of the step (its timed windows only).
    wall_s: float = 0.0
    #: Wall seconds of each operation in the step.
    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    #: Modelled seconds by cost category, summed over the step.
    modelled: dict[str, float] = field(
        default_factory=lambda: defaultdict(float))
    calls: int = 0
    attempts: int = 0
    faults: int = 0
    chunks_scanned: int = 0
    chunks_elided: int = 0
    #: Request tag -> submit time (serving only; for queue waits).
    submitted_at: dict[str, float] = field(default_factory=dict)

    def add_ledger(self, ledger) -> None:
        for category, seconds in ledger.seconds.items():
            self.modelled[category] += seconds

    def add_result(self, result) -> None:
        self.add_ledger(result.ledger)
        self.calls += 1
        self.attempts += result.attempts
        self.faults += len(result.faults_seen)
        self.chunks_scanned += result.chunks_scanned
        self.chunks_elided += result.chunks_elided


@contextmanager
def timed(tracer, step: StepResult):
    """One timed window of ``step`` (a root span too, when traced)."""
    start = perf_counter()
    try:
        with tracer.segment() if tracer is not None else nullcontext():
            yield
    finally:
        step.wall_s += perf_counter() - start


def pe_grid(manager: HypercubeManager) -> np.ndarray:
    """PE id at every hypercube coordinate, as an array over the cube."""
    dims = manager.shape.dims
    grid = np.empty(dims, dtype=np.intp)
    for coords in np.ndindex(*dims):
        grid[coords] = manager.pe_of_coords(coords)
    return grid


def selected_dims(bitmap: str) -> tuple[int, ...]:
    """Dimension indices a bitmap selects (character i is dimension i)."""
    return tuple(i for i, bit in enumerate(bitmap) if bit == "1")


# ======================================================================
# paper_apps
# ======================================================================
class PaperApps:
    """The paper's six application configurations on one 256-PE system.

    One operation is one pass over all six apps through ``AppHarness``
    (functional, vectorized backend), with ``reset_allocations()``
    before each app.  The apps compute their own golden models inside
    ``run()``; the benchmark computes them again outside the timed
    window and never reads the apps' copy.
    """

    name = "paper_apps"
    tail_pct = 75.0
    mram_bytes = 128 * KIB

    @staticmethod
    def build_apps(seed: int) -> list:
        """The six (app, cube shape) pairs, with inputs drawn from ``seed``."""
        seeds = [int(s) for s in
                 np.random.default_rng(seed).integers(1, 2 ** 31, 6)]
        dlrm_data = criteo_like(batch_size=256, num_tables=8, num_rows=64,
                                hots=2, seed=seeds[0])
        return [
            (DlrmApp(dlrm_data, DlrmConfig(embedding_dim=16, mlp_hidden=8,
                                           seed=seeds[0])), (4, 8, 8)),
            (GnnApp(rmat_graph(128, 1024, seed=seeds[1]),
                    GnnConfig(features=16, layers=3, strategy="rs_ar",
                              seed=seeds[1])), (16, 16)),
            (GnnApp(rmat_graph(128, 1024, seed=seeds[2]),
                    GnnConfig(features=16, layers=3, strategy="ar_ag",
                              seed=seeds[2])), (16, 16)),
            (BfsApp(rmat_graph(512, 4096, seed=seeds[3]),
                    BfsConfig(source=0)), (256,)),
            (CcApp(rmat_graph(512, 4096, seed=seeds[4]), CcConfig()),
             (256,)),
            (MlpApp(MlpConfig(features=256, layers=5, batch=8,
                              seed=seeds[5])), (256,)),
        ]

    def setup(self, seed: int) -> None:
        self.apps = self.build_apps(seed)
        self.system = DimmSystem(GEOMETRY_256, mram_bytes=self.mram_bytes,
                                 backend="vectorized")
        self.managers = [HypercubeManager(self.system, shape=shape)
                         for _, shape in self.apps]
        self.backend = PidCommBackend()
        self.poison = np.full(self.mram_bytes, 0xA5, dtype=np.uint8)
        self._run_pass()

    def _run_pass(self):
        results = []
        for (app, _), manager in zip(self.apps, self.managers):
            self.system.reset_allocations()
            results.append(app.run(manager, self.backend, functional=True))
        return results

    def prepare_checks(self) -> None:
        """Golden outputs, regenerated from each app's seeded config."""
        expected = []
        for app, _ in self.apps:
            cfg = app.config
            if isinstance(app, DlrmApp):
                rng = np.random.default_rng(cfg.seed)
                b, t_all, _ = app.data.indices.shape
                tables = embedding_tables(t_all, app.data.num_rows,
                                          cfg.embedding_dim, seed=cfg.seed)
                feat = t_all * cfg.embedding_dim
                w1 = rng.integers(-2, 3, (feat, cfg.mlp_hidden)).astype(
                    np.int64)
                w2 = rng.integers(-2, 3, (cfg.mlp_hidden, 1)).astype(np.int64)
                expected.append(golden_dlrm(app.data, tables, w1,
                                            w2).reshape(-1))
            elif isinstance(app, GnnApp):
                rng = np.random.default_rng(cfg.seed)
                n = app.graph.num_vertices
                h0 = rng.integers(-2, 3, (n, cfg.features))
                weights = [rng.integers(-2, 3, (cfg.features, cfg.features))
                           for _ in range(cfg.layers)]
                expected.append(golden_gnn(app.graph.dense, h0, weights))
            elif isinstance(app, MlpApp):
                rng = np.random.default_rng(cfg.seed)
                x = rng.integers(-4, 4, (cfg.batch, cfg.features))
                weights = [rng.integers(-4, 4, (cfg.features, cfg.features))
                           for _ in range(cfg.layers)]
                expected.append(golden_mlp(x, weights))
            elif isinstance(app, BfsApp):
                expected.append(golden_bfs(app.graph, app.config.source))
            else:
                expected.append(golden_cc(app.graph))
        self.expected = expected
        self.edges = {}
        for app, _ in self.apps:
            if isinstance(app, (BfsApp, CcApp)):
                # CcApp keeps the symmetrized graph; its edge set has
                # the same components as the generated one.
                graph = app.graph
                src = np.repeat(np.arange(graph.num_vertices),
                                np.diff(graph.indptr))
                self.edges[app.name] = (src, graph.indices,
                                        graph.num_vertices)

    def check(self, results) -> None:
        for (app, _), result, expected in zip(self.apps, results,
                                              self.expected):
            checks.require_equal(f"{app.name} vs golden model",
                                 result.output, expected)
            if isinstance(app, BfsApp):
                checks.check_bfs_levels(*self.edges[app.name],
                                        app.config.source, result.output)
            elif isinstance(app, CcApp):
                checks.check_cc_labels(*self.edges[app.name], result.output)

    def step(self, index: int, tracer) -> StepResult:
        # Poison every PE's memory first, so a pass can never pass its
        # checks on outputs an earlier pass left behind.
        self.system.fill_lanes(range(self.system.num_pes), 0, self.poison)
        step = StepResult()
        with timed(tracer, step):
            results = self._run_pass()
        step.latencies.append(step.wall_s)
        for result in results:
            step.add_ledger(result.ledger)
        self.check(results)
        return step

    def modelled_pass(self) -> float:
        """Cost-model seconds of one analytic pass on seed-0 inputs."""
        system = DimmSystem(GEOMETRY_256, mram_bytes=self.mram_bytes,
                            backend="vectorized")
        return sum(app.run(HypercubeManager(system, shape=shape),
                           PidCommBackend(), functional=False).seconds
                   for app, shape in self.build_apps(0))


# ======================================================================
# dense_collectives and faulty_collectives
# ======================================================================
#: The nine calls of one step: (primitive, dimension bitmap, per-PE size
#: as a fraction of the step's base size S).  Over a 2-D cube, "10" is a
#: row slice, "01" a column slice and "11" the full cube.
STEP_CALLS = (
    ("alltoall", "10", 1.0),
    ("alltoall", "11", 1.0),
    ("reduce_scatter", "01", 1.0),
    ("allreduce", "11", 1.0),
    ("allgather", "01", None),     # S / group: the output is S per PE
    ("scatter", "10", 0.25),
    ("gather", "11", 0.25),
    ("reduce", "10", 1.0),
    ("broadcast", "01", 0.25),
)

SUMS = ("reduce_scatter", "allreduce", "reduce")


@dataclass
class _Call:
    primitive: str
    dims: str
    size: int               # total_data_size argument (bytes)
    groups: np.ndarray      # (instances, members) PE ids
    in_elems: int           # per-PE (or per-instance payload) input elems
    out_elems: int          # per-PE output elems (in-memory primitives)
    #: Expected output for input set A: per-PE rows ``(npes, out_elems)``
    #: in PE-id order, or per-instance host outputs for gather/reduce.
    expected: np.ndarray | None = None

    @property
    def shift(self) -> int:
        """How much input set A + 1 raises each output element."""
        return self.groups.shape[1] if self.primitive in SUMS else 1


class DenseCollectives:
    """One default-config Communicator on a 32x32 cube of 1024 PEs.

    One operation is one step of the nine :data:`STEP_CALLS`, covering
    all eight primitives over row, column and full-cube slices on dense
    random int64 data.  Before each call the benchmark stages the
    call's input (alternating between input sets A and A + 1, so a
    stale output can never pass) and after it reads the output back and
    compares it with numpy; both happen outside the timed windows.
    """

    name = "dense_collectives"
    tail_pct = 75.0
    geometry = GEOMETRY_1024
    shape = (32, 32)
    base_bytes = 16 * KIB
    src, dst = 0, 16 * KIB
    mram_bytes = 32 * KIB
    warm_up_steps = 1

    def session_config(self, seed: int) -> SessionConfig:
        return SessionConfig()

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.system = DimmSystem(self.geometry, mram_bytes=self.mram_bytes,
                                 backend="vectorized")
        self.manager = HypercubeManager(self.system, shape=self.shape)
        self.comm = Communicator(self.manager, self.session_config(seed))
        grid = pe_grid(self.manager)
        self.npes = self.manager.num_nodes
        self.pes = list(range(self.npes))
        base = rng.integers(-(1 << 20), 1 << 20,
                            (self.npes, self.base_bytes // 8), dtype=np.int64)
        #: Input sets A and A + 1, one row per PE id.
        self.inputs = (base, base + 1)
        self.calls = []
        for primitive, dims, scale in STEP_CALLS:
            table = checks.group_table(grid, selected_dims(dims))
            members = table.shape[1]
            size = (self.base_bytes // members if scale is None
                    else int(self.base_bytes * scale))
            elems = size // 8
            in_elems = elems * members if primitive == "scatter" else elems
            out_elems = {"allgather": elems * members,
                         "reduce_scatter": elems // members}.get(primitive,
                                                                 elems)
            self.calls.append(_Call(primitive, dims, size, table, in_elems,
                                    out_elems))
        self.payloads = {}
        for call in self.calls:
            if call.primitive in ("scatter", "broadcast"):
                payload = rng.integers(-(1 << 20), 1 << 20,
                                       (call.groups.shape[0], call.in_elems),
                                       dtype=np.int64)
                self.payloads[call.primitive] = (payload, payload + 1)
        # Warm up on input set A + 1, so the first timed step (set A)
        # cannot pass on outputs the warm-up left behind.
        for _ in range(self.warm_up_steps):
            self._run_step(1, None, check=False)

    def prepare_checks(self) -> None:
        for call in self.calls:
            members = call.groups.shape[1]
            if call.primitive == "scatter":
                grouped = checks.expected_scatter(
                    self.payloads["scatter"][0], members)
            elif call.primitive == "broadcast":
                grouped = checks.expected_broadcast(
                    self.payloads["broadcast"][0], members)
            else:
                grouped = checks.expected_collective(
                    call.primitive,
                    self.inputs[0][:, :call.in_elems][call.groups])
            if call.primitive in ("gather", "reduce"):
                call.expected = grouped
                continue
            rows = np.empty((self.npes, call.out_elems), dtype=np.int64)
            rows[call.groups] = grouped
            call.expected = rows

    def _invoke(self, call: _Call, parity: int):
        method = getattr(self.comm, call.primitive)
        if call.primitive in ("scatter", "broadcast"):
            payload = self.payloads[call.primitive][parity]
            return method(call.dims, call.size, dst_offset=self.dst,
                          data_type="int64",
                          payloads=dict(enumerate(payload)))
        if call.primitive in ("gather", "reduce"):
            return method(call.dims, call.size, src_offset=self.src,
                          data_type="int64")
        return method(call.dims, call.size, src_offset=self.src,
                      dst_offset=self.dst, data_type="int64")

    def _stage(self, call: _Call, parity: int) -> None:
        if call.primitive in ("scatter", "broadcast"):
            return
        rows = self.inputs[parity][:, :call.in_elems]
        with _detached(self.system) as system:
            system.write_lanes(self.pes, self.src, rows.view(np.uint8))

    def _check(self, call: _Call, result, parity: int) -> None:
        label = f"{call.primitive}@{call.dims}"
        if call.primitive in ("gather", "reduce"):
            got = np.stack([np.asarray(result.host_outputs[g]).view(np.int64)
                            for g in range(call.groups.shape[0])])
        else:
            with _detached(self.system) as system:
                got = system.read_lanes(self.pes, self.dst,
                                        call.out_elems * 8).view(np.int64)
        if parity:
            got -= call.shift
        checks.require_equal(label, got, call.expected)

    def _run_step(self, index: int, tracer, check: bool = True
                  ) -> StepResult:
        step = StepResult()
        parity = index % 2
        failed = False
        for call in self.calls:
            self._stage(call, parity)
            try:
                with timed(tracer, step):
                    result = self._invoke(call, parity)
            except PidCommError:
                failed = True
                continue
            step.add_result(result)
            if check:
                self._check(call, result, parity)
        step.latencies.append(step.wall_s)
        step.failed = int(failed)
        return step

    def step(self, index: int, tracer) -> StepResult:
        return self._run_step(index, tracer)

    def modelled_pass(self) -> float:
        """Cost-model seconds of the nine calls, priced analytically."""
        total = 0.0
        for call in self.calls:
            method = getattr(self.comm, call.primitive)
            offsets = ({"dst_offset": self.dst}
                       if call.primitive in ("scatter", "broadcast")
                       else {"src_offset": self.src})
            total += method(call.dims, call.size, data_type="int64",
                            functional=False, **offsets).seconds
        return total


@contextmanager
def _detached(system: DimmSystem):
    """The system with no fault injector attached, for staging I/O."""
    saved = system.fault_injector
    system.attach_fault_injector(None)
    try:
        yield system
    finally:
        system.attach_fault_injector(saved)


class FaultyCollectives(DenseCollectives):
    """The dense step on 256 PEs with a seeded fault injector.

    Bit flips and dropped transfers are injected at the rates below and
    the session runs the default reliability policy (CRC detection,
    snapshot and whole-collective retry).  Compiled replay never
    consults the injector, so every call runs interpreted.  The rates
    are low enough that no call exhausts its retry budget.  The warm-up
    draws its faults from a fixed stream, so set-up does the same work
    whatever the seed; the timed steps draw from the run's seed.  One
    warm-up step takes about 0.1 s, too short to time steadily, so set-up
    runs three.
    """

    name = "faulty_collectives"
    tail_pct = 90.0
    geometry = GEOMETRY_256
    shape = (16, 16)
    base_bytes = 4 * KIB
    src, dst = 0, 4 * KIB
    mram_bytes = 8 * KIB
    bit_flip_rate = 0.005
    drop_rate = 0.0025
    warm_up_steps = 3

    def session_config(self, seed: int) -> SessionConfig:
        # Seed 0 is the warm-up's fixed fault stream; setup() reseeds.
        self.injector = FaultInjector(seed=0,
                                      bit_flip_rate=self.bit_flip_rate,
                                      drop_rate=self.drop_rate)
        return SessionConfig(fault_injector=self.injector)

    def setup(self, seed: int) -> None:
        super().setup(seed)
        self.injector.rng = np.random.default_rng(seed)
        self.injector.reset_counters()


# ======================================================================
# tenant_serving
# ======================================================================
#: Two tenants of each mix, served together.
TENANT_MIXES = ("dlrm_burst", "gnn_epoch", "bfs_frontier", "moe_route")


class TenantServing:
    """A CollectiveServer with elision on, serving 8 tenants in lockstep.

    Every round, each tenant sends its round's requests one at a time,
    waiting for each reply; the next round starts when all tenants are
    done.  One operation is one request, timed from ``Session.submit``
    until its future resolves.  Every fourth round, each tenant's last
    request of the round runs on freshly staged inputs and its output is
    read back after the round and checked against numpy.
    """

    name = "tenant_serving"
    tail_pct = 99.0
    geometry = GEOMETRY_256
    shape = (16, 16)
    dims = "10"
    region_bytes = 128 * KIB
    check_every = 4
    warm_rounds = 40

    def _loads(self) -> list[TenantLoad]:
        return [TenantLoad(f"{mix}-{k}", mix) for mix in TENANT_MIXES
                for k in range(2)]

    def _server(self, functional: bool, seed: int):
        system = DimmSystem(self.geometry, mram_bytes=self.region_bytes * 8,
                            backend="vectorized")
        manager = HypercubeManager(system, shape=self.shape)
        server = CollectiveServer(manager, SessionConfig(
            elide_transfers=True, functional=functional))
        gen = LoadGenerator(server, self._loads(), dims=self.dims, seed=seed,
                            region_bytes=self.region_bytes)
        return system, manager, server, gen

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.system, self.manager, self.server, self.gen = self._server(
            True, seed)
        self.groups = checks.group_table(pe_grid(self.manager),
                                         selected_dims(self.dims))
        self.pes = list(range(self.manager.num_nodes))
        self.index = {load.tenant_id: i
                      for i, load in enumerate(self.gen.loads)}
        for load in self.gen.loads:
            for slot in range(self.gen.slots):
                self._stage(load.tenant_id, slot, self.gen.base_bytes,
                            np.random.default_rng(
                                [seed, 0, slot, _crc(load.tenant_id)]))
        # Warm-up: one request of every shape the first rounds produce.
        shapes = {}
        for round_idx in range(self.warm_rounds):
            for tenant, request in self._round(round_idx):
                key = (tenant, request.primitive, request.total_data_size,
                       request.src_offset)
                shapes.setdefault(key, [(tenant, request)])
        asyncio.run(self._serve(list(shapes.values()), None, StepResult()))

    def prepare_checks(self) -> None:
        """Serving checks are computed per sampled request."""

    def _round(self, round_idx: int) -> list:
        return [(tenant, dataclasses.replace(
            request, tag=f"{tenant}#{round_idx}#{i}"))
            for i, (tenant, request) in
            enumerate(self.gen.round_requests(round_idx))]

    def _stage(self, tenant: str, slot: int, nbytes: int, rng) -> np.ndarray:
        """Write seeded int64 inputs into a tenant slot's source window.

        MoE tenants get structured-sparse activations: the window splits
        into one segment per group member (expert), and three in four
        experts, the same ones on every PE, stay all-zero.
        """
        index = self.index[tenant]
        offset = index * self.region_bytes + slot * self.gen.slot_bytes
        values = rng.integers(-(1 << 20), 1 << 20,
                              (len(self.pes), nbytes // 8), dtype=np.int64)
        if self.gen.loads[index].mix == "moe_route":
            experts = self.groups.shape[1]
            cold = rng.choice(experts, size=experts * 3 // 4, replace=False)
            values.reshape(len(self.pes), experts, -1)[:, cold] = 0
        self.system.scatter_elements(self.pes, offset, list(values), INT64)
        return values

    def _slot_of(self, tenant: str, request) -> int:
        region = self.index[tenant] * self.region_bytes
        return (request.src_offset - region) // self.gen.slot_bytes

    def _check(self, request, values: np.ndarray) -> None:
        members = self.groups.shape[1]
        elems = request.total_data_size // 8
        out = {"allgather": elems * members,
               "reduce_scatter": elems // members}.get(request.primitive,
                                                       elems)
        rows = np.stack(self.system.gather_elements(
            self.pes, request.dst_offset, out, INT64))
        expected = checks.expected_collective(
            request.primitive, values[:, :elems][self.groups])
        checks.require_equal(f"{request.tag} {request.primitive}",
                             rows[self.groups], expected)

    async def _serve(self, plan: list, tracer, step: StepResult) -> None:
        """Serve one round: one closed-loop client per request list."""

        async def client(requests):
            for tenant, request in requests:
                start = perf_counter()
                step.submitted_at[request.tag] = start
                try:
                    result = await self.gen.sessions[tenant].submit(request)
                except PidCommError:
                    step.failed += 1
                    step.latencies.append(perf_counter() - start)
                    continue
                step.latencies.append(perf_counter() - start)
                step.add_result(result)

        async with self.server:
            with timed(tracer, step):
                await asyncio.gather(*(client(r) for r in plan))

    def step(self, index: int, tracer) -> StepResult:
        per_tenant: dict[str, list] = defaultdict(list)
        for tenant, request in self._round(index):
            per_tenant[tenant].append((tenant, request))
        staged = []
        if index % self.check_every == 0:
            # The last request's source is staged before the round: the
            # mixes' earlier requests only read that slot's source, and
            # nothing after the last request overwrites its output.
            for tenant, items in per_tenant.items():
                request = items[-1][1]
                rng = np.random.default_rng([self.seed, 1, index,
                                             _crc(tenant)])
                staged.append((request, self._stage(
                    tenant, self._slot_of(tenant, request),
                    request.total_data_size, rng)))
        step = StepResult()
        asyncio.run(self._serve(list(per_tenant.values()), tracer, step))
        for request, values in staged:
            self._check(request, values)
        self.last_checked = staged
        return step

    def modelled_pass(self) -> float:
        """Modelled serving clock of rounds 0-4 of seed 0, analytically."""
        _, _, server, gen = self._server(False, 0)
        asyncio.run(gen.run(rounds=5))
        return server.stats.clock


def _crc(text: str) -> int:
    return zlib.crc32(text.encode())


WORKLOADS = {cls.name: cls for cls in
             (PaperApps, DenseCollectives, TenantServing, FaultyCollectives)}
