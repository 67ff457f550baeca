"""Process execution backend: bitwise equivalence, state sync, and the
worker-pool bugfix sweep.

The contract of :mod:`repro.mp`: with ``FLConfig.execution_backend =
"process"`` each round's local updates run in spawn-context worker processes
over shared-memory arenas, and the result is **bitwise identical** to the
serial backend for FedAvg / ICEADMM / IIADMM — histories, global parameters,
client RNG streams, ADMM dual replicas — across eager, store-backed, and
hierarchical federations, composing with ``client_batch``, tracing,
checkpoints, and the fault layer.  ``SharedMemoryTransport`` round-trips
payloads through a real shm segment bitwise.  The regression tests at the
bottom pin the worker-pool bugfix sweep: negative worker counts raise,
executors are sized by the participating cohort (not the full population),
and ``client_steps`` counts surviving clients only.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.comm import SerialCommunicator, SharedMemoryTransport
from repro.core import FLConfig, build_federation
from repro.core.base import GLOBAL_KEY
from repro.core.batched import count_client_steps
from repro.core.fedavg import FedAvgClient
from repro.core.models import MLP, SeededModelFn
from repro.core.runner import FederatedRunner
from repro.data import TensorDataset
from repro.faults import FaultPlan
from repro.hier import build_hier_federation
from repro.hier.topology import contiguous_shards
from repro.mp import ProcessWorkerPool, payload_template, resolve_workers
from repro.obs import Tracer, use_tracer
from repro.scale import RunCheckpoint, build_virtual_federation

ALGORITHMS = ("fedavg", "iiadmm", "iceadmm")


def _datasets(num_clients, n=4, d=6, classes=3, seed=0):
    out = []
    for cid in range(num_clients):
        rng = np.random.default_rng(seed * 1_000_003 + cid)
        x = rng.standard_normal((n, d))
        y = rng.integers(0, classes, size=n)
        out.append(TensorDataset(x, y))
    return out


def _model_fn(d=6, classes=3):
    def build():
        return MLP(d, classes, hidden_sizes=(5,), rng=np.random.default_rng(42))

    return build


def _seeded_model_fn(d=6, classes=3):
    """Picklable equivalent of :func:`_model_fn` for store+process runs."""
    return SeededModelFn("mlp", (1, 1, d), classes, seed=42, hidden_sizes=(5,))


def _config(algorithm, backend, dtype="float64", **kwargs):
    return FLConfig(
        algorithm=algorithm,
        num_rounds=2,
        local_steps=2,
        batch_size=2,
        lr=0.05,
        seed=0,
        dtype=dtype,
        parallel_clients=2,
        execution_backend=backend,
        **kwargs,
    )


def _history_key(history):
    return [(r.round, r.test_accuracy, r.test_loss, r.comm_bytes) for r in history.rounds]


def _client_key(client):
    return (
        client.client_id,
        client.round,
        client.vectorizer.flat_params.tobytes(),
        repr(client.rng.bit_generator.state),
        None
        if not hasattr(client, "dual")
        else (client.dual.tobytes(), client.primal.tobytes()),
    )


def _run_flat(algorithm, backend, dtype, **cfg_kwargs):
    cfg = _config(algorithm, backend, dtype, **cfg_kwargs)
    runner = build_federation(cfg, _model_fn(), _datasets(5), test_dataset=_datasets(1, n=20)[0])
    history = runner.run()
    runner.close()  # syncs worker state back before we read it
    return (
        _history_key(history),
        runner.server.global_params.tobytes(),
        [_client_key(c) for c in runner.clients],
        runner.client_steps,
    )


def _run_hier(algorithm, backend, dtype, live_cap=None):
    cfg = _config(algorithm, backend, dtype, topology="edges:2")
    runner = build_hier_federation(
        cfg, _seeded_model_fn(), _datasets(6), test_dataset=_datasets(1, n=20)[0],
        live_cap=live_cap,
    )
    history = runner.run()
    duals = []
    if hasattr(runner.edges[0].server, "duals"):
        duals = [
            (edge.edge_id, cid, edge.server.duals[cid].tobytes())
            for edge in runner.edges
            for cid in edge.shard
        ]
    return (
        _history_key(history),
        runner.server.global_params.tobytes(),
        [(e.edge_id, e.server.global_params.tobytes()) for e in runner.edges],
        duals,
    )


# ------------------------------------------------------------- equivalence
class TestBitwiseMatrix:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_flat_serial_thread_process(self, algorithm, dtype):
        """serial == thread == process, bitwise, for every algorithm — same
        histories, global vector, client params/RNG streams, ADMM duals."""
        serial = _run_flat(algorithm, "serial", dtype)
        thread = _run_flat(algorithm, "thread", dtype)
        process = _run_flat(algorithm, "process", dtype)
        assert serial == thread
        assert serial == process

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_hier_serial_vs_process(self, algorithm, dtype):
        """Hierarchical (eager edges): per-edge pools reproduce the serial
        run bitwise, including every edge's IIADMM dual replicas."""
        assert _run_hier(algorithm, "serial", dtype) == _run_hier(algorithm, "process", dtype)

    def test_hier_store_backed_process(self):
        """Store-backed edges: each worker rebuilds its shard's slice from
        the pickled factory + state blobs and stays bitwise."""
        serial = _run_hier("iiadmm", "serial", "float64", live_cap=2)
        process = _run_hier("iiadmm", "process", "float64", live_cap=2)
        assert serial == process

    @pytest.mark.parametrize("algorithm", ["fedavg", "iiadmm"])
    def test_virtual_store_process(self, algorithm):
        """Flat virtual population: the process run's history, global vector,
        and post-run store blobs equal the serial run's."""

        def run(backend):
            runner = build_virtual_federation(
                _config(algorithm, backend), _seeded_model_fn(), _datasets(6),
                live_cap=4, test_dataset=_datasets(1, n=20)[0],
            )
            history = runner.run()
            runner.close()
            blobs = runner._store.snapshot()["blobs"]
            return (
                _history_key(history),
                runner.server.global_params.tobytes(),
                sorted(blobs.items()),
            )

        assert run("serial") == run("process")

    def test_client_batch_composes_with_process(self):
        """Workers replay the runners' batched-cohort gate: client_batch > 1
        under the process backend stays bitwise with serial per-client."""
        serial = _run_flat("iiadmm", "serial", "float64")
        batched_process = _run_flat("iiadmm", "process", "float64", client_batch=3)
        assert serial == batched_process


# ------------------------------------------------------ observability/state
class TestProcessObservability:
    def test_traced_equals_untraced_and_emits_worker_spans(self):
        """An armed tracer never perturbs a process run, and worker-side
        local_update spans surface parent-side in client order with the
        backend label."""
        untraced = _run_flat("fedavg", "process", "float64")
        tracer = Tracer()
        with use_tracer(tracer):
            traced = _run_flat("fedavg", "process", "float64")
        assert traced == untraced
        spans = [
            r for r in tracer.records
            if r.get("name") == "local_update" and r.get("backend") == "process"
        ]
        assert spans, "no worker-side local_update spans reached the tracer"
        per_round = [r["client"] for r in spans if r["lane"].startswith("client:")]
        # Client order within each round: emitted sorted by client id.
        clients_per_round = 5
        for start in range(0, len(per_round), clients_per_round):
            chunk = per_round[start : start + clients_per_round]
            assert chunk == sorted(chunk)
        for r in spans:
            assert r["t1"] >= r["t0"]

    def test_checkpoint_roundtrip_through_pool(self):
        """Interrupt a process-backend run, restore into a fresh process
        federation, continue — bitwise the uninterrupted serial run (the
        pool's sync_parent/push_from_parent hooks)."""
        serial = _run_flat("iiadmm", "serial", "float64")

        cfg = _config("iiadmm", "process")
        first = build_federation(cfg, _model_fn(), _datasets(5), test_dataset=_datasets(1, n=20)[0])
        first.run(1)
        blob = RunCheckpoint.save(first).to_bytes()
        first.close()

        resumed = build_federation(cfg, _model_fn(), _datasets(5), test_dataset=_datasets(1, n=20)[0])
        RunCheckpoint.from_bytes(blob).restore(resumed)
        history = resumed.run(1)
        resumed.close()
        assert (
            _history_key(history)[1:],
            resumed.server.global_params.tobytes(),
            [_client_key(c) for c in resumed.clients],
        ) == (serial[0][1:], serial[1], serial[2])

    def test_chaos_smoke_under_process_backend(self):
        """The chaos harness end to end with execution_backend='process':
        churn converges, kills recover, and both bitwise checks (async
        boundary kill + sync edge crash on the worker pool) hold."""
        from repro.harness.chaos import ChaosSettings, run_chaos

        result = run_chaos(ChaosSettings(
            num_clients=8,
            num_edges=4,
            kills=1,
            num_rounds=3,
            bitwise_rounds=2,
            samples_per_client=6,
            test_size=16,
            execution_backend="process",
        ))
        assert result.sync_backend == "process"
        assert result.sync_bitwise_identical
        assert result.ok


# ------------------------------------------------------------- transport
class TestSharedMemoryTransport:
    def test_state_dict_roundtrip_is_isolated_and_exact(self):
        with SharedMemoryTransport() as transport:
            state = {"w": np.arange(12, dtype=np.float64).reshape(3, 4), "b": np.ones(3)}
            out = transport.broadcast(0, state, [0, 1])
            for copy in out.values():
                for key in state:
                    np.testing.assert_array_equal(copy[key], state[key])
                    assert copy[key].dtype == state[key].dtype
            out[0]["w"][0, 0] = 99.0  # receiver must not alias the sender
            assert state["w"][0, 0] == 0.0

    @pytest.mark.parametrize("algorithm", ["fedavg", "iiadmm"])
    def test_run_bitwise_equals_serial_transport(self, algorithm):
        def run(communicator):
            cfg = _config(algorithm, "serial")
            runner = build_federation(
                cfg, _model_fn(), _datasets(4),
                test_dataset=_datasets(1, n=20)[0], communicator=communicator,
            )
            history = runner.run()
            return _history_key(history), runner.server.global_params.tobytes()

        shm = SharedMemoryTransport()
        try:
            assert run(SerialCommunicator()) == run(shm)
        finally:
            shm.close()


# ------------------------------------------------------------- pool pieces
class TestPoolPlumbing:
    def test_contiguous_shards(self):
        shards = contiguous_shards(range(10), 3)
        assert [len(s) for s in shards] == [4, 3, 3]
        assert [cid for shard in shards for cid in shard] == list(range(10))
        with pytest.raises(ValueError):
            contiguous_shards(range(4), 0)

    def test_payload_template_detects_mismatch(self):
        base = {"g": np.arange(4.0), "round": 1}
        same = {0: base, 1: {"g": np.arange(4.0), "round": 1}}
        assert payload_template(same, [0, 1]) is not None
        diverged = {0: base, 1: {"g": np.arange(4.0) + 1, "round": 1}}
        assert payload_template(diverged, [0, 1]) is None
        scalar_diverged = {0: base, 1: {"g": np.arange(4.0), "round": 2}}
        assert payload_template(scalar_diverged, [0, 1]) is None

    def test_payload_template_uncomparable_entries_fall_back(self):
        """A payload entry that is a container of arrays (a custom
        communicator could nest them) has no unambiguous equality — the
        template check must return None (in-process fallback), not raise
        ValueError and kill the round."""
        payloads = {
            0: {"g": np.arange(4.0), "extras": [np.arange(3.0)]},
            1: {"g": np.arange(4.0), "extras": [np.arange(3.0)]},
        }
        assert payload_template(payloads, [0, 1]) is None

    def test_attachment_defers_pinned_segments(self):
        """A superseded segment whose views are still referenced cannot be
        closed yet — the attachment must park the handle and retry later, not
        drop it (which would leak the mmap and fd for the rest of the run)."""
        from repro.mp.shm import ShmArena, ShmAttachment

        arena = ShmArena(f"rpmpdefer{os.getpid()}")
        attachment = ShmAttachment()
        try:
            name1, man1 = arena.pack([("a", np.arange(4.0))])
            attachment.view(name1, man1, copy=False)
            # Pin generation 1 the way an outstanding consumer would: a live
            # buffer export makes close() raise BufferError.  (numpy views
            # release their export at construction, so pin via memoryview.)
            pinned = memoryview(attachment._segments[name1].buf)
            # Bigger payload → the arena grows by recreation under a new name.
            name2, man2 = arena.pack([("a", np.arange(4096.0))])
            assert name2 != name1
            attachment.view(name2, man2, copy=True)
            assert len(attachment._deferred) == 1  # parked, not leaked
            pinned.release()
            attachment.view(name2, man2, copy=True)  # retries the close
            assert attachment._deferred == []
        finally:
            attachment.close()
            arena.close()

    def test_store_factory_must_pickle(self):
        runner = build_virtual_federation(
            _config("fedavg", "process"), _model_fn(), _datasets(4), live_cap=4
        )
        with pytest.raises(RuntimeError, match="picklable"):
            ProcessWorkerPool.from_store(runner._store, 2)

    def test_process_backend_rejects_lossy_codec(self):
        cfg = _config("iiadmm", "process", codec="delta|int8")
        with pytest.raises(ValueError, match="lossless"):
            build_federation(cfg, _model_fn(), _datasets(4))


# ------------------------------------------------- fallback state consistency
class TestFallbackStateSync:
    """Rounds that cannot run on the process pool (non-template payloads)
    fall back in-process — the pool must be retired so the workers' stale
    state can neither serve a later pooled round nor be synced back over the
    parent's progress."""

    @staticmethod
    def _template_gate(monkeypatch, fallback_active):
        """Patch the template probe to report 'not a shared template' (the
        fallback trigger, without needing a custom per-client communicator)
        while ``fallback_active``; restore the real probe otherwise."""
        import repro.mp.pool as mp_pool

        real = mp_pool.payload_template.__wrapped__ if hasattr(
            mp_pool.payload_template, "__wrapped__"
        ) else mp_pool.payload_template
        if fallback_active:
            patched = lambda *a, **k: None  # noqa: E731
            patched.__wrapped__ = real
            monkeypatch.setattr(mp_pool, "payload_template", patched)
        else:
            monkeypatch.setattr(mp_pool, "payload_template", real)

    def test_flat_fallback_rounds_stay_bitwise(self, monkeypatch):
        """Pooled round, two consecutive in-process fallback rounds, pooled
        round again — bitwise the serial run throughout.  Without retiring
        the pool, round 3 would run on workers still holding round-0 state,
        and the second fallback's sync would revert round 1's progress."""

        def run(backend, fallback_rounds=()):
            runner = build_federation(_config("iiadmm", backend), _model_fn(), _datasets(5))
            for rnd in range(4):
                if backend == "process":
                    self._template_gate(monkeypatch, rnd in fallback_rounds)
                runner.run_round(rnd)
                if backend == "process" and rnd in fallback_rounds:
                    assert runner._pool is None, "fallback must retire the stale pool"
            self._template_gate(monkeypatch, False)
            runner.close()
            return (
                runner.server.global_params.tobytes(),
                [_client_key(c) for c in runner.clients],
                runner.client_steps,
            )

        serial = run("serial")
        assert run("process", fallback_rounds=(1, 2)) == serial

    def test_hier_fallback_rounds_stay_bitwise(self, monkeypatch):
        """Same contract for per-edge pools: an edge whose round falls back
        in-process retires its pool and the run stays bitwise serial."""

        def run(backend, fallback_rounds=()):
            cfg = _config("iiadmm", backend, topology="edges:2")
            runner = build_hier_federation(cfg, _seeded_model_fn(), _datasets(6))
            for rnd in range(3):
                if backend == "process":
                    self._template_gate(monkeypatch, rnd in fallback_rounds)
                runner.run_round(rnd)
                if backend == "process" and rnd in fallback_rounds:
                    assert all(e._pool is None for e in runner.edges)
            self._template_gate(monkeypatch, False)
            runner.close()
            duals = []
            if hasattr(runner.edges[0].server, "duals"):
                duals = [
                    (edge.edge_id, cid, edge.server.duals[cid].tobytes())
                    for edge in runner.edges
                    for cid in edge.shard
                ]
            return (
                runner.server.global_params.tobytes(),
                [(e.edge_id, e.server.global_params.tobytes()) for e in runner.edges],
                duals,
            )

        serial = run("serial")
        assert run("process", fallback_rounds=(1,)) == serial


# ---------------------------------------------------- bugfix regression sweep
class TestWorkerPoolBugfixes:
    def test_negative_worker_count_raises(self):
        """Bugfix 1: a negative worker count is a caller error, not a silent
        clamp to 1 — at the shared helper and at every runner entry."""
        with pytest.raises(ValueError, match="worker count"):
            resolve_workers(-1)
        assert resolve_workers(0) == (os.cpu_count() or 1)
        assert resolve_workers(3) == 3

        runner = build_federation(_config("fedavg", "thread"), _model_fn(), _datasets(3))
        with pytest.raises(ValueError, match="worker count"):
            FederatedRunner(runner.server, clients=runner.clients, max_workers=-2)

    def test_executor_sized_by_participants_not_population(self):
        """Bugfix 2: the thread pool is sized by the clients actually running
        this round (here shrunk by crashes), not the full population."""
        cfg = replace(_config("fedavg", "thread"), parallel_clients=8)
        runner = build_federation(cfg, _model_fn(), _datasets(6))
        runner.communicator.install_faults(FaultPlan(seed=0, client_crashes={0: (1, 2)}))
        runner.run_round(0)  # run() would tear the executor down in close()
        assert runner._executor is not None
        participants = len(runner.history.rounds[0].participating_clients)
        assert participants == 4  # 6 clients minus the two crashed
        assert runner._executor._max_workers == participants
        runner.close()

    def test_client_steps_count_survivors_only(self):
        """Bugfix 3: clients felled by faults mid-round contribute no
        client_steps — the throughput metric counts aggregated work only."""
        datasets = _datasets(4)

        clean = build_federation(_config("fedavg", "serial"), _model_fn(), datasets)
        clean.run(1)
        per_client = {c.client_id: count_client_steps(c) for c in clean.clients}
        assert clean.client_steps == sum(per_client.values())

        # Clients 1 and 2 crash in round 0: they never compute, never count.
        crashed = build_federation(_config("fedavg", "serial"), _model_fn(), datasets)
        crashed.communicator.install_faults(FaultPlan(seed=0, client_crashes={0: (1, 2)}))
        crashed.run(1)
        assert crashed.client_steps == per_client[0] + per_client[3]


# ------------------------------------------- concurrent edge pools, BLAS budget
class _FailingClient(FedAvgClient):
    """A FedAvg client whose local update fails (module-level, so spawned
    workers can unpickle it)."""

    def update(self, payload):
        raise ValueError(f"boom: client {self.client_id} failed its local update")


def _gauges(registry, name):
    """``{series key: value}`` of one gauge across worker labels."""
    if registry is None:
        return {}
    gauges = registry.snapshot()["gauges"]
    return {k: v for k, v in gauges.items() if k.startswith(name)}


def _own_rss_bytes():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no VmRSS line")


def _recording_pool(monkeypatch):
    """Record every dispatch/collect as ``(op, pool)`` in call order."""
    calls = []
    real_dispatch = ProcessWorkerPool.dispatch
    real_run_round = ProcessWorkerPool.run_round

    def dispatch(pool, ids, template):
        calls.append(("dispatch", pool))
        return real_dispatch(pool, ids, template)

    def run_round(pool, ids, template):
        calls.append(("collect", pool))
        return real_run_round(pool, ids, template)

    monkeypatch.setattr(ProcessWorkerPool, "dispatch", dispatch)
    monkeypatch.setattr(ProcessWorkerPool, "run_round", run_round)
    return calls


class TestConcurrentEdgePools:
    def _pool(self, num_workers=1):
        runner = build_federation(_config("fedavg", "serial"), _model_fn(), _datasets(4))
        pool = ProcessWorkerPool.from_eager_clients(runner.clients, num_workers)
        template = {GLOBAL_KEY: runner.server.global_params.copy()}
        return pool, [c.client_id for c in runner.clients], template

    def test_hier_round_dispatches_every_edge_before_collecting(self, monkeypatch):
        """Phase-major: both edges' pools train at once — dispatch(e0),
        dispatch(e1), collect(e0), collect(e1), every round."""
        calls = _recording_pool(monkeypatch)
        cfg = _config("iiadmm", "process", topology="edges:2")
        runner = build_hier_federation(cfg, _seeded_model_fn(), _datasets(6))
        try:
            runner.run_round(0)
            runner.run_round(1)
            edge_of = {id(e._pool): e.edge_id for e in runner.edges}
            order = [(op, edge_of[id(pool)]) for op, pool in calls]
        finally:
            runner.close()
        one_round = [("dispatch", 0), ("dispatch", 1), ("collect", 0), ("collect", 1)]
        assert order == one_round * 2

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_edge_crash_replay_while_peer_in_flight_is_bitwise(self, algorithm, monkeypatch):
        """Edge 0 dies after its collection and is replayed while edge 1's
        round is still in flight on its own pool — the run stays bitwise
        the serial run with the same fault plan."""
        plan = FaultPlan(seed=0, edge_crash_rounds={1: (0,)})

        def run(backend):
            cfg = _config(algorithm, backend, topology="edges:2")
            runner = build_hier_federation(
                cfg, _seeded_model_fn(), _datasets(6), test_dataset=_datasets(1, n=20)[0]
            )
            runner.enable_faults(plan)
            history = runner.run()
            key = (
                _history_key(history),
                [r.recovered_edges for r in history.rounds],
                runner.server.global_params.tobytes(),
                [(e.edge_id, e.server.global_params.tobytes()) for e in runner.edges],
            )
            return key, {e.shard: e.edge_id for e in runner.edges}

        serial, _ = run("serial")
        calls = _recording_pool(monkeypatch)
        process, edge_of_shard = run("process")
        assert process == serial
        assert serial[1] == [(), (0,)]
        order = [
            (op, edge_of_shard[tuple(sorted(c for s in pool.shards for c in s))])
            for op, pool in calls
        ]
        # round 1: edge 0's replay (restore, then dispatch + collect) runs
        # between edge 1's dispatch and its collection
        assert order[4:] == [
            ("dispatch", 0), ("dispatch", 1), ("collect", 0),
            ("dispatch", 0), ("collect", 0), ("collect", 1),
        ]

    def test_dispatch_protocol_misuse_raises(self):
        pool, ids, template = self._pool()
        try:
            pool.dispatch(ids, template)
            assert pool.in_flight
            with pytest.raises(RuntimeError, match="already in flight"):
                pool.dispatch(ids, template)
            with pytest.raises(RuntimeError, match="round in flight"):
                pool.run_round(ids[:2], template)
            with pytest.raises(RuntimeError, match="in flight"):
                pool.sync_parent()
            uploads, steps, _ = pool.run_round(ids, template)
            assert sorted(uploads) == ids and sorted(steps) == ids
            assert not pool.in_flight
        finally:
            pool.close()

    def test_close_drains_a_round_in_flight(self):
        """close() with a dispatched round returns promptly, stops every
        worker and leaves none of the pool's shared segments behind."""
        import time

        pool, ids, template = self._pool(num_workers=2)
        prefix = pool._prefix
        procs = list(pool._procs)
        pool.dispatch(ids, template)
        t0 = time.perf_counter()
        pool.close()
        assert time.perf_counter() - t0 < 10.0
        assert not any(p.is_alive() for p in procs)
        if os.path.isdir("/dev/shm"):
            assert not [n for n in os.listdir("/dev/shm") if n.startswith(prefix)]

    def test_close_after_failed_collection_stops_every_edge_pool(self):
        """Edge 0's collection raises (a client's update fails in its
        worker) while edge 1's round is in flight; runner.close() still
        shuts both edges' pools down."""
        cfg = _config("fedavg", "process", topology="edges:2")
        runner = build_hier_federation(cfg, _seeded_model_fn(), _datasets(6))
        for client in runner.edges[0].clients:
            client.__class__ = _FailingClient
        with pytest.raises(RuntimeError, match="boom"):
            runner.run_round(0)
        assert runner.edges[1]._pool.in_flight
        procs = [p for e in runner.edges for p in e._pool._procs]
        runner.close()
        assert all(e._pool is None for e in runner.edges)
        assert not any(p.is_alive() for p in procs)

    def test_blas_budget_hier_and_flat(self):
        """workers × BLAS threads ≤ max(cores, workers): across both edges'
        pools of a hier run and within a flat 2-worker pool; a lone
        1-worker pool keeps every usable core.  The gauge reaches the
        parent's merged worker telemetry."""
        from repro.mp.workers import usable_cores
        from repro.obs import MetricsRegistry

        cores = usable_cores()
        cfg = replace(_config("fedavg", "process", topology="edges:2"), parallel_clients=1)
        hier = build_hier_federation(cfg, _seeded_model_fn(), _datasets(6))
        hier.run(1)
        threads = [
            v for e in hier.edges for v in _gauges(e.worker_telemetry, "worker_blas_threads").values()
        ]
        assert len(threads) == 2
        assert all(t * 2 <= max(cores, 2) for t in threads)

        def flat(workers):
            cfg = replace(_config("fedavg", "process"), parallel_clients=workers)
            runner = build_federation(cfg, _model_fn(), _datasets(4))
            runner.run(1)
            reg = MetricsRegistry()
            reg.absorb_runner(runner)
            return list(_gauges(reg, "worker_blas_threads").values())

        two = flat(2)
        assert len(two) == 2 and all(t * 2 <= max(cores, 2) for t in two)
        assert flat(1) == [cores]

    def test_worker_peak_rss_is_the_workers_own(self):
        """A worker reports its own peak RSS, not the parent's: a parent
        holding ≥200 MB spawns a one-worker pool whose peak stays below it."""
        ballast = np.ones(256 * 2**20 // 8)
        parent_rss = _own_rss_bytes()
        assert parent_rss >= 200 * 2**20
        cfg = replace(_config("fedavg", "process"), parallel_clients=1)
        runner = build_federation(cfg, _model_fn(), _datasets(3))
        runner.run(1)
        peaks = list(_gauges(runner.worker_telemetry, "worker_peak_rss_bytes").values())
        del ballast
        assert len(peaks) == 1
        assert 0 < peaks[0] < parent_rss
