"""Child-process entry point for :class:`~repro.mp.pool.ProcessWorkerPool`.

Each worker owns one contiguous client shard and speaks a small message
protocol over a duplex pipe:

========================  =====================================================
parent → worker           worker → parent
========================  =====================================================
``("init", spec)``        ``("ready",)``
``("round", ids, name,    ``("done", arena_name, manifest, scalars, steps,
manifest, scalars)``      timings, telemetry)``
``("pull",)``             ``("states", {cid: state})`` / ``("snapshot", blobs)``
``("push", payload)``     ``("ok",)``
``("stop",)``             ``("ok",)``, then exits
========================  =====================================================

The parent sends ``("round", …)`` from
:meth:`~repro.mp.pool.ProcessWorkerPool.dispatch` and reads the ``"done"``
reply in :meth:`~repro.mp.pool.ProcessWorkerPool.run_round`; in between the
worker trains while the parent is free (a hierarchical round dispatches
every edge's pool before collecting any).

The init ``spec`` carries ``blas_threads``, this worker's share of the
host's BLAS thread budget (``max(1, usable_cores // concurrent_workers)``,
computed parent-side over every pool that runs at once).  The worker caps
the OpenBLAS it loaded with numpy to that count before building any client,
so concurrently training workers never oversubscribe the cores.

``telemetry`` is this round's worker-side metrics delta — a
``MetricsRegistry.dump_state()`` labelled ``worker=<id>`` (CPU seconds,
the worker's own peak RSS, its BLAS thread count as read back from the
library (``worker_blas_threads``), shm attach/arena-generation counts,
kernel-call counters, a ``local_update`` duration histogram) plus, when the
spec opted in with ``profile=True``, the round's collapsed-stack
``cProfile`` capture of the local-update section.  The parent merges deltas in worker-index order
(:class:`~repro.mp.pool.ProcessWorkerPool` holds the merged registry), so
the combined telemetry is deterministic for a deterministic schedule.

Any handler failure replies ``("err", traceback_str)`` and keeps the loop
alive so the parent can decide what to do.

The worker mirrors the runners' execution gate exactly: with
``client_batch > 1`` eligible clients run as stacked cohorts through
:func:`repro.core.batched.run_batched_updates` (untraced — cohort spans are
a documented loss of the process backend), and everything else runs the
per-client path under :func:`repro.obs.timed_call` so the parent can emit
``local_update`` spans with honest worker-side timestamps.

Broadcast payloads arrive as read-only views of the parent's shared segment;
each client receives its own fresh copy, matching the per-client isolation
:meth:`~repro.comm.exchange.PacketExchange.open_dispatch` provides on the
serial path.  Uploads go back through the worker-owned arena — arrays are
packed under ``"{cid}|{key}"`` keys (no packet key contains ``"|"``), and
non-array payload entries travel over the pipe in ``scalars``.
"""

from __future__ import annotations

import copy
import cProfile
import ctypes
import time
import traceback
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.batched import count_client_steps, run_batched_updates
from ..nn.functional import kernel_call_counts
from ..obs import timed_call
from ..obs.metrics import MetricsRegistry
from ..obs.profiler import collapse_profile
from .shm import ShmArena, ShmAttachment, live_arena_stats

__all__ = ["worker_main"]


def _peak_rss_bytes() -> int:
    """This process's own peak resident set size, in bytes.

    ``VmHWM`` belongs to the address space, which ``exec`` replaces;
    ``ru_maxrss`` survives ``exec``, so a spawned worker (fork, then exec)
    would report at least its parent's peak at spawn time.  ``ru_maxrss``
    is the fallback where ``/proc`` is absent.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS bytes.
        return int(usage) * (1 if usage > 1 << 32 else 1024)
    except Exception:  # pragma: no cover - resource is POSIX-only
        return 0


_BLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)
_BLAS_GETTERS = tuple(name.replace("_set_", "_get_") for name in _BLAS_SETTERS)


def set_blas_threads(count: int) -> Optional[int]:
    """Cap every OpenBLAS mapped into this process at ``count`` threads.

    Returns the thread count the library reports back, or ``None`` when no
    OpenBLAS is loaded (the cap is then a no-op).  Runs after numpy has
    loaded its BLAS, so it needs no environment variable set before import.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "blas" in line.lower()}
    except OSError:
        return None
    reported = None
    for path in sorted(p for p in paths if p.startswith("/")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        setter = next((getattr(lib, n) for n in _BLAS_SETTERS if hasattr(lib, n)), None)
        getter = next((getattr(lib, n) for n in _BLAS_GETTERS if hasattr(lib, n)), None)
        if setter is None:
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(int(count))
        if getter is not None and reported is None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            reported = int(getter())
    return reported


class _WorkerState:
    """Everything one worker holds between messages."""

    def __init__(self, spec: Dict[str, object], worker_id: int = 0):
        self.mode = spec["mode"]
        self.worker_id = int(worker_id)
        self.client_batch = int(spec.get("client_batch", 1))
        self.profile = bool(spec.get("profile", False))
        self.blas_threads = set_blas_threads(int(spec["blas_threads"]))
        self.arena = ShmArena(str(spec["prefix"]))
        self.attachment = ShmAttachment()
        if self.mode == "eager":
            self.clients = {}
            for cls, model, dataset, config, cid, state in spec["clients"]:
                client = cls(cid, model, dataset, config)
                client.load_client_state(state)
                self.clients[cid] = client
        elif self.mode == "store":
            from ..scale.store import ClientStateStore

            self.store = ClientStateStore(
                spec["factory"],
                num_clients=int(spec["num_clients"]),
                live_cap=int(spec["live_cap"]),
                state_codec=str(spec["state_codec"]),
                compress=spec["compress"],
                config=spec["config"],
            )
            blobs = spec.get("blobs") or {}
            if blobs:
                self.store.restore({"blobs": blobs})
        else:  # pragma: no cover - guarded parent-side
            raise ValueError(f"unknown worker mode {self.mode!r}")

    # ------------------------------------------------------------- execution
    def _run_clients(self, clients, received, uploads, steps, timings):
        """The runners' shared gate, replayed worker-side."""
        remaining = list(clients)
        if self.client_batch > 1 and len(remaining) > 1:
            batched = run_batched_updates(
                remaining, received, self.client_batch, tracer=None
            )
            if batched is not None:
                cohort_uploads, leftover, _total = batched
                uploads.update(cohort_uploads)
                remaining = leftover
        for client in remaining:
            upload, t0, t1 = timed_call(client.update, received[client.client_id])
            uploads[client.client_id] = upload
            timings[client.client_id] = (t0, t1)
        for client in clients:
            steps[client.client_id] = count_client_steps(client)

    def run_round(self, ids, bcast_name, bcast_manifest, bcast_scalars):
        cpu0 = time.process_time()
        kernels0 = kernel_call_counts()
        shm0 = live_arena_stats()
        generation0 = self.arena.generation
        template = self.attachment.view(bcast_name, bcast_manifest, copy=False)
        # Fresh per-client copies, matching open_dispatch's per-client
        # isolation on the serial path.
        received = {
            cid: {
                **{k: np.array(v, copy=True) for k, v in template.items()},
                **copy.deepcopy(bcast_scalars),
            }
            for cid in ids
        }
        uploads: Dict[int, Dict[str, object]] = {}
        steps: Dict[int, int] = {}
        timings: Dict[int, Tuple[float, float]] = {}
        profile = cProfile.Profile() if self.profile else None
        if profile is not None:
            profile.enable()
        try:
            if self.mode == "eager":
                self._run_clients([self.clients[cid] for cid in ids], received,
                                  uploads, steps, timings)
            else:
                # Wave through the shard at this worker's live_cap share,
                # exactly as the parent's virtual round would through the
                # population.
                cap = self.store.live_cap
                for start in range(0, len(ids), cap):
                    wave = list(ids[start : start + cap])
                    clients = [self.store.checkout(cid) for cid in wave]
                    try:
                        self._run_clients(clients, received, uploads, steps, timings)
                    finally:
                        for cid in wave:
                            self.store.release(cid)
        finally:
            if profile is not None:
                profile.disable()

        arrays: List[Tuple[str, np.ndarray]] = []
        scalars: Dict[int, Dict[str, object]] = {}
        for cid in ids:
            for key, value in uploads[cid].items():
                if isinstance(value, np.ndarray):
                    arrays.append((f"{cid}|{key}", value))
                else:
                    scalars.setdefault(cid, {})[key] = value
        name, manifest = self.arena.pack(arrays)
        telemetry = self._round_telemetry(
            ids, steps, timings, cpu0, kernels0, shm0, generation0, profile
        )
        return name, manifest, scalars, steps, timings, telemetry

    def _round_telemetry(
        self, ids, steps, timings, cpu0, kernels0, shm0, generation0, profile
    ) -> Dict[str, object]:
        """This round's worker-side metrics delta (see module docstring)."""
        reg = MetricsRegistry()
        label = {"worker": self.worker_id}
        reg.counter("worker_cpu_seconds", **label).inc(time.process_time() - cpu0)
        reg.counter("worker_rounds", **label).inc(1)
        reg.counter("worker_client_updates", **label).inc(len(ids))
        reg.counter("worker_client_steps", **label).inc(sum(steps.values()))
        shm1 = live_arena_stats()
        reg.counter("worker_shm_attaches", **label).inc(
            shm1["attaches"] - shm0["attaches"]
        )
        reg.counter("worker_arena_generations", **label).inc(
            self.arena.generation - generation0
        )
        reg.gauge("worker_shm_bytes", **label).set(float(shm1["bytes"]))
        reg.gauge("worker_peak_rss_bytes", **label).set(float(_peak_rss_bytes()))
        if self.blas_threads is not None:
            reg.gauge("worker_blas_threads", **label).set(float(self.blas_threads))
        for kernel, count in sorted(kernel_call_counts().items()):
            delta = count - kernels0.get(kernel, 0)
            if delta:
                reg.counter("worker_kernel_calls", kernel=kernel, **label).inc(delta)
        hist = reg.histogram("worker_local_update_seconds", **label)
        for t0, t1 in timings.values():
            hist.observe(t1 - t0)
        folded = collapse_profile(profile) if profile is not None else None
        return {"state": reg.dump_state(), "profile": folded}

    # ------------------------------------------------------- state transfer
    def pull(self):
        if self.mode == "eager":
            # client_state() deliberately excludes model parameters (dispatch
            # overwrites them each round) — ship the post-round flat vector
            # alongside so the parent-side clients mirror a serial run exactly.
            states = {}
            for cid, c in self.clients.items():
                flat = getattr(c.vectorizer, "flat_params", None)
                states[cid] = (
                    c.client_state(),
                    None if flat is None else np.array(flat, copy=True),
                )
            return "states", states
        return "snapshot", self.store.snapshot()["blobs"]

    def push(self, payload) -> None:
        if self.mode == "eager":
            for cid, state in payload.items():
                self.clients[cid].load_client_state(state)
        else:
            self.store.restore({"blobs": payload})

    def close(self) -> None:
        self.attachment.close()
        self.arena.close()


def worker_main(conn, worker_id: int) -> None:
    """Blocking message loop; runs until ``("stop",)`` or EOF."""
    state: _WorkerState | None = None
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            op = msg[0]
            try:
                if op == "init":
                    state = _WorkerState(msg[1], worker_id)
                    conn.send(("ready",))
                elif op == "round":
                    assert state is not None
                    conn.send(
                        ("done",) + state.run_round(msg[1], msg[2], msg[3], msg[4])
                    )
                elif op == "pull":
                    assert state is not None
                    conn.send(state.pull())
                elif op == "push":
                    assert state is not None
                    state.push(msg[1])
                    conn.send(("ok",))
                elif op == "stop":
                    conn.send(("ok",))
                    break
                else:
                    conn.send(("err", f"unknown op {op!r}"))
            except Exception:
                conn.send(("err", traceback.format_exc()))
    finally:
        if state is not None:
            state.close()
        conn.close()
