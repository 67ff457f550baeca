"""Parent side of the process execution backend: :class:`ProcessWorkerPool`.

The pool owns ``num_workers`` spawn-context child processes, each holding one
contiguous shard of the population (cut by
:func:`repro.hier.topology.contiguous_shards` — the same ``np.array_split``
blocking as edge sharding).  Per round, the parent packs the broadcast
payload **once** into a shared-memory arena, every worker maps it read-only,
runs its shard's local updates (per-client or as stacked cohorts, mirroring
the runners' ``client_batch`` gate), and writes upload arrays into its own
arena slot; the parent maps them back as zero-copy read-only views.

A round has two halves.  :meth:`ProcessWorkerPool.dispatch` packs the
broadcast and sends it to the workers without waiting;
:meth:`ProcessWorkerPool.run_round` collects the uploads (dispatching first
when the round was not already dispatched).  The hierarchical runner
dispatches every edge's pool before collecting any, so the edges' workers
train at once.  Because they do, each worker caps its BLAS at
``max(1, usable_cores // concurrent_workers)`` threads, where
``concurrent_workers`` counts the workers of every pool that runs at once
(default: this pool's own).

Because each client's ``update()`` is a deterministic function of its own
state and the (bitwise-shared) broadcast vector, and because the caller
folds uploads through :class:`~repro.core.partial.ExactPartial`, the
grouping into processes is invisible: a process run is bitwise identical to
the serial run.  The pool guarantees the state side of that contract:
workers hold the authoritative client state between rounds, and
:meth:`sync_parent` / :meth:`push_from_parent` move it across the boundary
bit-exactly (``client_state()``/``load_client_state`` for eager clients,
blob snapshots for store-backed populations) for checkpoints, inspection,
and shutdown.

Everything shipped at init must pickle: eager clients travel as
``(type, model, dataset, config, cid, client_state())`` tuples (the flat
engine re-homes parameters on reconstruction, so view aliasing survives the
trip), store populations as ``(factory, blobs)``.  Closure factories and
lambda ``model_fn``s don't pickle — :class:`repro.scale.virtual.ClientFactory`
and :class:`repro.core.models.SeededModelFn` are the picklable equivalents.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..hier.topology import contiguous_shards
from ..obs.metrics import MetricsRegistry
from ..obs.profiler import current_profiler
from .shm import ShmArena, ShmAttachment
from .workers import blas_thread_budget

__all__ = ["ProcessWorkerPool", "payload_template"]

#: Seconds :meth:`ProcessWorkerPool.close` waits for its workers to stop.
_STOP_GRACE_S = 5.0

#: Monotone pool counter — keeps arena names unique when one process builds
#: several pools (runner + edges, or sequential runs).
_POOL_SEQ = 0


def _profile_requested() -> bool:
    """Should spawned workers capture local-update profiles?

    Read at pool-construction time from the context-local profiler: the
    workers inherit the opt-in (their folded stacks come back through the
    result channel), armed only when the profiler wants ``local_update``.
    """
    profiler = current_profiler()
    return profiler is not None and profiler.wants("local_update")


def payload_template(
    payloads: Mapping[int, Mapping[str, object]], ids: Sequence[int]
) -> Optional[Mapping[str, object]]:
    """The shared broadcast template behind per-client payload dicts.

    The runners dispatch one global snapshot per round, so every client's
    decoded payload is bitwise the same tree; the pool then broadcasts one
    copy through shared memory instead of ``len(ids)``.  Returns ``None``
    when the payloads differ (custom communicators could in principle
    per-client them) — the caller falls back to in-process execution.
    """
    template = payloads[ids[0]]
    for cid in ids[1:]:
        other = payloads[cid]
        if other.keys() != template.keys():
            return None
        for key, value in template.items():
            ov = other[key]
            if isinstance(value, np.ndarray) or isinstance(ov, np.ndarray):
                if not (
                    isinstance(value, np.ndarray)
                    and isinstance(ov, np.ndarray)
                    and value.dtype == ov.dtype
                    and value.shape == ov.shape
                    and np.array_equal(value, ov)
                ):
                    return None
            else:
                try:
                    differs = bool(value != ov)
                except (TypeError, ValueError):
                    # Containers holding arrays (a custom communicator could
                    # nest them) have no unambiguous equality — treat the
                    # payloads as non-template and let the caller fall back.
                    return None
                if differs:
                    return None
    return template


class ProcessWorkerPool:
    """A pool of spawn-context worker processes owning client shards.

    Build via :meth:`from_eager_clients` or :meth:`from_store`; drive with
    :meth:`run_round`, or with :meth:`dispatch` then :meth:`run_round` so the
    workers train while the parent does other work (one round in flight at a
    time); keep the parent authoritative with :meth:`sync_parent` (workers →
    parent) and :meth:`push_from_parent` (parent → workers); :meth:`close`
    tears everything down (arenas unlinked, children joined).
    """

    def __init__(
        self, mode: str, specs: List[Dict], shards, clients=None, store=None,
        concurrent_workers: Optional[int] = None,
    ):
        global _POOL_SEQ
        _POOL_SEQ += 1
        self.mode = mode
        self.shards: Tuple[Tuple[int, ...], ...] = tuple(shards)
        self.num_workers = len(self.shards)
        #: Worker-shipped metrics deltas, merged in worker-index order each
        #: round — deterministic for a deterministic schedule.
        self.telemetry = MetricsRegistry()
        self._clients = clients  # eager: {cid: parent-side BaseClient}
        self._store = store  # store: the parent-side ClientStateStore
        self._prefix = f"rpmp{os.getpid()}x{_POOL_SEQ}"
        #: ``(ids, worker indices)`` of the dispatched, uncollected round
        self._inflight: Optional[Tuple[Tuple[int, ...], List[int]]] = None
        blas_threads = blas_thread_budget(
            self.num_workers if concurrent_workers is None else concurrent_workers
        )
        self._bcast = ShmArena(f"{self._prefix}b")
        self._attachment = ShmAttachment()
        self._ctx = mp.get_context("spawn")
        self._procs = []
        self._conns = []
        try:
            from .worker import worker_main

            for w, spec in enumerate(specs):
                spec["prefix"] = f"{self._prefix}w{w}"
                spec["blas_threads"] = blas_threads
                parent_conn, child_conn = self._ctx.Pipe(duplex=True)
                proc = self._ctx.Process(
                    target=worker_main, args=(child_conn, w), daemon=True,
                    name=f"repro-mp-{w}",
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
            for w, spec in enumerate(specs):
                try:
                    self._conns[w].send(("init", spec))
                except Exception as exc:
                    raise RuntimeError(
                        "could not ship worker init state to a spawned process — "
                        "everything the process backend ships must pickle "
                        "(use repro.scale.virtual.ClientFactory / "
                        "repro.core.models.SeededModelFn instead of closures "
                        f"or lambdas): {exc}"
                    ) from exc
            for w in range(len(specs)):
                self._expect(w, "ready")
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------ construction
    @classmethod
    def from_eager_clients(
        cls, clients: Sequence, num_workers: int, client_batch: int = 1,
        concurrent_workers: Optional[int] = None,
    ):
        """Shard materialised clients across ``num_workers`` processes.
        ``concurrent_workers`` is the worker count of every pool that trains
        at the same time as this one (the BLAS budget's divisor)."""
        by_id = {c.client_id: c for c in clients}
        shards = contiguous_shards([c.client_id for c in clients], num_workers)
        specs = [
            {
                "mode": "eager",
                "client_batch": int(client_batch),
                "profile": _profile_requested(),
                "clients": [
                    (
                        type(by_id[cid]),
                        by_id[cid].model,
                        by_id[cid].dataset,
                        by_id[cid].config,
                        cid,
                        by_id[cid].client_state(),
                    )
                    for cid in shard
                ],
            }
            for shard in shards
        ]
        return cls("eager", specs, shards, clients=by_id, concurrent_workers=concurrent_workers)

    @classmethod
    def from_store(
        cls, store, num_workers: int, client_batch: int = 1, ids=None,
        concurrent_workers: Optional[int] = None,
    ):
        """Shard a virtual population: each worker builds its own
        :class:`~repro.scale.store.ClientStateStore` over the shared factory
        and waves through its shard at a ``live_cap`` share.  ``ids`` narrows
        the sharded population (an edge's store addresses global client ids
        but owns only its shard)."""
        try:
            pickle.dumps(store.factory)
        except Exception as exc:
            raise RuntimeError(
                "execution_backend='process' needs a picklable client factory; "
                "build the store with repro.scale.virtual builders (module-level "
                "ClientFactory + a picklable model_fn such as "
                f"repro.core.models.SeededModelFn), not a closure: {exc}"
            ) from exc
        if ids is None:
            ids = range(store.num_clients)
        shards = contiguous_shards(ids, num_workers)
        blobs = store.snapshot()["blobs"]
        live_share = max(1, store.live_cap // max(1, len(shards)))
        specs = [
            {
                "mode": "store",
                "client_batch": int(client_batch),
                "profile": _profile_requested(),
                "factory": store.factory,
                "num_clients": store.num_clients,
                "live_cap": live_share,
                "state_codec": getattr(store.pipeline, "spec", "identity"),
                "compress": store.compress,
                "config": store.config,
                "blobs": {cid: b for cid, b in blobs.items() if cid in set(shard)},
            }
            for shard in shards
        ]
        return cls("store", specs, shards, store=store, concurrent_workers=concurrent_workers)

    # --------------------------------------------------------------- messaging
    def _expect(self, w: int, op: str):
        try:
            reply = self._conns[w].recv()
        except EOFError:
            raise RuntimeError(
                f"process worker {w} died (pipe closed); check stderr for the "
                f"child traceback"
            ) from None
        if reply[0] == "err":
            raise RuntimeError(f"process worker {w} failed:\n{reply[1]}")
        if reply[0] != op:
            raise RuntimeError(f"process worker {w}: expected {op!r}, got {reply[0]!r}")
        return reply[1:]

    # ---------------------------------------------------------------- rounds
    @property
    def in_flight(self) -> bool:
        """Is a dispatched round waiting to be collected?"""
        return self._inflight is not None

    def dispatch(self, ids: Sequence[int], template: Mapping[str, object]) -> None:
        """Start one round's local updates for ``ids`` and return at once.

        Packs ``template`` (the shared broadcast payload, see
        :func:`payload_template`) once into the broadcast arena and sends
        each worker its share of ``ids``; a worker hands every client its
        own fresh copy.  :meth:`run_round` with the same
        ids collects the result.  Raises ``RuntimeError`` while another
        round is in flight.
        """
        if self._inflight is not None:
            raise RuntimeError(
                f"a round for clients {list(self._inflight[0])} is already in flight; "
                f"collect it with run_round before dispatching another"
            )
        arrays = [(k, v) for k, v in template.items() if isinstance(v, np.ndarray)]
        scalars = {k: v for k, v in template.items() if not isinstance(v, np.ndarray)}
        name, manifest = self._bcast.pack(arrays)
        sent: List[int] = []
        for w, shard in enumerate(self.shards):
            members = set(shard)
            worker_ids = [cid for cid in ids if cid in members]
            if worker_ids:
                self._conns[w].send(("round", worker_ids, name, manifest, scalars))
                sent.append(w)
        self._inflight = (tuple(ids), sent)

    def run_round(self, ids: Sequence[int], template: Mapping[str, object]):
        """Collect one round's local updates for ``ids``.

        Dispatches first unless :meth:`dispatch` already started this round
        for the same ids (other ids raise ``RuntimeError``).  Returns
        ``(uploads, steps, timings)`` keyed by client id — upload arrays are
        read-only shared-memory views valid until the next round's dispatch
        or :meth:`close`; ``timings`` holds worker-side ``(t0, t1)``
        perf-counter pairs for per-client-path updates (cohort members have
        no per-client span, as on the threaded path they share one
        ``cohort_step``).  Every worker's reply is read even when one
        fails, so the pool stays usable after a failed round.
        """
        if self._inflight is None:
            self.dispatch(ids, template)
        elif self._inflight[0] != tuple(ids):
            raise RuntimeError(
                f"run_round for clients {list(ids)} but the round in flight is for "
                f"{list(self._inflight[0])}"
            )
        _, sent = self._inflight
        self._inflight = None
        uploads: Dict[int, Dict[str, object]] = {}
        steps: Dict[int, int] = {}
        timings: Dict[int, Tuple[float, float]] = {}
        error: Optional[RuntimeError] = None
        for w in sent:
            try:
                up_name, up_manifest, up_scalars, w_steps, w_timings, w_telemetry = (
                    self._expect(w, "done")
                )
            except RuntimeError as exc:
                error = error or exc
                continue
            self._absorb_telemetry(w, w_telemetry)
            views = self._attachment.view(up_name, up_manifest, copy=False)
            for flat_key, arr in views.items():
                cid_str, key = flat_key.split("|", 1)
                uploads.setdefault(int(cid_str), {})[key] = arr
            for cid, extra in up_scalars.items():
                uploads.setdefault(cid, {}).update(extra)
            steps.update(w_steps)
            timings.update(w_timings)
        if error is not None:
            raise error
        missing = [cid for cid in ids if cid not in uploads]
        if missing:
            raise RuntimeError(f"process workers returned no upload for clients {missing}")
        return uploads, steps, timings

    def _absorb_telemetry(self, w: int, telemetry: Optional[Mapping]) -> None:
        """Fold one worker's round delta into the pool registry/profiler.

        Called in worker-index order from :meth:`run_round`; registry
        merging is order-deterministic, so two identical runs produce the
        identical merged telemetry.
        """
        if not telemetry:
            return
        state = telemetry.get("state")
        if state:
            self.telemetry.merge(state)
        folded = telemetry.get("profile")
        if folded:
            profiler = current_profiler()
            if profiler is not None:
                profiler.add_folded("local_update", folded, root=f"worker:{w}")

    # ----------------------------------------------------------- state traffic
    def _require_idle(self, what: str) -> None:
        if self._inflight is not None:
            raise RuntimeError(f"cannot {what} while a dispatched round is in flight")

    def sync_parent(self) -> None:
        """Pull authoritative state out of the workers into the parent-side
        clients/store (checkpoint capture, shutdown, inspection)."""
        self._require_idle("sync worker state")
        for conn in self._conns:
            conn.send(("pull",))
        if self.mode == "eager":
            for w in range(self.num_workers):
                (states,) = self._expect(w, "states")
                for cid, (state, flat) in states.items():
                    client = self._clients[cid]
                    client.load_client_state(state)
                    if flat is not None:
                        target = getattr(client.vectorizer, "flat_params", None)
                        if target is not None:
                            np.copyto(target, flat)
        else:
            merged = self._store.snapshot()["blobs"]
            for w in range(self.num_workers):
                (blobs,) = self._expect(w, "snapshot")
                merged.update(blobs)
            self._store.restore({"blobs": merged})

    def push_from_parent(self) -> None:
        """Push parent-side state down into the workers (checkpoint restore)."""
        self._require_idle("push worker state")
        if self.mode == "eager":
            for w, shard in enumerate(self.shards):
                self._conns[w].send(
                    ("push", {cid: self._clients[cid].client_state() for cid in shard})
                )
        else:
            blobs = self._store.snapshot()["blobs"]
            for w, shard in enumerate(self.shards):
                shard_set = set(shard)
                self._conns[w].send(
                    ("push", {cid: b for cid, b in blobs.items() if cid in shard_set})
                )
        for w in range(self.num_workers):
            self._expect(w, "ok")

    # ----------------------------------------------------------------- teardown
    def close(self) -> None:
        """Stop the workers, join them, and release every shared segment.

        A round still in flight is drained: each worker finishes it, its
        reply is read and dropped, and the worker then stops and unlinks its
        arena.  Workers that do not exit within the grace period are
        terminated.
        """
        self._inflight = None
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except Exception:
                pass
        deadline = time.monotonic() + _STOP_GRACE_S
        for proc, conn in zip(self._procs, self._conns):
            # Reading the replies keeps a worker from blocking on a full pipe.
            while proc.is_alive() and time.monotonic() < deadline:
                try:
                    if conn.poll(0.05):
                        conn.recv()
                except (EOFError, OSError):
                    proc.join(timeout=max(0.0, deadline - time.monotonic()))
                    break
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass
        self._attachment.close()
        self._bcast.close()
        self._procs = []
        self._conns = []
