"""The edge aggregator: one shard's server-side half, folded to a summary.

An :class:`EdgeAggregator` owns one shard of the client population and the
algorithm's *server-side per-client machinery* for exactly that shard: its
``server`` is the registered algorithm server built with
``shard=<its client ids>`` (so an IIADMM edge holds the dual replicas of its
own clients and replays line 6 for their uploads — the same
:meth:`~repro.core.base.BaseServer.ingest` code path the flat server runs,
including the lossy-codec reconcile contract with
:meth:`~repro.core.base.BaseClient.reconcile_upload`).

What an edge does *not* do is produce a global model: after folding its
shard's decoded uploads it emits one **shard summary** — the packed
:class:`~repro.core.partial.ExactPartial` of its clients'
:meth:`~repro.core.base.BaseServer.partial_term` contributions — and the
root combines the E summaries.  Because the partials are exact, the
two-tier fold is bit-for-bit the flat aggregation, while root traffic drops
from O(clients) to O(edges) packets per round.

Clients attach either eagerly (a list of :class:`~repro.core.base.
BaseClient`) or virtually (a per-edge :class:`~repro.scale.store.
ClientStateStore`); store-backed shards run in waves of the store's
``live_cap``, exactly like :class:`~repro.core.runner.FederatedRunner`'s
virtual mode, so a 100k-client population runs under a bounded live set.

The client↔edge hop has its own codec stack (``FLConfig.edge_codec``): the
edge re-encodes the root's global for its shard and is the single decode
point for its clients' uploads.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..comm import Communicator, client_endpoint
from ..comm.records import DeadLetter
from ..core.base import GLOBAL_KEY, BaseClient, BaseServer
from ..core.batched import count_client_steps, run_batched_updates
from ..core.exchange import PacketExchange
from ..core.partial import ExactPartial, pack_partial
from ..core.runner import PHASES
from ..mp import resolve_workers
from ..obs import current_monitor, current_tracer, timed_call
from ..privacy import dispatch_fingerprint

__all__ = ["EdgeAggregator"]


@dataclass
class _DispatchedRound:
    """A shard round between dispatch and collection."""

    round_idx: int
    #: the downlink packets that arrived, per client id
    received: Dict[int, object]
    #: the global the shard trains on (decoded when the hop is lossy)
    dispatched_global: np.ndarray
    #: reachable, uncrashed clients in shard order
    active_ids: List[int]
    #: payloads opened at dispatch on the process backend, reused at collection
    payloads: Optional[Dict[int, Dict]] = None
    #: the broadcast template the edge's pool holds (``None``: in-process round)
    template: Optional[Mapping[str, object]] = None
    #: the privacy dedupe key, computed at the first charged ingest
    privacy_key: Optional[Tuple[int, int]] = None


def _phase_timings(timings: Optional[Dict[str, float]]) -> Dict[str, float]:
    timings = timings if timings is not None else {}
    for phase in PHASES[:4]:  # the shard loop has no evaluate phase
        timings.setdefault(phase, 0.0)
    return timings


class EdgeAggregator:
    """One edge: a shard of clients plus the shard-scoped algorithm server.

    Parameters
    ----------
    edge_id:
        This edge's index in the topology.
    server:
        The algorithm server built with ``shard=`` this edge's client ids
        (and the *global* ``num_clients`` / sample counts, so its per-client
        terms match the flat server's bitwise).
    clients / client_store:
        The shard's clients — eager instances or a per-edge
        :class:`~repro.scale.store.ClientStateStore` (exactly one of the
        two).
    exchange:
        The client↔edge hop's :class:`~repro.core.exchange.PacketExchange`.
    communicator:
        Charges the client↔edge hop's bytes/seconds (shared across edges by
        the synchronous runner; endpoint names stay globally unique because
        client ids are global).
    max_workers:
        Thread-pool width for client updates (``FLConfig.parallel_clients``
        semantics; 0 = one per core).
    """

    def __init__(
        self,
        edge_id: int,
        server: BaseServer,
        clients: Optional[Sequence[BaseClient]] = None,
        client_store=None,
        exchange: Optional[PacketExchange] = None,
        communicator: Optional[Communicator] = None,
        max_workers: Optional[int] = None,
    ):
        if (clients is None or not list(clients)) and client_store is None:
            raise ValueError("an edge needs clients or a client_store")
        if clients and client_store is not None:
            raise ValueError("pass either clients or client_store, not both")
        self.edge_id = int(edge_id)
        self.server = server
        self.shard: Tuple[int, ...] = server.shard
        self.clients = list(clients) if clients else []
        self._store = client_store
        if self.clients and sorted(c.client_id for c in self.clients) != list(self.shard):
            raise ValueError(
                f"edge {edge_id}'s clients {sorted(c.client_id for c in self.clients)} "
                f"do not match its shard {list(self.shard)}"
            )
        self._client_by_id = {c.client_id: c for c in self.clients}
        self.exchange = exchange if exchange is not None else PacketExchange(server.config.codec)
        # Clients derive their lossy-wire bookkeeping (IIADMM's reconcile
        # stash) from their own config's codec — a mismatch with this hop's
        # stack would silently desynchronise the dual replicas.  Fail fast.
        endpoint_codecs = {c.config.codec for c in self.clients}
        store_config = getattr(client_store, "config", None)
        if store_config is not None:
            endpoint_codecs.add(store_config.codec)
        for codec in endpoint_codecs:
            if PacketExchange(codec).spec != self.exchange.spec:
                raise ValueError(
                    f"edge {edge_id}'s clients were built with codec {codec!r} but its "
                    f"client-hop exchange uses {self.exchange.spec!r}; hier clients "
                    f"must carry the edge-hop codec"
                )
        self.communicator = communicator
        if max_workers is None:
            max_workers = server.config.parallel_clients
        self.max_workers = resolve_workers(max_workers)
        self.backend = str(getattr(server.config, "execution_backend", "thread"))
        if self.backend == "process" and self.exchange.lossy:
            raise ValueError(
                f"execution_backend='process' requires a lossless client-hop "
                f"codec; {self.exchange.spec!r} is lossy and its reconcile "
                f"step needs parent-side client state"
            )
        self._pool = None  # ProcessWorkerPool over this edge's shard
        #: workers of every pool that trains at the same time as this edge's
        #: (the BLAS budget's divisor); the hier runner sets it to the sum
        #: over its edges, ``None`` means this pool alone
        self.concurrent_workers: Optional[int] = None
        #: the round dispatch_local_round started and run_local_round finishes
        self._dispatched: Optional[_DispatchedRound] = None
        self.worker_telemetry = None  # banked metrics from retired pools
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_width = 0
        self._pending_steps: Dict[int, int] = {}
        #: the latest global model received from the root (decoded)
        self._global: np.ndarray = server.global_params.copy()
        #: ADMM-family servers absorb uploads in ingest(); FedAvg-style ones
        #: contribute per-upload terms, folded incrementally so a store-backed
        #: shard never holds more than a wave of decoded payloads.
        self._streaming = hasattr(server, "aggregate_global")
        self._fold: Optional[ExactPartial] = None
        self._participants: List[int] = []
        #: cumulative client optimizer steps this edge executed (see
        #: FederatedRunner.client_steps; the hier runner sums edges per round).
        self.client_steps: int = 0
        self.begin_collect()

    # ------------------------------------------------------------ global hop
    def receive_global(self, payload: "Dict[str, np.ndarray]") -> None:
        """Install the root's (decoded) broadcast as this edge's current
        global model — the ``w`` every subsequent shard dispatch carries and
        the dual-replay reference its uploads are ingested against."""
        self._global = np.asarray(payload[GLOBAL_KEY]).copy()
        self.server.global_params = self._global
        self.server.sync_model()

    @property
    def current_global(self) -> np.ndarray:
        return self._global

    # -------------------------------------------------------------- folding
    def begin_collect(self) -> None:
        """Reset the summary fold (called at the start of a collection
        window: a synchronous round, or an async buffer window)."""
        self._participants = []
        if not self._streaming:
            self._fold = ExactPartial(self.server.vectorizer.dim, self.server.vectorizer.dtype)

    def ingest_upload(self, cid: int, payload, dispatched_global: np.ndarray) -> None:
        """Decode + absorb one client upload (the shard's single decode
        point).  ``dispatched_global`` must be the global snapshot *this
        client* trained on — under async staleness that is the dispatch-time
        ``w``, not the edge's current one."""
        decoded = self.server.ingest(cid, payload, dispatched_global)
        self._participants.append(int(cid))
        if not self._streaming:
            self._fold.add(self.server.partial_term(cid, decoded))
        tracer = current_tracer()
        if tracer is not None:
            tracer.event(
                "edge_ingest", "edge", lane=f"edge:{self.edge_id}",
                edge=self.edge_id, client=int(cid),
            )

    def summarize(self) -> Tuple[Dict[str, np.ndarray], Tuple[int, ...]]:
        """Fold the collection window into one shard summary.

        Returns the packed partial (``psum:<i>`` tensors, ready for the
        edge→root codec) and the participating global client ids.  ADMM
        summaries cover the whole shard's last-known state (the
        partial-participation form of the global update); FedAvg summaries
        cover exactly the window's uploads.  Resets the fold.
        """
        participants = tuple(sorted(self._participants))
        partial = self.server.partial_sum() if self._streaming else self._fold
        summary = pack_partial(partial)
        self.server.round += 1
        self.begin_collect()
        tracer = current_tracer()
        if tracer is not None:
            tracer.event(
                "edge_summary", "edge", lane=f"edge:{self.edge_id}",
                edge=self.edge_id, participants=len(participants),
            )
        return summary, participants

    def initial_summary(self) -> Tuple[Dict[str, np.ndarray], Tuple[int, ...]]:
        """The shard's round-0 summary (ADMM family only: the fold of the
        initial primal/dual state every client implicitly shares).  Lets an
        asynchronous root combine over *all* edges before slow ones report."""
        if not self._streaming:
            raise ValueError("initial summaries only exist for ADMM-family servers")
        return pack_partial(self.server.partial_sum()), ()

    # ------------------------------------------------------ client execution
    def _acquire(self, cid: int) -> BaseClient:
        if self._store is None:
            return self._client_by_id[cid]
        return self._store.checkout(cid)

    def _release(self, cid: int) -> None:
        if self._store is not None:
            self._store.release(cid)

    def _update_clients(self, clients: Sequence[BaseClient], payloads) -> Dict[int, Dict]:
        # Same cohort gate as FederatedRunner._update_clients: with
        # client_batch > 1 and a lossless client-hop, eligible shard members
        # run as stacked cohorts (bitwise identical at float64) and the rest
        # fall back to the per-client path below.
        cfg = self.server.config
        client_batch = int(getattr(cfg, "client_batch", 1) or 1)
        self._pending_steps = {}
        if client_batch > 1 and len(clients) > 1 and not self.exchange.lossy:
            batched = run_batched_updates(
                clients, payloads, client_batch, tracer=current_tracer()
            )
            if batched is not None:
                uploads, leftover, _steps = batched
                if leftover:
                    uploads.update(self._update_clients_eager(leftover, payloads))
                self._pending_steps = {c.client_id: count_client_steps(c) for c in clients}
                return {c.client_id: uploads[c.client_id] for c in clients}
        uploads = self._update_clients_eager(clients, payloads)
        self._pending_steps = {c.client_id: count_client_steps(c) for c in clients}
        return uploads

    def _settle_steps(self, gathered) -> None:
        """Fold pending step counts of surviving clients only (see
        FederatedRunner._settle_steps — uplink dead letters must not count)."""
        self.client_steps += sum(self._pending_steps.get(cid, 0) for cid in gathered)
        self._pending_steps = {}

    @property
    def pool_workers(self) -> int:
        """Worker processes in this edge's pool (0 off the process backend)."""
        if self.backend != "process":
            return 0
        return min(self.max_workers, len(self.shard))

    def _ensure_pool(self):
        if self._pool is None:
            from ..mp.pool import ProcessWorkerPool

            client_batch = int(getattr(self.server.config, "client_batch", 1) or 1)
            if self._store is not None:
                self._pool = ProcessWorkerPool.from_store(
                    self._store, self.pool_workers, client_batch=client_batch,
                    ids=self.shard, concurrent_workers=self.concurrent_workers,
                )
            else:
                self._pool = ProcessWorkerPool.from_eager_clients(
                    self.clients, self.pool_workers, client_batch=client_batch,
                    concurrent_workers=self.concurrent_workers,
                )
        return self._pool

    def _retire_pool(self) -> None:
        """Pull worker state home and discard the pool (see
        FederatedRunner._retire_pool) — an in-process fallback round would
        otherwise leave the workers stale and a later pooled round (or a
        second fallback's ``sync_parent``) would silently diverge."""
        if self._pool is not None:
            try:
                # A round still in flight was abandoned mid-way (a peer
                # edge's collection raised): the workers' state is mid-round,
                # so it is not synced home; close() drains it.
                if not self._pool.in_flight:
                    self._pool.sync_parent()
            finally:
                self._bank_pool_telemetry()
                self._pool.close()
                self._pool = None

    def _bank_pool_telemetry(self) -> None:
        """Fold the dying pool's worker metrics into a registry that outlives
        it, so a fallback round doesn't silently drop worker telemetry."""
        telemetry = getattr(self._pool, "telemetry", None)
        if telemetry is None or not telemetry.snapshot()["counters"]:
            return
        if self.worker_telemetry is None:
            from ..obs import MetricsRegistry

            self.worker_telemetry = MetricsRegistry()
        self.worker_telemetry.merge(telemetry)

    def _emit_worker_spans(self, ids, timings) -> None:
        tracer = current_tracer()
        monitor = current_monitor()
        if tracer is None and monitor is None:
            return
        for cid in ids:
            t = timings.get(cid)
            if t is not None:
                if tracer is not None:
                    tracer.emit_span(
                        "local_update", "client", t[0], t[1],
                        lane=f"client:{cid}", client=cid, edge=self.edge_id,
                        backend="process",
                    )
                if monitor is not None:
                    monitor.observe_local_update(t[1] - t[0], client=cid)

    def _update_clients_eager(self, clients: Sequence[BaseClient], payloads) -> Dict[int, Dict]:
        # With a tracer armed, updates are timed in place and the spans
        # emitted afterwards from this thread in client order (see
        # FederatedRunner._update_clients) — order and results are unchanged.
        tracer = current_tracer()
        monitor = current_monitor()
        if self.backend != "serial" and self.max_workers > 1 and len(clients) > 1:
            # Size by this call's participants, not the whole shard — degraded
            # rounds would over-provision.  Grow-only, like the flat runner.
            needed = min(self.max_workers, len(clients))
            if self._executor is None or self._executor_width < needed:
                if self._executor is not None:
                    self._executor.shutdown(wait=True)
                self._executor = ThreadPoolExecutor(
                    max_workers=needed,
                    thread_name_prefix=f"hier-edge{self.edge_id}",
                )
                self._executor_width = needed
            if tracer is None and monitor is None:
                results = list(self._executor.map(lambda c: c.update(payloads[c.client_id]), clients))
                return {c.client_id: r for c, r in zip(clients, results)}
            timed = list(
                self._executor.map(lambda c: timed_call(c.update, payloads[c.client_id]), clients)
            )
            for client, (_, t0, t1) in zip(clients, timed):
                if tracer is not None:
                    tracer.emit_span(
                        "local_update", "client", t0, t1,
                        lane=f"client:{client.client_id}",
                        client=client.client_id, edge=self.edge_id,
                    )
                if monitor is not None:
                    monitor.observe_local_update(t1 - t0, client=client.client_id)
            return {c.client_id: r for c, (r, _, _) in zip(clients, timed)}
        if tracer is None and monitor is None:
            return {c.client_id: c.update(payloads[c.client_id]) for c in clients}
        uploads: Dict[int, Dict] = {}
        for client in clients:
            upload, t0, t1 = timed_call(client.update, payloads[client.client_id])
            if tracer is not None:
                tracer.emit_span(
                    "local_update", "client", t0, t1,
                    lane=f"client:{client.client_id}",
                    client=client.client_id, edge=self.edge_id,
                )
            if monitor is not None:
                monitor.observe_local_update(t1 - t0, client=client.client_id)
            uploads[client.client_id] = upload
        return uploads

    def _end_phase(self, timings, phase: str, t0: float, round_idx: int) -> float:
        """Charge ``[t0, now)`` to ``phase`` and trace it on this edge's
        lane; returns ``now``."""
        now = time.perf_counter()
        timings[phase] += now - t0
        tracer = current_tracer()
        if tracer is not None:
            tracer.emit_span(
                phase, "phase", t0, now, lane=f"edge:{self.edge_id}",
                edge=self.edge_id, round=round_idx,
            )
        return now

    def _client_config(self, cid: int):
        if self._store is None:
            return self._client_by_id[cid].config
        return self._store.config if self._store.config is not None else self.server.config

    def _ingest_gathered(self, pending, configs, gathered, accountant) -> None:
        """Ingest the gathered uploads in ``configs`` order (``(cid,
        config)`` pairs).  Privacy is charged per *accepted* ingest, keyed on
        the exact dispatched-global bytes so a crash-recovery replay of this
        shard round never double-spends the budget."""
        for cid, cfg in configs:
            if cid not in gathered:
                continue
            self.ingest_upload(cid, gathered[cid], pending.dispatched_global)
            if accountant is not None and cfg.privacy.enabled:
                if pending.privacy_key is None:
                    pending.privacy_key = dispatch_fingerprint(
                        pending.round_idx, pending.dispatched_global
                    )
                accountant.record(cid, cfg.privacy.epsilon, key=pending.privacy_key)

    def dispatch_local_round(
        self, round_idx: int, timings: Optional[Dict[str, float]] = None
    ) -> None:
        """Start one synchronous shard round without waiting for it.

        Broadcasts this edge's global to its shard and applies the
        degraded-cohort rules; on the process backend it also opens the
        payloads and hands the round to the edge's worker pool, which trains
        while the caller moves on (the hier runner dispatches every edge
        before collecting any).  :meth:`run_local_round` finishes the round.
        ``timings`` (when given) accumulates the runner's phase keys.
        """
        timings = _phase_timings(timings)
        shard = list(self.shard)
        injector = self.communicator.injector if self.communicator is not None else None
        tick = time.perf_counter()
        broadcast_payload = {GLOBAL_KEY: self._global.copy()}
        packet = self.exchange.encode_dispatch(broadcast_payload)
        if self.communicator is not None:
            received = self.communicator.broadcast(round_idx, packet, shard)
        else:
            received = {cid: packet for cid in shard}
        if self.exchange.lossy:
            dispatched_global = self.exchange.open_dispatch(packet)[GLOBAL_KEY]
        else:
            dispatched_global = broadcast_payload[GLOBAL_KEY]
        # Same degraded-cohort rules as the flat runner: unreachable clients
        # sit the round out, crashed ones die before computing (their local
        # state — and this edge's server-side replica of it — must not
        # advance), and their unsent uploads are dead-lettered.
        active_ids = [cid for cid in shard if cid in received]
        if injector is not None:
            crashed = [cid for cid in active_ids if injector.client_crashed(cid, round_idx)]
            if crashed:
                crashed_set = set(crashed)
                active_ids = [cid for cid in active_ids if cid not in crashed_set]
                for cid in crashed:
                    injector.count("crash")
                    self.communicator.log.add_dead_letter(
                        DeadLetter(round_idx, client_endpoint(cid), "send_local", 0, 0, "crash")
                    )
        pending = _DispatchedRound(round_idx, received, dispatched_global, active_ids)
        phase = "broadcast"
        if self.backend == "process" and len(active_ids) > 1:
            from ..mp.pool import payload_template

            pending.payloads = {
                cid: self.exchange.open_dispatch(received[cid]) for cid in active_ids
            }
            template = payload_template(pending.payloads, active_ids)
            if template is None:
                # Re-home the workers' authoritative state and drop the
                # now-stale pool; this round runs in-process.
                self._retire_pool()
            else:
                tick = self._end_phase(timings, "broadcast", tick, round_idx)
                self._ensure_pool().dispatch(active_ids, template)
                pending.template = template
                phase = "local_update"  # dispatching starts the shard's training
        self._dispatched = pending
        self._end_phase(timings, phase, tick, round_idx)

    def _collect_process(self, pending, accountant, timings) -> None:
        """Finish a round this edge's pool holds: collect → gather → ingest
        (see FederatedRunner._virtual_round_process — same structure, with
        the edge's ingest fold instead of a server finalize)."""
        round_idx, ids = pending.round_idx, pending.active_ids
        tick = time.perf_counter()
        uploads, steps, wtimings = self._pool.run_round(ids, pending.template)
        self._emit_worker_spans(ids, wtimings)
        tick = self._end_phase(timings, "local_update", tick, round_idx)

        # Lossless client hop is enforced for this backend — no reconcile.
        packets = {
            cid: self.exchange.encode_upload(uploads[cid], pending.payloads[cid][GLOBAL_KEY])
            for cid in ids
        }
        if self.communicator is not None:
            gathered = self.communicator.collect(round_idx, packets)
        else:
            gathered = packets
        self.client_steps += sum(steps.get(cid, 0) for cid in gathered)
        tick = self._end_phase(timings, "gather", tick, round_idx)

        configs = [(cid, self._client_config(cid)) for cid in ids]
        self._ingest_gathered(pending, configs, gathered, accountant)
        self._end_phase(timings, "aggregate", tick, round_idx)

    def _run_waves(self, pending, accountant, timings) -> None:
        """Run a round in-process, a wave of ``live_cap`` clients at a time
        (the whole shard at once when eager): update → gather → ingest."""
        round_idx = pending.round_idx
        tracer = current_tracer()
        monitor = current_monitor()
        opened = pending.payloads or {}
        wave = max(1, int(self._store.live_cap)) if self._store is not None else len(self.shard)
        for start in range(0, len(pending.active_ids), wave):
            ids = pending.active_ids[start : start + wave]
            wave_start = tick = time.perf_counter()
            clients = [self._acquire(cid) for cid in ids]
            payloads = {
                cid: opened[cid] if cid in opened
                else self.exchange.open_dispatch(pending.received[cid])
                for cid in ids
            }
            tick = self._end_phase(timings, "broadcast", tick, round_idx)

            uploads = self._update_clients(clients, payloads)
            tick = self._end_phase(timings, "local_update", tick, round_idx)

            packets = {}
            for client in clients:
                cid = client.client_id
                packets[cid] = self.exchange.encode_upload(uploads[cid], payloads[cid][GLOBAL_KEY])
                self.exchange.reconcile(client, uploads[cid], packets[cid], payloads[cid][GLOBAL_KEY])
            if self.communicator is not None:
                gathered = self.communicator.collect(round_idx, packets)
            else:
                gathered = packets
            self._settle_steps(gathered)
            tick = self._end_phase(timings, "gather", tick, round_idx)

            configs = [(c.client_id, c.config) for c in clients]
            self._ingest_gathered(pending, configs, gathered, accountant)
            self._end_phase(timings, "aggregate", tick, round_idx)
            for cid in ids:
                self._release(cid)
            if tracer is not None:
                tracer.emit_span(
                    "wave", "round", wave_start, time.perf_counter(),
                    lane=f"edge:{self.edge_id}", edge=self.edge_id, round=round_idx,
                    wave=start // wave, clients=len(ids),
                )
            if monitor is not None:
                monitor.on_wave(self, round_idx, start // wave)

    def run_local_round(
        self,
        round_idx: int,
        accountant=None,
        timings: Optional[Dict[str, float]] = None,
    ) -> Tuple[Dict[str, np.ndarray], Tuple[int, ...]]:
        """One synchronous shard round: dispatch → update → gather → ingest.

        Finishes the round :meth:`dispatch_local_round` started for
        ``round_idx``, running that step first when it has not run (serial
        and thread backends, a crash replay).  Mirrors
        :meth:`FederatedRunner.run_round`'s client loop over this shard
        (wave-limited when store-backed, one pool round on the process
        backend), then folds the uploads into the shard summary via
        :meth:`summarize`.  ``timings`` (when given) accumulates the
        runner's phase keys.
        """
        timings = _phase_timings(timings)
        pending = self._dispatched
        if pending is None or pending.round_idx != round_idx:
            self.dispatch_local_round(round_idx, timings)
            pending = self._dispatched
        self._dispatched = None
        if pending.template is not None:
            self._collect_process(pending, accountant, timings)
        else:
            self._run_waves(pending, accountant, timings)
        tick = time.perf_counter()
        summary, participants = self.summarize()
        self._end_phase(timings, "aggregate", tick, round_idx)
        return summary, participants

    # -------------------------------------------------------------- plumbing
    def close(self) -> None:
        self._retire_pool()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
            self._executor_width = 0
