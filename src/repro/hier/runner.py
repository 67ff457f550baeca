"""Synchronous hierarchical federation: root ↔ edges ↔ clients.

:class:`HierRunner` mirrors :class:`~repro.core.runner.FederatedRunner`'s
API (``history``, ``phase_seconds``, ``run()``/``run_round()``, context
management) over a two-tier topology: every round the root's global model is
broadcast once per edge (the edge↔root hop's codec and communicator), each
:class:`~repro.hier.edge.EdgeAggregator` runs its shard's client loop
(client↔edge hop) and folds the uploads into one exact shard summary, and
the root combines the E summaries into the next global model.  Every edge
dispatches its shard round before any edge collects, so on the process
backend all edges' worker pools train at once.

Exactness: with identity codecs on both hops the resulting
:class:`~repro.core.runner.TrainingHistory` — accuracies, losses, the global
parameter vector, and the ADMM dual replicas — is **bit-for-bit** the flat
``FederatedRunner`` run over the same clients, for FedAvg, ICEADMM and
IIADMM alike (see :mod:`repro.core.partial` for why grouping cannot change a
bit, and ``tests/test_hier.py`` for the regression).  Communication metrics
legitimately differ: the hierarchy measures two wires where the flat run
measures one, reported per tier in ``RoundResult.comm_bytes_by_tier``.

Scale: root traffic is O(edges) packets per round instead of O(clients),
and with per-edge :class:`~repro.scale.store.ClientStateStore`s
(``live_cap=`` in :func:`build_hier_federation`) the live client set is
bounded by ``edges × live_cap`` regardless of population size.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import nn
from ..comm import Communicator, SerialCommunicator, edge_endpoint
from ..core.base import BaseServer
from ..core.config import FLConfig
from ..core.exchange import PacketExchange
from ..core.metrics import Evaluator
from ..core.registry import get_algorithm
from ..core.runner import PHASES, RoundResult, TrainingHistory
from ..data import Dataset
from ..obs import current_monitor, current_tracer, timed_call
from ..privacy import PrivacyAccountant
from .edge import EdgeAggregator
from .topology import Topology, build_topology, majority_labels, parse_topology
from ..core.partial import unpack_partial

__all__ = ["HierRunner", "build_hier_federation"]

CLIENT_EDGE = "client_edge"
EDGE_ROOT = "edge_root"


def _hop_codecs(config: FLConfig) -> Tuple[str, str]:
    """The (client↔edge, edge↔root) codec specs a config implies."""
    edge = config.edge_codec if config.edge_codec is not None else config.codec
    root = config.root_codec if config.root_codec is not None else config.codec
    return edge, root


def _check_hier_server(server: BaseServer) -> None:
    if not server.supports_partials:
        raise ValueError(
            f"algorithm server {type(server).__name__} does not implement the "
            f"partial_term/combine_partials split required for hierarchical runs"
        )
    if server.config.adaptive_rho and hasattr(server, "duals"):
        # Root and edges would each grow rho on their own schedule and the
        # per-client dual replays would silently desynchronise — same
        # restriction repro.asyncfl enforces.
        raise ValueError(
            "adaptive_rho is not supported by hierarchical runs for "
            "ADMM-family algorithms: root and edge rho schedules diverge"
        )


class HierRunner:
    """Runs the synchronous two-tier federated-learning loop."""

    def __init__(
        self,
        root: BaseServer,
        edges: Sequence[EdgeAggregator],
        evaluator: Optional[Evaluator] = None,
        accountant: Optional[PrivacyAccountant] = None,
        root_communicator: Optional[Communicator] = None,
        client_communicator: Optional[Communicator] = None,
    ):
        if not list(edges):
            raise ValueError("at least one edge is required")
        _check_hier_server(root)
        self.server = root  # FederatedRunner-compatible attribute name
        self.edges = list(edges)
        covered = sorted(cid for edge in self.edges for cid in edge.shard)
        if covered != list(range(root.num_clients)):
            raise ValueError(
                f"edges cover {len(covered)} client ids but the root expects "
                f"[0, {root.num_clients})"
            )
        self.num_clients = root.num_clients
        edge_spec, root_spec = _hop_codecs(root.config)
        self.exchange = PacketExchange(root_spec)  # the edge↔root hop
        for edge in self.edges:
            if edge.exchange.spec != PacketExchange(edge_spec).spec:
                raise ValueError(
                    f"edge {edge.edge_id} uses client-hop codec {edge.exchange.spec!r} "
                    f"but the config implies {edge_spec!r}"
                )
        if root_communicator is not None and root_communicator is client_communicator:
            # One log cannot serve both tiers: the per-tier byte split below
            # computes per-communicator deltas, so sharing would double-count
            # every round and mislabel every record.
            raise ValueError("root_communicator and client_communicator must be distinct instances")
        self.root_communicator = (
            root_communicator if root_communicator is not None else SerialCommunicator()
        )
        # The runner owns this tier's log naming: records read "edge:<id>".
        # (Plain function as an *instance* attribute — no self-binding on
        # lookup.)  Don't reuse the instance for a flat run afterwards.
        self.root_communicator.endpoint_namer = edge_endpoint
        self.client_communicator = (
            client_communicator if client_communicator is not None else SerialCommunicator()
        )
        for edge in self.edges:
            if edge.communicator is None:
                edge.communicator = self.client_communicator
        # run_round trains every edge's pool at once, so the pools share one
        # BLAS thread budget.
        pooled = sum(edge.pool_workers for edge in self.edges)
        for edge in self.edges:
            edge.concurrent_workers = pooled or None
        self.evaluator = evaluator
        self.accountant = accountant if accountant is not None else PrivacyAccountant()
        self.history = TrainingHistory()
        self.phase_seconds: Dict[str, float] = {phase: 0.0 for phase in PHASES}
        #: cumulative client optimizer steps across all edges and rounds (the
        #: numerator of the client_steps_per_sec throughput metric)
        self.client_steps: int = 0
        #: fault layer (see :meth:`enable_faults`); ``None`` keeps every code
        #: path bit-identical to the fault-free runner
        self.injector = None
        #: last shard summary the root received per edge (decoded), the
        #: stale stand-in ADMM combines for an unreachable edge
        self._last_summary: Dict[int, Dict[str, np.ndarray]] = {}
        #: round-start snapshot crashed edges recover from
        self._ckpt = None

    # ---------------------------------------------------------------- faults
    def enable_faults(self, faults, retry=None) -> "HierRunner":
        """Arm fault injection across the whole two-tier federation.

        ``faults`` is a :class:`repro.faults.FaultPlan` or injector; it is
        installed on *both* communicators (client↔edge and edge↔root link
        faults, client crashes at the uplink seam) and drives the runner's
        own edge-crash/recovery machinery: an edge in the plan's
        ``edge_crash_rounds`` loses its in-memory state mid-round — the root
        detects the death, restores that edge's slice of the round-start
        :class:`~repro.scale.RunCheckpoint`, and replays its shard round.
        ADMM-family roots combine a stale cached summary for edges that stay
        unreachable (their clients' last-known state — the algorithms'
        partial-participation form); FedAvg omits them and renormalises.
        """
        from ..faults.injector import FaultInjector
        from ..faults.plan import FaultPlan

        if isinstance(faults, FaultPlan):
            faults = FaultInjector(faults)
        self.injector = faults
        self.client_communicator.install_faults(faults, retry)
        self.root_communicator.install_faults(faults, retry)
        if hasattr(self.server, "aggregate_global"):
            from ..core.partial import pack_partial

            # Seed the stale-summary cache with each shard's current
            # last-known fold, so an edge unreachable on the very first
            # faulted round still contributes its (initial) state.
            for edge in self.edges:
                self._last_summary[edge.edge_id] = pack_partial(edge.server.partial_sum())
        return self

    # ------------------------------------------------------------------- run
    def run_round(self, round_idx: int) -> RoundResult:
        """Execute one two-tier communication round and return its metrics.

        The edge tier runs phase-major: every live edge dispatches its shard
        round (:meth:`EdgeAggregator.dispatch_local_round`) before any edge
        collects it (:meth:`EdgeAggregator.run_local_round`, in edge order).
        On the process backend the edges' worker pools therefore train at
        the same time; on the serial and thread backends dispatch only
        broadcasts, and each edge trains when it collects.  The result is
        bitwise that of running the edges one after another; only the
        client-hop comm log lists every edge's broadcasts before the gathers.
        """
        timings: Dict[str, float] = {k: 0.0 for k in self.phase_seconds}
        tracer = current_tracer()
        round_start = time.perf_counter()

        def end_phase(phase: str) -> None:
            # Root-tier phase interval; edge-tier intervals are timed (and
            # traced) inside the EdgeAggregator round halves on the edge lanes.
            now = time.perf_counter()
            timings[phase] += now - tick
            if tracer is not None:
                tracer.emit_span(phase, "phase", tick, now, lane="root", round=round_idx)
        client_bytes_before = self.client_communicator.total_bytes()
        root_bytes_before = self.root_communicator.total_bytes()
        seconds_before = (
            self.client_communicator.log.total_seconds()
            + self.root_communicator.log.total_seconds()
        )
        edge_ids = [edge.edge_id for edge in self.edges]
        steps_before = sum(edge.client_steps for edge in self.edges)
        injector = self.injector
        faulted_before = (
            self.client_communicator.log.failed_attempts()
            + self.root_communicator.log.failed_attempts()
            if injector is not None
            else 0
        )
        if injector is not None and injector.plan.edge_crash_rounds:
            # Round-start snapshot: the slice a mid-round edge death rolls
            # back to.  Taken before the broadcast mutates any edge, so a
            # recovered edge re-applies this round's global and replays its
            # shard round bit-identically.
            from ..scale.checkpoint import RunCheckpoint

            self._ckpt = RunCheckpoint.capture(self)

        # Root → edges: one packet, E simulated downlinks; each edge decodes
        # its own copy — with a lossy root hop every edge trains its shard on
        # the *decoded* global, exactly what it will be ingested against.
        # Edges whose downlink dead-lettered sit the round out with their
        # previous state intact.
        tick = time.perf_counter()
        packet = self.exchange.encode_dispatch(self.server.broadcast_payload())
        received = self.root_communicator.broadcast(round_idx, packet, edge_ids)
        live_edges = [edge for edge in self.edges if edge.edge_id in received]
        for edge in live_edges:
            edge.receive_global(self.exchange.open_dispatch(received[edge.edge_id]))
        end_phase("broadcast")

        # Edges, phase-major: every live edge first dispatches its shard
        # round (on the process backend its pool starts training at once),
        # then each collects, gathers, ingests and summarizes in edge order.
        # The order is fixed but irrelevant to the result — summaries are
        # exact partials.  A planned edge crash loses the summary with the
        # edge's memory; the root restores the edge's checkpoint slice,
        # re-sends this round's global, and the replay — same round, same
        # keyed fault draws, rolled-back clients — yields the exact summary
        # the crash destroyed (privacy dedupe keeps the replayed releases
        # from double-charging the budget).  Later edges' rounds stay in
        # flight meanwhile; each edge's pool is its own.
        summaries: Dict[int, Dict[str, np.ndarray]] = {}
        parts_by_edge: Dict[int, Tuple[int, ...]] = {}
        recovered: List[int] = []
        edge_start: Dict[int, float] = {}
        for edge in live_edges:
            edge_start[edge.edge_id] = time.perf_counter()
            edge.dispatch_local_round(round_idx, timings=timings)
        for edge in live_edges:
            (summary, part), _, e1 = timed_call(
                edge.run_local_round, round_idx, accountant=self.accountant, timings=timings
            )
            if tracer is not None:
                tracer.emit_span(
                    "edge_round", "edge", edge_start[edge.edge_id], e1,
                    lane=f"edge:{edge.edge_id}", edge=edge.edge_id, round=round_idx,
                )
            if injector is not None and injector.edge_crashed(edge.edge_id, round_idx):
                injector.stats.edge_kills += 1
                if tracer is not None:
                    tracer.event("edge_kill", "fault", lane="faults", edge=edge.edge_id, round=round_idx)
                tick = time.perf_counter()
                self._ckpt.restore_edge(edge)
                edge.receive_global(self.exchange.open_dispatch(received[edge.edge_id]))
                end_phase("broadcast")
                (summary, part), e0, e1 = timed_call(
                    edge.run_local_round, round_idx, accountant=self.accountant, timings=timings
                )
                if tracer is not None:
                    tracer.emit_span(
                        "edge_round", "edge", e0, e1,
                        lane=f"edge:{edge.edge_id}", edge=edge.edge_id, round=round_idx, replay=True,
                    )
                injector.stats.recoveries += 1
                recovered.append(edge.edge_id)
                if tracer is not None:
                    tracer.event(
                        "edge_recover", "fault", lane="faults", edge=edge.edge_id, round=round_idx
                    )
            summaries[edge.edge_id] = summary
            parts_by_edge[edge.edge_id] = part

        # Edges → root: one summary packet per live edge over the root hop.
        tick = time.perf_counter()
        packets = {
            eid: self.exchange.pipeline.encode_state(summary) for eid, summary in summaries.items()
        }
        gathered = self.root_communicator.collect(round_idx, packets)
        end_phase("gather")

        # Root: decode each summary once and combine the exact partials.
        tick = time.perf_counter()
        participants: List[int] = []
        if injector is None:
            participants = [cid for eid in edge_ids for cid in parts_by_edge[eid]]
            partials = [
                unpack_partial(self.exchange.pipeline.decode_state(gathered[eid])) for eid in edge_ids
            ]
            self.server.combine_partials(partials, participants)
        else:
            # Degraded combine: only delivered summaries count as this
            # round's participants.  ADMM-family roots substitute the cached
            # last-delivered summary for a missing edge (its clients'
            # last-known state — the partial-participation form those
            # algorithms already define); FedAvg omits the missing shard and
            # renormalises over who actually reported.
            streaming = hasattr(self.server, "aggregate_global")
            partials = []
            for eid in edge_ids:
                if eid in gathered:
                    decoded = self.exchange.pipeline.decode_state(gathered[eid])
                    self._last_summary[eid] = decoded
                    partials.append(unpack_partial(decoded))
                    participants.extend(parts_by_edge[eid])
                elif streaming and eid in self._last_summary:
                    partials.append(unpack_partial(self._last_summary[eid]))
            if streaming or participants:
                self.server.combine_partials(partials, participants)
            # else: the whole cohort was lost — keep the current global.
        end_phase("aggregate")

        accuracy = loss = None
        tick = time.perf_counter()
        if self.evaluator is not None:
            self.server.sync_model()
            accuracy, loss = self.evaluator(self.server.model)
        end_phase("evaluate")

        for phase, seconds in timings.items():
            self.phase_seconds[phase] += seconds
        round_steps = sum(edge.client_steps for edge in self.edges) - steps_before
        self.client_steps += round_steps
        if tracer is not None:
            tracer.emit_span(
                "round", "round", round_start, time.perf_counter(),
                lane="root", round=round_idx, edges=len(live_edges),
            )

        client_bytes = self.client_communicator.total_bytes() - client_bytes_before
        root_bytes = self.root_communicator.total_bytes() - root_bytes_before
        result = RoundResult(
            round=round_idx,
            test_accuracy=accuracy,
            test_loss=loss,
            comm_bytes=client_bytes + root_bytes,
            comm_seconds=(
                self.client_communicator.log.total_seconds()
                + self.root_communicator.log.total_seconds()
                - seconds_before
            ),
            phase_seconds=timings,
            participating_clients=tuple(sorted(participants)),
            comm_bytes_by_tier={CLIENT_EDGE: client_bytes, EDGE_ROOT: root_bytes},
            failed_clients=(
                tuple(sorted(set(range(self.num_clients)) - set(participants)))
                if injector is not None
                else None
            ),
            retries=(
                self.client_communicator.log.failed_attempts()
                + self.root_communicator.log.failed_attempts()
                - faulted_before
                if injector is not None
                else None
            ),
            recovered_edges=tuple(sorted(recovered)) if injector is not None else None,
            client_steps=round_steps,
        )
        self.history.add(result)
        monitor = current_monitor()
        if monitor is not None:
            monitor.on_round(self, result)
        return result

    def run(
        self,
        num_rounds: Optional[int] = None,
        callback: Optional[Callable[[RoundResult], None]] = None,
    ) -> TrainingHistory:
        """Run ``num_rounds`` further rounds (default: the config's
        ``num_rounds``); round indices continue from the recorded history."""
        total = num_rounds if num_rounds is not None else self.server.config.num_rounds
        start = len(self.history)
        try:
            for t in range(start, start + total):
                result = self.run_round(t)
                if callback is not None:
                    callback(result)
        finally:
            self.close()
        return self.history

    # -------------------------------------------------------------- plumbing
    def close(self) -> None:
        """Release the edges' worker pools (recreated lazily if needed).

        Every edge is closed even when one raises (a round abandoned
        mid-flight, say); the first error is re-raised afterwards.
        """
        error: Optional[BaseException] = None
        for edge in self.edges:
            try:
                edge.close()
            except Exception as exc:
                error = error or exc
        if error is not None:
            raise error

    def __enter__(self) -> "HierRunner":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


def build_hier_federation(
    config: FLConfig,
    model_fn: Callable[[], nn.Module],
    client_datasets: Sequence[Dataset],
    test_dataset: Optional[Dataset] = None,
    topology: Union[str, Topology, Sequence[Sequence[int]], None] = None,
    live_cap: Optional[int] = None,
    seed: Optional[int] = None,
    labels: Optional[Sequence[int]] = None,
    root_communicator: Optional[Communicator] = None,
    client_communicator: Optional[Communicator] = None,
    state_codec: str = "identity",
    compress: Optional[str] = None,
) -> HierRunner:
    """Construct a :class:`HierRunner` for a named algorithm.

    Mirrors :func:`repro.core.runner.build_federation`: same registry lookup,
    same initial-state synchronisation (every endpoint starts from the root
    model's parameters), same ``seed + 1000 + cid`` client RNG streams — so
    with identity per-hop codecs the hierarchical history is bit-for-bit the
    flat one.

    ``topology`` defaults to ``config.topology`` (one of the two is
    required); ``by-label`` specs derive per-client ``labels`` from the
    datasets' majority label when not given.  ``live_cap`` switches every
    edge to a :class:`~repro.scale.store.ClientStateStore` of that capacity
    (the whole run then materialises at most ``edges × live_cap`` clients).
    """
    from ..scale.virtual import make_client_factory
    from ..scale.store import ClientStateStore

    seed = config.seed if seed is None else seed
    topo_src = topology if topology is not None else config.topology
    if topo_src is None:
        raise ValueError("a topology is required: pass topology= or set FLConfig.topology")
    if isinstance(topo_src, (str,)) and labels is None:
        if parse_topology(topo_src).mode == "by-label":
            labels = majority_labels(client_datasets)
    topo = build_topology(topo_src, len(client_datasets), labels=labels, seed=seed)

    server_cls, client_cls = get_algorithm(config.algorithm)
    root_model = model_fn()
    initial_state = root_model.state_dict()
    sample_counts = [len(d) for d in client_datasets]
    root = server_cls(
        root_model, config, num_clients=len(client_datasets),
        client_sample_counts=sample_counts, shard=(),
    )
    _check_hier_server(root)

    edge_codec, _ = _hop_codecs(config)
    # A hier client's only wire is the client↔edge hop, and stateful clients
    # derive their lossy-wire bookkeeping (IIADMM's reconcile stash) from
    # their own config's codec — so clients are built with the hop codec.
    client_config = config if edge_codec == config.codec else replace(config, codec=edge_codec)
    edges: List[EdgeAggregator] = []
    factory = make_client_factory(client_config, model_fn, client_datasets, initial_state, seed=seed)
    for eid, shard in enumerate(topo.shards):
        edge_model = model_fn()
        edge_model.load_state_dict(initial_state)
        edge_server = server_cls(
            edge_model, config, num_clients=len(client_datasets),
            client_sample_counts=sample_counts, shard=shard,
        )
        if live_cap is not None:
            store = ClientStateStore(
                factory,
                num_clients=len(client_datasets),
                live_cap=live_cap,
                state_codec=state_codec,
                compress=compress,
                config=client_config,
            )
            clients = None
        else:
            store = None
            clients = [
                client_cls(
                    cid,
                    _synced_model(model_fn, initial_state),
                    client_datasets[cid],
                    client_config,
                    rng=np.random.default_rng(seed + 1000 + cid),
                )
                for cid in shard
            ]
        edges.append(
            EdgeAggregator(
                eid,
                edge_server,
                clients=clients,
                client_store=store,
                exchange=PacketExchange(edge_codec),
            )
        )
    evaluator = Evaluator(test_dataset) if test_dataset is not None else None
    return HierRunner(
        root,
        edges,
        evaluator=evaluator,
        root_communicator=root_communicator,
        client_communicator=client_communicator,
    )


def _synced_model(model_fn, initial_state):
    model = model_fn()
    model.load_state_dict(initial_state)
    return model
