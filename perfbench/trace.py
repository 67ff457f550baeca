"""Benchmark-side span tracing: wrappers around public entry points.

The traced run installs wrappers on the public classes and functions of each
``repro`` module from this file, records one span per call (name, start,
end, parent, round), and restores the originals afterwards.  Spans stay in
memory; :func:`export` writes them out at the end through the public
``repro.obs`` writers, using a :class:`repro.obs.Tracer` owned by the
benchmark and never installed with ``use_tracer`` — so the program's own
tracing stays off in every measured run.

Inside process workers nothing is wrapped: only the ``(t0, t1)`` pairs that
``ProcessWorkerPool.run_round`` returns are visible.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Span",
    "SpanLog",
    "Probe",
    "self_times",
    "Counters",
    "install_layer_probes",
    "attach_root",
    "export",
]


@dataclass(slots=True)
class Span:
    name: str
    t0: float
    t1: float = 0.0
    parent: Optional[int] = None
    round: Optional[int] = None


class SpanLog:
    """An in-memory span recorder with a per-thread open-span stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.round: Optional[int] = None
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        idx = len(self.spans)
        self.spans.append(
            Span(name, time.perf_counter(), parent=stack[-1] if stack else None, round=self.round)
        )
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].t1 = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == idx:
            stack.pop()
        elif idx in stack:  # an exception unwound past inner spans
            del stack[stack.index(idx):]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result never goes negative.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.t0, s.t1))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        end = s.t0
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, end, s.t0), min(b, s.t1)
            if b > a:
                covered += b - a
                end = b
        out.append(max(0.0, (s.t1 - s.t0) - covered))
    return out


class Probe:
    """Installs span-recording wrappers and restores the originals.

    ``owner`` may be a module, a class or an instance.  Restoring puts back
    exactly what the owner's own ``__dict__`` held: an inherited method is
    deleted again rather than pinned onto the subclass.
    """

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._undo: List[Tuple[Any, str, bool, Any]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[Callable[[tuple, Any, float], None]] = None,
    ) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``after(args, result, seconds)`` runs once the call returned (the
        benchmark's counters: FLOPs, bytes, worker busy time).
        """
        own = vars(owner)
        had, original = attr in own, own.get(attr)
        func = getattr(owner, attr)
        log = self.log

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = log.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                log.close(idx)
            if after is not None:
                span = log.spans[idx]
                after(args, result, span.t1 - span.t0)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, had, original))

    def wrap_iter(self, owner: Any, attr: str, name: str, counters: "Counters") -> None:
        """Record a ``name`` span around each item an iterator method yields."""
        own = vars(owner)
        had, original = attr in own, own.get(attr)
        func = getattr(owner, attr)
        log = self.log

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            it = iter(func(*args, **kwargs))
            while True:
                idx = log.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    log.close(idx)
                counters.add(name)
                yield item

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, had, original))

    def restore(self) -> None:
        for owner, attr, had, original in reversed(self._undo):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


@dataclass
class Counters:
    """Counts recorded at the wrapped boundaries during timed rounds."""

    log: SpanLog
    values: Dict[str, float] = field(default_factory=dict)
    #: ClientStateStore instances seen by the checkout wrapper
    stores: List[Any] = field(default_factory=list)

    def add(self, key: str, amount: float = 1.0) -> None:
        if self.log.round is not None and self.log.round >= 1:
            self.values[key] = self.values.get(key, 0.0) + amount


def _conv_flops(args, result) -> float:
    x, weight = args[0], args[1]
    n = x.data.shape[0]
    out_c, in_c, kh, kw = weight.data.shape
    ho, wo = result.data.shape[2], result.data.shape[3]
    return 2.0 * n * out_c * ho * wo * in_c * kh * kw


def install_layer_probes(probe: Probe, counters: Counters) -> None:
    """Wrap the public entry points of every ``repro`` layer the table names."""
    from repro import nn
    from repro.asyncfl.runner import AsyncRunner
    from repro.comm.base import Communicator
    from repro.comm.codecs import CodecPipeline
    from repro.core.base import BaseClient, BaseServer
    from repro.core.metrics import Evaluator
    from repro.core.partial import ExactPartial
    from repro.core.registry import get_algorithm
    from repro.data.dataloader import DataLoader
    from repro.hier.edge import EdgeAggregator
    from repro.mp.pool import ProcessWorkerPool
    from repro.scale.store import ClientStateStore

    F = nn.functional

    def count(key):
        return lambda args, result, seconds: counters.add(key)

    def conv_after(args, result, seconds):
        counters.add("nn.conv2d.calls")
        counters.add("nn.conv2d.flops", _conv_flops(args, result))

    probe.wrap(F, "conv2d", "nn.conv2d.fwd", conv_after)
    probe.wrap(F, "max_pool2d", "nn.maxpool2d.fwd", count("nn.maxpool2d.calls"))
    probe.wrap(F, "linear", "nn.linear.fwd", count("nn.linear.calls"))
    probe.wrap(nn.Tensor, "backward", "nn.backward", count("nn.backward.calls"))

    probe.wrap_iter(DataLoader, "__iter__", "data.batch", counters)

    probe.wrap(BaseClient, "clip_gradient", "privacy.clip")
    probe.wrap(BaseClient, "privatize", "privacy.noise")
    probe.wrap(BaseClient, "batch_gradient", "core.batch_gradient")

    client_classes, server_classes = set(), set()
    for algorithm in ("fedavg", "iiadmm", "iceadmm"):
        server_cls, client_cls = get_algorithm(algorithm)
        client_classes.add(client_cls)
        server_classes.add(server_cls)
    for cls in client_classes:
        probe.wrap(cls, "update", "core.client_update", count("core.client_update.calls"))
    for cls in server_classes | {BaseServer}:
        if "ingest" in vars(cls):
            probe.wrap(cls, "ingest", "core.server_ingest")
        if "finalize_round" in vars(cls):
            probe.wrap(cls, "finalize_round", "core.server_finalize")
    probe.wrap(ExactPartial, "add", "core.partial")
    probe.wrap(ExactPartial, "round", "core.partial")
    probe.wrap(Evaluator, "__call__", "core.evaluate")

    def encode_after(args, result, seconds):
        counters.add("comm.codec.bytes", float(result.nbytes))

    probe.wrap(CodecPipeline, "encode_state", "comm.codec.encode", encode_after)
    probe.wrap(CodecPipeline, "decode_state", "comm.codec.decode")
    probe.wrap(Communicator, "broadcast", "comm.transfer")
    probe.wrap(Communicator, "collect", "comm.transfer")

    def checkout_after(args, result, seconds):
        store = args[0]
        if not any(store is s for s in counters.stores):
            counters.stores.append(store)
        counters.add("scale.checkouts")

    probe.wrap(ClientStateStore, "checkout", "scale.checkout", checkout_after)

    probe.wrap(EdgeAggregator, "run_local_round", "hier.edge_round")
    probe.wrap(EdgeAggregator, "summarize", "hier.summarize")

    def pool_after(args, result, seconds):
        pool = args[0]
        timings = result[2]
        counters.add("mp.worker_busy_s", sum(t1 - t0 for t0, t1 in timings.values()))
        counters.add("mp.worker_capacity_s", pool.num_workers * seconds)

    probe.wrap(ProcessWorkerPool, "__init__", "mp.spawn")
    probe.wrap(ProcessWorkerPool, "run_round", "mp.pool_round", pool_after)
    probe.wrap(ProcessWorkerPool, "sync_parent", "mp.sync")
    probe.wrap(ProcessWorkerPool, "push_from_parent", "mp.sync")

    probe.wrap(AsyncRunner, "run", "asyncfl.run")


def attach_root(probe: Probe, runner: Any) -> None:
    """Instance-level probe on a hierarchical root's exact-partial combine."""
    if hasattr(runner, "edges"):
        probe.wrap(runner.server, "combine_partials", "hier.root_combine")


def export(spans: Sequence[Span], tracer, jsonl: Path, perfetto: Path, host: Dict[str, Any]) -> int:
    """Write the spans as JSONL and Perfetto through a ``repro.obs.Tracer``
    created before the first span (its origin is the trace's zero)."""
    depth: List[int] = []
    for s in spans:
        d = 0 if s.parent is None else depth[s.parent] + 1
        depth.append(d)
        tracer.emit_span(
            s.name, s.name.split(".", 1)[0], s.t0, s.t1, lane="bench",
            round=s.round, parent=s.parent, depth=d,
        )
    tracer.event("host", "bench", lane="bench", **host)
    tracer.write_jsonl(jsonl)
    tracer.write_perfetto(perfetto)
    return len(tracer)
