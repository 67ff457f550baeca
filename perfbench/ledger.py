"""The layer ledger of a traced run.

Folds the spans and counters of traced episodes into the per-layer metrics
of ``BENCHMARK.json`` (seconds and counts per timed global update), checks
that the ledger adds up — layer self times plus ``core.unattributed_s``
equal round wall time — and, on the serial workloads, that
``core.client_update_s`` agrees with the program's own
``phase_seconds["local_update"]``.
"""

from __future__ import annotations

import contextlib
import statistics
from pathlib import Path
from typing import Dict, List, Tuple

from perfbench.trace import Counters, Probe, SpanLog, attach_root, export, install_layer_probes, self_times

__all__ = ["Tracing", "inclusive_times", "LAYER_UNITS", "LAYERS"]

#: per-layer metric -> unit, in the order they are printed
LAYER_UNITS = {
    "nn.conv2d.fwd_s": "s", "nn.conv2d.calls": "count", "nn.conv2d.gflops_per_s": "GFLOP/s",
    "nn.maxpool2d.fwd_s": "s", "nn.maxpool2d.calls": "count",
    "nn.linear.fwd_s": "s", "nn.linear.calls": "count",
    "nn.backward_s": "s", "nn.backward.calls": "count",
    "data.batch_s": "s", "data.batches": "count",
    "privacy.clip_s": "s", "privacy.noise_s": "s",
    "core.client_update_s": "s", "core.client_update.calls": "count",
    "core.client_update.self_s": "s", "core.batch_gradient_s": "s",
    "core.server_ingest_s": "s", "core.server_finalize_s": "s", "core.partial_s": "s",
    "core.evaluate_s": "s", "core.unattributed_s": "s", "core.phase_local_update_s": "s",
    "comm.codec.encode_s": "s", "comm.codec.decode_s": "s", "comm.codec.mb": "MB",
    "comm.transfer_s": "s", "comm.wire_mb": "MB",
    "scale.checkout_s": "s", "scale.checkouts": "count", "scale.hit_ratio": "1",
    "scale.materialize_us_mean": "us", "scale.evict_us_mean": "us", "scale.store_mb": "MB",
    "hier.edge_round_s": "s", "hier.summarize_s": "s", "hier.root_combine_s": "s",
    "hier.client_edge_mb": "MB", "hier.edge_root_mb": "MB",
    "mp.spawn_s": "s", "mp.pool_round_s": "s", "mp.worker_busy_s": "s",
    "mp.worker_idle_share": "1", "mp.sync_s": "s",
    "asyncfl.events": "count", "asyncfl.loop.self_s": "s", "asyncfl.mean_staleness": "count",
    "ledger.nn.self_s": "s", "ledger.data.self_s": "s", "ledger.privacy.self_s": "s",
    "ledger.core.self_s": "s", "ledger.comm.self_s": "s", "ledger.scale.self_s": "s",
    "ledger.hier.self_s": "s", "ledger.mp.self_s": "s", "ledger.asyncfl.self_s": "s",
    "ledger.round_wall_s": "s",
    "trace.rounds_per_s": "1/s", "trace.untraced_rounds_per_s": "1/s",
    "trace.overhead_share": "1",
    "ref.matmul_gflops": "GFLOP/s", "ref.memcpy_gbps": "GB/s",
}
LAYERS = ("nn", "data", "privacy", "core", "comm", "scale", "hier", "mp", "asyncfl")

#: per-span-name metric (inclusive seconds per timed round)
SPAN_METRICS = {
    "nn.conv2d.fwd": "nn.conv2d.fwd_s", "nn.maxpool2d.fwd": "nn.maxpool2d.fwd_s",
    "nn.linear.fwd": "nn.linear.fwd_s", "nn.backward": "nn.backward_s",
    "data.batch": "data.batch_s", "privacy.clip": "privacy.clip_s",
    "privacy.noise": "privacy.noise_s", "core.client_update": "core.client_update_s",
    "core.batch_gradient": "core.batch_gradient_s", "core.server_ingest": "core.server_ingest_s",
    "core.server_finalize": "core.server_finalize_s", "core.partial": "core.partial_s",
    "core.evaluate": "core.evaluate_s", "comm.codec.encode": "comm.codec.encode_s",
    "comm.codec.decode": "comm.codec.decode_s", "comm.transfer": "comm.transfer_s",
    "scale.checkout": "scale.checkout_s", "hier.edge_round": "hier.edge_round_s",
    "hier.summarize": "hier.summarize_s", "hier.root_combine": "hier.root_combine_s",
    "mp.pool_round": "mp.pool_round_s", "mp.sync": "mp.sync_s",
}
#: counters copied per timed round
COUNT_METRICS = {
    "nn.conv2d.calls": "nn.conv2d.calls", "nn.maxpool2d.calls": "nn.maxpool2d.calls",
    "nn.linear.calls": "nn.linear.calls", "nn.backward.calls": "nn.backward.calls",
    "data.batch": "data.batches", "core.client_update.calls": "core.client_update.calls",
    "scale.checkouts": "scale.checkouts", "mp.worker_busy_s": "mp.worker_busy_s",
}
#: serial workloads: core.client_update_s must agree with the program's own
#: phase_seconds["local_update"] within this share plus 2 ms per update (the
#: phase also covers the runner's per-client loop around each update)
LOCAL_UPDATE_TOLERANCE = 0.05


#: slack of the ledger sum, per timed round (float rounding of perf_counter)
LEDGER_SLACK_S = 1e-6


def inclusive_times(spans, indices) -> Dict[str, float]:
    """Seconds per span name over ``spans[i] for i in indices``, not counting
    a span nested in one of its own name."""
    out: Dict[str, float] = {}
    for i in indices:
        s = spans[i]
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            out[s.name] = out.get(s.name, 0.0) + (s.t1 - s.t0)
    return out


class Tracing:
    """Probe installation, per-episode folding and export for one workload."""

    def __init__(self, workload) -> None:
        from repro.obs import Tracer

        self.workload = workload
        #: created before any span, so its origin is the trace's zero
        self.tracer = Tracer()
        #: span log, counters and wrappers of the episode being traced
        #: (fresh per episode, see :meth:`installed`)
        self.log: SpanLog
        self.counters: Counters
        self.probe: Probe
        #: the first traced episode's spans, written out by :meth:`export`
        self._exported: List = []
        self._timed_from = 0
        self._stats0: List[Tuple[int, int, int, float, float]] = []
        self._events0 = 0

    @contextlib.contextmanager
    def installed(self):
        """Fresh span log and counters, wrappers installed for one episode."""
        self.log = SpanLog()
        self.counters = Counters(self.log)
        self.probe = Probe(self.log)
        install_layer_probes(self.probe, self.counters)
        try:
            yield self
        finally:
            self.probe.restore()
            if not self._exported:
                self._exported = self.log.spans

    def attach(self, runner) -> None:
        attach_root(self.probe, runner)

    def begin_timed(self, runner) -> None:
        self._timed_from = len(self.log.spans)
        self._stats0 = [_store_stats(s) for s in self.counters.stores]
        self._events0 = getattr(runner, "events_processed", 0)

    def end_timed(self, runner, ep) -> Dict[str, float]:
        """This episode's per-layer values, per timed global update."""
        spans = self.log.spans
        rounds = len(ep.round_s)
        timed = [i for i in range(self._timed_from, len(spans)) if (spans[i].round or 0) >= 1]
        own = self_times(spans)
        incl = inclusive_times(spans, timed)
        v: Dict[str, float] = {k: 0.0 for k in LAYER_UNITS}
        for name, metric in SPAN_METRICS.items():
            v[metric] = incl.get(name, 0.0) / rounds
        counts = self.counters.values
        for key, metric in COUNT_METRICS.items():
            v[metric] = counts.get(key, 0.0) / rounds

        ledger = {layer: 0.0 for layer in LAYERS}
        unattributed = client_self = loop_self = 0.0
        for i in timed:
            name = spans[i].name
            if name == "round":
                unattributed += own[i]
            else:
                ledger[name.split(".", 1)[0]] += own[i]
            if name == "core.client_update":
                client_self += own[i]
            elif name == "asyncfl.run":
                loop_self += own[i]
        for layer, seconds in ledger.items():
            v[f"ledger.{layer}.self_s"] = seconds / rounds
        v["core.unattributed_s"] = unattributed / rounds
        v["core.client_update.self_s"] = client_self / rounds
        v["asyncfl.loop.self_s"] = loop_self / rounds
        v["ledger.round_wall_s"] = incl.get("round", 0.0) / rounds
        v["core.phase_local_update_s"] = ep.local_update_s / rounds

        conv_s = incl.get("nn.conv2d.fwd", 0.0)
        v["nn.conv2d.gflops_per_s"] = counts.get("nn.conv2d.flops", 0.0) / conv_s / 1e9 if conv_s else 0.0
        capacity = counts.get("mp.worker_capacity_s", 0.0)
        v["mp.worker_idle_share"] = 1.0 - counts.get("mp.worker_busy_s", 0.0) / capacity if capacity else 0.0
        v["mp.spawn_s"] = sum(s.t1 - s.t0 for s in spans if s.name == "mp.spawn")
        v["comm.codec.mb"] = counts.get("comm.codec.bytes", 0.0) / rounds / 1e6
        v["comm.wire_mb"] = ep.wire_bytes / rounds / 1e6
        v["hier.client_edge_mb"] = ep.tier_bytes.get("client_edge", 0) / rounds / 1e6
        v["hier.edge_root_mb"] = ep.tier_bytes.get("edge_root", 0) / rounds / 1e6

        d_hits = d_mat = d_evict = 0
        d_mat_us = d_evict_us = 0.0
        for store, before in zip(self.counters.stores, self._stats0):
            after = _store_stats(store)
            d_hits += after[0] - before[0]
            d_mat += after[1] - before[1]
            d_evict += after[2] - before[2]
            d_mat_us += after[3] - before[3]
            d_evict_us += after[4] - before[4]
        checkouts = counts.get("scale.checkouts", 0.0)
        v["scale.hit_ratio"] = d_hits / checkouts if checkouts else 0.0
        v["scale.materialize_us_mean"] = d_mat_us / d_mat if d_mat else 0.0
        v["scale.evict_us_mean"] = d_evict_us / d_evict if d_evict else 0.0
        v["scale.store_mb"] = sum(s.store_nbytes for s in self.counters.stores) / 1e6

        if hasattr(runner, "events_processed"):
            v["asyncfl.events"] = (runner.events_processed - self._events0) / rounds
            v["asyncfl.mean_staleness"] = runner.async_server.mean_staleness()
        return v

    def summarize(self, untraced, traced, refs: Dict[str, float]) -> Tuple[Dict[str, float], List[str]]:
        """Mean per-layer values over the traced episodes, plus the checks."""
        values = {k: statistics.fmean(ep.layer[k] for ep in traced) for k in traced[0].layer}
        values.update(refs)

        def rps(eps):
            return sum(len(ep.round_s) for ep in eps) / sum(sum(ep.round_s) for ep in eps)

        values["trace.rounds_per_s"] = rps(traced)
        values["trace.untraced_rounds_per_s"] = rps(untraced)
        values["trace.overhead_share"] = 1.0 - values["trace.rounds_per_s"] / values["trace.untraced_rounds_per_s"]

        failures = []
        for ep in traced:
            v = ep.layer
            total = sum(v[f"ledger.{layer}.self_s"] for layer in LAYERS) + v["core.unattributed_s"]
            if abs(total - v["ledger.round_wall_s"]) > LEDGER_SLACK_S:
                failures.append(
                    f"layer ledger {total:.6f} s != round wall {v['ledger.round_wall_s']:.6f} s"
                )
            if self.workload.backend == "serial":
                phase, update = v["core.phase_local_update_s"], v["core.client_update_s"]
                if abs(phase - update) > LOCAL_UPDATE_TOLERANCE * phase + 0.002:
                    failures.append(
                        f"core.client_update_s {update:.4f} vs phase local_update {phase:.4f} "
                        f"beyond {LOCAL_UPDATE_TOLERANCE:.0%} + 2 ms per update"
                    )
        return values, failures

    def export(self, stem: Path, host) -> int:
        return export(self._exported, self.tracer, Path(f"{stem}.trace.jsonl"), Path(f"{stem}.perfetto.json"), host)

    def print_ledger(self, v: Dict[str, float]) -> None:
        wall = v["ledger.round_wall_s"]
        print("layer ledger (self seconds per timed update, share of round wall):")
        for layer in LAYERS:
            s = v[f"ledger.{layer}.self_s"]
            print(f"  {layer:<12} {s:>12.6f} s  {s / wall if wall else 0.0:>7.1%}")
        u = v["core.unattributed_s"]
        print(f"  {'unattributed':<12} {u:>12.6f} s  {u / wall if wall else 0.0:>7.1%}")
        print(f"  {'round wall':<12} {wall:>12.6f} s")
        print(
            f"nn.conv2d.gflops_per_s {v['nn.conv2d.gflops_per_s']:.3f} beside "
            f"ref.matmul_gflops {v['ref.matmul_gflops']:.3f} "
            f"(ref.memcpy_gbps {v['ref.memcpy_gbps']:.2f})"
        )
        print(
            f"tracing overhead {v['trace.overhead_share']:+.1%}: traced "
            f"{v['trace.rounds_per_s']:.4f} vs untraced {v['trace.untraced_rounds_per_s']:.4f} rounds/s"
        )
        print("per-layer metrics:")
        for k, unit in LAYER_UNITS.items():
            print(f"  {k:<30} {v[k]:>14.6g} {unit}")


def _store_stats(store) -> Tuple[int, int, int, float, float]:
    st = store.stats
    return st.hits, st.materializations, st.evictions, st.materialize_us, st.evict_us
