#!/usr/bin/env python3
"""The repository benchmark: four federated-learning workloads, end to end
and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig2_cnn --seed 1 --seconds 35 --trace 0

``--workload`` is one of ``fig2_cnn``, ``hier_mp`` and ``async_store`` (see
``perfbench/workloads.py`` and ``BENCHMARK.json``), or ``all``, which runs
each in its own process and ends on one summary line.

A run repeats *episodes* for about ``--seconds`` seconds (at least two).  An
episode generates the inputs from ``--seed``, builds the federation, runs one
warm-up global update (all of that is set-up time), then a fixed number of
timed global updates, each dispatched only after the previous aggregation
finished.  Every episode of one seed must end on the same model digest and
test loss; ``hier_mp`` is also run once on the serial backend and must match
bitwise.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced episodes with episodes traced through wrappers on the public entry
points of every ``repro`` layer (``perfbench/trace.py``) and prints the
per-layer metrics, the layer ledger and the tracing overhead; the spans go to
``perfbench/out/`` as JSONL and Perfetto JSON.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: cap on the measuring loop, whatever ``--seconds`` asks for: on a host so
#: loaded that a second episode would pass it, the run stops after one (the
#: same-seed digest check then has nothing to compare, the others still run)
MAX_WINDOW_S = 90.0
#: episodes per run, at least, while under the cap
MIN_EPISODES = 2


@dataclass
class Episode:
    """One build + warm-up + timed updates of a workload."""

    setup_s: float = 0.0
    round_s: List[float] = field(default_factory=list)
    client_steps: int = 0
    wire_bytes: int = 0
    tier_bytes: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    aggregated: int = 0
    wire_ok: bool = True
    initial_loss: float = math.nan
    test_loss: float = math.nan
    digest: str = ""
    worker_rss_mb: float = 0.0
    local_update_s: float = 0.0
    #: traced episodes only
    layer: Optional[Dict[str, float]] = None


def _program_available() -> bool:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return False
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def _worker_rss_mb(runner) -> float:
    """Peak RSS of the worker processes, from their shipped telemetry."""
    registries = [getattr(runner, "worker_telemetry", None)]
    registries += [getattr(e, "worker_telemetry", None) for e in getattr(runner, "edges", ())]
    total = 0.0
    for reg in registries:
        if reg is None:
            continue
        for key, value in reg.snapshot()["gauges"].items():
            if key.startswith("worker_peak_rss_bytes"):
                total += value / 2**20
    return total


def run_episode(workload, seed: int, backend: str, tracing=None) -> Episode:
    ep = Episode()
    t0 = time.perf_counter()
    if tracing is not None:
        tracing.log.round = None
    inputs = workload.make_inputs(seed)
    fed = workload.build(inputs, backend)
    try:
        paused = time.perf_counter()
        ep.initial_loss = workload.evaluate_initial(fed, inputs)
        t0 += time.perf_counter() - paused
        if tracing is not None:
            tracing.attach(fed.runner)
            tracing.log.round = 0
        step = workload.step(fed, 0)
        ep.setup_s = time.perf_counter() - t0
        ep.attempted += step.attempted
        ep.aggregated += step.aggregated
        local0 = fed.runner.phase_seconds["local_update"]
        if tracing is not None:
            tracing.begin_timed(fed.runner)
        for t in range(1, workload.rounds + 1):
            if tracing is not None:
                tracing.log.round = t
                idx = tracing.log.open("round")
            a = time.perf_counter()
            step = workload.step(fed, t)
            ep.round_s.append(time.perf_counter() - a)
            if tracing is not None:
                tracing.log.close(idx)
            ep.client_steps += step.client_steps
            ep.wire_bytes += step.wire_bytes
            for tier, nbytes in (step.tiers or {}).items():
                ep.tier_bytes[tier] = ep.tier_bytes.get(tier, 0) + nbytes
            ep.attempted += step.attempted
            ep.aggregated += step.aggregated
            ep.wire_ok = ep.wire_ok and workload.wire_matches(fed, step)
        ep.local_update_s = fed.runner.phase_seconds["local_update"] - local0
        if tracing is not None:
            tracing.log.round = None
            ep.layer = tracing.end_timed(fed.runner, ep)
        ep.test_loss = workload.final(fed, inputs, step)
        ep.digest = workload.digest(fed)
    finally:
        workload.close(fed)
    ep.worker_rss_mb = _worker_rss_mb(fed.runner)
    return ep


def measure(workload, seed: int, seconds: float, tracing=None) -> List[Episode]:
    """Episodes for about ``seconds``: at least :data:`MIN_EPISODES`, unless
    the next would end past :data:`MAX_WINDOW_S`.

    With ``tracing``, every second episode is traced, and the run ends on a
    traced one.
    """
    episodes: List[Episode] = []
    start = time.perf_counter()
    while True:
        if tracing is not None and len(episodes) % 2 == 1:
            with tracing.installed():
                episodes.append(run_episode(workload, seed, workload.backend, tracing))
        else:
            episodes.append(run_episode(workload, seed, workload.backend))
        elapsed = time.perf_counter() - start
        projected = elapsed * (len(episodes) + 1) / len(episodes)
        if tracing is not None and len(episodes) % 2:
            continue
        if projected > MAX_WINDOW_S or (len(episodes) >= MIN_EPISODES and projected > seconds):
            return episodes


def end_to_end(episodes: List[Episode]):
    from perfbench.stats import run_tail

    rounds = [r for ep in episodes for r in ep.round_s]
    busy = sum(rounds)
    n = len(rounds)
    tail, pct, per_episode = run_tail([ep.round_s for ep in episodes])
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "rounds_per_s": (n / busy, "1/s", n),
        "client_steps_per_s": (sum(ep.client_steps for ep in episodes) / busy, "1/s", n),
        "round_ms_p50": (1e3 * statistics.median(rounds), "ms", n),
        "round_ms_tail": (1e3 * tail, "ms", n),
        "setup_s": (statistics.median(ep.setup_s for ep in episodes), "s", len(episodes)),
        "peak_rss_mb": (rss + max(ep.worker_rss_mb for ep in episodes), "MB", 1),
        "wire_mb_per_round": (sum(ep.wire_bytes for ep in episodes) / n / 1e6, "MB", n),
        "test_loss": (episodes[-1].test_loss, "nats", len(episodes)),
    }
    if per_episode:
        per = len(episodes[0].round_s)
        tail_note = f"p{pct:.1f} of {per} updates per episode, median of {len(episodes)} episodes"
    else:
        tail_note = f"p{pct:.1f} of {n} updates"
        if pct == 50.0:
            tail_note += " (the median: no higher percentile has 10 updates beyond it)"
    notes = {"round_ms_tail": tail_note}
    return metrics, notes


def correctness(workload, seed: int, episodes: List[Episode]) -> List[str]:
    """Every failed check, as a message (empty: all passed)."""
    failures = []
    digests = {ep.digest for ep in episodes}
    losses = {ep.test_loss for ep in episodes}
    if len(digests) != 1 or len(losses) != 1:
        failures.append(f"episodes of seed {seed} disagree: digests {sorted(digests)}, losses {sorted(losses)}")
    for ep in episodes:
        if not (math.isfinite(ep.test_loss) and ep.test_loss < ep.initial_loss):
            failures.append(f"test loss {ep.test_loss} not finite and below round-0 loss {ep.initial_loss}")
            break
    if not all(ep.wire_ok for ep in episodes):
        failures.append("identity-codec wire bytes differ from dim x itemsize x packets")
    if workload.reference_backend is not None:
        ref = run_episode(workload, seed, workload.reference_backend)
        if ref.digest != episodes[0].digest:
            failures.append(
                f"{workload.backend} digest {episodes[0].digest} != "
                f"{workload.reference_backend} digest {ref.digest}"
            )
    return failures


def _print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:<30} {value:>14.6g} {unit:<8} {note}")


def run_all(args, names) -> int:
    """Each workload in its own process (its own peak RSS), then one summary."""
    import subprocess

    results = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource-tracker process and wait for it.

    Spawning the process backend's workers (and creating shared memory)
    starts a tracker process that otherwise outlives this one for a moment
    after exit.  Called once every pool is closed, on every path out.
    """
    from multiprocessing import resource_tracker

    # closes the tracker's pipe and waits for the process; a no-op when
    # no tracker was started
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_resource_tracker()


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _program_available():
        return 2

    from perfbench.host import cpu_times, fingerprint, references, steal_share
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    host = fingerprint()
    print("host: " + json.dumps(host, sort_keys=True))
    print(f"workload: {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"why: {workload.why}")
    cpu0 = cpu_times()

    if args.trace:
        from perfbench.ledger import LAYER_UNITS, Tracing

        tracing = Tracing(workload)
        episodes = measure(workload, args.seed, args.seconds, tracing)
        untraced = [ep for ep in episodes if ep.layer is None]
        traced = [ep for ep in episodes if ep.layer is not None]
        values, failures = tracing.summarize(untraced, traced, references())
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"{workload.name}-seed{args.seed}"
        spans = tracing.export(stem, host)
        rel = stem.relative_to(ROOT)
        print(f"trace: {spans} records -> {rel}.trace.jsonl, {rel}.perfetto.json")
        tracing.print_ledger(values)
        metrics = {k: (values[k], LAYER_UNITS[k]) for k in LAYER_UNITS}
    else:
        episodes = measure(workload, args.seed, args.seconds)
        e2e, notes = end_to_end(episodes)
        failures = []
        _print_table(
            "end-to-end (value, unit, samples):",
            [(k, v, u, f"n={n} {notes.get(k, '')}".rstrip()) for k, (v, u, n) in e2e.items()],
        )
        metrics = {k: (v, u) for k, (v, u, _n) in e2e.items()}
        for i, ep in enumerate(episodes):
            rounds = " ".join(f"{1e3 * r:.1f}" for r in ep.round_s[:12])
            more = f" ... ({len(ep.round_s)} updates)" if len(ep.round_s) > 12 else ""
            print(f"episode {i}: setup {ep.setup_s:.3f} s, update ms: {rounds}{more}")
    steal = steal_share(cpu0, cpu_times())
    if steal is not None:
        print(f"host: {steal:.1%} of CPU time stolen by the hypervisor during the run")
    if not args.trace:
        print("ref: " + json.dumps({k: round(v, 3) for k, v in references().items()}))
    failures += correctness(workload, args.seed, episodes)
    for message in failures:
        print(f"check failed: {message}")
    print("checks: " + ("all passed" if not failures else f"{len(failures)} failed"))

    attempted = sum(ep.attempted for ep in episodes)
    failed = sum(ep.attempted - ep.aggregated for ep in episodes)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": attempted if failures else failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
