"""The three benchmark workloads, built only through the public ``repro`` API.

A fourth, ``store_sweep`` (2000 tiny-MLP clients streamed through the
client store each round), is left out: on a shared 2-core host its round
time follows the host's memory bandwidth, and its run-to-run spread (IQR
over median, ten seeds) reached 0.28-0.33, over the 0.25 bound.
``async_store`` still measures the ``scale``, ``comm`` and ``data`` layers.

Every workload is a closed loop driven from one Python process: a
synchronous round is dispatched only after the previous aggregation has
finished, and the async workload keeps its clients in flight on the virtual
clock, dispatching a replacement on each arrival.  All inputs — datasets,
model initialisation, client RNG streams, sampler draws — derive from the
``seed`` argument, so two builds with one seed train bit-identically.

A workload exposes four steps the runner in :mod:`perfbench.run` times:

* ``make_inputs(seed)``  — generate the datasets (counted in set-up time);
* ``build(inputs, backend)`` — construct the federation;
* ``step(fed, t)`` — one global update; returns a :class:`Step`;
* ``final(fed, inputs, last)`` and ``digest(fed)`` — the test loss after
  the fixed round budget and the final model digest (untimed).

``fig2_cnn`` and ``hier_mp`` evaluate every round, as in the paper;
``async_store`` evaluates once after the timed updates, on a held-out set
generated from the seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

from repro.asyncfl import FedBuffStrategy
from repro.comm import TCPLinkModel
from repro.core import Evaluator, FLConfig
from repro.core.batched import count_client_steps
from repro.core.models import SeededModelFn
from repro.core.runner import build_federation
from repro.data import TensorDataset, load_dataset
from repro.harness.scaling import PopulationSweepSettings, make_population
from repro.hier import build_hier_federation
from repro.scale import build_virtual_async_federation
from repro.scale.virtual import make_client_factory
from repro.simulator import DEVICE_CATALOG

__all__ = ["Step", "Federation", "Workload", "WORKLOADS", "model_digest"]


@dataclass
class Step:
    """What one global update did."""

    client_steps: int
    wire_bytes: int
    #: client updates the update dispatched / aggregated
    attempted: int
    aggregated: int
    #: server test loss after this update (``None`` when not evaluated)
    test_loss: Optional[float] = None
    #: on-wire bytes per tier of a hierarchical round
    tiers: Optional[Dict[str, int]] = None


@dataclass
class Federation:
    """A built federation plus what the workload needs to drive it."""

    runner: object
    #: client optimizer steps one upload carries (async accounting)
    steps_per_upload: int = 0


def model_digest(params: np.ndarray) -> str:
    """sha256 over the global parameter vector's dtype, shape and bytes."""
    arr = np.ascontiguousarray(params)
    h = hashlib.sha256(str(arr.dtype).encode() + str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()[:16]


def _sync_step(fed: Federation, t: int) -> Step:
    result = fed.runner.run_round(t)
    return Step(
        int(result.client_steps or 0), int(result.comm_bytes), fed.runner.num_clients,
        len(result.participating_clients), result.test_loss, result.comm_bytes_by_tier,
    )


class Workload:
    """Base class: a named, seeded, closed-loop federation."""

    name = ""
    #: why the workload was chosen, with its layer -> metric predictions
    #: (BENCHMARK.json carries the same line; perfbench/predictions.json the
    #: full table)
    why = ""
    #: timed global updates per episode after the warm-up update
    rounds: int = 1
    #: execution backend of the measured runs
    backend: str = "serial"
    #: backend of the per-invocation bitwise reference run (``None``: none)
    reference_backend: Optional[str] = None

    def make_inputs(self, seed: int) -> Dict[str, object]:
        raise NotImplementedError

    def build(self, inputs: Dict[str, object], backend: str) -> Federation:
        raise NotImplementedError

    def step(self, fed: Federation, t: int) -> Step:
        return _sync_step(fed, t)

    def packet_bytes(self, fed: Federation) -> int:
        """Identity-codec bytes of one model packet: dim x itemsize."""
        vec = fed.runner.server.vectorizer
        return vec.dim * vec.dtype.itemsize

    def wire_matches(self, fed: Federation, step: Step) -> bool:
        """The update's wire bytes equal the analytic count: one packet down
        and one up per aggregated client."""
        return step.wire_bytes == 2 * step.aggregated * self.packet_bytes(fed)

    def evaluate_initial(self, fed: Federation, inputs) -> float:
        return float(inputs["evaluator"](fed.runner.server.model)[1])

    def final(self, fed: Federation, inputs, last: Step) -> float:
        """The server test loss after the fixed round budget."""
        if last.test_loss is not None:
            return float(last.test_loss)
        server = fed.runner.server
        server.sync_model()
        return float(inputs["evaluator"](server.model)[1])

    def digest(self, fed: Federation) -> str:
        return model_digest(fed.runner.server.global_params)

    def close(self, fed: Federation) -> None:
        fed.runner.close()


# ------------------------------------------------------------------ fig2_cnn
class Fig2CNN(Workload):
    name = "fig2_cnn"
    why = (
        "Fig. 2 cell: DP IIADMM CNN, serial, eval each round. nn, privacy, core.evaluate move rounds_per_s "
        "here; scale, mp, hier, asyncfl are ~0, so a change there predicts no change"
    )
    rounds = 4
    backend = "serial"

    def make_inputs(self, seed: int):
        clients, test, spec = load_dataset(
            "mnist", num_clients=4, train_size=4 * 96, test_size=256, seed=seed
        )
        return {
            "clients": clients,
            "test": test,
            "evaluator": Evaluator(test),
            "model_fn": SeededModelFn("cnn", spec.image_shape, spec.num_classes, seed=seed),
            "config": FLConfig(
                algorithm="iiadmm", local_steps=2, batch_size=64, rho=10.0, zeta=10.0,
                seed=seed, dtype="float32", parallel_clients=1,
            ).with_privacy(10.0, mechanism="laplace"),
        }

    def build(self, inputs, backend):
        config = replace(inputs["config"], execution_backend=backend)
        runner = build_federation(config, inputs["model_fn"], inputs["clients"], inputs["test"])
        return Federation(runner)


def _held_out(settings: PopulationSweepSettings, seed: int, size: int = 1024) -> TensorDataset:
    """A test set drawn like the population's shards, from its own stream."""
    rng = np.random.default_rng([seed, 0x7E57])
    x = rng.standard_normal((size, settings.input_dim))
    y = rng.integers(0, settings.num_classes, size=size)
    return TensorDataset(x, y)


# ------------------------------------------------------------------- hier_mp
class HierMP(Workload):
    name = "hier_mp"
    why = (
        "8 CNN clients, 2 edges, process backend, 1 worker per edge: mp and hier move rounds_per_s, "
        "setup_s, peak_rss_mb; checked bitwise against serial; scale and asyncfl are ~0"
    )
    rounds = 2
    backend = "process"
    reference_backend = "serial"
    #: one worker process per edge pool: the two edges' pools together hold
    #: nproc (2) workers.  Two per edge would start four on two cores.
    workers_per_edge = 1

    def make_inputs(self, seed: int):
        clients, test, spec = load_dataset(
            "mnist", num_clients=8, train_size=8 * 96, test_size=256, seed=seed
        )
        return {
            "clients": clients,
            "test": test,
            "evaluator": Evaluator(test),
            "model_fn": SeededModelFn("cnn", spec.image_shape, spec.num_classes, seed=seed),
            "config": FLConfig(
                algorithm="iiadmm", local_steps=2, batch_size=64, rho=10.0, zeta=10.0,
                seed=seed, dtype="float32", parallel_clients=self.workers_per_edge,
                topology="edges:2",
            ),
        }

    def build(self, inputs, backend):
        config = replace(inputs["config"], execution_backend=backend)
        runner = build_hier_federation(
            config, inputs["model_fn"], inputs["clients"], inputs["test"]
        )
        return Federation(runner)

    def wire_matches(self, fed, step):
        # The edge->root hop carries exact-partial summaries of varying size;
        # the client<->edge hop is one packet each way per client.
        return step.tiers["client_edge"] == 2 * step.aggregated * self.packet_bytes(fed)


# --------------------------------------------------------------- async_store
class AsyncStore(Workload):
    name = "async_store"
    why = (
        "FedBuff(16), 384 store clients, 32 in flight: asyncfl, scale, comm, data move rounds_per_s; "
        "nn, hier, mp are ~0. Holds the store layers since store_sweep was dropped as unsteady"
    )
    rounds = 120
    population = 384
    live_cap = 128
    concurrency = 32
    buffer_size = 16

    def make_inputs(self, seed: int):
        settings = replace(PopulationSweepSettings(), seed=seed)
        datasets, model_fn = make_population(settings, self.population)
        config = FLConfig(
            algorithm=settings.algorithm, local_steps=settings.local_steps,
            batch_size=settings.samples_per_client, seed=seed, client_fraction=0.1,
        )
        mix = ("A100", "V100", "CPU")
        return {
            "datasets": datasets,
            "model_fn": model_fn,
            "config": config,
            "devices": [DEVICE_CATALOG[mix[i % len(mix)]] for i in range(self.population)],
            "evaluator": Evaluator(_held_out(settings, seed)),
        }

    def build(self, inputs, backend):
        config = replace(inputs["config"], execution_backend=backend)
        runner = build_virtual_async_federation(
            config, inputs["model_fn"], inputs["datasets"], live_cap=self.live_cap,
            strategy=FedBuffStrategy(self.buffer_size),
            devices=inputs["devices"],
            link=TCPLinkModel(),
            concurrency=self.concurrency,
        )
        probe = make_client_factory(
            config, inputs["model_fn"], inputs["datasets"], runner.server.model.state_dict()
        )(0)
        return Federation(runner, steps_per_upload=count_client_steps(probe))

    def wire_matches(self, fed, step):
        # Dispatches and uploads straddle update boundaries on the virtual
        # clock, so an update carries a whole, but varying, number of packets.
        return step.wire_bytes > 0 and step.wire_bytes % self.packet_bytes(fed) == 0

    def step(self, fed, t):
        runner = fed.runner
        runner.run(1)
        result = runner.history.rounds[-1]
        uploads = len(result.participating_clients or ())
        return Step(
            uploads * fed.steps_per_upload, int(result.comm_bytes), self.buffer_size,
            uploads, result.test_loss,
        )


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (Fig2CNN(), HierMP(), AsyncStore())}
