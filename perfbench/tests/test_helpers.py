"""Tests of the benchmark's own helpers: tail selection, self time,
restoring the methods a traced run wraps, and stopping the resource tracker.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import statistics

import pytest

from perfbench.ledger import inclusive_times
from perfbench.stats import round_tail, run_tail, tail_percentile
from perfbench.trace import Counters, Probe, Span, SpanLog, install_layer_probes, self_times


# ------------------------------------------------------------ tail selection
@pytest.mark.parametrize("n", [0, 1, 10])
def test_tail_needs_more_than_ten_samples(n):
    assert tail_percentile(list(range(n))) is None


@pytest.mark.parametrize("n", [11, 20, 37, 100, 1000])
def test_tail_leaves_exactly_ten_beyond(n):
    samples = [float(x) for x in range(n, 0, -1)]  # distinct, unsorted
    value, pct = tail_percentile(samples)
    assert sum(1 for s in samples if s > value) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_of_a_hundred_is_the_ninetieth_percentile():
    value, pct = tail_percentile(list(range(1, 101)))
    assert (value, pct) == (90, 90.0)


def test_tail_with_ties_still_has_ten_samples_at_or_beyond():
    samples = [1.0] * 30 + [5.0] * 15
    value, _ = tail_percentile(samples)
    assert sum(1 for s in samples if s >= value) >= 10


@pytest.mark.parametrize("n", [3, 10, 15, 20])
def test_round_tail_falls_back_to_the_median_below_twenty_samples(n):
    samples = list(range(n))
    assert round_tail(samples) == (statistics.median(samples), 50.0)


def test_round_tail_uses_the_percentile_once_it_is_above_the_median():
    samples = list(range(1, 41))
    assert round_tail(samples) == tail_percentile(samples)
    assert round_tail(samples)[1] == 75.0


def test_run_tail_is_the_median_of_episode_tails():
    episodes = [list(range(1, 41)), [2 * x for x in range(1, 41)], [3 * x for x in range(1, 41)]]
    value, pct, per_episode = run_tail(episodes)
    assert per_episode and pct == 75.0
    assert value == statistics.median(tail_percentile(e)[0] for e in episodes) == 60


def test_run_tail_pools_short_episodes():
    episodes = [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]]
    assert run_tail(episodes) == (4.5, 50.0, False)


# ----------------------------------------------------------------- self time
def test_self_time_subtracts_nested_children():
    spans = [
        Span("round", 0.0, 10.0),
        Span("core.client_update", 1.0, 4.0, parent=0),
        Span("nn.backward", 2.0, 3.0, parent=1),
        Span("comm.transfer", 5.0, 6.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span("round", 0.0, 10.0),
        Span("a", 1.0, 5.0, parent=0),
        Span("b", 3.0, 7.0, parent=0),  # overlaps a by 2 s
        Span("c", 9.0, 12.0, parent=0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)
    assert min(self_times(spans)) >= 0.0


def test_span_log_records_parents_and_rounds():
    log = SpanLog()
    log.round = 3
    outer = log.open("round")
    inner = log.open("core.evaluate")
    log.close(inner)
    log.close(outer)
    sibling = log.open("comm.transfer")
    log.close(sibling)
    assert [s.parent for s in log.spans] == [None, outer, None]
    assert all(s.round == 3 for s in log.spans)
    assert all(s.t1 >= s.t0 for s in log.spans)


def test_inclusive_time_does_not_double_count_same_name_nesting():
    spans = [
        Span("core.server_ingest", 0.0, 4.0),
        Span("core.server_ingest", 1.0, 2.0, parent=0),  # a super() call
        Span("core.partial", 2.0, 3.0, parent=0),
    ]
    assert inclusive_times(spans, range(3)) == {"core.server_ingest": 4.0, "core.partial": 1.0}


# ------------------------------------------------------------ probe restore
class Base:
    def inherited(self):
        return "base"

    def overridden(self):
        return "base"


class Child(Base):
    def overridden(self):
        return "child:" + super().overridden()


def test_probe_records_spans_and_restores_class_methods():
    log = SpanLog()
    before_child, before_base = dict(vars(Child)), dict(vars(Base))
    with Probe(log) as probe:
        probe.wrap(Child, "inherited", "x.inherited")
        probe.wrap(Child, "overridden", "x.overridden")
        obj = Child()
        assert obj.inherited() == "base"
        assert obj.overridden() == "child:base"
    assert [s.name for s in log.spans] == ["x.inherited", "x.overridden"]
    assert dict(vars(Child)) == before_child
    assert dict(vars(Base)) == before_base
    assert "inherited" not in vars(Child)  # not pinned onto the subclass
    assert Child().overridden() == "child:base"


def test_probe_restores_instance_attributes_and_survives_exceptions():
    log = SpanLog()
    obj = Child()
    probe = Probe(log)
    with pytest.raises(RuntimeError):
        with probe:
            probe.wrap(obj, "overridden", "x.instance")
            assert obj.overridden() == "child:base"
            raise RuntimeError("boom")
    assert "overridden" not in vars(obj)
    assert [s.name for s in log.spans] == ["x.instance"]


def test_probe_times_each_item_of_a_wrapped_iterator():
    class Loader:
        def __iter__(self):
            yield from (1, 2, 3)

    log = SpanLog()
    counters = Counters(log)
    log.round = 1
    with Probe(log) as probe:
        probe.wrap_iter(Loader, "__iter__", "data.batch", counters)
        assert list(Loader()) == [1, 2, 3]
    assert counters.values == {"data.batch": 3}
    assert list(Loader()) == [1, 2, 3]
    assert "__iter__" in vars(Loader) and not hasattr(vars(Loader)["__iter__"], "__wrapped__")


def test_layer_probes_restore_every_wrapped_entry_point():
    from repro import nn
    from repro.comm.codecs import CodecPipeline
    from repro.core.base import BaseClient
    from repro.data.dataloader import DataLoader
    from repro.mp.pool import ProcessWorkerPool

    owners = [nn.functional, nn.Tensor, CodecPipeline, BaseClient, DataLoader, ProcessWorkerPool]
    before = [dict(vars(o)) for o in owners]
    log = SpanLog()
    probe = Probe(log)
    install_layer_probes(probe, Counters(log))
    assert nn.functional.conv2d is not before[0]["conv2d"]
    probe.restore()
    for owner, snapshot in zip(owners, before):
        assert dict(vars(owner)) == snapshot


# ------------------------------------------------------- process teardown
def test_stop_resource_tracker_waits_for_the_tracker():
    import os
    from multiprocessing import resource_tracker

    from perfbench.run import stop_resource_tracker

    resource_tracker.ensure_running()
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    stop_resource_tracker()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):  # already reaped: not left running
        os.waitpid(pid, os.WNOHANG)
    stop_resource_tracker()  # idempotent when no tracker runs
