"""Tests for the observability layer: registry, spans, event recorder.

Covers the tentpole guarantees: the disabled recorder is a true no-op,
span nesting and histogram bucket edges behave exactly as documented,
Chrome trace exports follow the trace-event schema, and — most
importantly — simulation results are bit-identical with tracing on or
off on BOTH timing paths, with the disabled path paying no measurable
wall-time for the instrumentation.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core.distributor import run_event_machine
from repro.core.machine import MachineConfig, simulate_machine
from repro.core.routing import build_routed_work
from repro.distribution import BlockInterleaved
from repro.errors import ConfigurationError
from repro.obs.recorder import NULL_RECORDER, EventRecorder
from repro.pipeline.stages import stage_timer
from tests.oracles import stream_columns


# -- registry ---------------------------------------------------------


class TestRegistry:
    def test_counter_accumulates_and_rejects_decrease(self):
        registry = obs.MetricsRegistry()
        counter = registry.counter("jobs.done")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        registry = obs.MetricsRegistry()
        gauge = registry.gauge("queue.depth")
        gauge.set(7)
        gauge.inc(3)
        assert gauge.value == 10

    def test_same_name_returns_same_instrument(self):
        registry = obs.MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_kind_conflict_is_an_error(self):
        registry = obs.MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")

    def test_labels_create_independent_children(self):
        registry = obs.MetricsRegistry()
        counter = registry.counter("cache.misses")
        counter.labels(node=0).inc(2)
        counter.labels(node=1).inc(5)
        # Label order must not matter for child identity.
        child = registry.counter("tx").labels(a="1", b="2")
        assert registry.counter("tx").labels(b="2", a="1") is child
        snapshot = registry.snapshot()["counters"]
        assert snapshot["cache.misses{node=0}"] == 2
        assert snapshot["cache.misses{node=1}"] == 5
        # The unlabeled parent was never touched, so it is omitted.
        assert "cache.misses" not in snapshot

    def test_snapshot_only_contains_touched_instruments(self):
        registry = obs.MetricsRegistry()
        registry.counter("never.updated")
        registry.counter("updated").inc()
        snapshot = registry.snapshot()
        assert "never.updated" not in snapshot["counters"]
        assert snapshot["counters"]["updated"] == 1

    def test_reset_drops_everything(self):
        registry = obs.MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert registry.snapshot()["counters"] == {}
        assert registry.get("c") is None

    def test_reset_by_prefix_keeps_other_metrics(self):
        registry = obs.MetricsRegistry()
        registry.counter("pipeline.calls").labels(stage="scene").inc()
        registry.histogram("span.stage.scene").observe(0.1)
        registry.counter("cache.misses").inc()
        registry.reset("pipeline.", "span.stage.")
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"cache.misses": 1}
        assert snapshot["histograms"] == {}

    def test_merge_adds_counters_and_combines_histograms(self):
        worker = obs.MetricsRegistry()
        worker.counter("jobs").inc(2)
        worker.counter("pipeline.calls").labels(stage="scene").inc(3)
        for value in (0.002, 7.0):
            worker.histogram("span.stage.scene").labels(key="a").observe(value)
        parent = obs.MetricsRegistry()
        parent.counter("jobs").inc(1)
        parent.histogram("span.stage.scene").labels(key="a").observe(0.0001)
        parent.merge(worker.snapshot())
        parent.merge(worker.snapshot())
        snapshot = parent.snapshot()
        assert snapshot["counters"] == {"jobs": 5, "pipeline.calls{stage=scene}": 6}
        merged = snapshot["histograms"]["span.stage.scene{key=a}"]
        alone = obs.MetricsRegistry()
        for value in (0.0001, 0.002, 7.0, 0.002, 7.0):
            alone.histogram("span.stage.scene").labels(key="a").observe(value)
        expected = alone.snapshot()["histograms"]["span.stage.scene{key=a}"]
        assert merged.pop("sum") == pytest.approx(expected.pop("sum"))
        assert merged == expected  # count, min, max and every bucket

    def test_merge_creates_histograms_with_the_snapshot_edges(self):
        worker = obs.MetricsRegistry()
        worker.histogram("depth", edges=obs.DEFAULT_SIZE_BUCKETS).observe(3)
        parent = obs.MetricsRegistry()
        parent.merge(worker.snapshot())
        assert parent.snapshot() == worker.snapshot()
        assert parent.get("depth").edges == worker.get("depth").edges

    def test_merge_rejects_gauges_and_mismatched_edges(self):
        parent = obs.MetricsRegistry()
        parent.histogram("h", edges=(1, 2)).observe(1)
        worker = obs.MetricsRegistry()
        worker.histogram("h", edges=(1, 3)).observe(1)
        with pytest.raises(ConfigurationError, match="bucket edges"):
            parent.merge(worker.snapshot())
        worker = obs.MetricsRegistry()
        worker.gauge("queue.depth").set(4)
        with pytest.raises(ConfigurationError, match="gauges"):
            parent.merge(worker.snapshot())


def bucket_counts(registry, name):
    """Cumulative ``le``-keyed bucket counts (plus ``+Inf``) of one histogram."""
    return registry.snapshot()["histograms"][name]["buckets"]


class TestHistogramBuckets:
    def test_edges_are_le_inclusive(self):
        """A value exactly at an edge lands in that edge's bucket."""
        registry = obs.MetricsRegistry()
        histogram = registry.histogram("h", edges=(1.0, 2.0, 5.0))
        for value in (1.0, 2.0, 5.0):
            histogram.observe(value)
        buckets = bucket_counts(registry, "h")
        assert buckets == {"1": 1, "2": 2, "5": 3, "+Inf": 3}

    def test_values_between_edges_round_up(self):
        registry = obs.MetricsRegistry()
        histogram = registry.histogram("h", edges=(1.0, 2.0, 5.0))
        histogram.observe(1.5)
        assert bucket_counts(registry, "h") == {"1": 0, "2": 1, "5": 1, "+Inf": 1}

    def test_overflow_bucket_catches_the_rest(self):
        registry = obs.MetricsRegistry()
        histogram = registry.histogram("h", edges=(1.0,))
        histogram.observe(100.0)
        assert bucket_counts(registry, "h") == {"1": 0, "+Inf": 1}

    def test_stats_track_count_sum_min_max(self):
        registry = obs.MetricsRegistry()
        histogram = registry.histogram("h", edges=(10.0,))
        for value in (3.0, 7.0, 1.0):
            histogram.observe(value)
        snapshot = registry.snapshot()["histograms"]["h"]
        assert snapshot["count"] == 3
        assert snapshot["sum"] == 11.0
        assert snapshot["min"] == 1.0
        assert snapshot["max"] == 7.0

    def test_unsorted_edges_rejected(self):
        registry = obs.MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.histogram("bad", edges=(5.0, 1.0))


# -- spans ------------------------------------------------------------


class TestSpans:
    def test_nesting_tracks_depth_and_path(self):
        with obs.span("outer") as outer:
            assert outer.depth == 0
            assert obs.current_span() is outer
            with obs.span("inner") as inner:
                assert inner.depth == 1
                assert inner.parent is outer
                assert inner.path == "outer/inner"
            assert obs.current_span() is outer
        assert obs.current_span() is None
        assert outer.seconds is not None and outer.seconds >= 0.0

    def test_span_restores_stack_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs.span("doomed"):
                raise RuntimeError("boom")
        assert obs.current_span() is None

    def test_span_observes_into_registry_histogram(self):
        with obs.span("unit-test-span"):
            pass
        histogram = obs.registry().get("span.unit-test-span")
        assert histogram is not None
        assert histogram.count == 1

    def test_spans_are_thread_local(self):
        seen = {}

        def worker():
            seen["worker_top"] = obs.current_span()

        with obs.span("main-only"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["worker_top"] is None

    def test_stage_timer_feeds_the_one_registry_account(self):
        from repro import pipeline

        before = pipeline.stats().get("obs-probe", {}).get("calls", 0)
        with stage_timer("obs-probe"):
            pass
        histogram = obs.registry().get("span.stage.obs-probe")
        assert histogram is not None and histogram.count >= 1
        stats = pipeline.stats()["obs-probe"]
        assert stats["calls"] == before + 1
        assert stats["compute_seconds"] == histogram.sum


# -- recorder state machine ------------------------------------------


class TestRecorderToggle:
    def test_disabled_by_default_and_null_is_noop(self):
        assert not obs.tracing_enabled()
        active = obs.recorder()
        assert active is NULL_RECORDER
        assert not active
        # All record calls are silent no-ops returning None.
        assert active.span(("sim", "node-0"), "busy", 0, 5) is None
        assert active.instant(("sim", "node-0"), "tick", 1) is None
        assert active.value(("sim", "fifo"), "occupancy", 1, 3) is None

    def test_enable_disable_cycle(self):
        recorder = obs.enable_tracing()
        assert obs.tracing_enabled()
        assert obs.recorder() is recorder
        obs.disable_tracing()
        assert not obs.tracing_enabled()
        assert obs.recorder() is NULL_RECORDER

    def test_set_recorder_returns_previous(self):
        fresh = EventRecorder()
        previous = obs.set_recorder(fresh)
        try:
            assert previous is NULL_RECORDER
            assert obs.recorder() is fresh
        finally:
            obs.set_recorder(previous)


# -- chrome trace schema ---------------------------------------------


def tiny_stream(num_processors=4, triangles=40):
    """A synthetic distributor stream: round-robin, modest texel loads."""
    return stream_columns([
        (tri, tri % num_processors, 8 + (tri % 5), 4 * (tri % 7))
        for tri in range(triangles)
    ])


class TestChromeTrace:
    def run_traced(self, fifo_capacity=4):
        recorder = EventRecorder()
        stream = tiny_stream()
        cycles, finish = run_event_machine(stream, 4, fifo_capacity, 25, 1.0,
                                           recorder=recorder)
        return recorder, cycles, finish

    def test_every_event_has_required_fields(self):
        recorder, _, _ = self.run_traced()
        trace = recorder.chrome_trace()
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        events = trace["traceEvents"]
        assert events, "a traced run must produce events"
        for event in events:
            assert {"ph", "ts", "pid", "tid", "name"} <= set(event)
            assert event["ph"] in ("X", "i", "C", "M")
            if event["ph"] == "X":
                assert event["dur"] >= 0
            if event["ph"] == "M":
                assert event["name"] in ("process_name", "thread_name")

    def test_tracks_get_metadata_names(self):
        recorder, _, _ = self.run_traced()
        meta = [e for e in recorder.chrome_trace()["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta if e["name"] == "thread_name"}
        assert "distributor" in names
        assert {"node-0", "node-1", "node-2", "node-3"} <= names
        # pid/tid pairs must be unique per track.
        pairs = [(e["pid"], e["tid"]) for e in meta if e["name"] == "thread_name"]
        assert len(pairs) == len(set(pairs))

    def test_span_timestamps_are_sim_cycles(self):
        recorder, cycles, _ = self.run_traced()
        xs = [e for e in recorder.events if e["ph"] == "X"]
        assert xs
        assert all(0 <= e["ts"] <= cycles for e in xs)
        assert all(e["ts"] + e["dur"] <= cycles + 1e-9 for e in xs)

    def test_write_chrome_trace_round_trips(self, tmp_path):
        recorder, _, _ = self.run_traced()
        out = tmp_path / "trace.json"
        recorder.write_chrome_trace(out)
        loaded = json.loads(out.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        assert len(loaded["traceEvents"]) == len(
            recorder.chrome_trace()["traceEvents"]
        )

    def test_fifo_occupancy_summary(self):
        recorder, _, _ = self.run_traced(fifo_capacity=4)
        values = recorder.value_summary()
        occupancy_keys = [k for k in values if k.endswith("/occupancy")]
        assert occupancy_keys, "bounded FIFOs must sample occupancy"
        for key in occupancy_keys:
            series = values[key]
            assert series["count"] > 0
            assert 0 <= series["min"] <= series["max"] <= 4
            assert sum(series["histogram"].values()) == series["count"]

    def test_node_summary_utilization_bounded(self):
        recorder, _, _ = self.run_traced()
        nodes = recorder.node_summary()
        assert set(nodes) == {"node-0", "node-1", "node-2", "node-3"}
        for node in nodes.values():
            assert node["busy_cycles"] > 0
            assert 0.0 <= node["utilization"] <= 1.0


# -- determinism and overhead ----------------------------------------


class TestTracingIsFree:
    @pytest.mark.parametrize("fifo", [10000, 8], ids=["fast-10000", "event-8"])
    def test_results_bit_identical_with_tracing_on(self, tiny_bench_scene, fifo):
        """Tracing never perturbs results, on either timing path."""
        distribution = BlockInterleaved(4, 16)
        work = build_routed_work(tiny_bench_scene, distribution, cache_spec="lru")
        config = MachineConfig(distribution=distribution, fifo_capacity=fifo)

        obs.disable_tracing()
        plain = simulate_machine(work, config.timing)
        recorder = obs.enable_tracing()
        try:
            traced = simulate_machine(work, config.timing)
        finally:
            obs.disable_tracing()

        assert recorder.events, "tracing on must actually record events"
        # The capacity picks the path: event extras only below 10000.
        assert ("distributor_blocked_cycles" in plain.extras) == (fifo == 8)
        assert traced.cycles == plain.cycles
        assert np.array_equal(traced.timings.finish, plain.timings.finish)
        assert np.array_equal(traced.timings.busy, plain.timings.busy)
        assert np.array_equal(traced.node_pixels, plain.node_pixels)
        assert traced.cache.misses == plain.cache.misses
        assert traced.cache.texels_fetched == plain.cache.texels_fetched

    def test_event_machine_identical_under_recorder(self):
        stream = tiny_stream(triangles=120)
        plain = run_event_machine(stream, 4, 6, 25, 1.0)
        traced = run_event_machine(stream, 4, 6, 25, 1.0, recorder=EventRecorder())
        assert plain == traced

    def test_disabled_overhead_within_five_percent(self):
        """Disabled instrumentation must cost ≤5% of a traced run.

        The recorder strictly adds work, so the disabled path being no
        slower than 1.05x the *enabled* path bounds the instrumentation
        overhead without needing a pre-instrumentation binary to
        compare against.  Medians over several repeats keep scheduler
        noise out.
        """
        stream = tiny_stream(triangles=400)

        def run(recorder):
            return run_event_machine(stream, 4, 8, 25, 1.0, recorder=recorder)

        def median_time(recorder_factory, repeats=7):
            samples = []
            for _ in range(repeats):
                started = time.perf_counter()
                run(recorder_factory())
                samples.append(time.perf_counter() - started)
            samples.sort()
            return samples[len(samples) // 2]

        run(None)  # warm caches/JIT-free but warms allocators
        disabled = median_time(lambda: None)
        enabled = median_time(EventRecorder)
        # 1 ms of absolute slack keeps tiny timings from flaking.
        assert disabled <= enabled * 1.05 + 1e-3

    def test_null_recorder_calls_are_cheap(self):
        """Direct no-op calls stay in the tens-of-nanoseconds range."""
        null = NULL_RECORDER
        count = 100_000
        started = time.perf_counter()
        for i in range(count):
            null.span(("sim", "node-0"), "busy", i, i + 1)
        elapsed = time.perf_counter() - started
        # Generous bound: even slow CI should do 100k no-ops in < 0.5 s.
        assert elapsed < 0.5


# -- publish once -----------------------------------------------------


class TestPublishOnce:
    """Every timed run publishes its counters exactly once: a sweep that
    routes once and times many publishes what its results report."""

    SERIES = ("fragments", "line_accesses", "misses", "texels_fetched")

    def test_buffer_sweep_publishes_what_its_results_report(
        self, tiny_bench_scene, monkeypatch
    ):
        from repro.analysis import buffering

        results = []

        def recording(*args, **kwargs):
            result = simulate_machine(*args, **kwargs)
            results.append(result)
            return result

        monkeypatch.setattr(buffering, "simulate_machine", recording)
        sizes, depths = (8, 16), (1, 10, 10000)
        obs.reset()
        before = obs.registry().snapshot()["counters"]
        speedups = buffering.buffer_sweep(
            tiny_bench_scene, "block", sizes, depths, num_processors=4, cache="lru"
        )
        after = obs.registry().snapshot()["counters"]

        assert len(speedups) == len(sizes) * len(depths)
        assert len(results) == 1 + len(sizes) * len(depths)

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        assert delta("machine.simulations") == len(results)
        for series in self.SERIES:
            published = sum(
                delta(key) for key in after if key.startswith(f"cache.{series}{{")
            )
            assert published == sum(getattr(r.cache, series) for r in results), series
        assert sum(r.cache.line_accesses for r in results) > 0
