"""Tests for the observability subsystem (``repro.obs``).

Covers the tracing core (span nesting, thread safety, ring-buffer bound,
the disabled no-op fast path), the metrics registry (counter/gauge/histogram
semantics, interpolated quantile accuracy, in-place reset), the exporters
(Chrome-trace schema, raw span dump round-trip, metrics snapshots), the
``profile=True`` per-kernel runtime instrumentation (including the
native-vs-driver split under the cython backend where a C toolchain
exists), the ``BatchQueue`` latency histograms and cache counters — and the
end-to-end acceptance scenario: one profiled compile plus one batched
serving round yields a Chrome trace containing pipeline-pass,
codegen-build, kernel-execution and batch-dispatch spans alongside a
metrics snapshot with cache hit counters and queue quantiles.
"""

import json
import math
import threading

import numpy as np
import pytest

import repro
from repro import obs
from repro.batching import BatchQueue
from repro.codegen.cython_backend import find_c_compiler
from repro.npbench import get_kernel
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import ProfiledCompiledSDFG
from repro.obs.trace import NOOP_SPAN, Tracer
from repro.pipeline import CompilationCache, compile_forward

N = repro.symbol("N")


@pytest.fixture
def tracer():
    """A private enabled tracer (the process-wide one stays untouched)."""
    return Tracer(enabled=True)


@pytest.fixture(autouse=True)
def _default_tracer_disabled():
    """Keep the global tracer disabled and empty around every test."""
    obs.TRACER.disable()
    obs.TRACER.clear()
    yield
    obs.TRACER.disable()
    obs.TRACER.clear()


# ---------------------------------------------------------------------------
# tracing core
# ---------------------------------------------------------------------------
class TestTracer:
    def test_span_records_name_duration_and_attrs(self, tracer):
        with tracer.span("work", kind="unit"):
            pass
        (record,) = tracer.spans()
        assert record.name == "work"
        assert record.attrs == {"kind": "unit"}
        assert record.duration_ns >= 0
        assert record.thread_id == threading.get_ident()

    def test_spans_nest_with_depth(self, tracer):
        with tracer.span("outer"):
            assert tracer.current_depth() == 1
            with tracer.span("inner"):
                assert tracer.current_depth() == 2
        assert tracer.current_depth() == 0
        by_name = {record.name: record for record in tracer.spans()}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        # The inner interval is contained in the outer one.
        outer, inner = by_name["outer"], by_name["inner"]
        assert inner.start_ns >= outer.start_ns
        assert (inner.start_ns + inner.duration_ns
                <= outer.start_ns + outer.duration_ns)

    def test_set_attaches_mid_span_attributes(self, tracer):
        with tracer.span("work") as sp:
            sp.set(items=3)
        (record,) = tracer.spans()
        assert record.attrs["items"] == 3

    def test_thread_local_stacks(self, tracer):
        """Concurrent spans on different threads never see each other's depth."""
        barrier = threading.Barrier(4)
        errors = []

        def worker(index):
            try:
                with tracer.span(f"thread-{index}"):
                    barrier.wait(timeout=5)
                    assert tracer.current_depth() == 1
                    with tracer.span(f"nested-{index}"):
                        assert tracer.current_depth() == 2
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(tracer.spans()) == 8
        nested = [r for r in tracer.spans() if r.name.startswith("nested")]
        assert all(record.depth == 1 for record in nested)

    def test_ring_buffer_bounds_retention(self):
        tracer = Tracer(capacity=8, enabled=True)
        for index in range(20):
            with tracer.span(f"s{index}"):
                pass
        names = [record.name for record in tracer.spans()]
        assert names == [f"s{index}" for index in range(12, 20)]

    def test_disabled_span_is_shared_noop(self, tracer):
        tracer.disable()
        assert tracer.span("anything") is NOOP_SPAN
        assert tracer.span("other", a=1) is NOOP_SPAN  # no allocation either
        with tracer.span("ignored") as sp:
            sp.set(x=1)
        assert tracer.spans() == []

    def test_module_level_span_is_noop_while_disabled(self):
        assert obs.span("x") is NOOP_SPAN
        assert not obs.is_enabled()
        with obs.span("x"):
            pass
        assert len(obs.TRACER) == 0

    def test_enable_disable_roundtrip(self):
        obs.enable()
        try:
            assert obs.is_enabled()
            with obs.span("visible"):
                pass
            assert [r.name for r in obs.TRACER.spans()] == ["visible"]
        finally:
            obs.disable()
        assert obs.span("y") is NOOP_SPAN

    def test_record_pre_timed_interval(self, tracer):
        tracer.record("timed", 1000, 500, tag="t")
        (record,) = tracer.spans()
        assert (record.start_ns, record.duration_ns) == (1000, 500)
        tracer.disable()
        tracer.record("dropped", 0, 1)
        assert len(tracer.spans()) == 1

    def test_save_and_load_roundtrip(self, tracer, tmp_path):
        with tracer.span("outer", key="value"):
            with tracer.span("inner"):
                pass
        path = tracer.save(str(tmp_path / "spans.json"))
        loaded = obs.load_spans(path)
        assert [r.name for r in loaded] == [r.name for r in tracer.spans()]
        assert loaded[1].attrs == {"key": "value"}
        with pytest.raises(ValueError):
            bogus = tmp_path / "bogus.json"
            bogus.write_text("{}")
            obs.load_spans(str(bogus))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.snapshot() == 5
        gauge = registry.gauge("g")
        gauge.inc(3)
        gauge.dec()
        assert gauge.snapshot() == 2
        gauge.set(-1.5)
        assert gauge.snapshot() == -1.5

    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        with pytest.raises(ValueError):
            registry.gauge("c")

    def test_reset_zeroes_in_place(self):
        """Module-level cached references must survive a registry reset."""
        registry = MetricsRegistry()
        counter = registry.counter("c")
        histogram = registry.histogram("h")
        counter.inc()
        histogram.observe(1.0)
        registry.reset()
        assert counter is registry.counter("c")
        assert counter.snapshot() == 0
        assert histogram.count == 0
        counter.inc()
        assert registry.counter("c").snapshot() == 1

    def test_histogram_empty_quantiles_are_nan(self):
        histogram = Histogram("h")
        assert math.isnan(histogram.p50)
        assert histogram.snapshot() == {"count": 0, "sum": 0.0}

    def test_histogram_single_value_reports_it_everywhere(self):
        histogram = Histogram("h")
        histogram.observe(0.125)
        for q in (0.0, 0.5, 0.95, 1.0):
            assert histogram.quantile(q) == pytest.approx(0.125)

    def test_histogram_quantile_accuracy_uniform(self):
        """Interpolated quantiles of U[0,1] samples are within one bucket."""
        histogram = Histogram("h", buckets=[i / 100 for i in range(1, 101)])
        values = (np.arange(10000) + 0.5) / 10000
        for value in values:
            histogram.observe(float(value))
        for q in (0.5, 0.9, 0.95, 0.99):
            assert histogram.quantile(q) == pytest.approx(q, abs=0.011)
        assert histogram.mean == pytest.approx(0.5, abs=1e-3)
        assert histogram.count == 10000

    def test_histogram_quantile_accuracy_bimodal(self):
        histogram = Histogram("h", buckets=obs.default_time_buckets())
        for _ in range(90):
            histogram.observe(1e-3)
        for _ in range(10):
            histogram.observe(1.0)
        assert histogram.p50 == pytest.approx(1e-3, rel=0.7)
        assert histogram.p99 == pytest.approx(1.0, rel=0.7)
        assert histogram.max == 1.0

    def test_histogram_overflow_bucket_clamps_to_max(self):
        histogram = Histogram("h", buckets=[1.0])
        histogram.observe(5.0)
        histogram.observe(7.0)
        assert histogram.quantile(1.0) == 7.0
        assert histogram.p50 <= 7.0

    def test_registry_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2)
        registry.histogram("h").observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 1}
        assert snapshot["gauges"] == {"g": 2}
        assert snapshot["histograms"]["h"]["count"] == 1
        json.dumps(snapshot)  # JSON-serialisable


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------
class TestChromeExport:
    def test_every_event_has_required_keys(self, tracer, tmp_path):
        with tracer.span("a", tag="x"):
            with tracer.span("b"):
                pass
        path = obs.export_chrome(str(tmp_path / "trace.json"), tracer=tracer)
        with open(path) as handle:
            document = json.load(handle)  # valid JSON by construction
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert events, "trace must contain events"
        for event in events:
            for key in ("ph", "ts", "pid", "tid", "name"):
                assert key in event, f"event missing {key}: {event}"
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"a", "b"}
        for event in complete:
            assert event["cat"] == "repro"
            assert "dur" in event
            assert "depth" in event["args"]
        by_name = {e["name"]: e for e in complete}
        assert by_name["a"]["args"]["tag"] == "x"
        # Timestamps/durations are microseconds of the span's nanoseconds.
        record = [r for r in tracer.spans() if r.name == "a"][0]
        assert by_name["a"]["ts"] == pytest.approx(record.start_ns / 1e3)
        assert by_name["a"]["dur"] == pytest.approx(record.duration_ns / 1e3)

    def test_thread_name_metadata_events(self, tracer, tmp_path):
        with tracer.span("main-work"):
            pass
        document = obs.chrome_trace_document(tracer.spans())
        metadata = [e for e in document["traceEvents"] if e["ph"] == "M"]
        assert len(metadata) == 1
        assert metadata[0]["name"] == "thread_name"
        assert metadata[0]["args"]["name"] == threading.current_thread().name

    def test_write_metrics_roundtrip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        path = obs.write_metrics(str(tmp_path / "metrics.json"), registry)
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["counters"] == {"c": 3}

    def test_format_metrics_renders_tables(self):
        registry = MetricsRegistry()
        registry.counter("events").inc(2)
        registry.histogram("latency").observe(0.25)
        text = obs.format_metrics(registry.snapshot())
        assert "events" in text and "latency" in text
        assert obs.format_metrics({"counters": {}}) == "(no metrics recorded)"


# ---------------------------------------------------------------------------
# instrumentation through the layers
# ---------------------------------------------------------------------------
@repro.program
def _poly(A: repro.float64[N]):
    b = A * A
    c = b + A
    return np.sum(c)


class TestLayerInstrumentation:
    def test_pipeline_spans_match_report(self):
        obs.enable()
        try:
            outcome = compile_forward(_poly, "O2", cache=False)
        finally:
            obs.disable()
        names = [record.name for record in obs.TRACER.spans()]
        assert "pipeline.run" in names
        assert "codegen.build" in names
        for record in outcome.report.records:
            assert f"pipeline.{record.name}" in names
        # Span and report describe the same interval on the same clock:
        # each pass span must be at least as long as its recorded seconds.
        spans = {r.name: r for r in obs.TRACER.spans()}
        for record in outcome.report.records:
            span_record = spans[f"pipeline.{record.name}"]
            assert span_record.duration_ns / 1e9 >= record.seconds

    def test_cache_counters_follow_cache_stats(self):
        hits = obs.METRICS.counter("cache.hits")
        misses = obs.METRICS.counter("cache.misses")
        hits_before, misses_before = hits.snapshot(), misses.snapshot()
        cache = CompilationCache()
        compile_forward(_poly, "O1", cache=cache)
        compile_forward(_poly, "O1", cache=cache)
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert hits.snapshot() == hits_before + 1
        assert misses.snapshot() == misses_before + 1

    def test_profile_true_records_runtime_histograms(self):
        outcome = compile_forward(_poly, "O1", cache=False, profile=True)
        compiled = outcome.compiled
        assert isinstance(compiled, ProfiledCompiledSDFG)
        for _ in range(3):
            result = compiled(np.ones(8))
        assert result == pytest.approx(16.0)
        assert compiled.runtime_histogram.count == 3
        assert compiled.runtime_histogram.min > 0
        snapshot = compiled.profile_snapshot()
        assert snapshot["runtime"]["count"] == 3
        registered = obs.METRICS.get(f"kernel.runtime.{compiled.sdfg.name}")
        assert registered is compiled.runtime_histogram

    def test_profile_wrapper_applied_outside_the_cache(self):
        cache = CompilationCache()
        profiled = compile_forward(_poly, "O1", cache=cache, profile=True)
        plain = compile_forward(_poly, "O1", cache=cache)
        assert isinstance(profiled.compiled, ProfiledCompiledSDFG)
        assert not isinstance(plain.compiled, ProfiledCompiledSDFG)
        assert plain.report.cache_hit  # same entry, profile= not in the key
        assert profiled.compiled.inner is plain.compiled

    def test_profile_through_public_compile_on_npbench_kernel(self):
        spec = get_kernel("bias_act")
        data = spec.data("S")
        program = spec.program_for("S")
        compiled = repro.compile(program, optimize="O2", cache=False,
                                 profile=True)
        for _ in range(2):
            compiled(**{k: np.copy(v) for k, v in data.items()})
        assert compiled.runtime_histogram.count == 2
        assert compiled.profile_snapshot()["kernel"] == "bias_act"

    @pytest.mark.skipif(find_c_compiler() is None,
                        reason="no C toolchain for the native backend")
    def test_native_profile_splits_kernel_and_driver_time(self):
        spec = get_kernel("bias_act")
        data = spec.data("S")
        program = spec.program_for("S")
        plain = repro.compile(program, optimize="O2", backend="cython",
                              cache=False)
        # Private registry/tracer: the process-wide kernel.runtime.bias_act
        # histogram is shared across tests and would pollute the means.
        compiled = ProfiledCompiledSDFG(plain, metrics=MetricsRegistry(),
                                        tracer=Tracer())
        assert compiled.backend == "cython"
        for _ in range(3):
            compiled(**{k: np.copy(v) for k, v in data.items()})
        snapshot = compiled.profile_snapshot()
        assert snapshot["native"]["count"] == 3
        assert snapshot["driver"]["count"] == 3
        assert snapshot["segments"], "expected at least one C kernel segment"
        # Native + driver partition the total call time exactly.
        assert (snapshot["native"]["mean"] + snapshot["driver"]["mean"]
                == pytest.approx(snapshot["runtime"]["mean"], rel=1e-6))
        # The unprofiled result is unchanged.
        a = compiled(**{k: np.copy(v) for k, v in data.items()})
        b = plain(**{k: np.copy(v) for k, v in data.items()})
        np.testing.assert_allclose(a, b, rtol=1e-12)

    @pytest.mark.skipif(find_c_compiler() is None,
                        reason="no C toolchain for the native backend")
    def test_native_artifact_counters_move(self):
        hits = obs.METRICS.counter("native.artifacts.hits")
        builds = obs.METRICS.counter("native.artifacts.builds")
        before = hits.snapshot() + builds.snapshot()
        repro.compile(_poly, optimize="O1", backend="cython", cache=False)
        assert hits.snapshot() + builds.snapshot() > before

    def test_batch_queue_latency_histograms(self):
        def batched(x):
            return x * 2.0

        with BatchQueue(batched, max_batch=4, max_wait_ms=1.0) as queue:
            queue.hold()
            futures = [queue.submit(x=np.full(3, float(i))) for i in range(4)]
            queue.release()
            for index, future in enumerate(futures):
                np.testing.assert_allclose(future.result(), 2.0 * index)
        assert queue.stats.wait_seconds.count == 4
        assert queue.stats.dispatch_seconds.count == queue.stats.batches
        assert queue.stats.wait_p50 >= 0
        assert queue.stats.wait_p99 >= queue.stats.wait_p50
        assert queue.stats.dispatch_p99 >= queue.stats.dispatch_p50 >= 0
        # Legacy counters are untouched by the new fields.
        assert queue.stats.requests == 4
        assert queue.stats.batched_samples == 4
        # The queue drained, so the process-wide depth gauge is back down.
        depth = obs.METRICS.get("serve.queue_depth")
        assert depth.snapshot() <= 0 or depth.snapshot() == pytest.approx(0)

    def test_batch_dispatch_span(self):
        obs.enable()
        try:
            with BatchQueue(lambda x: x + 1.0, max_batch=2, max_wait_ms=0.5) as queue:
                queue.hold()
                futures = [queue.submit(x=np.zeros(2)) for _ in range(2)]
                queue.release()
                for future in futures:
                    future.result()
        finally:
            obs.disable()
        dispatches = [r for r in obs.TRACER.spans() if r.name == "batch.dispatch"]
        assert dispatches
        assert dispatches[0].attrs["size"] == 2

    def test_pipeline_report_footer_shows_cache_counters(self):
        cache = CompilationCache()
        compile_forward(_poly, "O1", cache=cache)
        outcome = compile_forward(_poly, "O1", cache=cache)
        text = outcome.report.pretty()
        assert "compilation cache (process):" in text
        assert "served from cache" in text

    def test_timing_helpers_share_the_obs_clock(self):
        from repro.harness import measure

        measurement = measure(lambda: None, label="noop", repeats=4, warmup=1)
        assert len(measurement.times) == 4

    def test_cli_snapshot_and_chrome(self, tracer, tmp_path, capsys):
        from repro.obs.__main__ import main

        registry_file = tmp_path / "metrics.json"
        registry = MetricsRegistry()
        registry.counter("cli.events").inc(7)
        obs.write_metrics(str(registry_file), registry)
        assert main(["snapshot", str(registry_file)]) == 0
        assert "cli.events" in capsys.readouterr().out

        with tracer.span("cli-span"):
            pass
        spans_file = tmp_path / "spans.json"
        tracer.save(str(spans_file))
        assert main(["chrome", str(spans_file)]) == 0
        trace_file = tmp_path / "spans.trace.json"
        with open(trace_file) as handle:
            document = json.load(handle)
        assert any(e["name"] == "cli-span" for e in document["traceEvents"])


# ---------------------------------------------------------------------------
# the acceptance scenario, end to end
# ---------------------------------------------------------------------------
class TestEndToEnd:
    def test_profiled_compile_plus_batch_round_yields_full_trace(self, tmp_path):
        spec = get_kernel("bias_act")
        data = spec.data("S")
        program = spec.program_for("S")

        obs.enable()
        try:
            compiled = repro.compile(program, optimize="O2", cache=False,
                                     profile=True)
            for _ in range(2):
                compiled(**{k: np.copy(v) for k, v in data.items()})

            batched = repro.vmap(program, in_axes={"x": 0, "r": 0, "bias": None})
            batched_fn = batched.compile(optimize="O2")
            with BatchQueue(batched_fn, max_batch=4, max_wait_ms=1.0,
                            static_kwargs={"bias": data["bias"]}) as queue:
                futures = [
                    queue.submit(x=np.copy(data["x"]), r=np.copy(data["r"]))
                    for _ in range(4)
                ]
                for future in futures:
                    future.result()
        finally:
            obs.disable()

        path = obs.export_chrome(str(tmp_path / "acceptance.trace.json"))
        with open(path) as handle:
            document = json.load(handle)
        names = {e["name"] for e in document["traceEvents"] if e["ph"] == "X"}
        assert any(n.startswith("pipeline.") for n in names)
        assert "codegen.build" in names
        assert "kernel.execute" in names
        assert "batch.dispatch" in names
        for event in document["traceEvents"]:
            assert {"ph", "ts", "pid", "tid"} <= set(event)

        snapshot = obs.metrics_snapshot()
        assert "cache.hits" in snapshot["counters"]
        assert "cache.misses" in snapshot["counters"]
        runtime = snapshot["histograms"][f"kernel.runtime.{compiled.sdfg.name}"]
        assert runtime["count"] >= 2
        waits = snapshot["histograms"]["serve.wait_seconds"]
        assert waits["count"] >= 4 and "p50" in waits and "p99" in waits
        assert queue.stats.wait_p99 >= 0.0
