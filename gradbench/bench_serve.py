"""The serving workload: per-sample gradients of vmapped ``bias_act``
(16x16 samples) through a ``BatchQueue`` (max_batch 16).

One submitter thread (the main thread) drives the queue's worker:

* a *burst*: waves of requests that fill the bounded queue (block policy),
  which measures saturated throughput (``req_speedup`` end to end, against
  a baseline batch timed after each wave) and the latency of a full queue;
* a *fixed rate*: an open loop at ``FIXED_RATE`` requests per second, each
  request timed from when it was due, so a stall in the generator or the
  queue shows as latency.  On a shared 2-core host these latencies varied
  by more than the benchmark's bounds allow between identical runs, so
  they are reported per layer (``serve.open_*``), without a bound.

Before either, direct batched calls (no queue) on both backends give the
kernel-only cost, alternating with the same batch's per-sample gradients
in the jaxlike baseline engine: every end-to-end figure is a speedup over
that baseline, measured in the same stretch of the run.  The generator
keeps its numbers in preallocated arrays and holds no future after
submitting it, so its own garbage does not add collector pauses to the
latencies it measures.
"""

from __future__ import annotations

import functools
import threading
import time

import numpy as np

import repro
from repro import obs
from repro.autodiff import GradientFunction
from repro.npbench import get_kernel
from repro.pipeline import CompilationCache, to_sdfg
from repro.serve import BatchQueue

from bench_core import (
    BACKENDS,
    GcPauses,
    Ledger,
    Setup,
    add_report,
    check_native_built,
    fresh_native_cache,
    gradients_match,
    median,
    ms,
    native_share,
    now_ns,
    peak_mib,
    quantile,
    settle,
    span,
    native_counts,
    traced_call,
)

KERNEL = "bias_act"
SAMPLE = {"N": 16, "M": 16}
AXES = {"x": 0, "r": 0, "bias": None}
POOL = 64
MAX_BATCH = 16
MAX_PENDING = 4 * MAX_BATCH
MAX_WAIT_MS = 1.0
#: Requests per second of the open loop; fixed (not derived from the burst)
#: so that two builds are compared at the same offered load.  About an
#: eighth of the saturated throughput: nearer a third (2800/s) the median
#: latency flipped between about 3 and 14 ms from one run to the next.
FIXED_RATE = 1000.0
#: The measured seconds run as cycles of this length, of four phases each
#: taking the share below, so every phase samples the whole run.
CYCLE_S = 0.75
DIRECT_SHARE, RECOMPILE_SHARE, BURST_SHARE, OPEN_SHARE = 0.15, 0.1, 0.4, 0.35
#: Upper bound on burst requests per second, for the preallocated arrays.
MAX_RPS = 60000
WAVE_TIMEOUT_S = 30.0


class Responses:
    """Preallocated completion records.  The done-callback checks each
    response against its pool sample's reference through a fixed random
    projection (cheap enough for the worker thread, and independent of the
    compiler) and stamps the completion time."""

    def __init__(self, capacity: int, projection, ref_proj, tolerance, dispatcher) -> None:
        self.done_ns = np.zeros(capacity, dtype=np.int64)
        self.batch_ns = np.zeros(capacity, dtype=np.int64)
        self.ok = np.zeros(capacity, dtype=bool)
        self.completed = 0
        self.target = 0
        self.wave_done = threading.Event()
        self.projection = projection
        self.ref_proj = ref_proj
        self.tolerance = tolerance
        self.dispatcher = dispatcher

    def expect(self, total: int) -> None:
        """Set ``wave_done`` once ``total`` responses have arrived."""
        self.wave_done.clear()
        self.target = total

    def done(self, index: int, sample: int, future) -> None:
        stamp = now_ns()
        self.done_ns[index] = stamp
        self.batch_ns[index] = self.dispatcher.last_ns
        try:
            result = future.result()
        except Exception:  # noqa: BLE001 - stays not ok: a failed request
            pass
        else:
            value = float(result.ravel() @ self.projection)
            self.ok[index] = abs(value - self.ref_proj[sample]) <= self.tolerance[sample]
        self.completed += 1
        if self.completed == self.target:
            self.wave_done.set()


class Dispatcher:
    """The callable handed to ``BatchQueue``: times each batched dispatch."""

    def __init__(self, batched, capacity: int) -> None:
        self.batched = batched
        self.durations = np.zeros(capacity, dtype=np.int64)
        self.sizes = np.zeros(capacity, dtype=np.int32)
        self.count = 0
        #: Duration of the latest dispatch, read by the done-callbacks of
        #: its requests (the worker resolves them right after the call).
        self.last_ns = 0

    def __call__(self, **kwargs):
        with span("serve.dispatch"):
            start = now_ns()
            result = self.batched(**kwargs)
            self.last_ns = now_ns() - start
        if self.count < len(self.durations):
            self.durations[self.count] = self.last_ns
            self.sizes[self.count] = len(kwargs["x"])
            self.count += 1
        return result


class ServeWorkload:
    def __init__(self, seed: int) -> None:
        self.ledger = Ledger()
        spec = get_kernel(KERNEL)
        samples = [spec.initialize(**SAMPLE, seed=seed * 1000 + i) for i in range(POOL)]
        self.x = np.stack([s["x"] for s in samples])
        self.r = np.stack([s["r"] for s in samples])
        self.bias = samples[0]["bias"]
        self.refs = np.stack([
            spec.jaxlike_grad({"x": self.x[i], "r": self.r[i], "bias": self.bias}, "x")[1]
            for i in range(POOL)
        ])
        rng = np.random.default_rng(seed)
        self.order = rng.integers(0, POOL, size=4096)
        self.projection = rng.standard_normal(self.refs[0].size)
        flat = self.refs.reshape(POOL, -1)
        self.ref_proj = flat @ self.projection
        self.tolerance = 1e-6 * (np.abs(flat) @ np.abs(self.projection)) + 1e-12
        self.batch = {"x": self.x[:MAX_BATCH], "r": self.r[:MAX_BATCH], "bias": self.bias}

    # -- set-up -------------------------------------------------------------------
    def cold_compile(self, workdir: str) -> Setup:
        fresh_native_cache(workdir)
        self.cache = CompilationCache()
        setup = Setup()
        builds, hits = native_counts()
        start = now_ns()
        program = get_kernel(KERNEL).make_program()
        with span("frontend.to_sdfg", kernel=KERNEL):
            t0 = now_ns()
            self.sdfg = to_sdfg(program)
            setup.frontend_ns += now_ns() - t0
        self.per_sample, self.batched = {}, {}
        for backend in BACKENDS:
            with span("pipeline.compile_gradient", variant=f"{KERNEL}.{backend}"):
                t0 = now_ns()
                gf = GradientFunction(self.sdfg, wrt="x", cache=self.cache, backend=backend)
                setup.compile_ns[backend] += now_ns() - t0
            with span("batching.vmap", variant=f"{KERNEL}.{backend}"):
                t0 = now_ns()
                batched = repro.vmap(gf, in_axes=AXES)
                setup.vmap_ns += now_ns() - t0
            for report in (gf.report, batched.report):
                add_report(setup, backend, report)
            self.per_sample[backend], self.batched[backend] = gf, batched
            self.ledger.ok(2)
        setup.total_ns = now_ns() - start
        setup.builds, setup.artifact_hits = np.subtract(native_counts(), (builds, hits)).tolist()
        return setup

    def check(self) -> None:
        for backend, batched in self.batched.items():
            got = batched(**self.batch)
            if gradients_match(got, self.refs[:MAX_BATCH]):
                self.ledger.ok()
            else:
                self.ledger.fail(f"check {KERNEL}.{backend}: batched gradient differs")

    # -- phases -------------------------------------------------------------------
    # Each phase appends raw samples to ``acc``; ``measure`` runs the phases
    # in several short cycles so that every figure samples the whole run,
    # not one stretch of it (the host's speed drifts over seconds).

    def recompile(self, seconds: float, acc: dict) -> None:
        """Warm ``repro.vmap`` of the compiled gradient (a cache hit)."""
        gf = self.per_sample["numpy"]
        deadline = now_ns() + seconds * 1e9
        while now_ns() < deadline:
            with span("pipeline.content_hash"):
                t0 = now_ns()
                self.sdfg.content_hash()
                acc["hash"].append(now_ns() - t0)
            with span("pipeline.recompile"):
                t0 = now_ns()
                again = repro.vmap(gf, in_axes=AXES)
                acc["hit"].append(now_ns() - t0)
            if again.cache_hit and again.compiled is self.batched["numpy"].compiled:
                self.ledger.ok()
            else:
                self.ledger.fail("recompile of the vmapped gradient missed the cache")

    def baseline_batch(self) -> int:
        """The per-sample gradients of ``self.batch`` in the jaxlike
        baseline, one sample at a time (what ``jaxlike.vmap`` does); returns
        the time taken (ns)."""
        grad, bias = get_kernel(KERNEL).jaxlike_grad, self.bias
        t0 = now_ns()
        for x, r in zip(self.batch["x"], self.batch["r"]):
            grad({"x": x, "r": r, "bias": bias}, "x")
        return now_ns() - t0

    def direct(self, seconds: float, traced: bool, acc: dict) -> None:
        """Closed-loop batched calls without the queue, alternating backends,
        each pair followed by the baseline on the same batch."""
        compiled = {b: self.batched[b].compiled for b in BACKENDS}
        deadline = now_ns() + seconds * 1e9
        while now_ns() < deadline:
            for backend, fn in compiled.items():
                t0 = now_ns()
                if traced:
                    traced_call(fn, self.batch, f"{KERNEL}_vmap.{backend}")
                else:
                    fn(**self.batch)
                acc[f"direct.{backend}"].append(now_ns() - t0)
                self.ledger.ok()
            acc["base"].append(self.baseline_batch())

    def _account(self, responses: Responses, submitted: int, what: str) -> None:
        good = int(np.count_nonzero(responses.ok[:submitted]))
        self.ledger.ok(good)
        if submitted - good:
            self.ledger.fail(f"{what}: {submitted - good} wrong or failed responses",
                             count=submitted - good)

    def _queue(self, dispatcher, **bounds) -> BatchQueue:
        return BatchQueue(dispatcher, max_batch=MAX_BATCH, max_wait_ms=MAX_WAIT_MS,
                          static_kwargs={"bias": self.bias}, **bounds)

    def burst(self, seconds: float, acc: dict) -> None:
        """Saturated throughput: waves of ``MAX_PENDING`` requests staged in
        the bounded queue (block policy) and released at once; the next wave
        is submitted when the last one has resolved.  A free-running
        submitter contends with the worker for the interpreter lock and its
        throughput varied 2.5x between identical runs; waves keep the worker
        saturated without that contention.  After each wave, with the
        worker idle, the baseline runs once on a batch (not counted in the
        burst's time), so ``req_speedup`` compares like with like."""
        waves = max(1, int(seconds * MAX_RPS / MAX_PENDING))
        capacity = waves * MAX_PENDING
        dispatcher = Dispatcher(self.batched["numpy"], capacity)
        responses = Responses(capacity, self.projection, self.ref_proj, self.tolerance,
                              dispatcher)
        sent = np.zeros(capacity, dtype=np.int64)
        order, x, r, done = self.order, self.x, self.r, responses.done
        queue = self._queue(dispatcher, max_pending=MAX_PENDING, policy="block")
        submitted = paused = 0
        start = now_ns()
        deadline = start + seconds * 1e9
        try:
            while submitted < capacity and now_ns() < deadline:
                responses.expect(submitted + MAX_PENDING)
                queue.hold()
                for _ in range(MAX_PENDING):
                    sample = order[submitted % len(order)]
                    sent[submitted] = now_ns()
                    queue.submit(x=x[sample], r=r[sample]).add_done_callback(
                        functools.partial(done, submitted, sample))
                    submitted += 1
                queue.release()
                if not responses.wave_done.wait(timeout=WAVE_TIMEOUT_S):
                    raise RuntimeError("a burst wave did not resolve in time")
                acc["burst_base"].append(self.baseline_batch())
                paused += acc["burst_base"][-1]
        finally:
            queue.close()
        acc["burst_ns"] += now_ns() - start - paused
        acc["burst_requests"] += submitted
        self._account(responses, submitted, "burst")
        acc["burst_latency"].append(responses.done_ns[:submitted] - sent[:submitted])
        acc["dispatch"].append(dispatcher.durations[:dispatcher.count].copy())
        acc["batch_sizes"].append(dispatcher.sizes[:dispatcher.count].copy())

    def fixed_rate(self, seconds: float, acc: dict) -> None:
        """Open loop at ``FIXED_RATE``; latency counts from the due time."""
        count = max(1, int(seconds * FIXED_RATE))
        period_ns = 1e9 / FIXED_RATE
        dispatcher = Dispatcher(self.batched["numpy"], count)
        responses = Responses(count, self.projection, self.ref_proj, self.tolerance,
                              dispatcher)
        late = np.zeros(count, dtype=np.int64)
        order, x, r, done = self.order, self.x, self.r, responses.done
        queue = self._queue(dispatcher)
        start = now_ns() + 1_000_000
        try:
            for i in range(count):
                due = start + int(i * period_ns)
                wait = due - now_ns()
                if wait > 0:
                    time.sleep(wait / 1e9)
                late[i] = now_ns() - due
                sample = order[i % len(order)]
                queue.submit(x=x[sample], r=r[sample]).add_done_callback(
                    functools.partial(done, i, sample))
        finally:
            queue.close()
        self._account(responses, count, "fixed rate")
        latency = responses.done_ns - (start + (np.arange(count) * period_ns).astype(np.int64))
        acc["open_latency"].append(latency)
        acc["open_overhead"].append(latency - responses.batch_ns)
        acc["late"].append(late)

    def measure(self, seconds: float, traced: bool) -> dict:
        acc = {key: [] for key in ("hash", "hit", "direct.numpy", "direct.cython",
                                   "base", "burst_base",
                                   "burst_latency", "dispatch", "batch_sizes",
                                   "open_latency", "open_overhead", "late")}
        acc["burst_ns"] = acc["burst_requests"] = 0
        cycles = max(1, round(seconds / CYCLE_S))
        cycle = seconds / cycles
        with GcPauses() as pauses:
            for _ in range(cycles):
                self.direct(cycle * DIRECT_SHARE, traced, acc)
                self.recompile(cycle * RECOMPILE_SHARE, acc)
                self.burst(cycle * BURST_SHARE, acc)
                self.fixed_rate(cycle * OPEN_SHARE, acc)
        burst = np.concatenate(acc["burst_latency"])
        dispatch = np.concatenate(acc["dispatch"])
        opened = np.concatenate(acc["open_latency"])
        burst_s = acc["burst_ns"] / 1e9
        base_ns = median(acc["base"])
        times = {
            "req_p50_ms": ms(quantile(burst, 0.5)),
            "req_p99_ms": ms(quantile(burst, 0.99)),
            "req_per_s": acc["burst_requests"] / burst_s,
            "recompile_p50_ms": ms(quantile(acc["hit"], 0.5)),
            "recompile_p99_ms": ms(quantile(acc["hit"], 0.99)),
            "baseline_geomean_ms": ms(base_ns),
        }
        per_sample_ns = median(acc["burst_base"]) / MAX_BATCH
        e2e = {"req_speedup": times["req_per_s"] * per_sample_ns / 1e9}
        for b in BACKENDS:
            direct_ns = median(acc[f"direct.{b}"])
            times[f"grad_geomean_ms.{b}"] = ms(direct_ns)
            e2e[f"speedup.{b}"] = base_ns / direct_ns
        return {
            "e2e": e2e,
            "times": times,
            "hash_ms": ms(median(acc["hash"])),
            "hit_ms": times["recompile_p50_ms"],
            "variant_ms": {},
            "gc_pause_ms": ms(pauses.total_ns),
            "serve": {
                "dispatch_p50_ms": ms(quantile(dispatch, 0.5)),
                "dispatch_p99_ms": ms(quantile(dispatch, 0.99)),
                "batch_fill": float(np.concatenate(acc["batch_sizes"]).mean()) / MAX_BATCH,
                "worker_busy": float(dispatch.sum()) / 1e9 / burst_s,
                "open_p50_ms": ms(quantile(opened, 0.5)),
                "open_p99_ms": ms(quantile(opened, 0.99)),
                "overhead_ms": ms(quantile(np.concatenate(acc["open_overhead"]), 0.5)),
                "gen_late_ms": ms(quantile(np.concatenate(acc["late"]), 0.99)),
            },
        }


def serve_grads(seed, seconds, trace, workdir, setup_reps):
    w = ServeWorkload(seed)
    setups = [w.cold_compile(workdir) for _ in range(setup_reps)]
    check_native_built(setups, w.ledger)
    w.check()
    settle()
    peaks = {f"{KERNEL}_vmap.{b}": peak_mib(w.batched[b].compiled, w.batch) for b in BACKENDS}
    if trace:
        obs.disable()
        untraced = w.measure(seconds / 2, traced=False)
        obs.enable()
        result = w.measure(seconds / 2, traced=True)
        result["untraced"] = untraced
        result["native_share"] = native_share([(w.batched["cython"].compiled, w.batch, 20)])
    else:
        result = w.measure(seconds, traced=False)
    result.update(ledger=w.ledger, setups=setups, hit_rate=w.cache.stats.hit_rate,
                  peaks=peaks)
    return result
