"""The two closed-loop gradient workloads.

``small_grads`` calls eight kernels at preset S on both backends (O1).  At
this size argument binding is most of a call, so the ``call`` and
``pipeline`` layers do most of the work and kernel bodies almost none.

``paper_grads`` calls six kernels at the ``paper`` preset plus the paper's
Listing 1 (N=1024, ILP checkpointing at 20 MiB) on both backends at O1 and
O3.  Here kernel bodies, native lowering, fusion/planning and
checkpointing dominate and binding is a few percent.

One caller issues one gradient call at a time (closed loop).  Calls are
interleaved round by round over the variants, and each kernel's gradient
in the jaxlike baseline engine (the stand-in for JAX that the paper
compares against) runs in the same rounds, just before that kernel's
variants.  The end-to-end figures are speedups over that baseline: the
host's speed drifts by up to 2x over minutes, which moves every absolute
time, but it moves the baseline and the compiled gradient alike.
"""

from __future__ import annotations

import itertools

from repro import obs
from repro.checkpointing import ILPCheckpointing, StoreAll
from repro.npbench import get_kernel
from repro.pipeline import CompilationCache, compile_gradient

import listing1
from bench_core import (
    BACKENDS,
    GcPauses,
    Ledger,
    Variant,
    check_native_built,
    cold_compile,
    copy_inputs,
    geomean,
    gradients_match,
    median,
    ms,
    native_share,
    now_ns,
    peak_mib,
    quantile,
    recompile,
    settle,
    traced_call,
)

SMALL_KERNELS = ("hdiff", "bias_act", "softmax", "mlp", "trisolv", "lenet", "seidel2d", "k2mm")
PAPER_KERNELS = ("k2mm", "mlp", "seidel2d", "syrk", "smooth_chain", "hdiff", "listing1")
#: Kernels whose jaxlike reference (about 9 s) and tracemalloc pass (about
#: 19 s per numpy variant) are too slow at paper size: both run the same
#: compiled artifact (its shapes are symbolic) on preset-S inputs instead,
#: and the kernel has no timed baseline at paper size.
CHECK_AT_S = ("seidel2d",)
LISTING1_N = 1024
LISTING1_LIMIT_MIB = 20.0
#: At paper size a round takes seconds, so a fast variant repeats within a
#: round until about this long, for enough samples of its median.  Only the
#: first call of each round counts as a request (``call.req_*``), which keeps
#: every variant's weight equal.
PAPER_ROUND_SLICE_NS = 20e6
PAPER_TIERS = ("O1", "O3")
#: Share of the measured time spent on warm recompiles.
RECOMPILE_SHARE = 0.1


def paper_variant_names() -> list:
    return [f"{k}.{b}.{t}" for k in PAPER_KERNELS for b in BACKENDS for t in PAPER_TIERS]


class GradWorkload:
    def __init__(self, preset: str, kernels: tuple, tiers: tuple, seed: int,
                 round_slice_ns: float) -> None:
        self.preset = preset
        self.seed = seed
        self.round_slice_ns = round_slice_ns
        self.ledger = Ledger()
        self.variants = [
            Variant(k, backend, tier, self._wrt(k), self._strategy(k))
            for k in kernels for tier in tiers for backend in BACKENDS
        ]
        self.programs = {k: self._program_factory(k) for k in kernels}
        self.data = {k: self._inputs(k, index) for index, k in enumerate(kernels)}
        self.baselines = {k: f for k in kernels if (f := self._baseline(k)) is not None}
        self.base_reps = dict.fromkeys(self.baselines, 1)

    # -- inputs and references ----------------------------------------------
    def _wrt(self, kernel: str) -> str:
        return "C" if kernel == "listing1" else get_kernel(kernel).wrt

    def _strategy(self, kernel: str):
        if kernel != "listing1":
            return None
        return lambda: ILPCheckpointing(LISTING1_LIMIT_MIB, symbol_values={"N": LISTING1_N})

    def _program_factory(self, kernel: str):
        if kernel == "listing1":
            return listing1.make_program
        spec = get_kernel(kernel)
        return lambda: spec.program_for(self.preset)

    def _inputs(self, kernel: str, index: int) -> dict:
        seed = self.seed * 100 + index
        if kernel == "listing1":
            return listing1.inputs(LISTING1_N, seed)
        return get_kernel(kernel).data(self.preset, seed=seed)

    def _check_inputs(self, kernel: str) -> dict:
        if kernel in CHECK_AT_S and self.preset != "S":
            return get_kernel(kernel).data("S", seed=self.seed * 100)
        return self.data[kernel]

    def _reference(self, kernel: str):
        """The gradient from an engine independent of the compiler under test."""
        data = self._check_inputs(kernel)
        if kernel == "listing1":
            return listing1.reference_gradient(data["C"], data["D"])
        spec = get_kernel(kernel)
        return spec.jaxlike_grad(copy_inputs(data), spec.wrt)[1]

    def _baseline(self, kernel: str):
        """The kernel's gradient in the jaxlike baseline engine, as a function
        of the inputs; ``None`` where it is too slow to time (``CHECK_AT_S``)."""
        if kernel in CHECK_AT_S and self.preset != "S":
            return None
        if kernel == "listing1":
            return listing1.baseline_gradient
        spec = get_kernel(kernel)
        return lambda data: spec.jaxlike_grad(data, spec.wrt)[1]

    def _reps(self, elapsed_ns: float) -> int:
        """Calls per round that fill about one round slice."""
        return max(1, min(50, int(self.round_slice_ns / max(elapsed_ns, 1))))

    # -- phases -----------------------------------------------------------------
    def setup(self, reps: int, workdir: str):
        setups = []
        for _ in range(reps):
            setup, self.cache = cold_compile(self.programs, self.variants, workdir, self.ledger)
            setups.append(setup)
        check_native_built(setups, self.ledger)
        return setups

    def check(self) -> None:
        """Every compiled variant against its reference, outside timing.  The
        first call of each variant and baseline on the working inputs
        doubles as the warm-up and sizes its repetitions per round; where
        the baseline engine is also the reference, that call gives it."""
        references = {}
        for kernel, baseline in self.baselines.items():
            t0 = now_ns()
            first = baseline(copy_inputs(self.data[kernel]))
            self.base_reps[kernel] = self._reps(now_ns() - t0)
            if kernel != "listing1":
                references[kernel] = first
            elif gradients_match(first, self._reference(kernel)):
                self.ledger.ok()
            else:
                self.ledger.fail("check listing1 baseline: gradient differs from the closed form")
        for kernel in self.programs:
            if kernel not in references:
                references[kernel] = self._reference(kernel)
        for v in self.live:
            v.work = copy_inputs(self.data[v.kernel])
            try:
                t0 = now_ns()
                v.first = v.compiled(**v.work)
                elapsed = now_ns() - t0
                got = v.first
                if v.kernel in CHECK_AT_S and self.preset != "S":
                    got = v.compiled(**copy_inputs(self._check_inputs(v.kernel)))
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                self.ledger.fail(f"check {v.name}: {type(exc).__name__}: {exc}")
                v.compiled = None
                continue
            if gradients_match(got, references[v.kernel]):
                self.ledger.ok()
            else:
                self.ledger.fail(f"check {v.name}: gradient differs from the reference")
            v.reps = self._reps(elapsed)

    @property
    def live(self) -> list:
        return [v for v in self.variants if v.compiled is not None]

    def measure(self, seconds: float, traced: bool) -> dict:
        """Closed loop over the variants for ``seconds``, whole rounds only;
        each kernel's baseline runs just before its variants.  After each
        variant's calls, warm recompiles (cache hits) repay a time debt of
        ``RECOMPILE_SHARE`` of those calls, so they sample the whole run
        evenly even when a round takes seconds."""
        live = self.live
        for v in live:
            v.times = []
        base_times = {k: [] for k in self.baselines}
        base_work = {k: copy_inputs(self.data[k]) for k in self.baselines}
        schedule = []
        for v in live:
            if v.kernel in base_times and v.kernel not in {k for k, _ in schedule}:
                schedule.append((v.kernel, None))
            schedule.append((v.kernel, v))
        pooled = []
        acc = {"hash": [], "hit": []}
        ledger = self.ledger
        cycle = itertools.cycle(live)
        calls_ns = debt_ns = 0
        with GcPauses() as pauses:
            deadline = now_ns() + seconds * 1e9
            while now_ns() < deadline:
                for kernel, v in schedule:
                    if v is None:
                        baseline, work = self.baselines[kernel], base_work[kernel]
                        for _ in range(self.base_reps[kernel]):
                            t0 = now_ns()
                            baseline(work)
                            base_times[kernel].append(now_ns() - t0)
                        continue
                    fn, work, times = v.compiled, v.work, v.times
                    start = now_ns()
                    for rep in range(v.reps):
                        t0 = now_ns()
                        try:
                            if traced:
                                v.last = traced_call(fn, work, v.name)
                            else:
                                v.last = fn(**work)
                        except Exception as exc:  # noqa: BLE001 - counted
                            ledger.fail(f"call {v.name}: {type(exc).__name__}: {exc}")
                            continue
                        elapsed = now_ns() - t0
                        times.append(elapsed)
                        if rep == 0:
                            pooled.append(elapsed)
                    t0 = now_ns()
                    calls_ns += t0 - start
                    debt_ns += (t0 - start) * RECOMPILE_SHARE / (1 - RECOMPILE_SHARE)
                    while debt_ns > 0:
                        recompile(next(cycle), self.cache, ledger, acc)
                        t1 = now_ns()
                        debt_ns -= t1 - t0
                        t0 = t1
        ledger.ok(sum(len(v.times) for v in live))
        # The inputs are reused across calls; a repeatable gradient is part
        # of correctness (it was checked against the reference above).
        for v in live:
            if gradients_match(v.last, v.first):
                ledger.ok()
            else:
                ledger.fail(f"repeat {v.name}: gradient changed across calls")
        base_ns = {k: median(t) for k, t in base_times.items()}
        compared = [v for v in live if v.kernel in base_ns]
        e2e = {
            f"speedup.{b}": geomean([base_ns[v.kernel] / median(v.times)
                                     for v in compared if v.backend == b])
            for b in BACKENDS
        }
        # Every variant issues one request per round, so the request mix
        # weighs the variants alike.
        e2e["req_speedup"] = geomean([base_ns[v.kernel] / median(v.times) for v in compared])
        times = {
            "req_p50_ms": ms(quantile(pooled, 0.5)),
            "req_p99_ms": ms(quantile(pooled, 0.99)),
            "req_per_s": len(pooled) / (calls_ns / 1e9),
            "recompile_p50_ms": ms(quantile(acc["hit"], 0.5)),
            "recompile_p99_ms": ms(quantile(acc["hit"], 0.99)),
            "baseline_geomean_ms": ms(geomean(list(base_ns.values()))),
        }
        for b in BACKENDS:
            times[f"grad_geomean_ms.{b}"] = ms(geomean([median(v.times) for v in live
                                                         if v.backend == b]))
        return {
            "e2e": e2e,
            "times": times,
            "hash_ms": ms(median(acc["hash"])),
            "hit_ms": times["recompile_p50_ms"],
            "variant_ms": {v.name: ms(median(v.times)) for v in live},
            "gc_pause_ms": ms(pauses.total_ns),
        }

    def peaks(self) -> dict:
        return {v.name: peak_mib(v.compiled, self._check_inputs(v.kernel)) for v in self.live}

    def storeall_peak(self):
        """Listing 1 on numpy/O1 under store-all, for comparison with the
        ILP's 20 MiB plan (``None`` when the workload lacks Listing 1)."""
        if "listing1" not in self.programs:
            return None
        sdfg = next(v.sdfg for v in self.variants if v.kernel == "listing1")
        outcome = compile_gradient(sdfg, wrt=["C"], optimize="O1", backend="numpy",
                                   checkpointing=StoreAll(), cache=CompilationCache())
        return peak_mib(outcome.compiled, self.data["listing1"])


def run(preset: str, kernels: tuple, tiers: tuple, round_slice_ns: float,
        seed: int, seconds: float, trace: bool, workdir: str, setup_reps: int) -> dict:
    w = GradWorkload(preset, kernels, tiers, seed, round_slice_ns)
    setups = w.setup(setup_reps, workdir)
    w.check()
    settle()
    peaks = w.peaks()
    if trace:
        obs.disable()
        untraced = w.measure(seconds / 2, traced=False)
        obs.enable()
        result = w.measure(seconds / 2, traced=True)
        result["untraced"] = untraced
    else:
        result = w.measure(seconds, traced=False)
    result.update(ledger=w.ledger, setups=setups, hit_rate=w.cache.stats.hit_rate,
                  peaks=peaks)
    if trace:
        result["native_share"] = native_share(
            [(v.compiled, v.work, v.reps) for v in w.live if v.backend == "cython"]
        )
        checkpoints = [v.checkpoint for v in w.live if v.checkpoint is not None]
        result["recomputed"] = sum(
            list(c.decisions_by_data.values()).count("recompute") for c in checkpoints
        )
        result["modeled_peak_mib"] = max(
            (c.modeled_peak_bytes / 2**20 for c in checkpoints), default=0.0
        )
        result["storeall_peak_mib"] = w.storeall_peak() or 0.0
    return result


def small_grads(seed, seconds, trace, workdir, setup_reps):
    return run("S", SMALL_KERNELS, ("O1",), 0,
               seed, seconds, trace, workdir, setup_reps)


def paper_grads(seed, seconds, trace, workdir, setup_reps):
    return run("paper", PAPER_KERNELS, PAPER_TIERS, PAPER_ROUND_SLICE_NS,
               seed, seconds, trace, workdir, setup_reps)

