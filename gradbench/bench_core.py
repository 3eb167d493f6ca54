"""Shared machinery of the gradient benchmark.

Everything here calls the library only through its public layer entry
points (``to_sdfg``, ``compile_gradient``, ``SDFG.content_hash``,
``bind_arguments``, ``CompiledSDFG.call_with_bindings``) and wraps each call
in a ``repro.obs`` span, so a traced run can split the time by layer.
"""

from __future__ import annotations

import gc
import math
import os
import tempfile
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro import obs
from repro.codegen.runtime import bind_arguments
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.pipeline import CompilationCache, compile_gradient, to_sdfg
from repro.util.errors import CheckpointingError

now_ns = obs.monotonic_ns
span = obs.span

BACKENDS = ("numpy", "cython")
#: Stages whose time and IR size the per-layer split reports (``passes.*``).
PASS_STAGES = (
    "prune-constant-branches",
    "dead-code-elimination",
    "global-value-numbering",
    "map-fusion",
    "memory-planning",
)
#: The one known defect: at the paper's 20 MiB limit the ILP finds no
#: feasible plan for Listing 1 under numpy/O3.  Every set-up still tries
#: the compile and reports the error (``checkpointing.infeasible`` counts
#: it), but the variant is not one of the workload's operations, which
#: must all succeed; any other failure fails the run.
KNOWN_FAILURES = {("listing1", "numpy", "O3"): CheckpointingError}

_BUILDS = METRICS.counter("native.artifacts.builds")
_ARTIFACT_HITS = METRICS.counter("native.artifacts.hits")


def native_counts() -> tuple:
    """(shared objects built, artifact-cache hits) so far in this process."""
    return _BUILDS.value, _ARTIFACT_HITS.value


def ms(ns: float) -> float:
    return ns / 1e6


def quantile(values, q: float) -> float:
    """``q``-quantile of ``values`` (linear interpolation); NaN when empty."""
    if len(values) == 0:
        return math.nan
    return float(np.quantile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return quantile(values, 0.5)


def geomean(values) -> float:
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def copy_inputs(data: dict) -> dict:
    return {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in data.items()}


class Ledger:
    """Operations attempted and failed (any failure makes the run
    incorrect), plus the :data:`KNOWN_FAILURES` met, which are reported
    but are not operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.known: list[str] = []

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, what: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        self.unexpected.append(what)

    def known_failure(self, what: str) -> None:
        self.known.append(what)

    @property
    def correct(self) -> bool:
        return not self.unexpected

    @property
    def ok_frac(self) -> float:
        return 1.0 - self.failed / self.attempted


def gradients_match(actual, expected) -> bool:
    """Agreement with an independent reference, at the tolerances the
    kernel tests use (float32 kernels get looser ones), with the absolute
    tolerance scaled by the reference's magnitude."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    if actual.shape != expected.shape or not np.all(np.isfinite(actual)):
        return False
    rtol, atol = (2e-2, 2e-3) if expected.dtype == np.float32 else (1e-4, 1e-6)
    scale = max(1.0, float(np.max(np.abs(expected))))
    return bool(np.allclose(actual, expected, rtol=rtol, atol=atol * scale))


@dataclass
class Variant:
    """One compiled gradient: a program under one backend and tier."""

    kernel: str
    backend: str
    tier: str
    wrt: str
    make_strategy: Optional[Callable[[], Any]] = None
    compiled: Any = None
    sdfg: Any = None
    checkpoint: Any = None
    work: dict = field(default_factory=dict)
    times: list = field(default_factory=list)
    reps: int = 1
    first: Any = None
    last: Any = None

    @property
    def name(self) -> str:
        return f"{self.kernel}.{self.backend}.{self.tier}"


@dataclass
class Setup:
    """Layer totals of one cold compile of every variant (nanoseconds)."""

    total_ns: int = 0
    frontend_ns: int = 0
    compile_ns: dict = field(default_factory=lambda: dict.fromkeys(BACKENDS, 0))
    emit_ns: dict = field(default_factory=lambda: dict.fromkeys(BACKENDS, 0))
    pass_ns: dict = field(default_factory=lambda: dict.fromkeys(PASS_STAGES, 0))
    pass_nodes: dict = field(default_factory=lambda: dict.fromkeys(PASS_STAGES, 0))
    ad_ns: int = 0
    select_ns: int = 0
    vmap_ns: int = 0
    builds: int = 0
    artifact_hits: int = 0
    fallbacks: int = 0
    infeasible: int = 0


def fresh_native_cache(workdir: str) -> None:
    """Point the native artifact cache at a new empty directory, so every
    set-up builds its shared objects instead of reusing earlier ones."""
    os.environ["REPRO_NATIVE_CACHE_DIR"] = tempfile.mkdtemp(prefix="native-", dir=workdir)


def add_report(setup: Setup, backend: str, report) -> None:
    """Fold one compile's :class:`PipelineReport` into the layer totals."""
    for record in report.records:
        elapsed = int(record.seconds * 1e9)
        if record.name in setup.pass_ns:
            setup.pass_ns[record.name] += elapsed
            setup.pass_nodes[record.name] += record.nodes_after
        elif record.name == "autodiff":
            setup.ad_ns += elapsed
        elif record.name == "checkpointing-selection":
            setup.select_ns += elapsed
        elif record.name == "codegen":
            setup.emit_ns[backend] += elapsed
    if report.backend_fallback:
        setup.fallbacks += 1


def cold_compile(programs: dict, variants: list, workdir: str, ledger: Ledger):
    """Compile every variant from empty caches: a new ``CompilationCache``, a
    new native artifact directory and freshly built programs.  Returns the
    layer totals and the cache (kept for the warm recompiles)."""
    fresh_native_cache(workdir)
    cache = CompilationCache()
    setup = Setup()
    builds, hits = native_counts()
    start = now_ns()
    sdfgs = {}
    for kernel, factory in programs.items():
        program = factory()
        with span("frontend.to_sdfg", kernel=kernel):
            t0 = now_ns()
            sdfgs[kernel] = to_sdfg(program)
            setup.frontend_ns += now_ns() - t0
    for v in variants:
        v.sdfg = sdfgs[v.kernel]
        strategy = v.make_strategy() if v.make_strategy else None
        known = KNOWN_FAILURES.get((v.kernel, v.backend, v.tier))
        try:
            with span("pipeline.compile_gradient", variant=v.name):
                t0 = now_ns()
                outcome = compile_gradient(
                    v.sdfg, wrt=[v.wrt], optimize=v.tier, backend=v.backend,
                    checkpointing=strategy, cache=cache,
                )
                setup.compile_ns[v.backend] += now_ns() - t0
        except Exception as exc:  # noqa: BLE001 - every compile error is counted
            v.compiled = None
            what = f"compile {v.name}: {type(exc).__name__}: {exc}"
            if known is not None and isinstance(exc, known):
                ledger.known_failure(what)
                setup.infeasible += 1
            else:
                ledger.fail(what)
            continue
        ledger.ok()
        v.compiled = outcome.compiled
        v.checkpoint = getattr(strategy, "last_report", None)
        add_report(setup, v.backend, outcome.report)
    setup.total_ns = now_ns() - start
    setup.builds, setup.artifact_hits = np.subtract(native_counts(), (builds, hits)).tolist()
    return setup, cache


def check_native_built(setups: list, ledger: Ledger) -> None:
    """Every cold set-up requests native code, so each must build some."""
    for index, setup in enumerate(setups):
        if setup.builds == 0:
            ledger.fail(f"cold set-up {index} built no native artifact")
        else:
            ledger.ok()


def settle() -> None:
    """Move everything set-up allocated out of the collector's reach, so
    collector pauses during measurement scale with the garbage the measured
    calls make, not with the size of the compiled-program heap."""
    gc.collect()
    gc.freeze()


def traced_call(compiled, kwargs: dict, variant: str):
    """One gradient call split at the layer boundaries of ``__call__``:
    argument binding, the generated kernel, then result post-processing
    (the self time of the enclosing ``call`` span)."""
    with span("call", variant=variant):
        with span("call.bind"):
            bindings = bind_arguments(compiled.sdfg, (), kwargs)
        with span("call.kernel"):
            raw = compiled.call_with_bindings(bindings)
        return compiled._postprocess(raw)


def recompile(v: Variant, cache: CompilationCache, ledger: Ledger, acc: dict) -> None:
    """One warm recompile (a cache hit) of a compiled variant; appends the
    content-hash and recompile times (ns) to ``acc["hash"]``/``acc["hit"]``."""
    strategy = v.make_strategy() if v.make_strategy else None
    with span("pipeline.content_hash", variant=v.name):
        t0 = now_ns()
        v.sdfg.content_hash()
        acc["hash"].append(now_ns() - t0)
    with span("pipeline.recompile", variant=v.name):
        t0 = now_ns()
        outcome = compile_gradient(
            v.sdfg, wrt=[v.wrt], optimize=v.tier, backend=v.backend,
            checkpointing=strategy, cache=cache,
        )
        acc["hit"].append(now_ns() - t0)
    if outcome.cache_hit and outcome.compiled is v.compiled:
        ledger.ok()
    else:
        ledger.fail(f"recompile {v.name} missed the cache")


def peak_mib(fn: Callable, kwargs: dict) -> float:
    """tracemalloc peak of one call, in MiB.  This counts Python and NumPy
    allocations only (not the C heap of native kernels); the inputs are
    allocated before tracing starts and are not counted."""
    args = copy_inputs(kwargs)
    gc.collect()
    tracemalloc.start()
    try:
        fn(**args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def native_share(handles: list) -> float:
    """Share of call time spent inside native C segments, from
    ``profile=True`` wrappers: ``handles`` is a list of (compiled, kwargs,
    calls).  Each wrapper gets a private registry so programs that share an
    SDFG name do not pool their histograms."""
    native = total = 0.0
    for compiled, kwargs, calls in handles:
        profiled = obs.profile_compiled(compiled, metrics=MetricsRegistry())
        for _ in range(calls):
            profiled(**kwargs)
        total += profiled.runtime_histogram.sum
        segments = getattr(profiled, "native_histogram", None)
        if segments is not None:  # None when the program fell back to NumPy
            native += segments.sum
    return native / total if total else 0.0


class GcPauses:
    """Total time spent in garbage collection while active (``gc.callbacks``)."""

    def __init__(self) -> None:
        self.total_ns = 0
        self._start = 0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = now_ns()
        else:
            self.total_ns += now_ns() - self._start

    def __enter__(self) -> "GcPauses":
        gc.collect()
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


def self_times(records) -> dict:
    """Per span name: (count, total duration ns, total self time ns), where
    self time is a span's duration minus that of its direct children on the
    same thread."""
    by_thread: dict = {}
    for record in records:
        by_thread.setdefault(record.thread_id, []).append(record)
    child_ns: dict = {}
    for spans in by_thread.values():
        spans.sort(key=lambda r: (r.start_ns, -r.duration_ns))
        stack: list = []
        for record in spans:
            while stack and stack[-1].start_ns + stack[-1].duration_ns <= record.start_ns:
                stack.pop()
            if stack:
                parent = stack[-1]
                child_ns[id(parent)] = child_ns.get(id(parent), 0) + record.duration_ns
            stack.append(record)
    table: dict = {}
    for record in records:
        count, total, own = table.get(record.name, (0, 0, 0))
        table[record.name] = (
            count + 1,
            total + record.duration_ns,
            own + record.duration_ns - child_ns.get(id(record), 0),
        )
    return table
