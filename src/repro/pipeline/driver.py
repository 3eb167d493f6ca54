"""The compilation driver: pipeline assembly, caching and the top-level API.

A compilation request is one :class:`CompileOptions` value: what to
differentiate, the checkpointing strategy, the optimization tier, the
backend and the remaining knobs.  :func:`build_pipeline` turns it into a
:class:`PassManager` and :func:`compile_request` runs that (cached).  Every
public entry point — ``repro.compile``, :func:`compile_forward`,
:func:`compile_gradient`, ``grad`` / ``value_and_grad`` /
``GradientFunction``, ``Program.compile`` and ``BatchedProgram.compile`` —
is keyword sugar that builds one :class:`CompileOptions` and forwards it.

* ``optimize="O1"`` (default) runs the paper's pre-AD cleanup — constant
  branch pruning followed by dead code elimination — before differentiation
  and code generation; ``"O0"`` compiles the program as written; ``"O2"``
  additionally merges identical element-wise maps (global value numbering)
  and fuses producer/consumer maps so intermediate transients are never
  materialised; ``"O3"`` makes fusion cost-model-driven — stencil-offset
  reads fuse when modelled recompute cost stays below saved traffic, and
  gradient compiles decline fusions the backward pass would recompute (see
  docs/optimization-levels.md and docs/cost-model.md).
* When a gradient is requested (``gradient=True``, a ``wrt`` list, an
  ``output`` or a checkpointing spec), the pipeline appends
  checkpointing-strategy selection and the reverse-mode AD stage before the
  terminal codegen stage, and ``repro.compile`` returns a
  :class:`~repro.autodiff.GradientFunction`.
* Results are cached in :data:`~repro.pipeline.cache.DEFAULT_CACHE` keyed on
  the SDFG content hash and the pipeline configuration — recompiling an
  unchanged program is a hash plus a dictionary lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence, Union

from repro.ir import SDFG
from repro.pipeline.cache import (
    DEFAULT_CACHE,
    CacheEntry,
    CompilationCache,
    contains_miss_token,
)
from repro.pipeline.manager import PassManager, PipelineReport
from repro.pipeline.pass_base import PassContext, PipelineError
from repro.pipeline.stages import (
    Autodiff,
    Codegen,
    CheckpointingSelection,
    ConstantBranchPruning,
    DeadCodeElimination,
    GlobalValueNumbering,
    MapFusion,
    MemoryPlanning,
)

#: Ordered simplification stages per optimization level.  Each entry is a
#: pass class or ``(class, extra_kwargs)``.  ``O0`` compiles the program as
#: written; ``O1`` is the paper's pre-AD cleanup; ``O2`` adds duplicate-work
#: elimination (global value numbering merges identical element-wise maps
#: across states) and producer/consumer map fusion; ``O3`` runs the same
#: stages but makes fusion *cost-model-driven* (stencil offsets fuse when
#: the recompute-vs-traffic model pays, and gradient compiles decline
#: fusions the backward pass would have to recompute — see
#: repro/passes/cost.py and docs/cost-model.md).  All levels run before AD,
#: so gradients are generated from the optimised forward SDFG.  At O2+ the
#: pipeline also appends liveness-driven memory planning *after* AD (see
#: docs/memory-planning.md).  See docs/optimization-levels.md.
OPT_LEVELS: dict[str, tuple] = {
    "O0": (),
    "O1": (ConstantBranchPruning, DeadCodeElimination),
    "O2": (
        ConstantBranchPruning,
        DeadCodeElimination,
        GlobalValueNumbering,
        MapFusion,
    ),
    "O3": (
        ConstantBranchPruning,
        DeadCodeElimination,
        GlobalValueNumbering,
        (MapFusion, {"cost_driven": True}),
    ),
}

#: Stages that take an ``extra_keep`` tuple of containers they must preserve
#: even when those look dead/mergeable (gradient targets).
_KEEP_AWARE = (DeadCodeElimination, GlobalValueNumbering, MapFusion)


@dataclass(frozen=True)
class CompileOptions:
    """One compilation request: every value that decides what gets built.

    ``optimize`` is the tier (``"O0"``..``"O3"``).  ``gradient=None`` means
    "infer": the request differentiates when any of ``wrt``, ``output`` or
    ``checkpointing`` is given; after construction ``gradient`` is always a
    bool.  ``backend`` names the code generator (``None`` = numpy).
    ``memory_planning`` forces the liveness-driven buffer-reuse stage on or
    off (``None`` = on at O2+).  ``checkpointing`` is a strategy instance or
    name, ``wrt`` the inputs to differentiate (a name or a sequence, stored
    as a tuple), ``output`` the container to differentiate and
    ``return_value`` whether a gradient call also returns the forward value.
    ``symbol_values`` binds configuration symbols at compile time,
    ``extra_passes`` run after simplification and before AD/codegen, and
    ``profile`` wraps the compiled callable for per-call runtime histograms.

    Where a compiled result is looked up (the ``cache=`` argument of the
    entry points) is not part of the request.  Requests compare equal
    field by field, which is what ``Program.compile`` memoizes on.
    """

    optimize: str = "O1"
    gradient: Optional[bool] = None
    backend: Optional[str] = None
    memory_planning: Optional[bool] = None
    checkpointing: Any = None
    wrt: Optional[Sequence[str]] = None
    output: Optional[str] = None
    return_value: bool = False
    symbol_values: Optional[Mapping[str, object]] = None
    extra_passes: Sequence = ()
    profile: bool = False

    def __post_init__(self) -> None:
        if self.optimize not in OPT_LEVELS:
            raise PipelineError(
                f"Unknown optimization level {self.optimize!r}; "
                f"options: {sorted(OPT_LEVELS)}"
            )
        asks_gradient = (
            self.wrt is not None
            or self.checkpointing is not None
            or self.output is not None
        )
        if self.gradient is False and asks_gradient:
            raise PipelineError(
                "gradient=False contradicts the gradient options wrt/output/checkpointing; "
                "drop gradient=False or the gradient options"
            )
        wrt = self.wrt
        if wrt is not None:
            wrt = (wrt,) if isinstance(wrt, str) else tuple(wrt)
        # Frozen: normalise through object.__setattr__ (runs again, to the
        # same result, under dataclasses.replace).
        object.__setattr__(self, "gradient", bool(self.gradient or asks_gradient))
        object.__setattr__(self, "wrt", wrt)
        object.__setattr__(self, "symbol_values", dict(self.symbol_values or {}))
        object.__setattr__(self, "extra_passes", tuple(self.extra_passes))

    @property
    def keep(self) -> tuple:
        """Containers downstream stages will need: simplification must not
        delete or merge them even when they are dead w.r.t. the program's
        return value."""
        named = (self.output,) if self.output is not None else ()
        return named + (self.wrt or ())


def to_sdfg(program) -> SDFG:
    """Lower any accepted program form (SDFG, ``@repro.program`` object or a
    plain annotated function) to its forward SDFG."""
    if isinstance(program, SDFG):
        return program
    to_sdfg_method = getattr(program, "to_sdfg", None)
    if callable(to_sdfg_method):
        return to_sdfg_method()
    if callable(program):
        from repro.frontend import parse_function

        return parse_function(program)
    raise PipelineError(f"Cannot lower {program!r} to an SDFG")


def build_pipeline(options: CompileOptions) -> PassManager:
    """Assemble the pipeline for one compilation request.

    ``options.extra_passes`` (pass instances, registered names or callables)
    are inserted after simplification and before AD/codegen.
    ``options.backend`` configures both the terminal codegen stage and, at
    ``"O3"``, the cost model that prices fusions (native loops make
    recompute far cheaper; see docs/backends.md).  Memory planning runs
    after AD (gradient containers protected) and immediately before
    codegen; its knobs are part of the pipeline fingerprint.
    """
    keep = options.keep
    passes: list = []
    for entry in OPT_LEVELS[options.optimize]:
        cls, kwargs = entry if isinstance(entry, tuple) else (entry, {})
        kwargs = dict(kwargs)
        if kwargs.get("cost_driven"):
            # Cost-driven fusion prices backward-pass recomputation only
            # when this compilation will actually differentiate.
            kwargs.setdefault("gradient_aware", options.gradient)
            kwargs.setdefault("backend", options.backend)
        if issubclass(cls, _KEEP_AWARE):
            kwargs.setdefault("extra_keep", keep)
        passes.append(cls(**kwargs))

    passes.extend(options.extra_passes)
    if options.gradient:
        passes.append(CheckpointingSelection(options.checkpointing))
        passes.append(Autodiff(output=options.output, inputs=options.wrt))
    plan_memory = options.memory_planning
    if plan_memory is None:
        plan_memory = options.optimize in ("O2", "O3")
    if plan_memory:
        passes.append(MemoryPlanning(extra_keep=keep))
    passes.append(
        Codegen(return_value=options.return_value, backend=options.backend)
    )
    kind = "grad" if options.gradient else "forward"
    return PassManager(passes, name=f"{kind}-{options.optimize}")


@dataclass
class CompileOutcome:
    """Everything one driver invocation produced (or fetched from cache)."""

    compiled: Any
    report: PipelineReport
    artifacts: dict[str, Any] = field(default_factory=dict)
    cache_hit: bool = False
    key: Optional[tuple] = None


def run_pipeline(
    sdfg: SDFG,
    manager: PassManager,
    ctx: Optional[PassContext] = None,
    cache: Union[CompilationCache, bool, None] = None,
) -> CompileOutcome:
    """Run ``manager`` over ``sdfg`` with caching.

    ``cache=None`` or ``cache=True`` uses the process-wide default cache;
    ``cache=False`` disables caching for this call; a
    :class:`CompilationCache` instance uses that instance.  On a hit the
    cached :class:`CompiledSDFG` object itself is returned (no
    recompilation); the returned report is the cached pipeline report flagged
    with ``cache_hit=True``.
    """
    ctx = ctx if ctx is not None else PassContext()
    use_cache: Optional[CompilationCache]
    if cache is None or cache is True:
        use_cache = DEFAULT_CACHE
    elif cache is False:
        use_cache = None
    else:
        use_cache = cache

    key = None
    if use_cache is not None:
        key = (sdfg.content_hash(), manager.fingerprint(), ctx.fingerprint())
        if contains_miss_token(key):
            # A miss token makes the key un-reusable: compiling without
            # touching the cache beats evicting good entries for dead ones.
            use_cache = None
    if use_cache is not None:
        entry = use_cache.lookup(key)
        if entry is not None:
            report = PipelineReport(
                pipeline=entry.report.pipeline,
                records=entry.report.records,
                cache_hit=True,
            )
            # Keep the attribute in sync with the outcome of the *latest*
            # compile call (cold timings, flagged as a hit).
            entry.compiled.pipeline_report = report
            return CompileOutcome(
                compiled=entry.compiled,
                report=report,
                artifacts=dict(entry.artifacts),
                cache_hit=True,
                key=key,
            )

    _, report = manager.run(sdfg, ctx)
    compiled = ctx.artifacts.get("compiled")
    if compiled is None:
        raise PipelineError(
            f"Pipeline {manager.name!r} has no codegen stage; nothing was compiled"
        )
    compiled.pipeline_report = report
    outcome = CompileOutcome(
        compiled=compiled,
        report=report,
        artifacts=dict(ctx.artifacts),
        cache_hit=False,
        key=key,
    )
    if use_cache is not None:
        # Copy so caller mutations of outcome.artifacts cannot corrupt the entry.
        use_cache.store(
            CacheEntry(
                key=key, compiled=compiled, report=report,
                artifacts=dict(outcome.artifacts),
            )
        )
    return outcome


def compile_request(
    program,
    options: CompileOptions,
    cache: Union[CompilationCache, bool, None] = None,
) -> CompileOutcome:
    """Compile ``program`` as ``options`` asks, through the pipeline (cached).

    A gradient request's ``outcome.artifacts["backward"]`` holds the
    :class:`BackwardPassResult` (gradient container names, activity
    analysis, storage plan).  On a cache hit the stored checkpointing
    diagnostic is replayed onto the caller's strategy, so
    ``strategy.last_report`` behaves as on a cold compile.  With
    ``options.profile`` the returned ``outcome.compiled`` is wrapped in a
    :class:`~repro.obs.ProfiledCompiledSDFG`: every execution feeds
    per-kernel runtime histograms in the obs metrics registry (see
    docs/observability.md).  The wrapper is applied *after* caching, so the
    cache key and the cached object are unchanged.
    """
    sdfg = to_sdfg(program)
    ctx = PassContext(symbol_values=dict(options.symbol_values))
    outcome = run_pipeline(sdfg, build_pipeline(options), ctx, cache=cache)
    strategy = options.checkpointing
    if outcome.cache_hit and hasattr(strategy, "last_report"):
        report = outcome.artifacts.get("checkpoint_report")
        if report is not None:
            strategy.last_report = report
    if options.profile:
        from repro.obs.profile import profile_compiled

        outcome.compiled = profile_compiled(outcome.compiled)
    return outcome


def compile_forward(
    program,
    optimize: str = "O1",
    *,
    symbol_values: Optional[Mapping[str, object]] = None,
    cache: Union[CompilationCache, bool, None] = None,
    extra_passes: Sequence = (),
    backend: Optional[str] = None,
    memory_planning: Optional[bool] = None,
    profile: bool = False,
) -> CompileOutcome:
    """Compile the forward program (keyword sugar over :func:`compile_request`)."""
    options = CompileOptions(
        optimize, gradient=False, backend=backend,
        memory_planning=memory_planning, symbol_values=symbol_values,
        extra_passes=extra_passes, profile=profile,
    )
    return compile_request(program, options, cache)


def compile_gradient(
    program,
    wrt: Optional[Union[str, Sequence[str]]] = None,
    output: Optional[str] = None,
    checkpointing=None,
    return_value: bool = False,
    optimize: str = "O1",
    *,
    symbol_values: Optional[Mapping[str, object]] = None,
    cache: Union[CompilationCache, bool, None] = None,
    extra_passes: Sequence = (),
    backend: Optional[str] = None,
    memory_planning: Optional[bool] = None,
    profile: bool = False,
) -> CompileOutcome:
    """Compile the forward+backward program (keyword sugar over
    :func:`compile_request`)."""
    options = CompileOptions(
        optimize, gradient=True, backend=backend,
        memory_planning=memory_planning, checkpointing=checkpointing,
        wrt=wrt, output=output, return_value=return_value,
        symbol_values=symbol_values, extra_passes=extra_passes,
        profile=profile,
    )
    return compile_request(program, options, cache)


def compile(  # noqa: A001 - deliberate: mirrors ``repro.compile``
    program,
    optimize: str = "O1",
    *,
    checkpointing=None,
    gradient: Optional[bool] = None,
    wrt: Optional[Union[str, Sequence[str]]] = None,
    output: Optional[str] = None,
    symbol_values: Optional[Mapping[str, object]] = None,
    cache: Union[CompilationCache, bool, None] = None,
    extra_passes: Sequence = (),
    backend: Optional[str] = None,
    memory_planning: Optional[bool] = None,
    profile: bool = False,
):
    """Top-level compilation entry point (re-exported as ``repro.compile``).

    Without gradient options this returns a :class:`CompiledSDFG` computing
    the forward program.  With ``gradient=True`` — or any of the gradient
    options ``wrt``, ``output`` or ``checkpointing`` — it returns a
    :class:`~repro.autodiff.GradientFunction`.  Both paths share the
    compilation cache: a second call on an unchanged program with the same
    configuration returns the previously compiled object.

    ``backend`` selects the code generator (``"numpy"`` default,
    ``"cython"`` for the native C backend with automatic per-program
    fallback — see docs/backends.md).  ``profile=True`` turns on per-call
    runtime profiling of the compiled callable: execution times land in
    per-kernel histograms of the obs metrics registry, including the
    native-segment vs NumPy-driver split under the cython backend (see
    docs/observability.md).
    """
    options = CompileOptions(
        optimize, gradient=gradient, backend=backend,
        memory_planning=memory_planning, checkpointing=checkpointing,
        wrt=wrt, output=output, symbol_values=symbol_values,
        extra_passes=extra_passes, profile=profile,
    )
    if options.gradient:
        from repro.autodiff.api import GradientFunction

        return GradientFunction.from_options(program, options, cache)
    return compile_request(program, options, cache).compiled
