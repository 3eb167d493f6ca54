"""Unified pass-manager & compilation pipeline.

The compilation flow (frontend lowering -> simplification -> reverse-mode AD
-> checkpointing -> NumPy codegen) is organised as an ordered pipeline of
:class:`Pass` stages run by a :class:`PassManager`, which records per-pass
wall time and IR-size deltas into a :class:`PipelineReport`.  A
:class:`CompilationCache` keyed on the SDFG content hash plus the pipeline
configuration makes repeated compilation of an unchanged program a dictionary
lookup.

Typical use::

    fwd = repro.compile(prog)                     # forward, O1, cached
    df = repro.compile(prog, wrt="A")             # gradient function
    print(df.report.pretty())                     # where compile time went

Custom passes plug in via ``register_pass`` + ``extra_passes=``::

    class MyPass(Pass):
        name = "my-pass"
        def apply(self, sdfg, ctx):
            ...
            return sdfg

    repro.compile(prog, extra_passes=[MyPass()])
"""

from repro.pipeline.cache import (
    CacheEntry,
    CacheStats,
    CompilationCache,
    DEFAULT_CACHE,
)
from repro.pipeline.driver import (
    CompileOptions,
    CompileOutcome,
    build_pipeline,
    compile,
    compile_forward,
    compile_gradient,
    compile_request,
    run_pipeline,
    to_sdfg,
)
from repro.pipeline.manager import PassManager, PassRecord, PipelineReport, ir_size
from repro.pipeline.pass_base import (
    FunctionPass,
    Pass,
    PassContext,
    PipelineError,
    available_passes,
    make_pass,
    register_pass,
)
from repro.pipeline.stages import (
    Autodiff,
    Codegen,
    CheckpointingSelection,
    ConstantBranchPruning,
    DeadCodeElimination,
    GlobalValueNumbering,
    MapFusion,
    MemoryPlanning,
    Validate,
)

__all__ = [
    "Pass",
    "FunctionPass",
    "PassContext",
    "PipelineError",
    "register_pass",
    "make_pass",
    "available_passes",
    "PassManager",
    "PassRecord",
    "PipelineReport",
    "ir_size",
    "CompilationCache",
    "CacheEntry",
    "CacheStats",
    "DEFAULT_CACHE",
    "CompileOptions",
    "CompileOutcome",
    "build_pipeline",
    "run_pipeline",
    "compile",
    "compile_forward",
    "compile_gradient",
    "compile_request",
    "to_sdfg",
    "ConstantBranchPruning",
    "DeadCodeElimination",
    "GlobalValueNumbering",
    "MapFusion",
    "MemoryPlanning",
    "Validate",
    "CheckpointingSelection",
    "Autodiff",
    "Codegen",
]
