"""The ``Pass`` protocol, the per-run :class:`PassContext` and the registry.

A pass is a named SDFG-to-SDFG transformation.  Passes communicate through the
:class:`PassContext`: analysis passes stash artifacts (the AD result, the
compiled object) under ``ctx.artifacts`` and record human-readable diagnostics
with :meth:`PassContext.note`, which the :class:`~repro.pipeline.manager.PassManager`
collects into the per-pass records of the :class:`PipelineReport`.

Custom passes register themselves with :func:`register_pass` so pipelines can
be assembled by name (``repro.compile(prog, extra_passes=["my-pass"])``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.ir import SDFG
from repro.util.errors import PipelineError


@dataclass
class PassContext:
    """Shared mutable state threaded through one pipeline run.

    Attributes
    ----------
    symbol_values:
        Compile-time bindings of configuration symbols, consumed by
        constant-branch pruning.
    strategy:
        The resolved checkpointing strategy handed to the AD stage.
    artifacts:
        Cross-pass products: ``"backward"`` (the :class:`BackwardPassResult`)
        and ``"compiled"`` (the :class:`CompiledSDFG`).
    info:
        Scratch notes of the *currently running* pass; the manager snapshots
        this into the pass's record and clears it between passes.
    """

    symbol_values: dict[str, object] = field(default_factory=dict)
    strategy: object = None
    artifacts: dict[str, Any] = field(default_factory=dict)
    info: dict[str, Any] = field(default_factory=dict)

    def note(self, key: str, value: Any) -> None:
        """Record a diagnostic that ends up in this pass's report record."""
        self.info[key] = value

    def fingerprint(self) -> tuple:
        """Cache-relevant part of the context: the symbol bindings.  (What
        the request differentiates and returns is already in the stage
        fingerprints.)

        Values without a stable representation are keyed by a process-unique
        token, which forces a cache miss rather than risking a false hit.
        """
        from repro.pipeline.cache import stable_repr, unique_token

        def rendered(value) -> str:
            stable = stable_repr(value)
            return stable if stable is not None else unique_token()

        return tuple(sorted((k, rendered(v)) for k, v in self.symbol_values.items()))


class Pass:
    """Base class for pipeline stages.

    Subclasses set ``name`` and implement ``apply(sdfg, ctx)``, returning the
    (possibly new) SDFG.  Returning ``None`` means "transformed in place".
    ``fingerprint()`` must cover every constructor argument that changes the
    pass's output — it is part of the compilation-cache key.
    """

    name: str = "pass"

    def apply(self, sdfg: SDFG, ctx: PassContext) -> Optional[SDFG]:
        """Transform ``sdfg`` (in place or by returning a new one).

        The manager hands every pass a private copy of the caller's SDFG
        (copy-in), so passes may mutate freely; whatever the last pass leaves
        behind is the pipeline's result (copy-out).  Returning ``None`` means
        "transformed in place"; returning an SDFG replaces the current one.
        """
        raise NotImplementedError

    def fingerprint(self) -> tuple:
        """Stable identity of this pass configuration for the compilation
        cache.  Must cover every constructor argument that changes the pass's
        output; two passes with equal fingerprints must produce identical
        results on identical inputs, or the cache will serve stale objects."""
        return (self.name,)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class FunctionPass(Pass):
    """Adapter turning a plain ``fn(sdfg, ctx) -> SDFG | None`` into a pass.

    The fingerprint hashes the wrapped function's bytecode, constants,
    closure, primitive-valued globals it reads, and (for bound methods) the
    receiver's state — anything without a stable representation gets a
    process-unique token, forcing a cache miss instead of a wrong hit.
    Mutating a *module-valued* global a pass calls through is outside this
    net; implement :class:`Pass` with an explicit ``fingerprint()`` for
    passes whose behaviour depends on such state.
    """

    def __init__(self, name: str, fn: Callable[[SDFG, PassContext], Optional[SDFG]]) -> None:
        self.name = name
        self.fn = fn

    def apply(self, sdfg: SDFG, ctx: PassContext) -> Optional[SDFG]:
        return self.fn(sdfg, ctx)

    def fingerprint(self) -> tuple:
        import hashlib

        from repro.pipeline.cache import stable_repr, unique_token

        func = getattr(self.fn, "__func__", self.fn)
        code = getattr(func, "__code__", None)
        if code is None:
            # Arbitrary callable object: no introspectable code, never share.
            return (self.name, unique_token())
        digest = hashlib.sha256(
            code.co_code + repr(code.co_consts).encode("utf-8")
        ).hexdigest()
        closure = tuple(
            stable_repr(cell.cell_contents) or unique_token()
            for cell in (func.__closure__ or ())
        )
        # Globals the bytecode reads: primitives by value, code-like objects
        # (modules/functions/classes) by qualified name, anything else by a
        # miss token — a mutated ndarray global must not produce a stale hit.
        import types

        def global_fingerprint(value) -> str:
            stable = stable_repr(value)
            if stable is not None:
                return stable
            if isinstance(
                value,
                (types.ModuleType, types.FunctionType, types.BuiltinFunctionType, type),
            ):
                qualname = getattr(value, "__qualname__", getattr(value, "__name__", ""))
                return f"ref:{getattr(value, '__module__', '')}.{qualname}"
            return unique_token()

        func_globals = getattr(func, "__globals__", {})
        read_globals = tuple(
            (name, global_fingerprint(func_globals[name]))
            for name in sorted(code.co_names)
            if name in func_globals
        )
        bound = getattr(self.fn, "__self__", None)
        if bound is None:
            bound_state = None
        else:
            try:
                bound_state = stable_repr(vars(bound)) or unique_token()
            except TypeError:
                bound_state = unique_token()
        return (
            self.name,
            getattr(func, "__module__", ""),
            getattr(func, "__qualname__", ""),
            digest,
            closure,
            read_globals,
            bound_state,
        )


#: Global name -> pass-factory registry (factories are zero-argument callables).
PASS_REGISTRY: dict[str, Callable[[], Pass]] = {}


def register_pass(name: str, factory: Callable[[], Pass]) -> None:
    """Register a pass factory under ``name`` for use in pipeline configs."""
    if name in PASS_REGISTRY:
        raise PipelineError(f"Pass {name!r} is already registered")
    PASS_REGISTRY[name] = factory


def make_pass(spec) -> Pass:
    """Resolve a pipeline entry: a :class:`Pass` instance, a registered name,
    or a callable ``fn(sdfg, ctx)`` (wrapped as a :class:`FunctionPass`)."""
    if isinstance(spec, Pass):
        return spec
    if isinstance(spec, str):
        if spec not in PASS_REGISTRY:
            raise PipelineError(
                f"Unknown pass {spec!r}; registered: {sorted(PASS_REGISTRY)}"
            )
        return PASS_REGISTRY[spec]()
    if callable(spec):
        return FunctionPass(getattr(spec, "__name__", "anonymous"), spec)
    raise PipelineError(f"Cannot build a pass from {spec!r}")


def available_passes() -> list[str]:
    """Sorted names of every registered pass (builtin + user-registered)."""
    return sorted(PASS_REGISTRY)
