"""User-facing AD API: ``grad`` and ``value_and_grad``.

Mirrors the ergonomics of JAX's ``jax.grad`` while requiring **no code
changes** to the NumPy program being differentiated (the paper's headline
usability property): the function is parsed, differentiated at the IR level
and compiled to NumPy code that computes the gradients.

Both entry points are keyword sugar for one
:class:`~repro.pipeline.CompileOptions` request run by
:func:`repro.pipeline.compile_request`: simplification (at ``optimize="O1"``,
the default), checkpointing selection, reversal and codegen run as pipeline
stages, the per-stage timings land on ``GradientFunction.report`` and repeated
calls on an unchanged program hit the compilation cache.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.autodiff.engine import BackwardPassResult
from repro.ir import SDFG
from repro.util.errors import PipelineError


class GradientFunction:
    """A compiled gradient function.

    Calling it runs the augmented forward+backward program and returns the
    gradients with respect to ``wrt`` (a single array if one input was
    requested, otherwise a dict keyed by input name).  With
    ``return_value=True`` the forward output value is returned as well.

    The compilation itself runs through the pass pipeline; ``.report`` holds
    the per-stage timings (``print(df.report.pretty())``) and ``.cache_hit``
    says whether this instance reused a previously compiled program.
    """

    def __init__(
        self,
        func_or_program,
        wrt: Optional[Union[str, Sequence[str]]] = None,
        strategy=None,
        return_value: bool = False,
        output: Optional[str] = None,
        optimize: str = "O1",
        symbol_values=None,
        cache=None,
        extra_passes: Sequence = (),
        backend: Optional[str] = None,
        memory_planning: Optional[bool] = None,
        profile: bool = False,
    ) -> None:
        from repro.pipeline.driver import CompileOptions

        self._compile(func_or_program, CompileOptions(
            optimize, gradient=True, backend=backend,
            memory_planning=memory_planning, checkpointing=strategy, wrt=wrt,
            output=output, return_value=return_value,
            symbol_values=symbol_values, extra_passes=extra_passes,
            profile=profile,
        ), cache)

    @classmethod
    def from_options(cls, func_or_program, options, cache=None) -> "GradientFunction":
        """Compile the gradient a :class:`~repro.pipeline.CompileOptions`
        request describes (the form every other entry point forwards)."""
        self = cls.__new__(cls)
        self._compile(func_or_program, options, cache)
        return self

    def _compile(self, func_or_program, options, cache) -> None:
        from repro.pipeline.driver import compile_request, to_sdfg

        if not options.gradient:
            raise PipelineError("GradientFunction needs a gradient request")
        self.forward_sdfg = to_sdfg(func_or_program)
        #: The full compilation request (and where it was looked up), so
        #: transforms that recompile this gradient under a modified pipeline
        #: — ``repro.vmap(grad(f))`` inserts its batching pass pre-AD —
        #: reproduce it exactly.
        self.options = options
        self.cache = cache
        outcome = compile_request(self.forward_sdfg, options, cache)
        self.result: BackwardPassResult = outcome.artifacts["backward"]
        self.wrt = list(self.result.gradient_names)
        self.return_value = options.return_value
        self.compiled = outcome.compiled
        self.report = outcome.report
        self.cache_hit = outcome.cache_hit

    # -- introspection ---------------------------------------------------------
    @property
    def backward_sdfg(self) -> SDFG:
        return self.result.sdfg

    @property
    def source(self) -> str:
        """Generated Python source of the forward+backward program."""
        return self.compiled.source

    # -- execution ----------------------------------------------------------------
    def __call__(self, *args, **kwargs):
        raw = self.compiled(*args, **kwargs)
        if len(self.compiled.result_names) == 1:
            raw = {self.compiled.result_names[0]: raw}
        grads = {name: raw[self.result.gradient_names[name]] for name in self.wrt}
        if len(self.wrt) == 1 and not self.return_value:
            return grads[self.wrt[0]]
        if not self.return_value:
            return grads
        value = raw[self.result.output]
        if len(self.wrt) == 1:
            return value, grads[self.wrt[0]]
        return value, grads

    def __repr__(self) -> str:
        return f"GradientFunction({self.result.sdfg.name!r}, wrt={self.wrt})"


def grad(func_or_program, wrt=None, strategy=None, output=None,
         optimize: str = "O1", backend: Optional[str] = None,
         memory_planning: Optional[bool] = None,
         profile: bool = False) -> GradientFunction:
    """Reverse-mode gradient of a scalar-output program.

    Examples
    --------
    >>> N = repro.symbol('N')
    >>> @repro.program
    ... def f(A: repro.float64[N]):
    ...     return np.sum(np.sin(A))
    >>> df = repro.grad(f, wrt='A')
    >>> df(np.ones(4))            # doctest: +SKIP
    array([0.54, 0.54, 0.54, 0.54])
    """
    return GradientFunction(
        func_or_program, wrt=wrt, strategy=strategy, output=output, optimize=optimize,
        backend=backend, memory_planning=memory_planning, profile=profile,
    )


def value_and_grad(func_or_program, wrt=None, strategy=None, output=None,
                   optimize: str = "O1", backend: Optional[str] = None,
                   memory_planning: Optional[bool] = None,
                   profile: bool = False) -> GradientFunction:
    """Like :func:`grad` but also returns the forward value."""
    return GradientFunction(
        func_or_program, wrt=wrt, strategy=strategy, return_value=True, output=output,
        optimize=optimize, backend=backend, memory_planning=memory_planning,
        profile=profile,
    )
