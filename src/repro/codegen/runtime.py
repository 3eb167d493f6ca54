"""Runtime support for generated code: argument binding and the namespace in
which generated functions execute."""

from __future__ import annotations

from typing import Mapping

import numpy as np
from scipy.special import erf as _scipy_erf

from repro.ir import SDFG
from repro.symbolic import Expr, Sym, evaluate
from repro.util.errors import CodegenError


def _relu(x):
    return np.maximum(x, 0)


def build_runtime_namespace() -> dict:
    """Globals available to generated code."""
    from repro.ml import ops as ml_ops

    return {
        "np": np,
        "__relu": _relu,
        "__erf": _scipy_erf,
        "__softmax": ml_ops.softmax,
        "__softmax_backward": ml_ops.softmax_backward,
        "__conv2d": ml_ops.conv2d,
        "__conv2d_backward_input": ml_ops.conv2d_backward_input,
        "__conv2d_backward_weights": ml_ops.conv2d_backward_weights,
        "__conv2d_backward_bias": ml_ops.conv2d_backward_bias,
        "__maxpool2d": ml_ops.maxpool2d,
        "__maxpool2d_backward": ml_ops.maxpool2d_backward,
    }


class BindingPlan:
    """Everything :func:`bind_arguments` needs to know about an SDFG,
    computed once per compiled artifact so that a call only does dict and
    tuple work over its own arguments (the idea of DaCe's
    ``CompiledSDFG.fast_call``).

    ``arrays`` maps every container a caller may name to its ndim and the
    ``(axis, symbol)`` pairs its plain-symbol dimensions infer; ``inputs``
    lists the non-transient containers in declaration order with their
    dtype, ndim, shape dims (ints, symbol names or expressions) and the
    symbols the shape check needs; ``needed`` is every symbol a call must
    end up with a value for.
    """

    __slots__ = ("name", "arg_names", "symbols", "arrays", "inputs", "needed")

    def __init__(self, sdfg: SDFG) -> None:
        self.name = sdfg.name
        self.arg_names = tuple(sdfg.arg_names)
        self.symbols = frozenset(sdfg.symbols)
        self.arrays = {
            name: (desc.ndim, tuple(
                (axis, dim.name) for axis, dim in enumerate(desc.shape)
                if isinstance(dim, Sym)
            ))
            for name, desc in sdfg.arrays.items()
        }
        self.inputs = tuple(
            (name, desc.dtype, desc.ndim, tuple(_plan_dim(dim) for dim in desc.shape),
             frozenset(desc.free_symbols()))
            for name, desc in sdfg.arrays.items() if not desc.transient
        )
        needed = set(sdfg.symbols) | sdfg.free_symbols()  # incl. every shape
        needed -= {loop.itervar for loop in sdfg.all_loops()}
        needed -= set(sdfg.arrays)
        self.needed = frozenset(needed)


def _plan_dim(dim):
    """A shape entry as the call-time check reads it: an ``int``, the name
    of a plain symbol, or an expression to evaluate."""
    if isinstance(dim, Sym):
        return dim.name
    if isinstance(dim, Expr):
        return int(evaluate(dim, {})) if not dim.free_symbols() else dim
    return int(dim)


def binding_plan(sdfg: SDFG) -> BindingPlan:
    """The memoized binding plan of ``sdfg``, built on first use."""
    plan = sdfg._binding_plan
    if plan is None:
        plan = sdfg._binding_plan = BindingPlan(sdfg)
    return plan


def bind_arguments(sdfg: SDFG, args: tuple, kwargs: Mapping[str, object]) -> dict:
    """Bind call arguments to SDFG containers and symbols.

    Positional arguments follow ``sdfg.arg_names``; keyword arguments may name
    any container or symbol.  Symbols that are not passed explicitly are
    inferred by matching symbolic array shapes against the actual arguments
    (the same convenience the DaCe frontend provides).  The SDFG's structure
    is read through its :class:`BindingPlan` (built when the SDFG was
    compiled, or here on first use), never walked per call.
    """
    plan = binding_plan(sdfg)
    if len(args) > len(plan.arg_names):
        raise CodegenError(
            f"{plan.name} takes {len(plan.arg_names)} arguments, got {len(args)}"
        )
    bindings = dict(zip(plan.arg_names, args))
    for name, value in kwargs.items():
        if name in bindings:
            raise CodegenError(f"Argument {name!r} passed both positionally and by keyword")
        bindings[name] = value

    # Explicitly-passed symbols first, then symbols inferred from shapes.
    symbols = plan.symbols
    symbol_values = {
        name: int(value) for name, value in bindings.items() if name in symbols
    }
    arrays = plan.arrays
    for name, value in bindings.items():
        entry = arrays.get(name)
        if entry is None:
            continue
        ndim, infer = entry
        actual = np.asarray(value)
        if actual.ndim != ndim:
            raise CodegenError(
                f"Argument {name!r} has {actual.ndim} dimensions, expected {ndim}"
            )
        for axis, symbol in infer:
            if symbol not in symbol_values:
                symbol_values[symbol] = int(actual.shape[axis])

    # Coerce containers; check shapes wherever they are fully determined.
    resolved: dict[str, object] = {}
    for name, dtype, ndim, dims, dim_symbols in plan.inputs:
        if name not in bindings:
            raise CodegenError(f"Missing argument {name!r} for {plan.name}")
        value = bindings[name]
        if not (isinstance(value, np.ndarray) and value.dtype == dtype
                and value.ndim == ndim):
            value = np.asarray(value, dtype=dtype)
        resolved[name] = value
        if symbol_values.keys() >= dim_symbols:
            expected = tuple(
                dim if type(dim) is int
                else symbol_values[dim] if type(dim) is str
                else int(evaluate(dim, symbol_values))
                for dim in dims
            )
            if expected != value.shape:
                raise CodegenError(
                    f"Argument {name!r} has shape {value.shape}, expected {expected}"
                )

    # Every needed symbol must now have a value.
    missing = plan.needed - symbol_values.keys()
    if missing:
        raise CodegenError(
            f"Could not determine values for symbols {sorted(missing)}; "
            "pass them as keyword arguments"
        )
    resolved.update(symbol_values)
    return resolved
