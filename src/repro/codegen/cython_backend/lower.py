"""Lowering: SDFG control-flow segments -> self-contained C kernel functions.

The native backend's unit of work is a *segment*: a run of consecutive
control-flow elements (states, loop regions, conditionals) that lower fully
to C.  A :class:`KernelBuilder` turns one segment into one exported C
function over flat array pointers plus ``int64_t`` scalars — sequential loop
nests and scalar tasklets (the fig11 non-vectorizable shapes, where the
interpreted backend pays a Python-bytecode round trip per element) become
plain C loops, and so do the library calls with a C lowering:

* ``matmul`` of rank (2, 2) as one call of the prelude's strided GEMM
  helper (:data:`~repro.codegen.cython_backend.cemit.C_PRELUDE`): each
  operand's two axes get C strides (slice step times the trailing
  container dimensions; ``transpose_a``/``transpose_b`` swap them), so
  windows, slices of 3-D containers and transposed operands reach BLAS
  ``dgemm``/``sgemm`` with a base offset and a leading dimension, and the
  helper loops itself when no stride is 1.  Both ``float32`` or both
  ``float64`` only — other element types decline;
* ``matmul`` of ranks (1, 1), (2, 1) and (1, 2) — dot, matrix-vector and
  vector-matrix products — as plain C loops (they sit inside the loop
  nests of trisolv/cholesky/lu, where a call per step costs more);
* full reductions (``reduce_sum``/``reduce_max``/``reduce_min`` without
  ``axis`` or ``keepdims``);
* ``copy``, ``relu`` and ``transpose``.

Anything else raises :class:`~repro.codegen.cython_backend.cemit.CLoweringError`
with a reason, and the emitter leaves that element to the inherited NumPy
path: batched (rank-3+) matmuls, axis reductions, convolutions, softmax,
pooling and every other library kind stay NumPy library calls.

Safety rules (decline rather than risk divergence from NumPy semantics):

* element types must map to C (``float64/float32/int32/int64``; booleans and
  others decline);
* a map that reads its own output container at a *different* index declines
  (the vectorised NumPy form evaluates the whole right-hand side before
  storing; a C loop would interleave);
* a library call whose input aliases its output declines for the same
  reason;
* all index arithmetic must be integer-exact (``+ - * // %`` over loop
  variables, symbols and constants).

Values are computed in ``double`` and cast to the output element type on
store, matching the interpreted backend's Python-float scalar loops (see
:mod:`repro.codegen.cython_backend.cemit`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.codegen.cython_backend.cemit import CExprEmitter, CLoweringError
from repro.ir import (
    ConditionalRegion,
    LibraryCall,
    LoopRegion,
    MapCompute,
    Memlet,
    SDFG,
    State,
)
from repro.ir.subsets import Index, Range, Subset
from repro.symbolic import Const, Expr
from repro.symbolic.simplify import simplify

#: NumPy dtype name -> C element type.
C_TYPES = {
    "float64": "double",
    "float32": "float",
    "int64": "int64_t",
    "int32": "int32_t",
}

#: Identifiers that cannot be used verbatim as C parameter names.
_C_KEYWORDS = frozenset(
    """auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    _Bool _Complex _Imaginary""".split()
)


@dataclass(frozen=True)
class CKernel:
    """One lowered segment: C function text plus its calling convention.

    ``array_args`` / ``int_args`` are the *SDFG-level* names (containers and
    symbols/loop iterators) the generated driver passes positionally; the C
    parameter names may differ (keyword sanitisation).  The dataclass is
    picklable, so compiled objects can rebuild their ctypes wrappers after a
    cache round-trip.
    """

    name: str
    source: str
    array_args: tuple[str, ...]
    int_args: tuple[str, ...]


class KernelBuilder:
    """Builds the C source of one kernel function from segment elements.

    Raises :class:`CLoweringError` as soon as anything unsupported appears;
    the caller probes elements with a throwaway builder before committing
    them to a segment.
    """

    def __init__(self, sdfg: SDFG, name: str) -> None:
        self.sdfg = sdfg
        self.name = name
        self.body: list[str] = []
        self.depth = 1
        #: container name -> (C parameter name, C element type), in use order.
        self.array_args: "OrderedDict[str, tuple[str, str]]" = OrderedDict()
        #: scalar argument name -> C parameter name, in use order.
        self.int_args: "OrderedDict[str, str]" = OrderedDict()
        self._locals: dict[str, str] = {}  # loop var (SDFG name) -> C name
        self._used_names: set[str] = set()
        self._counter = 0
        self.expr = CExprEmitter(self._resolve_value, self._resolve_int)

    # -- naming -----------------------------------------------------------
    def _fresh(self, base: str) -> str:
        while True:
            name = f"__{base}{self._counter}"
            self._counter += 1
            if name not in self._used_names:
                self._used_names.add(name)
                return name

    def _sanitize(self, name: str) -> str:
        cname = name
        if cname in _C_KEYWORDS:
            cname = f"{cname}__p"
        while cname in self._used_names:
            cname += "_"
        self._used_names.add(cname)
        return cname

    # -- argument collection ----------------------------------------------
    def use_array(self, data: str) -> str:
        """Register ``data`` as a pointer argument; returns its C name."""
        if data in self.array_args:
            return self.array_args[data][0]
        desc = self.sdfg.arrays.get(data)
        if desc is None:
            raise CLoweringError(f"unknown container {data!r}")
        ctype = C_TYPES.get(np.dtype(desc.dtype).name)
        if ctype is None:
            raise CLoweringError(
                f"container {data!r} has unsupported element type {desc.dtype}"
            )
        cname = self._sanitize(data)
        self.array_args[data] = (cname, ctype)
        return cname

    def use_int(self, name: str) -> str:
        """Register ``name`` (a symbol or enclosing Python-level loop
        iterator) as an ``int64_t`` argument; returns its C name."""
        if name in self.int_args:
            return self.int_args[name]
        cname = self._sanitize(name)
        self.int_args[name] = cname
        return cname

    # -- symbol resolution (CExprEmitter callbacks) ------------------------
    def _resolve_int(self, name: str) -> str:
        if name in self._locals:
            return self._locals[name]
        if name in self.sdfg.arrays:
            desc = self.sdfg.arrays[name]
            if desc.ndim == 0 and np.dtype(desc.dtype).kind == "i":
                return f"((int64_t){self.use_array(name)}[0])"
            raise CLoweringError(f"container {name!r} used in index context")
        return self.use_int(name)

    def _resolve_value(self, name: str) -> str:
        if name in self._locals:
            return f"((double){self._locals[name]})"
        if name in self.sdfg.arrays:
            desc = self.sdfg.arrays[name]
            if desc.ndim == 0:
                return f"((double){self.use_array(name)}[0])"
            raise CLoweringError(
                f"whole-array read of {name!r} in scalar context"
            )
        return f"((double){self.use_int(name)})"

    # -- code emission helpers --------------------------------------------
    def line(self, text: str) -> None:
        self.body.append("    " * self.depth + text)

    def element_ref(self, data: str, indices: list[str]) -> str:
        """C l-value for one element of ``data`` given per-dimension index
        expressions (row-major flattening over the symbolic shape)."""
        cname = self.use_array(data)
        desc = self.sdfg.arrays[data]
        if desc.ndim != len(indices):
            raise CLoweringError(
                f"{data!r}: {len(indices)} indices for {desc.ndim} dimensions"
            )
        if not indices:
            return f"{cname}[0]"
        offset = indices[0]
        for size, index in zip(desc.shape_exprs()[1:], indices[1:]):
            offset = f"({offset} * {self.expr.index(simplify(size))} + {index})"
        return f"{cname}[{offset}]"

    def _point_indices(self, memlet: Memlet) -> list[str]:
        """Per-dimension C index expressions of a single-element memlet."""
        desc = self.sdfg.arrays[memlet.data]
        if memlet.subset is None or len(memlet.subset) == 0:
            if desc.ndim != 0:
                raise CLoweringError(
                    f"whole-array memlet on {memlet.data!r} in element context"
                )
            return []
        indices = []
        for dim in memlet.subset:
            if not isinstance(dim, Index):
                raise CLoweringError(
                    f"range subset on {memlet.data!r} in element context"
                )
            indices.append(self.expr.index(simplify(dim.value)))
        return indices

    def _open_for(self, cvar: str, rng: Range) -> None:
        start = self.expr.index(simplify(rng.start))
        stop = self.expr.index(simplify(rng.stop))
        step = simplify(rng.step)
        if isinstance(step, Const) and not isinstance(step.value, bool):
            if step.value == 0:
                raise CLoweringError("loop step 0")
            comparison = "<" if step.value > 0 else ">"
            self.line(
                f"for (int64_t {cvar} = {start}; {cvar} {comparison} {stop}; "
                f"{cvar} += ({step.value})) {{"
            )
        else:
            # A symbolic step is assumed positive (the frontend only produces
            # symbolic steps from forward slices; Range.length_expr makes the
            # same assumption).
            step_c = self.expr.index(step)
            self.line(
                f"for (int64_t {cvar} = {start}; {cvar} < {stop}; "
                f"{cvar} += {step_c}) {{"
            )
        self.depth += 1

    def _close(self, count: int = 1) -> None:
        for _ in range(count):
            self.depth -= 1
            self.line("}")

    def _bind_local(self, name: str) -> tuple[str, Optional[str]]:
        cvar = self._fresh("i")
        previous = self._locals.get(name)
        self._locals[name] = cvar
        return cvar, previous

    def _unbind_local(self, name: str, previous: Optional[str]) -> None:
        if previous is None:
            self._locals.pop(name, None)
        else:
            self._locals[name] = previous

    # -- control flow ------------------------------------------------------
    def lower_element(self, element) -> None:
        if isinstance(element, State):
            self.lower_state(element)
        elif isinstance(element, LoopRegion):
            self.lower_loop(element)
        elif isinstance(element, ConditionalRegion):
            self.lower_conditional(element)
        else:
            raise CLoweringError(f"unknown control-flow element {element!r}")

    def lower_state(self, state: State) -> None:
        for node in state:
            self.lower_node(node)

    def lower_loop(self, loop: LoopRegion) -> None:
        cvar, previous = self._bind_local(loop.itervar)
        self._open_for(cvar, Range(loop.start, loop.stop, loop.step))
        for element in loop.body.elements:
            self.lower_element(element)
        self._close()
        self._unbind_local(loop.itervar, previous)

    def lower_conditional(self, conditional: ConditionalRegion) -> None:
        for position, (condition, region) in enumerate(conditional.branches):
            if condition is None:
                self.line("} else {" if position else "{")
            else:
                keyword = "if" if position == 0 else "} else if"
                self.line(f"{keyword} ({self.expr.cond(simplify(condition))}) {{")
            self.depth += 1
            for element in region.elements:
                self.lower_element(element)
            self.depth -= 1
        self.line("}")

    # -- compute nodes -----------------------------------------------------
    def lower_node(self, node) -> None:
        if isinstance(node, MapCompute):
            self.lower_map(node)
        elif isinstance(node, LibraryCall):
            self.lower_library(node)
        else:
            raise CLoweringError(f"cannot lower node {node!r}")

    def _check_output_aliasing(self, node, allow_equal_subset: bool) -> None:
        """Reads of the output container interleave with elementwise C
        stores; NumPy's vectorised form evaluates the full right-hand side
        first.  Same-index reads are safe (the store happens after the
        element's loads); anything else declines."""
        out = node.output
        for memlet in node.inputs.values():
            if memlet.data != out.data:
                continue
            if allow_equal_subset and memlet.subset == out.subset:
                continue
            raise CLoweringError(
                f"{out.data!r} is read and written at different indices"
            )

    def lower_map(self, node: MapCompute) -> None:
        if node.params:
            # A scalar tasklet (empty domain) makes exactly one store after
            # evaluating its whole right-hand side — identical in C and
            # Python — so it may read its output anywhere (Gauss-Seidel).
            # A parallel map interleaves stores with loads across elements,
            # so shifted self-reads must decline.
            self._check_output_aliasing(node, allow_equal_subset=True)
        opened = []
        for param, rng in zip(node.params, node.ranges):
            cvar, previous = self._bind_local(param)
            opened.append((param, previous))
            self._open_for(cvar, rng)
        try:
            rename = {}
            for conn, memlet in node.inputs.items():
                ref = self.element_ref(memlet.data, self._point_indices(memlet))
                rename[conn] = f"((double){ref})"
            rhs = self.expr.value(simplify(node.expr), rename)
            target = self.element_ref(
                node.output.data, self._point_indices(node.output)
            )
            ctype = self.array_args[node.output.data][1]
            op = "+=" if node.output.accumulate else "="
            self.line(f"{target} {op} ({ctype})({rhs});")
        finally:
            for param, previous in reversed(opened):
                self._unbind_local(param, previous)
        self._close(len(node.params))

    # -- library calls -----------------------------------------------------
    def lower_library(self, node: LibraryCall) -> None:
        handler = getattr(self, f"_lower_lib_{node.kind}", None)
        if handler is None:
            raise CLoweringError(f"library kind {node.kind!r} has no C lowering")
        self._check_output_aliasing(node, allow_equal_subset=False)
        handler(node)

    def _view(self, memlet: Memlet) -> "_View":
        return _View(self, memlet)

    def _store(self, view: "_View", axis_vars: list[str], value: str,
               accumulate: bool) -> None:
        target = view.ref(axis_vars)
        ctype = self.array_args[view.data][1]
        op = "+=" if accumulate else "="
        self.line(f"{target} {op} ({ctype})({value});")

    def _lower_lib_matmul(self, node: LibraryCall) -> None:
        a = self._view(node.inputs["_a"])
        b = self._view(node.inputs["_b"])
        out = self._view(node.output)
        if node.attrs.get("transpose_a"):
            a.transpose()
        if node.attrs.get("transpose_b"):
            b.transpose()
        acc = self._fresh("acc")
        accumulate = node.output.accumulate
        if (a.rank, b.rank) == (1, 1):
            if out.rank != 0:
                raise CLoweringError("vector dot with non-scalar output")
            self.line(f"double {acc} = 0.0;")
            k = self._fresh("i")
            self._open_loop_over(k, a.axis_length(0))
            self.line(f"{acc} += ((double){a.ref([k])}) * ((double){b.ref([k])});")
            self._close()
            self._store(out, [], acc, accumulate)
        elif (a.rank, b.rank) == (2, 1):
            if out.rank != 1:
                raise CLoweringError("matrix-vector product with bad output rank")
            m = self._fresh("i")
            self._open_loop_over(m, a.axis_length(0))
            self.line(f"double {acc} = 0.0;")
            k = self._fresh("i")
            self._open_loop_over(k, a.axis_length(1))
            self.line(f"{acc} += ((double){a.ref([m, k])}) * ((double){b.ref([k])});")
            self._close()
            self._store(out, [m], acc, accumulate)
            self._close()
        elif (a.rank, b.rank) == (1, 2):
            if out.rank != 1:
                raise CLoweringError("vector-matrix product with bad output rank")
            n = self._fresh("i")
            self._open_loop_over(n, b.axis_length(1))
            self.line(f"double {acc} = 0.0;")
            k = self._fresh("i")
            self._open_loop_over(k, a.axis_length(0))
            self.line(f"{acc} += ((double){a.ref([k])}) * ((double){b.ref([k, n])});")
            self._close()
            self._store(out, [n], acc, accumulate)
            self._close()
        elif (a.rank, b.rank) == (2, 2):
            if out.rank != 2:
                raise CLoweringError("matrix product with bad output rank")
            self._call_gemm(a, b, out, accumulate)
        else:
            raise CLoweringError(
                f"matmul ranks ({a.rank}, {b.rank}) have no C lowering (batched)"
            )

    def _call_gemm(self, a: "_View", b: "_View", out: "_View",
                   accumulate: bool) -> None:
        """One call of the prelude's strided GEMM helper (BLAS when the
        strides allow, its own loop otherwise)."""
        element_types = {self.array_args[view.data][1] for view in (a, b, out)}
        if element_types not in ({"double"}, {"float"}):
            names = sorted(
                str(np.dtype(self.sdfg.arrays[view.data].dtype))
                for view in (a, b, out)
            )
            raise CLoweringError(
                f"matrix product over {'/'.join(names)} has no BLAS lowering "
                "(needs one float32 or float64 element type)"
            )
        helper = "__gemm_f64" if element_types == {"double"} else "__gemm_f32"
        a_rs, a_cs = a.strides()
        b_rs, b_cs = b.strides()
        c_rs, c_cs = out.strides()
        self.line(
            f"{helper}({a.axis_length(0)}, {b.axis_length(1)}, "
            f"{a.axis_length(1)}, {a.base()}, {a_rs}, {a_cs}, "
            f"{b.base()}, {b_rs}, {b_cs}, {int(accumulate)}, "
            f"{out.base()}, {c_rs}, {c_cs});"
        )

    def _open_loop_over(self, cvar: str, length: str) -> None:
        self.line(f"for (int64_t {cvar} = 0; {cvar} < {length}; {cvar}++) {{")
        self.depth += 1

    def _lower_reduction(self, node: LibraryCall, init: str, combine) -> None:
        if node.attrs.get("axis") is not None or node.attrs.get("keepdims"):
            raise CLoweringError("axis/keepdims reduction has no C lowering")
        source = self._view(node.inputs["_in"])
        out = self._view(node.output)
        if out.rank != 0:
            raise CLoweringError("full reduction with non-scalar output")
        acc = self._fresh("acc")
        self.line(f"double {acc} = {init};")
        axis_vars = []
        for axis in range(source.rank):
            var = self._fresh("i")
            axis_vars.append(var)
            self._open_loop_over(var, source.axis_length(axis))
        value = f"((double){source.ref(axis_vars)})"
        self.line(f"{acc} = {combine(acc, value)};")
        self._close(source.rank)
        self._store(out, [], acc, node.output.accumulate)

    def _lower_lib_reduce_sum(self, node: LibraryCall) -> None:
        self._lower_reduction(node, "0.0", lambda acc, v: f"{acc} + {v}")

    def _lower_lib_reduce_max(self, node: LibraryCall) -> None:
        if node.output.accumulate:
            raise CLoweringError("accumulating max-reduction has no C lowering")
        self._lower_reduction(node, "-INFINITY", lambda acc, v: f"fmax({acc}, {v})")

    def _lower_lib_reduce_min(self, node: LibraryCall) -> None:
        if node.output.accumulate:
            raise CLoweringError("accumulating min-reduction has no C lowering")
        self._lower_reduction(node, "INFINITY", lambda acc, v: f"fmin({acc}, {v})")

    def _lower_elementwise(self, node: LibraryCall, transform) -> None:
        source = self._view(node.inputs["_in"])
        out = self._view(node.output)
        if source.rank not in (0, out.rank):
            raise CLoweringError(
                f"rank mismatch {source.rank} -> {out.rank} in elementwise call"
            )
        axis_vars = []
        for axis in range(out.rank):
            var = self._fresh("i")
            axis_vars.append(var)
            self._open_loop_over(var, out.axis_length(axis))
        read = axis_vars if source.rank else []
        value = transform(f"((double){source.ref(read)})")
        self._store(out, axis_vars, value, node.output.accumulate)
        self._close(out.rank)

    def _lower_lib_copy(self, node: LibraryCall) -> None:
        self._lower_elementwise(node, lambda v: v)

    def _lower_lib_relu(self, node: LibraryCall) -> None:
        self._lower_elementwise(node, lambda v: f"fmax({v}, 0.0)")

    def _lower_lib_transpose(self, node: LibraryCall) -> None:
        if node.attrs.get("axes") not in (None, (1, 0), [1, 0]):
            raise CLoweringError("batched transpose has no C lowering")
        source = self._view(node.inputs["_in"])
        out = self._view(node.output)
        if (source.rank, out.rank) != (2, 2):
            raise CLoweringError("only 2-D transpose has a C lowering")
        i = self._fresh("i")
        self._open_loop_over(i, out.axis_length(0))
        j = self._fresh("i")
        self._open_loop_over(j, out.axis_length(1))
        self._store(out, [i, j], f"((double){source.ref([j, i])})",
                    node.output.accumulate)
        self._close(2)

    # -- assembly ----------------------------------------------------------
    def finish(self) -> CKernel:
        """Assemble the C function definition and calling convention."""
        params = [
            f"{ctype}* {cname}" for cname, ctype in self.array_args.values()
        ]
        params += [f"int64_t {cname}" for cname in self.int_args.values()]
        header = f"void {self.name}({', '.join(params) or 'void'}) {{"
        source = "\n".join([header] + self.body + ["}"]) + "\n"
        return CKernel(
            name=self.name,
            source=source,
            array_args=tuple(self.array_args),
            int_args=tuple(self.int_args),
        )


class _View:
    """A memlet as fixed indices plus iterable axes over its container.

    ``ref(axis_vars)`` produces the C element reference with one loop
    variable per :class:`Range` dimension; :class:`Index` dimensions are
    baked in.  A missing subset means the full container.
    """

    def __init__(self, builder: KernelBuilder, memlet: Memlet) -> None:
        self.builder = builder
        self.data = memlet.data
        builder.use_array(memlet.data)
        desc = builder.sdfg.arrays[memlet.data]
        subset = memlet.subset
        if subset is None or len(subset) == 0:
            subset = Subset.full(desc.shape)
        if len(subset) != desc.ndim:
            raise CLoweringError(
                f"subset rank {len(subset)} != container rank {desc.ndim} "
                f"for {memlet.data!r}"
            )
        #: Per container dimension: ("idx", c_expr) or ("axis", start, step, len).
        self.dims: list[tuple] = []
        for dim in subset:
            if isinstance(dim, Index):
                self.dims.append(("idx", builder.expr.index(simplify(dim.value))))
            else:
                start = builder.expr.index(simplify(dim.start))
                step = simplify(dim.step)
                length = builder.expr.index(dim.length_expr())
                self.dims.append(("axis", start, step, length))
        self._axis_positions = [
            position for position, dim in enumerate(self.dims) if dim[0] == "axis"
        ]

    @property
    def rank(self) -> int:
        return len(self._axis_positions)

    def transpose(self) -> None:
        """Swap the two iterable axes (matmul ``transpose_a/_b``)."""
        if self.rank != 2:
            raise CLoweringError("transpose flag on a non-2-D operand")
        first, second = self._axis_positions
        self._axis_positions = [second, first]

    def axis_length(self, axis: int) -> str:
        return self.dims[self._axis_positions[axis]][3]

    def base(self) -> str:
        """C pointer to the view's first element."""
        return f"&{self.ref(['0'] * self.rank)}"

    def strides(self) -> list[str]:
        """C element stride of each iterable axis: the slice step times the
        product of the container's trailing dimensions (row-major)."""
        shape = self.builder.sdfg.arrays[self.data].shape_exprs()
        strides = []
        for position in self._axis_positions:
            step = self.dims[position][2]
            factors = [] if step == Const(1) else [self.builder.expr.index(step)]
            factors += [
                self.builder.expr.index(simplify(size))
                for size in shape[position + 1:]
            ]
            strides.append(" * ".join(factors) if factors else "1")
        return strides

    def ref(self, axis_vars: list[str]) -> str:
        if len(axis_vars) != self.rank:
            raise CLoweringError(
                f"{self.data!r}: {len(axis_vars)} loop variables for rank {self.rank}"
            )
        assigned = dict(zip(self._axis_positions, axis_vars))
        indices = []
        for position, dim in enumerate(self.dims):
            if dim[0] == "idx":
                indices.append(dim[1])
                continue
            _, start, step, _ = dim
            var = assigned[position]
            if step == Const(1):
                indices.append(f"({start} + {var})" if start != "0" else var)
            else:
                step_c = self.builder.expr.index(step)
                indices.append(f"({start} + {step_c} * {var})")
        return self.builder.element_ref(self.data, indices)
