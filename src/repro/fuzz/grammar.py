"""The fuzzer's program representation: a mini-AST over the frontend subset.

Random programs are built from these nodes (by :mod:`repro.fuzz.generate`),
rendered to *two* independent executable forms (by :mod:`repro.fuzz.render`):

* imperative NumPy source lowered through the repro frontend/pipeline, and
* a purely functional source executed by the loop-based
  :mod:`repro.baselines.jaxlike` oracle (``.at[...].set`` instead of slice
  assignment, ``jnp`` instead of ``np``).

The node set deliberately mirrors what ``repro.frontend`` supports:
element-wise arithmetic, constant-offset (stencil) slices, single-index
subscripts with loop iterators, reductions (sum/mean/max/min with an
optional axis), matmul / transpose library calls, ``for range`` loops and
scalar-condition branches.  Shapes are tracked symbolically as
``(symbol, offset)`` pairs so the generator can only produce well-typed
programs; anything outside the subset (negative-step slices, while loops,
indirection) is *not expressible* here — those cases live as hand-written
corpus entries asserting the frontend rejects them cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

# --------------------------------------------------------------------- dims
#: One symbolic dimension: ``(base symbol or None, integer offset)``.
#: ``("N", -2)`` is the length of ``A[1:-1]`` for ``A: float64[N]``;
#: ``(None, 4)`` is a concrete size 4.
Dim = tuple[Optional[str], int]
Shape = tuple[Dim, ...]


def dim(base: Union[str, int], offset: int = 0) -> Dim:
    """Normalise ``"N"`` / ``5`` (+ optional offset) into a :data:`Dim`."""
    if isinstance(base, str):
        return (base, offset)
    return (None, base + offset)


def dim_text(d: Dim) -> str:
    """Render one dimension as Python/annotation source text."""
    base, offset = d
    if base is None:
        return str(offset)
    if offset == 0:
        return base
    return f"{base} {'+' if offset > 0 else '-'} {abs(offset)}"


def dim_value(d: Dim, symbols: dict[str, int]) -> int:
    """Concrete size of a dimension under a symbol binding."""
    base, offset = d
    return (symbols[base] if base is not None else 0) + offset


def shape_value(shape: Shape, symbols: dict[str, int]) -> tuple[int, ...]:
    return tuple(dim_value(d, symbols) for d in shape)


def broadcast(a: Shape, b: Shape) -> Shape:
    """Combine element-wise operand shapes, NumPy style.

    Scalars broadcast against anything; equal-rank shapes combine dimension
    by dimension, a concrete size-1 dimension (``keepdims`` reductions)
    stretching to its partner.  Anything else is a generator bug.
    """
    if a == ():
        return b
    if b == ():
        return a
    if len(a) != len(b):
        raise ValueError(f"Shape rank mismatch in generated program: {a} vs {b}")
    out: list[Dim] = []
    for da, db in zip(a, b):
        if da == db:
            out.append(da)
        elif da == (None, 1):
            out.append(db)
        elif db == (None, 1):
            out.append(da)
        else:
            raise ValueError(f"Shape mismatch in generated program: {a} vs {b}")
    return tuple(out)


# --------------------------------------------------------------- subscripts
@dataclass(frozen=True)
class SliceItem:
    """A constant-offset slice ``lo : -hi`` (``: step``) of one dimension.

    ``lo >= 0`` trims from the start, ``hi <= 0`` trims from the end
    (``0`` = open end) — exactly the stencil-window reads the fusion passes
    reason about (``A[1:]``, ``A[:-2]``, ``A[1:-1]``, ...).  A positive
    ``step`` other than 1 (``A[::2]``) needs a concrete dimension, since its
    length is not a symbol plus an offset.
    """

    lo: int = 0
    hi: int = 0
    step: int = 1

    def text(self) -> str:
        lo = str(self.lo) if self.lo else ""
        hi = str(self.hi) if self.hi else ""
        step = f":{self.step}" if self.step != 1 else ""
        return f"{lo}:{hi}{step}"

    def out_dim(self, d: Dim) -> Dim:
        if self.step == 1:
            return (d[0], d[1] - self.lo + self.hi)
        if d[0] is not None:
            raise ValueError(f"step-{self.step} slice of symbolic dimension {d}")
        return (None, -(-(d[1] - self.lo + self.hi) // self.step))


@dataclass(frozen=True)
class IndexItem:
    """A single scalar index: a constant or an iterator expression.

    ``term`` is rendered verbatim (``"2"``, ``"i"``, ``"i - 1"``); the
    generator only emits iterator terms that are in bounds for the loop
    ranges it creates.
    """

    term: str

    def text(self) -> str:
        return self.term


Item = Union[SliceItem, IndexItem]


def items_text(items: Sequence[Item]) -> str:
    return ", ".join(item.text() for item in items)


def window_shape(shape: Shape, items: Sequence[Item]) -> Shape:
    """Shape of ``A[items]`` given the shape of ``A``."""
    if len(items) > len(shape):
        raise ValueError("Too many subscript items for shape")
    out: list[Dim] = []
    for position, d in enumerate(shape):
        if position >= len(items):
            out.append(d)
        elif isinstance(items[position], SliceItem):
            out.append(items[position].out_dim(d))
    return tuple(out)


# -------------------------------------------------------------- expressions
@dataclass
class Ref:
    """A whole live value (argument, transient or scalar) by name."""

    name: str
    shape: Shape = ()


@dataclass
class Lit:
    """A literal scalar constant."""

    value: float
    shape: Shape = ()


@dataclass
class SliceRead:
    """A stencil-offset / indexed read ``name[items]``."""

    name: str
    items: tuple[Item, ...]
    shape: Shape = ()


@dataclass
class Un:
    """A unary element-wise operation (``fn`` in :data:`UNARY_FNS` or "-")."""

    fn: str
    x: "ExprNode"
    shape: Shape = ()


@dataclass
class Bin:
    """A binary element-wise operation (``op`` in :data:`BINARY_OPS`)."""

    op: str
    a: "ExprNode"
    b: "ExprNode"
    shape: Shape = ()


@dataclass
class Cmp:
    """An element-wise comparison (used by :class:`Where` and branch tests)."""

    op: str
    a: "ExprNode"
    b: "ExprNode"
    shape: Shape = ()


@dataclass
class Where:
    """``np.where(cond, a, b)``."""

    cond: Cmp
    a: "ExprNode"
    b: "ExprNode"
    shape: Shape = ()


@dataclass
class Reduce:
    """A reduction library call (``fn`` in :data:`REDUCE_FNS`)."""

    fn: str
    x: "ExprNode"
    axis: Optional[int] = None
    keepdims: bool = False
    shape: Shape = ()


@dataclass
class MatMul:
    """``a @ b`` (2-D/1-D operand rank combinations as in the frontend)."""

    a: "ExprNode"
    b: "ExprNode"
    shape: Shape = ()


@dataclass
class Transpose:
    """``x.T`` of a 2-D value."""

    x: "ExprNode"
    shape: Shape = ()


@dataclass
class Zeros:
    """``np.zeros((dims...))`` — the zero-initialised scratch array of the
    partial-window stencil idiom (NPBench ``hdiff``'s ``lap``)."""

    shape: Shape = ()


ExprNode = Union[Ref, Lit, SliceRead, Un, Bin, Cmp, Where, Reduce, MatMul,
                 Transpose, Zeros]

#: Unary intrinsics shared by the frontend and the jaxlike oracle.
UNARY_FNS = ("sin", "cos", "exp", "log", "sqrt", "tanh", "abs")
#: Element-wise binary operators; named ones render as ``np.<name>(a, b)``.
BINARY_OPS = ("+", "-", "*", "/", "**", "maximum", "minimum")
REDUCE_FNS = ("sum", "mean", "max", "min")
CMP_OPS = ("<", "<=", ">", ">=")


def reduce_shape(shape: Shape, axis: Optional[int], keepdims: bool) -> Shape:
    if axis is None:
        return ()
    out = []
    for position, d in enumerate(shape):
        if position == axis:
            if keepdims:
                out.append((None, 1))
        else:
            out.append(d)
    return tuple(out)


def matmul_shape(a: Shape, b: Shape) -> Shape:
    if len(a) == 2 and len(b) == 2:
        if a[1] != b[0]:
            raise ValueError(f"matmul contraction mismatch: {a} @ {b}")
        return (a[0], b[1])
    if len(a) == 2 and len(b) == 1:
        if a[1] != b[0]:
            raise ValueError(f"matmul contraction mismatch: {a} @ {b}")
        return (a[0],)
    if len(a) == 1 and len(b) == 2:
        if a[0] != b[0]:
            raise ValueError(f"matmul contraction mismatch: {a} @ {b}")
        return (b[1],)
    if len(a) == 1 and len(b) == 1:
        if a != b:
            raise ValueError(f"matmul contraction mismatch: {a} @ {b}")
        return ()
    raise ValueError(f"Unsupported matmul ranks: {a} @ {b}")


def children(expr: ExprNode) -> tuple[ExprNode, ...]:
    """Direct expression children (for traversal and shrinking)."""
    if isinstance(expr, (Ref, Lit, SliceRead, Zeros)):
        return ()
    if isinstance(expr, Un):
        return (expr.x,)
    if isinstance(expr, (Bin, Cmp)):
        return (expr.a, expr.b)
    if isinstance(expr, Where):
        return (expr.cond, expr.a, expr.b)
    if isinstance(expr, Reduce):
        return (expr.x,)
    if isinstance(expr, MatMul):
        return (expr.a, expr.b)
    if isinstance(expr, Transpose):
        return (expr.x,)
    raise TypeError(f"Unknown expression node {expr!r}")


def walk(expr: ExprNode) -> Iterator[ExprNode]:
    """Pre-order traversal of an expression tree."""
    yield expr
    for child in children(expr):
        yield from walk(child)


def refs_in(expr: ExprNode) -> set[str]:
    """All container names read by an expression."""
    names = set()
    for node in walk(expr):
        if isinstance(node, (Ref, SliceRead)):
            names.add(node.name)
    return names


# --------------------------------------------------------------- statements
@dataclass
class SAssign:
    """``target = expr`` (defines or fully overwrites a value)."""

    target: str
    expr: ExprNode


@dataclass
class SSliceWrite:
    """``target[items] = expr`` or ``target[items] += expr``."""

    target: str
    items: tuple[Item, ...]
    expr: ExprNode
    accumulate: bool = False


@dataclass
class SFor:
    """``for var in range(start, stop)``; ``stop`` is an int or a symbol."""

    var: str
    start: int
    stop: Union[int, str]
    body: list["StmtNode"] = field(default_factory=list)


@dataclass
class SIf:
    """``if cond: ... [else: ...]`` with a scalar condition."""

    cond: Cmp
    then_body: list["StmtNode"] = field(default_factory=list)
    else_body: list["StmtNode"] = field(default_factory=list)


@dataclass
class SReturn:
    """``return expr`` (always scalar, so every program is differentiable)."""

    expr: ExprNode


StmtNode = Union[SAssign, SSliceWrite, SFor, SIf, SReturn]


def iter_statements(body: Sequence[StmtNode]) -> Iterator[StmtNode]:
    """All statements, recursing into loop and branch bodies."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, SFor):
            yield from iter_statements(stmt.body)
        elif isinstance(stmt, SIf):
            yield from iter_statements(stmt.then_body)
            yield from iter_statements(stmt.else_body)


def statement_count(body: Sequence[StmtNode]) -> int:
    """Number of statements, counting loop/branch headers as one each."""
    return sum(1 for _ in iter_statements(body))


# ----------------------------------------------------------------- programs
@dataclass
class ArgSpec:
    """One program argument: an array (``shape`` non-empty) or a scalar."""

    name: str
    shape: Shape = ()

    @property
    def is_array(self) -> bool:
        return len(self.shape) > 0

    def to_dict(self) -> dict:
        return {"name": self.name,
                "shape": [[d[0], d[1]] for d in self.shape]}

    @classmethod
    def from_dict(cls, payload: dict) -> "ArgSpec":
        return cls(payload["name"],
                   tuple((d[0], int(d[1])) for d in payload["shape"]))


@dataclass
class FuzzProgram:
    """One generated program: arguments, symbol sizes and a statement body.

    ``data_seed`` pins the random input data, so a program is a fully
    reproducible differential test case by itself.
    """

    name: str
    dtype: str  # "float64" | "float32"
    args: list[ArgSpec]
    symbols: dict[str, int]
    body: list[StmtNode]
    data_seed: int = 0

    def statement_count(self) -> int:
        return statement_count(self.body)

    def array_args(self) -> list[ArgSpec]:
        return [arg for arg in self.args if arg.is_array]

    def wrt(self) -> list[str]:
        """Differentiated inputs: every array argument."""
        return [arg.name for arg in self.array_args()]

    def copy(self) -> "FuzzProgram":
        import copy as _copy

        return _copy.deepcopy(self)


def rebuild_shapes(program: FuzzProgram) -> None:
    """Recompute every expression node's ``shape`` in place.

    The shrinker edits trees structurally; this re-derives the shape
    annotations afterwards (and raises ``ValueError`` for edits that broke
    shape discipline, which the shrinker treats as an invalid candidate).
    """
    env: dict[str, Shape] = {arg.name: arg.shape for arg in program.args}

    for symbol in program.symbols:
        env.setdefault(symbol, ())

    def infer(expr: ExprNode) -> Shape:
        if isinstance(expr, (Lit, Zeros)):
            pass  # Lit is scalar by construction; Zeros carries its shape.
        elif isinstance(expr, Ref):
            if expr.name not in env:
                raise ValueError(f"Undefined name {expr.name!r}")
            expr.shape = env[expr.name]
        elif isinstance(expr, SliceRead):
            if expr.name not in env:
                raise ValueError(f"Undefined name {expr.name!r}")
            expr.shape = window_shape(env[expr.name], expr.items)
        elif isinstance(expr, Un):
            expr.shape = infer(expr.x)
        elif isinstance(expr, (Bin, Cmp)):
            expr.shape = broadcast(infer(expr.a), infer(expr.b))
        elif isinstance(expr, Where):
            expr.shape = broadcast(
                infer(expr.cond), broadcast(infer(expr.a), infer(expr.b))
            )
        elif isinstance(expr, Reduce):
            expr.shape = reduce_shape(infer(expr.x), expr.axis, expr.keepdims)
        elif isinstance(expr, MatMul):
            expr.shape = matmul_shape(infer(expr.a), infer(expr.b))
        elif isinstance(expr, Transpose):
            inner = infer(expr.x)
            if len(inner) != 2:
                raise ValueError("Transpose needs a 2-D operand")
            expr.shape = (inner[1], inner[0])
        else:
            raise TypeError(f"Unknown expression node {expr!r}")
        return expr.shape

    def visit(body: Sequence[StmtNode]) -> None:
        for stmt in body:
            if isinstance(stmt, SAssign):
                shape = infer(stmt.expr)
                existing = env.get(stmt.target)
                if existing is not None and shape != () and shape != existing:
                    raise ValueError(
                        f"Rebinding {stmt.target!r} changes shape {existing} -> {shape}"
                    )
                env[stmt.target] = existing if existing is not None else shape
            elif isinstance(stmt, SSliceWrite):
                if stmt.target not in env:
                    raise ValueError(f"Slice write to undefined {stmt.target!r}")
                window = window_shape(env[stmt.target], stmt.items)
                shape = infer(stmt.expr)
                if shape != () and shape != window:
                    raise ValueError(
                        f"Window write shape mismatch: {shape} into {window}"
                    )
            elif isinstance(stmt, SFor):
                visit(stmt.body)
            elif isinstance(stmt, SIf):
                infer(stmt.cond)
                if stmt.cond.shape != ():
                    raise ValueError("Branch conditions must be scalar")
                visit(stmt.then_body)
                visit(stmt.else_body)
            elif isinstance(stmt, SReturn):
                shape = infer(stmt.expr)
                if shape != ():
                    raise ValueError("Programs must return a scalar")
            else:
                raise TypeError(f"Unknown statement {stmt!r}")

    visit(program.body)


__all__ = [
    "ArgSpec",
    "Bin",
    "BINARY_OPS",
    "CMP_OPS",
    "Cmp",
    "Dim",
    "ExprNode",
    "FuzzProgram",
    "IndexItem",
    "Lit",
    "MatMul",
    "Reduce",
    "REDUCE_FNS",
    "Ref",
    "SAssign",
    "SFor",
    "SIf",
    "SliceItem",
    "SliceRead",
    "SReturn",
    "SSliceWrite",
    "Shape",
    "StmtNode",
    "Transpose",
    "Un",
    "UNARY_FNS",
    "Where",
    "Zeros",
    "broadcast",
    "children",
    "dim",
    "dim_text",
    "dim_value",
    "items_text",
    "iter_statements",
    "matmul_shape",
    "rebuild_shapes",
    "reduce_shape",
    "refs_in",
    "shape_value",
    "statement_count",
    "walk",
    "window_shape",
]
