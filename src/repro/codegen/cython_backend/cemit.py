"""Symbolic expression -> C source, for the native backend.

The renderer mirrors :mod:`repro.symbolic.codeemit` (the Python emitter) but
targets C99 and is deliberately conservative: any construct without an exact
C spelling raises :class:`CLoweringError`, which the lowering driver turns
into a per-segment (and ultimately per-program) fallback to the NumPy
backend.  Three contexts exist:

``value``
    Scalar arithmetic.  All values are computed in ``double`` — reads of
    ``float``/integer arrays are promoted on load and results are cast back
    to the output container's element type on store.  This matches the
    interpreted backend, where scalar tasklets compute in Python floats
    (C ``double``) regardless of the container dtype.

``cond``
    Branch conditions (C integer truth values).

``index``
    Array subscripts and loop bounds: ``int64_t`` arithmetic only, with
    Python floor-division/modulo semantics via the ``__ifloordiv`` /
    ``__imod`` helpers from :data:`C_PRELUDE`.

Python semantics are preserved exactly where they differ from C's defaults:
``%`` is Python modulo (result takes the sign of the divisor), ``//`` on
values is ``floor(a / b)``, and ``**`` is C ``pow`` — the same libm ``pow``
CPython's ``float.__pow__`` calls, so scalar tasklets agree bit-for-bit with
the interpreted loops they replace.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.symbolic.expr import (
    BinOp,
    BoolOp,
    Call,
    Compare,
    Const,
    Expr,
    IfExp,
    Sym,
    UnOp,
)


class CLoweringError(Exception):
    """This construct is outside the native backend's supported subset.

    Internal to :mod:`repro.codegen.cython_backend`: the emitter catches it
    per segment and the backend converts an empty lowering into
    :class:`~repro.util.errors.UnsupportedFeatureError`.
    """


#: Helpers every generated C translation unit starts with.  Besides the
#: Python-semantics arithmetic helpers it carries the strided row-major GEMM
#: helpers ``__gemm_f64``/``__gemm_f32`` that 2-D matrix products lower to.
#: They call the ``dgemm``/``sgemm`` that SciPy publishes in
#: ``scipy.linalg.cython_blas``; the loader hands the two function pointers
#: to every artifact through the exported ``__repro_bind_blas`` (nothing
#: links against BLAS, and no pointer value enters the source or its
#: digest).  A matrix reaches BLAS when one of its strides is 1 and the
#: other is a valid leading dimension, and every size fits BLAS's LP64
#: ``int``; otherwise (or before binding) the helper runs its own strided
#: loop — the same policy NumPy's matmul follows.
C_PRELUDE = r"""
#include <stdint.h>
#include <limits.h>
#include <math.h>

static double __sign(double x) { return (double)((x > 0.0) - (x < 0.0)); }
static double __pymod(double a, double b) {
    double r = fmod(a, b);
    if (r != 0.0 && ((r < 0.0) != (b < 0.0))) r += b;
    return r;
}
static int64_t __ifloordiv(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) q -= 1;
    return q;
}
static int64_t __imod(int64_t a, int64_t b) {
    int64_t r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) r += b;
    return r;
}

typedef void (*__dgemm_t)(char *, char *, int *, int *, int *, double *,
                          double *, int *, double *, int *, double *,
                          double *, int *);
typedef void (*__sgemm_t)(char *, char *, int *, int *, int *, float *,
                          float *, int *, float *, int *, float *,
                          float *, int *);
static __dgemm_t __dgemm = 0;
static __sgemm_t __sgemm = 0;

void __repro_bind_blas(void *dgemm, void *sgemm) {
    __dgemm = (__dgemm_t)dgemm;
    __sgemm = (__sgemm_t)sgemm;
}

/* How column-major BLAS sees an r x c matrix with strides (rs, cs): 'N'
   when it is column-major, 'T' when row-major (leading dimension in *ld),
   0 when neither.  A size-0/1 axis has no meaningful stride, so it never
   disqualifies a layout and the leading dimension stays >= 1. */
static char __gemm_layout(int64_t r, int64_t c, int64_t rs, int64_t cs,
                          int64_t *ld) {
    int64_t rows = r > 1 ? r : 1, cols = c > 1 ? c : 1;
    if ((r <= 1 || rs == 1) && (c <= 1 || cs >= rows)) {
        *ld = c <= 1 ? rows : cs;
        return *ld <= INT_MAX ? 'N' : 0;
    }
    if ((c <= 1 || cs == 1) && (r <= 1 || rs >= cols)) {
        *ld = r <= 1 ? cols : rs;
        return *ld <= INT_MAX ? 'T' : 0;
    }
    return 0;
}

/* C[m x n] = A[m x k] B[k x n] (beta = 0) or C += A B (beta = 1), every
   operand given by a base pointer and its (row, column) element strides. */
#define __REPRO_GEMM(NAME, T, BLAS)                                          \
static void NAME(int64_t m, int64_t n, int64_t k,                            \
                 T *a, int64_t ars, int64_t acs,                             \
                 T *b, int64_t brs, int64_t bcs,                             \
                 int beta, T *c, int64_t crs, int64_t ccs) {                 \
    int64_t lda, ldb, ldc;                                                   \
    char ta, tb, tc;                                                         \
    if (m <= 0 || n <= 0) return;                                            \
    if (k < 0) k = 0;                                                        \
    ta = __gemm_layout(m, k, ars, acs, &lda);                                \
    tb = __gemm_layout(k, n, brs, bcs, &ldb);                                \
    tc = __gemm_layout(m, n, crs, ccs, &ldc);                                \
    if (BLAS && ta && tb && tc                                               \
            && m <= INT_MAX && n <= INT_MAX && k <= INT_MAX) {               \
        int im = (int)m, in = (int)n, ik = (int)k;                           \
        int ilda = (int)lda, ildb = (int)ldb, ildc = (int)ldc;               \
        T one = 1, scale = (T)beta;                                          \
        if (tc == 'N') {                                                     \
            BLAS(&ta, &tb, &im, &in, &ik, &one, a, &ilda, b, &ildb,          \
                 &scale, c, &ildc);                                          \
        } else { /* row-major C: C^T = B^T A^T in column-major terms */      \
            char fa = ta == 'N' ? 'T' : 'N', fb = tb == 'N' ? 'T' : 'N';     \
            BLAS(&fb, &fa, &in, &im, &ik, &one, b, &ildb, a, &ilda,          \
                 &scale, c, &ildc);                                          \
        }                                                                    \
        return;                                                              \
    }                                                                        \
    for (int64_t i = 0; i < m; i++) {                                        \
        for (int64_t j = 0; j < n; j++) {                                    \
            double acc = 0.0;                                                \
            T *dst = c + i * crs + j * ccs;                                  \
            for (int64_t l = 0; l < k; l++) {                                \
                acc += (double)a[i * ars + l * acs]                          \
                       * (double)b[l * brs + j * bcs];                       \
            }                                                                \
            *dst = beta ? (T)(*dst + acc) : (T)acc;                          \
        }                                                                    \
    }                                                                        \
}
__REPRO_GEMM(__gemm_f64, double, __dgemm)
__REPRO_GEMM(__gemm_f32, float, __sgemm)
"""

#: Intrinsic name -> libm spelling (double precision).
_MATH_CALLS = {
    "sin": "sin",
    "cos": "cos",
    "tan": "tan",
    "exp": "exp",
    "log": "log",
    "sqrt": "sqrt",
    "tanh": "tanh",
    "abs": "fabs",
    "floor": "floor",
    "ceil": "ceil",
    "erf": "erf",
    "maximum": "fmax",
    "minimum": "fmin",
    "sign": "__sign",
}


class CExprEmitter:
    """Renders :class:`~repro.symbolic.expr.Expr` trees as C source.

    ``resolve_value(name)`` / ``resolve_int(name)`` supply the C spelling of
    a free symbol in value / index context (the kernel builder uses them to
    bind loop variables and to collect scalar arguments); both may raise
    :class:`CLoweringError` to decline a symbol.
    """

    def __init__(
        self,
        resolve_value: Callable[[str], str],
        resolve_int: Callable[[str], str],
    ) -> None:
        self._resolve_value = resolve_value
        self._resolve_int = resolve_int

    # -- value context ----------------------------------------------------
    def value(self, expr: Expr, rename: Mapping[str, str] | None = None) -> str:
        """Render ``expr`` as a C ``double`` expression.  ``rename`` maps
        connector names to pre-rendered C snippets (element loads)."""
        rename = rename or {}
        if isinstance(expr, Const):
            return self._const_value(expr.value)
        if isinstance(expr, Sym):
            if expr.name in rename:
                return rename[expr.name]
            return self._resolve_value(expr.name)
        if isinstance(expr, UnOp):
            if expr.op == "-":
                return f"(-{self.value(expr.operand, rename)})"
            if expr.op == "not":
                return f"({self.cond(expr.operand, rename)} ? 0.0 : 1.0)"
            raise CLoweringError(f"unary operator {expr.op!r} has no C lowering")
        if isinstance(expr, BinOp):
            return self._binop_value(expr, rename)
        if isinstance(expr, Call):
            return self._call_value(expr, rename)
        if isinstance(expr, Compare):
            return f"({self.cond(expr, rename)} ? 1.0 : 0.0)"
        if isinstance(expr, BoolOp):
            return f"({self.cond(expr, rename)} ? 1.0 : 0.0)"
        if isinstance(expr, IfExp):
            cond = self.cond(expr.condition, rename)
            then = self.value(expr.then, rename)
            otherwise = self.value(expr.otherwise, rename)
            return f"({cond} ? {then} : {otherwise})"
        raise CLoweringError(f"cannot lower {type(expr).__name__} to C")

    def _const_value(self, value) -> str:
        if isinstance(value, bool):
            return "1.0" if value else "0.0"
        if isinstance(value, int):
            return f"({float(value)!r})" if value < 0 else repr(float(value))
        if isinstance(value, float):
            if value != value or value in (float("inf"), float("-inf")):
                raise CLoweringError(f"non-finite constant {value!r}")
            return f"({value!r})" if value < 0 else repr(value)
        raise CLoweringError(f"unsupported constant {value!r}")

    def _binop_value(self, expr: BinOp, rename: Mapping[str, str]) -> str:
        left = self.value(expr.left, rename)
        right = self.value(expr.right, rename)
        if expr.op in ("+", "-", "*", "/"):
            return f"({left} {expr.op} {right})"
        if expr.op == "//":
            return f"floor({left} / {right})"
        if expr.op == "%":
            return f"__pymod({left}, {right})"
        if expr.op == "**":
            return f"pow({left}, {right})"
        raise CLoweringError(f"binary operator {expr.op!r} has no scalar C lowering")

    def _call_value(self, expr: Call, rename: Mapping[str, str]) -> str:
        if expr.func == "relu":
            return f"fmax({self.value(expr.args[0], rename)}, 0.0)"
        spelled = _MATH_CALLS.get(expr.func)
        if spelled is None:
            raise CLoweringError(f"intrinsic {expr.func!r} has no C lowering")
        args = ", ".join(self.value(arg, rename) for arg in expr.args)
        return f"{spelled}({args})"

    # -- condition context ------------------------------------------------
    def cond(self, expr: Expr, rename: Mapping[str, str] | None = None) -> str:
        """Render ``expr`` as a C truth-value expression."""
        rename = rename or {}
        if isinstance(expr, Compare):
            left = self.value(expr.left, rename)
            right = self.value(expr.right, rename)
            return f"({left} {expr.op} {right})"
        if isinstance(expr, BoolOp):
            joiner = " && " if expr.op == "and" else " || "
            return "(" + joiner.join(self.cond(v, rename) for v in expr.values) + ")"
        if isinstance(expr, UnOp) and expr.op == "not":
            return f"(!{self.cond(expr.operand, rename)})"
        if isinstance(expr, Const):
            return "1" if expr.value else "0"
        return f"({self.value(expr, rename)} != 0.0)"

    # -- index context ----------------------------------------------------
    def index(self, expr: Expr) -> str:
        """Render ``expr`` as an ``int64_t`` C expression (subscripts, loop
        bounds).  Only integer-exact arithmetic is accepted."""
        if isinstance(expr, Const):
            if isinstance(expr.value, bool) or not isinstance(expr.value, int):
                raise CLoweringError(f"non-integer constant {expr.value!r} in index")
            return f"((int64_t){expr.value})" if expr.value < 0 else f"{expr.value}"
        if isinstance(expr, Sym):
            return self._resolve_int(expr.name)
        if isinstance(expr, UnOp) and expr.op == "-":
            return f"(-{self.index(expr.operand)})"
        if isinstance(expr, BinOp):
            left = self.index(expr.left)
            right = self.index(expr.right)
            if expr.op in ("+", "-", "*"):
                return f"({left} {expr.op} {right})"
            if expr.op == "//":
                return f"__ifloordiv({left}, {right})"
            if expr.op == "%":
                return f"__imod({left}, {right})"
            raise CLoweringError(f"operator {expr.op!r} is not integer-exact in index context")
        raise CLoweringError(f"cannot lower {type(expr).__name__} in index context")
