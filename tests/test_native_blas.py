"""Native matrix products: rank-(2, 2) ``matmul`` lowers to one call of the
strided GEMM helper in the C prelude, which calls SciPy's BLAS when the
operand strides allow and runs its own loop otherwise.

Every product is checked against the NumPy backend: all four transpose
combinations, accumulating gradients, row/column windows, step-2 slices,
slices of a 3-D container inside a loop, both float dtypes, the dtype
declines, persisted artifacts loaded by a fresh process, and the
native-vs-driver profile split.  The helper itself is driven directly over
every layout class and degenerate size, with BLAS bound and unbound.
"""

import ctypes
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.codegen.cython_backend import find_c_compiler
from repro.codegen.cython_backend.build import compile_shared_object
from repro.codegen.cython_backend.cemit import C_PRELUDE
from repro.codegen.cython_backend.compiled import _blas_pointers
from repro.npbench import get_kernel
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import ProfiledCompiledSDFG
from repro.obs.trace import Tracer
from repro.pipeline import CompilationCache, compile_forward, compile_gradient

pytestmark = pytest.mark.skipif(
    find_c_compiler() is None, reason="no C compiler on PATH"
)

N, M, K = repro.symbol("N"), repro.symbol("M"), repro.symbol("K")
TOLERANCE = {"float64": 1e-10, "float32": 2e-4}


def _gradients(program, data, wrt, optimize="O1"):
    """Gradients of ``program`` on both backends (native must not fall back)."""
    results = {}
    for backend in ("numpy", "cython"):
        outcome = compile_gradient(program, wrt=wrt, optimize=optimize,
                                   backend=backend, cache=False)
        assert outcome.report.backend == backend, outcome.report.backend_fallback
        raw = outcome.compiled(**{k: np.copy(v) for k, v in data.items()})
        results[backend] = (raw, outcome)
    return results


def _assert_agree(results, dtype):
    expected, actual = results["numpy"][0], results["cython"][0]
    if not isinstance(expected, dict):
        expected, actual = {"": expected}, {"": actual}
    assert expected.keys() == actual.keys()
    for name, want in expected.items():
        np.testing.assert_allclose(actual[name], want, rtol=TOLERANCE[dtype],
                                   atol=TOLERANCE[dtype], err_msg=name)


def _gemm_calls(compiled) -> list[str]:
    """The GEMM helper calls in the kernels (the prelude excluded)."""
    kernels = "\n".join(kernel.source for kernel in compiled.kernels)
    return re.findall(r"__gemm_f(?:32|64)\([^;]*\);", kernels)


def _random(shape, dtype, seed=0):
    return np.random.default_rng(seed).random(shape).astype(dtype)


def _transpose_programs(dtype):
    T = getattr(repro, dtype)

    @repro.program
    def nn(A: T[N, K], B: T[K, M]):
        return np.sum(np.tanh(A @ B))

    @repro.program
    def tn(A: T[K, N], B: T[K, M]):
        return np.sum(np.tanh(A.T @ B))

    @repro.program
    def nt(A: T[N, K], B: T[M, K]):
        return np.sum(np.tanh(A @ B.T))

    @repro.program
    def tt(A: T[K, N], B: T[M, K]):
        return np.sum(np.tanh(A.T @ B.T))

    return {"nn": (nn, (7, 6), (6, 5)), "tn": (tn, (6, 7), (6, 5)),
            "nt": (nt, (7, 6), (5, 6)), "tt": (tt, (6, 7), (5, 6))}


class TestLowering:
    def test_k2mm_gradient_calls_gemm_and_has_no_triple_loop(self):
        spec = get_kernel("k2mm")
        data = spec.data("S")
        results = _gradients(spec.program_for("S"), data, [spec.wrt])
        _assert_agree(results, "float64")
        compiled = results["cython"][1].compiled
        assert len(compiled.kernels) == 1
        assert _gemm_calls(compiled)
        kernels = "\n".join(kernel.source for kernel in compiled.kernels)
        # Kernel bodies start one level deep; a third nested loop would be
        # the old naive (2, 2) lowering.
        assert not re.search(r"^ {12,}for \(", kernels, re.MULTILINE)

    def test_k2mm_gradient_lists_no_matmul_decline(self):
        spec = get_kernel("k2mm")
        outcome = compile_gradient(spec.program_for("S"), wrt=[spec.wrt],
                                   optimize="O1", backend="cython", cache=False)
        declines = outcome.report.record_for("codegen").info.get(
            "native_declines", ())
        assert not [reason for reason in declines if "matrix" in reason
                    or "matmul" in reason]

    def test_mlp_gradient_lists_its_softmax_declines(self):
        spec = get_kernel("mlp")
        outcome = compile_gradient(spec.program_for("S"), wrt=[spec.wrt],
                                   optimize="O1", backend="cython", cache=False)
        assert outcome.report.backend == "cython"
        declines = outcome.report.record_for("codegen").info["native_declines"]
        assert any("softmax" in reason for reason in declines)
        assert declines == tuple(outcome.compiled.decline_reasons)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("case", ["nn", "tn", "nt", "tt"])
    def test_transpose_combinations(self, dtype, case):
        program, a_shape, b_shape = _transpose_programs(dtype)[case]
        data = {"A": _random(a_shape, dtype, 1), "B": _random(b_shape, dtype, 2)}
        results = _gradients(program, data, ["A", "B"])
        _assert_agree(results, dtype)
        helper = "__gemm_f64(" if dtype == "float64" else "__gemm_f32("
        calls = _gemm_calls(results["cython"][1].compiled)
        assert calls and all(call.startswith(helper) for call in calls)

    def test_accumulating_gradients_use_beta_one(self):
        @repro.program
        def shared(A: repro.float64[N, K], B: repro.float64[K, M],
                   C: repro.float64[K, M]):
            return np.sum(np.tanh(A @ B)) + np.sum(np.sin(A @ C))

        data = {"A": _random((7, 6), "float64", 1),
                "B": _random((6, 5), "float64", 2),
                "C": _random((6, 5), "float64", 3)}
        results = _gradients(shared, data, ["A", "B", "C"])
        _assert_agree(results, "float64")
        # beta is the argument before the output's base pointer.
        betas = {re.findall(r", ([01]), &", call)[-1] for call in
                 _gemm_calls(results["cython"][1].compiled)}
        assert betas == {"0", "1"}

    def test_accumulating_forward_store(self):
        @repro.program
        def update(A: repro.float64[N, K], B: repro.float64[K, M],
                   C: repro.float64[N, M]):
            C[:, :] += A @ B
            return np.sum(np.sin(C))

        data = {"A": _random((7, 6), "float64", 1),
                "B": _random((6, 5), "float64", 2),
                "C": _random((7, 5), "float64", 3)}
        _assert_agree(_gradients(update, data, ["A", "B", "C"]), "float64")

    def test_row_and_column_windows(self):
        @repro.program
        def windows(A: repro.float64[N, K], B: repro.float64[K, M]):
            return np.sum(np.tanh(A[1:, 2:] @ B[:-2, 1:-1]))

        data = {"A": _random((7, 6), "float64", 1),
                "B": _random((6, 5), "float64", 2)}
        _assert_agree(_gradients(windows, data, ["A", "B"]), "float64")

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_strided_slices(self, dtype):
        T = getattr(repro, dtype)

        # A[::2, :] keeps a unit column stride (BLAS); A[::2, ::2] has no
        # unit stride, so that product and its gradients run the helper's
        # own loop.
        @repro.program
        def strided(A: T[8, 8], B: T[8, M], C: T[4, M]):
            return (np.sum(np.tanh(A[::2, :] @ B))
                    + np.sum(np.sin(A[::2, ::2] @ C)))

        data = {"A": _random((8, 8), dtype, 1), "B": _random((8, 5), dtype, 2),
                "C": _random((4, 5), dtype, 3)}
        _assert_agree(_gradients(strided, data, ["A", "B", "C"]), dtype)

    def test_products_on_3d_slices_inside_a_loop(self):
        @repro.program
        def doitgen_like(X: repro.float64[N, K, K], W: repro.float64[K, K]):
            out = np.zeros((N, K, K))
            for r in range(N):
                out[r, :, :] = X[r, :, :] @ W
            return np.sum(np.tanh(out))

        data = {"X": _random((3, 6, 6), "float64", 1),
                "W": _random((6, 6), "float64", 2)}
        results = _gradients(doitgen_like, data, ["X", "W"])
        _assert_agree(results, "float64")
        # The loop and its per-slice products stay one C call.
        assert len(results["cython"][1].compiled.kernels) == 1


class TestDeclines:
    def _matmul_declines(self, program):
        outcome = compile_forward(program, "O1", backend="cython", cache=False)
        declines = outcome.report.record_for("codegen").info.get(
            "native_declines", ())
        return outcome, [reason for reason in declines
                         if "matrix product" in reason]

    def test_mixed_dtypes_decline_with_reason(self):
        @repro.program
        def mixed(A: repro.float32[N, K], B: repro.float64[K, M]):
            return np.sum(A @ B)

        outcome, declines = self._matmul_declines(mixed)
        assert declines and "float32" in declines[0] and "float64" in declines[0]
        data = {"A": _random((7, 6), "float32"), "B": _random((6, 5), "float64")}
        expected = compile_forward(mixed, "O1", cache=False).compiled(**data)
        np.testing.assert_allclose(outcome.compiled(**data), expected, rtol=1e-6)

    def test_integer_products_decline_with_reason(self):
        @repro.program
        def ints(A: repro.int64[N, K], B: repro.int64[K, M]):
            return A @ B

        outcome, declines = self._matmul_declines(ints)
        assert declines and "int64" in declines[0]
        A = np.arange(42, dtype=np.int64).reshape(7, 6)
        B = np.arange(30, dtype=np.int64).reshape(6, 5)
        np.testing.assert_array_equal(outcome.compiled(A=A, B=B), A @ B)


class TestArtifacts:
    def test_persisted_artifact_rebinds_blas_in_a_fresh_process(self, tmp_path):
        spec = get_kernel("k2mm")
        data = spec.data("S")
        persist = str(tmp_path / "spill")
        cache = CompilationCache(persist_dir=persist)
        outcome = compile_gradient(spec.program_for("S"), wrt=[spec.wrt],
                                   optimize="O1", backend="cython", cache=cache)
        assert outcome.report.backend == "cython"
        expected = outcome.compiled(**{k: np.copy(v) for k, v in data.items()})
        np.save(tmp_path / "expected.npy", np.asarray(expected))
        script = textwrap.dedent(f"""
            import numpy as np
            from repro.npbench import get_kernel
            from repro.pipeline import CompilationCache, compile_gradient
            spec = get_kernel("k2mm")
            cache = CompilationCache(persist_dir={persist!r})
            outcome = compile_gradient(spec.program_for("S"), wrt=[spec.wrt],
                                       optimize="O1", backend="cython",
                                       cache=cache)
            assert cache.stats.disk_hits == 1, cache.stats
            assert outcome.compiled.backend == "cython"
            got = outcome.compiled(**spec.data("S"))
            want = np.load({str(tmp_path / "expected.npy")!r})
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        """)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr[-2000:]

    def test_profile_counts_blas_as_native_time(self):
        @repro.program
        def chain(A: repro.float64[N, N], B: repro.float64[N, N]):
            return np.sum(np.tanh(A @ B @ A))

        data = {"A": _random((160, 160), "float64", 1) / 160,
                "B": _random((160, 160), "float64", 2)}
        plain = repro.compile(chain, optimize="O1", backend="cython",
                              cache=False)
        profiled = ProfiledCompiledSDFG(plain, metrics=MetricsRegistry(),
                                        tracer=Tracer())
        for _ in range(3):
            profiled(**data)
        snapshot = profiled.profile_snapshot()
        assert snapshot["native"]["count"] == 3
        assert snapshot["driver"]["count"] == 3
        assert snapshot["native"]["mean"] + snapshot["driver"]["mean"] == \
            pytest.approx(snapshot["runtime"]["mean"], rel=1e-6)
        # The two 160^3 products run inside the C kernel.
        assert snapshot["native"]["mean"] > snapshot["driver"]["mean"]


# -- the helper itself, over every layout class --------------------------------
_HELPER_SOURCE = C_PRELUDE + """
void gemm_f64(int64_t m, int64_t n, int64_t k, double *a, int64_t ars,
              int64_t acs, double *b, int64_t brs, int64_t bcs, int64_t beta,
              double *c, int64_t crs, int64_t ccs) {
    __gemm_f64(m, n, k, a, ars, acs, b, brs, bcs, (int)beta, c, crs, ccs);
}
void gemm_f32(int64_t m, int64_t n, int64_t k, float *a, int64_t ars,
              int64_t acs, float *b, int64_t brs, int64_t bcs, int64_t beta,
              float *c, int64_t crs, int64_t ccs) {
    __gemm_f32(m, n, k, a, ars, acs, b, brs, bcs, (int)beta, c, crs, ccs);
}
"""

#: Operand layouts: contiguous window, transposed, step-2 rows (unit column
#: stride), and step-2 in both axes (no unit stride: the helper's loop).
_LAYOUTS = ("window", "transposed", "row_step", "no_unit_stride")
_SHAPES = [(4, 3, 5), (1, 3, 5), (4, 1, 5), (4, 3, 1), (1, 1, 1), (0, 3, 2),
           (3, 2, 0)]


def _operand(rows, cols, layout, dtype, rng):
    """A ``rows x cols`` view of a larger array in the given layout."""
    if layout == "transposed":
        return rng.random((cols + 3, rows + 2)).astype(dtype)[1:1 + cols,
                                                              2:2 + rows].T
    row_step = 1 if layout == "window" else 2
    col_step = 2 if layout == "no_unit_stride" else 1
    base = rng.random((2 * rows + 3, 2 * cols + 3)).astype(dtype)
    return base[1:1 + rows * row_step:row_step, 2:2 + cols * col_step:col_step]


@pytest.fixture(scope="module")
def helper_library(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("gemm") / "gemm_helper.so")
    library = ctypes.CDLL(compile_shared_object(_HELPER_SOURCE, path))
    library.__repro_bind_blas.argtypes = [ctypes.c_void_p, ctypes.c_void_p]
    for name in ("gemm_f64", "gemm_f32"):
        function = getattr(library, name)
        function.restype = None
        function.argtypes = ([ctypes.c_int64] * 3
                             + [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64] * 2
                             + [ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
                                ctypes.c_int64])
    return library


def _strides(view):
    return [stride // view.itemsize for stride in view.strides]


@pytest.mark.parametrize("bound", [True, False], ids=["blas", "loop"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_helper_matches_numpy_on_every_layout(helper_library, dtype, bound):
    helper_library.__repro_bind_blas(*(_blas_pointers() if bound else (None, None)))
    function = getattr(helper_library, "gemm_f64" if dtype == "float64"
                       else "gemm_f32")
    rng = np.random.default_rng(7)
    for m, n, k in _SHAPES:
        for a_layout in _LAYOUTS:
            for b_layout in _LAYOUTS:
                for c_layout in _LAYOUTS:
                    a = _operand(m, k, a_layout, dtype, rng)
                    b = _operand(k, n, b_layout, dtype, rng)
                    c = _operand(m, n, c_layout, dtype, rng)
                    for beta in (0, 1):
                        before = c.copy()
                        want = a.astype(np.float64) @ b.astype(np.float64)
                        if beta:
                            want = want + before
                        function(m, n, k, a.ctypes.data, *_strides(a),
                                 b.ctypes.data, *_strides(b), beta,
                                 c.ctypes.data, *_strides(c))
                        np.testing.assert_allclose(
                            c, want, rtol=TOLERANCE[dtype],
                            atol=TOLERANCE[dtype],
                            err_msg=f"{(m, n, k)} {a_layout}/{b_layout}/"
                                    f"{c_layout} beta={beta}")
                        c[...] = before
    helper_library.__repro_bind_blas(*_blas_pointers())
