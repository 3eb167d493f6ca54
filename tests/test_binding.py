"""Tests for call-argument binding (:func:`repro.codegen.bind_arguments`).

Every binding check is pinned by its exact ``CodegenError`` message on both
backends, next to the success paths (dtype coercion, explicit symbols,
native write-back of non-contiguous inputs).  Binding reads a
:class:`~repro.codegen.runtime.BindingPlan` built once per compiled artifact;
the remaining classes guard that no call walks the IR, and the plan's
lifecycle: copies, mutators, the on-disk cache and concurrent first calls.
"""

import pickle
import re
import sys
import threading

import numpy as np
import pytest

import repro
from repro.codegen import bind_arguments
from repro.codegen.cython_backend import find_c_compiler
from repro.codegen.runtime import BindingPlan, binding_plan
from repro.ir import SDFG, ArrayDesc
from repro.pipeline import CompilationCache, compile_gradient, to_sdfg
from repro.util.errors import CodegenError

N = repro.symbol("N")
M = repro.symbol("M")

BACKENDS = [
    "numpy",
    pytest.param(
        "cython",
        marks=pytest.mark.skipif(
            find_c_compiler() is None, reason="no C compiler on PATH"
        ),
    ),
]


def make_scale():
    """In-place loop nest over ``A[N, M]`` plus a ``B[M]`` row (lowers to C)."""

    @repro.program
    def scale(A: repro.float64[N, M], B: repro.float64[M]):
        for i in range(N):
            for j in range(M):
                A[i, j] = A[i, j] * 2.0 + B[j]
        return np.sum(A)

    return scale


def make_steps():
    """``T`` bounds a loop but sizes no array, so it cannot be inferred."""

    @repro.program
    def steps(A: repro.float64[N], T: repro.int64):
        for t in range(T):
            for i in range(N):
                A[i] = A[i] * 0.5 + 1.0
        return np.sum(A)

    return steps


def make_smooth():
    @repro.program
    def smooth(A: repro.float64[N]):
        out = np.zeros_like(A)
        for i in range(1, N - 1):
            out[i] = (A[i - 1] + A[i] + A[i + 1]) / 3.0
        return np.sum(out * out)

    return smooth


def compile_native_or_numpy(program, backend):
    compiled = repro.compile(program, optimize="O1", backend=backend, cache=False)
    assert compiled.backend == backend  # the native case really is native
    return compiled


def compile_grad(backend, cache=False):
    outcome = compile_gradient(
        make_smooth(), wrt=["A"], optimize="O1", backend=backend, cache=cache
    )
    assert outcome.compiled.backend == backend
    return outcome


def rand(*shape, seed=0):
    return np.random.default_rng(seed).random(shape)


@pytest.mark.parametrize("backend", BACKENDS)
class TestBindingErrors:
    def test_too_many_positional_arguments(self, backend):
        compiled = compile_native_or_numpy(make_scale(), backend)
        name = compiled.sdfg.name
        with pytest.raises(CodegenError, match=re.escape(
            f"{name} takes 2 arguments, got 3"
        )):
            compiled(rand(3, 4), rand(4), rand(4))

    def test_argument_passed_twice(self, backend):
        compiled = compile_native_or_numpy(make_scale(), backend)
        with pytest.raises(CodegenError, match=re.escape(
            "Argument 'A' passed both positionally and by keyword"
        )):
            compiled(rand(3, 4), A=rand(3, 4), B=rand(4))

    def test_wrong_ndim(self, backend):
        compiled = compile_native_or_numpy(make_scale(), backend)
        with pytest.raises(CodegenError, match=re.escape(
            "Argument 'A' has 1 dimensions, expected 2"
        )):
            compiled(rand(12), rand(4))

    def test_missing_argument(self, backend):
        compiled = compile_native_or_numpy(make_scale(), backend)
        name = compiled.sdfg.name
        with pytest.raises(CodegenError, match=re.escape(
            f"Missing argument 'B' for {name}"
        )):
            compiled(rand(3, 4))

    def test_shape_mismatch(self, backend):
        compiled = compile_native_or_numpy(make_scale(), backend)
        with pytest.raises(CodegenError, match=re.escape(
            "Argument 'B' has shape (5,), expected (4,)"
        )):
            compiled(rand(3, 4), rand(5))

    def test_undetermined_symbol(self, backend):
        compiled = compile_native_or_numpy(make_steps(), backend)
        with pytest.raises(CodegenError, match=re.escape(
            "Could not determine values for symbols ['T']; "
            "pass them as keyword arguments"
        )):
            compiled(rand(6))


@pytest.mark.parametrize("backend", BACKENDS)
class TestBindingSuccess:
    def test_list_inputs_coerced_to_descriptor_dtype(self, backend):
        compiled = compile_native_or_numpy(make_scale(), backend)
        A = [[1, 2], [3, 4]]
        B = [10, 20]
        bindings = bind_arguments(compiled.sdfg, (A, B), {})
        assert bindings["A"].dtype == np.float64
        assert bindings["B"].dtype == np.float64
        assert bindings["N"] == 2 and bindings["M"] == 2
        expected = np.sum(np.array(A) * 2.0 + np.array(B))
        assert compiled(A, B) == pytest.approx(expected)

    def test_float32_input_converted_to_float64(self, backend):
        compiled = compile_native_or_numpy(make_scale(), backend)
        A = rand(3, 4).astype(np.float32)
        B = rand(4).astype(np.float32)
        bindings = bind_arguments(compiled.sdfg, (A, B), {})
        assert bindings["A"].dtype == np.float64
        expected = np.sum(A.astype(np.float64) * 2.0 + B.astype(np.float64))
        assert compiled(A, B) == pytest.approx(expected)

    def test_explicit_symbol_takes_precedence(self, backend):
        compiled = compile_native_or_numpy(make_steps(), backend)
        A = np.ones(6)
        bindings = bind_arguments(compiled.sdfg, (A,), {"T": np.int64(2), "N": 6})
        assert bindings["T"] == 2 and type(bindings["T"]) is int
        assert bindings["N"] == 6
        assert compiled(A.copy(), T=2) == pytest.approx(6 * 1.75)
        # The explicit N is the one the shape is checked against; inference
        # from A (which would give 6) does not override it.
        with pytest.raises(CodegenError, match=re.escape(
            "Argument 'A' has shape (6,), expected (5,)"
        )):
            compiled(A.copy(), T=1, N=5)

    def test_non_contiguous_input_written_back(self, backend):
        compiled = compile_native_or_numpy(make_scale(), backend)
        base = rand(4, 3)
        view = base.T  # (3, 4), not C-contiguous
        assert not view.flags.c_contiguous
        B = rand(4, seed=1)
        expected = view * 2.0 + B
        total = compiled(view, B)
        np.testing.assert_allclose(view, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(base, expected.T, rtol=0, atol=1e-12)
        assert total == pytest.approx(np.sum(expected))


@pytest.mark.parametrize("backend", BACKENDS)
def test_calls_never_walk_the_ir(backend, monkeypatch):
    """After one warm call, binding needs nothing the IR walk provides."""
    compiled = compile_grad(backend).compiled
    kw = {"A": rand(16)}
    expected = compiled(**kw)

    def forbidden(*args, **kwargs):
        raise AssertionError("binding walked the IR")

    monkeypatch.setattr(SDFG, "free_symbols", forbidden)
    monkeypatch.setattr(SDFG, "all_loops", forbidden)
    monkeypatch.setattr(ArrayDesc, "free_symbols", forbidden)
    for _ in range(3):
        np.testing.assert_allclose(compiled(**kw), expected, rtol=0, atol=0)
        bindings = bind_arguments(compiled.sdfg, (), kw)
        assert bindings["N"] == 16


class TestPlanLifecycle:
    def test_copy_and_pickle_drop_the_memo(self):
        sdfg = compile_grad("numpy").compiled.sdfg
        assert isinstance(sdfg._binding_plan, BindingPlan)
        assert sdfg.copy()._binding_plan is None
        assert pickle.loads(pickle.dumps(sdfg))._binding_plan is None
        assert isinstance(sdfg._binding_plan, BindingPlan)  # original kept

    @pytest.mark.parametrize("mutate", [
        lambda s: s.add_array("extra", (4,)),
        lambda s: s.add_transient("tmp", (4,)),
        lambda s: s.add_scalar("alpha"),
        lambda s: s.add_symbol("K"),
        lambda s: s.add_state("more"),
    ], ids=["add_array", "add_transient", "add_scalar", "add_symbol", "add_state"])
    def test_mutators_drop_the_memo(self, mutate):
        sdfg = compile_grad("numpy").compiled.sdfg.copy()
        plan = binding_plan(sdfg)
        assert binding_plan(sdfg) is plan  # memoized
        mutate(sdfg)
        assert sdfg._binding_plan is None
        assert binding_plan(sdfg) is not plan

    def test_replanned_after_mutation(self):
        sdfg = to_sdfg(make_scale())
        bind_arguments(sdfg, (rand(3, 4), rand(4)), {})
        sdfg.add_array("C", (M,))
        sdfg.arg_names.append("C")
        with pytest.raises(CodegenError, match=re.escape(
            f"Missing argument 'C' for {sdfg.name}"
        )):
            bind_arguments(sdfg, (rand(3, 4), rand(4)), {})

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_persisted_artifact_binds(self, backend, tmp_path):
        persist = str(tmp_path / "spill")
        A = rand(24)
        warm = compile_grad(backend, cache=CompilationCache(persist_dir=persist))
        expected = warm.compiled(A=A.copy())

        fresh = CompilationCache(persist_dir=persist)
        loaded = compile_grad(backend, cache=fresh)
        assert fresh.stats.disk_hits == 1
        assert loaded.compiled is not warm.compiled
        assert isinstance(loaded.compiled.sdfg._binding_plan, BindingPlan)
        np.testing.assert_allclose(loaded.compiled(A=A.copy()), expected,
                                   rtol=0, atol=0)

    @pytest.mark.parametrize("lazy", [False, True], ids=["planned", "lazy"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_concurrent_first_calls(self, backend, lazy):
        reference = compile_grad(backend).compiled
        inputs = [rand(8 + 3 * k, seed=k) for k in range(8)]
        expected = [reference(A=A.copy()) for A in inputs]

        compiled = compile_grad(backend).compiled
        if lazy:  # race the on-first-use build as well
            compiled.sdfg._binding_plan = None
        barrier = threading.Barrier(len(inputs))
        results = [None] * len(inputs)

        def worker(k):
            barrier.wait()
            try:
                results[k] = compiled(A=inputs[k].copy())
            except BaseException as exc:  # noqa: BLE001 - reported below
                results[k] = exc

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(len(inputs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(previous)
        for got, want in zip(results, expected):
            assert not isinstance(got, BaseException), got
            np.testing.assert_allclose(got, want, rtol=0, atol=0)
