"""Tests for the batching subsystem (``repro.batching``).

Covers the SDFG-level transform (rank extension, batched-set propagation,
library batching rules and their clear-error fallbacks), the ``vmap`` API
and its composition with AD in both orders (``vmap(grad)`` and
``grad(vmap)`` against a per-sample Python loop to 1e-9, at O0 and O3),
serialisation round-trips of vmapped and O3-fused SDFGs, symbolic-batch-size
cache sharing, and the :class:`BatchQueue` micro-batching runtime.
"""

import json
import threading

import numpy as np
import pytest

import repro
from repro.batching import (
    BatchQueue,
    BatchedProgram,
    Vmap,
    batch_sdfg,
    bucketed,
    resolve_in_axes,
    vmap,
)
from repro.baselines import jaxlike
from repro.ir.serialize import sdfg_from_dict, sdfg_to_dict
from repro.ir.subsets import Index, Range, Subset
from repro.pipeline import CompilationCache, PassManager, compile_forward
from repro.pipeline.pass_base import PASS_REGISTRY
from repro.pipeline.stages import GlobalValueNumbering, MapFusion
from repro.symbolic import Sym
from repro.util.errors import UnsupportedFeatureError

N = repro.symbol("N")
M = repro.symbol("M")

GRAD_RTOL = 1e-9


def make_bias_act():
    @repro.program
    def bias_act(x: repro.float64[N, M], r: repro.float64[N, M],
                 bias: repro.float64[M]):
        pre = x + bias
        act = np.maximum(pre, 0.0)
        out = act + r
        return np.sum(out * out)

    return bias_act


def make_smooth_chain():
    @repro.program
    def smooth_chain(A: repro.float64[N]):
        u1 = A[:-1] + A[1:]
        u2 = u1[:-1] + u1[1:]
        u3 = u2[:-1] + u2[1:]
        out = 0.125 * (u3[:-1] + u3[1:])
        return np.sum(out)

    return smooth_chain


def bias_act_data(batch=3, n=4, m=5, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "x": rng.random((batch, n, m)) - 0.25,
        "r": rng.random((batch, n, m)),
        "bias": rng.random(m) - 0.5,
    }


BIAS_ACT_AXES = {"x": 0, "r": 0, "bias": None}


# ---------------------------------------------------------------- in_axes
class TestResolveInAxes:
    def test_int_batches_every_argument(self):
        sdfg = make_bias_act().to_sdfg()
        assert resolve_in_axes(sdfg, 0) == {"x": 0, "r": 0, "bias": 0}

    def test_mapping_defaults_missing_to_broadcast(self):
        sdfg = make_bias_act().to_sdfg()
        assert resolve_in_axes(sdfg, {"x": 0}) == {"x": 0, "r": None, "bias": None}

    def test_sequence_aligns_with_signature_order(self):
        sdfg = make_bias_act().to_sdfg()
        assert resolve_in_axes(sdfg, [0, 0, None]) == BIAS_ACT_AXES

    def test_rejects_non_leading_axis(self):
        sdfg = make_bias_act().to_sdfg()
        with pytest.raises(UnsupportedFeatureError, match="leading-axis"):
            resolve_in_axes(sdfg, {"x": 1})

    def test_rejects_unknown_names_and_wrong_length(self):
        sdfg = make_bias_act().to_sdfg()
        with pytest.raises(UnsupportedFeatureError, match="unknown arguments"):
            resolve_in_axes(sdfg, {"nope": 0})
        with pytest.raises(UnsupportedFeatureError, match="entries"):
            resolve_in_axes(sdfg, [0, 0])

    def test_rejects_batching_nothing(self):
        sdfg = make_bias_act().to_sdfg()
        with pytest.raises(UnsupportedFeatureError, match="at least one"):
            resolve_in_axes(sdfg, {"x": None, "r": None, "bias": None})


# ---------------------------------------------------------------- transform
class TestBatchTransform:
    def test_rank_extends_batched_containers_only(self):
        info = batch_sdfg(make_bias_act().to_sdfg(), in_axes=BIAS_ACT_AXES)
        sdfg = info.sdfg
        batch = Sym(info.batch_symbol)
        assert sdfg.arrays["x"].shape[0] == batch
        assert sdfg.arrays["x"].shape[1:] == (Sym("N"), Sym("M"))
        assert sdfg.arrays["bias"].shape == (Sym("M"),)  # broadcast operand
        # Transients on the batched path are batched too (propagation).
        assert sdfg.arrays["pre"].shape[0] == batch
        assert {"x", "r", "pre", "act", "out"} <= info.batched
        assert "bias" not in info.batched

    def test_batch_symbol_is_registered_and_fresh(self):
        info = batch_sdfg(make_bias_act().to_sdfg())
        assert info.batch_symbol == "B"
        assert "B" in info.sdfg.symbols

        B = repro.symbol("B")

        @repro.program
        def uses_b(x: repro.float64[B]):
            return np.sum(x * x)

        info = batch_sdfg(uses_b.to_sdfg())
        assert info.batch_symbol != "B"
        assert info.batch_symbol in info.sdfg.symbols

    def test_maps_gain_leading_batch_iterator(self):
        base = make_bias_act().to_sdfg()
        info = batch_sdfg(base, in_axes=BIAS_ACT_AXES)
        state = next(iter(info.sdfg.all_states()))
        node = state.nodes[0]  # pre = x + bias
        assert len(node.params) == 3
        assert node.ranges[0] == Range(0, Sym(info.batch_symbol), 1)
        assert node.output.subset.dims[0] == Index(Sym(node.params[0]))
        # The broadcast operand's memlet is untouched (2 original dims).
        bias_memlets = [m for m in node.inputs.values() if m.data == "bias"]
        assert bias_memlets and len(bias_memlets[0].subset) == 1

    def test_input_sdfg_is_not_mutated(self):
        base = make_bias_act().to_sdfg()
        before = base.content_hash()
        batch_sdfg(base, in_axes=BIAS_ACT_AXES)
        assert base.content_hash() == before

    def test_reduction_axis_shifts_past_batch(self):
        @repro.program
        def rowmax(x: repro.float64[N, M]):
            shifted = x - np.max(x, axis=-1, keepdims=True)
            return np.sum(shifted * shifted)

        info = batch_sdfg(rowmax.to_sdfg())
        kinds = {}
        for state in info.sdfg.all_states():
            for node in state:
                if hasattr(node, "kind"):
                    kinds.setdefault(node.kind, []).append(node)
        assert kinds["reduce_max"][0].attrs["axis"] == 2  # was 1
        assert kinds["reduce_sum"][0].attrs["axis"] == (1, 2)  # was None

    def test_writing_a_broadcast_argument_is_rejected(self):
        @repro.program
        def writes_arg(x: repro.float64[N], out: repro.float64[N]):
            out[:] = x * 2.0
            return np.sum(out)

        with pytest.raises(UnsupportedFeatureError, match="in_axes=None"):
            batch_sdfg(writes_arg.to_sdfg(), in_axes={"x": 0, "out": None})

    def test_batched_branch_condition_is_rejected(self):
        @repro.program
        def branchy(x: repro.float64[N]):
            s = np.sum(x)
            if s > 0.0:
                s = s * 2.0
            return s

        with pytest.raises(UnsupportedFeatureError, match="control flow"):
            batch_sdfg(branchy.to_sdfg())

    def test_batched_right_hand_vector_matmul_is_rejected(self):
        # np.matmul would multiply the (B, n) stack as a *matrix* — silently
        # wrong for square shapes — so the rule must reject it.
        @repro.program
        def mv(w: repro.float64[N, N], x: repro.float64[N]):
            h = w @ x
            return np.sum(h * h)

        with pytest.raises(UnsupportedFeatureError, match="right-hand vector"):
            batch_sdfg(mv.to_sdfg(), in_axes={"w": None, "x": 0})

    def test_batched_left_hand_vector_matmul_works(self):
        K = repro.symbol("K_mv")

        @repro.program
        def vm(x: repro.float64[N], w: repro.float64[N, K]):
            h = x @ w
            return np.sum(h * h)

        rng = np.random.default_rng(2)
        x, w = rng.random((3, 4)), rng.random((4, 5))
        batched = vmap(vm, in_axes={"x": 0, "w": None})
        base = vm.compile()
        want = np.array([base(x=x[b], w=w) for b in range(3)])
        np.testing.assert_allclose(batched(x=x, w=w), want, rtol=1e-12)

    def test_colliding_batch_symbol_override_is_rejected(self):
        with pytest.raises(UnsupportedFeatureError, match="collides"):
            batch_sdfg(make_bias_act().to_sdfg(), batch_symbol="N")

    def test_library_kind_without_rule_raises_clearly(self):
        @repro.program
        def outerprog(a: repro.float64[N], b: repro.float64[M]):
            o = np.outer(a, b)
            return np.sum(o)

        with pytest.raises(UnsupportedFeatureError, match="outer"):
            batch_sdfg(outerprog.to_sdfg())


# ---------------------------------------------------------------- vmap API
class TestVmapForward:
    @pytest.mark.parametrize("optimize", ["O0", "O3"])
    def test_matches_per_sample_loop(self, optimize):
        program = make_bias_act()
        data = bias_act_data()
        batched = vmap(program, in_axes=BIAS_ACT_AXES)
        compiled = batched.compile(optimize=optimize)
        base = program.compile()
        want = np.array([
            base(x=data["x"][b], r=data["r"][b], bias=data["bias"])
            for b in range(3)
        ])
        np.testing.assert_allclose(compiled(**data), want, rtol=1e-12)

    def test_one_compilation_serves_every_batch_size(self):
        cache = CompilationCache()
        program = make_smooth_chain()
        sdfg = vmap(program).to_sdfg()
        rng = np.random.default_rng(1)
        base = program.compile()
        for batch in (1, 8, 64):
            compiled = compile_forward(sdfg, "O1", cache=cache).compiled
            A = rng.random((batch, 16)) + 0.5
            want = np.array([base(A=A[b]) for b in range(batch)])
            np.testing.assert_allclose(compiled(A=A), want, rtol=1e-12)
        assert len(cache) == 1
        assert cache.stats.hits == 2 and cache.stats.misses == 1

    def test_program_vmap_method_and_callable(self):
        program = make_smooth_chain()
        batched = program.vmap()
        assert isinstance(batched, BatchedProgram)
        A = np.linspace(0.5, 1.5, 2 * 12).reshape(2, 12)
        base = program.compile()
        want = np.array([base(A=A[b]) for b in range(2)])
        np.testing.assert_allclose(batched(A=A), want, rtol=1e-12)

    def test_vmap_pass_is_registered_and_fingerprinted(self):
        assert "vmap" in PASS_REGISTRY
        plain = Vmap()
        by_name = Vmap(in_axes={"x": 0})
        assert plain.fingerprint() != by_name.fingerprint()
        assert plain.fingerprint() == Vmap().fingerprint()

    def test_vmap_via_extra_passes(self):
        program = make_smooth_chain()
        compiled = compile_forward(
            program, "O1", extra_passes=[Vmap()], cache=False
        ).compiled
        A = np.linspace(0.5, 1.5, 2 * 12).reshape(2, 12)
        base = program.compile()
        want = np.array([base(A=A[b]) for b in range(2)])
        np.testing.assert_allclose(compiled(A=A), want, rtol=1e-12)


class TestVmapGradient:
    @pytest.mark.parametrize("optimize", ["O0", "O3"])
    def test_bias_act_vmap_grad_matches_per_sample_loop(self, optimize):
        program = make_bias_act()
        data = bias_act_data(batch=4)
        per_sample = repro.grad(program, wrt="x")
        want = np.stack([
            per_sample(x=data["x"][b], r=data["r"][b], bias=data["bias"])
            for b in range(4)
        ])
        batched_of_grad = vmap(
            repro.grad(program, wrt="x", optimize=optimize), in_axes=BIAS_ACT_AXES
        )
        np.testing.assert_allclose(batched_of_grad(**data), want, rtol=GRAD_RTOL)
        grad_of_batched = repro.grad(
            vmap(program, in_axes=BIAS_ACT_AXES), wrt="x", optimize=optimize
        )
        np.testing.assert_allclose(grad_of_batched(**data), want, rtol=GRAD_RTOL)

    @pytest.mark.parametrize("optimize", ["O0", "O3"])
    def test_smooth_chain_vmap_grad_matches_per_sample_loop(self, optimize):
        program = make_smooth_chain()
        rng = np.random.default_rng(7)
        A = rng.random((3, 20)) + 0.5
        per_sample = repro.grad(program, wrt="A")
        want = np.stack([per_sample(A=A[b]) for b in range(3)])
        got = vmap(repro.grad(program, wrt="A", optimize=optimize))(A=A)
        np.testing.assert_allclose(got, want, rtol=GRAD_RTOL)
        got = repro.grad(vmap(program), wrt="A", optimize=optimize)(A=A)
        np.testing.assert_allclose(got, want, rtol=GRAD_RTOL)

    def test_matches_jaxlike_vmap_reference(self):
        data = bias_act_data(batch=3, seed=5)

        def loss(x, r, bias):
            jnp = jaxlike.numpy
            pre = x + jaxlike.asarray(bias)
            act = jnp.maximum(pre, 0.0)
            out = act + jaxlike.asarray(r)
            return jnp.sum(out * out)

        reference = jaxlike.vmap(jaxlike.grad(loss), in_axes=(0, 0, None))(
            data["x"], data["r"], data["bias"]
        )
        got = vmap(repro.grad(make_bias_act(), wrt="x"), in_axes=BIAS_ACT_AXES)(**data)
        np.testing.assert_allclose(got, reference, rtol=1e-9)

    def test_shared_weight_matmul_gradient_raises_clearly(self):
        K = repro.symbol("K")

        @repro.program
        def mm(a: repro.float64[N, K], w: repro.float64[K, M]):
            h = a @ w
            return np.sum(h * h)

        from repro.util.errors import AutodiffError

        batched = vmap(mm, in_axes={"a": 0, "w": None})
        with pytest.raises(AutodiffError, match="batched matmul"):
            repro.grad(batched, wrt="a")


# ---------------------------------------------------------------- serialize
class TestSerializeRoundTrip:
    def _roundtrip(self, sdfg):
        payload = sdfg_to_dict(sdfg)
        restored = sdfg_from_dict(payload)
        assert json.dumps(sdfg_to_dict(restored), sort_keys=True) == json.dumps(
            payload, sort_keys=True
        )
        return restored

    def test_vmapped_sdfg_roundtrips(self):
        info = batch_sdfg(make_bias_act().to_sdfg(), in_axes=BIAS_ACT_AXES)
        restored = self._roundtrip(info.sdfg)
        assert restored.arrays["x"].shape[0] == Sym(info.batch_symbol)

    def test_o3_fused_vmapped_sdfg_roundtrips(self):
        sdfg = vmap(make_smooth_chain()).to_sdfg()
        manager = PassManager(
            [GlobalValueNumbering(), MapFusion(cost_driven=True)],
            name="fuse-only",
        )
        fused, report = manager.run(sdfg)
        assert report.record_for("map-fusion").info["maps_fused"] >= 1
        self._roundtrip(fused)


# ---------------------------------------------------------------- serving
class TestBatchQueue:
    def _batched_bias_act(self):
        return vmap(make_bias_act(), in_axes=BIAS_ACT_AXES).compile()

    def test_coalesces_queued_requests_deterministically(self):
        data = bias_act_data(batch=10, seed=3)
        compiled = self._batched_bias_act()
        base = make_bias_act().compile()
        queue = BatchQueue(
            compiled, max_batch=8, max_wait_ms=50.0,
            static_kwargs={"bias": data["bias"]},
        )
        with queue:
            queue.hold()  # stage requests for deterministic batch formation
            futures = [
                queue.submit(x=data["x"][b], r=data["r"][b]) for b in range(10)
            ]
            queue.release()
            results = [future.result(timeout=30) for future in futures]
        want = [
            base(x=data["x"][b], r=data["r"][b], bias=data["bias"])
            for b in range(10)
        ]
        np.testing.assert_allclose(results, want, rtol=1e-12)
        # 10 pre-queued requests against max_batch=8: exactly two dispatches.
        assert queue.stats.batches == 2
        assert queue.stats.batched_samples == queue.stats.requests == 10
        assert queue.stats.max_batch_observed == 8

    def test_concurrent_submitters_all_get_their_own_result(self):
        data = bias_act_data(batch=16, seed=11)
        compiled = self._batched_bias_act()
        base = make_bias_act().compile()
        results = {}
        barrier = threading.Barrier(8)

        with BatchQueue(
            compiled, max_batch=16, max_wait_ms=20.0,
            static_kwargs={"bias": data["bias"]},
        ) as queue:
            def client(start):
                barrier.wait()
                for b in range(start, start + 2):
                    results[b] = queue(x=data["x"][b], r=data["r"][b])

            threads = [threading.Thread(target=client, args=(2 * t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert queue.stats.batched_samples == queue.stats.requests == 16
        for b in range(16):
            want = base(x=data["x"][b], r=data["r"][b], bias=data["bias"])
            np.testing.assert_allclose(results[b], want, rtol=1e-12)

    def test_bucket_padding_rounds_up_and_discards(self):
        assert [bucketed(size, 8) for size in (1, 2, 3, 5, 8, 9)] == [1, 2, 4, 8, 8, 8]
        data = bias_act_data(batch=3, seed=4)
        compiled = self._batched_bias_act()
        queue = BatchQueue(
            compiled, max_batch=8, max_wait_ms=50.0, bucket=True,
            static_kwargs={"bias": data["bias"]},
        )
        with queue:
            queue.hold()
            futures = [queue.submit(x=data["x"][b], r=data["r"][b]) for b in range(3)]
            queue.release()
            results = [future.result(timeout=30) for future in futures]
        base = make_bias_act().compile()
        want = [base(x=data["x"][b], r=data["r"][b], bias=data["bias"]) for b in range(3)]
        np.testing.assert_allclose(results, want, rtol=1e-12)
        assert queue.stats.padded_samples == 1  # 3 -> bucket of 4
        assert queue.stats.batch_sizes == {4: 1}

    def test_serves_batched_gradients_with_dict_results(self):
        program = make_bias_act()
        data = bias_act_data(batch=4, seed=9)
        batched_grad = vmap(
            repro.grad(program, wrt=["x", "r"]), in_axes=BIAS_ACT_AXES
        )
        per_sample = repro.grad(program, wrt=["x", "r"])
        with BatchQueue(
            batched_grad, max_batch=4, max_wait_ms=50.0,
            static_kwargs={"bias": data["bias"]},
        ) as queue:
            got = queue(x=data["x"][0], r=data["r"][0])
        want = per_sample(x=data["x"][0], r=data["r"][0], bias=data["bias"])
        assert set(got) == {"x", "r"}
        np.testing.assert_allclose(got["x"], want["x"], rtol=GRAD_RTOL)
        np.testing.assert_allclose(got["r"], want["r"], rtol=GRAD_RTOL)

    def test_errors_propagate_to_futures(self):
        def boom(**kwargs):
            raise ValueError("kernel exploded")

        with BatchQueue(boom, max_wait_ms=1.0) as queue:
            future = queue.submit(x=np.zeros(2))
            with pytest.raises(ValueError, match="kernel exploded"):
                future.result(timeout=30)

    def test_closed_queue_rejects_submissions(self):
        queue = BatchQueue(lambda **kw: np.zeros(1), max_wait_ms=1.0)
        queue.close()
        with pytest.raises(RuntimeError, match="closed"):
            queue.submit(x=np.zeros(2))
