"""One compile request, whichever entry point spells it.

``repro.compile``, ``repro.grad``, ``GradientFunction`` and
``compile_gradient`` are keyword sugar over the same request, so the same
request compiles once; ``repro.vmap(gf)`` recompiles a gradient with the
batching pass added and every other part of the request unchanged.
"""

import numpy as np
import pytest

import repro
from repro.autodiff import GradientFunction
from repro.checkpointing import ILPCheckpointing
from repro.codegen.cython_backend import find_c_compiler
from repro.pipeline import CompilationCache, compile_gradient

N = repro.symbol("N")


def make_configured():
    @repro.program
    def configured(A: repro.float64[N], cfg: repro.int64):
        T = A * 1.0
        if cfg == 1:
            T[:] = np.sin(A) * A
        U = T * T
        return np.sum(U * A)

    return configured


def make_poly():
    @repro.program
    def poly(A: repro.float64[N]):
        B = A * A + 3.0 * A
        return np.sum(B)

    return poly


@pytest.mark.parametrize("backend", [
    None,
    pytest.param("cython", marks=pytest.mark.skipif(
        find_c_compiler() is None, reason="no C toolchain")),
])
def test_vmap_of_gradient_replays_every_field(backend):
    strategy = ILPCheckpointing(memory_limit_mib=64.0, symbol_values={"N": 6, "S": 3})
    gf = GradientFunction(
        make_configured(), wrt="A", strategy=strategy, return_value=True,
        optimize="O3", symbol_values={"cfg": 1}, memory_planning=False,
        backend=backend, cache=CompilationCache(),
    )
    batched = repro.vmap(gf, batch_symbol="S")

    report = batched.report
    assert report.pipeline == "grad-O3"
    assert report.record_for("vmap").info["batch_symbol"] == "S"
    assert report.record_for("codegen").info["backend"] == (backend or "numpy")
    assert report.record_for("checkpointing-selection").info["strategy"] == "ILPCheckpointing"
    assert report.record_for("memory-planning") is None
    # symbol_values reached the batched compile: the cfg branch was pruned.
    assert report.record_for("prune-constant-branches").info["conditionals_removed"] == 1
    # The ILP priced the batched containers (3 samples of 6 float64).
    assert {c.store_bytes for c in strategy.last_report.candidate_costs} == {3 * 6 * 8}

    A = np.random.default_rng(0).random((3, 6))
    values, grads = batched(A=A.copy(), cfg=1)
    for sample in range(3):
        value, grad = gf(A=A[sample].copy(), cfg=1)
        np.testing.assert_allclose(values[sample], value, rtol=1e-12)
        np.testing.assert_allclose(grads[sample], grad, rtol=1e-12)


def test_entry_points_share_one_cache_entry(monkeypatch):
    # repro.grad has no cache= argument: point the process-wide default at a
    # private instance so all four spellings meet in one cache.
    cache = CompilationCache()
    monkeypatch.setattr("repro.pipeline.driver.DEFAULT_CACHE", cache)
    program = make_poly()

    first = repro.compile(program, wrt="A")
    assert not first.cache_hit
    via_grad = repro.grad(program, wrt="A")
    via_class = GradientFunction(program, wrt="A")
    via_driver = compile_gradient(program, wrt=["A"])

    assert len(cache) == 1
    assert via_grad.cache_hit and via_class.cache_hit and via_driver.cache_hit
    assert via_grad.compiled is first.compiled
    assert via_class.compiled is first.compiled
    assert via_driver.compiled is first.compiled
    assert cache.stats.hits == 3 and cache.stats.misses == 1
