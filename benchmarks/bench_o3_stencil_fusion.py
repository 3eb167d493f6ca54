"""Micro-benchmark: the ``optimize="O3"`` cost-model fusion tier.

Two claims of the O3 tier are measured and (under pytest) asserted:

* **Stencil-offset fusion pays.**  ``smooth_chain`` — an eight-stage
  binomial smoothing cascade whose every stage reads its predecessor at two
  distinct offsets — does not fuse at ``O2`` at all (offset reads are
  skipped without a cost model).  At ``O3`` the whole cascade fuses into one
  map and code generation evaluates each stage once over its union window
  (``__stencil`` temporaries, `src/repro/codegen/stencil.py`): the forward
  pass must be **>= 1.3x** faster than ``O2``.
* **Gradient-aware fusion closes the O2 regression.**  On ``bias_act`` the
  blind O2 fuser removes arrays the backward pass reads, making the O2
  gradient slower than O1 (recorded in PR 2).  The O3 gradient pipeline
  prices that backward recomputation and declines those fusions: the O3
  gradient must be **no slower than O1** (small tolerance for timer noise).

Correctness gates (always asserted):

* O3 forward values match O2/O1 exactly;
* O3 gradients match unoptimised ``O0`` gradients to 1e-9;
* the four levels ``O0``-``O3`` have pairwise distinct pipeline
  fingerprints, so each gets its own compilation-cache entry.

Results go to ``benchmarks/results/o3_stencil_fusion.json`` via the shared
``_common.write_results`` helper.

Run with:  python benchmarks/bench_o3_stencil_fusion.py
      or:  python -m pytest benchmarks/bench_o3_stencil_fusion.py -q -s
"""

from __future__ import annotations

import time

import numpy as np

from _common import write_results

from repro.harness import copy_data as _copy
from repro.harness import format_table
from repro.npbench import get_kernel
from repro.pipeline import CompileOptions, build_pipeline, compile_forward, compile_gradient

STENCIL_KERNEL = "smooth_chain"
GRADIENT_KERNEL = "bias_act"
REPEATS = 9
SPEEDUP_TARGET = 1.3
GRAD_RTOL = 1e-9
#: O3-vs-O1 gradient gate: "no slower", with headroom for timer noise only.
GRAD_NOISE_TOLERANCE = 1.05


def _time(compiled, data, repeats=REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        args = _copy(data)
        start = time.perf_counter()
        compiled(**args)
        best = min(best, time.perf_counter() - start)
    return best


def bench_stencil(preset: str = "paper") -> dict:
    """smooth_chain forward at O2 vs O3 + gradient equivalence with O0."""
    spec = get_kernel(STENCIL_KERNEL)
    data = spec.data(preset)
    program = spec.program_for(preset)

    outcomes = {
        level: compile_forward(program, level, cache=False)
        for level in ("O2", "O3")
    }
    fwd2 = outcomes["O2"].compiled(**_copy(data))
    fwd3 = outcomes["O3"].compiled(**_copy(data))
    np.testing.assert_allclose(fwd3, fwd2, rtol=1e-12)

    g0 = np.asarray(
        compile_gradient(program, wrt=spec.wrt, optimize="O0", cache=False)
        .compiled(**_copy(data))
    )
    g3 = np.asarray(
        compile_gradient(program, wrt=spec.wrt, optimize="O3", cache=False)
        .compiled(**_copy(data))
    )
    np.testing.assert_allclose(g3, g0, rtol=GRAD_RTOL)

    record2 = outcomes["O2"].report.record_for("map-fusion")
    record3 = outcomes["O3"].report.record_for("map-fusion")
    times = {level: _time(out.compiled, data) for level, out in outcomes.items()}
    return {
        "kernel": STENCIL_KERNEL,
        "preset": preset,
        "maps_fused": {
            "O2": record2.info.get("maps_fused", 0) if record2 else 0,
            "O3": record3.info.get("maps_fused", 0) if record3 else 0,
        },
        "stencil_fusions": record3.info.get("fused_stencil", 0) if record3 else 0,
        "forward_seconds": times,
        "forward_speedup": times["O2"] / times["O3"],
        "o3_report": outcomes["O3"].report.pretty(),
    }


def bench_gradient_regression(preset: str = "paper") -> dict:
    """bias_act gradient at O1 vs O2 vs O3 (gradient-aware fusion)."""
    spec = get_kernel(GRADIENT_KERNEL)
    data = spec.data(preset)
    program = spec.program_for(preset)

    grads = {
        level: compile_gradient(program, wrt=spec.wrt, optimize=level, cache=False)
        for level in ("O0", "O1", "O2", "O3")
    }
    g0 = np.asarray(grads["O0"].compiled(**_copy(data)))
    g3 = np.asarray(grads["O3"].compiled(**_copy(data)))
    np.testing.assert_allclose(g3, g0, rtol=GRAD_RTOL)

    record = grads["O3"].report.record_for("map-fusion")
    times = {
        level: _time(grads[level].compiled, data) for level in ("O1", "O2", "O3")
    }
    return {
        "kernel": GRADIENT_KERNEL,
        "preset": preset,
        "gradient_seconds": times,
        "o3_vs_o1": times["O1"] / times["O3"],
        "declined_gradient_fusions": (
            record.info.get("declined_gradient", 0) if record else 0
        ),
    }


def distinct_fingerprints() -> int:
    """Number of distinct pipeline fingerprints across O0-O3 (must be 4 so
    every level gets its own compilation-cache entry)."""
    return len({build_pipeline(CompileOptions(level)).fingerprint()
                for level in ("O0", "O1", "O2", "O3")})


def run_o3_benchmark() -> dict:
    stencil = bench_stencil()
    gradient = bench_gradient_regression()
    payload = {
        "repeats": REPEATS,
        "speedup_target": SPEEDUP_TARGET,
        "stencil": stencil,
        "gradient": gradient,
        "distinct_fingerprints": distinct_fingerprints(),
    }
    path = write_results("o3_stencil_fusion", payload)

    print()
    print(format_table(
        ["kernel", "measure", "O1 [ms]", "O2 [ms]", "O3 [ms]", "O3 speedup"],
        [
            [
                stencil["kernel"], "forward", None,
                stencil["forward_seconds"]["O2"] * 1e3,
                stencil["forward_seconds"]["O3"] * 1e3,
                stencil["forward_speedup"],
            ],
            [
                gradient["kernel"], "gradient",
                gradient["gradient_seconds"]["O1"] * 1e3,
                gradient["gradient_seconds"]["O2"] * 1e3,
                gradient["gradient_seconds"]["O3"] * 1e3,
                gradient["o3_vs_o1"],
            ],
        ],
        title=(
            f"O3 cost-model fusion: {stencil['kernel']} forward "
            f"{stencil['forward_speedup']:.2f}x over O2, {gradient['kernel']} "
            f"grad {gradient['o3_vs_o1']:.2f}x vs O1"
        ),
    ))
    print()
    print("O3 pipeline of", stencil["kernel"])
    print(stencil["o3_report"])
    print(f"results written to {path}")
    return payload


def test_o3_stencil_fusion_meets_gates():
    payload = run_o3_benchmark()
    stencil, gradient = payload["stencil"], payload["gradient"]
    # The cascade actually fused (O2 leaves every offset read alone).
    assert stencil["maps_fused"]["O2"] == 0
    assert stencil["stencil_fusions"] >= 7
    assert stencil["forward_speedup"] >= SPEEDUP_TARGET
    # Gradient-aware fusion declined the nonlinear candidates and closed the
    # O2 gradient regression.
    assert gradient["declined_gradient_fusions"] >= 1
    assert (
        gradient["gradient_seconds"]["O3"]
        <= gradient["gradient_seconds"]["O1"] * GRAD_NOISE_TOLERANCE
    )
    # Every optimization level is a distinct cache key.
    assert payload["distinct_fingerprints"] == 4


if __name__ == "__main__":
    run_o3_benchmark()
