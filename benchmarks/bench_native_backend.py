"""Micro-benchmark: the native ("cython") backend on loop-heavy kernels.

The backend's reason to exist is the Figure-11 class of *non-vectorisable*
programs: sequential dependences (Gauss–Seidel sweeps, forward/back
substitutions, Levinson–Durbin recursions) force the NumPy backend into
per-element interpreted loops, which a single C compilation sweep away.
This benchmark measures the forward pass of the loop kernels at the paper
sizes through both backends and gates:

* **Correctness** — both backends agree to 1e-9 on every kernel (asserted
  for every measured kernel, always).
* **Performance** — the native backend is at least **3x** faster on at
  least **2** of the loop kernels.  (Measured speedups on the reference
  machine are 30-200x; the 3x gate only guards against the native path
  silently degenerating into the interpreted one.)

It also measures the gradients of the matmul-heavy kernels (k2mm, mlp) at
paper size, where both backends spend their time in BLAS — NumPy's under
the NumPy backend, SciPy's ``cython_blas`` inside the C segment under the
native one — and gates:

* **Correctness** — the gradients agree to 1e-9 of the largest reference
  entry (float64 k2mm; the float32 mlp gradient, which carries about seven
  digits, to 1e-5).
* **Performance** — the native gradient takes at most **1.25x** the NumPy
  backend's time.

Kernels where the native backend declines and falls back to NumPy are
reported as such and excluded from the speedup gate (a fallback comparison
would measure NumPy against itself).

Without a C toolchain the benchmark prints why and exits cleanly (CI
machines without ``cc`` skip it instead of failing).

Results (with backend + toolchain metadata stamped by ``_common``) go to
``benchmarks/results/native_backend.json``.

Run with:  python benchmarks/bench_native_backend.py
      or:  python -m pytest benchmarks/bench_native_backend.py -q -s
"""

from __future__ import annotations

import time

import numpy as np

from _common import write_results

from repro.harness import copy_data as _copy
from repro.harness import format_table, geometric_mean
from repro.npbench import get_kernel
from repro.pipeline import compile_forward, compile_gradient

#: Figure-11 loop kernels whose sequential dependences defeat vectorisation.
KERNELS = ["seidel2d", "durbin", "cholesky", "lu", "gramschmidt"]
PRESET = "paper"
REPEATS = 5
ATOL = 1e-9
#: The gate: >= SPEEDUP_TARGET on >= MIN_WINS kernels.
SPEEDUP_TARGET = 3.0
MIN_WINS = 2
#: BLAS-bound gradients; the gate: native time <= MAX_GRADIENT_RATIO x NumPy.
GRADIENT_KERNELS = ["k2mm", "mlp"]
MAX_GRADIENT_RATIO = 1.25
GRADIENT_REPEATS = 10
#: Gradient agreement, relative to the largest reference entry.
GRADIENT_TOLERANCE = {"float64": 1e-9, "float32": 1e-5}


def _have_toolchain() -> bool:
    from repro.codegen.cython_backend import find_c_compiler

    return find_c_compiler() is not None


def _time(compiled, data, repeats=REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        args = _copy(data)
        start = time.perf_counter()
        compiled(**args)
        best = min(best, time.perf_counter() - start)
    return best


def bench_kernel(name: str) -> dict:
    """One kernel through both backends: agreement check + timings."""
    spec = get_kernel(name)
    data = spec.data(PRESET)
    program = spec.program_for(PRESET)

    reference = compile_forward(program, "O3", cache=False)
    native = compile_forward(program, "O3", cache=False, backend="cython")

    row = {
        "kernel": name,
        "preset": PRESET,
        "backend": native.report.backend,
        "fallback": native.report.backend_fallback,
    }
    if native.report.backend != "cython":
        return row  # declined: nothing native to measure

    expected = reference.compiled(**_copy(data))
    actual = native.compiled(**_copy(data))
    np.testing.assert_allclose(actual, expected, rtol=0, atol=ATOL)

    numpy_seconds = _time(reference.compiled, data)
    native_seconds = _time(native.compiled, data)
    row.update(
        numpy_seconds=numpy_seconds,
        native_seconds=native_seconds,
        speedup=numpy_seconds / native_seconds,
    )
    return row


def bench_gradient(name: str) -> dict:
    """One kernel's gradient through both backends: agreement + timings."""
    spec = get_kernel(name)
    data = spec.data(PRESET)
    program = spec.program_for(PRESET)

    reference = compile_gradient(program, wrt=[spec.wrt], cache=False)
    native = compile_gradient(program, wrt=[spec.wrt], cache=False,
                              backend="cython")
    assert native.report.backend == "cython", native.report.backend_fallback

    expected = np.asarray(reference.compiled(**_copy(data)))
    actual = native.compiled(**_copy(data))
    scale = float(np.max(np.abs(expected)))
    np.testing.assert_allclose(
        actual, expected, rtol=0,
        atol=GRADIENT_TOLERANCE[expected.dtype.name] * scale,
    )

    numpy_seconds = _time(reference.compiled, data, GRADIENT_REPEATS)
    native_seconds = _time(native.compiled, data, GRADIENT_REPEATS)
    return {
        "kernel": f"{name} (grad)",
        "preset": PRESET,
        "numpy_seconds": numpy_seconds,
        "native_seconds": native_seconds,
        "ratio": native_seconds / numpy_seconds,
    }


def run_native_benchmark() -> dict:
    rows = [bench_kernel(name) for name in KERNELS]
    measured = [row for row in rows if "speedup" in row]
    speedups = [row["speedup"] for row in measured]
    gradients = [bench_gradient(name) for name in GRADIENT_KERNELS]
    payload = {
        "preset": PRESET,
        "repeats": REPEATS,
        "speedup_target": SPEEDUP_TARGET,
        "min_wins": MIN_WINS,
        "kernels": rows,
        "wins": sum(1 for s in speedups if s >= SPEEDUP_TARGET),
        "geomean_speedup": geometric_mean(speedups),
        "max_gradient_ratio": MAX_GRADIENT_RATIO,
        "gradients": gradients,
    }
    path = write_results("native_backend", payload)

    print()
    print(format_table(
        ["kernel", "numpy [ms]", "native [ms]", "speedup", "note"],
        [
            [
                row["kernel"],
                row.get("numpy_seconds", float("nan")) * 1e3,
                row.get("native_seconds", float("nan")) * 1e3,
                row.get("speedup"),
                row["fallback"] or "",
            ]
            for row in rows
        ],
        title=(
            f"native backend vs numpy, forward @ {PRESET} sizes "
            f"(geo-mean {payload['geomean_speedup']:.1f}x, "
            f"{payload['wins']}/{len(measured)} kernels >= {SPEEDUP_TARGET:.0f}x)"
        ),
    ))
    print(format_table(
        ["gradient", "numpy [ms]", "native [ms]", "native/numpy"],
        [
            [row["kernel"], row["numpy_seconds"] * 1e3,
             row["native_seconds"] * 1e3, row["ratio"]]
            for row in gradients
        ],
        title=(
            f"BLAS-bound gradients @ {PRESET} sizes "
            f"(gate: native <= {MAX_GRADIENT_RATIO}x numpy)"
        ),
    ))
    print(f"results written to {path}")
    return payload


def check_gates(payload: dict) -> None:
    # At least two loop kernels actually took the native path and beat the
    # interpreted backend by the target factor.
    assert payload["wins"] >= MIN_WINS, (
        f"native backend won on only {payload['wins']} kernels "
        f"(need >= {MIN_WINS} at {SPEEDUP_TARGET}x)"
    )
    # BLAS-bound gradients are no slower native than under NumPy.
    slow = [row for row in payload["gradients"]
            if row["ratio"] > MAX_GRADIENT_RATIO]
    assert not slow, (
        "native gradient slower than "
        f"{MAX_GRADIENT_RATIO}x numpy: "
        + ", ".join(f"{row['kernel']} {row['ratio']:.2f}x" for row in slow)
    )


def test_native_backend_meets_gates():
    import pytest

    if not _have_toolchain():
        pytest.skip("no C compiler on PATH")
    check_gates(run_native_benchmark())


if __name__ == "__main__":
    if not _have_toolchain():
        print("bench_native_backend: skipped (no C compiler on PATH — "
              "install cc/gcc/clang or set $REPRO_CC)")
        raise SystemExit(0)
    check_gates(run_native_benchmark())
