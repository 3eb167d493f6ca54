"""Gradient benchmark: one workload per run.

    python3 gradbench/run.py --workload small_grads --seed 1 --seconds 25 --trace 0

Runs one workload (see README.md next to this file) and prints every
metric by name and unit, then, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` spends
half the time untraced and half with ``repro.obs`` tracing on, reports the
per-layer metrics and writes a Chrome trace under ``gradbench/out/``.
Exits non-zero if any output is wrong; the one known failure is reported
but is not an operation of the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Cold set-ups per run; ``setup_s`` is their median.  A paper-size set-up
#: takes about 3 s, the others well under a second, so they repeat more.
SETUP_REPS = {"small_grads": 5, "paper_grads": 3, "serve_grads": 5}

# One process, at most two threads (the caller and the serving worker):
# BLAS must not start a pool of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def pin_to_one_cpu() -> None:
    """Run every thread of the benchmark on one CPU.  The serving worker and
    the submitter hand the interpreter lock back and forth; across two
    virtual CPUs each hand-off waits for the other CPU to be scheduled, and
    saturated throughput varied 2x between identical runs (4.5k-9.8k req/s);
    on one CPU it stayed within 8.3k-9.8k."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("small_grads", "paper_grads", "serve_grads"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def median_of(setups, get) -> float:
    values = sorted(get(s) for s in setups)
    return float(values[len(values) // 2])


def end_to_end(result: dict) -> dict:
    return {
        "setup_s": median_of(result["setups"], lambda s: s.total_ns) / 1e9,
        "ok_frac": result["ledger"].ok_frac,
        "grad_peak_mib": sum(result["peaks"].values()),
        **result["e2e"],
    }


def per_layer(result: dict, spans: dict) -> dict:
    from bench_core import BACKENDS, PASS_STAGES, geomean
    from bench_grads import paper_variant_names

    setups = result["setups"]

    def setup_ms(get):
        return median_of(setups, get) / 1e6

    def span_total(name, own=False):
        count, total, self_ns = spans.get(name, (0, 0, 0))
        return (self_ns if own else total), count

    metrics = {
        "frontend.lower_ms": setup_ms(lambda s: s.frontend_ns),
        "pipeline.hash_ms": result["hash_ms"],
        "pipeline.hit_ms": result["hit_ms"],
        "pipeline.hit_rate": result["hit_rate"],
        "autodiff.ad_ms": setup_ms(lambda s: s.ad_ns),
        "checkpointing.select_ms": setup_ms(lambda s: s.select_ns),
        "checkpointing.recomputed": result.get("recomputed", 0),
        "checkpointing.modeled_peak_mib": result.get("modeled_peak_mib", 0.0),
        "checkpointing.storeall_peak_mib": result.get("storeall_peak_mib", 0.0),
        "native.builds": median_of(setups, lambda s: s.builds),
        "native.artifact_hits": median_of(setups, lambda s: s.artifact_hits),
        "native.fallbacks": median_of(setups, lambda s: s.fallbacks),
        "checkpointing.infeasible": median_of(setups, lambda s: s.infeasible),
        "native.native_share": result["native_share"],
        "batching.vmap_compile_ms": setup_ms(lambda s: s.vmap_ns),
        "runtime.gc_pause_ms": result["gc_pause_ms"],
    }
    for backend in BACKENDS:
        metrics[f"pipeline.compile_ms.{backend}"] = setup_ms(lambda s: s.compile_ns[backend])
        metrics[f"codegen.emit_ms.{backend}"] = setup_ms(lambda s: s.emit_ns[backend])
    for stage in PASS_STAGES:
        metrics[f"passes.{stage}_ms"] = setup_ms(lambda s: s.pass_ns[stage])
        metrics[f"passes.{stage}_nodes_after"] = median_of(setups, lambda s: s.pass_nodes[stage])

    bind_ns, calls = span_total("call.bind")
    kernel_ns, _ = span_total("call.kernel")
    post_ns, _ = span_total("call", own=True)
    call_ns, _ = span_total("call")
    metrics["call.bind_ms"] = bind_ns / 1e6 / max(calls, 1)
    metrics["call.kernel_ms"] = kernel_ns / 1e6 / max(calls, 1)
    metrics["call.post_ms"] = post_ns / 1e6 / max(calls, 1)
    metrics["call.bind_share"] = bind_ns / call_ns if call_ns else 0.0

    for name in paper_variant_names():
        metrics[f"kernel.{name}_ms"] = result["variant_ms"].get(name, 0.0)
        metrics[f"mem.{name}_mib"] = result["peaks"].get(name, 0.0)

    serve = result.get("serve", {})
    for key in ("dispatch_p50_ms", "dispatch_p99_ms", "batch_fill", "worker_busy",
                "overhead_ms", "open_p50_ms", "open_p99_ms", "gen_late_ms"):
        metrics[f"serve.{key}"] = serve.get(key, 0.0)

    # Absolute times, from the untraced half: they move with the host's
    # speed, so they are per-layer figures rather than bounded ones.
    times = result["untraced"]["times"]
    for key in ("req_p50_ms", "req_p99_ms", "req_per_s",
                *(f"grad_geomean_ms.{b}" for b in BACKENDS)):
        metrics[f"call.{key}"] = times[key]
    metrics["pipeline.hit_p99_ms"] = times["recompile_p99_ms"]
    metrics["baseline.grad_geomean_ms"] = times["baseline_geomean_ms"]

    # Through the speedups, so that host drift between the halves cancels:
    # the baseline runs untraced in both.
    traced = geomean([result["e2e"][f"speedup.{b}"] for b in BACKENDS])
    untraced = geomean([result["untraced"]["e2e"][f"speedup.{b}"] for b in BACKENDS])
    metrics["trace.overhead_pct"] = (untraced / traced - 1.0) * 100.0
    return metrics


def emit(metrics: dict, declared: list) -> dict:
    """Check the produced metrics against the declared list and attach units."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not produced: {missing}")
    return {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in declared}


def print_report(args, result, metrics, spans, trace_path) -> None:
    ledger = result["ledger"]
    print(f"== {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, entry in metrics.items():
        print(f"  {name:44s} {entry['value']:14.6g} {entry['unit']}")
    print(f"  attempted {ledger.attempted}, failed {ledger.failed}")
    for what in sorted(set(ledger.known)):
        print(f"  known failure, {ledger.known.count(what)}x (not an operation): {what}")
    for what in ledger.unexpected:
        print(f"  FAILURE: {what}")
    if spans:
        print("  self time by span (ms, top 12):")
        top = sorted(spans.items(), key=lambda kv: -kv[1][2])[:12]
        for name, (count, total, own) in top:
            print(f"    {name:40s} n={count:7d} total={total / 1e6:10.2f} self={own / 1e6:10.2f}")
    if trace_path:
        print(f"  chrome trace: {os.path.relpath(trace_path, ROOT)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"gradbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    sys.path.insert(0, SRC)
    pin_to_one_cpu()

    from repro import obs

    import bench_core
    from bench_grads import paper_grads, small_grads
    from bench_serve import serve_grads

    workloads = {"small_grads": small_grads, "paper_grads": paper_grads,
                 "serve_grads": serve_grads}
    scratch = os.path.join(HERE, ".work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        if args.trace:
            obs.enable(capacity=1 << 19)
        result = workloads[args.workload](
            args.seed, args.seconds, bool(args.trace), workdir, SETUP_REPS[args.workload])
        obs.disable()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(scratch):
            os.rmdir(scratch)

    spans, trace_path = {}, None
    if args.trace:
        records = obs.TRACER.spans()
        spans = bench_core.self_times(records)
        trace_path = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}.trace.json")
        obs.export_chrome(trace_path, spans=records)
        metrics = emit(per_layer(result, spans), spec["per_layer"])
    else:
        metrics = emit(end_to_end(result), spec["end_to_end"])

    ledger = result["ledger"]
    print_report(args, result, metrics, spans, trace_path)
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0 if ledger.correct else 1


if __name__ == "__main__":
    sys.exit(main())
