"""Property test: no two fuzz-matrix configurations share a cache key.

Cache keys are ``(sdfg.content_hash(), manager.fingerprint(),
ctx.fingerprint())`` — constructible without compiling, so this sweeps the
full ``{O0..O3} x {forward, grad, vmap, vmap∘grad} x {numpy, cython}``
matrix over a sample of generated programs and asserts all 32 keys are
pairwise distinct.  A collision here would mean one configuration silently
serving another's compiled artifact (the exact failure mode the
differential harness's shared-cache design is meant to surface).
"""

import pytest

from repro.batching import vmap as repro_vmap
from repro.batching.vmap import Vmap
from repro.fuzz import CaseSpec, ProgramGenerator, build_sdfg, hard_templates
from repro.pipeline.driver import CompileOptions, build_pipeline
from repro.pipeline.pass_base import PassContext
from repro.util.errors import UnsupportedFeatureError


def _matrix_keys(program):
    """One cache key per configuration, built without compiling anything.

    Programs the batching transform rejects (e.g. data-dependent branches —
    a recorded *skip* in the differential harness) contribute no ``vmap``
    keys, mirroring the configurations that can actually reach the cache.
    """
    spec = CaseSpec.from_program(program)
    sdfg = build_sdfg(spec.repro_source, spec.args, spec.dtype, spec.name)
    try:
        batched = repro_vmap(sdfg, in_axes=spec.in_axes()).to_sdfg()
    except UnsupportedFeatureError:
        batched = None
    wrt = spec.wrt()
    ctx_fp = PassContext().fingerprint()

    keys = {}
    for tier in ("O0", "O1", "O2", "O3"):
        for backend in (None, "cython"):
            label = backend or "numpy"
            managers = {
                "forward": (sdfg, build_pipeline(
                    CompileOptions(tier, backend=backend))),
                "grad": (sdfg, build_pipeline(CompileOptions(
                    tier, gradient=True, wrt=wrt, backend=backend))),
                # repro.vmap compiles the *batched* SDFG for forward calls...
                "vmap": (batched, build_pipeline(
                    CompileOptions(tier, backend=backend))),
                # ...and replays the gradient pipeline with the Vmap pass
                # inserted pre-AD for vmap(grad(f)).
                "vmap_grad": (sdfg, build_pipeline(CompileOptions(
                    tier, gradient=True, wrt=wrt, backend=backend,
                    extra_passes=(Vmap(in_axes=spec.in_axes()),)))),
            }
            for mode, (which_sdfg, manager) in managers.items():
                if which_sdfg is None:
                    continue
                keys[(tier, mode, label)] = (
                    which_sdfg.content_hash(), manager.fingerprint(), ctx_fp,
                )
    return keys


def _assert_distinct(keys):
    seen = {}
    for config, key in keys.items():
        assert key not in seen, (
            f"cache-key collision between {seen[key]} and {config}"
        )
        seen[key] = config


@pytest.mark.parametrize("seed", [0, 13, 99])
def test_generated_programs_get_distinct_keys_per_config(seed):
    program = ProgramGenerator(seed).random_program()
    keys = _matrix_keys(program)
    assert len(keys) in (24, 32)  # 24 when the program is not batchable
    _assert_distinct(keys)


@pytest.mark.parametrize("template_index", [0, 4, 6])
def test_hard_templates_get_distinct_keys_per_config(template_index):
    program = hard_templates()[template_index]
    _assert_distinct(_matrix_keys(program))


def test_different_programs_never_share_keys():
    generator = ProgramGenerator(7)
    first = _matrix_keys(generator.random_program())
    second = _matrix_keys(generator.random_program())
    assert not set(first.values()) & set(second.values())


@pytest.mark.parametrize("tier", ["O0", "O1", "O2", "O3"])
def test_planning_knob_never_collides_fingerprints(tier):
    """The ``--planning`` fuzz dimension flips ``memory_planning`` on/off per
    configuration; wherever that changes the pipeline, the fingerprint must
    change with it (plan-on at O2+ *is* the default, so those two legally
    share a key — serving the default artifact for an explicit plan-on
    request is correct, not a collision)."""
    default = build_pipeline(CompileOptions(tier)).fingerprint()
    on = build_pipeline(CompileOptions(tier, memory_planning=True)).fingerprint()
    off = build_pipeline(CompileOptions(tier, memory_planning=False)).fingerprint()
    assert on != off
    if tier in ("O2", "O3"):
        assert default == on  # planning is the tier default
    else:
        assert default == off
    # The gradient pipelines make the same distinction.
    grad_on = build_pipeline(CompileOptions(
        tier, gradient=True, wrt=["A"], memory_planning=True)).fingerprint()
    grad_off = build_pipeline(CompileOptions(
        tier, gradient=True, wrt=["A"], memory_planning=False)).fingerprint()
    assert grad_on != grad_off
    assert grad_on != on
