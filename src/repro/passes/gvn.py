"""Global value numbering across the control-flow tree.

The frontend gives every assignment its own state, so two statements
computing the same expression (``a = x*y+1`` followed later by
``b = x*y+1``) are duplicates in *different* states.  This pass matches
element-wise maps by their canonical key
(:mod:`repro.passes.elementwise`: alpha-renamed expression, input memlets,
output shape/dtype) over the *global* program order produced by
:mod:`repro.passes.liveness`, merging duplicates within and across state
boundaries (the ``optimize="O2"``/``"O3"`` duplicate-work stage).

Scope and safety:

* Both definitions must sit in the **same control-flow region** — two states
  of the same (possibly nested) region body.  This makes the merge
  unconditionally sound: whenever the duplicate executes, the survivor has
  executed in the same iteration of every enclosing loop, and the
  no-intervening-write window check below guarantees equal inputs.
  Definitions in different conditional branches, or inside vs. outside a
  loop, are **not** merged — the survivor might not have executed (or might
  hold another iteration's value) on the duplicate's path.  Those remain
  pinned as unsupported.
* Between the two definitions there must be **no write** (at any nesting
  depth — conditional and loop-body writes count) to any input of the
  survivor or to its output; otherwise the later node takes over as the
  merge candidate.
* The duplicate's output must be an unprotected transient with no opaque
  (control-flow) reads, and both nodes must be the sole writers of their
  containers.

Every merged duplicate also removes one container from the program before
AD runs — the backward pass then stores and streams one value instead of
two, the saved-traffic credit the cost model prices via
``CostModelConfig.backward_traffic_credit``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.ir.nodes import MapCompute
from repro.ir.usage import collect_uses
from repro.passes.elementwise import _node_key, _redirect_reads, _sole_writer, dedupe_connectors
from repro.passes.liveness import compute_liveness

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ir.sdfg import SDFG


@dataclass
class GVNResult:
    """Counts from one :func:`global_value_numbering` run."""

    nodes_merged: int = 0
    connectors_merged: int = 0
    #: ``(removed container, surviving container)`` per merge, in order.
    merged: list = None

    def __post_init__(self) -> None:
        if self.merged is None:
            self.merged = []


def global_value_numbering(
    sdfg: "SDFG", protect: Iterable[str] = ()
) -> GVNResult:
    """Merge duplicate element-wise maps across states (module docstring has
    the exact soundness conditions).  ``protect`` names containers that must
    survive; the return container always does."""
    protected = set(protect)
    return_name = getattr(sdfg, "return_name", None)
    if return_name:
        protected.add(return_name)

    result = GVNResult()
    for state in sdfg.all_states():
        for node in state.nodes:
            result.connectors_merged += dedupe_connectors(node)

    # One merge per sweep: every merge renames reads SDFG-wide, which can
    # make two previously distinct nodes identical, so re-analyze until a
    # fixed point — program sizes keep this cheap.
    merged = _merge_one(sdfg, protected)
    while merged is not None:
        result.nodes_merged += 1
        result.merged.append(merged)
        merged = _merge_one(sdfg, protected)
    return result


def _merge_one(sdfg: "SDFG", protected: set):
    info = compute_liveness(sdfg)
    uses = collect_uses(sdfg)

    def window_written_between(window: set, lo: int, hi: int) -> bool:
        for name in window:
            for event in info.events.get(name, ()):
                if event.kind == "write" and lo < event.pos < hi:
                    return True
        return False

    seen: dict[tuple, object] = {}
    for rec in info.records:
        node = rec.node
        if not isinstance(node, MapCompute):
            continue
        key = _node_key(node, sdfg)
        if key is None:
            continue
        scoped = (key, id(rec.region))
        earlier = seen.get(scoped)
        if earlier is None:
            seen[scoped] = rec
            continue
        first = earlier.node
        window = {m.data for m in first.inputs.values()} | {first.output.data}
        if window_written_between(window, earlier.pos, rec.pos):
            # The duplicate no longer observes the survivor's input values;
            # it becomes the new merge candidate for later lookalikes.
            seen[scoped] = rec
            continue
        dup_name = node.output.data
        keep_name = first.output.data
        if dup_name == keep_name:
            continue
        dup_desc = sdfg.arrays.get(dup_name)
        dup_sites = uses.get(dup_name)
        if (
            dup_desc is None
            or not dup_desc.transient
            or dup_name in protected
            or (dup_sites is not None and dup_sites.opaque_reads)
            or not _sole_writer(uses, dup_name, node)
            or not _sole_writer(uses, keep_name, first)
        ):
            continue
        assert rec.state.nodes[rec.node_index] is node
        rec.state.nodes.pop(rec.node_index)
        _redirect_reads(sdfg, dup_name, keep_name)
        del sdfg.arrays[dup_name]
        return (dup_name, keep_name)
    return None


__all__ = ["GVNResult", "global_value_numbering"]
