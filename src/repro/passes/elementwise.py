"""Shared queries and rewrites over element-wise maps.

The duplicate-work passes (global value numbering, map fusion) and the
liveness and memory-planning analyses reason about the same node shapes:

* :func:`dedupe_connectors` merges input connectors of one map that read
  the same container element(s) (``out * out`` lowers to two connectors
  over the same subset);
* :func:`is_identity_elementwise_write` recognises a map whose output
  container is a pure function of its inputs (every element written once,
  parameter ``k`` writing element ``k``);
* ``_node_key`` gives such a map a canonical, alpha-renamed identity, so
  two maps computing the same expression over the same inputs compare
  equal; ``_redirect_reads`` and ``_sole_writer`` are the rewrite and the
  safety query a merge of two such maps needs.
"""

from __future__ import annotations

from typing import Optional

from repro.ir import MapCompute, SDFG
from repro.ir.nodes import ComputeNode
from repro.ir.subsets import Index, Range
from repro.ir.usage import UseSites
from repro.symbolic import Const, Sym, as_expr, substitute
from repro.symbolic.simplify import simplify


def dedupe_connectors(node: ComputeNode) -> int:
    """Merge input connectors of ``node`` that read the same data through the
    same subset (and accumulate flag).  The expression is rewritten to use the
    surviving connector; returns the number of connectors removed.

    Only :class:`MapCompute` connectors are merged — library-node connectors
    (``_a``/``_b``/``_in`` ...) are semantic slots the code generator looks up
    by name, even when two of them read the same data.
    """
    if not isinstance(node, MapCompute):
        return 0
    canonical: dict[tuple, str] = {}
    rename: dict[str, Sym] = {}
    new_inputs = {}
    for conn, memlet in node.inputs.items():
        key = (memlet.data, memlet.subset, memlet.accumulate)
        keep = canonical.get(key)
        if keep is None:
            canonical[key] = conn
            new_inputs[conn] = memlet
        else:
            rename[conn] = Sym(keep)
    if not rename:
        return 0
    node.inputs = new_inputs
    if isinstance(node, MapCompute):
        node.expr = substitute(node.expr, rename)
    return len(rename)


def is_identity_elementwise_write(node: ComputeNode, desc) -> bool:
    """True if ``node`` is a :class:`MapCompute` that overwrites every element
    of ``desc`` exactly once, with map parameter ``k`` writing element ``k``
    (the normal form :meth:`StateBuilder.emit_elementwise_write` produces for
    full-container targets).  This is the producer shape map fusion and
    global value numbering can reason about: the container's contents are a pure
    function of the node's inputs."""
    if not isinstance(node, MapCompute) or node.output.accumulate:
        return False
    subset = node.output.subset
    dims = tuple(subset) if subset is not None else ()
    if len(dims) != len(node.params) or len(dims) != len(desc.shape):
        return False
    for dim, param, rng, size in zip(dims, node.params, node.ranges, desc.shape):
        if not isinstance(dim, Index) or dim.value != Sym(param):
            return False
        if not isinstance(rng, Range):
            return False
        if simplify(rng.start) != Const(0) or simplify(rng.step) != Const(1):
            return False
        if simplify(rng.stop) != simplify(as_expr(size)):
            return False
    return True


def _node_key(node: MapCompute, sdfg: SDFG) -> Optional[tuple]:
    """Canonical identity of an element-wise map: two nodes get equal keys iff
    they compute the same expression over the same input memlets onto outputs
    of the same shape/dtype.  Map parameters and connector names are
    alpha-renamed so spelling differences do not matter."""
    desc = sdfg.arrays.get(node.output.data)
    if desc is None or not is_identity_elementwise_write(node, desc):
        return None
    param_map = {p: Sym(f"__p{k}") for k, p in enumerate(node.params)}
    items = []
    for conn, memlet in node.inputs.items():
        subset = memlet.subset.substituted(param_map) if memlet.subset is not None else None
        items.append((memlet.data, repr(subset), memlet.accumulate, conn))
    items.sort()
    conn_map = {conn: Sym(f"__c{i}") for i, (_, _, _, conn) in enumerate(items)}
    expr = substitute(node.expr, {**param_map, **conn_map})
    ranges = tuple(rng.substituted(param_map) for rng in node.ranges)
    return (
        len(node.params),
        repr(ranges),
        tuple((data, sub, acc) for data, sub, acc, _ in items),
        repr(expr),
        desc.dtype.str,
        desc.zero_init,
    )


def _redirect_reads(sdfg: SDFG, old: str, new: str) -> None:
    for state in sdfg.all_states():
        for node in state.nodes:
            for conn, memlet in node.inputs.items():
                if memlet.data == old:
                    memlet.data = new


def _sole_writer(uses: dict, name: str, node: ComputeNode) -> bool:
    sites = uses.get(name, UseSites())
    return len(sites.writes) == 1 and sites.writes[0].node is node
