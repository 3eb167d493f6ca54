"""Hybrid source emission for the native backend.

:class:`NativeSourceEmitter` subclasses the NumPy
:class:`~repro.codegen.emitter.SourceEmitter` and carves the SDFG's
control-flow tree into maximal *segments* of consecutive elements that lower
fully to C (see :mod:`repro.codegen.cython_backend.lower`).  Each segment
becomes one C kernel plus a one-line call in the generated Python driver
(``__native0(A, B, N)``); everything in between — convolutions, batched
matmuls and every other element that declines to lower — is emitted exactly
as the parent class would.  (Matrix products do lower: a rank-(2, 2)
``matmul`` becomes a BLAS call inside the segment, so it never splits one;
see :mod:`repro.codegen.cython_backend.lower`.)

Segmentation happens at two granularities:

* **region level** — whole states / loop regions / conditionals join a
  segment when every node inside lowers (a time-stepping loop nest becomes
  a single C call, the native backend's whole point: per-iteration ctypes
  round trips would give the speedup away);
* **node level** — inside a state that does *not* fully lower, consecutive
  lowerable nodes still form kernels between the fallback nodes.

Elements are probed with a throwaway :class:`KernelBuilder` first, so a
decline can never leave a half-emitted kernel behind; decline reasons are
collected (``decline_reasons``), kept on the compiled object and reported
as the codegen stage's ``native_declines`` note.
"""

from __future__ import annotations

from typing import Optional

from repro.codegen.cython_backend.cemit import CLoweringError, C_PRELUDE
from repro.codegen.cython_backend.lower import CKernel, KernelBuilder
from repro.codegen.emitter import SourceEmitter
from repro.ir import ConditionalRegion, ControlFlowRegion, LoopRegion, SDFG, State


class NativeSourceEmitter(SourceEmitter):
    """Emits the Python driver and collects C kernels for one SDFG."""

    def __init__(self, sdfg: SDFG, func_name: Optional[str] = None,
                 result_names: Optional[list[str]] = None) -> None:
        super().__init__(sdfg, func_name, result_names)
        self.kernels: list[CKernel] = []
        self.decline_reasons: list[str] = []

    # -- segmentation ------------------------------------------------------
    def _probe(self, lower) -> bool:
        """True when ``lower(builder)`` succeeds on a throwaway builder."""
        builder = KernelBuilder(self.sdfg, "__probe")
        try:
            lower(builder)
        except CLoweringError as exc:
            reason = str(exc)
            if reason not in self.decline_reasons:
                self.decline_reasons.append(reason)
            return False
        return True

    def _flush_segment(self, pending: list, lower_one) -> None:
        """Build one kernel from ``pending`` and emit its driver call."""
        if not pending:
            return
        name = f"__native{len(self.kernels)}"
        builder = KernelBuilder(self.sdfg, name)
        for item in pending:
            lower_one(builder, item)
        kernel = builder.finish()
        self.kernels.append(kernel)
        arguments = list(kernel.array_args) + list(kernel.int_args)
        self.emit(f"{name}({', '.join(arguments)})")
        pending.clear()

    # -- region level ------------------------------------------------------
    def _emit_region(self, region: ControlFlowRegion) -> None:
        pending: list = []
        for element in region.elements:
            if isinstance(element, State) and element.is_empty():
                continue
            if self._probe(lambda b, el=element: b.lower_element(el)):
                pending.append(element)
                continue
            self._flush_segment(pending, lambda b, el: b.lower_element(el))
            self._emit_fallback_element(element)
        self._flush_segment(pending, lambda b, el: b.lower_element(el))

    def _emit_fallback_element(self, element) -> None:
        if isinstance(element, State):
            self._emit_state(element)
        elif isinstance(element, LoopRegion):
            self._emit_loop(element)  # recurses into _emit_region: segments
            # inside Python-level loops still lower
        elif isinstance(element, ConditionalRegion):
            self._emit_conditional(element)
        else:  # pragma: no cover - parent class raises the same way
            super()._emit_region(type("R", (), {"elements": [element]})())

    # -- node level --------------------------------------------------------
    def _emit_state(self, state: State) -> None:
        if state.is_empty():
            return
        self.emit(f"# state: {state.label}")
        pending: list = []
        for node in state:
            if self._probe(lambda b, nd=node: b.lower_node(nd)):
                pending.append(node)
                continue
            self._flush_segment(pending, lambda b, nd: b.lower_node(nd))
            self._emit_fallback_node(node)
        self._flush_segment(pending, lambda b, nd: b.lower_node(nd))

    def _emit_fallback_node(self, node) -> None:
        from repro.ir import LibraryCall, MapCompute

        if isinstance(node, MapCompute):
            self._emit_map(node)
        elif isinstance(node, LibraryCall):
            self._emit_library(node)
        else:  # pragma: no cover
            from repro.util.errors import CodegenError

            raise CodegenError(f"Cannot emit node {node!r}")


def render_c_source(kernels: list[CKernel]) -> str:
    """Assemble one C translation unit from the collected kernels."""
    return C_PRELUDE + "\n" + "\n".join(kernel.source for kernel in kernels)
