"""The native ("cython") backend: SDFG segments -> C -> ctypes.

Lowers sequential loop nests, scalar tasklets and the library calls with a
C lowering (full reductions, copies, rank-1/2 products; matrix-matrix
products become calls of SciPy's ``cython_blas`` GEMM inside the C
segment) — the shapes where the interpreted NumPy backend pays a
Python-level round trip per element — to C compiled with the system
toolchain, while elements that decline (convolutions, batched matmuls,
softmax, ...) keep their interpreted emission.  Programs outside the
supported subset decline with
:class:`~repro.util.errors.UnsupportedFeatureError`, and the pipeline falls
back to the NumPy backend per program (recorded in the pipeline report).

Modules: :mod:`~repro.codegen.cython_backend.cemit` (expression -> C),
:mod:`~repro.codegen.cython_backend.lower` (segments -> kernel functions),
:mod:`~repro.codegen.cython_backend.emitter` (hybrid driver emission),
:mod:`~repro.codegen.cython_backend.build` (toolchain + artifact cache),
:mod:`~repro.codegen.cython_backend.compiled` (wrapper + Backend class).

Importing this package registers the backend under ``"cython"`` and the
alias ``"native"``.
"""

from repro.codegen.backend import register_backend
from repro.codegen.cython_backend.build import (
    NativeToolchainError,
    find_c_compiler,
    toolchain_description,
)
from repro.codegen.cython_backend.compiled import CythonBackend, NativeCompiledSDFG
from repro.codegen.cython_backend.emitter import NativeSourceEmitter

_BACKEND = CythonBackend()
register_backend("cython", _BACKEND)
register_backend("native", _BACKEND)

__all__ = [
    "CythonBackend",
    "NativeCompiledSDFG",
    "NativeSourceEmitter",
    "NativeToolchainError",
    "find_c_compiler",
    "toolchain_description",
]
