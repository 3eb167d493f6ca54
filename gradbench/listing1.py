"""The paper's Listing 1 (Section IV-A): three forwarded arrays of equal
size whose recomputation costs grow 1:2:3.  Its gradient w.r.t. ``C`` has
the closed form cos(A0) + cos(A1) + cos(A2)."""

import numpy as np

import repro
from repro.baselines.jaxlike import numpy_api as jnp
from repro.npbench.kernels.common import jax_gradient

N = repro.symbol("N")


def make_program():
    @repro.program
    def listing1(C: repro.float64[N, N], D: repro.float64[N, N]):
        A0 = C + D
        sin0 = np.sin(A0)
        D1 = D * 6.0
        A1 = C + D1
        sin1 = np.sin(A1)
        D2 = D1 * 3.0
        A2 = C + D2
        sin2 = np.sin(A2)
        return np.sum(sin0 + sin1 + sin2)

    return listing1


def inputs(n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {"C": rng.random((n, n)), "D": rng.random((n, n))}


def reference_gradient(C, D):
    return np.cos(C + D) + np.cos(C + 6.0 * D) + np.cos(C + 18.0 * D)


def _jaxlike(C, D):
    A0 = C + D
    D1 = D * 6.0
    A1 = C + D1
    D2 = D1 * 3.0
    A2 = C + D2
    return jnp.sum(jnp.sin(A0) + jnp.sin(A1) + jnp.sin(A2))


def baseline_gradient(data: dict):
    """The gradient w.r.t. ``C`` in the jaxlike baseline engine."""
    return jax_gradient(_jaxlike, data, "C")[1]
