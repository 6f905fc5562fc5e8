"""Smoothing by convolution with the standard compactly supported bump kernel.

The kernel is J(s) = C exp(1/(s^2 - 1)) for |s| < 1 and 0 outside, with C
fixed numerically per ambient dimension so that the radial integral of
J(|x|) over R^dim equals one.  Fields are extended by zero outside Omega,
so mollified constants sag inside a boundary layer of width h; convergence
diagnostics therefore restrict to interior nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import ndimage

from .grid import Grid, ScalarField, VectorField, l2_norm

__all__ = [
    "MollifierKernel",
    "bump",
    "kernel_normalization",
    "mollify",
    "mollify_convergence_report",
    "interior_mask",
]


def bump(s):
    """Unnormalized C-infinity bump: exp(1/(s^2-1)) inside |s| < 1, else 0."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(1.0 / (si**2 - 1.0))
    return out if out.ndim else float(out)


@lru_cache(maxsize=None)
def kernel_normalization(dim: int) -> float:
    """C such that the integral of C*bump(|x|) over R^dim is one."""
    from scipy.integrate import quad  # only here: mollify itself needs no C

    surface = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}[dim]
    radial, _ = quad(lambda s: bump(s) * s ** (dim - 1), 0.0, 1.0, epsabs=1e-14, epsrel=1e-14)
    return 1.0 / (surface * radial)


@dataclass(frozen=True)
class MollifierKernel:
    """Scaled bump kernel of support radius h in dimension dim."""

    radius: float
    dim: int

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("kernel radius must be positive")

    def kernel_value(self, s):
        """J(s): normalized bump in the reference variable |s| <= 1."""
        return kernel_normalization(self.dim) * bump(s)


def _stencil(grid: Grid, h: float) -> np.ndarray:
    """Discrete convolution stencil bump(|offset|/h) on the grid lattice,
    normalized to unit discrete mass so the mollifier is exactly
    non-expansive and preserves interior constants.  The normalization
    absorbs the continuous factor C/h^dim of J, so C is not needed here.
    The mass is positive: mollify requires h >= 2 spacings, so the centre
    entry bump(0) is always in the stencil.
    """
    spacings = [grid.spacing(k) for k in range(grid.dim)]
    radii = [int(np.floor(h / dx)) for dx in spacings]
    offs = np.meshgrid(*[np.arange(-r, r + 1) * dx for r, dx in zip(radii, spacings)], indexing="ij")
    dist = np.sqrt(sum(o**2 for o in offs))
    st = bump(dist / h)
    return st / (st.sum() * float(np.prod(spacings)))


def mollify(u, h: float):
    """Mollification u_h(x) = h^-dim * integral of J(|x-y|/h) u(y) dy.

    u is extended by zero outside Omega (wrap-around on fully periodic
    grids).  Requires h >= 2 * grid spacing so the kernel is resolved.
    """
    grid = u.grid
    floor = 2.0 * max(grid.spacing(k) for k in range(grid.dim))
    if h < floor - 1e-12:
        raise ValueError(f"mollification radius {h} below resolution floor {floor}")
    st = _stencil(grid, h)
    mode = "wrap" if all(grid.periodic) else "constant"
    w = grid.node_weights()
    if isinstance(u, ScalarField):
        return ScalarField(grid, ndimage.convolve(u.values * w, st, mode=mode, cval=0.0))
    if isinstance(u, VectorField):
        out = np.stack(
            [ndimage.convolve(u.values[i] * w, st, mode=mode, cval=0.0) for i in range(grid.dim)]
        )
        return VectorField(grid, out)
    raise TypeError(f"cannot mollify {type(u)}")


def interior_mask(grid: Grid, margin: float) -> ScalarField:
    """Indicator of nodes farther than `margin` from every non-periodic face."""
    coords = grid.coords()
    inside = np.ones(grid.shape, dtype=bool)
    for k in range(grid.dim):
        if grid.periodic[k]:
            continue
        inside &= np.abs(coords[k]) <= 0.5 - margin
    return ScalarField(grid, inside.astype(float))


def mollify_convergence_report(u: ScalarField, h_list):
    """Interior L2 distances ||M_h u - u|| for a decreasing list of radii.

    Returns a dict with per-h norms, pairwise observed orders and a
    monotone-decrease flag.  Norms are evaluated away from the zero-extension
    boundary layer of width max(h_list).
    """
    h_list = list(h_list)
    if any(b >= a for a, b in zip(h_list, h_list[1:])):
        raise ValueError("h_list must be strictly decreasing")
    mask = interior_mask(u.grid, max(h_list))
    norms = []
    for h in h_list:
        uh = mollify(u, h)
        norms.append(l2_norm(ScalarField(u.grid, uh.values - u.values), mask))
    orders = []
    for (h0, n0), (h1, n1) in zip(zip(h_list, norms), zip(h_list[1:], norms[1:])):
        if n0 > 0 and n1 > 0:
            orders.append(np.log(n0 / n1) / np.log(h0 / h1))
        else:
            orders.append(float("nan"))
    monotone = all(b <= a + 1e-15 for a, b in zip(norms, norms[1:]))
    return {"h": h_list, "norm": norms, "order": orders, "monotone": monotone}
