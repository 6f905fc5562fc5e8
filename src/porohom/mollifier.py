"""Smoothing by convolution with the standard compactly supported bump kernel.

The kernel is J(s) = C exp(1/(s^2 - 1)) for |s| < 1 and 0 outside, with C
fixed numerically per ambient dimension (Gauss-Legendre quadrature of the
radial integral) so that the integral of J(|x|) over R^dim equals one.

The discrete convolution is one FFT product: the spectrum of the grid
stencil is cached per (grid, h), and each call costs a forward and an
inverse real FFT of the padded field, not a sum over the stencil.  On box
grids every axis is zero-padded to a 5-smooth length of at least n + r
(r the stencil radius), so the kept block is exactly the linear
convolution of the zero-extended field; mollified constants therefore sag
inside a boundary layer of width h, and convergence diagnostics restrict
to interior nodes.  On fully periodic grids the convolution is circular,
with the stencil folded mod n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
    """C such that the integral of C*bump(|x|) over R^dim is one.

    The radial integral over [0, 1] uses a 256-node Gauss-Legendre rule.
    The bump is smooth on the closed interval (every derivative vanishes
    at s = 1), so at 256 nodes the rule has converged to roundoff.
    """
    surface = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}[dim]
    nodes, weights = np.polynomial.legendre.leggauss(256)
    s = 0.5 * (nodes + 1.0)
    radial = 0.5 * float(np.sum(weights * bump(s) * s ** (dim - 1)))
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


def _five_smooth(m: int) -> int:
    """Smallest integer >= m with no prime factor above 5 (a fast FFT length)."""
    n = m
    while True:
        k = n
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


@lru_cache(maxsize=8)
def _kernel_spectrum(grid: Grid, h: float):
    """FFT lengths and real spectrum of the stencil, centred at index 0.

    Box grids pad each axis to a 5-smooth length L >= n + r, so no stencil
    offset folds onto an offset |d| <= n - 1 that the kept block reads.
    Fully periodic grids use L = n and fold the stencil mod n, which is the
    circular convolution.  The stencil is even, so its spectrum is real.
    """
    st = _stencil(grid, h)
    radii = [(m - 1) // 2 for m in st.shape]
    if all(grid.periodic):
        lengths = grid.shape
    else:
        lengths = tuple(_five_smooth(n + r) for n, r in zip(grid.shape, radii))
    kernel = np.zeros(lengths)
    np.add.at(kernel, np.ix_(*[np.arange(-r, r + 1) % L for r, L in zip(radii, lengths)]), st)
    return lengths, np.fft.rfftn(kernel).real


def mollify(u, h: float):
    """Mollification u_h(x) = h^-dim * integral of J(|x-y|/h) u(y) dy.

    u is extended by zero outside Omega (wrap-around on fully periodic
    grids).  Requires h >= 2 * grid spacing so the kernel is resolved.
    A VectorField is mollified componentwise in one batched transform.
    """
    if not isinstance(u, (ScalarField, VectorField)):
        raise TypeError(f"cannot mollify {type(u)}")
    grid = u.grid
    floor = 2.0 * max(grid.spacing(k) for k in range(grid.dim))
    if h < floor - 1e-12:
        raise ValueError(f"mollification radius {h} below resolution floor {floor}")
    lengths, spectrum = _kernel_spectrum(grid, h)
    axes = tuple(range(u.values.ndim - grid.dim, u.values.ndim))
    weighted = u.values * grid.node_weights()
    out = np.fft.irfftn(np.fft.rfftn(weighted, s=lengths, axes=axes) * spectrum,
                        s=lengths, axes=axes)
    kept = np.ascontiguousarray(out[(...,) + tuple(slice(0, n) for n in grid.shape)])
    return type(u)(grid, kept)


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
