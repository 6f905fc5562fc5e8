"""Periodic pore/skeleton microstructure and the fluid-1/fluid-2 partition.

The solid phase is a periodic array of inclusions (disks/spheres or axis
aligned blocks) strictly interior to each periodicity cell, so the fluid
domain is connected.  Boundary faces are classified S1 (x1 = +1/2),
S2 (x1 = -1/2) and S0 (all remaining faces).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .grid import Grid

__all__ = [
    "UnitCellPattern",
    "PhaseMask",
    "build_phase_mask",
    "cells_across",
    "porosity",
    "check_pore_connectivity",
    "init_fluid_partition",
    "boundary_tags",
]

_KINDS = ("disk", "sphere", "square-block", "full-solid", "none")


@dataclass(frozen=True)
class UnitCellPattern:
    """1-periodic solid inclusion pattern: chi(y) = 0 inside the inclusion."""

    kind: str = "disk"
    solid_radius: float = 0.25

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown pattern kind {self.kind!r}, expected one of {_KINDS}")
        if self.has_inclusion and not 0.0 <= self.solid_radius < 0.5:
            raise ValueError(f"solid_radius (r0) must lie in [0, 1/2), got {self.solid_radius}")

    @property
    def has_inclusion(self) -> bool:
        """Whether solid_radius (r0) applies: "none" and "full-solid" ignore it."""
        return self.kind not in ("full-solid", "none")

    def indicator(self, *cell_coords):
        """chi(y) evaluated at cell-local coordinates in [0, 1): 1 = fluid.

        A point on the inclusion's surface is solid, and so is every point
        whose computed distance is within 1e-9 r0 of r0: that absorbs the
        roundoff of the distance, so surface nodes cannot flip with the axis
        order and the mask keeps the cell's reflections and axis swaps."""
        if self.kind == "none":
            return np.ones_like(cell_coords[0])
        if self.kind == "full-solid":
            return np.zeros_like(cell_coords[0])
        delta = [c - 0.5 for c in cell_coords]
        if self.kind in ("disk", "sphere"):
            dist = np.sqrt(sum(d**2 for d in delta))
        else:  # square-block: Chebyshev ball
            dist = np.max(np.abs(np.stack(delta)), axis=0)
        return (dist >= self.solid_radius).astype(float) if self.solid_radius == 0.0 \
            else (dist > self.solid_radius * (1.0 + 1e-9)).astype(float)


@dataclass
class PhaseMask:
    """Discrete characteristic functions of the microstructure.

    chi_eps: 1 on pore (fluid) nodes, 0 on skeleton nodes.
    chi:     fluid-1 fraction inside the pores (1 = L1, 0 = L2); the free
             boundary is the chi = 1/2 level set.
    """

    grid: Grid
    chi_eps: np.ndarray
    chi: np.ndarray
    epsilon: float

    def __post_init__(self):
        self.chi_eps = np.asarray(self.chi_eps, dtype=float)
        self.chi = np.asarray(self.chi, dtype=float)
        if self.chi_eps.shape != self.grid.shape or self.chi.shape != self.grid.shape:
            raise ValueError("mask arrays must match the grid shape")
        if not np.all((self.chi_eps == 0) | (self.chi_eps == 1)):
            raise ValueError("chi_eps must be 0/1 valued")
        if self.chi.min() < 0 or self.chi.max() > 1:
            raise ValueError("chi must lie in [0, 1]")

    @property
    def fluid(self) -> np.ndarray:
        return self.chi_eps == 1

    @property
    def solid(self) -> np.ndarray:
        return self.chi_eps == 0

    def copy(self):
        return PhaseMask(self.grid, self.chi_eps.copy(), self.chi.copy(), self.epsilon)


def cells_across(epsilon: float) -> int:
    """Number of periodicity cells across Omega, 1/epsilon; ValueError unless
    epsilon is an integer reciprocal of at least 1 (the one place this rule
    is checked): an epsilon above 1e9, inf included, rounds to no cell."""
    inverse = 1.0 / epsilon if epsilon > 0 else 0.0  # 0 for nan too
    m = round(inverse) if np.isfinite(inverse) else 0
    if m < 1 or abs(inverse - m) > 1e-9:
        raise ValueError(f"epsilon must be an integer reciprocal, got {epsilon}")
    return m


def build_phase_mask(pattern: UnitCellPattern, epsilon: float, grid: Grid) -> PhaseMask:
    """Sample chi_eps(x) = chi(x/eps) at the grid nodes.

    Requires a whole number of cells across Omega and at least 8 nodes per
    cell per axis.
    """
    m = cells_across(epsilon)
    for k in range(grid.dim):
        nodes_per_cell = grid.n_per_axis / m if grid.periodic[k] else (grid.n_per_axis - 1) / m
        if nodes_per_cell < 8 - 1e-12:
            need = m * 8 + (0 if grid.periodic[k] else 1)
            raise ValueError(
                f"cell under-resolved on axis {k}: {nodes_per_cell:.1f} nodes/cell, "
                f"need n_per_axis >= {need}"
            )
    coords = grid.coords()
    cell_local = [np.mod((c - grid.origin) / epsilon, 1.0) for c in coords]
    chi_eps = pattern.indicator(*cell_local)
    chi = np.ones(grid.shape)
    return PhaseMask(grid, chi_eps, chi, epsilon)


def porosity(mask: PhaseMask) -> float:
    """Quadrature measure of the pore space relative to |Omega|."""
    w = mask.grid.node_weights()
    return float(np.sum(w * mask.chi_eps) / np.sum(w))


def check_pore_connectivity(mask: PhaseMask) -> bool:
    """True iff a face-connected fluid path joins the S1 and S2 faces.

    The fluid nodes and their face neighbours (4-connectivity in 2D,
    6-connectivity in 3D) form an undirected graph whose connected
    components are found by scipy.sparse.csgraph.  Paths do not wrap
    around periodic axes.
    """
    fluid = mask.chi_eps != 0
    count = int(fluid.sum())
    if count == 0:
        return False
    index = np.full(fluid.shape, -1)
    index[fluid] = np.arange(count)
    rows, cols = [], []
    for k in range(fluid.ndim):
        lo = (slice(None),) * k + (slice(0, -1),)
        hi = (slice(None),) * k + (slice(1, None),)
        both = fluid[lo] & fluid[hi]
        rows.append(index[lo][both])
        cols.append(index[hi][both])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    graph = coo_matrix((np.ones(rows.size), (rows, cols)), shape=(count, count))
    _, labels = connected_components(graph, directed=False)
    on_s1 = labels[index[-1][fluid[-1]]]
    on_s2 = labels[index[0][fluid[0]]]
    return bool(np.intersect1d(on_s1, on_s2).size)


def init_fluid_partition(mask: PhaseMask, interface_plane_x1: float) -> PhaseMask:
    """Fluid L1 occupies x1 > plane (the side adjacent to S1), L2 the rest."""
    if not -0.5 < interface_plane_x1 < 0.5:
        raise ValueError("interface plane must lie strictly inside Omega")
    x1 = mask.grid.coords()[0]
    out = mask.copy()
    out.chi = (x1 > interface_plane_x1).astype(float)
    return out


def boundary_tags(grid: Grid):
    """Boolean node masks for the boundary pieces S0, S1, S2.

    S1 is the face x1 = +1/2, S2 the face x1 = -1/2, S0 every other face;
    edge/corner nodes shared with transverse faces are tagged S0.  Periodic
    axes contribute no boundary.
    """
    shape = grid.shape
    s0 = np.zeros(shape, dtype=bool)
    s1 = np.zeros(shape, dtype=bool)
    s2 = np.zeros(shape, dtype=bool)
    for k in range(1, grid.dim):
        if grid.periodic[k]:
            continue
        idx_lo = [slice(None)] * grid.dim
        idx_lo[k] = 0
        idx_hi = [slice(None)] * grid.dim
        idx_hi[k] = -1
        s0[tuple(idx_lo)] = True
        s0[tuple(idx_hi)] = True
    if not grid.periodic[0]:
        s1[-1, ...] = True
        s2[0, ...] = True
        s1 &= ~s0
        s2 &= ~s0
    return {"S0": s0, "S1": s1, "S2": s2}
