"""Discrete functional-analytic diagnostics: Poincaré constants and the
fluid/solid extension operators.

A Poincaré constant is 1/sqrt(lambda_min) of the discrete symmetric-gradient
form against the lumped mass, by inverse power iteration on one sparse LU of
the form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PhaseMask, boundary_tags
from .grid import Grid, ScalarField, VectorField
from .mollifier import mollify
from .operators import assemble_vector_form, cell_counts
from .solvers import inverse_power_iteration

__all__ = [
    "ConstantEstimate",
    "poincare_constant",
    "extend_solid",
    "extend_fluid",
]


@dataclass
class ConstantEstimate:
    value: float
    iterations: int
    residual: float


def _grid_boundary(grid: Grid) -> np.ndarray:
    tags = boundary_tags(grid)
    return tags["S0"] | tags["S1"] | tags["S2"]


def _erode(inside: np.ndarray) -> np.ndarray:
    """Nodes of `inside` whose face neighbours are all inside too: binary
    erosion by the cross-shaped structure, with every node beyond the
    array counted as inside (no wrap-around on any axis)."""
    eroded = inside.copy()
    for k in range(inside.ndim):
        lo = (slice(None),) * k + (slice(0, -1),)
        hi = (slice(None),) * k + (slice(1, None),)
        eroded[lo] &= inside[hi]
        eroded[hi] &= inside[lo]
    return eroded


def poincare_constant(domain_mask: ScalarField, grid: Grid, seed: int = 0) -> ConstantEstimate:
    """Smallest M with ||w|| <= M ||D(x,w)|| over vector fields vanishing
    outside the masked subdomain (and on the grid boundary).

    The active nodes are the mask's interior: nodes whose face neighbours
    all lie in the mask (cross-shaped erosion, with the grid's outside
    counted as masked), minus the grid boundary."""
    if domain_mask.grid != grid:
        raise ValueError("mask grid mismatch")
    inside = domain_mask.values > 0.5
    if not inside.any():
        raise ValueError("empty domain mask")
    # Zero values are imposed ON the outermost mask nodes, so the discrete
    # Dirichlet boundary coincides with the mask boundary.
    active_node = _erode(inside) & ~_grid_boundary(grid)
    if not active_node.any():
        raise ValueError("mask has no interior nodes")
    coef = np.ones(int(np.prod(cell_counts(grid))))
    A_red = assemble_vector_form(grid, coef, None, active_node)
    mass_red = np.tile(grid.node_weights()[active_node], grid.dim)
    lam, _, iters, resid = inverse_power_iteration(A_red, mass_red, seed=seed)
    if lam <= 0:
        raise RuntimeError(f"non-positive smallest eigenvalue {lam}")
    return ConstantEstimate(1.0 / np.sqrt(lam), iters, resid)


def extend_solid(w_s: VectorField, mask: PhaseMask, h: float,
                 solid_radius: float | None = None) -> VectorField:
    """Extension of a skeleton displacement to all of Omega: mollification of
    the zero-extended solid field.  When the pattern radius is supplied the
    admissible-radius ceiling h < eps*(1/2 - r0)/2 is enforced."""
    if solid_radius is not None:
        ceiling = 0.5 * (0.5 - solid_radius) * mask.epsilon
        if h >= ceiling:
            raise ValueError(f"mollification radius {h} violates ceiling {ceiling}")
    solid = (1.0 - mask.chi_eps)
    masked = VectorField(w_s.grid, w_s.values * solid)
    return mollify(masked, h)


def extend_fluid(w_f: VectorField, w_s: VectorField, mask: PhaseMask,
                 sign_convention: str = "paper") -> VectorField:
    """Extension of the fluid displacement: w_f on the pores, +/- w_s on the
    skeleton.  "paper" uses the minus sign as printed; "continuity" the plus
    sign that makes the extension continuous across the interface."""
    if sign_convention not in ("paper", "continuity"):
        raise ValueError(f"unknown sign convention {sign_convention!r}")
    s = -1.0 if sign_convention == "paper" else 1.0
    chi = mask.chi_eps
    vals = chi * w_f.values + s * (1.0 - chi) * w_s.values
    return VectorField(w_f.grid, vals)
