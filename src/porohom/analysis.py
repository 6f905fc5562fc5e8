"""Discrete functional-analytic diagnostics: Poincaré constants and the
fluid/solid extension operators.

A Poincaré constant is 1/sqrt(lambda_min) of the discrete symmetric-gradient
form against the lumped mass, by the preconditioned eigensolver
solvers.inverse_power_iteration (LOBPCG) on the form and preconditioner of
solvers.form_solver: "multigrid" when the grid halves down to a level small
enough to factor, "factor" otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PhaseMask, boundary_tags
from .grid import Grid, ScalarField, VectorField
from .mollifier import mollify
from .operators import COARSE_DOFS, cell_counts, coarse_levels
from .solvers import form_solver, inverse_power_iteration

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
    precond: str  # the eigensolver's preconditioner: "multigrid" or "factor"


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
    counted as masked), minus the grid boundary.  The smallest eigenvalue
    of the form against the lumped mass comes from one
    inverse_power_iteration call on solvers.form_solver's form, with the
    mass in the order of its dofs.  The grid picks form_solver's
    preconditioner, named by ConstantEstimate.precond: "multigrid" when
    operators.coarse_levels halves the box grid down to at most
    operators.COARSE_DOFS free dofs, "factor" otherwise (an even node
    count, or halving that stops above the bound).
    """
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
    levels = coarse_levels(grid, active_node)
    coarsest = levels[-1].free if levels else active_node
    label = "multigrid" if grid.dim * np.count_nonzero(coarsest) <= COARSE_DOFS else "factor"
    coef = np.ones(int(np.prod(cell_counts(grid))))
    A, dofs, precond = form_solver(grid, active_node, coef, None, label)
    mass = np.tile(grid.node_weights().ravel(), grid.dim)[dofs]
    lam, _, iters, resid = inverse_power_iteration(A, mass, precond, seed=seed)
    return ConstantEstimate(1.0 / np.sqrt(lam), iters, resid, label)


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
