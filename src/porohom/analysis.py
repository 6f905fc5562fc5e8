"""Discrete functional-analytic diagnostics: Poincaré and embedding
constants, fluid/solid extension operators and a Hölder-inequality check.

The constants are computed as 1/sqrt(lambda_min) of the corresponding
discrete quadratic form, via inverse power iteration with CG inner solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PhaseMask, boundary_tags
from .grid import Grid, ScalarField, VectorField
from .mollifier import mollify
from .operators import (
    assemble_scalar_stiffness,
    assemble_vector_form,
    cell_counts,
    lumped_weights,
    restrict,
)
from .solvers import inverse_power_iteration

__all__ = [
    "ConstantEstimate",
    "poincare_constant",
    "embedding_constant",
    "extend_solid",
    "extend_fluid",
    "holder_check",
]


@dataclass
class ConstantEstimate:
    value: float
    iterations: int
    residual: float


def _grid_boundary(grid: Grid) -> np.ndarray:
    tags = boundary_tags(grid)
    return tags["S0"] | tags["S1"] | tags["S2"]


def _smallest_eigen_constant(A, active: np.ndarray, mass: np.ndarray,
                             seed: int) -> ConstantEstimate:
    """1/sqrt(lambda_min) of A on the active dofs against the lumped mass."""
    A_red = restrict(A, active)
    lam, _, iters, resid = inverse_power_iteration(A_red, mass[active], seed=seed)
    if lam <= 0:
        raise RuntimeError(f"non-positive smallest eigenvalue {lam}")
    return ConstantEstimate(1.0 / np.sqrt(lam), iters, resid)


def poincare_constant(domain_mask: ScalarField, grid: Grid, seed: int = 0) -> ConstantEstimate:
    """Smallest M with ||w|| <= M ||D(x,w)|| over vector fields vanishing
    outside the masked subdomain (and on the grid boundary)."""
    if domain_mask.grid != grid:
        raise ValueError("mask grid mismatch")
    inside = domain_mask.values > 0.5
    if not inside.any():
        raise ValueError("empty domain mask")
    # Zero values are imposed ON the outermost mask nodes, so the discrete
    # Dirichlet boundary coincides with the mask boundary.
    from scipy.ndimage import binary_erosion

    eroded = binary_erosion(inside, border_value=1)
    active_node = eroded & ~_grid_boundary(grid)
    if not active_node.any():
        raise ValueError("mask has no interior nodes")
    coef = np.ones(int(np.prod(cell_counts(grid))))
    A = assemble_vector_form(grid, coef, None)
    active = np.tile(active_node.ravel(), grid.dim)
    return _smallest_eigen_constant(A, active, lumped_weights(grid, grid.dim), seed)


def embedding_constant(grid: Grid, zero_tags) -> ConstantEstimate:
    """Smallest M with ||u|| <= M ||grad u|| over scalars vanishing on the
    tagged boundary portion (zero_tags: a collection drawn from {"S0","S1","S2"})."""
    tags = boundary_tags(grid)
    zero = np.zeros(grid.shape, dtype=bool)
    for t in zero_tags:
        zero |= tags[t]
    if not zero.any():
        raise ValueError(f"tagged boundary portion {list(zero_tags)} is empty")
    coef = np.ones(int(np.prod(cell_counts(grid))))
    A = assemble_scalar_stiffness(grid, coef, np.eye(grid.dim))
    return _smallest_eigen_constant(A, ~zero.ravel(), lumped_weights(grid), seed=0)


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


def holder_check(f: ScalarField, g: ScalarField):
    """(||f g||_1, ||f||_2 ||g||_2) with the shared trapezoidal quadrature."""
    if f.grid != g.grid:
        raise ValueError("grid mismatch")
    w = f.grid.node_weights()
    lhs = float(np.sum(w * np.abs(f.values * g.values)))
    rhs = float(np.sqrt(np.sum(w * f.values**2)) * np.sqrt(np.sum(w * g.values**2)))
    return lhs, rhs
