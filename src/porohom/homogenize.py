"""Unit-cell problems, effective tensors and the micro/macro comparison.

The paper-level program ends in a Biot-type macroscopic model whose explicit
equations are not reproduced here; this module implements the canonical
two-scale cell problems as the engineering stand-in:

  * permeability: penalized (slightly compressible) Stokes flow on the
    periodic cell, unit body force per axis, no-slip on the solid inclusion;
    K_ik = cell average of velocity component i for force e_k.
  * effective elasticity: periodic correctors for unit macroscopic strains
    on the skeleton (P = lam * D law), pores treated as traction-free voids;
    C_eff assembled from the energy form so both symmetries are structural.
  * a Darcy solver on the unit cube driven by an S1/S2 pressure drop, and a
    convergence harness comparing microscopic steady flux against it as the
    cell size shrinks.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .geometry import PhaseMask, UnitCellPattern, build_phase_mask, check_pore_connectivity
from .grid import Grid, ScalarField, sym_component_pairs
from .microsim import MaterialParams, MicroSolver
from .operators import (
    assemble_scalar_stiffness,
    assemble_vector_form,
    cell_counts,
    cell_gradient,
    cell_volume,
    periodic_form_symbol,
    phase_cells,
    strain_load,
)
from .solvers import PeriodicInverse, cg_solve

__all__ = [
    "periodic_cell_grid",
    "permeability_cell_problem",
    "permeability_from_mask",
    "elasticity_from_mask",
    "darcy_macro_solve",
    "compare_micro_macro",
]


# Penalized-Stokes permeability: the div*div coefficient is PENALTY_RATIO
# times the viscosity; on a 2D n = 32 cell the finite penalty raises K11 by
# about 0.8% against a nearly incompressible solve (penalty ratio 1e4).
PENALTY_RATIO = 100.0
# CG settings of both cell problems.
CELL_CG_TOL = 1e-10
CELL_CG_MAX_ITER = 50000


def periodic_cell_grid(dim: int, n: int) -> Grid:
    return Grid(dim=dim, n_per_axis=n, periodic=(True,) * dim)


def _require_periodic(grid: Grid):
    if not all(grid.periodic):
        raise ValueError("cell problems require a fully periodic grid")


def permeability_from_mask(mask: PhaseMask, mu: float) -> tuple:
    """Permeability tensor of one periodicity cell; returns (K, asymmetry).

    K already carries the 1/mu dependence: the Darcy flux is q = -K grad p.
    The viscosity is mu on every cell with a fluid corner; the skeleton is
    the set of cells with no fluid corner (operators.phase_cells), the same
    cells as in MicroSolver, and the velocity vanishes on its nodes.
    """
    grid = mask.grid
    _require_periodic(grid)
    if not mask.fluid.any():
        return np.zeros((grid.dim, grid.dim)), 0.0
    if not check_pore_connectivity(mask):
        return np.zeros((grid.dim, grid.dim)), 0.0
    if not mask.solid.any():
        raise ValueError("permeability is unbounded without a solid obstacle")
    n = grid.n_nodes
    coef = phase_cells(grid, mask.chi_eps, mu, 0.0)
    A_red = assemble_vector_form(grid, coef, PENALTY_RATIO * coef, mask.fluid)
    # Every cell with a fluid corner carries mu, so A_red is the whole-grid form
    # with constant coefficients restricted to the fluid nodes, and the
    # preconditioned operator differs from the identity only through the
    # obstacle's dofs.
    precond = PeriodicInverse(periodic_form_symbol(grid, mu, PENALTY_RATIO * mu), mask.fluid)
    active = np.tile(mask.fluid.ravel(), grid.dim)
    wq = grid.node_weights().ravel()
    vol = float(np.sum(wq))
    K = np.zeros((grid.dim, grid.dim))
    for k in range(grid.dim):
        rhs = np.zeros(grid.dim * n)
        rhs[k * n:(k + 1) * n] = wq
        res = cg_solve(A_red, rhs[active], tol=CELL_CG_TOL, max_iter=CELL_CG_MAX_ITER,
                       precond=precond)
        if not res.converged:
            raise RuntimeError(f"cell-problem CG failed for axis {k}: residual {res.residual:.2e}")
        u = np.zeros(grid.dim * n)
        u[active] = res.x
        for i in range(grid.dim):
            K[i, k] = float(np.sum(wq * u[i * n:(i + 1) * n])) / vol
    asym = float(np.abs(K - K.T).max())
    K = 0.5 * (K + K.T)
    return K, asym


def permeability_cell_problem(pattern: UnitCellPattern, grid: Grid, mu: float) -> np.ndarray:
    mask = build_phase_mask(pattern, 1.0, grid)
    K, _ = permeability_from_mask(mask, mu)
    return K


def elasticity_from_mask(mask: PhaseMask, lam: float) -> np.ndarray:
    """Effective stiffness (Voigt energy form) of the porous skeleton.

    For each unit macroscopic strain E_a (symmetric storage, Voigt order) the
    periodic corrector u_a solves A u_a = f_a with f_a = -strain_load(E_a),
    the skeleton form applied to the affine field E_a x.  C_ab is the
    cell-averaged energy of the total fields E_a x + u_a and E_b x + u_b,
    expanded exactly:  vol sum(coef E_a:E_b) + u_a.A u_b - u_a.f_b - f_a.u_b.
    The skeleton is the set of cells with no fluid corner
    (operators.phase_cells), the same cells that carry lam in MicroSolver;
    every cell with a fluid corner is a void.
    """
    grid = mask.grid
    _require_periodic(grid)
    dim, n = grid.dim, grid.n_nodes
    coef = phase_cells(grid, mask.chi_eps, 0.0, lam)
    A = assemble_vector_form(grid, coef, None)

    vol = float(np.sum(grid.node_weights()))
    # A homogeneous cell gives a roundoff-level rhs and a zero corrector;
    # the absolute floor keeps CG from chasing an unreachable relative target.
    floor = CELL_CG_TOL * float(np.abs(A.diagonal()).max()) * np.sqrt(dim * n)
    strains, loads, correctors = [], [], []
    for i, j in sym_component_pairs(dim):
        E = np.zeros((dim, dim))
        E[i, j] = E[j, i] = 1.0 if i == j else 0.5
        f = -strain_load(grid, coef, E)
        res = cg_solve(A, f, tol=CELL_CG_TOL, max_iter=CELL_CG_MAX_ITER, atol=floor)
        if not res.converged:
            raise RuntimeError(
                f"degenerate corrector for strain mode {(i, j)}: residual {res.residual:.2e}")
        strains.append(E)
        loads.append(f)
        correctors.append(res.x)
    affine = cell_volume(grid) * float(np.sum(coef))
    nv = len(strains)
    C = np.zeros((nv, nv))
    for a in range(nv):
        for b in range(a, nv):
            u_a, u_b = correctors[a], correctors[b]
            energy = (affine * float(np.sum(strains[a] * strains[b])) + u_a @ (A @ u_b)
                      - u_a @ loads[b] - loads[a] @ u_b)
            C[a, b] = C[b, a] = energy / vol
    return C


def darcy_macro_solve(K: np.ndarray, bc: tuple):
    """Solve -div(K grad p) = 0 on the unit cube (33 nodes per axis) with p
    fixed on S1/S2 and no-flux elsewhere.  bc = (p_S1, p_S2).  K already
    carries the 1/mu of permeability_from_mask.  Returns (pressure, flux),
    flux the mean of -K grad p over the cell centers."""
    K = np.asarray(K, dtype=float)
    dim = K.shape[0]
    if np.linalg.eigvalsh(0.5 * (K + K.T)).min() <= 0:
        raise ValueError("K must be symmetric positive definite")
    grid = Grid(dim=dim, n_per_axis=33)
    p_s1, p_s2 = bc
    coef = np.ones(int(np.prod(cell_counts(grid))))

    x1 = grid.coords()[0]
    lift = p_s2 + (x1 + 0.5) * (p_s1 - p_s2)
    fixed = np.zeros(grid.shape, dtype=bool)
    fixed[0, ...] = True
    fixed[-1, ...] = True
    free = ~fixed.ravel()
    rhs = -(assemble_scalar_stiffness(grid, coef, K) @ lift.ravel())[free]
    A_red = assemble_scalar_stiffness(grid, coef, K, free)
    res = cg_solve(A_red, rhs, tol=1e-12, max_iter=20000)
    if not res.converged:
        raise RuntimeError(f"Darcy solve failed: residual {res.residual:.2e}")
    p = lift.ravel()
    p[free] += res.x
    pressure = ScalarField(grid, p.reshape(grid.shape))
    flux = -K @ cell_gradient(grid, p).mean(axis=0)
    return pressure, flux


def compare_micro_macro(pattern: UnitCellPattern, params: MaterialParams, eps_list,
                        nodes_per_cell: int = 16, max_steps: int = 400, steady_tol: float = 1e-7):
    """Steady microscopic pore flux vs the Darcy prediction for shrinking eps.

    Single-fluid configurations only (mu1 == mu2 and c_f1 == c_f2); returns a
    list of rows {eps, micro_flux, darcy_flux, rel_error, observed_order,
    converged}, where converged says whether the steady march met steady_tol
    within max_steps.

    The micro model runs with the solid pinned, so each march step is one
    augmented-Lagrangian / Uzawa iteration with penalty gamma = tau c^2
    (see MicroSolver).  The steady velocity does not depend on tau; each
    level therefore marches with its own step tau* = 1e4 eps^2 mu1 / min(c)^2,
    which puts tau* c^2 four orders above the viscous scale eps^2 mu1, and
    params.tau is not used.  A handful of steps then reaches steady_tol.
    """
    if params.mu1 != params.mu2 or params.c_f1 != params.c_f2:
        raise ValueError("micro/macro comparison requires a single fluid "
                         "(mu1 == mu2 and c_f1 == c_f2)")
    eps_list = list(eps_list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")

    dim = len(params.p_drive_grad)
    cell = periodic_cell_grid(dim, nodes_per_cell)
    cell_mask = build_phase_mask(pattern, 1.0, cell)
    K, _ = permeability_from_mask(cell_mask, params.mu1)
    g = np.asarray(params.p_drive_grad, dtype=float)
    _, q_darcy_vec = darcy_macro_solve(K, (0.5 * g[0], -0.5 * g[0]))
    q_darcy = float(q_darcy_vec[0])

    c2_min = min(params.c_f1, params.c_f2, params.c_s)**2
    rows = []
    prev_err = None
    for eps in eps_list:
        m = round(1.0 / eps)
        grid = Grid(dim=dim, n_per_axis=m * nodes_per_cell + 1)
        mask = build_phase_mask(pattern, eps, grid)
        # 1e4: fast contraction, with the penalized operator far from roundoff
        tau_al = 1e4 * eps**2 * params.mu1 / c2_min
        p_eps = replace(params, epsilon=eps, tau=tau_al)
        ms = MicroSolver(mask, p_eps, advance_transport=False, solver="direct",
                         pin_solid=True)
        converged = ms.run_to_steady(max_steps=max_steps, rel_tol=steady_tol)
        q_micro = float(ms.mean_pore_velocity()[0])
        rel = abs(q_micro - q_darcy) / max(abs(q_darcy), 1e-300)
        order = float("nan")
        if prev_err is not None and rel > 0 and prev_err > 0:
            order = float(np.log(prev_err / rel) / np.log(2.0))
        rows.append({"eps": eps, "micro_flux": q_micro, "darcy_flux": q_darcy,
                     "rel_error": rel, "observed_order": order, "converged": converged})
        prev_err = rel
    return rows
