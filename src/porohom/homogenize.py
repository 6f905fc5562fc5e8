"""Unit-cell problems, effective tensors and the micro/macro comparison.

The paper-level program ends in a Biot-type macroscopic model whose explicit
equations are not reproduced here; this module implements the canonical
two-scale cell problems as the engineering stand-in:

  * permeability: penalized (slightly compressible) Stokes flow on the
    periodic cell, unit body force per axis, no-slip on the solid inclusion;
    K_ik = cell average of velocity component i for force e_k.  It is solved
    for the obstacle's reaction on the solid dofs (a capacitance matrix),
    through the FFT inverse of the whole-grid constant-coefficient form.
  * effective elasticity: periodic correctors for unit macroscopic strains
    on the skeleton (P = lam * D law), pores treated as traction-free voids;
    C_eff assembled from the energy form so both symmetries are structural.
  * a Darcy solver on the unit cube driven by an S1/S2 pressure drop, and a
    convergence harness comparing microscopic steady flux against it as the
    cell size shrinks.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from .geometry import (PhaseMask, UnitCellPattern, boundary_tags, build_phase_mask,
                       check_pore_connectivity)
from .grid import Grid, ScalarField, sym_component_pairs
from .microsim import MaterialParams
from .operators import (
    assemble_scalar_stiffness,
    assemble_vector_form,
    cell_corner_indices,
    cell_counts,
    cell_divergence,
    cell_gradient,
    cell_volume,
    periodic_form_symbol,
    phase_cells,
    strain_load,
)
from .solvers import SPD_SPLU_OPTIONS, PeriodicInverse, cg_solve

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
# CG settings of both cell problems.  CELL_CG_TOL bounds the residual of the
# CG recurrence: a residual evaluated from the returned solution floors at
# roundoff of order eps ||A0|| ||u||, near 2e-10 ||b_f|| on a 2D n = 128
# permeability cell, so it is not checked against this tolerance.
CELL_CG_TOL = 1e-10
CELL_CG_MAX_ITER = 50000
# Augmented-Lagrangian penalty of the steady micro flow over its viscous
# coefficient: fast contraction, with the penalized form far from roundoff.
AL_PENALTY_RATIO = 1e4


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
    cells as in MicroSolver, and the velocity vanishes on its nodes.  K_ik is
    the cell average of component i of the velocity for the unit force e_k
    (_cell_velocities).
    """
    grid = mask.grid
    _require_periodic(grid)
    if not mask.fluid.any():
        return np.zeros((grid.dim, grid.dim)), 0.0
    if not check_pore_connectivity(mask):
        return np.zeros((grid.dim, grid.dim)), 0.0
    if not mask.solid.any():
        raise ValueError("permeability is unbounded without a solid obstacle")
    dim, n = grid.dim, grid.n_nodes
    wq = grid.node_weights().ravel()
    K = (_cell_velocities(mask, mu).reshape(dim, dim, n) @ wq).T / float(np.sum(wq))
    asym = float(np.abs(K - K.T).max())
    K = 0.5 * (K + K.T)
    return K, asym


def _cell_velocities(mask: PhaseMask, mu: float) -> np.ndarray:
    """Velocity of the penalized Stokes cell problem for each unit force e_k,
    shape (dim, dim * n_nodes): row k, component-major, zero on the solid.

    The problem is A_ff u_f = b_f on the fluid dofs f, b the quadrature
    weights on component k.  Every cell with a fluid corner carries mu, so
    A_ff is the whole-grid form A0 with the constant coefficients mu and
    PENALTY_RATIO mu restricted to the fluid dofs.  It is solved for the
    obstacle's reaction lam on the solid dofs, A0 u = b + S^T lam with
    S u = 0 and S selecting the solid dofs: the capacitance-matrix method
    (Buzbee, Dorr, George & Golub, SIAM J. Numer. Anal. 8, 1971;
    Proskurowski & Widlund, Math. Comp. 30, 1976), with A0^+ one FFT pair
    (solvers.PeriodicInverse).  A0^+ needs a load with zero mean in each
    component, so lam is a uniform part that balances the force plus a
    correction whose components have zero mean over the solid nodes (the
    projector P).  The correction solves P S A0^+ S^T P lam = -P S A0^+ (b +
    S^T lam_uniform) by cg_solve, preconditioned by P A_ss P with A_ss the
    solid block of A0; u is then A0^+ (b + S^T lam) minus each component's
    mean over the solid nodes.

    The fluid residual b_f - A_ff u_f is A_fs u_s, with A_fs the fluid-solid
    block of A0 and u_s = P S u, which is minus the CG residual.  So CG
    stops at CELL_CG_TOL ||b_f|| / sqrt(||A_fs||_1 ||A_fs||_inf), which
    bounds the fluid residual by CELL_CG_TOL ||b_f||, and a solve that
    misses it raises RuntimeError.  The bound holds for the CG recurrence:
    an evaluated residual of any computed u carries roundoff of order
    eps ||A0|| ||u||, about 1e-10 ||b_f|| on a 2D n = 128 cell.
    """
    grid = mask.grid
    dim, n = grid.dim, grid.n_nodes
    solid = mask.solid.ravel()
    corners = cell_corner_indices(grid)
    # the solid nodes and every corner of a cell that touches one: A0's solid
    # rows couple only to these
    near = np.zeros(n, dtype=bool)
    near[corners[solid[corners].any(axis=1)]] = True
    ncells = corners.shape[0]
    A_near = assemble_vector_form(grid, np.full(ncells, mu), np.full(ncells, PENALTY_RATIO * mu),
                                  near)
    on_solid = np.tile(solid[near], dim)
    A_ss = A_near[on_solid][:, on_solid]
    abs_fs = abs(A_near[~on_solid][:, on_solid])  # |A_fs|, for its 1- and inf-norms
    A_fs_norm = np.sqrt(abs_fs.sum(axis=0).max() * abs_fs.sum(axis=1).max())
    inverse = PeriodicInverse(periodic_form_symbol(grid, mu, PENALTY_RATIO * mu))
    dofs = (np.arange(dim)[:, None] * n + np.flatnonzero(solid)).ravel()

    def project(x):
        x = x.reshape(dim, -1)
        return (x - x.mean(axis=1, keepdims=True)).ravel()

    def capacitance(lam):
        load = np.zeros(dim * n)
        load[dofs] = lam
        return project(inverse(load)[dofs])

    C = spla.LinearOperator((dofs.size, dofs.size), matvec=capacitance, dtype=float)
    wq = grid.node_weights().ravel()
    b_f = wq[~solid]
    atol = CELL_CG_TOL * float(np.linalg.norm(b_f)) / A_fs_norm
    # b on the fluid nodes and the uniform reaction that balances it on the solid
    force = np.where(solid, -b_f.sum() / np.count_nonzero(solid), wq)
    velocities = np.zeros((dim, dim, n))
    for k in range(dim):
        load = np.zeros(dim * n)
        load[k * n:(k + 1) * n] = force
        res = cg_solve(C, -project(inverse(load)[dofs]), tol=0.0, max_iter=CELL_CG_MAX_ITER,
                       atol=atol, precond=lambda r: project(A_ss @ project(r)))
        if not res.converged:
            raise RuntimeError(f"cell-problem CG failed for axis {k}: residual {res.residual:.2e}")
        load[dofs] += res.x
        u = inverse(load).reshape(dim, n)
        velocities[k] = np.where(solid, 0.0, u - u[:, solid].mean(axis=1, keepdims=True))
    return velocities.reshape(dim, dim * n)


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


def _steady_pore_flux(mask: PhaseMask, visc: float, drive, max_steps: int,
                      steady_tol: float) -> tuple:
    """Steady Stokes flow through the rigid skeleton of a box grid, driven by
    the pressure gradient drive; returns (flux, converged, steps), flux the
    domain-averaged pore velocity.

    The velocity vanishes on S0 and on the solid.  Every fluid cell
    (operators.phase_cells) carries visc on the D:D form V and gamma =
    AL_PENALTY_RATIO visc on the div*div form vol B'B, B the cell divergence
    (operators.cell_divergence).  The augmented-Lagrangian / Uzawa loop
    (Fortin & Glowinski, Augmented Lagrangian Methods, 1983) v_k = A^-1 (f -
    vol B'p_{k-1}), p_k = p_{k-1} + gamma B v_k, with A = visc V + gamma vol
    B'B factored once and vol B' = operators.strain_load(., I), reaches the
    discretely divergence-free Stokes velocity whatever gamma is.  It stops
    once the flux of v_k changes by at most steady_tol relative, or after
    max_steps (converged False).
    """
    grid = mask.grid
    free = ~(boundary_tags(grid)["S0"] | mask.solid)
    active = np.tile(free.ravel(), grid.dim)
    fluid = phase_cells(grid, mask.chi_eps, 1.0, 0.0)
    gamma = AL_PENALTY_RATIO * visc * fluid
    A = assemble_vector_form(grid, visc * fluid, gamma, free)
    # A is SPD.  spd_factor's pivot check would double the memory of this
    # factor (+17 MB peak RSS on the eps sweep), so it is not used here.
    lu = spla.splu(A.tocsc(), **SPD_SPLU_OPTIONS)
    wq = grid.node_weights().ravel()
    rhs = (-np.asarray(drive, dtype=float)[:, None] * wq).ravel()[active]  # f - vol B'p_k
    v = np.zeros(grid.dim * grid.n_nodes)
    prev = np.inf
    for steps in range(1, max_steps + 1):
        v[active] = lu.solve(rhs)
        rhs -= strain_load(grid, gamma * cell_divergence(grid, v), np.eye(grid.dim))[active]
        flux = v.reshape(grid.dim, -1) @ wq / np.sum(wq)
        if np.linalg.norm(flux - prev) <= steady_tol * np.linalg.norm(flux):
            return flux, True, steps
        prev = flux
    return flux, False, max_steps


def compare_micro_macro(pattern: UnitCellPattern, params: MaterialParams, eps_list,
                        nodes_per_cell: int = 16, max_steps: int = 400, steady_tol: float = 1e-7):
    """Steady microscopic pore flux vs the Darcy prediction for shrinking eps.

    Single-fluid configurations only (mu1 == mu2 and c_f1 == c_f2); returns a
    list of rows {eps, micro_flux, darcy_flux, rel_error, observed_order,
    converged, steps}: whether the steady loop met steady_tol within
    max_steps (ValueError below 1), and its iteration count.  In the Darcy
    regime the skeleton is rigid and the steady micro flow is Stokes flow
    with viscosity eps^2 mu1 (_steady_pore_flux); tau, the sound speeds, lam
    and p0 do not change it and are not read.
    """
    if params.mu1 != params.mu2 or params.c_f1 != params.c_f2:
        raise ValueError("micro/macro comparison requires a single fluid "
                         "(mu1 == mu2 and c_f1 == c_f2)")
    if max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps}")
    eps_list = list(eps_list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")

    dim = len(params.p_drive_grad)
    K = permeability_cell_problem(pattern, periodic_cell_grid(dim, nodes_per_cell), params.mu1)
    g = np.asarray(params.p_drive_grad, dtype=float)
    _, q_darcy_vec = darcy_macro_solve(K, (0.5 * g[0], -0.5 * g[0]))
    q_darcy = float(q_darcy_vec[0])

    rows = []
    prev_err = None
    for eps in eps_list:
        grid = Grid(dim=dim, n_per_axis=round(1.0 / eps) * nodes_per_cell + 1)
        mask = build_phase_mask(pattern, eps, grid)
        flux, converged, steps = _steady_pore_flux(mask, eps**2 * params.mu1, g, max_steps,
                                                   steady_tol)
        q_micro = float(flux[0])
        rel = abs(q_micro - q_darcy) / max(abs(q_darcy), 1e-300)
        order = float("nan")
        if prev_err is not None and rel > 0 and prev_err > 0:
            order = float(np.log(prev_err / rel) / np.log(2.0))
        rows.append({"eps": eps, "micro_flux": q_micro, "darcy_flux": q_darcy,
                     "rel_error": rel, "observed_order": order, "converged": converged,
                     "steps": steps})
        prev_err = rel
    return rows
