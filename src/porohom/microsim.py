"""Time stepping for the microscopic two-fluid poroelastic model.

Pressure is eliminated through the continuity laws (deviation form
p - p0 = -c^2 div w), which turns every implicit-Euler step into one
symmetric positive definite solve for the velocity:

    [eps^2 mu chi_f + tau lam (1-chi_f)] D(v):D(phi)
        + tau c^2 (div v)(div phi)
  = -grad p0_drive . phi  - p0 (n . phi)|_{S1 u S2}
        - lam (1-chi_f) D(w^n):D(phi) - c^2 (div w^n)(div phi)

with w^{n+1} = w^n + tau v^{n+1} and homogeneous displacement conditions on
S0.  chi_f is the cell phase of operators.phase_cells: a cell with a fluid
corner is fluid and takes the mean of mu (and of c_f^2) over its fluid
corners; every other cell is skeleton and takes lam (and c_s^2).  div is the
cell-center divergence of the reduced div*div form, and the ledger's
compressive energy 1/2 int (p - p0)^2 / c^2 = 1/2 int c^2 (div w)^2 uses the
same one, per cell.  A per-step energy ledger tracks elastic + compressive
storage, viscous (plus implicit-Euler numerical) dissipation and external
work; their balance is exact up to solver tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import scipy.sparse.linalg as spla

from . import transport
from .geometry import PhaseMask, boundary_tags, cells_across
from .grid import Grid, ScalarField, VectorField
from .operators import (
    assemble_vector_form,
    cell_divergence,
    cell_volume,
    coarse_levels,
    coarse_vector_forms,
    phase_cells,
)
from .solvers import SPD_SPLU_OPTIONS, VCycle, cg_solve

__all__ = [
    "MaterialParams",
    "SimState",
    "EnergyBreakdown",
    "MicroSolver",
    "sound_speed_squared",
]


@dataclass(frozen=True)
class MaterialParams:
    mu1: float = 1.0
    mu2: float = 1.0
    lam: float = 1.0
    c_f1: float = 1.0
    c_f2: float = 1.0
    c_s: float = 1.0
    p0: float = 0.0
    p_drive_grad: tuple = (1.0, 0.0)  # constant gradient of the driving field p^0
    epsilon: float = 1.0
    h_mollify: float = 0.1
    tau: float = 0.1

    def __post_init__(self):
        """ValueError naming every violation, one line each."""
        problems = []
        for name in ("mu1", "mu2", "lam", "c_f1", "c_f2", "c_s", "tau"):
            value = getattr(self, name)
            if not value > 0:
                problems.append(f"{name} must be positive, got {value}")
            elif not np.isfinite(value):
                problems.append(f"{name} must be finite, got {value}")
        if not self.h_mollify >= 0:
            problems.append(f"h_mollify must be >= 0, got {self.h_mollify}")
        if not np.isfinite(self.p0):
            problems.append(f"p0 must be finite, got {self.p0}")
        if not np.all(np.isfinite(self.p_drive_grad)):
            problems.append(f"p_drive_grad must be finite, got {self.p_drive_grad}")
        try:
            cells_across(self.epsilon)
        except ValueError as exc:
            problems.append(str(exc))
        if problems:
            raise ValueError("\n".join(problems))


@dataclass
class SimState:
    w: VectorField
    v: VectorField
    mu: ScalarField
    chi: ScalarField
    t: float = 0.0

    @classmethod
    def initial(cls, mask: PhaseMask, params: MaterialParams) -> "SimState":
        """Zero displacement, viscosity mu_j on the initial fluid-j region."""
        grid = mask.grid
        mu = np.where(mask.chi >= 0.5, params.mu1, params.mu2)
        return cls(
            w=VectorField.zeros(grid),
            v=VectorField.zeros(grid),
            mu=ScalarField(grid, mu),
            chi=ScalarField(grid, mask.chi.copy()),
            t=0.0,
        )


class EnergyBreakdown(NamedTuple):
    t: float = 0.0
    elastic: float = 0.0
    compressive: float = 0.0
    dissipated_cumulative: float = 0.0
    external_work_cumulative: float = 0.0
    balance_residual: float = 0.0


def sound_speed_squared(mask: PhaseMask, params: MaterialParams, chi: np.ndarray):
    """Per-cell c^2 (flat, length ncells): on a fluid cell the mean of c_f1^2 /
    c_f2^2 over its fluid corners by fluid label, c_s^2 on a skeleton cell
    (operators.phase_cells).

    chi is the current fluid-1 fraction; a node belongs to fluid 1 where
    chi >= 1/2, the rule SimState.initial uses for the viscosity.
    """
    c_fluid = np.where(chi >= 0.5, params.c_f1**2, params.c_f2**2)
    return phase_cells(mask.grid, mask.chi_eps, c_fluid, params.c_s**2)


def _surface_load(grid: Grid, p0: float) -> np.ndarray:
    """Natural traction contribution of P<n> = -p0 n over S1 and S2,
    with trapezoidal quadrature in the face coordinates."""
    load = np.zeros((grid.dim,) + grid.shape)
    if p0 == 0.0 or grid.periodic[0]:
        return load.reshape(-1)
    # the face rule is the node rule on the S1 face without its x1 factor
    ws = grid.node_weights()[-1] / (0.5 * grid.spacing(0))
    load[0, -1, ...] = -p0 * ws  # S1, outward normal +e1
    load[0, 0, ...] = +p0 * ws   # S2, outward normal -e1
    return load.reshape(-1)


# Stopping rule of the solver="cg" step solve (multigrid-preconditioned CG).
CG_TOL = 1e-11
CG_MAX_ITER = 20000


class MicroSolver:
    """Holds the assembled forms for one (grid, mask, params) instance.

    solver: "cg" (conjugate gradients preconditioned by a geometric
    multigrid V-cycle, warm started) or "direct" (cached sparse LU, cheap
    when the viscosity field does not change).  The V-cycle halves the box
    grid (operators.coarse_levels, built once per grid and free-node mask,
    restrictions included) down to at most operators.COARSE_DOFS free dofs;
    the coarse forms are assembled from the fine cell coefficients
    (operators.coarse_vector_forms) and the coarsest one is factored whenever
    the operator moves.

    history holds one EnergyBreakdown per step.  trace holds one row per
    step: (t, CG iterations, relative residual of the step solve, CFL margin
    tau * max sum_k |v_k| / dx_k).  A direct step counts 0 iterations.

    With the solid pinned (pin_solid=True) the elastic term acts on fixed
    dofs only, and one step is exactly one Uzawa / augmented-Lagrangian
    iteration for incompressible Stokes flow with penalty gamma = tau c^2
    and pressure -c^2 div w: (eps^2 mu V + tau c^2 B'B) v = f - c^2 B'B w,
    with V the D:D form and B the cell-centre divergence on the free dofs.
    A steady march converges to the discretely divergence-free Stokes
    velocity, whatever tau and c^2 are; they set only its contraction rate.
    """

    def __init__(self, mask: PhaseMask, params: MaterialParams, *,
                 advance_transport: bool = True, solver: str = "cg",
                 dirichlet: str = "S0", pin_solid: bool = False):
        if solver not in ("cg", "direct"):
            raise ValueError(f"unknown solver {solver!r}")
        self.grid = mask.grid
        self.mask = mask
        self.params = params
        self.advance_transport = advance_transport
        self.solver = solver

        grid = self.grid
        tags = boundary_tags(grid)
        if dirichlet == "S0":
            fixed = tags["S0"]
        elif dirichlet == "S0+S1+S2":
            fixed = tags["S0"] | tags["S1"] | tags["S2"]
        else:
            raise ValueError(f"unknown dirichlet set {dirichlet!r}")
        if pin_solid:
            # Rigid-skeleton regime: isolated inclusions carry no anchoring of
            # their own, so Darcy-type comparisons clamp the solid displacement.
            fixed = fixed | mask.solid
        self.fixed_nodes = fixed
        self.active = np.tile(~fixed.ravel(), grid.dim)
        g = np.asarray(params.p_drive_grad, dtype=float)
        if g.size != grid.dim:
            raise ValueError("p_drive_grad must have one entry per axis")

        self.state = SimState.initial(mask, params)
        self._lam_cells = phase_cells(grid, mask.chi_eps, 0.0, params.lam)
        self._mu_cells = None
        self._c2_cells = None
        self._lu = None
        self._vcycle = None
        self._v_warm = None
        self._rebuild_operator()

        load = np.zeros(grid.dim * grid.n_nodes)
        wq = grid.node_weights().ravel()
        for k in range(grid.dim):
            load[k * grid.n_nodes:(k + 1) * grid.n_nodes] = -g[k] * wq
        load += _surface_load(grid, params.p0)
        self.load = load

        self.history = []
        self.trace = []

    @property
    def energy(self) -> EnergyBreakdown:
        """The ledger after the last step (zeros before the first)."""
        return self.history[-1] if self.history else EnergyBreakdown()

    # -- operator plumbing --------------------------------------------------

    def _rebuild_operator(self):
        """E (storage: elastic D:D on the skeleton plus compressive div*div),
        re-assembled whenever the fluid labels move c^2, and A = viscous + tau E,
        assembled as one form whenever mu or c^2 moves, with its multigrid
        V-cycle (solver="cg") or a dropped LU (solver="direct")."""
        grid, params = self.grid, self.params
        st = self.state
        mu_cells = phase_cells(grid, self.mask.chi_eps, st.mu.values, 0.0)
        c2_cells = sound_speed_squared(self.mask, params, st.chi.values)
        if not np.array_equal(c2_cells, self._c2_cells):
            self._c2_cells = c2_cells
            self._E = assemble_vector_form(grid, self._lam_cells, c2_cells)
        elif np.array_equal(mu_cells, self._mu_cells):
            return
        self._mu_cells = mu_cells
        tau = params.tau
        coef_sym = params.epsilon**2 * mu_cells + tau * self._lam_cells
        coef_div = tau * self._c2_cells
        self._A_red = assemble_vector_form(grid, coef_sym, coef_div, ~self.fixed_nodes)
        self._lu = None
        if self.solver == "cg":
            levels = coarse_levels(grid, ~self.fixed_nodes)
            coarse = coarse_vector_forms(grid, levels, coef_sym, coef_div)
            self._vcycle = VCycle([self._A_red, *coarse], levels)

    def apply_operator(self, v: VectorField) -> VectorField:
        """Constrained action of the per-step SPD operator on a trial velocity."""
        out = np.zeros(v.values.size)
        out[self.active] = self._A_red @ v.values.reshape(-1)[self.active]
        return VectorField(self.grid, out.reshape(v.values.shape))

    def _solve(self, rhs_red: np.ndarray):
        """(v_red, iterations, relative residual) of A_red v_red = rhs_red."""
        if self.solver == "direct":
            if self._lu is None:
                # _A_red is SPD for the positive coefficients MaterialParams
                # admits.  spd_factor's pivot check would double the memory of
                # this factor (+17 MB peak RSS on the eps sweep), so it is not
                # used here.
                self._lu = spla.splu(self._A_red.tocsc(), **SPD_SPLU_OPTIONS)
            x = self._lu.solve(rhs_red)
            b_norm = float(np.linalg.norm(rhs_red))
            residual = np.linalg.norm(rhs_red - self._A_red @ x) / b_norm if b_norm else 0.0
            return x, 0, float(residual)
        res = cg_solve(self._A_red, rhs_red, tol=CG_TOL, max_iter=CG_MAX_ITER,
                       x0=self._v_warm, precond=self._vcycle)
        if not res.converged:
            raise RuntimeError(
                f"CG failed to converge: {res.iterations} iterations, residual {res.residual:.3e}")
        return res.x, res.iterations, res.residual

    # -- stepping -----------------------------------------------------------

    def step(self) -> SimState:
        """One implicit-Euler step.  Nothing is committed until the solve and
        the transport update (with its CFL check) have both succeeded."""
        grid, params = self.grid, self.params
        self._rebuild_operator()
        w_old = self.state.w.values.reshape(-1)
        Ew_old = self._E @ w_old
        v_red, iterations, solve_residual = self._solve((self.load - Ew_old)[self.active])
        v_flat = np.zeros(grid.dim * grid.n_nodes)
        v_flat[self.active] = v_red

        e_old = 0.5 * float(w_old @ Ew_old)
        w_new = w_old + params.tau * v_flat
        div_new = cell_divergence(grid, w_new)
        e_cp = 0.5 * cell_volume(grid) * float(np.sum(self._c2_cells * div_new**2))
        e_el = 0.5 * float(w_new @ (self._E @ w_new)) - e_cp
        # viscous work plus the implicit-Euler numerical dissipation 0.5 tau^2 v.Ev
        diss = params.tau * float(v_red @ (self._A_red @ v_red))
        diss -= 0.5 * params.tau**2 * float(v_flat @ (self._E @ v_flat))
        work = params.tau * float(v_flat @ self.load)
        delta_e = (e_el + e_cp) - e_old
        scale = max(abs(delta_e), abs(diss), abs(work), 1e-300)
        residual = abs(delta_e + diss - work) / scale

        v_new = VectorField(grid, v_flat.reshape((grid.dim,) + grid.shape))
        if self.advance_transport:
            # splitting order: momentum -> phase -> viscosity (advect + mollify)
            moved = replace(self.state, v=v_new)
            chi_new = transport.advect_phase(moved, self.mask, params.tau)
            mu_new = transport.update_viscosity(moved, self.mask, params)

        st = self.state
        st.w = VectorField(grid, w_new.reshape((grid.dim,) + grid.shape))
        st.v = v_new
        st.t += params.tau
        if self.advance_transport:
            st.chi, st.mu = chi_new, mu_new
        self._v_warm = v_red
        last = self.energy
        self.history.append(EnergyBreakdown(
            st.t, e_el, e_cp, last.dissipated_cumulative + diss,
            last.external_work_cumulative + work, residual))
        self.trace.append(
            (self.state.t, iterations, solve_residual, transport.cfl_margin(v_new, params.tau)))
        return self.state

    def run(self, n_steps: int) -> SimState:
        for _ in range(n_steps):
            self.step()
        return self.state

    def mean_pore_velocity(self) -> np.ndarray:
        """Domain-averaged pore velocity (the micro Darcy flux)."""
        w = self.grid.node_weights() * self.mask.chi_eps
        tot = np.sum(self.grid.node_weights())
        return np.array(
            [float(np.sum(w * self.state.v.values[k])) / tot for k in range(self.grid.dim)])

    def run_to_steady(self, max_steps: int = 500, rel_tol: float = 1e-7) -> bool:
        """Step until the mean pore velocity stops changing.  Returns whether
        it did (True) or the run stopped at max_steps (False)."""
        prev = None
        for _ in range(max_steps):
            self.step()
            q = self.mean_pore_velocity()
            if prev is not None:
                if np.linalg.norm(q - prev) <= rel_tol * max(np.linalg.norm(q), 1e-300):
                    return True
            prev = q
        return False
