"""Time stepping for the microscopic two-fluid poroelastic model.

Pressure is eliminated through the continuity laws (deviation form
p - p0 = -c^2 div w), which turns every implicit-Euler step into one
symmetric positive definite solve for the velocity:

    [eps^2 mu chi_f + tau lam (1-chi_f)] D(v):D(phi)
        + tau c^2 (div v)(div phi)
  = -grad p0_drive . phi  - p0 (n . phi)|_{S1 u S2}
        - lam (1-chi_f) D(w^n):D(phi) - c^2 (div w^n)(div phi)

with w^{n+1} = w^n + tau v^{n+1} and homogeneous displacement conditions on
S0.  eps is the cell size of the phase mask (PhaseMask.epsilon) and mu the
transport.update_viscosity of the fluid-1 fraction.  chi_f is the cell phase
of operators.phase_cells: a cell with a fluid corner is fluid and takes the
mean of mu (and of c_f^2) over its fluid corners; every other cell is
skeleton and takes lam (and c_s^2).  div is the cell-center divergence of
the reduced div*div form, and the ledger's compressive energy 1/2 int (p - p0)^2 / c^2 = 1/2 int c^2 (div w)^2 uses the
same one, per cell.  A per-step energy ledger tracks elastic + compressive
storage, viscous (plus implicit-Euler numerical) dissipation and external
work; their balance is exact up to solver tolerance.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import transport
from .geometry import PhaseMask, boundary_tags
from .grid import Grid, ScalarField, VectorField
from .operators import assemble_vector_form, cell_divergence, cell_volume, phase_cells
from .solvers import cg_solve, form_solver, projected_guess

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
    h_mollify: float = 0.1
    tau: float = 0.005

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
        elif not np.isfinite(self.h_mollify):
            problems.append(f"h_mollify must be finite, got {self.h_mollify}")
        if not np.isfinite(self.p0):
            problems.append(f"p0 must be finite, got {self.p0}")
        if not np.all(np.isfinite(self.p_drive_grad)):
            problems.append(f"p_drive_grad must be finite, got {self.p_drive_grad}")
        if problems:
            raise ValueError("\n".join(problems))


@dataclass
class SimState:
    w: VectorField
    v: VectorField
    chi: ScalarField
    t: float = 0.0

    @classmethod
    def initial(cls, mask: PhaseMask) -> "SimState":
        """Zero displacement and velocity, chi from the mask.  The viscosity
        is not state: it is transport.update_viscosity of chi."""
        grid = mask.grid
        return cls(w=VectorField.zeros(grid), v=VectorField.zeros(grid),
                   chi=ScalarField(grid, mask.chi.copy()))


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
    chi >= 1/2, the side of the free boundary it lies on (geometry.PhaseMask).
    The regularized model mollifies only the viscosity
    (transport.update_viscosity), so c^2 follows these sharp labels while mu
    follows the mollified chi_h.
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


# Stopping rule of the step solve (preconditioned CG, either solver).
CG_TOL = 1e-11
CG_MAX_ITER = 20000
# Committed step velocities whose Galerkin projection starts that solve.
CG_WINDOW = 8


class MicroSolver:
    """Holds the assembled forms for one (grid, mask, params) instance.

    Each step solve is conjugate gradients on the step operator that
    solvers.form_solver builds, with the preconditioner solver names: "cg"
    the geometric multigrid V-cycle ("multigrid"), "direct" the solve of an
    spd_factor of the whole operator ("factor"; an exact inverse, so CG
    stops after one or two corrections; cheap when the viscosity field does
    not change).  active lists the free dofs in the operator's row order
    (form_solver's dofs).  CG starts each step from
    solvers.projected_guess over the last CG_WINDOW committed step
    velocities: their combination closest to the new velocity in the norm
    of this step's operator, so never farther from it than the last
    velocity alone.  The window gains a velocity only when a step commits;
    an empty window, or one with no positive Gram eigenvalue (a run at
    rest), starts CG from zero.  A step whose CG misses CG_TOL within
    CG_MAX_ITER iterations raises RuntimeError.  The operator and its
    preconditioner are rebuilt whenever mu or c^2 moves.

    history holds one EnergyBreakdown per step.  trace holds one row per
    step: (t, CG iterations, relative residual of the step solve, CFL margin
    tau * max sum_k |v_k| / dx_k), for either preconditioner.
    stage_seconds sums the wall time of each stage since construction:
    "assemble" (the viscosity update and the operator and preconditioner
    rebuilds, the first ones included), "solve" (the step solves) and
    "transport" (advection).
    """

    def __init__(self, mask: PhaseMask, params: MaterialParams, *,
                 advance_transport: bool = True, solver: str = "cg",
                 dirichlet: str = "S0"):
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
        self.fixed_nodes = fixed
        g = np.asarray(params.p_drive_grad, dtype=float)
        if g.size != grid.dim:
            raise ValueError("p_drive_grad must have one entry per axis")

        self.state = SimState.initial(mask)
        self._lam_cells = phase_cells(grid, mask.chi_eps, 0.0, params.lam)
        self._built_chi = None
        self._mu_cells = None
        self._c2_cells = None
        self._window = deque(maxlen=CG_WINDOW)
        self.stage_seconds = {"assemble": 0.0, "solve": 0.0, "transport": 0.0}
        with self._stage("assemble"):
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

    @property
    def operator_nnz(self) -> int:
        """Stored entries of the step operator on the free dofs."""
        return self._A_red.nnz

    @contextmanager
    def _stage(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stage_seconds[name] += time.perf_counter() - start

    # -- operator plumbing --------------------------------------------------

    def _rebuild_operator(self):
        """E (storage: elastic D:D on the skeleton plus compressive div*div),
        re-assembled whenever the fluid labels move c^2, and A = viscous + tau E,
        built by form_solver with its dofs and preconditioner whenever mu or
        c^2 moves.  mu is transport.update_viscosity of the current chi; when
        chi is the one the operator was built from, nothing is derived or
        rebuilt.  The fields are stored only once form_solver returns, so a
        rebuild that raises leaves the solver as it was."""
        grid, params, mask = self.grid, self.params, self.mask
        chi = self.state.chi
        if np.array_equal(chi.values, self._built_chi):
            return
        mu = transport.update_viscosity(chi, mask, params)
        mu_cells = phase_cells(grid, mask.chi_eps, mu.values, 0.0)
        c2_cells = sound_speed_squared(mask, params, chi.values)
        c2_moved = not np.array_equal(c2_cells, self._c2_cells)
        E = assemble_vector_form(grid, self._lam_cells, c2_cells) if c2_moved else self._E
        if c2_moved or not np.array_equal(mu_cells, self._mu_cells):
            coef_sym = mask.epsilon**2 * mu_cells + params.tau * self._lam_cells
            self._A_red, self.active, self._precond = form_solver(
                grid, ~self.fixed_nodes, coef_sym, params.tau * c2_cells,
                "multigrid" if self.solver == "cg" else "factor")
        self._mu_cells, self._c2_cells, self._E = mu_cells, c2_cells, E
        self._built_chi = chi.values.copy()

    def apply_operator(self, v: VectorField) -> VectorField:
        """Constrained action of the per-step SPD operator on a trial velocity."""
        out = np.zeros(v.values.size)
        out[self.active] = self._A_red @ v.values.reshape(-1)[self.active]
        return VectorField(self.grid, out.reshape(v.values.shape))

    def _solve(self, rhs_red: np.ndarray):
        """(v_red, iterations, relative residual) of A_red v_red = rhs_red."""
        x0 = None
        if self._window:
            x0 = projected_guess(self._A_red, np.stack(self._window, axis=1), rhs_red)
        res = cg_solve(self._A_red, rhs_red, tol=CG_TOL, max_iter=CG_MAX_ITER,
                       x0=x0, precond=self._precond)
        if not res.converged:
            raise RuntimeError(
                f"CG failed to converge: {res.iterations} iterations, residual {res.residual:.3e}")
        return res.x, res.iterations, res.residual

    # -- stepping -----------------------------------------------------------

    def step(self) -> SimState:
        """One implicit-Euler step.  Nothing is committed until the solve and
        the transport update (with its CFL check) have both succeeded."""
        grid, params = self.grid, self.params
        with self._stage("assemble"):
            self._rebuild_operator()
        w_old = self.state.w.values.reshape(-1)
        Ew_old = self._E @ w_old
        with self._stage("solve"):
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
            # splitting order: momentum -> phase (advected); the next rebuild
            # derives the viscosity mu(chi) from it
            with self._stage("transport"):
                chi_new = transport.advect_phase(self.state.chi, v_new, self.mask, params.tau)

        st = self.state
        st.w = VectorField(grid, w_new.reshape((grid.dim,) + grid.shape))
        st.v = v_new
        st.t += params.tau
        if self.advance_transport:
            st.chi = chi_new
        self._window.append(v_red)
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
