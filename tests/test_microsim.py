import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from porohom.geometry import UnitCellPattern, build_phase_mask, init_fluid_partition
from porohom.grid import Grid, VectorField
from porohom.microsim import (
    CG_TOL,
    CG_WINDOW,
    EnergyBreakdown,
    MaterialParams,
    MicroSolver,
    SimState,
    sound_speed_squared,
)
from porohom.operators import (
    COARSE_DOFS,
    assemble_vector_form,
    cell_corner_indices,
    cell_counts,
    cell_divergence,
    cell_volume,
    phase_cells,
)
from porohom.operators import _stencil_layout
from porohom.solvers import cg_solve, projected_guess
from porohom import microsim, solvers, transport
from porohom.transport import cfl_margin, update_viscosity


def _phase_oracle(mask, fluid_nodal, solid_value):
    """Per-cell coefficient, built apart from phase_cells: the mean of a nodal
    field over each cell's fluid corners, solid_value on cells with none."""
    corners = cell_corner_indices(mask.grid)
    vals = np.broadcast_to(fluid_nodal, mask.grid.shape).ravel()[corners]
    solid_corner = mask.chi_eps.ravel()[corners] == 0
    return np.ma.masked_array(vals, mask=solid_corner).mean(axis=1).filled(solid_value)


def _c2_oracle(mask, par, labels):
    return _phase_oracle(mask, np.where(labels >= 0.5, par.c_f1**2, par.c_f2**2), par.c_s**2)


def _two_fluid_mask(n=17, eps=1.0, r0=0.25, plane=0.0):
    g = Grid(2, n)
    mask = build_phase_mask(UnitCellPattern("disk", r0), eps, g)
    return init_fluid_partition(mask, plane)


def test_material_params_validation():
    with pytest.raises(ValueError):
        MaterialParams(mu1=0.0)
    with pytest.raises(ValueError):
        MaterialParams(tau=-0.1)
    MaterialParams(mu1=0.25)  # fine


def test_material_params_rejects_negative_mollification_radius():
    with pytest.raises(ValueError, match="h_mollify must be >= 0"):
        MaterialParams(h_mollify=-1.0)
    MaterialParams(h_mollify=0.0)  # zero turns mollification off


def test_a_drive_gradient_of_the_wrong_length_fails_before_any_assembly():
    mask = _two_fluid_mask(n=11)
    misses = _stencil_layout.cache_info().misses
    with pytest.raises(ValueError, match="one entry per axis"):
        MicroSolver(mask, MaterialParams(p_drive_grad=(1.0, 0.0, 0.0)))
    assert _stencil_layout.cache_info().misses == misses


def test_material_params_names_every_violation_in_one_error():
    with pytest.raises(ValueError) as err:
        MaterialParams(mu1=-2.0, tau=0.0, h_mollify=-1.0)
    lines = str(err.value).splitlines()
    assert len(lines) == 3
    for key in ("mu1 must be positive", "tau must be positive", "h_mollify must be >= 0"):
        assert sum(key in line for line in lines) == 1, key


@pytest.mark.parametrize("name", ["mu1", "mu2", "lam", "c_f1", "c_f2", "c_s", "tau", "h_mollify"])
def test_material_params_rejects_an_infinite_coefficient(name):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
        MaterialParams(**{name: np.inf})


def test_initial_viscosity_is_derived_from_the_phase():
    mask = _two_fluid_mask()
    par = MaterialParams(mu1=2.0, mu2=5.0, h_mollify=0.0)
    st = SimState.initial(mask)
    assert np.array_equal(st.chi.values, mask.chi) and st.chi.values is not mask.chi
    mu = update_viscosity(st.chi, mask, par).values
    x1 = mask.grid.coords()[0]
    assert np.all(mu[x1 > 0.01] == 2.0)
    assert np.all(mu[x1 < -0.01] == 5.0)
    assert np.abs(st.w.values).max() == 0.0
    ms = MicroSolver(mask, par)
    assert np.array_equal(ms._mu_cells, phase_cells(mask.grid, mask.chi_eps, mu, 0.0))


def test_viscous_form_is_scaled_by_the_cell_size_of_the_mask():
    # eps comes from the mask alone: MaterialParams() carries no cell size
    mask = build_phase_mask(UnitCellPattern("disk", 0.25), 0.5, Grid(2, 33))
    par = MaterialParams()
    ms = MicroSolver(mask, par)
    g = mask.grid
    mu = _phase_oracle(mask, par.mu1, 0.0)
    lam = _phase_oracle(mask, 0.0, par.lam)
    A = assemble_vector_form(g, 0.25 * mu + par.tau * lam,
                             par.tau * _c2_oracle(mask, par, mask.chi), ~ms.fixed_nodes)
    assert abs(ms._A_red - A).max() <= 1e-14 * abs(A).max()


def test_two_fluid_solver_rejects_an_unresolved_mollifier():
    # 2D n = 17: the default h_mollify 0.1 is below the floor of 2 spacings
    mask = _two_fluid_mask(n=17)
    with pytest.raises(ValueError, match="resolution floor"):
        MicroSolver(mask, MaterialParams(mu1=1.0, mu2=2.0))
    MicroSolver(mask, MaterialParams(mu1=2.0, mu2=2.0)).run(2)  # one fluid: never mollified


def _pressure_deviation(ms, c2):
    """Cell-center p - p0 = -c^2 div w of the solver's state, with the
    discrete divergence the solver eliminates the pressure with."""
    return -c2 * cell_divergence(ms.grid, ms.state.w.values.reshape(-1))


def test_pressure_deviation_form():
    mask = _two_fluid_mask()
    par = MaterialParams(p0=0.7, c_f1=1.5, c_f2=0.5, c_s=2.0)
    ms = MicroSolver(mask, par)
    c2 = sound_speed_squared(mask, par, mask.chi)
    assert np.array_equal(ms._c2_cells, c2)
    p = par.p0 + _pressure_deviation(ms, c2)
    assert p.shape == (int(np.prod(cell_counts(mask.grid))),)
    assert np.abs(p - 0.7).max() == 0.0
    # uniform expansion w = x: div w = 2, so p = p0 - 2 c^2 (pressure drops)
    ms.state.w = VectorField(mask.grid, np.stack(mask.grid.coords()))
    assert np.allclose(par.p0 + _pressure_deviation(ms, c2),
                       0.7 - 2.0 * _c2_oracle(mask, par, mask.chi), rtol=1e-13, atol=1e-13)
    # per cell: c_s^2 on the skeleton, a fluid-corner mean of c_f^2 elsewhere
    assert {1.5**2, 0.5**2, 2.0**2} <= set(np.unique(c2))
    assert c2.min() >= 0.5**2 and c2.max() <= 2.0**2


def test_pressure_carries_the_compressive_energy():
    # the ledger's compressive energy is 1/2 int (p - p0)^2 / c^2 of the cell
    # pressure deviation -c^2 div w
    mask = _two_fluid_mask(n=17)
    par = MaterialParams(mu1=1.0, mu2=2.0, c_f1=1.5, c_f2=0.7, c_s=2.0, tau=0.002,
                         h_mollify=0.0, p0=0.3, p_drive_grad=(0.5, 0.0))
    ms = MicroSolver(mask, par, advance_transport=True)
    ms.run(4)
    c2 = _c2_oracle(mask, par, mask.chi)
    e_cp = 0.5 * cell_volume(mask.grid) * np.sum(_pressure_deviation(ms, c2)**2 / c2)
    assert ms.energy.compressive > 0.0
    assert e_cp == pytest.approx(ms.energy.compressive, rel=1e-12)


def test_sound_speed_follows_the_advected_labels():
    # a ramp interface whose 1/2 level set sits just right of a node column:
    # the flow towards S2 carries fluid 1 across that column in one step; one
    # viscosity, so only the moved c^2 can trigger the re-assembly
    mask = _two_fluid_mask(n=17)
    g = mask.grid
    mask.chi = np.clip(0.5 + (g.coords()[0] - 1e-5) / (4 * g.spacing(0)), 0.0, 1.0)
    par = MaterialParams(mu1=1.0, mu2=1.0, c_f1=1.5, c_f2=0.5, c_s=2.0, tau=0.002,
                         h_mollify=0.0, p0=0.3, p_drive_grad=(0.5, 0.0))
    ms = MicroSolver(mask, par, advance_transport=True)
    c2_initial = _c2_oracle(mask, par, mask.chi)
    assert np.array_equal(ms._c2_cells, c2_initial)
    ms.step()
    labels = ms.state.chi.values.copy()
    assert np.any((labels >= 0.5) != (mask.chi >= 0.5))
    ms.step()
    c2 = _c2_oracle(mask, par, labels)
    assert not np.array_equal(c2, c2_initial)
    assert np.array_equal(ms._c2_cells, c2)
    lam = _phase_oracle(mask, 0.0, par.lam)
    E = assemble_vector_form(g, lam, c2)
    A = assemble_vector_form(g, mask.epsilon**2 * ms._mu_cells + par.tau * lam, par.tau * c2)
    for got, want in ((ms._E, E), (ms._A_red, A[ms.active][:, ms.active])):
        assert abs(got - want).max() <= 1e-13 * abs(want).max()
    assert all(row[-1] <= 1e-10 for row in ms.history)
    e_cp = 0.5 * cell_volume(g) * np.sum(_pressure_deviation(ms, c2)**2 / c2)
    assert ms.energy.compressive > 0.0
    assert e_cp == pytest.approx(ms.energy.compressive, rel=1e-12)


@pytest.mark.parametrize("dim,n,pattern", [(2, 17, "disk"), (3, 9, "sphere")])
def test_one_assembly_operators_match_the_separate_forms(dim, n, pattern):
    g = Grid(dim, n)
    mask = init_fluid_partition(build_phase_mask(UnitCellPattern(pattern, 0.25), 1.0, g), 0.1)
    par = MaterialParams(mu1=1.0, mu2=3.0, lam=1.3, c_f1=1.5, c_f2=0.7, c_s=2.0,
                         tau=0.01, h_mollify=0.0, p_drive_grad=(1.0,) + (0.0,) * (dim - 1))
    ms = MicroSolver(mask, par, advance_transport=False)
    # a cell with any fluid corner is fluid: full mu, no lam
    fluid_cell = mask.chi_eps.ravel()[cell_corner_indices(g)].max(axis=1) > 0
    lam = par.lam * ~fluid_cell
    zero = np.zeros_like(lam)
    elastic = assemble_vector_form(g, lam, None)
    compressive = assemble_vector_form(g, zero, _c2_oracle(mask, par, mask.chi))
    mu = _phase_oracle(mask, update_viscosity(ms.state.chi, mask, par).values, 0.0)
    viscous = assemble_vector_form(g, mask.epsilon**2 * mu, None)
    A = viscous + par.tau * (elastic + compressive)
    for got, want in ((ms._E, elastic + compressive), (ms._A_red, A[ms.active][:, ms.active])):
        diff = abs(got - want).max()
        assert diff <= 1e-13 * abs(want).max()


def test_operator_symmetry_on_random_probes():
    mask = _two_fluid_mask()
    par = MaterialParams(mu1=1.0, mu2=3.0, tau=0.05, h_mollify=0.0)
    ms = MicroSolver(mask, par, advance_transport=False)
    rng = np.random.default_rng(0)
    shape = (2,) + mask.grid.shape
    for _ in range(10):
        u = VectorField(mask.grid, rng.standard_normal(shape))
        v = VectorField(mask.grid, rng.standard_normal(shape))
        au = ms.apply_operator(u).values.reshape(-1)
        av = ms.apply_operator(v).values.reshape(-1)
        lhs = float(v.values.reshape(-1) @ au)
        rhs = float(u.values.reshape(-1) @ av)
        assert abs(lhs - rhs) / max(abs(lhs), 1e-300) < 1e-12


def test_cg_step_matches_dense_oracle_8x8():
    from porohom.geometry import PhaseMask

    g = Grid(2, 8)
    chi_eps = np.ones(g.shape)
    chi_eps[3:5, 3:5] = 0.0  # small solid block, hand-built below the
    chi = (g.coords()[0] > 0).astype(float)  # resolution floor of the builder
    mask = PhaseMask(g, chi_eps, chi, 1.0)
    par = MaterialParams(mu1=1.0, mu2=3.0, tau=0.05, h_mollify=0.0, p0=0.5)
    ms = MicroSolver(mask, par, advance_transport=False)
    rhs = (ms.load - ms._E @ ms.state.w.values.reshape(-1))[ms.active]
    dense = ms._A_red.toarray()
    x_oracle = np.linalg.solve(dense, rhs)
    res = cg_solve(ms._A_red, rhs, tol=1e-13, precond_diag=ms._A_red.diagonal())
    assert res.converged
    assert np.abs(res.x - x_oracle).max() < 1e-8


def test_1d_column_steady_state_matches_tridiagonal_oracle():
    # all-solid column, periodic transverse axis, ends and walls clamped;
    # the balance is (lam + c_s^2) w'' = -dp0/dx1 discretized by P1 elements
    n = 33
    g = Grid(2, n, periodic=(False, True))
    mask = build_phase_mask(UnitCellPattern("full-solid", 0.0), 1.0, g)
    par = MaterialParams(mu1=1.0, mu2=1.0, lam=2.0, c_s=1.5, tau=0.1,
                         h_mollify=0.0, p0=0.0, p_drive_grad=(0.7, 0.0))
    ms = MicroSolver(mask, par, advance_transport=False,
                     dirichlet="S0+S1+S2", solver="direct")
    ms.run(4)
    w1 = ms.state.w.values[0]
    assert np.abs(w1 - w1[:, :1]).max() < 1e-12  # invariant along x2
    assert np.abs(ms.state.w.values[1]).max() < 1e-12

    dx = 1.0 / (n - 1)
    coef = par.lam + par.c_s**2
    main = 2.0 * np.ones(n)
    main[0] = main[-1] = 1.0
    K = sp.diags([main, -np.ones(n - 1), -np.ones(n - 1)], [0, -1, 1]).tocsr() * (coef / dx)
    wts = np.full(n, dx)
    wts[0] *= 0.5
    wts[-1] *= 0.5
    rhs = -par.p_drive_grad[0] * wts
    idx = np.arange(1, n - 1)
    w_oracle = np.zeros(n)
    w_oracle[idx] = spla.spsolve(K[idx][:, idx].tocsc(), rhs[idx])
    assert np.abs(w1[:, 0] - w_oracle).max() < 1e-8
    # second run leaves the steady state unchanged
    ms.run(2)
    assert np.abs(ms.state.w.values[0][:, 0] - w_oracle).max() < 1e-8


@pytest.mark.parametrize("grid, pattern, dirichlet", [
    (Grid(2, 17), "disk", "S0"),
    (Grid(3, 9), "sphere", "S0"),
    (Grid(2, 33, periodic=(False, True)), "full-solid", "S0+S1+S2"),
    (Grid(2, 17, periodic=(True, False)), "disk", "S0"),
], ids=["2d", "3d", "mixed-column", "periodic-x1"])
def test_load_is_the_body_force_plus_the_s1_s2_traction(grid, pattern, dirichlet):
    g = (0.3, -0.4, 0.2)[:grid.dim]
    par = MaterialParams(h_mollify=0.0, p0=0.7, p_drive_grad=g)
    mask = build_phase_mask(UnitCellPattern(pattern, 0.25), 1.0, grid)
    ms = MicroSolver(mask, par, advance_transport=False, dirichlet=dirichlet)
    weights = grid.node_weights()
    want = -np.asarray(g)[:, None] * weights.ravel()
    if not grid.periodic[0]:
        # trapezoid rule on the x1 faces: the node rule without its x1 factor
        face = weights[-1] / (0.5 * grid.spacing(0))
        want = want.reshape((grid.dim,) + grid.shape)
        want[0, -1] -= par.p0 * face  # S1, outward normal +e1
        want[0, 0] += par.p0 * face   # S2, outward normal -e1
    got = ms.load[ms.active]
    want = want.ravel()[ms.active]
    assert np.abs(got - want).max() <= 1e-14 * np.abs(got).max()


def test_mollified_model_tends_to_the_sharp_viscosity_model():
    # B^eps mollifies only the viscosity (transport.update_viscosity); as the
    # radius h_mollify shrinks its solution should tend to that of the
    # sharp-viscosity model, h_mollify = 0.  The transient-2d material.
    grid = Grid(2, 65)
    mask = init_fluid_partition(build_phase_mask(UnitCellPattern("disk", 0.25), 0.5, grid), 0.1)
    weights = grid.node_weights()

    def run(h):
        ms = MicroSolver(mask, MaterialParams(mu1=1.0, mu2=3.0, lam=1.0, tau=0.005, h_mollify=h))
        ms.run(12)
        return ms.state.v.values, ms.energy.dissipated_cumulative

    def l2(v):
        return np.sqrt(np.sum(weights * v**2))

    v0, d0 = run(0.0)
    hs = (0.2, 0.1, 0.05)
    velocity_gap, dissipation_gap = [], []
    for h in hs:
        v, d = run(h)
        velocity_gap.append(l2(v - v0) / l2(v0))
        dissipation_gap.append(abs(d - d0) / d0)
    assert all(b < a for a, b in zip(velocity_gap, velocity_gap[1:])), velocity_gap
    assert all(b < a for a, b in zip(dissipation_gap, dissipation_gap[1:])), dissipation_gap
    order = np.log(velocity_gap[-2] / velocity_gap[-1]) / np.log(hs[-2] / hs[-1])
    assert order >= 0.8, (velocity_gap, order)


def test_energy_balance_and_monotone_dissipation():
    mask = _two_fluid_mask(n=17)
    par = MaterialParams(mu1=1.0, mu2=2.0, tau=0.002, h_mollify=0.0,
                         p0=0.3, p_drive_grad=(0.5, 0.0))
    ms = MicroSolver(mask, par, advance_transport=True)
    prev_diss = 0.0
    for _ in range(10):
        ms.step()
        assert ms.energy.balance_residual < 1e-6
        assert ms.energy.dissipated_cumulative >= prev_diss
        prev_diss = ms.energy.dissipated_cumulative
    assert len(ms.history) == 10


def test_equilibrium_is_a_fixed_point():
    mask = _two_fluid_mask()
    par = MaterialParams(mu1=1.0, mu2=2.0, tau=0.05, h_mollify=0.0,
                         p0=0.0, p_drive_grad=(0.0, 0.0))
    ms = MicroSolver(mask, par, advance_transport=True)
    ms.run(3)
    assert np.abs(ms.state.w.values).max() == 0.0
    assert np.abs(ms.state.v.values).max() == 0.0


def test_relabeling_symmetry():
    # swapping the two fluids with identical parameters leaves the flow intact
    mask = _two_fluid_mask()
    par = MaterialParams(mu1=1.5, mu2=1.5, c_f1=1.2, c_f2=1.2, tau=0.002,
                         h_mollify=0.0, p0=0.3, p_drive_grad=(0.5, 0.0))
    a = MicroSolver(mask, par, advance_transport=True)
    flipped = mask.copy()
    flipped.chi = 1.0 - flipped.chi
    b = MicroSolver(flipped, par, advance_transport=True)
    for _ in range(4):
        a.step()
        b.step()
    assert np.abs(a.state.v.values - b.state.v.values).max() < 1e-12
    assert np.abs(a.state.w.values - b.state.w.values).max() < 1e-12


def test_direct_and_cg_solvers_agree():
    mask = _two_fluid_mask(n=17)
    par = MaterialParams(mu1=1.0, mu2=2.0, tau=0.01, h_mollify=0.0,
                         p0=0.2, p_drive_grad=(0.3, 0.0))
    a = MicroSolver(mask, par, advance_transport=False, solver="cg")
    b = MicroSolver(mask, par, advance_transport=False, solver="direct")
    for _ in range(3):
        a.step()
        b.step()
    assert np.abs(a.state.v.values - b.state.v.values).max() < 1e-9


def test_direct_solver_refactors_when_mu_moves():
    # transport moves mu every step; a stale factor would precondition the
    # first step's operator, and CG would need more than two corrections
    mask = _two_fluid_mask(n=17)
    par = MaterialParams(mu1=1.0, mu2=3.0, tau=0.002, h_mollify=0.0,
                         p0=0.3, p_drive_grad=(0.5, 0.0))
    a = MicroSolver(mask, par, advance_transport=True, solver="cg")
    b = MicroSolver(mask, par, advance_transport=True, solver="direct")
    mu_start = b._mu_cells.copy()
    for _ in range(3):
        a.step()
        b.step()
    assert not np.array_equal(b._mu_cells, mu_start)
    assert all(row[1] <= 2 for row in b.trace)
    assert np.abs(a.state.v.values - b.state.v.values).max() < 1e-9


def test_viscous_operator_rebuild_tracks_mu_changes():
    mask = _two_fluid_mask(n=17)
    par = MaterialParams(mu1=1.0, mu2=4.0, tau=0.002, h_mollify=0.0,
                         p0=0.3, p_drive_grad=(0.5, 0.0))
    ms = MicroSolver(mask, par, advance_transport=True)
    before = ms._mu_cells.copy()
    ms.run(5)
    # transport moves the viscosity contrast, the operator must follow
    assert not np.array_equal(before, ms._mu_cells)


def test_solver_rejects_unknown_options():
    mask = _two_fluid_mask(n=9)
    par = MaterialParams()
    with pytest.raises(ValueError):
        MicroSolver(mask, par, solver="gauss")
    with pytest.raises(ValueError):
        MicroSolver(mask, par, dirichlet="everything")


def test_cfl_failure_leaves_the_state_unchanged():
    mask = _two_fluid_mask(n=17)
    par = MaterialParams(mu1=1.0, mu2=2.0, tau=2.0, h_mollify=0.0,
                         p0=0.3, p_drive_grad=(0.5, 0.0))
    ms = MicroSolver(mask, par, advance_transport=True)
    _assert_failed_step_changes_nothing(ms, ValueError, "CFL")
    assert ms.state.t == 0.0 and ms.energy == EnergyBreakdown()
    assert ms.history == [] and ms.trace == [] and len(ms._window) == 0


def _assert_failed_step_changes_nothing(ms, error, match):
    state, t = ms.state, ms.state.t
    fields = [f.values.copy() for f in (state.w, state.v, state.chi)]
    mu = update_viscosity(state.chi, ms.mask, ms.params).values
    history, trace, window = list(ms.history), list(ms.trace), list(ms._window)
    with pytest.raises(error, match=match):
        ms.step()
    assert ms.state is state and state.t == t
    for f, before in zip((state.w, state.v, state.chi), fields):
        assert np.array_equal(f.values, before)
    assert np.array_equal(update_viscosity(state.chi, ms.mask, ms.params).values, mu)
    assert ms.history == history and ms.trace == trace
    assert len(ms._window) == len(window)
    assert all(a is b for a, b in zip(ms._window, window))


def test_a_failed_step_leaves_the_projection_window_unchanged(monkeypatch):
    ms = _transient_solver(33)
    ms.run(3)
    # a drive 1e4 times stronger moves chi past the CFL bound
    load = ms.load
    ms.load = 1e4 * load
    _assert_failed_step_changes_nothing(ms, ValueError, "CFL")
    ms.load = load
    monkeypatch.setattr(microsim, "CG_MAX_ITER", 1)
    _assert_failed_step_changes_nothing(ms, RuntimeError, "CG failed to converge")
    monkeypatch.undo()
    ms.step()
    assert len(ms._window) == 4 and len(ms.history) == 4


# -- multigrid-preconditioned step solve ------------------------------------

# the transient-2d benchmark material
TRANSIENT = dict(mu1=1.0, mu2=3.0, lam=1.0, tau=0.005, h_mollify=0.1)


def _transient_solver(n, **kw):
    mask = build_phase_mask(UnitCellPattern("disk", 0.25), 0.5, Grid(2, n))
    return MicroSolver(init_fluid_partition(mask, 0.03), MaterialParams(**TRANSIENT), **kw)


def test_vcycle_is_symmetric_and_positive():
    ms = _transient_solver(65, advance_transport=False)
    B = ms._precond
    rng = np.random.default_rng(0)
    for _ in range(5):
        x, y = rng.standard_normal((2, ms._A_red.shape[0]))
        By = B(y)
        assert abs(x @ By - y @ B(x)) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(By)
        assert x @ B(x) > 0.0


def test_transient_3d_step_solve_uses_two_coarse_levels():
    # the transient-3d benchmark case: 3D n = 17 halves to 9 and 5 nodes per
    # axis before the coarsest level drops below COARSE_DOFS free dofs
    mask = build_phase_mask(UnitCellPattern("sphere", 0.25), 0.5, Grid(3, 17))
    par = MaterialParams(**{**TRANSIENT, "h_mollify": 0.15, "p_drive_grad": (1.0, 0.0, 0.0)})
    ms = MicroSolver(init_fluid_partition(mask, 0.03), par, advance_transport=False)
    B = ms._precond
    assert [lv.grid.n_per_axis for lv in B._levels] == [9, 5]
    assert B._operators[-1].shape[0] <= COARSE_DOFS and B._coarse_solve is not None
    rng = np.random.default_rng(3)
    for _ in range(5):
        x, y = rng.standard_normal((2, ms._A_red.shape[0]))
        By = B(y)
        assert abs(x @ By - y @ B(x)) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(By)
        assert x @ B(x) > 0.0
    ms.step()
    t, iterations, residual, _ = ms.trace[0]
    assert 0 < iterations <= 20
    assert residual <= CG_TOL


@pytest.mark.parametrize("n", [33, 65, 129])
def test_multigrid_iterations_do_not_grow_with_the_grid(n):
    ms = _transient_solver(n, advance_transport=False)
    ms.step()
    t, iterations, residual, _ = ms.trace[0]
    assert 0 < iterations <= 35
    assert residual <= CG_TOL


def test_cg_and_direct_agree_with_coarse_levels_and_transport():
    a = _transient_solver(33)
    b = _transient_solver(33, solver="direct")
    assert len(a._precond._operators) >= 3  # at least two coarse levels
    for _ in range(3):
        a.step()
        b.step()
    assert np.abs(a.state.v.values - b.state.v.values).max() < 1e-9
    # the factor's solve is an exact inverse: CG takes one or two corrections
    assert all(1 <= row[1] <= 2 for row in b.trace)
    assert all(0 < row[1] for row in a.trace)
    assert all(row[2] <= CG_TOL for row in b.trace)


def test_a_grid_that_cannot_be_halved_is_smoothed_not_factored():
    # 2D n = 34: 33 intervals per axis, so no coarse grid exists.  The rule:
    # the hierarchy stops there, and a coarsest level above COARSE_DOFS free
    # dofs gets no LU; the V-cycle is then its two damped Jacobi sweeps.
    a = _transient_solver(34)
    b = _transient_solver(34, solver="direct")
    assert a._A_red.shape[0] > COARSE_DOFS
    assert len(a._precond._operators) == 1 and a._precond._coarse_solve is None
    for _ in range(2):
        a.step()
        b.step()
    assert np.abs(a.state.v.values - b.state.v.values).max() < 1e-9


@pytest.mark.parametrize("solver", ["cg", "direct"])
def test_a_failed_rebuild_leaves_the_solver_as_it_was(monkeypatch, solver):
    # the V-cycle factors its coarsest level, the direct solver the whole form
    ms = _transient_solver(33, solver=solver)
    ms.step()
    A_red, active, mu_cells = ms._A_red, ms.active, ms._mu_cells
    spd_factor, failed = solvers.spd_factor, []

    def exhausted_once(A):
        if not failed:
            failed.append(A.shape)
            raise MemoryError
        return spd_factor(A)
    monkeypatch.setattr(solvers, "spd_factor", exhausted_once)
    _assert_failed_step_changes_nothing(ms, MemoryError, None)
    assert failed and ms._A_red is A_red and ms.active is active and ms._mu_cells is mu_cells
    ms.step()
    fresh = _transient_solver(33, solver=solver)
    fresh.run(2)
    for got, want in zip((ms.state.w, ms.state.v, ms.state.chi),
                         (fresh.state.w, fresh.state.v, fresh.state.chi)):
        assert np.array_equal(got.values, want.values)
    assert ms.trace == fresh.trace and ms.history == fresh.history
    if solver == "direct":
        assert ms.trace[-1][1] <= 2


def test_a_direct_step_that_misses_the_cg_tolerance_raises(monkeypatch):
    ms = _transient_solver(33, solver="direct")
    ms.step()
    monkeypatch.setattr(microsim, "CG_MAX_ITER", 0)
    _assert_failed_step_changes_nothing(ms, RuntimeError, "CG failed to converge")


def test_steps_reuse_every_grid_pattern_of_the_hierarchy():
    ms = _transient_solver(65)
    ms.step()
    misses = _stencil_layout.cache_info().misses
    ms.run(3)
    assert _stencil_layout.cache_info().misses == misses


def test_trace_records_each_step_solve_and_cfl_margin():
    ms = _transient_solver(33)
    ms.run(3)
    assert len(ms.trace) == len(ms.history) == 3
    assert [row[0] for row in ms.trace] == [row[0] for row in ms.history]
    assert ms.trace[-1][3] == cfl_margin(ms.state.v, ms.params.tau)
    assert 0.0 < ms.trace[-1][3] < 1.0


def _at_rest_solver(tau, n=65):
    mask = build_phase_mask(UnitCellPattern("disk", 0.25), 0.5, Grid(2, n))
    par = MaterialParams(**{**TRANSIENT, "tau": tau, "p_drive_grad": (0.0, 0.0)})
    return MicroSolver(init_fluid_partition(mask, 0.03), par)


def test_viscosity_at_rest_is_stationary_and_independent_of_tau():
    # no drive: v = 0, so chi stays still, and mu with it, bit for bit
    ms = _at_rest_solver(TRANSIENT["tau"])

    def mu(solver):
        return update_viscosity(solver.state.chi, solver.mask, solver.params).values

    mu0, mu_cells = mu(ms), ms._mu_cells
    ms.run(200)
    assert np.abs(ms.state.v.values).max() == 0.0
    assert np.array_equal(mu(ms), mu0)
    assert ms._mu_cells is mu_cells  # the operator was never re-assembled
    half = _at_rest_solver(TRANSIENT["tau"] / 2)
    coarse = _at_rest_solver(TRANSIENT["tau"])
    half.run(20)
    coarse.run(10)
    assert half.state.t == pytest.approx(coarse.state.t, rel=1e-12)
    assert np.array_equal(mu(half), mu(coarse))


def test_viscosity_follows_the_advected_phase_every_step(monkeypatch):
    ms = _transient_solver(33)
    par = ms.params
    calls = []
    advect = transport.advect_upwind

    def counted(*args, **kw):
        calls.append(args[0])
        return advect(*args, **kw)

    monkeypatch.setattr(transport, "advect_upwind", counted)
    for step in range(1, 6):
        chi = ms.state.chi
        ms.step()
        assert len(calls) == step and calls[-1] is chi  # chi is the only advected field
        # the step's operator carries the viscosity of the chi it started from
        mu = update_viscosity(chi, ms.mask, par).values
        assert np.array_equal(ms._mu_cells, phase_cells(ms.grid, ms.mask.chi_eps, mu, 0.0))
        assert mu.min() >= par.mu1 and mu.max() <= par.mu2
    assert not np.array_equal(ms.state.chi.values, ms.mask.chi)


def test_viscosity_is_derived_once_per_phase(monkeypatch):
    # without transport chi never moves: the constructor derives mu, and no
    # step derives it again
    calls = []
    derive = transport.update_viscosity

    def counted(*args, **kw):
        calls.append(args[0])
        return derive(*args, **kw)

    monkeypatch.setattr(microsim.transport, "update_viscosity", counted)
    ms = _transient_solver(33)
    frozen = MicroSolver(ms.mask, ms.params, advance_transport=False)
    assert len(calls) == 2
    frozen.run(3)
    assert len(calls) == 2
    # with transport the first step still solves with the constructor's chi
    ms.step()
    assert len(calls) == 2
    ms.step()
    assert len(calls) == 3 and calls[-1] is not calls[0]


# -- projected start of the step solve ----------------------------------------

def _recorded_step_solves(ms, n_steps, monkeypatch):
    """(A, rhs, x0, window before the step) of each CG step solve of n_steps."""
    calls = []

    def recording(A, rhs, **kw):
        calls.append((A, rhs, kw["x0"], list(ms._window)))
        return cg_solve(A, rhs, **kw)

    monkeypatch.setattr(microsim, "cg_solve", recording)
    ms.run(n_steps)
    return calls


def test_projected_guess_drops_parallel_columns_and_a_zero_basis():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((30, 30))
    A = M @ M.T + 30.0 * np.eye(30)
    rhs = rng.standard_normal(30)
    B = rng.standard_normal((30, 3))
    # the oracle: the A-orthogonal projection of A^-1 rhs on span(B), B independent
    want = B @ np.linalg.solve(B.T @ A @ B, B.T @ rhs)
    assert np.allclose(projected_guess(A, B, rhs), want, rtol=1e-12, atol=0.0)
    # a repeated column makes the Gram matrix singular; the span is the same
    repeated = np.ascontiguousarray(np.column_stack([B, B[:, 1]]))
    assert np.allclose(projected_guess(A, repeated, rhs), want, rtol=1e-10, atol=0.0)
    zero = projected_guess(A, np.zeros((30, 2)), rhs)
    assert np.all(np.isfinite(zero)) and not np.any(zero)


def test_projected_start_is_the_galerkin_projection_onto_the_window(monkeypatch):
    ms = _transient_solver(33)
    calls = _recorded_step_solves(ms, 12, monkeypatch)
    assert calls[0][2] is None and calls[0][3] == []  # the first step starts from zero
    assert [len(c[3]) for c in calls] == [min(k, CG_WINDOW) for k in range(12)]
    for A, rhs, x0, window in calls[1:]:
        V = np.stack(window, axis=1)
        assert np.array_equal(x0, projected_guess(A, V, rhs))
        # Galerkin orthogonality: the start's residual is orthogonal to the window
        assert np.linalg.norm(V.T @ (rhs - A @ x0)) <= 1e-10 * np.linalg.norm(V.T @ rhs)
        # so its A-norm error is no larger than the last velocity's
        x = spla.spsolve(A.tocsc(), rhs)
        e0, e_last = x - x0, x - window[-1]
        assert e0 @ (A @ e0) <= e_last @ (A @ e_last)


def test_projected_start_of_a_run_at_rest_is_zero(monkeypatch):
    ms = _at_rest_solver(TRANSIENT["tau"], n=33)
    calls = _recorded_step_solves(ms, 3, monkeypatch)
    for A, rhs, x0, window in calls[1:]:
        assert not np.any(rhs) and not np.any(np.stack(window))
        assert np.all(np.isfinite(x0)) and not np.any(x0)
    assert np.abs(ms.state.v.values).max() == 0.0


def test_a_full_window_cuts_the_iterations_of_every_later_step():
    ms = _transient_solver(33)
    ms.run(20)
    iterations = [row[1] for row in ms.trace]
    assert len(ms._window) == CG_WINDOW
    # a start from the last velocity alone still took 20 or 21 of step 1's 24 here
    assert all(3 * it <= 2 * iterations[0] for it in iterations[CG_WINDOW:])
    assert all(row[2] <= CG_TOL for row in ms.trace)
    assert all(e.balance_residual < 1e-12 for e in ms.history)
