import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from porohom.geometry import UnitCellPattern, build_phase_mask, init_fluid_partition
from porohom.grid import Grid, VectorField
from porohom.microsim import (
    CG_TOL,
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
)
from porohom.operators import _node_pattern
from porohom.solvers import cg_solve
from porohom.transport import cfl_margin


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
    with pytest.raises(ValueError):
        MaterialParams(epsilon=0.3)
    MaterialParams(epsilon=0.25)  # fine


@pytest.mark.parametrize("eps", [0.0, -0.5])
def test_material_params_rejects_non_positive_epsilon(eps):
    with pytest.raises(ValueError, match="epsilon"):
        MaterialParams(epsilon=eps)


def test_material_params_rejects_negative_mollification_radius():
    with pytest.raises(ValueError, match="h_mollify must be >= 0"):
        MaterialParams(h_mollify=-1.0)
    MaterialParams(h_mollify=0.0)  # zero turns mollification off


def test_a_drive_gradient_of_the_wrong_length_fails_before_any_assembly():
    mask = _two_fluid_mask(n=11)
    misses = _node_pattern.cache_info().misses
    with pytest.raises(ValueError, match="one entry per axis"):
        MicroSolver(mask, MaterialParams(p_drive_grad=(1.0, 0.0, 0.0)))
    assert _node_pattern.cache_info().misses == misses


def test_material_params_names_every_violation_in_one_error():
    with pytest.raises(ValueError) as err:
        MaterialParams(mu1=-2.0, tau=0.0, epsilon=0.3, h_mollify=-1.0)
    lines = str(err.value).splitlines()
    assert len(lines) == 4
    for key in ("mu1 must be positive", "tau must be positive", "h_mollify must be >= 0",
                "epsilon must be an integer reciprocal"):
        assert sum(key in line for line in lines) == 1, key


@pytest.mark.parametrize("name", ["mu1", "mu2", "lam", "c_f1", "c_f2", "c_s", "tau"])
def test_material_params_rejects_an_infinite_coefficient(name):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
        MaterialParams(**{name: np.inf})


def test_initial_state_viscosity_by_fluid_label():
    mask = _two_fluid_mask()
    par = MaterialParams(mu1=2.0, mu2=5.0)
    st = SimState.initial(mask, par)
    x1 = mask.grid.coords()[0]
    fluid = mask.fluid
    assert np.all(st.mu.values[fluid & (x1 > 0.01)] == 2.0)
    assert np.all(st.mu.values[fluid & (x1 < -0.01)] == 5.0)
    assert np.abs(st.w.values).max() == 0.0


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
    A = assemble_vector_form(g, par.epsilon**2 * ms._mu_cells + par.tau * lam, par.tau * c2)
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
    mu = _phase_oracle(mask, ms.state.mu.values, 0.0)
    viscous = assemble_vector_form(g, par.epsilon**2 * mu, None)
    A = viscous + par.tau * (elastic + compressive)
    for got, want in ((ms._E, elastic + compressive), (ms._A_red, A[ms.active][:, ms.active])):
        diff = abs(got - want).max()
        assert diff <= 1e-13 * abs(want).max()


def test_run_to_steady_reports_convergence():
    mask = _two_fluid_mask(n=9)
    par = MaterialParams(mu1=1.0, mu2=1.0, tau=0.05, h_mollify=0.0, p_drive_grad=(1.0, 0.0))
    capped = MicroSolver(mask, par, advance_transport=False, solver="direct", pin_solid=True)
    assert capped.run_to_steady(max_steps=2) is False
    assert len(capped.history) == 2
    free = MicroSolver(mask, par, advance_transport=False, solver="direct", pin_solid=True)
    assert free.run_to_steady(max_steps=2000, rel_tol=1e-6) is True
    assert len(free.history) < 2000


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
    # transport moves mu every step; a stale cached LU would solve the first
    # step's operator and drift from the CG solution
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
    assert np.abs(a.state.v.values - b.state.v.values).max() < 1e-9


def test_direct_solver_factor_is_accurate_and_sparser():
    # the eps = 1/4 level of an eps-convergence sweep at 16 nodes per cell
    eps = 0.25
    mask = build_phase_mask(UnitCellPattern("disk", 0.25), eps, Grid(2, 4 * 16 + 1))
    par = MaterialParams(epsilon=eps, tau=1e4 * eps**2, h_mollify=0.0)
    ms = MicroSolver(mask, par, advance_transport=False, solver="direct", pin_solid=True)
    ms.step()
    A = ms._A_red
    b = np.random.default_rng(0).standard_normal(A.shape[0])
    x = ms._lu.solve(b)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
    default = spla.splu(A.tocsc())
    assert ms._lu.L.nnz + ms._lu.U.nnz < default.L.nnz + default.U.nnz


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
    state = ms.state
    w, v = state.w.values.copy(), state.v.values.copy()
    mu, chi = state.mu.values.copy(), state.chi.values.copy()
    energy = ms.energy
    with pytest.raises(ValueError, match="CFL"):
        ms.step()
    assert ms.state is state
    assert state.t == 0.0
    assert np.array_equal(state.w.values, w)
    assert np.array_equal(state.v.values, v)
    assert np.array_equal(state.mu.values, mu)
    assert np.array_equal(state.chi.values, chi)
    assert ms.energy == energy
    assert ms.history == []


# -- multigrid-preconditioned step solve ------------------------------------

# the transient-2d benchmark material
TRANSIENT = dict(mu1=1.0, mu2=3.0, lam=1.0, epsilon=0.5, tau=0.005, h_mollify=0.1)


def _transient_solver(n, **kw):
    mask = build_phase_mask(UnitCellPattern("disk", 0.25), 0.5, Grid(2, n))
    return MicroSolver(init_fluid_partition(mask, 0.03), MaterialParams(**TRANSIENT), **kw)


def test_vcycle_is_symmetric_and_positive():
    ms = _transient_solver(65, advance_transport=False)
    B = ms._vcycle
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
    B = ms._vcycle
    assert [lv.grid.n_per_axis for lv in B._levels] == [9, 5]
    assert B._operators[-1].shape[0] <= COARSE_DOFS and B._lu is not None
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
    assert len(a._vcycle._operators) >= 3  # at least two coarse levels
    for _ in range(3):
        a.step()
        b.step()
    assert np.abs(a.state.v.values - b.state.v.values).max() < 1e-9
    assert [row[1] for row in b.trace] == [0, 0, 0]
    assert all(0 < row[1] for row in a.trace)
    assert all(row[2] <= 1e-12 for row in b.trace)


def test_cg_and_direct_agree_with_the_solid_pinned():
    mask = build_phase_mask(UnitCellPattern("disk", 0.25), 0.5, Grid(2, 33))
    par = MaterialParams(epsilon=0.5, tau=0.05, h_mollify=0.0)
    a = MicroSolver(mask, par, advance_transport=False, pin_solid=True)
    b = MicroSolver(mask, par, advance_transport=False, pin_solid=True, solver="direct")
    assert len(a._vcycle._operators) >= 2
    for _ in range(3):
        a.step()
        b.step()
    assert np.abs(a.state.v.values - b.state.v.values).max() < 1e-9


def test_a_grid_that_cannot_be_halved_is_smoothed_not_factored():
    # 2D n = 34: 33 intervals per axis, so no coarse grid exists.  The rule:
    # the hierarchy stops there, and a coarsest level above COARSE_DOFS free
    # dofs gets no LU; the V-cycle is then its two damped Jacobi sweeps.
    a = _transient_solver(34)
    b = _transient_solver(34, solver="direct")
    assert a._A_red.shape[0] > COARSE_DOFS
    assert len(a._vcycle._operators) == 1 and a._vcycle._lu is None
    for _ in range(2):
        a.step()
        b.step()
    assert np.abs(a.state.v.values - b.state.v.values).max() < 1e-9


def test_steps_reuse_every_grid_pattern_of_the_hierarchy():
    ms = _transient_solver(65)
    ms.step()
    misses = _node_pattern.cache_info().misses
    ms.run(3)
    assert _node_pattern.cache_info().misses == misses


def test_trace_records_each_step_solve_and_cfl_margin():
    ms = _transient_solver(33)
    ms.run(3)
    assert len(ms.trace) == len(ms.history) == 3
    assert [row[0] for row in ms.trace] == [row[0] for row in ms.history]
    assert ms.trace[-1][3] == cfl_margin(ms.state.v, ms.params.tau)
    assert 0.0 < ms.trace[-1][3] < 1.0
