import itertools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from porohom import homogenize
from porohom.geometry import UnitCellPattern, boundary_tags, build_phase_mask, porosity
from porohom.grid import Grid, sym_component_pairs
from porohom.homogenize import (
    PENALTY_RATIO,
    _steady_pore_flux,
    compare_micro_macro,
    darcy_macro_solve,
    elasticity_from_mask,
    periodic_cell_grid,
    permeability_cell_problem,
    permeability_from_mask,
)
from porohom.microsim import MaterialParams
from porohom.operators import (
    assemble_vector_form,
    cell_corner_indices,
    cell_counts,
    phase_cells,
)
from porohom.operators import _stencil_layout
from porohom.solvers import cg_solve

CELL = periodic_cell_grid(2, 32)


def test_permeability_requires_periodic_grid():
    mask = build_phase_mask(UnitCellPattern("disk", 0.25), 1.0, Grid(2, 33))
    with pytest.raises(ValueError):
        permeability_from_mask(mask, 1.0)


def test_permeability_disk_diagonal_isotropic():
    K, asym = permeability_from_mask(
        build_phase_mask(UnitCellPattern("disk", 0.25), 1.0, CELL), 1.0)
    assert K[0, 0] > 0
    assert abs(K[0, 1]) <= 0.01 * K[0, 0]
    assert abs(K[0, 0] - K[1, 1]) <= 0.01 * K[0, 0]
    assert asym <= 0.01 * K[0, 0]


def test_permeability_monotone_in_radius():
    vals = [permeability_cell_problem(UnitCellPattern("disk", r0), CELL, 1.0)[0, 0]
            for r0 in (0.15, 0.25, 0.35)]
    assert vals[0] > vals[1] > vals[2] > 0


def test_permeability_viscosity_scaling():
    mask = build_phase_mask(UnitCellPattern("disk", 0.25), 1.0, CELL)
    K1, _ = permeability_from_mask(mask, 1.0)
    K2, _ = permeability_from_mask(mask, 2.0)
    assert K2[0, 0] * 2.0 == pytest.approx(K1[0, 0], rel=1e-10)


def test_permeability_degenerate_cases():
    solid = build_phase_mask(UnitCellPattern("full-solid", 0.0), 1.0, CELL)
    K, _ = permeability_from_mask(solid, 1.0)
    assert np.all(K == 0.0)
    # blocked pores: a solid slab across the cell
    blocked = build_phase_mask(UnitCellPattern("disk", 0.0), 1.0, CELL)
    x1 = CELL.coords()[0]
    blocked.chi_eps = np.where(np.abs(x1) < 0.1, 0.0, 1.0)
    K, _ = permeability_from_mask(blocked, 1.0)
    assert np.all(K == 0.0)
    # all fluid: permeability is unbounded, reject
    nosolid = build_phase_mask(UnitCellPattern("none", 0.0), 1.0, CELL)
    with pytest.raises(ValueError):
        permeability_from_mask(nosolid, 1.0)


def _recorded_permeability(monkeypatch, mask, mu):
    """permeability_from_mask(mask, mu) and the result of each of its
    cg_solve calls, one per axis."""
    calls = []

    def recording(A, rhs, **kwargs):
        res = cg_solve(A, rhs, **kwargs)
        calls.append(res)
        return res
    monkeypatch.setattr(homogenize, "cg_solve", recording)
    K, _ = permeability_from_mask(mask, mu)
    return K, calls


def _fluid_system(mask, mu):
    """The permeability cell problem on the fluid dofs, assembled: the form
    on the phase cells (mu on every cell with a fluid corner) restricted to
    the fluid nodes, its dof mask, and the load of each axis."""
    grid = mask.grid
    coef = phase_cells(grid, mask.chi_eps, mu, 0.0)
    A = assemble_vector_form(grid, coef, PENALTY_RATIO * coef, mask.fluid)
    fluid = np.tile(mask.fluid.ravel(), grid.dim)
    wq = grid.node_weights().ravel()
    loads = [np.kron(np.eye(grid.dim)[k], wq)[fluid] for k in range(grid.dim)]
    return A, fluid, loads


@pytest.mark.parametrize("dim, n, kind", [(2, 32, "disk"), (3, 12, "sphere")])
def test_permeability_form_is_the_constant_form_on_the_fluid_dofs(dim, n, kind):
    # what lets the solve go through the FFT inverse of the whole-grid form:
    # every cell that touches a fluid node carries mu, so the fluid system is
    # the constant-coefficient form restricted to the fluid dofs, entry for
    # entry (for a mu whose corner means are exact; otherwise to roundoff)
    grid = periodic_cell_grid(dim, n)
    mask = build_phase_mask(UnitCellPattern(kind, 0.25), 1.0, grid)
    mu = 1.5
    A, fluid, _ = _fluid_system(mask, mu)
    ncells = int(np.prod(cell_counts(grid)))
    whole = assemble_vector_form(grid, np.full(ncells, mu), np.full(ncells, PENALTY_RATIO * mu))
    assert (A - whole[fluid][:, fluid]).count_nonzero() == 0


@pytest.mark.parametrize("dim, n, kind, r0, max_iter", [
    (2, 64, "disk", 0.25, 90),
    (3, 16, "sphere", 0.25, 46),
    (2, 64, "disk", 0.45, 145),
])
def test_permeability_matches_jacobi_cg_on_the_fluid_system(monkeypatch, dim, n, kind, r0,
                                                            max_iter):
    # the solid-dof CG needs 79, 41 and 132 iterations per axis here; the
    # velocities solve the assembled fluid system to CELL_CG_TOL, and K from
    # Jacobi-CG solves of that system agrees to 1e-10
    mask = build_phase_mask(UnitCellPattern(kind, r0), 1.0, periodic_cell_grid(dim, n))
    K, calls = _recorded_permeability(monkeypatch, mask, 1.0)
    assert len(calls) == dim
    assert all(res.converged and res.iterations <= max_iter for res in calls), \
        [res.iterations for res in calls]
    A, fluid, loads = _fluid_system(mask, 1.0)
    velocities = homogenize._cell_velocities(mask, 1.0)
    assert np.all(velocities[:, ~fluid] == 0.0)
    for u, b in zip(velocities, loads):
        assert np.linalg.norm(b - A @ u[fluid]) <= homogenize.CELL_CG_TOL * np.linalg.norm(b)
    jacobi = [cg_solve(A, b, tol=homogenize.CELL_CG_TOL, max_iter=homogenize.CELL_CG_MAX_ITER)
              for b in loads]
    assert all(res.converged for res in jacobi)
    # the load of axis i is the quadrature weight on component i, so
    # K_ik = load_i . u_k / vol
    vol = float(np.sum(mask.grid.node_weights()))
    K_jacobi = np.array([[b @ res.x / vol for res in jacobi] for b in loads])
    K_jacobi = 0.5 * (K_jacobi + K_jacobi.T)
    assert np.abs(K - K_jacobi).max() <= 1e-10 * np.abs(K_jacobi).max()


@pytest.mark.parametrize("dim, n, kind", [(2, 32, "disk"), (3, 12, "sphere")])
def test_permeability_assembles_no_form_on_the_fluid_nodes(monkeypatch, dim, n, kind):
    # the one form assembled holds the solid nodes and the corners of the
    # cells that touch them, nothing more of the fluid
    grid = periodic_cell_grid(dim, n)
    mask = build_phase_mask(UnitCellPattern(kind, 0.25), 1.0, grid)
    masks = []

    def recording(grid, coef_sym, coef_div=None, free=None):
        masks.append(free)
        return assemble_vector_form(grid, coef_sym, coef_div, free)
    monkeypatch.setattr(homogenize, "assemble_vector_form", recording)
    permeability_from_mask(mask, 1.0)
    corners = cell_corner_indices(grid)
    solid = mask.solid.ravel()
    near = np.zeros(grid.n_nodes, dtype=bool)
    near[corners[solid[corners].any(axis=1)]] = True
    assert len(masks) == 1 and masks[0] is not None
    assert np.array_equal(np.asarray(masks[0]).ravel(), near)
    assert np.count_nonzero(near & mask.fluid.ravel()) < np.count_nonzero(mask.fluid)


def _cell_symmetry_images(a):
    """a under every axis permutation and every reflection y -> 1 - y of the
    periodic cell (node i -> node -i mod n)."""
    for perm in itertools.permutations(range(a.ndim)):
        yield np.transpose(a, perm)
    for k in range(a.ndim):
        yield np.roll(np.flip(a, k), 1, k)


@pytest.mark.parametrize("dim, n, kind", [(2, 20, "disk"), (3, 12, "sphere")])
def test_nodes_on_the_inclusion_surface_keep_the_cell_symmetric(dim, n, kind):
    # at r0 = 0.25 these lattices have nodes exactly on the surface, e.g. the
    # offset (3, 4) / 20 from the centre; roundoff once put some in the pore
    # and gave K off-diagonals of 1.6e-2 K_11 (2D) and 4.4e-3 K_11 (3D)
    mask = build_phase_mask(UnitCellPattern(kind, 0.25), 1.0, periodic_cell_grid(dim, n))
    for image in _cell_symmetry_images(mask.chi_eps):
        assert np.array_equal(image, mask.chi_eps)
    K, _ = permeability_from_mask(mask, 1.0)
    assert np.abs(K - np.diag(np.diag(K))).max() <= 1e-12 * K[0, 0]
    assert np.ptp(np.diag(K)) <= 1e-12 * K[0, 0]


def test_square_block_cell_is_isotropic_and_porosity_falls_with_r0():
    phis = []
    for r0 in (0.25, 0.3):
        mask = build_phase_mask(UnitCellPattern("square-block", r0), 1.0, CELL)
        K, _ = permeability_from_mask(mask, 1.0)
        assert K[0, 0] > 0
        assert abs(K[0, 1]) <= 1e-12 * K[0, 0]
        assert abs(K[1, 1] - K[0, 0]) <= 1e-12 * K[0, 0]
        # the block floats in the pore, so C_eff is roundoff; it must still be symmetric
        C = elasticity_from_mask(mask, 1.0)
        assert np.abs(C - C.T).max() <= 1e-14
        phis.append(porosity(mask))
    assert phis == pytest.approx([0.7178, 0.6475], abs=1e-4)


def test_elasticity_homogeneous_cell_oracle():
    lam = 2.0
    C = elasticity_from_mask(build_phase_mask(UnitCellPattern("full-solid", 0.0), 1.0, CELL), lam)
    # P = lam D with Voigt order (11, 12, 22) and engineering shear weight
    expect = np.diag([lam, 0.5 * lam, lam])
    assert np.abs(C - expect).max() < 1e-6


def test_elasticity_symmetries_and_porosity_softening():
    lam = 2.0
    X = CELL.coords()
    mask = build_phase_mask(UnitCellPattern("full-solid", 0.0), 1.0, CELL)
    mask.chi_eps = ((X[0] ** 2 + X[1] ** 2) < 0.25**2).astype(float)
    C = elasticity_from_mask(mask, lam)
    assert np.abs(C - C.T).max() <= 1e-8
    assert np.linalg.eigvalsh(C).min() > 0
    solid = build_phase_mask(UnitCellPattern("full-solid", 0.0), 1.0, CELL)
    solid = elasticity_from_mask(solid, lam)
    assert np.all(np.diag(C) < np.diag(solid))
    # the square-symmetric pattern gives C_1111 = C_2222
    assert C[0, 0] == pytest.approx(C[2, 2], rel=1e-6)


@pytest.mark.parametrize("dim", [2, 3])
def test_elasticity_laminate_oracle(dim):
    # skeleton layers separated by a fluid layer |x2| < 0.2: the layers carry
    # in-plane strain as free plates (P = lam D), and nothing else
    lam = 2.0
    cell = periodic_cell_grid(dim, 16)
    mask = build_phase_mask(UnitCellPattern("full-solid", 0.0), 1.0, cell)
    mask.chi_eps = (np.abs(cell.coords()[1]) < 0.2).astype(float)
    # 7 of the 16 node layers are fluid, so 8 of the 16 cell layers have
    # no fluid corner: the skeleton fraction is 1/2
    phi_s = 0.5
    C = elasticity_from_mask(mask, lam)
    pairs = sym_component_pairs(dim)
    expect = np.zeros_like(C)
    for a, (i, j) in enumerate(pairs):
        if 1 not in (i, j):  # the strain lies in the layer plane
            expect[a, a] = lam * phi_s if i == j else 0.5 * lam * phi_s
    assert np.abs(C - expect).max() <= 1e-12 * lam * phi_s


def test_elasticity_floating_inclusion_has_no_stiffness():
    # a disk inclusion is disconnected from the cell frame; its effective
    # stiffness vanishes (it can translate freely)
    C = elasticity_from_mask(build_phase_mask(UnitCellPattern("disk", 0.3), 1.0, CELL), 2.0)
    assert np.abs(C).max() < 1e-8


def test_darcy_linear_profile_and_flux():
    K = np.diag([0.04, 0.04])
    p, flux = darcy_macro_solve(K, (0.5, -0.5))
    x1 = p.grid.coords()[0]
    assert np.abs(p.values - x1).max() < 1e-8
    assert flux[0] == pytest.approx(-0.04, abs=1e-8)
    assert abs(flux[1]) < 1e-10


def test_darcy_zero_drop_and_linearity():
    K = np.diag([0.02, 0.05])
    _, f0 = darcy_macro_solve(K, (0.3, 0.3))
    assert np.abs(f0).max() < 1e-10
    _, f1 = darcy_macro_solve(K, (0.5, -0.5))
    _, f2 = darcy_macro_solve(K, (1.0, -1.0))
    assert f2[0] == pytest.approx(2.0 * f1[0], rel=1e-8)


def test_darcy_rejects_indefinite_K():
    with pytest.raises(ValueError):
        darcy_macro_solve(np.diag([1.0, -1.0]), (1.0, 0.0))


def test_compare_micro_macro_error_decreases():
    par = MaterialParams(mu1=1.0, mu2=1.0, lam=1.0, tau=0.05, h_mollify=0.0,
                         p0=0.0, p_drive_grad=(1.0, 0.0))
    rows = compare_micro_macro(UnitCellPattern("disk", 0.25), par, [0.5, 0.25],
                               nodes_per_cell=16, max_steps=800, steady_tol=1e-8)
    assert len(rows) == 2
    assert rows[1]["rel_error"] < rows[0]["rel_error"]
    assert rows[0]["darcy_flux"] == rows[1]["darcy_flux"]
    assert np.isnan(rows[0]["observed_order"])


@pytest.mark.parametrize("r0", [0.2427, 0.25, 0.26])
def test_compare_micro_macro_is_first_order_at_any_radius(r0):
    # the micro solver and the cell problem share one interface-cell rule, so
    # the error halves with eps whatever the inclusion radius
    par = MaterialParams(mu1=1.0, mu2=1.0, lam=1.0, tau=0.05, h_mollify=0.0,
                         p0=0.0, p_drive_grad=(1.0, 0.0))
    rows = compare_micro_macro(UnitCellPattern("disk", r0), par, [0.5, 0.25, 0.125],
                               nodes_per_cell=8)
    assert all(r["converged"] for r in rows)
    errors = [r["rel_error"] for r in rows]
    assert errors[0] > errors[1] > errors[2], errors
    assert all(0.7 <= r["observed_order"] <= 1.3 for r in rows[1:]), rows


def test_a_repeated_comparison_reuses_every_assembly_pattern():
    # a sweep assembles on six patterns: the cell problem's near-solid nodes,
    # the Darcy grid on every node and on its free nodes, and the free nodes
    # of the micro grids 21^2, 41^2 and 81^2; a second identical sweep finds
    # them all cached
    par = MaterialParams(mu1=1.0, mu2=1.0, lam=1.0, tau=0.05, h_mollify=0.0,
                         p0=0.0, p_drive_grad=(1.0, 0.0))
    args = (UnitCellPattern("disk", 0.25), par, [0.5, 0.25, 0.125])
    compare_micro_macro(*args, nodes_per_cell=10)
    misses = _stencil_layout.cache_info().misses
    compare_micro_macro(*args, nodes_per_cell=10)
    assert _stencil_layout.cache_info().misses == misses


def test_compare_micro_macro_reports_an_unconverged_march():
    par = MaterialParams(mu1=1.0, mu2=1.0, lam=1.0, tau=0.05, h_mollify=0.0,
                         p0=0.0, p_drive_grad=(1.0, 0.0))
    rows = compare_micro_macro(UnitCellPattern("disk", 0.25), par, [0.5],
                               nodes_per_cell=8, max_steps=2)
    assert rows[0]["converged"] is False
    assert rows[0]["steps"] == 2


def test_compare_micro_macro_preconditions():
    for par in (MaterialParams(mu1=1.0, mu2=2.0), MaterialParams(c_f1=1.0, c_f2=2.0)):
        with pytest.raises(ValueError, match="single fluid"):
            compare_micro_macro(UnitCellPattern("disk", 0.25), par, [0.5, 0.25])
    par = MaterialParams(mu1=1.0, mu2=1.0)
    with pytest.raises(ValueError):
        compare_micro_macro(UnitCellPattern("disk", 0.25), par, [0.25, 0.5])
    # with no step there is no micro flux to compare
    for max_steps in (0, -1):
        with pytest.raises(ValueError, match="max_steps"):
            compare_micro_macro(UnitCellPattern("disk", 0.25), par, [0.5], max_steps=max_steps)


def test_micro_flux_grid_independence_loose():
    # voxelized no-slip converges slowly; refining the grid 2x moves the
    # steady flux by a few percent (see the decisions ledger)
    par = MaterialParams(mu1=1.0, mu2=1.0, lam=1.0, tau=0.05, h_mollify=0.0,
                         p0=0.0, p_drive_grad=(1.0, 0.0))
    coarse = compare_micro_macro(UnitCellPattern("disk", 0.25), par, [0.5],
                                 nodes_per_cell=16, max_steps=800, steady_tol=1e-8)
    fine = compare_micro_macro(UnitCellPattern("disk", 0.25), par, [0.5],
                               nodes_per_cell=32, max_steps=800, steady_tol=1e-8)
    qc, qf = coarse[0]["micro_flux"], fine[0]["micro_flux"]
    assert abs(qc - qf) / abs(qf) < 0.08


def _centre_divergence_matrix(grid):
    """2D box grid: div u at each cell centre, where corner (a, b) of a cell
    enters d/dx_k with weight (2 off_k - 1) / (2 h), off = (a, b); a sparse
    (ncells, 2 n_nodes) matrix with component-major columns."""
    n, h = grid.n_per_axis, grid.spacing(0)
    node = np.arange(n * n).reshape(n, n)
    cell = np.arange((n - 1) ** 2)
    rows, cols, vals = [], [], []
    for a in (0, 1):
        for b in (0, 1):
            corner = node[a:n - 1 + a, b:n - 1 + b].ravel()
            for comp, off in ((0, a), (1, b)):
                rows.append(cell)
                cols.append(comp * n * n + corner)
                vals.append(np.full(cell.size, (2 * off - 1) / (2.0 * h)))
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(cell.size, 2 * n * n))


def _saddle_point_flux(pattern, params, eps, nodes_per_cell):
    """Steady Stokes flux from one sparse LU of [[V, B'], [B, 0]]: V is
    eps^2 mu D:D, with full mu on every cell that has a fluid corner, on the
    free velocity dofs (S0 and the solid pinned), B the cell-centre divergence
    on every cell that touches a free dof."""
    m = round(1.0 / eps)
    grid = Grid(2, m * nodes_per_cell + 1)
    mask = build_phase_mask(pattern, eps, grid)
    fixed = (boundary_tags(grid)["S0"] | mask.solid).ravel()
    active = np.tile(~fixed, 2)
    fluid_cell = mask.chi_eps.ravel()[cell_corner_indices(grid)].max(axis=1) > 0
    visc = eps**2 * params.mu1 * fluid_cell
    V = assemble_vector_form(grid, visc, None).tocsr()[active][:, active]
    B = _centre_divergence_matrix(grid)[:, active]
    B = B[np.diff(B.indptr) > 0]
    K = sp.bmat([[V, B.T], [B, None]], format="csc")
    g = np.asarray(params.p_drive_grad, dtype=float)
    load = np.concatenate([-g[k] * grid.node_weights().ravel() for k in range(2)])
    sol = spla.splu(K).solve(np.concatenate([load[active], np.zeros(B.shape[0])]))
    v = np.zeros(2 * grid.n_nodes)
    v[active] = sol[:V.shape[0]]
    weights = grid.node_weights().ravel()
    return float(np.sum(weights * mask.chi_eps.ravel() * v[:grid.n_nodes])) / np.sum(weights)


@pytest.mark.parametrize("eps", [0.5, 0.25])
def test_compare_micro_macro_matches_a_saddle_point_solve(eps):
    # the second input moves only what the steady flux does not read
    pattern = UnitCellPattern("disk", 0.25)
    base = dict(mu1=1.0, mu2=1.0, lam=1.0, tau=0.05, h_mollify=0.0, p0=0.0,
                p_drive_grad=(1.0, 0.0))
    q = _saddle_point_flux(pattern, MaterialParams(**base), eps, nodes_per_cell=8)
    for other in ({}, dict(tau=0.3, p0=2.0, c_f1=3.0, c_f2=3.0, c_s=0.5)):
        rows = compare_micro_macro(pattern, MaterialParams(**{**base, **other}), [eps],
                                   nodes_per_cell=8)
        assert all(r["converged"] for r in rows)
        assert rows[0]["micro_flux"] == pytest.approx(q, rel=1e-8)


def test_compare_micro_macro_steady_march_takes_few_steps():
    par = MaterialParams(mu1=1.0, mu2=1.0, lam=1.0, tau=0.05, h_mollify=0.0,
                         p0=0.0, p_drive_grad=(1.0, 0.0))
    rows = compare_micro_macro(UnitCellPattern("disk", 0.25), par, [0.5, 0.25, 0.125],
                               nodes_per_cell=8)
    assert all(r["converged"] for r in rows)
    # the first step has no earlier flux to compare with
    assert all(2 <= r["steps"] <= 10 for r in rows), rows


def test_steady_pore_flux_assembles_one_form(monkeypatch):
    # the augmented-Lagrangian update goes through cell_divergence and
    # strain_load, not through a second assembled penalty form
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return assemble_vector_form(*args, **kwargs)
    monkeypatch.setattr(homogenize, "assemble_vector_form", recording)
    mask = build_phase_mask(UnitCellPattern("disk", 0.25), 0.5, Grid(2, 2 * 8 + 1))
    _, converged, steps = _steady_pore_flux(mask, 0.25, (1.0, 0.0), max_steps=50,
                                            steady_tol=1e-7)
    assert converged and steps > 1
    assert len(calls) == 1


def test_direct_solver_factor_is_accurate_and_sparser(monkeypatch):
    # the eps = 1/4 level of an eps-convergence sweep at 16 nodes per cell
    splu = spla.splu
    factored = []

    def recorded(A, **options):
        factored.append((A, splu(A, **options)))
        return factored[-1][1]

    monkeypatch.setattr(spla, "splu", recorded)
    eps = 0.25
    mask = build_phase_mask(UnitCellPattern("disk", 0.25), eps, Grid(2, 4 * 16 + 1))
    _steady_pore_flux(mask, eps**2, (1.0, 0.0), max_steps=1, steady_tol=1e-7)
    [(A, lu)] = factored
    b = np.random.default_rng(0).standard_normal(A.shape[0])
    x = lu.solve(b)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
    default = splu(A)
    assert lu.L.nnz + lu.U.nnz < default.L.nnz + default.U.nnz
