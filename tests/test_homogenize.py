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
    compare_micro_macro,
    darcy_macro_solve,
    elasticity_from_mask,
    periodic_cell_grid,
    permeability_cell_problem,
    permeability_from_mask,
)
from porohom.microsim import MaterialParams, MicroSolver
from porohom.operators import (
    assemble_vector_form,
    cell_corner_indices,
    cell_counts,
)
from porohom.operators import _node_pattern
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
    """permeability_from_mask(mask, mu) and the (A, rhs, result) of each of its
    cg_solve calls, one per axis."""
    calls = []

    def recording(A, rhs, **kwargs):
        res = cg_solve(A, rhs, **kwargs)
        calls.append((A, rhs, res))
        return res
    monkeypatch.setattr(homogenize, "cg_solve", recording)
    K, _ = permeability_from_mask(mask, mu)
    return K, calls


@pytest.mark.parametrize("dim, n, kind", [(2, 32, "disk"), (3, 12, "sphere")])
def test_permeability_form_is_the_constant_form_on_the_fluid_dofs(monkeypatch, dim, n, kind):
    # what makes the FFT inverse of the whole-grid form fit: every cell that
    # touches a fluid node carries mu, so A_red is the constant-coefficient
    # form restricted to the fluid dofs, entry for entry (for a mu whose
    # corner means are exact; otherwise to roundoff)
    grid = periodic_cell_grid(dim, n)
    mask = build_phase_mask(UnitCellPattern(kind, 0.25), 1.0, grid)
    mu = 1.5
    _, calls = _recorded_permeability(monkeypatch, mask, mu)
    ncells = int(np.prod(cell_counts(grid)))
    whole = assemble_vector_form(grid, np.full(ncells, mu), np.full(ncells, PENALTY_RATIO * mu))
    fluid = np.tile(mask.fluid.ravel(), dim)
    difference = calls[0][0] - whole[fluid][:, fluid]
    assert difference.count_nonzero() == 0


@pytest.mark.parametrize("dim, n, kind, max_iter", [(3, 16, "sphere", 60), (2, 64, "disk", 110)])
def test_permeability_cg_is_fft_preconditioned_and_matches_jacobi(monkeypatch, dim, n, kind,
                                                                  max_iter):
    # Jacobi-CG needs about 400 (3D) and 1260 (2D) iterations per axis here;
    # K from Jacobi solves of the same systems agrees to 1e-10
    mask = build_phase_mask(UnitCellPattern(kind, 0.25), 1.0, periodic_cell_grid(dim, n))
    K, calls = _recorded_permeability(monkeypatch, mask, 1.0)
    assert len(calls) == dim
    assert all(res.converged and res.iterations <= max_iter for _, _, res in calls), \
        [res.iterations for _, _, res in calls]
    vol = float(np.sum(mask.grid.node_weights()))
    jacobi = [cg_solve(A, rhs, tol=homogenize.CELL_CG_TOL).x for A, rhs, _ in calls]
    # the load of axis i is the quadrature weight on component i, so
    # K_ik = rhs_i . u_k / vol
    K_jacobi = np.array([[calls[i][1] @ u / vol for u in jacobi] for i in range(dim)])
    K_jacobi = 0.5 * (K_jacobi + K_jacobi.T)
    assert np.abs(K - K_jacobi).max() <= 1e-10 * np.abs(K_jacobi).max()


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
    # a sweep assembles on ten patterns: the cell and the Darcy grid, then the
    # micro grids 21^2, 41^2 and 81^2, each on every node and on its free
    # nodes; a second identical sweep finds them all cached
    par = MaterialParams(mu1=1.0, mu2=1.0, lam=1.0, tau=0.05, h_mollify=0.0,
                         p0=0.0, p_drive_grad=(1.0, 0.0))
    args = (UnitCellPattern("disk", 0.25), par, [0.5, 0.25, 0.125])
    compare_micro_macro(*args, nodes_per_cell=10)
    misses = _node_pattern.cache_info().misses
    compare_micro_macro(*args, nodes_per_cell=10)
    assert _node_pattern.cache_info().misses == misses


def test_compare_micro_macro_reports_an_unconverged_march():
    par = MaterialParams(mu1=1.0, mu2=1.0, lam=1.0, tau=0.05, h_mollify=0.0,
                         p0=0.0, p_drive_grad=(1.0, 0.0))
    rows = compare_micro_macro(UnitCellPattern("disk", 0.25), par, [0.5],
                               nodes_per_cell=8, max_steps=2)
    assert rows[0]["converged"] is False


def test_compare_micro_macro_preconditions():
    for par in (MaterialParams(mu1=1.0, mu2=2.0), MaterialParams(c_f1=1.0, c_f2=2.0)):
        with pytest.raises(ValueError, match="single fluid"):
            compare_micro_macro(UnitCellPattern("disk", 0.25), par, [0.5, 0.25])
    par = MaterialParams(mu1=1.0, mu2=1.0)
    with pytest.raises(ValueError):
        compare_micro_macro(UnitCellPattern("disk", 0.25), par, [0.25, 0.5])


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
    par = MaterialParams(mu1=1.0, mu2=1.0, lam=1.0, tau=0.05, h_mollify=0.0,
                         p0=0.0, p_drive_grad=(1.0, 0.0))
    pattern = UnitCellPattern("disk", 0.25)
    rows = compare_micro_macro(pattern, par, [eps], nodes_per_cell=8)
    assert all(r["converged"] for r in rows)
    q = _saddle_point_flux(pattern, par, eps, nodes_per_cell=8)
    assert rows[0]["micro_flux"] == pytest.approx(q, rel=1e-8)


def test_compare_micro_macro_steady_march_takes_few_steps(monkeypatch):
    steps = []
    step = MicroSolver.step

    def counted(self):
        steps.append(self.params.epsilon)
        return step(self)

    monkeypatch.setattr(MicroSolver, "step", counted)
    par = MaterialParams(mu1=1.0, mu2=1.0, lam=1.0, tau=0.05, h_mollify=0.0,
                         p0=0.0, p_drive_grad=(1.0, 0.0))
    eps_list = [0.5, 0.25, 0.125]
    rows = compare_micro_macro(UnitCellPattern("disk", 0.25), par, eps_list, nodes_per_cell=8)
    assert all(r["converged"] for r in rows)
    per_level = [steps.count(eps) for eps in eps_list]
    assert all(1 <= k <= 10 for k in per_level), per_level
