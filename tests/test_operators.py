import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from porohom import operators
from porohom.geometry import UnitCellPattern, boundary_tags, build_phase_mask
from porohom.grid import Grid
from porohom.operators import (
    assemble_scalar_stiffness,
    assemble_vector_form,
    COARSE_DOFS,
    coarse_levels,
    coarse_vector_forms,
    cell_corner_indices,
    cell_counts,
    cell_divergence,
    cell_gradient,
    cell_volume,
    nested_dissection,
    periodic_form_symbol,
    phase_cells,
    strain_load,
)
from porohom.operators import _coarsen as coarsen
from porohom.operators import _assemble, _diffusion_element, _vector_form_elements
from porohom import solvers
from porohom.analysis import poincare_constant
from porohom.grid import ScalarField
from porohom.homogenize import _steady_pore_flux
from porohom.microsim import MaterialParams, MicroSolver
from porohom.solvers import PeriodicInverse, cg_solve, inverse_power_iteration, spd_factor


def test_cell_counts_and_volume():
    g = Grid(2, 17)
    assert tuple(cell_counts(g)) == (16, 16)
    assert cell_volume(g) == pytest.approx((1.0 / 16) ** 2)
    gp = Grid(2, 16, periodic=(True, True))
    assert tuple(cell_counts(gp)) == (16, 16)


def test_phase_cells_all_fluid_is_the_midpoint_of_a_linear_field():
    g = Grid(2, 9)
    x1, x2 = g.coords()
    avg = phase_cells(g, np.ones(g.shape), 2.0 * x1 - x2, -7.0)
    dx = g.spacing(0)
    centers1 = -0.5 + dx * (np.arange(8) + 0.5)
    expect = 2.0 * centers1[:, None] - centers1[None, :]
    assert np.abs(avg.reshape(8, 8) - expect).max() < 1e-14


def test_phase_cells_straddling_cell_takes_the_fluid_corner_mean():
    # 3x3 nodes, 2x2 cells; solid nodes on the bottom-left block, so cell
    # (0, 0) is all solid, cells (0, 1) and (1, 0) straddle, cell (1, 1) is fluid
    g = Grid(2, 3)
    chi_eps = np.ones(g.shape)
    chi_eps[:2, :2] = 0.0
    chi_eps[0, 2] = 0.0
    nodal = np.arange(9.0).reshape(3, 3)
    got = phase_cells(g, chi_eps, nodal, 100.0).reshape(2, 2)
    assert got[0, 0] == 100.0
    assert got[0, 1] == pytest.approx(nodal[1, 2])           # one fluid corner
    assert got[1, 0] == pytest.approx((nodal[2, 0] + nodal[2, 1]) / 2)
    assert got[1, 1] == pytest.approx((nodal[1, 2] + nodal[2, 1] + nodal[2, 2]) / 3)
    assert np.array_equal(phase_cells(g, chi_eps, 2.5, 0.0).reshape(2, 2),
                          [[0.0, 2.5], [2.5, 2.5]])


def test_scalar_stiffness_energy_exact_for_linear_fields():
    g = Grid(2, 21)
    x1, x2 = g.coords()
    A = assemble_scalar_stiffness(g, np.ones(np.prod(cell_counts(g))), np.eye(2))
    u = (3.0 * x1 - 2.0 * x2).ravel()
    # int |grad u|^2 = 9 + 4 over the unit square
    assert u @ (A @ u) == pytest.approx(13.0, abs=1e-12)
    # constants are in the null space
    assert np.abs(A @ np.ones(g.n_nodes)).max() < 1e-13


def test_vector_form_symmetry_and_positivity():
    g = Grid(2, 9)
    rng = np.random.default_rng(0)
    ncells = int(np.prod(cell_counts(g)))
    A = assemble_vector_form(g, rng.uniform(0.5, 2.0, ncells),
                             rng.uniform(0.1, 1.0, ncells)).toarray()
    assert np.abs(A - A.T).max() < 1e-14
    assert np.linalg.eigvalsh(A).min() > -1e-12


def test_vector_form_energy_on_linear_displacement():
    g = Grid(2, 17)
    x1, x2 = g.coords()
    ncells = int(np.prod(cell_counts(g)))
    A = assemble_vector_form(g, np.ones(ncells), None)
    # u = (x2, 0): D(u) has only the off-diagonal 1/2 entries, D:D = 1/2
    u = np.concatenate([x2.ravel(), np.zeros(g.n_nodes)])
    assert u @ (A @ u) == pytest.approx(0.5, abs=1e-12)
    # pure divergence form on u = (x1, x2): div u = 2, D:D = 2
    Adiv = assemble_vector_form(g, np.zeros(ncells), np.ones(ncells))
    v = np.concatenate([x1.ravel(), x2.ravel()])
    assert v @ (Adiv @ v) == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("dim,n,periodic", [(2, 9, (False, True)), (3, 5, (False,) * 3)])
def test_cell_divergence_is_the_reduced_div_form(dim, n, periodic):
    g = Grid(dim, n, periodic=periodic)
    ncells = int(np.prod(cell_counts(g)))
    rng = np.random.default_rng(dim)
    coef = rng.uniform(0.5, 2.0, ncells)
    A = assemble_vector_form(g, np.zeros(ncells), coef)
    u = rng.standard_normal(dim * g.n_nodes)
    d = cell_divergence(g, u)
    assert d.shape == (ncells,)
    assert u @ (A @ u) == pytest.approx(cell_volume(g) * np.sum(coef * d**2), rel=1e-13)
    # strain_load with E = I is the adjoint vol B' of B = cell_divergence
    Au = strain_load(g, coef * d, np.eye(dim))
    assert np.abs(A @ u - Au).max() <= 1e-13 * np.abs(A @ u).max()
    # linear field u = (x1, 2 x2, ...): div u = dim (dim + 1) / 2 on every cell
    lin = np.concatenate([(k + 1) * x.ravel() for k, x in enumerate(g.coords())])
    if not any(periodic):
        assert np.allclose(cell_divergence(g, lin), dim * (dim + 1) / 2, rtol=1e-13)


def test_cg_matches_dense_solve():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((40, 40))
    A = M @ M.T + 40 * np.eye(40)
    b = rng.standard_normal(40)
    res = cg_solve(A, b, tol=1e-13)
    assert res.converged
    assert np.abs(res.x - np.linalg.solve(A, b)).max() < 1e-9


def test_cg_precond_callable_replaces_jacobi():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((40, 40))
    A = M @ M.T + np.diag(rng.uniform(1.0, 80.0, 40))
    b = rng.standard_normal(40)
    jacobi = cg_solve(A, b, tol=1e-12)
    inv_d = 1.0 / np.diag(A)
    same = cg_solve(A, b, tol=1e-12, precond=lambda r: inv_d * r)
    assert same.iterations == jacobi.iterations
    assert np.array_equal(same.x, jacobi.x)
    inverse = np.linalg.inv(A)
    exact = cg_solve(A, b, tol=1e-12, precond=lambda r: inverse @ r)
    assert exact.converged and exact.iterations == 1


def test_cg_singular_consistent_system():
    # graph Laplacian of a path: singular, rhs orthogonal to constants
    n = 30
    A = sp.diags([2.0 * np.ones(n), -np.ones(n - 1), -np.ones(n - 1)], [0, -1, 1]).tocsr()
    A = A.tolil()
    A[0, 0] = A[-1, -1] = 1.0
    A = A.tocsr()
    b = np.zeros(n)
    b[0], b[-1] = 1.0, -1.0
    res = cg_solve(A, b, tol=1e-12)
    assert res.converged
    assert np.abs(A @ res.x - b).max() < 1e-9


def test_cg_absolute_floor_short_circuits_tiny_rhs():
    A = np.eye(5)
    res = cg_solve(A, np.full(5, 1e-18), atol=1e-12)
    assert res.converged
    assert res.iterations == 0


def test_cg_nonconvergence_flag():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((50, 50))
    A = M @ M.T + 1e-6 * np.eye(50)
    res = cg_solve(A, rng.standard_normal(50), tol=1e-14, max_iter=2)
    assert not res.converged
    assert res.iterations == 2


def test_inverse_power_iteration_diagonal_oracle():
    d = np.array([4.0, 9.0, 1.0, 16.0, 25.0])
    A = np.diag(d)
    lam, x, outer, resid = inverse_power_iteration(A, np.ones(5), spd_factor(A).solve, seed=3)
    assert lam == pytest.approx(1.0, rel=1e-6)
    assert abs(abs(x[2]) - 1.0) < 1e-4
    assert resid < 1e-8
    # an inexact SPD preconditioner, and a mass that is not the identity
    mass = np.array([1.0, 2.0, 0.5, 1.0, 4.0])
    lam, x, outer, resid = inverse_power_iteration(
        np.diag(d), mass, seed=3, precond=lambda r: r / (d + 3.0))
    assert lam == pytest.approx(2.0, rel=1e-12)  # min of d / mass
    assert abs(abs(x[2]) * np.sqrt(mass[2]) - 1.0) < 1e-8
    assert resid < 1e-8


@pytest.mark.parametrize("A", [
    [[4.0]],  # the start vector is the eigenvector: a zero search direction
    np.diag([3.0, 3.0, 3.0]),  # every vector is an eigenvector
], ids=["one-by-one", "multiple-eigenvalue"])
def test_inverse_power_iteration_drops_a_degenerate_search_direction(A):
    A = np.array(A)
    lam, x, outer, resid = inverse_power_iteration(A, np.ones(len(A)), seed=3,
                                                   precond=lambda r: r)
    assert lam == pytest.approx(A[0, 0], rel=1e-14)
    assert outer == 1 and resid < 1e-8


def test_inverse_power_iteration_raises_at_the_outer_cap(monkeypatch):
    monkeypatch.setattr(solvers, "POWER_MAX_OUTER", 1)
    A = np.diag([4.0, 9.0, 1.0, 16.0, 25.0])
    with pytest.raises(RuntimeError, match="did not converge in 1 outer steps"):
        inverse_power_iteration(A, np.ones(5), spd_factor(A).solve, seed=3)


def test_inverse_power_iteration_raises_on_a_negative_definite_matrix():
    A = np.diag([-1.0, -2.0, -3.0])
    with pytest.raises(RuntimeError, match="not positive definite"):
        inverse_power_iteration(A, np.ones(3), spd_factor(A).solve, seed=3)


@pytest.mark.parametrize("A", [
    [[1.0, 2.0], [2.0, 1.0]],  # eigenvalues 3 and -1: one pivot is negative
    [[0.0, 1.0], [1.0, 0.0]],  # zero diagonal: splu swaps rows for positive pivots
], ids=["negative-pivot", "zero-diagonal"])
def test_inverse_power_iteration_raises_on_an_indefinite_matrix(A):
    A = np.array(A)
    with pytest.raises(RuntimeError, match="not positive definite"):
        inverse_power_iteration(A, np.ones(2), spd_factor(A).solve, seed=3)


@pytest.mark.parametrize("A", [
    np.diag([-1.0, -2.0, -3.0]),  # the start vector's Rayleigh quotient is negative
    np.diag([-1.0, 2.0, 3.0]),  # a positive start, then a negative Ritz value
], ids=["negative-definite", "indefinite"])
def test_preconditioned_inverse_power_iteration_raises_on_a_matrix_that_is_not_spd(A):
    with pytest.raises(RuntimeError, match="not positive definite"):
        inverse_power_iteration(A, np.ones(3), seed=3, precond=lambda r: r)


class _FactorWithoutTriangles:
    """A splu factor whose L and U may not be read."""

    def __init__(self, lu):
        self._lu = lu

    def __getattr__(self, name):
        if name in ("L", "U"):
            raise AssertionError(f"the factor's {name} was read")
        return getattr(self._lu, name)


def test_no_factor_reads_its_triangular_factors(monkeypatch):
    # reading L or U makes splu build a copy of both, doubling the factor's memory
    splu = spla.splu
    factored = []

    def recorded(A, **options):
        factored.append(A.shape[0])
        return _FactorWithoutTriangles(splu(A, **options))

    monkeypatch.setattr(spla, "splu", recorded)
    g = Grid(2, 64)  # an even node count: the eigensolve factors the whole form
    assert poincare_constant(ScalarField(g, np.ones(g.shape)), g).precond == "factor"
    mask = build_phase_mask(UnitCellPattern("disk", 0.25), 1.0, Grid(2, 17))
    ms = MicroSolver(mask, MaterialParams(tau=0.01, h_mollify=0.0), solver="direct")
    ms.step()
    mask = build_phase_mask(UnitCellPattern("disk", 0.25), 0.5, Grid(2, 2 * 8 + 1))
    _, converged, _ = _steady_pore_flux(mask, 1.0, (1.0, 0.0), max_steps=50, steady_tol=1e-7)
    assert converged
    assert len(factored) == 3


def test_spd_factor_leaves_an_unsorted_matrix_as_it_was():
    # _assemble stores each row's columns unsorted, and splu sorts its input
    # in place; the factor must solve the matrix without touching the caller's
    g = Grid(2, 9)
    free = ~boundary_tags(g)["S0"]
    A = assemble_vector_form(g, np.linspace(1.0, 2.0, 64), np.full(64, 3.0), free)
    arrays = [a.copy() for a in (A.data, A.indices, A.indptr)]
    assert not A.has_sorted_indices
    b = np.random.default_rng(0).standard_normal(A.shape[0])
    x = spd_factor(A).solve(b)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)
    for got, want in zip((A.data, A.indices, A.indptr), arrays):
        assert np.array_equal(got, want)


# -- element-matrix assembly against a dense per-cell reference ------------

def _dense_reference(grid, ncomp, cell_matrix):
    """Dense global matrix from a plain loop over cells.

    cell_matrix(cell_index, grads_at) returns the (ncomp*2^dim)^2 element
    matrix of one cell, ordered (component, corner); grads_at(xi) gives the
    Q1 shape-function gradients at local point xi, shape (dim, 2^dim).
    """
    dim, n = grid.dim, grid.n_per_axis
    h = [grid.spacing(k) for k in range(dim)]
    offsets = list(np.ndindex(*(2,) * dim))

    def grads_at(xi):
        out = np.zeros((dim, len(offsets)))
        for c, off in enumerate(offsets):
            for a in range(dim):
                val = (1.0 if off[a] else -1.0) / h[a]
                for k in range(dim):
                    if k != a:
                        val *= xi[k] if off[k] else 1.0 - xi[k]
                out[a, c] = val
        return out

    A = np.zeros((ncomp * grid.n_nodes, ncomp * grid.n_nodes))
    for e, cell in enumerate(np.ndindex(*cell_counts(grid))):
        nodes = [np.ravel_multi_index(tuple((cell[k] + off[k]) % n for k in range(dim)),
                                      grid.shape) for off in offsets]
        dofs = [comp * grid.n_nodes + p for comp in range(ncomp) for p in nodes]
        A[np.ix_(dofs, dofs)] += cell_matrix(e, grads_at)
    return A


def _gauss(dim):
    pts = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))
    return [(0.5**dim, xi) for xi in np.array(np.meshgrid(*[pts] * dim)).reshape(dim, -1).T]


def _vector_reference(grid, coef_sym, coef_div):
    dim, vol = grid.dim, cell_volume(grid)
    nc = 2**dim

    def cell_matrix(e, grads_at):
        ke = np.zeros((dim * nc, dim * nc))
        for w, xi in _gauss(dim):
            G = grads_at(xi)
            # full strain tensor D_ij = (d_j u_i + d_i u_j) / 2, so D:D sums all i, j
            B = np.zeros((dim * dim, dim * nc))
            for i in range(dim):
                for j in range(dim):
                    B[i * dim + j, i * nc:(i + 1) * nc] += 0.5 * G[j]
                    B[i * dim + j, j * nc:(j + 1) * nc] += 0.5 * G[i]
            ke += w * vol * coef_sym[e] * B.T @ B
        if coef_div is not None:
            Bdiv = grads_at(np.full(dim, 0.5)).reshape(1, -1)
            ke += vol * coef_div[e] * Bdiv.T @ Bdiv
        return ke

    return _dense_reference(grid, dim, cell_matrix)


def _diffusion_reference(grid, coef, K):
    vol = cell_volume(grid)

    def cell_matrix(e, grads_at):
        return sum(w * vol * coef[e] * grads_at(xi).T @ K @ grads_at(xi)
                   for w, xi in _gauss(grid.dim))

    return _dense_reference(grid, 1, cell_matrix)


def _rel_diff(A, ref):
    return np.abs(A.toarray() - ref).max() / np.abs(ref).max()


ASSEMBLY_GRIDS = [Grid(2, 7), Grid(2, 6, periodic=(True, True)),
                  Grid(2, 6, periodic=(False, True)), Grid(3, 4),
                  Grid(3, 4, periodic=(True, True, True))]


def _grid_id(g):
    return f"{g.dim}d-n{g.n_per_axis}-" + "".join("p" if p else "b" for p in g.periodic)


@pytest.mark.parametrize("grid", ASSEMBLY_GRIDS, ids=_grid_id)
@pytest.mark.parametrize("with_div", [True, False])
def test_vector_form_matches_dense_per_cell_reference(grid, with_div):
    rng = np.random.default_rng(grid.n_per_axis + 10 * grid.dim)
    ncells = int(np.prod(cell_counts(grid)))
    coef_sym = rng.uniform(0.2, 3.0, ncells)
    coef_sym[rng.random(ncells) < 0.25] = 0.0  # regions without stiffness
    coef_div = rng.uniform(0.1, 5.0, ncells) if with_div else None
    A = assemble_vector_form(grid, coef_sym, coef_div)
    assert isinstance(A, sp.csr_matrix)
    assert _rel_diff(A, _vector_reference(grid, coef_sym, coef_div)) < 1e-13


@pytest.mark.parametrize("grid,anisotropic", [
    *(pytest.param(g, False, id=_grid_id(g)) for g in ASSEMBLY_GRIDS),
    *(pytest.param(g, True, id=_grid_id(g) + "-anisotropic") for g in ASSEMBLY_GRIDS),
])
def test_scalar_stiffness_matches_dense_per_cell_reference(grid, anisotropic):
    rng = np.random.default_rng(3)
    coef = rng.uniform(0.2, 3.0, int(np.prod(cell_counts(grid))))
    tensor = np.eye(grid.dim)
    if anisotropic:
        M = rng.standard_normal((grid.dim, grid.dim))
        tensor = M @ M.T + 0.5 * np.eye(grid.dim)  # SPD, as a permeability K
    A = assemble_scalar_stiffness(grid, coef, tensor)
    assert _rel_diff(A, _diffusion_reference(grid, coef, tensor)) < 1e-13


@pytest.mark.parametrize("grid", [Grid(2, 7), Grid(3, 5)], ids=_grid_id)
def test_strain_load_is_the_form_applied_to_the_affine_field(grid):
    # on a box grid the affine field E x is a nodal field, so the assembled
    # form applied to it is an independent oracle for the load
    rng = np.random.default_rng(grid.dim)
    coef = rng.uniform(0.2, 3.0, int(np.prod(cell_counts(grid))))
    M = rng.standard_normal((grid.dim, grid.dim))
    E = 0.5 * (M + M.T)
    X = np.stack([x.ravel() for x in grid.coords()])
    oracle = assemble_vector_form(grid, coef, None) @ (E @ X).ravel()
    got = strain_load(grid, coef, E)
    assert np.abs(got - oracle).max() <= 1e-13 * np.abs(oracle).max()


@pytest.mark.parametrize("grid", [Grid(2, 9), Grid(3, 5, periodic=(False, True, False))],
                         ids=_grid_id)
def test_cell_gradient_is_exact_on_linear_and_bilinear_fields(grid):
    X = grid.coords()
    slope = np.array([3.0, -2.0, 0.5])[:grid.dim]
    if grid.periodic[1]:
        slope[1] = 0.0  # a periodic axis carries no linear field
    f = sum(c * x for c, x in zip(slope, X)).ravel()
    got = cell_gradient(grid, f)
    assert got.shape == (int(np.prod(cell_counts(grid))), grid.dim)
    assert np.abs(got - slope).max() < 1e-12
    # x_first * x_last (both box axes): its gradient is exact only at the
    # cell centres, (x_last, 0, ..., x_first) there
    center = [x.ravel()[cell_corner_indices(grid)].mean(axis=1) for x in (X[0], X[-1])]
    got = cell_gradient(grid, (X[0] * X[-1]).ravel())
    assert np.abs(got[:, 0] - center[1]).max() < 1e-12
    assert np.abs(got[:, -1] - center[0]).max() < 1e-12


def test_second_assembly_on_a_grid_reuses_the_cached_pattern():
    from porohom.operators import _stencil_layout

    g = Grid(3, 6, periodic=(True, False, True))
    ncells = int(np.prod(cell_counts(g)))
    first = assemble_vector_form(g, np.ones(ncells), np.ones(ncells))
    hits = _stencil_layout.cache_info().hits
    second = assemble_vector_form(g, 2.0 * np.ones(ncells), None)
    assert _stencil_layout.cache_info().hits == hits + 1
    assert first.shape == second.shape


# -- assembly on the free nodes ---------------------------------------------

def _assert_same_csr(got, want):
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and np.array_equal(g, w), name


@pytest.mark.parametrize("grid", [Grid(2, 17), Grid(3, 9), Grid(3, 12),
                                  Grid(2, 8, periodic=(True, True)),
                                  Grid(3, 6, periodic=(True, False, True))], ids=_grid_id)
def test_restricted_assembly_is_restrict_entry_for_entry(grid):
    # the form on the free nodes is the whole form with the fixed rows and
    # columns cut out, in every stored entry; zero coefficients on a third of
    # the cells drop entries that the pattern keeps, and the second call
    # reuses the cached pattern with other zeros
    rng = np.random.default_rng(3)
    ncells = int(np.prod(cell_counts(grid)))
    free = rng.random(grid.n_nodes) < 0.8
    act = np.tile(free, grid.dim)
    tensor = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.5]])[:grid.dim, :grid.dim]
    for trial in range(2):
        sym = rng.uniform(0.5, 2.0, ncells)
        div = rng.uniform(0.1, 1.0, ncells)
        sym[trial::3] = 0.0
        div[trial::3] = 0.0
        A = assemble_vector_form(grid, sym, div)
        want = A[act][:, act]
        assert want.nnz < assemble_vector_form(grid, sym + 1.0, div + 1.0, free).nnz
        _assert_same_csr(assemble_vector_form(grid, sym, div, free), want)
        # the node mask may come shaped like the grid
        _assert_same_csr(assemble_vector_form(grid, sym, div, free.reshape(grid.shape)), want)
        S = assemble_scalar_stiffness(grid, sym, tensor)
        _assert_same_csr(assemble_scalar_stiffness(grid, sym, tensor, free), S[free][:, free])


def test_restricted_pattern_keeps_only_the_cells_with_a_free_corner():
    from porohom.operators import _stencil_layout

    grid = Grid(3, 9)
    free = np.zeros(grid.n_nodes, dtype=bool)
    free[np.random.default_rng(4).choice(grid.n_nodes, 20, replace=False)] = True
    nst = 3**grid.dim  # neighbour slots per node row
    cells, pick, columns, indptr = _stencil_layout(grid, free.tobytes(), 3)
    whole = _stencil_layout(grid, None, 3)[1]
    assert np.array_equal(np.unique(whole // nst), np.arange(grid.n_nodes))
    rows = np.unique(pick // nst)
    assert np.array_equal(rows, np.flatnonzero(free))
    # the kept rows draw on exactly the cells with a free corner
    touched = free[cell_corner_indices(grid)].any(axis=1)
    ncells = touched.size
    reached = np.unique(cells[rows])
    assert np.array_equal(reached[reached < ncells], np.flatnonzero(touched))
    assert 0 < reached.size < ncells // 2
    # every kept slot couples two free nodes, one entry per pair of components
    assert pick.size == columns.size and indptr[-1] == 9 * pick.size
    assert 0 <= columns.min() and columns.max() < 20
    assert np.all(free[pick // nst]) and np.all(free[rows[columns]])
    A = assemble_vector_form(grid, np.linspace(1.0, 2.0, ncells), np.full(ncells, 0.5), free)
    assert A.shape == (3 * 20,) * 2 and 0 < A.nnz <= indptr[-1]


# -- the stencil assembler against a plain loop over cells ------------------

def _loop_assembly(grid, coefs, elements, free):
    """Dense sum over the cells of sum_t coefs[cell, t] * elements[t] on the
    cell's corner dofs, restricted to the free dofs."""
    nterms, ncomp, nc = elements.shape[:3]
    n = grid.n_nodes
    A = np.zeros((ncomp * n,) * 2)
    for cell, nodes in enumerate(cell_corner_indices(grid)):
        dofs = (n * np.arange(ncomp)[:, None] + nodes).ravel()
        ke = np.tensordot(coefs[cell], elements, axes=1)
        A[np.ix_(dofs, dofs)] += ke.reshape(ncomp * nc, ncomp * nc)
    act = np.tile(free, ncomp)
    return A[act][:, act]


def _term_stack(grid, terms):
    """An element stack of one term (the scalar Laplacian) or two terms (D:D
    and div*div)."""
    if terms == "one":
        return _diffusion_element(grid, np.eye(grid.dim))[None]
    return _vector_form_elements(grid)


@pytest.mark.parametrize("terms", ["one", "two"])
@pytest.mark.parametrize("grid", [Grid(2, 7), Grid(2, 6, periodic=(True, True)),
                                  Grid(3, 5), Grid(3, 4, periodic=(True, True, True)),
                                  Grid(3, 5, periodic=(True, False, True))], ids=_grid_id)
def test_stencil_assembly_matches_a_loop_over_cells(grid, terms):
    rng = np.random.default_rng(grid.n_nodes + len(terms))
    elements = _term_stack(grid, terms)
    ncells = int(np.prod(cell_counts(grid)))
    coefs = rng.uniform(0.2, 3.0, (ncells, len(elements)))
    coefs[rng.random(ncells) < 0.2] = 0.0    # regions without the form
    coefs[rng.random(ncells) < 0.3] = 1.5    # neighbouring cells that agree
    whole = _assemble(grid, coefs, elements)
    free = rng.random(grid.n_nodes) < 0.7
    for mask in (np.ones(grid.n_nodes, dtype=bool), free):
        A = _assemble(grid, coefs, elements, mask)
        ref = _loop_assembly(grid, coefs, elements, mask)
        assert np.abs(A.toarray() - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.all(A.data != 0.0)
        act = np.tile(mask, elements.shape[1])
        _assert_same_csr(A, whole[act][:, act])


@pytest.mark.parametrize("with_div", [True, False])
@pytest.mark.parametrize("grid", [Grid(2, 8, periodic=(True, True)),
                                  Grid(3, 6, periodic=(True, True, True)),
                                  Grid(2, 9), Grid(3, 7), Grid(2, 33), Grid(3, 17)], ids=_grid_id)
def test_equal_cell_coefficients_store_no_roundoff(grid, with_div):
    # with one coefficient on every cell the entries that cancel between the
    # cells are exact zeros: a periodic form, and the rows of the interior
    # nodes of a box form and of its coarse forms, store no entry at
    # roundoff level
    ncells = int(np.prod(cell_counts(grid)))
    sym, div = np.full(ncells, 0.7), np.full(ncells, 3.0) if with_div else None
    levels = coarse_levels(grid, np.ones(grid.n_nodes, dtype=bool))
    assert len(levels) == {7: 1, 17: 3, 33: 2}.get(grid.n_per_axis, 0)  # periodic: none
    forms = [(grid, assemble_vector_form(grid, sym, div)),
             *zip([lv.grid for lv in levels], coarse_vector_forms(grid, levels, sym, div))]
    for g, A in forms:
        A = A.tocoo()
        d = A.diagonal()
        node = np.array(np.unravel_index(A.row % g.n_nodes, g.shape))
        interior = np.all([g.periodic[k] | ((node[k] > 0) & (node[k] < g.n_per_axis - 1))
                           for k in range(g.dim)], axis=0)
        tiny = np.abs(A.data) < 1e-13 * np.sqrt(d[A.row] * d[A.col])
        assert interior.any() and not np.any(tiny & interior)


# -- multigrid hierarchy ----------------------------------------------------

def test_coarsen_halves_every_axis_or_returns_none():
    assert coarsen(Grid(2, 65)) == Grid(2, 33)
    assert coarsen(Grid(3, 5)) == Grid(3, 3)
    # an even count, too few nodes
    assert coarsen(Grid(2, 34)) is None
    assert coarsen(Grid(2, 3)) is None
    # a periodic axis, whatever the node count
    assert coarsen(Grid(2, 32, periodic=(True, True))) is None
    assert coarsen(Grid(2, 33, periodic=(True, True))) is None
    assert coarsen(Grid(2, 33, periodic=(False, True))) is None
    assert coarsen(Grid(2, 32, periodic=(False, True))) is None


def _rel(A, B):
    return abs(A - B).max() / abs(B).max()


# Grids that coarse_levels halves at least twice before COARSE_DOFS stops it.
@pytest.mark.parametrize("grid,fixed", [
    (Grid(2, 33), ("S0",)), (Grid(2, 33), ("S0", "S1", "S2")),
    (Grid(3, 17), ("S0",)), (Grid(3, 17), ("S0", "S1", "S2"))],
    ids=lambda v: "+".join(v) if isinstance(v, tuple) else _grid_id(v))
def test_coarse_forms_are_the_galerkin_products_on_whole_face_dirichlet_sets(grid, fixed):
    # one D:D coefficient and no div*div term: the Q1 spaces are nested and
    # the full Gauss rule is exact, so the rediscretized coarse form is
    # P^T A P (the one-point div*div rule is not exact, and is left out)
    tags = boundary_tags(grid)
    fixed_nodes = np.zeros(grid.shape, dtype=bool)
    for name in fixed:
        fixed_nodes |= tags[name]
    free = ~fixed_nodes.ravel()
    sym = np.full(int(np.prod(cell_counts(grid))), 0.7)
    levels = coarse_levels(grid, free)
    assert len(levels) >= 2
    fine = assemble_vector_form(grid, sym, None, free)
    for level, coarse in zip(levels, coarse_vector_forms(grid, levels, sym)):
        P = level.prolongation
        assert coarse.shape == (grid.dim * level.free.sum(),) * 2 == (P.shape[1],) * 2
        assert _rel(coarse, (P.T @ fine @ P).tocsr()) <= 1e-13
        fine = coarse


@pytest.mark.parametrize("grid", [Grid(2, 33), Grid(3, 17)], ids=_grid_id)
def test_coarse_forms_rediscretize_with_the_mean_coefficient_of_the_covered_cells(grid):
    # random coefficients and a random free mask with fixed interior nodes:
    # each coarse cell carries the mean over the fine cells it covers
    rng = np.random.default_rng(grid.dim)
    counts = cell_counts(grid)
    sym, div = rng.uniform(0.5, 2.0, (2, int(np.prod(counts))))
    free = rng.random(grid.n_nodes) >= 0.2
    levels = coarse_levels(grid, free)
    assert len(levels) >= 2
    forms = coarse_vector_forms(grid, levels, sym, div)
    for depth, (level, coarse) in enumerate(zip(levels, forms), start=1):
        k = 2**depth
        coarse_counts = cell_counts(level.grid)
        assert all(k * m == c for m, c in zip(coarse_counts, counts))
        m_sym, m_div = np.empty((2, int(np.prod(coarse_counts))))
        for cell, index in enumerate(np.ndindex(*coarse_counts)):
            covered = np.ravel_multi_index(
                np.indices((k,) * grid.dim).reshape(grid.dim, -1)
                + k * np.array(index)[:, None], counts)
            m_sym[cell], m_div[cell] = sym[covered].mean(), div[covered].mean()
        want = assemble_vector_form(level.grid, m_sym, m_div, level.free)
        assert coarse.shape == want.shape == (grid.dim * level.free.sum(),) * 2
        assert _rel(coarse, want) <= 1e-14


def test_coarse_levels_stop_at_max_dofs_or_at_a_grid_that_cannot_be_halved():
    grid = Grid(2, 65)
    free = np.ones(grid.n_nodes, dtype=bool)
    levels = coarse_levels(grid, free)
    assert [lv.grid.n_per_axis for lv in levels] == [33, 17, 9]
    assert [int(lv.free.sum()) for lv in levels] == [33**2, 17**2, 9**2]
    assert 2 * 9**2 <= COARSE_DOFS < 2 * 17**2
    assert coarse_levels(grid, free) is levels  # cached per grid and mask
    for lv in levels:  # each restriction is built once, as the CSR transpose
        assert lv.restriction.format == "csr"
        assert (lv.restriction != lv.prolongation.T).nnz == 0
    # 35 -> 18 nodes, and 18 cannot be halved: the last level keeps 648 dofs
    assert [lv.grid.n_per_axis for lv in coarse_levels(Grid(2, 35), free[:35**2])] \
        == [18]
    assert coarse_levels(Grid(2, 34), free[:34**2]) == ()
    # a periodic grid is never halved
    assert coarse_levels(Grid(2, 33, periodic=(True, True)), free[:33**2]) == ()


# -- FFT inverse of the periodic constant-coefficient form ------------------

def _constant_form(grid, coef_sym, coef_div):
    ncells = int(np.prod(cell_counts(grid)))
    return assemble_vector_form(grid, np.full(ncells, coef_sym), np.full(ncells, coef_div))


@pytest.mark.parametrize("dim, n", [(2, 15), (2, 16), (3, 9), (3, 16)])
def test_periodic_form_symbol_is_the_fft_of_the_node_zero_columns(dim, n):
    # the form is a convolution, so column (j, node 0) is the stencil of
    # component j and its rfftn is column j of the symbol; odd and even n
    grid = Grid(dim, n, periodic=(True,) * dim)
    A = _constant_form(grid, 1.3, 130.0)
    axes = tuple(range(1, dim + 1))
    want = np.stack([np.fft.rfftn(A[:, j * grid.n_nodes].toarray().reshape((dim,) + grid.shape),
                                  axes=axes) for j in range(dim)], axis=-1)
    want = np.moveaxis(want, 0, -2)  # (wavenumber..., i, j)
    got = periodic_form_symbol(grid, 1.3, 130.0)
    assert got.shape == want.shape and got.dtype == np.float64
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_periodic_form_symbol_needs_a_periodic_grid():
    with pytest.raises(ValueError, match="periodic"):
        periodic_form_symbol(Grid(2, 8, periodic=(True, False)), 1.0, 1.0)


@pytest.mark.parametrize("dim, n", [(2, 15), (3, 8)])
def test_periodic_inverse_is_the_pseudo_inverse_on_the_whole_grid(dim, n):
    # M A0 x is x with each component's mean removed, the k = 0 block
    # (translations) being dropped
    grid = Grid(dim, n, periodic=(True,) * dim)
    M = PeriodicInverse(periodic_form_symbol(grid, 0.7, 70.0))
    x = np.random.default_rng(2).standard_normal(dim * grid.n_nodes)
    mean_free = (x.reshape(dim, -1) - x.reshape(dim, -1).mean(axis=1, keepdims=True)).ravel()
    assert np.abs(M(_constant_form(grid, 0.7, 70.0) @ x) - mean_free).max() < 1e-11


@pytest.mark.parametrize("dim, n", [(2, 16), (3, 9)])
def test_periodic_inverse_is_symmetric_and_positive_on_the_free_dofs(dim, n):
    # every node of the periodic grid is a free dof
    grid = Grid(dim, n, periodic=(True,) * dim)
    rng = np.random.default_rng(dim + n)
    M = PeriodicInverse(periodic_form_symbol(grid, 1.0, 100.0))
    for _ in range(5):
        r, s = rng.standard_normal((2, dim * grid.n_nodes))
        Mr, Ms = M(r), M(s)
        assert Mr.shape == r.shape
        assert abs(s @ Mr - r @ Ms) <= 1e-12 * abs(s @ Mr)
        # the translations are its kernel, and mean-free vectors see it positive
        translation = np.kron(rng.standard_normal(dim), np.ones(grid.n_nodes))
        assert np.abs(M(translation)).max() <= 1e-12 * np.abs(Mr).max()
        assert np.abs(M(r + translation) - Mr).max() <= 1e-12 * np.abs(Mr).max()
        mean_free = (r.reshape(dim, -1) - r.reshape(dim, -1).mean(axis=1, keepdims=True)).ravel()
        assert mean_free @ M(mean_free) > 0 and r @ Mr > 0



def _pore_nodes(pattern, eps, grid):
    """Free nodes of the steady micro solve: off S0 and off the solid."""
    return ~(boundary_tags(grid)["S0"] | build_phase_mask(pattern, eps, grid).solid)


ND_CASES = {
    "2d box": (Grid(2, 33), np.ones((33, 33), dtype=bool)),
    "2d disk": (Grid(2, 65), _pore_nodes(UnitCellPattern("disk", 0.25), 0.25, Grid(2, 65))),
    "3d sphere": (Grid(3, 17), _pore_nodes(UnitCellPattern("sphere", 0.25), 0.5, Grid(3, 17))),
    "periodic axis": (Grid(2, 32, periodic=(True, False)),
                      np.arange(32 * 32).reshape(32, 32) % 7 != 0),
}


@pytest.mark.parametrize("case", list(ND_CASES))
@pytest.mark.parametrize("ncomp", [1, 2, 3])
def test_nested_dissection_is_a_node_interleaved_permutation(case, ncomp):
    grid, free = ND_CASES[case]
    nfree = np.count_nonzero(free)
    order = nested_dissection(grid, free, ncomp)
    assert np.array_equal(np.sort(order), np.arange(ncomp * nfree))
    # the ncomp dofs of one free node are listed together, component by component
    per_node = order.reshape(nfree, ncomp)
    assert np.array_equal(per_node - per_node[:, :1], np.tile(nfree * np.arange(ncomp), (nfree, 1)))
    assert np.all(per_node[:, 0] < nfree)
    assert nested_dissection(grid, free, ncomp) is order  # cached
    assert not order.flags.writeable
    with pytest.raises(ValueError):
        order[0] = 0


def test_nested_dissection_keeps_a_leaf_in_grid_order(monkeypatch):
    grid, free = ND_CASES["2d disk"]
    monkeypatch.setattr(operators, "ND_LEAF", np.count_nonzero(free))
    operators._nested_dissection.cache_clear()
    try:
        order = nested_dissection(grid, free, 2)
    finally:
        operators._nested_dissection.cache_clear()
    assert np.array_equal(order.reshape(-1, 2)[:, 0], np.arange(np.count_nonzero(free)))


@pytest.mark.parametrize("with_div", [True, False])
@pytest.mark.parametrize("case", ["2d disk", "3d sphere"])
def test_assembly_in_factor_order_is_the_permuted_form(case, with_div):
    # the steady micro form of the pore nodes, viscous and (with_div) penalty
    # terms on the fluid cells
    grid, free = ND_CASES[case]
    pattern = UnitCellPattern("disk" if grid.dim == 2 else "sphere", 0.25)
    eps = 0.25 if grid.dim == 2 else 0.5
    fluid = phase_cells(grid, build_phase_mask(pattern, eps, grid).chi_eps, 1.0, 0.0)
    div = 1e4 * fluid if with_div else None
    order = nested_dissection(grid, free, grid.dim)
    want = assemble_vector_form(grid, fluid, div, free)[order][:, order]
    want.sort_indices()
    got = assemble_vector_form(grid, fluid, div, free, order=order)
    _assert_same_csr(got, want)
    within_row = np.ones(got.nnz - 1, dtype=bool)
    within_row[got.indptr[1:-1] - 1] = False
    assert np.all(np.diff(got.indices)[within_row] > 0)


@pytest.mark.parametrize("precond", ["multigrid", "factor"])
def test_form_solver_rows_follow_its_dofs(precond):
    # a form on the interior of the 2D n=33 box, a grid that halves: row i of
    # A is dof dofs[i] of the form on every node, and B preconditions A (an
    # exact inverse for "factor"; Jacobi-CG takes 219 iterations here)
    grid = Grid(2, 33)
    tags = boundary_tags(grid)
    free = ~(tags["S0"] | tags["S1"] | tags["S2"])
    coef = 1.0 + np.arange(32 * 32) % 3
    A, dofs, B = solvers.form_solver(grid, free, coef, 2.0 * coef, precond)
    whole = assemble_vector_form(grid, coef, 2.0 * coef)
    assert abs(A - whole[dofs][:, dofs]).max() == 0
    b = np.random.default_rng(0).standard_normal(dofs.size)
    res = cg_solve(A, b, tol=1e-10, precond=B)
    assert res.converged and res.iterations <= (2 if precond == "factor" else 50)


def test_form_solver_rejects_an_unknown_preconditioner():
    grid, free = ND_CASES["2d box"]
    with pytest.raises(ValueError, match="unknown preconditioner 'jacobi'"):
        solvers.form_solver(grid, free, np.ones(32 * 32), None, "jacobi")


@pytest.mark.parametrize("case", ["2d box", "2d disk"])
def test_nested_dissection_ends_with_the_emptiest_middle_plane(case):
    # the first split of a square box is along axis 0; its separator is listed
    # last and is the plane with the fewest free nodes in the middle quarter,
    # the one nearest the centre among equals
    grid, free = ND_CASES[case]
    m = grid.n_per_axis
    counts = np.count_nonzero(free, axis=1)
    middle = np.arange(m // 2 - m // 8, m // 2 + m // 8 + 1)
    fewest = middle[counts[middle] == counts[middle].min()]
    plane = fewest[np.argmin(np.abs(2 * fewest - (m - 1)))]
    rank = np.cumsum(free.ravel()) - 1
    separator = rank[np.flatnonzero(free[plane]) + plane * m]
    order = nested_dissection(grid, free, 1)
    assert np.array_equal(order[-separator.size:], separator)
    if case == "2d disk":
        assert counts[plane] < counts[m // 2]  # it runs through the inclusions
