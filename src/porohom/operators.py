"""Sparse assembly of the discrete quadratic forms behind every solve.

The weak forms (viscous/elastic D:D terms, the compressibility div*div
penalty and scalar or anisotropic diffusion) use trilinear/bilinear (Q1)
elements on the grid cells with tensor-product Gauss quadrature; the div*div
term uses single-point (reduced) quadrature to avoid volumetric locking at
large compressibility moduli.  Coefficients are piecewise constant per cell
(phase_cells) and the grid is uniform, so every form is a sum of
reference element matrices, each scaled by one coefficient per cell.

All forms go through one assembler, _assemble.  On a uniform grid the row of
a node couples it with its 3^dim stencil neighbours, and it sums, over the
cells at the node's corners, the element rows of that corner scaled by the
cells' coefficients.  So each component row block of a form is one small
dense product per node, coefficients of the node's cells times a fixed
stencil weight matrix, computed for every node and gathered into the
component-major CSR on the free nodes of a boolean node mask (every node by
default).  Where to gather from and to is cached per grid, mask and
component count (_stencil_layout).  The product is split so that the cells
around a node that share a coefficient cancel exactly; entries that are
exactly zero are not stored.
The results are symmetric positive semi-definite compact-stencil matrices
whose 1D reductions are the classical tridiagonal forms.

The multigrid hierarchy of MicroSolver's step solve lives here too:
coarse_levels halves a box grid and builds the Q1 interpolation between the
free nodes of consecutive levels and its transpose, and coarse_vector_forms
rediscretizes the form on each level with the same assembler, each coarse
cell taking the mean coefficient of the cells it covers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .grid import Grid, sym_component_pairs

__all__ = [
    "cell_counts",
    "cell_volume",
    "cell_corner_indices",
    "phase_cells",
    "cell_divergence",
    "cell_gradient",
    "strain_load",
    "assemble_scalar_stiffness",
    "assemble_vector_form",
    "periodic_form_symbol",
    "CoarseLevel",
    "coarse_levels",
    "coarse_vector_forms",
]


# Bound of the per-grid caches.  The assembly layout is kept per grid,
# free-node mask and component count: an eps sweep touches six (the cell
# problem's layout near the solid, the Darcy grid's whole and free layouts,
# and one free layout on each of three micro grids), a multigrid hierarchy
# two to four.  The element stacks are kept per grid, one for each level of a
# hierarchy.
_GRID_CACHE = 16


def cell_counts(grid: Grid):
    n = grid.n_per_axis
    return tuple(n if grid.periodic[k] else n - 1 for k in range(grid.dim))


def cell_volume(grid: Grid) -> float:
    return float(np.prod([grid.spacing(k) for k in range(grid.dim)]))


@lru_cache(maxsize=_GRID_CACHE)
def cell_corner_indices(grid: Grid) -> np.ndarray:
    """Flat node index of each cell corner, shape (ncells, 2^dim)."""
    mc = cell_counts(grid)
    cells = np.indices(mc).reshape(grid.dim, -1)
    cols = []
    for off in itertools.product((0, 1), repeat=grid.dim):
        axes = []
        for k in range(grid.dim):
            ix = cells[k] + off[k]
            if grid.periodic[k]:
                ix = ix % grid.n_per_axis
            axes.append(ix)
        cols.append(np.ravel_multi_index(tuple(axes), grid.shape))
    return np.stack(cols, axis=1)


def phase_cells(grid: Grid, chi_eps: np.ndarray, fluid_nodal, solid_value: float) -> np.ndarray:
    """Per-cell coefficient of a pore/skeleton field (flat, length ncells):
    the one rule for the cells that straddle the interface.

    A cell with at least one fluid corner (chi_eps = 1) is a fluid cell and
    takes the mean of fluid_nodal (nodal array or scalar) over its fluid
    corners; every other cell takes solid_value.  A straddling cell is all
    fluid because its fluid corner nodes move without bound in a
    through-flow: a fractional elastic coefficient there strangles the
    steady flux instead of converging to Stokes flow.
    """
    corners = cell_corner_indices(grid)
    fluid = chi_eps.ravel()[corners]
    count = fluid.sum(axis=1)
    nodal = np.broadcast_to(np.asarray(fluid_nodal, dtype=float), grid.shape).ravel()
    total = (nodal[corners] * fluid).sum(axis=1)
    return np.where(count > 0, total / np.maximum(count, 1.0), solid_value)


def _gauss_points(dim: int):
    """Tensor-product 2-point Gauss rule on the reference cell [0,1]^dim."""
    g = 0.5 / np.sqrt(3.0)
    pts1 = (0.5 - g, 0.5 + g)
    out = []
    for xi in itertools.product(pts1, repeat=dim):
        out.append((0.5**dim, xi))
    return out


def _shape_gradients(grid: Grid, xi) -> np.ndarray:
    """d(phi_c)/dx_a of the corner shape functions at local xi, shape (dim, 2^dim).

    The same for every cell, since the grid is uniform."""
    dim = grid.dim
    out = np.empty((dim, 2**dim))
    for c, off in enumerate(itertools.product((0, 1), repeat=dim)):
        for a in range(dim):
            v = 1.0
            for k in range(dim):
                if k == a:
                    v *= (1.0 if off[k] else -1.0) / grid.spacing(k)
                else:
                    v *= xi[k] if off[k] else 1.0 - xi[k]
            out[a, c] = v
    return out


# -- element matrices: shape (ncomp, 2^dim, ncomp, 2^dim), one cell, unit coefficient

def _sym_element(grid: Grid) -> np.ndarray:
    """D(u):D(v) with the full Gauss rule; off-diagonal strains count twice."""
    dim = grid.dim
    ke = np.zeros((dim, 2**dim, dim, 2**dim))
    for w, xi in _gauss_points(dim):
        grad = _shape_gradients(grid, xi)
        for i, j in sym_component_pairs(dim):
            strain = np.zeros((dim, 2**dim))  # D_ij as a row over (component, corner)
            strain[i] += 0.5 * grad[j]
            strain[j] += 0.5 * grad[i]
            mult = 1.0 if i == j else 2.0
            ke += (w * mult) * np.einsum("ia,jb->iajb", strain, strain)
    return ke * cell_volume(grid)


def _div_element(grid: Grid) -> np.ndarray:
    """(div u)(div v) with single-point (cell-center) quadrature."""
    grad = _shape_gradients(grid, (0.5,) * grid.dim)
    return np.einsum("ia,jb->iajb", grad, grad) * cell_volume(grid)


def cell_divergence(grid: Grid, u_flat: np.ndarray) -> np.ndarray:
    """div u at each cell center (flat, length ncells): the discrete
    divergence of the reduced div*div form, so that u^T A_div u equals
    cell_volume * sum(coef * cell_divergence**2)."""
    grad = _shape_gradients(grid, (0.5,) * grid.dim)
    corners = cell_corner_indices(grid)
    u = u_flat.reshape(grid.dim, -1)
    return sum(u[k][corners] @ grad[k] for k in range(grid.dim))


def cell_gradient(grid: Grid, f_flat: np.ndarray) -> np.ndarray:
    """grad f of a nodal scalar at each cell center, shape (ncells, dim),
    with the same center shape gradients as cell_divergence."""
    grad = _shape_gradients(grid, (0.5,) * grid.dim)
    return f_flat[cell_corner_indices(grid)] @ grad.T


def strain_load(grid: Grid, coef_cells: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Load  sum_cells coef * E:D(v)  of a constant symmetric strain E, as a
    component-major vector over the test functions v.

    Exact for Q1: the cell mean of a shape gradient is its value at the
    cell center, so the load is vol * coef * (E grad_center) per cell.  With
    E = I it is vol B'coef, B the cell_divergence operator, so that
    strain_load(grid, coef * cell_divergence(grid, u), I) applies the
    div*div form with coefficient coef to u."""
    grad = _shape_gradients(grid, (0.5,) * grid.dim)
    corners = cell_corner_indices(grid).ravel()
    local = E @ grad  # (component, corner) of one cell, unit coefficient
    scale = cell_volume(grid) * coef_cells
    return np.concatenate([
        np.bincount(corners, weights=np.outer(scale, local[i]).ravel(), minlength=grid.n_nodes)
        for i in range(grid.dim)])


def _diffusion_element(grid: Grid, tensor: np.ndarray) -> np.ndarray:
    """grad(u) . tensor grad(v) for a scalar unknown, full Gauss rule."""
    nc = 2**grid.dim
    ke = np.zeros((nc, nc))
    for w, xi in _gauss_points(grid.dim):
        grad = _shape_gradients(grid, xi)
        ke += w * (grad.T @ tensor @ grad)
    return (ke * cell_volume(grid)).reshape(1, nc, 1, nc)


@lru_cache(maxsize=_GRID_CACHE)
def _stencil_layout(grid: Grid, free_bytes: bytes | None, ncomp: int):
    """(cells, pick, columns, indptr): where the stencil rows of an
    ncomp-component form come from and where they go, on the free nodes of a
    boolean node mask (free_bytes; None: every node).

    cells[p, a] is the cell that has node p at its corner a, or ncells (a
    sentinel, one past the last cell) where the grid has none.  Node p has a
    stencil slot for each step s of {-1, 0, 1}^dim (lexicographic order),
    the neighbour p + s.  pick lists, free node by free node, the slots
    (flat over node and step) whose neighbour exists and is free, and
    columns holds that neighbour's rank among the free nodes.  Row (i, r) of
    the form stores, slot by slot, the coupling with each component j of the
    neighbour, in column j * nfree + columns; indptr is the CSR row pointer
    of the ncomp component row blocks over these entries."""
    dim, n = grid.dim, grid.n_per_axis
    node = np.indices(grid.shape).reshape(dim, -1, 1)
    periodic = np.array(grid.periodic)[:, None, None]

    def locate(pos, counts):
        """Flat index in a box of counts of each position (dim, nodes, k),
        wrapped on the periodic axes; -1 outside the box."""
        pos = np.where(periodic, pos % n, pos)
        inside = np.all((pos >= 0) & (pos < np.array(counts)[:, None, None]), axis=0)
        return np.where(inside, np.ravel_multi_index(tuple(np.where(inside, pos, 0)), counts), -1)

    corners = np.array(list(itertools.product((0, 1), repeat=dim))).T[:, None, :]
    cells = locate(node - corners, cell_counts(grid))
    cells[cells < 0] = np.prod(cell_counts(grid))
    steps = np.array(list(itertools.product((-1, 0, 1), repeat=dim))).T[:, None, :]
    nbr = locate(node + steps, grid.shape)
    free = (np.ones(grid.n_nodes, dtype=bool) if free_bytes is None
            else np.frombuffer(free_bytes, dtype=bool))
    keep = (nbr >= 0) & free[nbr] & free[:, None]  # (node, step)
    rank = np.cumsum(free) - 1
    row_len = np.count_nonzero(keep, axis=1)[free] * ncomp
    indptr = np.concatenate([[0], np.cumsum(np.tile(row_len, ncomp))])
    return (cells.astype(np.int32), np.flatnonzero(keep).astype(np.int32),
            rank[nbr[keep]].astype(np.int32), indptr)


def _corner_windows(dim: int):
    """For each cell corner a (in cell_corner_indices order), the slices of
    the (3,)*dim stencil of a node at corner a that hold the cell's corners
    b, in the same order: the steps off_b - off_a."""
    return [tuple(slice(1 - o, 3 - o) for o in off)
            for off in itertools.product((0, 1), repeat=dim)]


def _assemble(grid: Grid, coefs: np.ndarray, elements: np.ndarray,
              free: np.ndarray | None = None) -> sp.csr_matrix:
    """sum_t coefs[cell, t] * elements[t] over the cells, on the free nodes of
    the boolean node mask free (default: every node), as a component-major
    CSR matrix: row i*nfree + r is component i of free node r, and its
    entries run over the node's stencil neighbours and, per neighbour, over
    the components j (_stencil_layout; columns are not sorted in a row).

    coefs: shape (ncells, nterms); elements: shape (nterms, ncomp, 2^dim,
    ncomp, 2^dim).  The row of node p sums, over the cells at its corners a,
    the element row of corner a scaled by that cell's coefficients, so the
    row block of component i is one dense product over the nodes,
    S_i = M W_i, with M[p, (t, a)] the coefficient of term t on the cell at
    corner a of p (zero where there is no cell) and
    W_i[(t, a), (s, j)] = elements[t, i, a, j, b] for the corner b = a + s.
    In this product each entry is sum_a (c_a - c_ref) W_a + c_ref sum_a W_a,
    with c_ref the lower median of the node's cell coefficients, and the
    constant-coefficient stencil sum_a W_a is set to exactly zero where it
    is roundoff: where the cells around a node share a coefficient, an
    entry that cancels between them comes out exactly zero.

    Rows are computed on every node whatever the mask, and then the slots of
    free nodes with free neighbours are picked, so the form on the free
    nodes is the whole form with the fixed rows and columns cut out, bit for
    bit.  Exact zeros are not stored: neither a coefficient that vanishes on
    a region nor the cancellation between equal cells leaves stored entries,
    so the stored pattern does not depend on roundoff there.
    """
    nterms, ncomp, nc = elements.shape[:3]
    cells, pick, columns, indptr = _stencil_layout(
        grid, None if free is None else np.asarray(free, dtype=bool).tobytes(), ncomp)
    nodes, stencil = cells.shape[0], (3,) * grid.dim
    # Quadrature leaves roundoff where a Q1 element entry is exactly zero
    # (e.g. edge neighbours of the 3D Laplacian); keep those out of the matrix.
    tol = 16 * np.finfo(float).eps * np.abs(elements).reshape(nterms, -1).max(axis=1)
    elements = np.where(np.abs(elements) <= tol[:, None, None, None, None], 0.0, elements)
    # corner-major, (nterms, a, i, j) + (2,)*dim, b unravelled over the axes
    elements = elements.transpose(0, 2, 1, 3, 4).reshape(
        (nterms, nc, ncomp, ncomp) + (2,) * grid.dim)
    coefs = np.vstack([coefs, np.zeros((1, nterms))])  # the sentinel cell adds nothing
    W = np.zeros((nterms, nc, ncomp, ncomp) + stencil)
    for a, window in enumerate(_corner_windows(grid.dim)):
        W[(slice(None), a, Ellipsis) + window] = elements[:, a]
    total = W.sum(axis=1)
    total[np.abs(total) <= tol.reshape((nterms,) + (1,) * (total.ndim - 1))] = 0.0
    # rows (t, a) then the totals per t; columns (s, j) within each block i
    weights = np.concatenate([W.reshape(nterms * nc, ncomp, ncomp, -1),
                              total.reshape(nterms, ncomp, ncomp, -1)])
    weights = weights.transpose(1, 0, 3, 2).reshape(ncomp, len(weights), -1)
    M = np.take(coefs.T, cells, axis=1)  # (term, node, corner)
    c_ref = np.sort(M, axis=2)[:, :, nc // 2]
    M -= c_ref[:, :, None]
    M = np.concatenate([M.transpose(1, 0, 2).reshape(nodes, -1), c_ref.T], axis=1)
    data = np.empty((ncomp, pick.size, ncomp))
    for i in range(ncomp):
        np.take((M @ weights[i]).reshape(-1, ncomp), pick, axis=0, out=data[i])
    nfree = (indptr.size - 1) // ncomp
    indices = np.empty((pick.size, ncomp), dtype=np.int32)
    for j in range(ncomp):
        np.add(columns, j * nfree, out=indices[:, j])
    A = sp.csr_matrix((data.ravel(), np.tile(indices.ravel(), ncomp), indptr.copy()),
                      shape=(indptr.size - 1,) * 2)
    A.eliminate_zeros()
    return A


def assemble_scalar_stiffness(grid: Grid, coef_cells: np.ndarray, tensor: np.ndarray,
                              free: np.ndarray | None = None) -> sp.csr_matrix:
    """Stiffness of the form  sum_cells coef * grad u . tensor grad u, on the
    free nodes of the boolean node mask free if given (as assemble_vector_form)."""
    coefs = np.asarray(coef_cells, dtype=float)[:, None]
    return _assemble(grid, coefs, _diffusion_element(grid, tensor)[None], free)


def _vector_form_coefs(coef_sym_cells, coef_div_cells) -> np.ndarray:
    """Per-cell coefficients of assemble_vector_form's D:D and (when given)
    div*div terms, shape (ncells, nterms), as _assemble takes them."""
    terms = [coef_sym_cells] if coef_div_cells is None else [coef_sym_cells, coef_div_cells]
    return np.stack([np.asarray(c, dtype=float) for c in terms], axis=1)


@lru_cache(maxsize=_GRID_CACHE)
def _vector_form_elements(grid: Grid) -> np.ndarray:
    """The D:D and the div*div element, stacked in that order (read-only,
    shared by every caller)."""
    elements = np.stack([_sym_element(grid), _div_element(grid)])
    elements.flags.writeable = False
    return elements


def assemble_vector_form(
    grid: Grid,
    coef_sym_cells: np.ndarray,
    coef_div_cells: np.ndarray | None = None,
    free: np.ndarray | None = None,
) -> sp.csr_matrix:
    """Matrix of  sum coef_sym*D(u):D(v) + coef_div*(div u)(div v).

    Acts on component-major stacked vectors [u_0.ravel(), u_1.ravel(), ...].
    Off-diagonal strain components carry multiplicity two, so u^T A u equals
    the quadrature of coef_sym |D(u)|^2 + coef_div (div u)^2 exactly; the
    div*div term uses reduced (cell-center) quadrature.

    With a boolean node mask free (any shape with grid.n_nodes entries) the
    form acts on the free nodes only, component-major over them: the form on
    every node restricted to the dof mask np.tile(free.ravel(), grid.dim),
    equal in every stored entry, assembled on a pattern cached per grid and
    mask.
    """
    coefs = _vector_form_coefs(coef_sym_cells, coef_div_cells)
    return _assemble(grid, coefs, _vector_form_elements(grid)[:coefs.shape[1]], free)


def periodic_form_symbol(grid: Grid, coef_sym: float, coef_div: float) -> np.ndarray:
    """Fourier symbol of assemble_vector_form with the constant coefficients
    coef_sym and coef_div on every cell of a fully periodic grid, on the
    wavenumbers of np.fft.rfftn over the node axes: shape
    (n, ..., n, n // 2 + 1, dim, dim).

    The form maps the plane wave e^{2 pi i k.p/n} e_j to symbol[k][:, j] times
    the same wave, with symbol[k][i, j] = sum over corners a, b of the element
    entry K[i, a, j, b] e^{2 pi i k.(off_b - off_a)/n}.  The stencil is even,
    so the symbol is real; the cosine sum is its real part.  The k = 0 block
    holds the translations and is singular.
    """
    if not all(grid.periodic):
        raise ValueError("the Fourier symbol needs a fully periodic grid")
    dim, n = grid.dim, grid.n_per_axis
    ke = np.tensordot([coef_sym, coef_div], _vector_form_elements(grid), axes=1)
    offsets = np.array(list(itertools.product((0, 1), repeat=dim)))
    shift = offsets[None, :, :] - offsets[:, None, :]  # off_b - off_a, shape (a, b, dim)
    k = np.indices((n,) * (dim - 1) + (n // 2 + 1,))
    phase = np.cos((2 * np.pi / n) * np.tensordot(shift, k, axes=1))
    return np.einsum("iajb,ab...->...ij", ke, phase)


# -- multigrid hierarchy: nested Q1 spaces on halved grids ------------------

# coarse_levels halves the grid while a level has more free dofs than this, and
# VCycle factors a coarsest level this small and only smooths a larger one.
COARSE_DOFS = 300


def _coarsen(grid: Grid) -> Grid | None:
    """The box grid with every axis halved, coarse node i on fine node 2i:
    n -> (n+1)/2 nodes (n odd).  None when n is even, when that leaves fewer
    than 3 nodes per axis, or when any axis is periodic (the periodic cell
    problems use no multigrid)."""
    n = grid.n_per_axis
    if not any(grid.periodic) and n % 2 == 1 and n >= 5:
        return Grid(grid.dim, (n + 1) // 2, grid.periodic)
    return None


@dataclass(frozen=True, eq=False)
class CoarseLevel:
    """One level of a multigrid hierarchy below the grid it was built from.

    free is its boolean node mask (flat; a coarse node is free when its
    coincident fine node is); prolongation is the Q1 interpolation of every
    component from these free nodes to the free nodes of the level above,
    component-major on both sides, and restriction its transpose (CSR).
    """

    grid: Grid
    free: np.ndarray
    prolongation: sp.csr_matrix
    restriction: sp.csr_matrix


def _interpolation_1d(fine: int, coarse: int) -> sp.csr_matrix:
    """Linear interpolation along one axis: even fine node 2i is coarse node i,
    odd node 2i+1 the mean of coarse nodes i and i+1."""
    rows = np.arange(fine)
    odd = rows[rows % 2 == 1]
    return sp.csr_matrix(
        (np.concatenate([np.where(rows % 2 == 1, 0.5, 1.0), np.full(odd.size, 0.5)]),
         (np.concatenate([rows, odd]), np.concatenate([rows // 2, odd // 2 + 1]))),
        shape=(fine, coarse))


def coarse_levels(grid: Grid, free: np.ndarray) -> tuple:
    """The CoarseLevels below grid for the boolean node mask free of a vector
    form (grid.dim components per node): halve the box grid (_coarsen) while
    the current level has more than COARSE_DOFS free dofs.

    Built once per grid and mask and cached like the assembly pattern, with
    each level's restriction.  The last level has at most COARSE_DOFS free
    dofs unless its grid cannot be halved; the tuple is empty when the grid
    itself is small enough or cannot be halved (an even node count, or a
    periodic axis).
    """
    return _coarse_levels(grid, np.asarray(free, dtype=bool).tobytes())


@lru_cache(maxsize=_GRID_CACHE)
def _coarse_levels(grid: Grid, free_bytes: bytes) -> tuple:
    free = np.frombuffer(free_bytes, dtype=bool)
    levels = []
    fine = grid
    while (grid.dim * np.count_nonzero(free) > COARSE_DOFS
           and (coarse := _coarsen(fine)) is not None):
        interp = _interpolation_1d(fine.n_per_axis, coarse.n_per_axis)
        nodal = interp
        for _ in range(fine.dim - 1):
            nodal = sp.kron(nodal, interp)
        coincident = np.ravel_multi_index(
            tuple(2 * np.indices(coarse.shape).reshape(fine.dim, -1)), fine.shape)
        coarse_free = free[coincident]
        coarse_free.flags.writeable = False  # shared by every user of the cache
        P = sp.kron(sp.identity(grid.dim), nodal.tocsr()[free][:, coarse_free], format="csr")
        levels.append(CoarseLevel(coarse, coarse_free, P, P.T.tocsr()))
        fine, free = coarse, coarse_free
    return tuple(levels)


def coarse_vector_forms(grid: Grid, levels, coef_sym_cells: np.ndarray,
                        coef_div_cells: np.ndarray | None = None) -> list:
    """assemble_vector_form rediscretized on each of the CoarseLevels levels
    (coarse_levels), on the level's free nodes: each coarse cell takes the
    arithmetic mean of the coefficients of the 2^dim cells it covers on the
    level above, and the form is assembled on the coarse grid from these
    means by the same stencil product as every other form.

    With one D:D coefficient on every cell and no div*div term this is the
    Galerkin product P^T A P, since the Q1 spaces are nested and the full
    Gauss rule is exact; the one-point div*div rule and varying
    coefficients make the two differ.
    """
    coefs = _vector_form_coefs(coef_sym_cells, coef_div_cells)
    nterms = coefs.shape[1]
    forms = []
    for level in levels:
        means = coefs.reshape(sum(((m // 2, 2) for m in cell_counts(grid)), ()) + (nterms,))
        for k in range(grid.dim):  # a pair mean per axis: cells that agree keep their value
            means = means.mean(axis=k + 1)
        coefs, grid = means.reshape(-1, nterms), level.grid
        forms.append(_assemble(grid, coefs, _vector_form_elements(grid)[:nterms], level.free))
    return forms
