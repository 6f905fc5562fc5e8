"""Sparse assembly of the discrete quadratic forms behind every solve.

The weak forms (viscous/elastic D:D terms, the compressibility div*div
penalty and scalar or anisotropic diffusion) use trilinear/bilinear (Q1)
elements on the grid cells with tensor-product Gauss quadrature; the div*div
term uses single-point (reduced) quadrature to avoid volumetric locking at
large compressibility moduli.  Coefficients are piecewise constant per cell
(phase_cells) and the grid is uniform, so every form is a sum of
reference element matrices, each scaled by one coefficient per cell.

All forms go through one vectorized assembler (after Cuvelier, Japhet &
Scarella, BIT 2016).  A node-to-node CSR pattern is built once per grid
together with the slot of every (cell, corner a, corner b) pair in it; each
component block of a form is then one np.bincount of the scaled element
entries over those slots, written into the component-major global CSR.
The results are symmetric positive semi-definite compact-stencil matrices
whose 1D reductions are the classical tridiagonal forms.
"""

from __future__ import annotations

import itertools
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
    "lumped_weights",
    "restrict",
]


# Bound of the per-grid index caches; an eps sweep touches about this many
# grids, and a larger bound only keeps the maps of dead grids alive.
_GRID_CACHE = 4


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
    cell center, so the load is vol * coef * (E grad_center) per cell."""
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
def _node_pattern(grid: Grid):
    """(indptr, indices, slots): CSR pattern of the node-to-node coupling and
    the int32 slot of each (cell, corner a, corner b) in it, shape (ncells, 4^dim)."""
    corners = cell_corner_indices(grid)
    ncells, nc = corners.shape
    n = grid.n_nodes
    keys = corners[:, :, None].astype(np.int64) * n + corners[:, None, :]
    uniq, slots = np.unique(keys.ravel(), return_inverse=True)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(uniq // n, minlength=n), out=indptr[1:])
    indices = (uniq % n).astype(np.int32)
    return indptr, indices, slots.astype(np.int32).reshape(ncells, nc * nc)


def _assemble(grid: Grid, terms, ncomp: int) -> sp.csr_matrix:
    """sum_t coef_t[cell] * element_t, scattered into the component-major CSR.

    terms: [(coef_cells, element), ...] with element of shape
    (ncomp, 2^dim, ncomp, 2^dim).  Entries that sum to exactly zero are
    dropped, so a coefficient that vanishes on a region leaves no stored
    zeros there.
    """
    indptr, indices, slots = _node_pattern(grid)
    n, nnz = grid.n_nodes, indices.size
    coefs = np.stack([np.asarray(c, dtype=float) for c, _ in terms], axis=1)
    # Quadrature leaves roundoff where a Q1 element entry is exactly zero
    # (e.g. edge neighbours of the 3D Laplacian); keep those out of the matrix.
    elements = np.stack([
        np.where(np.abs(e) <= 16 * np.finfo(float).eps * np.abs(e).max(), 0.0, e)
        for _, e in terms])
    # Global row i*n + p holds blocks (i, 0), ..., (i, ncomp-1) of node
    # row p one after another, each with that node row's column pattern.
    row_len = np.diff(indptr)
    node_row = np.repeat(np.arange(n), row_len)
    within = (ncomp - 1) * indptr[node_row] + np.arange(nnz)
    stride = row_len[node_row]
    data = np.empty(ncomp * ncomp * nnz)
    cols = np.empty(ncomp * ncomp * nnz, dtype=np.int32)
    for i in range(ncomp):
        for j in range(ncomp):
            vals = coefs @ elements[:, i, :, j, :].reshape(len(terms), -1)
            pos = i * ncomp * nnz + within + j * stride
            data[pos] = np.bincount(slots.ravel(), weights=vals.ravel(), minlength=nnz)
            cols[pos] = indices + j * n
    g_indptr = np.concatenate([
        (np.arange(ncomp)[:, None] * (ncomp * nnz) + ncomp * indptr[None, :-1]).ravel(),
        [ncomp * ncomp * nnz]])
    A = sp.csr_matrix((data, cols, g_indptr), shape=(ncomp * n, ncomp * n))
    A.eliminate_zeros()
    return A


def assemble_scalar_stiffness(grid: Grid, coef_cells: np.ndarray,
                              tensor: np.ndarray) -> sp.csr_matrix:
    """Stiffness of the form  sum_cells coef * grad u . tensor grad u."""
    return _assemble(grid, [(coef_cells, _diffusion_element(grid, tensor))], 1)


def assemble_vector_form(
    grid: Grid,
    coef_sym_cells: np.ndarray,
    coef_div_cells: np.ndarray | None = None,
) -> sp.csr_matrix:
    """Matrix of  sum coef_sym*D(u):D(v) + coef_div*(div u)(div v).

    Acts on component-major stacked vectors [u_0.ravel(), u_1.ravel(), ...].
    Off-diagonal strain components carry multiplicity two, so u^T A u equals
    the quadrature of coef_sym |D(u)|^2 + coef_div (div u)^2 exactly; the
    div*div term uses reduced (cell-center) quadrature.
    """
    terms = [(coef_sym_cells, _sym_element(grid))]
    if coef_div_cells is not None:
        terms.append((coef_div_cells, _div_element(grid)))
    return _assemble(grid, terms, grid.dim)


def lumped_weights(grid: Grid, ncomp: int = 1) -> np.ndarray:
    """Diagonal (lumped) quadrature mass, tiled over components."""
    w = grid.node_weights().ravel()
    return np.tile(w, ncomp)


def restrict(A: sp.spmatrix, active: np.ndarray) -> sp.csr_matrix:
    return A.tocsr()[active][:, active]
