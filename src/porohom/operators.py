"""Sparse assembly of the discrete quadratic forms behind every solve.

The weak forms (viscous/elastic D:D terms, the compressibility div*div
penalty and scalar or anisotropic diffusion) use trilinear/bilinear (Q1)
elements on the grid cells with tensor-product Gauss quadrature; the div*div
term uses single-point (reduced) quadrature to avoid volumetric locking at
large compressibility moduli.  Coefficients are piecewise constant per cell
(phase_cells) and the grid is uniform, so every form is a sum of
reference element matrices, each scaled by one coefficient per cell.

All forms go through one vectorized assembler (after Cuvelier, Japhet &
Scarella, BIT 2016).  A node-to-node CSR pattern among the free nodes of a
boolean node mask (every node by default) is built once per grid and mask,
together with the slot of every (cell, corner a, corner b) pair in it; a
pair that touches a fixed node goes to one sink slot past the end.  Each
component block of a form is then one np.bincount of the scaled element
entries over those slots, written into the component-major global CSR.
The results are symmetric positive semi-definite compact-stencil matrices
whose 1D reductions are the classical tridiagonal forms.

The multigrid hierarchy of MicroSolver's step solve lives here too:
coarse_levels halves a box grid and builds the Q1 interpolation between the
free nodes of consecutive levels and its transpose, and coarse_vector_forms
assembles each coarse form with the same assembler, from the fine cell
coefficients.
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


# Bound of the per-grid index caches.  The node pattern is kept per grid and
# free-node mask: an eps sweep touches ten (the cell and the Darcy grid, then
# three micro grids, each whole and on its free nodes), a multigrid hierarchy
# two to four, and at a bound of 8 a repeated sweep evicts its own patterns.
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
def _node_pattern(grid: Grid, free_bytes: bytes | None):
    """(indptr, indices, slots): CSR pattern of the node-to-node coupling among
    the free nodes, renumbered in order, and the int32 slot of each (cell,
    corner a, corner b) in it, shape (ncells, 4^dim).

    free_bytes holds a boolean node mask (None: every node).  A pair that
    touches a fixed node goes to the sink slot nnz, one past the last entry.
    The pattern on the free nodes is the whole one with the fixed rows and
    columns taken out, so every entry keeps its place in the summation."""
    if free_bytes is not None:
        indptr, indices, slots = _node_pattern(grid, None)
        free = np.frombuffer(free_bytes, dtype=bool)
        keep = np.repeat(free, np.diff(indptr)) & free[indices]
        kept = np.concatenate([[0], np.cumsum(keep)])  # kept entries before each entry
        where = np.where(keep, kept[:-1], kept[-1]).astype(np.int32)
        return (np.concatenate([[0], kept[indptr[1:]][free]]),
                (np.cumsum(free) - 1)[indices[keep]].astype(np.int32),
                where[slots])
    corners = cell_corner_indices(grid)
    ncells, nc = corners.shape
    n = grid.n_nodes
    keys = corners[:, :, None].astype(np.int64) * n + corners[:, None, :]
    uniq, slots = np.unique(keys.ravel(), return_inverse=True)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(uniq // n, minlength=n), out=indptr[1:])
    indices = (uniq % n).astype(np.int32)
    return indptr, indices, slots.astype(np.int32).reshape(ncells, nc * nc)


def _form_layout(node_indptr: np.ndarray, ncomp: int):
    """(indptr, place) of the component-major CSR of an ncomp-component form on
    the node pattern with row pointer node_indptr (_node_pattern), zeros kept.

    Global row i*n + p holds blocks (i, 0), ..., (i, ncomp-1) of node row p
    one after another, each with that node row's column pattern; place(i, j)
    gives the positions of block (i, j)'s entries, in node-pattern order."""
    indptr = node_indptr
    n, nnz = indptr.size - 1, indptr[-1]
    row_len = np.diff(indptr)
    node_row = np.repeat(np.arange(n), row_len)
    within = (ncomp - 1) * indptr[node_row] + np.arange(nnz)
    stride = row_len[node_row]
    g_indptr = np.concatenate([
        (np.arange(ncomp)[:, None] * (ncomp * nnz) + ncomp * indptr[None, :-1]).ravel(),
        [ncomp * ncomp * nnz]])
    return g_indptr, lambda i, j: i * ncomp * nnz + within + j * stride


def _form_indices(node_indices: np.ndarray, n: int, ncomp: int, place) -> np.ndarray:
    """Column indices of the CSR of _form_layout (place) on n nodes."""
    indices = np.empty(ncomp * ncomp * node_indices.size, dtype=np.int32)
    for i in range(ncomp):
        for j in range(ncomp):
            indices[place(i, j)] = node_indices + j * n
    return indices


def _assemble(grid: Grid, coefs: np.ndarray, elements: np.ndarray,
              free: np.ndarray | None = None) -> sp.csr_matrix:
    """sum_t coefs[cell, t] * elements[t], scattered into the component-major
    CSR of _form_layout on the free nodes of the boolean node mask free
    (default: every node).

    coefs: shape (ncells, nterms); elements: shape (nterms, ncomp, 2^dim,
    ncomp, 2^dim).  Entries that sum to exactly zero are dropped, so a
    coefficient that vanishes on a region leaves no stored zeros there.
    """
    node_indptr, node_indices, slots = _node_pattern(
        grid, None if free is None else np.asarray(free, dtype=bool).tobytes())
    nterms, ncomp = elements.shape[:2]
    nnz = node_indices.size
    # Quadrature leaves roundoff where a Q1 element entry is exactly zero
    # (e.g. edge neighbours of the 3D Laplacian); keep those out of the matrix.
    peak = np.abs(elements).reshape(nterms, -1).max(axis=1)
    elements = np.where(
        np.abs(elements) <= 16 * np.finfo(float).eps * peak[:, None, None, None, None],
        0.0, elements)
    indptr, place = _form_layout(node_indptr, ncomp)
    data = np.empty(indptr[-1])
    for i in range(ncomp):
        for j in range(ncomp):
            vals = coefs @ elements[:, i, :, j, :].reshape(nterms, -1)
            data[place(i, j)] = np.bincount(slots.ravel(), weights=vals.ravel(),
                                            minlength=nnz + 1)[:nnz]
    indices = _form_indices(node_indices, node_indptr.size - 1, ncomp, place)
    A = sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1,) * 2)
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


def _vector_form_elements(grid: Grid) -> np.ndarray:
    """The D:D and the div*div element, stacked in that order."""
    return np.stack([_sym_element(grid), _div_element(grid)])


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


@lru_cache(maxsize=_GRID_CACHE)
def _child_elements(grid: Grid, depth: int):
    """(cells, children) for the grid halved depth times.  cells[C, o] is the
    fine cell at offset o (in [0, 2^depth)^dim) inside coarse cell C;
    children[o, t] is the element Q_o^T K_t Q_o of the D:D (t = 0) and the
    div*div (t = 1) element K_t of the fine grid, with Q_o the Q1
    interpolation from the coarse cell's corners to the corners of the fine
    cell at offset o (corners ordered as in cell_corner_indices)."""
    dim, k = grid.dim, 2**depth
    coarse_cells = np.indices(tuple(c // k for c in cell_counts(grid))).reshape(dim, 1, -1)
    offsets = np.array(list(itertools.product(range(k), repeat=dim))).T[:, :, None]
    cells = np.ravel_multi_index(tuple(k * coarse_cells + offsets), cell_counts(grid)).T
    corners = np.array(list(itertools.product((0, 1), repeat=dim)))
    # local coordinate of every fine corner in its coarse cell, per axis
    x = (offsets[:, :, 0].T[:, None, :] + corners[None, :, :]) / k
    interp = np.where(corners[None, None, :, :] == 1, x[:, :, None, :],
                      1.0 - x[:, :, None, :]).prod(axis=-1)
    return cells, np.einsum("oab,tiajc,ocd->otibjd", interp, _vector_form_elements(grid), interp,
                            optimize=True)


def coarse_vector_forms(grid: Grid, levels, coef_sym_cells: np.ndarray,
                        coef_div_cells: np.ndarray | None = None) -> list:
    """assemble_vector_form(grid, coef_sym_cells, coef_div_cells) on each of the
    CoarseLevels levels (coarse_levels), restricted to the level's free dofs.

    Assembled by _assemble on the coarse grid, not multiplied out: a coarse
    cell carries one child element Q_o^T K Q_o per fine cell o that it covers,
    the fine element K seen through Q1 interpolation Q_o from the coarse
    corners, scaled by that fine cell's coefficient.  The Q1 spaces are
    nested, so this is the Galerkin operator P^T A P of the whole grid; on
    the free dofs it equals P_red^T A_red P_red when every fixed node lies on
    a fixed face.  Fixed interior nodes (pin_solid) receive interpolated
    values in P but not in P_red, and there the two differ.
    """
    coefs = _vector_form_coefs(coef_sym_cells, coef_div_cells)
    nterms = coefs.shape[1]
    forms = []
    for depth, level in enumerate(levels, start=1):
        cells, children = _child_elements(grid, depth)
        forms.append(_assemble(level.grid, coefs[cells].reshape(len(cells), -1),
                               children[:, :nterms].reshape((-1,) + children.shape[2:]),
                               level.free))
    return forms
