"""Conjugate gradients, the preconditioned eigensolver (LOBPCG) of the
smallest eigenpair, and the preconditioners both take: a multigrid V-cycle,
or the solve of a sparse factorization of an SPD matrix (spd_factor, the one
splu call of the package).  form_solver builds the solve of a vector form
on free nodes (the form, its dofs and one of the two preconditioners) for
the steady pore flow, the micro solver and the Poincare eigenproblem.  Two
vector forms are assembled and solved without it: the skeleton form of
homogenize.elasticity_from_mask (Jacobi-CG on the skeleton's nodes) and the
near-solid form A_near of homogenize._cell_velocities (the solid block that
preconditions the capacitance CG).  Also the FFT inverse of a periodic
constant-coefficient form."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .operators import (
    COARSE_DOFS,
    assemble_vector_form,
    coarse_levels,
    coarse_vector_forms,
    nested_dissection,
)

__all__ = ["CGResult", "cg_solve", "projected_guess", "VCycle", "PeriodicInverse",
           "spd_factor", "form_solver", "inverse_power_iteration"]


@dataclass
class CGResult:
    x: np.ndarray
    iterations: int
    residual: float
    converged: bool


def cg_solve(A, rhs: np.ndarray, tol: float = 1e-10, max_iter: int = 5000,
             x0: np.ndarray | None = None, precond_diag: np.ndarray | None = None,
             atol: float = 0.0, precond=None) -> CGResult:
    """Preconditioned conjugate gradients for a symmetric positive definite
    operator A: anything with @ (a dense array, a sparse matrix, a
    scipy LinearOperator).

    precond is a callable r -> M^-1 r with M symmetric positive definite,
    such as a VCycle, or the solve of an spd_factor of A (M = A up to
    roundoff, so CG stops after one or two corrections).  Without one the
    preconditioner is Jacobi: precond_diag, by default the diagonal of A
    (which A must then provide) with every non-positive entry replaced by 1
    (zero rows of a singular operator then stay finite).  Stops when
    ||rhs - A x|| <= max(tol * ||rhs||, atol); after max_iter steps, or when
    a search direction has p^T A p <= 0, the last iterate is returned with
    converged=False (no best iterate is kept).  An absolute floor
    matters for consistent singular systems whose rhs is roundoff-small: a
    purely relative target is then unreachable.
    """
    b_norm = float(np.linalg.norm(rhs))
    if b_norm <= atol:
        return CGResult(np.zeros_like(rhs), 0, 0.0, True)
    if precond is None:
        if precond_diag is None:
            diag = A.diagonal()
            precond_diag = np.where(diag > 0, diag, 1.0)
        inv_d = 1.0 / precond_diag

        def precond(r):
            return inv_d * r
    x = np.zeros_like(rhs) if x0 is None else x0.copy()
    r = rhs - A @ x
    z = precond(r)
    p = z.copy()
    rz = float(r @ z)
    it = 0
    res = float(np.linalg.norm(r))
    target = max(tol * b_norm, atol)
    while res > target and it < max_iter:
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            break  # loss of positivity, bail with current iterate
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = precond(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        res = float(np.linalg.norm(r))
        it += 1
    return CGResult(x, it, res / b_norm, res <= target)


# Relative eigenvalue cutoff of the Gram matrices of projected_guess and of
# inverse_power_iteration's Rayleigh-Ritz step.
PROJECTION_CUTOFF = 1e-12


def projected_guess(A, basis: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The x0 in span(basis) closest to the solution of A x = rhs in the
    A-norm (A symmetric positive definite): the Galerkin projection that
    starts CG from earlier solutions (Fischer, Comput. Methods Appl. Mech.
    Engrg. 163, 1998).

    basis is a C-ordered (n, k) array, so A @ basis is one sparse-times-dense
    product.  x0 = basis c with G c = basis^T rhs, G = basis^T A basis, solved
    through the eigenpairs of G with every eigenvalue at or below
    PROJECTION_CUTOFF times the largest dropped: near-parallel columns count
    once.  When no eigenvalue is positive (say, an all-zero basis) x0 is zero.
    """
    lam, Q = np.linalg.eigh(basis.T @ (A @ basis))
    keep = lam > max(PROJECTION_CUTOFF * lam[-1], 0.0)
    if not keep.any():
        return np.zeros_like(rhs)
    Q = Q[:, keep]
    return basis @ (Q @ ((Q.T @ (basis.T @ rhs)) / lam[keep]))


# Damping of the Jacobi smoother.
MG_OMEGA = 0.6


class VCycle:
    """One symmetric multigrid V(1,1)-cycle r -> B r, B an approximate inverse
    of operators[0], to pass to cg_solve or inverse_power_iteration as
    precond.

    operators[l] is the SPD matrix of level l (0 the one being solved, then
    ever coarser forms, e.g. operators.coarse_vector_forms) and levels[l] the
    operators.CoarseLevel of level l+1, whose prolongation maps its dofs to
    those of level l and whose restriction is the transpose.  Every level
    smooths with one damped Jacobi sweep (MG_OMEGA) before and one after its
    coarse correction.  The coarsest level is factored by spd_factor, in the
    order it comes in, when it has at most operators.COARSE_DOFS rows, the
    bound coarse_levels halves to; a larger coarsest level (its grid could
    not be halved) is only smoothed, so no large matrix is ever factored.
    B is symmetric, and positive definite whenever the damped sweep
    converges on every level.
    """

    def __init__(self, operators, levels):
        self._operators = list(operators)
        self._levels = list(levels)
        self._scaled_inv_diag = []
        for A in self._operators:
            diag = A.diagonal()
            self._scaled_inv_diag.append(MG_OMEGA / np.where(diag > 0, diag, 1.0))
        coarsest = self._operators[-1]
        self._coarse_solve = (spd_factor(coarsest).solve if coarsest.shape[0] <= COARSE_DOFS
                              else None)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self._cycle(0, r)

    def _cycle(self, level: int, r: np.ndarray) -> np.ndarray:
        last = len(self._operators) - 1
        if level == last and self._coarse_solve is not None:
            return self._coarse_solve(r)
        A, w = self._operators[level], self._scaled_inv_diag[level]
        x = w * r
        if level < last:
            coarse = self._levels[level]
            x += coarse.prolongation @ self._cycle(level + 1, coarse.restriction @ (r - A @ x))
        x += w * (r - A @ x)
        return x


class PeriodicInverse:
    """r -> A0^+ r: the pseudo-inverse of a constant-coefficient vector form A0
    on a fully periodic grid, on component-major vectors over every node (as
    in assemble_vector_form).

    symbol is A0's Fourier symbol (operators.periodic_form_symbol).  Each
    application is one rfftn/irfftn pair and a dim x dim product per
    wavenumber.  Each block of the symbol is inverted once, except the k = 0
    block: it holds the translations, and is dropped by its index because at
    odd n roundoff keeps it from being exactly zero.  So the result has zero
    mean in each component, and the map is symmetric positive semi-definite,
    positive on vectors whose components have zero mean.
    """

    def __init__(self, symbol: np.ndarray):
        dim = symbol.shape[-1]
        self._shape = (symbol.shape[0],) * dim  # grids are cubes of dim 2 or 3
        blocks = symbol.reshape(-1, dim, dim)
        inv = np.zeros_like(blocks)
        inv[1:] = np.linalg.inv(blocks[1:])
        self._inv = np.moveaxis(inv, 0, -1).reshape((dim, dim) + symbol.shape[:-2])

    def __call__(self, r: np.ndarray) -> np.ndarray:
        dim = len(self._shape)
        axes = tuple(range(1, dim + 1))
        R = np.fft.rfftn(r.reshape((dim,) + self._shape), axes=axes)
        return np.fft.irfftn((self._inv * R).sum(axis=1), s=self._shape, axes=axes).ravel()


# spd_factor's splu settings: no column ordering of splu's own, and diagonal
# pivots, so the rows are eliminated in the order the matrix comes in.  That
# order matters: on a component-major form it couples each node's components
# across the whole matrix, and the 2D n=65 Poincare box form then takes 24 s
# and 32M L+U entries, against 0.02 s and 0.8M when assemble_vector_form
# hands it over in nested-dissection order (MMD_AT_PLUS_A: 0.04 s and 1.0M).
SPD_SPLU_OPTIONS = dict(permc_spec="NATURAL", diag_pivot_thresh=0.0,
                        options=dict(SymmetricMode=True))


def spd_factor(A):
    """splu factorization of a symmetric positive definite A (a dense array
    or a sparse matrix) with SPD_SPLU_OPTIONS, to solve with its .solve; the
    one splu call of the package.  A is factored in the order it comes in,
    so a large form should come in factor order, as form_solver's "factor"
    assembles it; a multigrid coarsest level is small enough to factor as
    it is.

    A's CSR arrays are passed to splu as the CSC arrays of A^T = A, so a
    CSR form with sorted column indices is factored without a copy and is
    the only form alive while splu runs.  Any other input is converted
    first, so the caller's matrix is never modified.

    Raises RuntimeError when a zero diagonal entry forced a row swap, the one
    sign of a matrix that is not positive definite that costs nothing to
    read.  The pivots themselves are not read, since that makes the factor
    build and keep a copy of L and U: a negative pivot, or a singular form
    whose last pivot is roundoff, passes.  inverse_power_iteration, which may
    be handed an indefinite matrix, checks its Rayleigh and Ritz values
    instead.  The other callers factor forms that are positive definite by
    construction; the steady forms of disk, sphere and square-block cells
    (r0 from 0.05 to 0.45, in 2D and 3D) have no free node with a zero
    diagonal.
    """
    A = sp.csr_matrix(A)
    if not A.has_canonical_format:
        A = A.copy()  # splu sorts the indices of its input in place
        A.sum_duplicates()
    lu = spla.splu(sp.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape),
                   **SPD_SPLU_OPTIONS)
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise RuntimeError("matrix is not positive definite (a zero pivot forced a row swap)")
    return lu


def form_solver(grid, free: np.ndarray, coef_sym: np.ndarray,
                coef_div: np.ndarray | None = None, precond: str = "multigrid"):
    """(A, dofs, B): the assemble_vector_form form A with the per-cell
    coefficients coef_sym and coef_div on the free nodes of the boolean
    node mask free, dofs[i] the component-major dof (over every node,
    as in assemble_vector_form) of row i of A, and B a preconditioner of A to
    pass to cg_solve or inverse_power_iteration.

    precond picks B, and with it the row order of A:
    - "multigrid": the VCycle over operators.coarse_levels of the box grid,
      each coarse form from operators.coarse_vector_forms; A stays in
      component-major order.
    - "factor": the solve of spd_factor(A), A assembled in the order of
      operators.nested_dissection.
    """
    dofs = np.flatnonzero(np.tile(np.ravel(free), grid.dim))
    if precond == "multigrid":
        A = assemble_vector_form(grid, coef_sym, coef_div, free)
        levels = coarse_levels(grid, free)
        coarse = coarse_vector_forms(grid, levels, coef_sym, coef_div)
        return A, dofs, VCycle([A, *coarse], levels)
    if precond == "factor":
        order = nested_dissection(grid, free, grid.dim)
        A = assemble_vector_form(grid, coef_sym, coef_div, free, order)
        return A, dofs[order], spd_factor(A).solve
    raise ValueError(f"unknown preconditioner {precond!r}")


# Rayleigh-residual target and outer-step cap of inverse_power_iteration.
POWER_TOL = 1e-8
POWER_MAX_OUTER = 500


def _smallest_ritz_pair(S: np.ndarray, AS: np.ndarray, mass_diag: np.ndarray):
    """(theta, c): the smallest Ritz value of A x = lambda M x on span(S) and
    the coefficients of its M-unit Ritz vector S c, given AS = A S.

    The columns are scaled to unit M-norm, and the eigenpairs of their M-Gram
    matrix with an eigenvalue at or below PROJECTION_CUTOFF times the largest
    are dropped, as in projected_guess: a basis that loses rank (a zero
    column, or near-parallel ones) is solved on the span it still has.
    """
    G = S.T @ (mass_diag[:, None] * S)
    d = np.diag(G)
    scale = 1.0 / np.sqrt(np.where(d > 0, d, np.inf))
    g, Q = np.linalg.eigh(scale[:, None] * G * scale)
    keep = g > PROJECTION_CUTOFF * g[-1]
    T = scale[:, None] * (Q[:, keep] / np.sqrt(g[keep]))  # T^T G T = I
    H = T.T @ (S.T @ AS) @ T
    theta, Y = np.linalg.eigh(0.5 * (H + H.T))
    return float(theta[0]), T @ Y[:, 0]


def inverse_power_iteration(A, mass_diag: np.ndarray, precond, seed: int = 0):
    """Smallest eigenvalue of A x = lambda M x with A symmetric positive
    definite and diagonal mass M, by the locally optimal block preconditioned
    conjugate gradient method with one vector (LOBPCG: Knyazev, SIAM J. Sci.
    Comput. 23, 2001).

    precond is a callable r -> B r with B symmetric positive definite and
    close to the inverse of A: a VCycle (Bramble, Pasciak & Knyazev,
    Adv. Comput. Math. 6, 1996), or the solve of an spd_factor of A, whose
    zero-pivot check then runs before this function does.  From a random
    M-unit start vector x, each outer step is a Rayleigh-Ritz over
    span{x, B r, p} (_smallest_ritz_pair), r = A x - lambda M x and p
    the previous search direction: the new x is the smallest Ritz vector and
    p its part off the old x.  With B = A^-1 the span holds the inverse
    iteration's next vector, so a step does at least as well as one of it.

    Returns (lam, x, outer_iterations, rayleigh_residual), converged when the
    relative Rayleigh-quotient residual ||r|| / lambda drops below POWER_TOL.
    Raises RuntimeError when A is not positive definite (a Rayleigh
    quotient or Ritz value <= 0) or the outer loop reaches POWER_MAX_OUTER.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(mass_diag.size)
    x /= np.sqrt(x @ (mass_diag * x))
    Ax = A @ x
    lam = float(x @ Ax)
    if not lam > 0:
        raise RuntimeError(f"matrix is not positive definite (Rayleigh quotient {lam:.3g})")
    p = Ap = None
    r = Ax - lam * mass_diag * x
    for outer in range(1, POWER_MAX_OUTER + 1):
        w = precond(r)
        S = np.stack([x, w] if p is None else [x, w, p], axis=1)
        AS = np.stack([Ax, A @ w] if p is None else [Ax, A @ w, Ap], axis=1)
        lam, c = _smallest_ritz_pair(S, AS, mass_diag)
        if not lam > 0:
            raise RuntimeError(f"matrix is not positive definite (Ritz value {lam:.3g})")
        x, Ax = S @ c, AS @ c
        p, Ap = S[:, 1:] @ c[1:], AS[:, 1:] @ c[1:]
        r = Ax - lam * mass_diag * x
        resid = float(np.linalg.norm(r)) / lam
        if resid < POWER_TOL:
            return lam, x, outer, resid
    raise RuntimeError(f"inverse power iteration did not converge in {POWER_MAX_OUTER} "
                       f"outer steps (Rayleigh residual {resid:.3g})")
