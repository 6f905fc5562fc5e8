"""Conjugate gradients and its multigrid preconditioner, the FFT inverse of
a periodic constant-coefficient form, the sparse factorization of an SPD
matrix, and the inverse power iteration built on it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .operators import COARSE_DOFS

__all__ = ["CGResult", "cg_solve", "VCycle", "PeriodicInverse", "SPD_SPLU_OPTIONS",
           "spd_factor", "inverse_power_iteration"]


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
    such as a VCycle.  Without one the preconditioner is Jacobi: precond_diag,
    by default the diagonal of A (which A must then provide) with every
    non-positive entry replaced by 1 (zero rows of a singular operator then
    stay finite).  Stops when
    ||rhs - A x|| <= max(tol * ||rhs||, atol); on stagnation past max_iter
    the best iterate is returned with converged=False.  An absolute floor
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


# Damping of the Jacobi smoother.
MG_OMEGA = 0.6


class VCycle:
    """One symmetric multigrid V(1,1)-cycle r -> B r, B an approximate inverse
    of operators[0], to pass to cg_solve as precond.

    operators[l] is the SPD matrix of level l (0 the one being solved, then
    ever coarser forms, e.g. operators.coarse_vector_forms) and levels[l] the
    operators.CoarseLevel of level l+1, whose prolongation maps its dofs to
    those of level l and whose restriction is the transpose.  Every level
    smooths with one damped Jacobi sweep (MG_OMEGA) before and one after its
    coarse correction.  The coarsest level is factored by splu when it has
    at most operators.COARSE_DOFS rows, the bound coarse_levels halves to; a
    larger coarsest level (its grid could not be halved) is only smoothed,
    so no large matrix is ever factored.  B is symmetric, and positive
    definite whenever the damped sweep converges on every level.
    """

    def __init__(self, operators, levels):
        self._operators = list(operators)
        self._levels = list(levels)
        self._scaled_inv_diag = []
        for A in self._operators:
            diag = A.diagonal()
            self._scaled_inv_diag.append(MG_OMEGA / np.where(diag > 0, diag, 1.0))
        coarsest = self._operators[-1]
        self._lu = spla.splu(coarsest.tocsc()) if coarsest.shape[0] <= COARSE_DOFS else None

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self._cycle(0, r)

    def _cycle(self, level: int, r: np.ndarray) -> np.ndarray:
        last = len(self._operators) - 1
        if level == last and self._lu is not None:
            return self._lu.solve(r)
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


# splu settings for a symmetric positive definite matrix: a symmetric
# fill-reducing ordering and diagonal pivots about halve the L+U fill of
# splu's COLAMD default on the SPD forms here.
SPD_SPLU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                        options=dict(SymmetricMode=True))


def spd_factor(A):
    """splu factorization of A (a dense array or a sparse matrix) with
    SPD_SPLU_OPTIONS, to solve with its .solve.

    Raises RuntimeError when A is not positive definite: a pivot <= 0, or a
    zero diagonal entry that forced a row swap.  Reading the pivots makes the
    factorization build and keep a copy of L and U, which doubles its memory.
    """
    lu = spla.splu(sp.csc_matrix(A), **SPD_SPLU_OPTIONS)
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise RuntimeError("matrix is not positive definite (a zero pivot forced a row swap)")
    pivots = lu.U.diagonal()
    if not np.all(pivots > 0):
        raise RuntimeError(f"matrix is not positive definite (smallest pivot {pivots.min():.3g})")
    return lu


# Rayleigh-residual target and outer-step cap of inverse_power_iteration.
POWER_TOL = 1e-8
POWER_MAX_OUTER = 500


def inverse_power_iteration(A, mass_diag: np.ndarray, seed: int = 0):
    """Smallest eigenvalue of A x = lambda M x with A symmetric positive
    definite and diagonal mass M.

    Returns (lam, x, outer_iterations, rayleigh_residual).  A is factored once
    by spd_factor; each outer step back-solves A y = M x and normalizes in the
    M-inner product; converged when the relative Rayleigh-quotient residual
    drops below POWER_TOL.  Raises RuntimeError when A is not positive
    definite or the outer loop reaches POWER_MAX_OUTER.
    """
    lu = spd_factor(A)
    n = mass_diag.size
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x /= np.sqrt(x @ (mass_diag * x))
    for outer in range(1, POWER_MAX_OUTER + 1):
        y = lu.solve(mass_diag * x)
        nrm = np.sqrt(y @ (mass_diag * y))
        if nrm == 0.0:
            raise RuntimeError("inverse power iteration collapsed to the zero vector")
        x = y / nrm
        Ax = A @ x
        lam = float(x @ Ax)
        resid = float(np.linalg.norm(Ax - lam * mass_diag * x)) / max(abs(lam), 1e-300)
        if resid < POWER_TOL:
            return lam, x, outer, resid
    raise RuntimeError(f"inverse power iteration did not converge in {POWER_MAX_OUTER} "
                       f"outer steps (Rayleigh residual {resid:.3g})")
