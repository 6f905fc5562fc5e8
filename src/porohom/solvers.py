"""Conjugate gradients and the inverse power iteration built on it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CGResult", "cg_solve", "inverse_power_iteration"]


@dataclass
class CGResult:
    x: np.ndarray
    iterations: int
    residual: float
    converged: bool


def cg_solve(A, rhs: np.ndarray, tol: float = 1e-10, max_iter: int = 5000,
             x0: np.ndarray | None = None, precond_diag: np.ndarray | None = None,
             atol: float = 0.0) -> CGResult:
    """Jacobi-preconditioned conjugate gradients for an SPD matrix A (a
    dense array or a sparse matrix).

    The preconditioner is precond_diag, by default the diagonal of A with
    every non-positive entry replaced by 1 (zero rows of a singular operator
    then stay finite).  Stops when ||rhs - A x|| <= max(tol * ||rhs||, atol);
    on stagnation past max_iter the best iterate is returned with
    converged=False.  An absolute floor matters for consistent singular
    systems whose rhs is roundoff-small: a purely relative target is then
    unreachable.
    """
    b_norm = float(np.linalg.norm(rhs))
    if b_norm <= atol:
        return CGResult(np.zeros_like(rhs), 0, 0.0, True)
    if precond_diag is None:
        diag = A.diagonal()
        precond_diag = np.where(diag > 0, diag, 1.0)
    inv_d = 1.0 / precond_diag
    x = np.zeros_like(rhs) if x0 is None else x0.copy()
    r = rhs - A @ x
    z = inv_d * r
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
        z = inv_d * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        res = float(np.linalg.norm(r))
        it += 1
    return CGResult(x, it, res / b_norm, res <= target)


# Rayleigh-residual target and outer-step cap of inverse_power_iteration.
POWER_TOL = 1e-8
POWER_MAX_OUTER = 500


def inverse_power_iteration(A, mass_diag: np.ndarray, seed: int = 0):
    """Smallest eigenvalue of A x = lambda M x with diagonal mass M.

    Returns (lam, x, outer_iterations, rayleigh_residual).  Each outer step
    solves A y = M x by Jacobi-CG and normalizes in the M-inner product; converged
    when the relative Rayleigh-quotient residual drops below POWER_TOL.
    Raises RuntimeError when an inner solve does not converge or the outer
    loop reaches POWER_MAX_OUTER.
    """
    n = mass_diag.size
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x /= np.sqrt(x @ (mass_diag * x))
    lam = float(x @ (A @ x))
    y = None
    for outer in range(1, POWER_MAX_OUTER + 1):
        # inner solves at cg_solve's default tolerance and iteration cap
        sol = cg_solve(A, mass_diag * x, x0=y)
        if not sol.converged:
            raise RuntimeError(
                f"inverse power iteration: inner CG solve of outer step {outer} did not "
                f"converge (relative residual {sol.residual:.3g})")
        y = sol.x
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
