"""Upwind advection of the phase indicator, and the viscosity it defines.

First-order monotone upwinding restricted to the pore nodes: differences are
taken from the flow direction, solid neighbors contribute a zero-gradient
ghost value, inflow portions of S1/S2 carry Dirichlet data and the remaining
open-boundary nodes use a zero normal derivative.  The scheme satisfies the
discrete maximum principle under the CFL condition sum_k |v_k| tau <= dx.

Only the fluid-1 fraction chi is advected.  The viscosity is a function of
it, mu = mu2 + (mu1 - mu2) chi_h (the regularized model): on the pore nodes
chi_h = mollify(chi 1_f) / mollify(1_f), chi mollified over the pore only,
so neither the skeleton nor the zero extension beyond the box bleeds in;
elsewhere, and with h_mollify = 0, chi_h = chi.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .geometry import PhaseMask, boundary_tags
from .grid import Grid, ScalarField, VectorField
from .mollifier import mollify

__all__ = ["cfl_margin", "advect_upwind", "update_viscosity", "advect_phase",
           "interface_summary"]


def _shifted(arr: np.ndarray, axis: int, shift: int, periodic: bool) -> np.ndarray:
    """Neighbor values along an axis; non-periodic edges clamp (zero-gradient ghost)."""
    out = np.roll(arr, shift, axis=axis)
    if not periodic:
        idx = [slice(None)] * arr.ndim
        idx[axis] = 0 if shift > 0 else -1
        src = [slice(None)] * arr.ndim
        src[axis] = 0 if shift > 0 else -1
        out[tuple(idx)] = arr[tuple(src)]
    return out


def cfl_margin(v: VectorField, tau: float) -> float:
    """tau * max over the nodes of sum_k |v_k| / dx_k: the upwind step is
    stable while this is at most 1."""
    grid = v.grid
    speed = sum(np.abs(v.values[k]) / grid.spacing(k) for k in range(grid.dim))
    return float(speed.max()) * tau


def _cfl_check(v: VectorField, tau: float):
    margin = cfl_margin(v, tau)
    if margin > 1.0 + 1e-12:
        raise ValueError(
            f"CFL violation: tau={tau} exceeds the stable limit {tau / margin:.6g}")


def advect_upwind(q: ScalarField, v: VectorField, mask: PhaseMask, tau: float,
                  inflow: dict | None = None) -> ScalarField:
    """One explicit upwind step of dq/dt = -(grad q . v) on the pore nodes."""
    grid = q.grid
    _cfl_check(v, tau)
    fluid = mask.fluid
    qv = q.values
    incr = np.zeros(grid.shape)
    for k in range(grid.dim):
        per = grid.periodic[k]
        qm = _shifted(qv, k, +1, per)
        qp = _shifted(qv, k, -1, per)
        fm = _shifted(fluid, k, +1, per)
        fp = _shifted(fluid, k, -1, per)
        qm = np.where(fm, qm, qv)  # solid neighbor: zero-gradient ghost
        qp = np.where(fp, qp, qv)
        vk = v.values[k]
        vpos = np.maximum(vk, 0.0)
        vneg = np.minimum(vk, 0.0)
        incr += vpos * (qv - qm) / grid.spacing(k) + vneg * (qp - qv) / grid.spacing(k)
    out = np.where(fluid, qv - tau * incr, qv)
    if inflow:
        tags = boundary_tags(grid)
        if "S1" in inflow:  # inward means v.n < 0 on x1 = +1/2
            sel = tags["S1"] & fluid & (v.values[0] < 0)
            out[sel] = inflow["S1"]
        if "S2" in inflow:  # inward means v.n > 0 on x1 = -1/2
            sel = tags["S2"] & fluid & (v.values[0] > 0)
            out[sel] = inflow["S2"]
    return ScalarField(grid, out)


@lru_cache(maxsize=4)
def _mollified_pore(grid: Grid, pore_bytes: bytes, h: float) -> np.ndarray:
    """mollify(1_f, h) of the pore indicator held in pore_bytes (float64 over
    the nodes), read-only.  Cached per grid, pore mask and radius like the
    assembly pattern: the pore never changes, so a run mollifies it once."""
    pore = np.frombuffer(pore_bytes, dtype=float).reshape(grid.shape)
    den = mollify(ScalarField(grid, pore), h).values
    den.flags.writeable = False
    return den


def update_viscosity(chi: ScalarField, mask: PhaseMask, params) -> ScalarField:
    """mu = mu2 + (mu1 - mu2) chi_h of the fluid-1 fraction chi, with chi_h in
    [0, 1] (module docstring).  With mu1 == mu2 nothing is mollified; the
    mollified pore indicator is computed once per grid, pore mask and
    h_mollify."""
    grid, h = mask.grid, params.h_mollify
    chi_h = chi.values
    if h > 0.0 and params.mu1 != params.mu2:
        num = mollify(ScalarField(grid, chi.values * mask.chi_eps), h).values
        den = _mollified_pore(grid, mask.chi_eps.tobytes(), h)
        chi_h = np.clip(np.divide(num, den, out=chi.values.copy(), where=mask.fluid), 0.0, 1.0)
    return ScalarField(grid, params.mu2 + (params.mu1 - params.mu2) * chi_h)


def advect_phase(chi: ScalarField, v: VectorField, mask: PhaseMask, tau: float) -> ScalarField:
    """Advect the fluid-1 fraction chi; the free boundary is its 1/2 level set."""
    adv = advect_upwind(chi, v, mask, tau, inflow={"S1": 1.0, "S2": 0.0})
    return ScalarField(mask.grid, np.clip(adv.values, 0.0, 1.0))


def _crossing(x: np.ndarray, prof: np.ndarray, level: float):
    sign = prof - level
    for i in range(len(prof) - 1):
        if sign[i] == 0.0:
            return float(x[i])
        if sign[i] * sign[i + 1] < 0:
            t = sign[i] / (sign[i] - sign[i + 1])
            return float(x[i] + t * (x[i + 1] - x[i]))
    return float("nan")


def interface_summary(chi: ScalarField, mask: PhaseMask):
    """Interface position and width from the pore-averaged profile of chi
    along x1: mean_x1 is the profile's first 1/2-crossing, going from S2
    (x1 = -1/2) towards S1, and width the distance between its first 0.05-
    and 0.95-crossings (nan where a level is not crossed)."""
    grid = chi.grid
    axes = tuple(range(1, grid.dim))
    weight = mask.chi_eps
    num = np.sum(chi.values * weight, axis=axes)
    den = np.sum(weight, axis=axes)
    prof = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    x1 = grid.axis_coords(0)
    mid = _crossing(x1, prof, 0.5)
    lo = _crossing(x1, prof, 0.05)
    hi = _crossing(x1, prof, 0.95)
    width = abs(hi - lo) if np.isfinite(lo) and np.isfinite(hi) else float("nan")
    return {"mean_x1": mid, "width": width}
