from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porohom.geometry import (
    UnitCellPattern,
    boundary_tags,
    build_phase_mask,
    init_fluid_partition,
)
from porohom.grid import Grid, ScalarField, VectorField
from porohom.microsim import MaterialParams
from porohom.mollifier import mollify
from porohom.rng import XorShift64Star
from porohom import transport
from porohom.transport import advect_upwind, advect_phase, interface_summary, update_viscosity


def _uniform_velocity(grid, v1, v2=0.0):
    vals = np.stack([np.full(grid.shape, v1), np.full(grid.shape, v2)])
    return VectorField(grid, vals)


def test_zero_velocity_is_identity():
    g = Grid(2, 17)
    mask = build_phase_mask(UnitCellPattern("disk", 0.25), 1.0, g)
    q = ScalarField(g, XorShift64Star(0).array(g.shape))
    out = advect_upwind(q, VectorField.zeros(g), mask, 0.1)
    assert np.array_equal(out.values, q.values)


def test_cfl_violation_rejected():
    g = Grid(2, 17)
    mask = build_phase_mask(UnitCellPattern("none", 0.0), 1.0, g)
    q = ScalarField(g, np.zeros(g.shape))
    with pytest.raises(ValueError, match="CFL"):
        advect_upwind(q, _uniform_velocity(g, 100.0), mask, 0.1)


def test_periodic_translation_oracle_at_unit_cfl():
    g = Grid(2, 16, periodic=(True, True))
    mask = build_phase_mask(UnitCellPattern("none", 0.0), 1.0, g)
    q0 = XorShift64Star(7).array(g.shape)
    q = ScalarField(g, q0.copy())
    tau = g.spacing(0)  # CFL exactly one: upwind becomes an exact shift
    for steps in range(1, 4):
        q = advect_upwind(q, _uniform_velocity(g, 1.0), mask, tau)
    assert np.abs(q.values - np.roll(q0, 3, axis=0)).max() < 1e-12


def test_translation_smearing_envelope_below_unit_cfl():
    # at CFL < 1 the profile still moves at speed v with bounded overshoot
    g = Grid(2, 64, periodic=(True, True))
    mask = build_phase_mask(UnitCellPattern("none", 0.0), 1.0, g)
    x1 = g.coords()[0]
    q = ScalarField(g, (x1 < 0.0).astype(float))
    tau = 0.5 * g.spacing(0)
    for _ in range(32):  # total shift: 16 nodes
        q = advect_upwind(q, _uniform_velocity(g, 1.0), mask, tau)
    exact = np.roll((x1 < 0.0).astype(float), 16, axis=0)
    assert q.values.min() >= -1e-12 and q.values.max() <= 1.0 + 1e-12
    # the smeared front still matches the exact translate away from the jumps
    sharp = np.abs(np.roll(exact, 1, 0) - np.roll(exact, -1, 0)) == 0
    band = ~sharp
    for k in range(6):
        band |= np.roll(band, 1, 0) | np.roll(band, -1, 0)
    assert np.abs(q.values[~band] - exact[~band]).max() < 0.02


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_max_principle_random_fields(seed):
    g = Grid(2, 17)
    mask = init_fluid_partition(build_phase_mask(UnitCellPattern("disk", 0.25), 1.0, g), 0.0)
    rng = XorShift64Star(seed)
    q = ScalarField(g, np.clip(rng.array(g.shape, 0.0, 1.0), 0.0, 1.0))
    v = VectorField(g, rng.array((2,) + g.shape))
    speed = np.abs(v.values[0]).max() / g.spacing(0) + np.abs(v.values[1]).max() / g.spacing(1)
    tau = 0.9 / max(speed, 1e-12)
    out = advect_upwind(q, v, mask, tau, inflow={"S1": 1.0, "S2": 0.0})
    assert out.values.min() >= -1e-12
    assert out.values.max() <= 1.0 + 1e-12


def test_mass_balance_against_boundary_flux():
    # uniform velocity in an open channel: the advective and conservative
    # forms coincide, so the interior mass change equals the boundary flux
    g = Grid(2, 33)
    mask = build_phase_mask(UnitCellPattern("none", 0.0), 1.0, g)
    rng = XorShift64Star(21)
    q = ScalarField(g, rng.array(g.shape, 0.0, 1.0))
    v1 = 0.8
    tau = 0.5 * g.spacing(0) / v1
    out = advect_upwind(q, _uniform_velocity(g, v1), mask, tau, inflow={"S2": 0.25})
    dx = g.spacing(0)
    # per x2-row balance over the non-inflow nodes i >= 1
    lhs = (out.values[1:, :] - q.values[1:, :]).sum(axis=0) * dx
    rhs = tau * v1 * (q.values[0, :] - q.values[-1, :])
    assert np.abs(lhs - rhs).max() < 1e-10
    # the inflow face took the Dirichlet value (corners belong to S0)
    assert np.all(out.values[0, 1:-1] == 0.25)


def test_viscosity_is_the_pore_mollified_phase():
    g = Grid(2, 65)
    mask = init_fluid_partition(build_phase_mask(UnitCellPattern("disk", 0.25), 1.0, g), 0.0)
    par = MaterialParams(mu1=1.0, mu2=4.0, tau=0.004, h_mollify=0.08)
    chi = ScalarField(g, mask.chi.copy())
    mu = update_viscosity(chi, mask, par).values
    fluid = mask.fluid
    # chi mollified over the pore only, from two direct mollify calls
    num = mollify(ScalarField(g, mask.chi * mask.chi_eps), par.h_mollify).values[fluid]
    den = mollify(ScalarField(g, mask.chi_eps), par.h_mollify).values[fluid]
    chi_h = np.clip(num / den, 0.0, 1.0)
    assert np.abs(mu[fluid] - (4.0 - 3.0 * chi_h)).max() <= 1e-14
    assert np.array_equal(mu[~fluid], 4.0 - 3.0 * mask.chi[~fluid])
    assert mu.min() >= 1.0 and mu.max() <= 4.0
    # away from the interface the cores keep their values
    x1, x2 = g.coords()
    core1 = fluid & (x1 > 0.25) & (x1 < 0.4) & (np.abs(x2) < 0.3)
    assert np.abs(mu[core1] - par.mu1).max() < 1e-12
    # no zero-extension sag: the S2 face pore nodes (their h-neighbourhood
    # holds only fluid 2) read mu2 up to the FFT's roundoff, one ulp here
    s2 = boundary_tags(g)["S2"] & fluid
    assert s2.sum() > 20
    assert np.abs(mu[s2] - par.mu2).max() <= 2 * np.spacing(par.mu2)
    # h = 0: chi itself
    sharp = update_viscosity(chi, mask, replace(par, h_mollify=0.0)).values
    assert np.array_equal(sharp, 4.0 - 3.0 * mask.chi)


def test_the_pore_indicator_is_mollified_once_per_mask(monkeypatch):
    g = Grid(2, 33)
    mask = init_fluid_partition(build_phase_mask(UnitCellPattern("disk", 0.25), 1.0, g), 0.1)
    par = MaterialParams(mu1=1.0, mu2=3.0, h_mollify=0.1)
    chi = ScalarField(g, mask.chi.copy())
    pore = mollify(ScalarField(g, mask.chi_eps), par.h_mollify).values
    calls = []

    def counted(u, h):
        calls.append(np.array_equal(u.values, mask.chi_eps))
        return mollify(u, h)

    monkeypatch.setattr(transport, "mollify", counted)
    first = update_viscosity(chi, mask, par).values
    moved = ScalarField(g, np.roll(mask.chi, 3, axis=0))
    second = update_viscosity(moved, mask, par).values
    # at most the first call mollifies the pore; every call mollifies chi 1_f
    assert calls.count(True) <= 1 and calls[-1] is False and calls.count(False) == 2
    # the cached denominator gives the same mu, bit for bit
    for got, phase in ((first, mask.chi), (second, moved.values)):
        num = mollify(ScalarField(g, phase * mask.chi_eps), par.h_mollify).values
        chi_h = np.clip(np.divide(num, pore, out=phase.copy(), where=mask.fluid), 0.0, 1.0)
        assert np.array_equal(got, 3.0 - 2.0 * chi_h)


def test_one_fluid_viscosity_is_constant_and_never_mollified():
    g = Grid(2, 17)  # h_mollify 0.1 is below the floor 2/16
    mask = init_fluid_partition(build_phase_mask(UnitCellPattern("disk", 0.25), 1.0, g), 0.0)
    chi = ScalarField(g, mask.chi.copy())
    mu = update_viscosity(chi, mask, MaterialParams(mu1=2.5, mu2=2.5, h_mollify=0.1))
    assert np.all(mu.values == 2.5)
    with pytest.raises(ValueError, match="resolution floor"):
        update_viscosity(chi, mask, MaterialParams(mu1=1.0, mu2=2.5, h_mollify=0.1))


def test_advect_phase_stays_in_unit_interval_and_solid_untouched():
    g = Grid(2, 33)
    mask = init_fluid_partition(build_phase_mask(UnitCellPattern("disk", 0.25), 1.0, g), 0.0)
    chi = ScalarField(g, mask.chi.copy())
    out = advect_phase(chi, _uniform_velocity(g, -0.4, 0.2), mask, 0.01)
    assert out.values.min() >= 0.0
    assert out.values.max() <= 1.0
    solid = mask.solid
    assert np.array_equal(out.values[solid], mask.chi[solid])


def test_interface_summary_tracks_a_sharp_front():
    g = Grid(2, 33)
    mask = build_phase_mask(UnitCellPattern("none", 0.0), 1.0, g)
    x1 = g.coords()[0]
    chi = ScalarField(g, (x1 > 0.1).astype(float))
    rep = interface_summary(chi, mask)
    assert rep["mean_x1"] == pytest.approx(0.1, abs=g.spacing(0))
    assert rep["width"] <= 2 * g.spacing(0)
