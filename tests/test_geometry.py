import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from porohom.geometry import (
    PhaseMask,
    UnitCellPattern,
    boundary_tags,
    build_phase_mask,
    cells_across,
    check_pore_connectivity,
    init_fluid_partition,
    porosity,
)
from porohom.grid import Grid


def test_pattern_validation():
    with pytest.raises(ValueError):
        UnitCellPattern("disk", 0.5)
    with pytest.raises(ValueError):
        UnitCellPattern("disk", -0.1)
    with pytest.raises(ValueError):
        UnitCellPattern("hexagon", 0.2)


def test_cells_across_is_the_integer_reciprocal_check():
    assert [cells_across(e) for e in (1.0, 0.5, 0.25, 1 / 3)] == [1, 2, 4, 3]
    # 1/eps of inf or 1e10 rounds to no cell; 1/5e-324 overflows to inf
    for eps in (0.3, 0.0, -0.5, float("nan"), float("inf"), 1e10, 5e-324):
        with pytest.raises(ValueError, match="integer reciprocal"):
            cells_across(eps)
    with pytest.raises(ValueError, match="integer reciprocal"):
        build_phase_mask(UnitCellPattern("disk", 0.25), -0.5, Grid(2, 33))


def test_zero_radius_gives_full_porosity():
    g = Grid(2, 33)
    mask = build_phase_mask(UnitCellPattern("disk", 0.0), 1.0, g)
    assert np.all(mask.chi_eps == 1)
    assert porosity(mask) == pytest.approx(1.0)


def test_disk_porosity_matches_area():
    g = Grid(2, 129)
    mask = build_phase_mask(UnitCellPattern("disk", 0.25), 1.0, g)
    # solid area pi r0^2 = pi/16
    assert porosity(mask) == pytest.approx(1.0 - np.pi / 16.0, abs=3 * g.spacing(0))


def test_porosity_independent_of_epsilon():
    vals = []
    for eps, n in ((1.0, 65), (0.5, 129), (0.25, 257)):
        g = Grid(2, n)
        mask = build_phase_mask(UnitCellPattern("disk", 0.25), eps, g)
        vals.append(porosity(mask))
    assert max(vals) - min(vals) < 3.0 / 64


def test_build_preconditions():
    g = Grid(2, 33)
    with pytest.raises(ValueError):
        build_phase_mask(UnitCellPattern("disk", 0.25), 0.3, g)
    # 1/4 cells on a 17-node grid means 4 nodes per cell, below the floor of 8
    with pytest.raises(ValueError):
        build_phase_mask(UnitCellPattern("disk", 0.25), 0.25, Grid(2, 17))


def test_chi_eps_is_cell_periodic():
    g = Grid(2, 65)
    eps = 0.25
    mask = build_phase_mask(UnitCellPattern("disk", 0.25), eps, g)
    shift = round(eps / g.spacing(0))
    interior = mask.chi_eps[:-shift, :]
    assert np.array_equal(interior, mask.chi_eps[shift:, :])


def test_connectivity():
    g = Grid(2, 33)
    assert check_pore_connectivity(build_phase_mask(UnitCellPattern("disk", 0.25), 1.0, g))
    solid = build_phase_mask(UnitCellPattern("full-solid", 0.0), 1.0, g)
    assert not check_pore_connectivity(solid)
    # a solid slab across the channel disconnects S1 from S2
    blocked = build_phase_mask(UnitCellPattern("disk", 0.0), 1.0, g)
    x1 = g.coords()[0]
    blocked.chi_eps = np.where(np.abs(x1) < 0.1, 0.0, 1.0)
    assert not check_pore_connectivity(blocked)


@st.composite
def _fluid_masks(draw):
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(3, 12 if dim == 2 else 6))
    periodic = draw(st.sampled_from([(False,) * dim, (True,) * dim]))
    fluid = draw(arrays(bool, (n,) * dim, elements=st.booleans()))
    return Grid(dim, n, periodic), fluid


def _label_rule(chi_eps):
    """The ndimage.label rule check_pore_connectivity replaced: a label
    (cross-shaped, no wrap-around) present on both the S1 and S2 faces."""
    labels, nlab = ndimage.label(chi_eps)
    if nlab == 0:
        return False
    return bool((set(np.unique(labels[-1, ...])) - {0}) & (set(np.unique(labels[0, ...])) - {0}))


@settings(max_examples=200, deadline=None)
@given(_fluid_masks())
def test_connectivity_matches_the_ndimage_label_rule(case):
    grid, fluid = case
    chi_eps = fluid.astype(float)
    mask = PhaseMask(grid, chi_eps, np.ones(grid.shape), 1.0)
    assert check_pore_connectivity(mask) == _label_rule(chi_eps)


def test_init_fluid_partition():
    g = Grid(2, 33)
    mask = build_phase_mask(UnitCellPattern("disk", 0.25), 1.0, g)
    mask = init_fluid_partition(mask, 0.1)
    x1 = g.coords()[0]
    fluid = mask.fluid
    assert np.all(mask.chi[fluid & (x1 > 0.1 + 1e-12)] == 1.0)
    assert np.all(mask.chi[fluid & (x1 < 0.1 - 1e-12)] == 0.0)
    assert mask.chi.min() >= 0.0 and mask.chi.max() <= 1.0


def test_phase_mask_invariants_enforced():
    g = Grid(2, 9)
    with pytest.raises(ValueError):
        PhaseMask(g, np.full(g.shape, 0.5), np.zeros(g.shape), 1.0)
    with pytest.raises(ValueError):
        PhaseMask(g, np.ones(g.shape), np.full(g.shape, 1.5), 1.0)


def test_boundary_tags_partition():
    g = Grid(2, 17)
    tags = boundary_tags(g)
    x1, x2 = g.coords()
    assert np.all(x1[tags["S1"]] == pytest.approx(0.5))
    assert np.all(x1[tags["S2"]] == pytest.approx(-0.5))
    assert np.all(np.abs(x2[tags["S0"]]) == pytest.approx(0.5))
    # no node carries two tags
    overlap = (tags["S0"].astype(int) + tags["S1"] + tags["S2"])
    assert overlap.max() <= 1


def test_boundary_tags_periodic_axes_have_no_boundary():
    g = Grid(2, 16, periodic=(True, True))
    tags = boundary_tags(g)
    for t in tags.values():
        assert not t.any()
