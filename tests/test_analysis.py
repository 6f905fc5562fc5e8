import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from porohom.analysis import _erode, extend_fluid, extend_solid, poincare_constant
from porohom.geometry import UnitCellPattern, boundary_tags, build_phase_mask
from porohom.grid import Grid, ScalarField, VectorField, l2_norm
from porohom.operators import assemble_vector_form, cell_counts
from porohom.rng import XorShift64Star


def _box_mask(grid, half_width):
    x = grid.coords()
    inside = np.ones(grid.shape, dtype=bool)
    for xk in x:
        inside &= np.abs(xk) <= half_width + 1e-12
    return ScalarField(grid, inside.astype(float))


def test_poincare_constant_positive_and_converged():
    g = Grid(2, 33)
    est = poincare_constant(_box_mask(g, 0.5), g)
    assert est.value > 0
    assert est.residual < 1e-8


def test_poincare_scaling_with_domain_size():
    g = Grid(2, 33)
    base = poincare_constant(_box_mask(g, 0.5), g).value
    half = poincare_constant(_box_mask(g, 0.25), g).value
    quarter = poincare_constant(_box_mask(g, 0.125), g).value
    assert half / base == pytest.approx(0.5, rel=0.10)
    assert quarter / base == pytest.approx(0.25, rel=0.10)


def test_poincare_monotone_under_domain_inclusion():
    g = Grid(2, 33)
    small = poincare_constant(_box_mask(g, 0.25), g).value
    large = poincare_constant(_box_mask(g, 0.5), g).value
    assert small <= large * 1.05


def test_poincare_rejects_empty_mask():
    g = Grid(2, 17)
    with pytest.raises(ValueError):
        poincare_constant(ScalarField(g, np.zeros(g.shape)), g)


def test_poincare_constant_matches_a_shift_invert_eigensolve():
    g = Grid(2, 33)
    est = poincare_constant(_box_mask(g, 0.5), g)
    # the box fills the grid, so the free nodes are the interior ones
    tags = boundary_tags(g)
    free = ~(tags["S0"] | tags["S1"] | tags["S2"]).ravel()
    A = assemble_vector_form(g, np.ones(int(np.prod(cell_counts(g)))), None, free)
    mass = np.tile(g.node_weights().ravel()[free], 2)
    lam = spla.eigsh(A.tocsc(), k=1, M=sp.diags(mass).tocsc(), sigma=0,
                     return_eigenvectors=False)[0]
    assert est.value == pytest.approx(1.0 / np.sqrt(lam), rel=1e-8)


@st.composite
def _node_sets(draw):
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(3, 12 if dim == 2 else 6))
    return draw(arrays(bool, (n,) * dim, elements=st.booleans()))


@settings(max_examples=200, deadline=None)
@given(_node_sets())
def test_erosion_matches_ndimage_binary_erosion(inside):
    # The erosion reads only the array, never the grid's periodic flags, so
    # box and periodic grids share this one oracle.
    assert np.array_equal(_erode(inside), ndimage.binary_erosion(inside, border_value=1))


def test_extend_solid_zero_maps_to_zero():
    g = Grid(2, 33)
    mask = build_phase_mask(UnitCellPattern("disk", 0.25), 1.0, g)
    out = extend_solid(VectorField.zeros(g), mask, 0.08)
    assert np.abs(out.values).max() == 0.0


def test_extend_solid_enforces_radius_ceiling():
    g = Grid(2, 33)
    mask = build_phase_mask(UnitCellPattern("disk", 0.25), 1.0, g)
    with pytest.raises(ValueError):
        extend_solid(VectorField.zeros(g), mask, 0.2, solid_radius=0.25)


def test_extend_solid_norm_bound_stable_in_eps():
    ms = []
    for eps, n in ((1.0, 33), (0.5, 65), (0.25, 129)):
        g = Grid(2, n)
        mask = build_phase_mask(UnitCellPattern("disk", 0.25), eps, g)
        x1, x2 = g.coords()
        w = np.stack([np.cos(2 * np.pi * x1) * np.sin(np.pi * x2), x1 * x2 + 0.3])
        ws = VectorField(g, w)
        ext = extend_solid(ws, mask, 0.4 * (0.5 - 0.25) * eps, solid_radius=0.25)
        den = l2_norm(VectorField(g, w * (1.0 - mask.chi_eps)))
        ms.append(l2_norm(ext) / den)
    assert (max(ms) - min(ms)) / min(ms) < 0.20


def test_extend_solid_gradient_finite():
    g = Grid(2, 65)
    mask = build_phase_mask(UnitCellPattern("disk", 0.25), 0.5, g)
    ws = VectorField(g, XorShift64Star(4).array((2,) + g.shape))
    ext = extend_solid(ws, mask, 0.05, solid_radius=0.25)
    for k in range(2):
        gr = np.gradient(ext.values[k], g.spacing(0), g.spacing(1), edge_order=2)
        assert np.all(np.isfinite(gr))


def test_extend_fluid_home_subdomain_identity():
    g = Grid(2, 33)
    mask = build_phase_mask(UnitCellPattern("disk", 0.25), 1.0, g)
    rng = XorShift64Star(9)
    wf = VectorField(g, rng.array((2,) + g.shape))
    ws = VectorField(g, rng.array((2,) + g.shape))
    for conv in ("paper", "continuity"):
        out = extend_fluid(wf, ws, mask, conv)
        fluid = mask.fluid
        assert np.array_equal(out.values[:, fluid], wf.values[:, fluid])
    with pytest.raises(ValueError):
        extend_fluid(wf, ws, mask, "mystery")


def test_extend_fluid_sign_conventions_differ_on_solid():
    g = Grid(2, 33)
    mask = build_phase_mask(UnitCellPattern("disk", 0.25), 1.0, g)
    ws = VectorField(g, np.ones((2,) + g.shape))
    wf = VectorField.zeros(g)
    paper = extend_fluid(wf, ws, mask, "paper")
    cont = extend_fluid(wf, ws, mask, "continuity")
    solid = mask.solid
    assert np.all(paper.values[:, solid] == -1.0)
    assert np.all(cont.values[:, solid] == 1.0)


def test_extend_fluid_triangle_bound():
    g = Grid(2, 33)
    mask = build_phase_mask(UnitCellPattern("disk", 0.25), 1.0, g)
    rng = XorShift64Star(12)
    wf = VectorField(g, rng.array((2,) + g.shape))
    ws = VectorField(g, rng.array((2,) + g.shape))
    out = extend_fluid(wf, ws, mask)
    bound = (l2_norm(VectorField(g, wf.values * mask.chi_eps))
             + l2_norm(VectorField(g, ws.values * (1.0 - mask.chi_eps))))
    assert l2_norm(out) <= bound * (1 + 1e-12)
