import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import porohom
from porohom.grid import Grid, ScalarField, VectorField, l2_norm
from porohom.mollifier import (
    MollifierKernel,
    _stencil,
    bump,
    interior_mask,
    kernel_normalization,
    mollify,
    mollify_convergence_report,
)
from porohom.rng import XorShift64Star


def test_bump_support_and_smooth_decay():
    assert bump(0.0) == pytest.approx(np.exp(-1.0))
    assert bump(1.0) == 0.0
    assert bump(1.5) == 0.0
    s = np.linspace(0, 0.999, 200)
    vals = bump(s)
    assert np.all(np.diff(vals) <= 0)


def test_kernel_unit_mass_against_cartesian_quadrature():
    # independent oracle: integrate the normalized kernel over the square
    kern = MollifierKernel(radius=1.0, dim=2)
    val, err = integrate.dblquad(
        lambda y, x: kern.kernel_value(np.hypot(x, y)),
        -1.0, 1.0, -1.0, 1.0, epsabs=1e-12, epsrel=1e-12)
    assert abs(val - 1.0) < 1e-8


def test_normalization_constants_per_dim():
    # frozen from an independent polar-coordinate quadrature of the bump
    assert kernel_normalization(2) == pytest.approx(2.1436, abs=2e-4)
    assert kernel_normalization(3) == pytest.approx(2.2671, abs=2e-4)


def test_normalization_matches_adaptive_quadrature():
    surface = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}
    for dim in (1, 2, 3):
        radial, _ = integrate.quad(lambda s: bump(s) * s ** (dim - 1), 0.0, 1.0,
                                   epsabs=1e-14, epsrel=1e-14)
        assert kernel_normalization(dim) == pytest.approx(1.0 / (surface[dim] * radial), rel=1e-14)


def _shift(f, axis, o, periodic):
    """f(x - o) along one axis: wrapped around a periodic axis, zero-filled
    across a box face."""
    if periodic:
        return np.roll(f, o, axis=axis)
    out = np.zeros_like(f)
    n = f.shape[axis]
    if abs(o) < n:
        dst = [slice(None)] * f.ndim
        src = [slice(None)] * f.ndim
        dst[axis] = slice(max(o, 0), n + min(o, 0))
        src[axis] = slice(max(-o, 0), n - max(o, 0))
        out[tuple(dst)] = f[tuple(src)]
    return out


def _direct_mollify(values, grid, h):
    """Reference: the sum over the stencil offsets d of st[d] * (w u)(x - d),
    with w u wrapped around each periodic axis and extended by zero across
    each box face."""
    st_ = _stencil(grid, h)
    radii = [(m - 1) // 2 for m in st_.shape]
    f = values * grid.node_weights()
    out = np.zeros_like(f)
    for off in itertools.product(*[range(-r, r + 1) for r in radii]):
        shifted = f
        for k, o in enumerate(off):
            shifted = _shift(shifted, k - grid.dim, o, grid.periodic[k])
        out += st_[tuple(o + r for o, r in zip(off, radii))] * shifted
    return out


@pytest.mark.parametrize("dim, n, h, periodic, vector", [
    (2, 33, 0.1, False, False),
    (2, 129, 0.2, False, False),
    (3, 17, 0.15, False, False),
    (2, 33, 0.1, False, True),
    (2, 8, 0.6, True, False),  # stencil radius 4 >= n/2: the kernel folds onto itself
    (3, 8, 0.3, True, True),
    pytest.param(2, 33, 0.1, (False, True), False, id="2-33-0.1-FalseTrue-False"),
    pytest.param(3, 17, 0.15, (True, False, True), True, id="3-17-0.15-TrueFalseTrue-True"),
])
def test_fft_mollify_matches_a_direct_sum(dim, n, h, periodic, vector):
    g = Grid(dim, n, periodic if isinstance(periodic, tuple) else (periodic,) * dim)
    lead = (dim,) if vector else ()
    u = XorShift64Star(n).array(lead + g.shape)
    field = VectorField(g, u) if vector else ScalarField(g, u)
    out = mollify(field, h)
    assert type(out) is type(field)
    assert np.abs(out.values - _direct_mollify(u, g, h)).max() <= 1e-14 * np.abs(u).max()


def test_mollify_preserves_interior_constants():
    g = Grid(2, 65)
    u = ScalarField(g, np.full(g.shape, 3.7))
    h = 0.1
    out = mollify(u, h)
    inner = interior_mask(g, h).values.astype(bool)
    assert np.abs(out.values[inner] - 3.7).max() < 1e-12


def test_mollify_is_self_adjoint():
    g = Grid(2, 49)
    w = g.node_weights()
    rng = XorShift64Star(11)
    for _ in range(20):
        u = rng.array(g.shape)
        v = rng.array(g.shape)
        mu = mollify(ScalarField(g, u), 0.08).values
        mv = mollify(ScalarField(g, v), 0.08).values
        lhs = float(np.sum(w * mu * v))
        rhs = float(np.sum(w * u * mv))
        scale = max(abs(lhs), abs(rhs), 1e-300)
        assert abs(lhs - rhs) / scale < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mollify_nonexpansive_in_l2_and_l1(seed):
    g = Grid(2, 33)
    u = ScalarField(g, XorShift64Star(seed).array(g.shape))
    out = mollify(u, 0.12)
    w = g.node_weights()
    assert l2_norm(out) <= l2_norm(u) * (1 + 1e-12)
    assert np.sum(w * np.abs(out.values)) <= np.sum(w * np.abs(u.values)) * (1 + 1e-12)


def test_mollify_vector_fields_componentwise():
    g = Grid(2, 33)
    rng = XorShift64Star(2)
    v = VectorField(g, rng.array((2,) + g.shape))
    out = mollify(v, 0.1)
    for k in range(2):
        comp = mollify(ScalarField(g, v.values[k]), 0.1)
        assert np.array_equal(out.values[k], comp.values)


def test_mollify_rejects_unresolved_radius():
    g = Grid(2, 17)
    u = ScalarField(g, np.ones(g.shape))
    with pytest.raises(ValueError):
        mollify(u, 1e-6)


@pytest.mark.parametrize("h", [np.inf, np.nan])
def test_mollify_rejects_a_non_finite_radius(h):
    # the resolution floor check alone lets inf and nan through
    g = Grid(2, 17)
    u = ScalarField(g, np.ones(g.shape))
    with pytest.raises(ValueError, match="radius must be finite"):
        mollify(u, h)


def test_convergence_report_order():
    g = Grid(2, 129)
    x1, x2 = g.coords()
    u = ScalarField(g, np.sin(np.pi * x1) * np.cos(2 * np.pi * x2))
    rep = mollify_convergence_report(u, [0.2, 0.1, 0.05])
    assert rep["monotone"]
    assert all(o >= 1.5 for o in rep["order"][1:])


def test_interior_mask_margins():
    g = Grid(2, 33)
    inner = interior_mask(g, 0.2).values.astype(bool)
    x1, x2 = g.coords()
    assert not inner[0, 16]
    assert inner[16, 16]
    assert np.all(np.abs(x1[inner]) <= 0.3 + 1e-12)


def _fresh_modules(code):
    """sys.modules of a fresh interpreter after running code, with this porohom."""
    src = str(Path(porohom.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{code}\n"
         "print(' '.join(sys.modules))"],
        capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_mollify_does_not_load_scipy_integrate():
    heavy = {"scipy.ndimage", "scipy.integrate"}
    if heavy & _fresh_modules("import scipy.sparse.linalg"):
        pytest.skip("this scipy loads scipy.ndimage or scipy.integrate from sparse.linalg")
    loaded = _fresh_modules(
        "import numpy as np\n"
        "import porohom.cli\n"
        "from porohom.analysis import poincare_constant\n"
        "from porohom.geometry import UnitCellPattern, build_phase_mask, check_pore_connectivity\n"
        "from porohom.grid import Grid, ScalarField\n"
        "from porohom.mollifier import kernel_normalization, mollify\n"
        "g = Grid(2, 17)\n"
        "mollify(ScalarField(g, np.ones(g.shape)), 0.2)\n"
        "kernel_normalization(2)\n"
        "check_pore_connectivity(build_phase_mask(UnitCellPattern('disk', 0.25), 1.0, g))\n"
        "poincare_constant(ScalarField(g, np.ones(g.shape)), g)")
    assert "porohom.cli" in loaded
    assert not heavy & loaded
