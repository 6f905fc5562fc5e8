import numpy as np
import pytest

from porohom.grid import (
    Grid,
    ScalarField,
    VectorField,
    l2_norm,
    load_field,
    save_field,
    sym_component_pairs,
)


def test_grid_spacing_conventions():
    g = Grid(2, 33)
    assert g.spacing(0) == pytest.approx(1.0 / 32)
    gp = Grid(2, 32, periodic=(True, True))
    assert gp.spacing(0) == pytest.approx(1.0 / 32)
    # periodic axes drop the duplicated endpoint
    x = gp.axis_coords(0)
    assert x[0] == pytest.approx(-0.5)
    assert x[-1] == pytest.approx(0.5 - 1.0 / 32)


def test_grid_rejects_bad_dim_and_size():
    with pytest.raises(ValueError):
        Grid(1, 33)
    with pytest.raises(ValueError):
        Grid(2, 2)
    with pytest.raises(ValueError):
        Grid(2, 33, periodic=(True,))


def test_grid_names_every_violation_in_one_error():
    with pytest.raises(ValueError) as err:
        Grid(1, 2)
    lines = str(err.value).splitlines()
    assert len(lines) == 2
    assert "dim must be 2 or 3, got 1" in lines[0]
    assert "n must be >= 3" in lines[1] and "got 2" in lines[1]


def test_node_weights_sum_to_volume():
    for g in (Grid(2, 17), Grid(2, 16, periodic=(True, True)),
              Grid(3, 9), Grid(2, 20, periodic=(False, True))):
        assert np.sum(g.node_weights()) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("g", [Grid(2, 9), Grid(3, 5, periodic=(True, False, True))])
def test_node_weights_are_a_cached_read_only_product_rule(g):
    w = g.node_weights()
    expect = np.ones(g.shape)
    for k in range(g.dim):
        wk = np.full(g.n_per_axis, g.spacing(k))
        if not g.periodic[k]:
            wk[[0, -1]] *= 0.5
        expect = expect * wk.reshape([-1 if a == k else 1 for a in range(g.dim)])
    assert np.array_equal(w, expect)
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[(0,) * g.dim] = 1.0
    # an equal grid is the same cache key
    assert g.node_weights() is w
    assert Grid(g.dim, g.n_per_axis, g.periodic).node_weights() is w


def test_fields_validate_shape_and_finiteness():
    g = Grid(2, 9)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((9, 8)))
    bad = np.zeros((9, 9))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        ScalarField(g, bad)
    v = VectorField.zeros(g)
    assert v.values.shape == (2, 9, 9)


def test_sym_component_pairs_upper_triangle():
    assert sym_component_pairs(2) == [(0, 0), (0, 1), (1, 1)]
    assert len(sym_component_pairs(3)) == 6


def test_l2_norm_of_coordinate_function():
    # ||x1||_2 on the unit square is sqrt(1/12); trapezoid error is O(dx^2)
    g = Grid(2, 1025)
    x1 = g.coords()[0]
    val = l2_norm(ScalarField(g, x1))
    assert val == pytest.approx(np.sqrt(1.0 / 12.0), abs=1e-6)


def test_l2_norm_respects_mask_and_tensor_multiplicity():
    g = Grid(2, 17)
    ones = ScalarField(g, np.ones(g.shape))
    half = np.zeros(g.shape)
    half[g.coords()[0] > 0] = 1.0
    assert l2_norm(ones, mask=ScalarField(g, half)) < l2_norm(ones)
    # every vector component counts: |(1, 1)| = sqrt(2) on a unit-volume domain
    assert l2_norm(VectorField(g, np.ones((2,) + g.shape))) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_field_csv_roundtrip_exact(tmp_path):
    g = Grid(2, 13, periodic=(False, True))
    rng = np.random.default_rng(3)
    for f in (ScalarField(g, rng.standard_normal(g.shape)),
              VectorField(g, rng.standard_normal((2,) + g.shape))):
        path = tmp_path / "field.csv"
        save_field(path, f)
        back = load_field(path)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)


def test_save_field_writes_17_digit_rows(tmp_path):
    g = Grid(3, 3)
    vals = np.random.default_rng(5).standard_normal((3,) + g.shape)
    vals[0, 0, 0, 0], vals[1, 0, 0, 0], vals[2, 0, 0, 0] = -0.0, 0.1, 1e-300
    path = tmp_path / "field.csv"
    save_field(path, VectorField(g, vals))
    lines = path.read_text().splitlines()
    assert lines[0] == "# porohom field kind=vector dim=3 n=3 periodic=0,0,0"
    assert lines[1] == "i0,i1,i2,u0,u1,u2"
    assert lines[2] == "0,0,0,-0,0.10000000000000001,1e-300"
    expected = [",".join([str(i) for i in ijk]
                         + [format(v, ".17g") for v in vals[(slice(None),) + ijk]])
                for ijk in np.ndindex(g.shape)]
    assert lines[2:] == expected


def _write_field(path, meta, ncomp=1):
    cols = ["value"] if ncomp == 1 else [f"u{k}" for k in range(ncomp)]
    path.write_text(meta + "\n" + ",".join(["i0", "i1"] + cols) + "\n"
                    + "".join(f"{i},{j}" + ",0.5" * ncomp + "\n"
                              for i in range(3) for j in range(3)))


@pytest.mark.parametrize("meta,ncomp", [
    # two component columns: a valid vector layout, so only the kind is wrong
    ("# porohom field kind=tensor dim=2 n=3 periodic=0,0", 2),
    ("# porohom field kind=matrix dim=2 n=3 periodic=0,0", 2),
    ("# porohom field dim=2 n=3 periodic=0,0", 1),
    ("# porohom field kind=scalar n=3 periodic=0,0", 1),
    ("# porohom field kind=scalar dim=2 n=3", 1),
    ("", 1),
])
def test_load_field_rejects_unknown_kind_and_incomplete_header(tmp_path, meta, ncomp):
    path = tmp_path / "bad.csv"
    _write_field(path, meta, ncomp)
    with pytest.raises(ValueError):
        load_field(path)


def test_load_field_reads_hand_written_fields(tmp_path):
    path = tmp_path / "ok.csv"
    _write_field(path, "# porohom field kind=scalar dim=2 n=3 periodic=0,0")
    f = load_field(path)
    assert isinstance(f, ScalarField) and f.grid == Grid(2, 3)
    assert np.all(f.values == 0.5)
    _write_field(path, "# porohom field kind=vector dim=2 n=3 periodic=0,0", 2)
    assert isinstance(load_field(path), VectorField)
