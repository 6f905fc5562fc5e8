"""Uniform Cartesian grid over the centered unit cube, field containers and
the basic differential / tensor operators everything else is built on.

Conventions
-----------
The domain is the unit cube centered at the origin, Omega = [-1/2, 1/2]^dim.
Non-periodic axes carry n nodes including both endpoints (spacing 1/(n-1));
periodic axes carry n distinct nodes covering [-1/2, 1/2) (spacing 1/n, no
duplicated endpoint).  Scalar fields store one value per node; vector and
symmetric-tensor fields store components in the leading axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "SymTensorField",
    "sym_component_pairs",
    "sym_gradient",
    "gradient",
    "divergence",
    "trace",
    "contract",
    "l2_norm",
    "save_field",
    "load_field",
]


@dataclass(frozen=True)
class Grid:
    """Uniform node-collocated grid on the centered unit cube."""

    dim: int
    n_per_axis: int
    periodic: tuple = ()
    origin: float = -0.5

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.n_per_axis < 3:
            raise ValueError(f"need at least 3 nodes per axis, got {self.n_per_axis}")
        if not self.periodic:
            object.__setattr__(self, "periodic", (False,) * self.dim)
        elif len(self.periodic) != self.dim:
            raise ValueError("periodic flags must match dim")
        object.__setattr__(self, "periodic", tuple(bool(p) for p in self.periodic))

    @property
    def shape(self):
        return (self.n_per_axis,) * self.dim

    @property
    def n_nodes(self):
        return self.n_per_axis**self.dim

    def spacing(self, axis: int) -> float:
        n = self.n_per_axis
        return 1.0 / n if self.periodic[axis] else 1.0 / (n - 1)

    @property
    def min_spacing(self) -> float:
        return min(self.spacing(k) for k in range(self.dim))

    def axis_coords(self, axis: int) -> np.ndarray:
        return self.origin + self.spacing(axis) * np.arange(self.n_per_axis)

    def coords(self):
        """Meshgrid of node coordinates, one array per axis."""
        axes = [self.axis_coords(k) for k in range(self.dim)]
        return np.meshgrid(*axes, indexing="ij")

    def node_weights(self) -> np.ndarray:
        """Trapezoidal quadrature weight per node (product rule)."""
        w = np.ones(self.shape)
        for k in range(self.dim):
            wk = np.full(self.n_per_axis, self.spacing(k))
            if not self.periodic[k]:
                wk[0] *= 0.5
                wk[-1] *= 0.5
            shape = [1] * self.dim
            shape[k] = self.n_per_axis
            w = w * wk.reshape(shape)
        return w


def sym_component_pairs(dim: int):
    """Index pairs (i <= j) of the stored upper triangle."""
    return [(i, j) for i in range(dim) for j in range(i, dim)]


def _check_values(grid: Grid, values: np.ndarray, lead: int):
    expected = ((lead,) if lead else ()) + grid.shape
    if values.shape != expected:
        raise ValueError(f"values shape {values.shape} != expected {expected}")
    if not np.all(np.isfinite(values)):
        raise ValueError("field contains non-finite values")


@dataclass
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        _check_values(self.grid, self.values, 0)

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.shape))

    def copy(self):
        return ScalarField(self.grid, self.values.copy())


@dataclass
class VectorField:
    grid: Grid
    values: np.ndarray  # shape (dim, *grid.shape)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        _check_values(self.grid, self.values, self.grid.dim)

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros((grid.dim,) + grid.shape))

    def copy(self):
        return VectorField(self.grid, self.values.copy())

    def component(self, i: int) -> ScalarField:
        return ScalarField(self.grid, self.values[i])


@dataclass
class SymTensorField:
    grid: Grid
    values: np.ndarray  # shape (dim*(dim+1)/2, *grid.shape), upper triangle

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        ncomp = self.grid.dim * (self.grid.dim + 1) // 2
        _check_values(self.grid, self.values, ncomp)

    @classmethod
    def zeros(cls, grid):
        ncomp = grid.dim * (grid.dim + 1) // 2
        return cls(grid, np.zeros((ncomp,) + grid.shape))

    @classmethod
    def identity(cls, grid):
        t = cls.zeros(grid)
        for a, (i, j) in enumerate(sym_component_pairs(grid.dim)):
            if i == j:
                t.values[a] = 1.0
        return t

    def copy(self):
        return SymTensorField(self.grid, self.values.copy())


def axis_derivative(values: np.ndarray, grid: Grid, axis: int, offset: int = 0) -> np.ndarray:
    """d/dx_axis of nodal values: second-order central differences at interior
    nodes, second-order one-sided at non-periodic boundaries, wrap-around on
    periodic axes.  `offset` shifts the array axis (for component-first layouts).
    """
    ax = axis + offset
    dx = grid.spacing(axis)
    if grid.periodic[axis]:
        return (np.roll(values, -1, axis=ax) - np.roll(values, 1, axis=ax)) / (2.0 * dx)
    return np.gradient(values, dx, axis=ax, edge_order=2)


def gradient(f: ScalarField) -> VectorField:
    vals = np.stack([axis_derivative(f.values, f.grid, k) for k in range(f.grid.dim)])
    return VectorField(f.grid, vals)


def sym_gradient(u: VectorField) -> SymTensorField:
    """Symmetric gradient d_ij = (du_i/dx_j + du_j/dx_i) / 2."""
    grid = u.grid
    d = []
    for i, j in sym_component_pairs(grid.dim):
        if i == j:
            d.append(axis_derivative(u.values[i], grid, i))
        else:
            d.append(
                0.5
                * (
                    axis_derivative(u.values[i], grid, j)
                    + axis_derivative(u.values[j], grid, i)
                )
            )
    return SymTensorField(grid, np.stack(d))


def divergence(u: VectorField) -> ScalarField:
    grid = u.grid
    out = np.zeros(grid.shape)
    for k in range(grid.dim):
        out += axis_derivative(u.values[k], grid, k)
    return ScalarField(grid, out)


def trace(t: SymTensorField) -> ScalarField:
    grid = t.grid
    out = np.zeros(grid.shape)
    for a, (i, j) in enumerate(sym_component_pairs(grid.dim)):
        if i == j:
            out += t.values[a]
    return ScalarField(grid, out)


def contract(a: SymTensorField, b: SymTensorField) -> ScalarField:
    """Pointwise Frobenius contraction, off-diagonal entries counted twice."""
    if a.grid != b.grid:
        raise ValueError("grid mismatch in contraction")
    out = np.zeros(a.grid.shape)
    for c, (i, j) in enumerate(sym_component_pairs(a.grid.dim)):
        mult = 1.0 if i == j else 2.0
        out += mult * a.values[c] * b.values[c]
    return ScalarField(a.grid, out)


def l2_norm(f, mask: ScalarField | None = None) -> float:
    """Trapezoidal L2 norm over Omega (or a masked subdomain).

    Symmetric tensors integrate |D|^2 with off-diagonal multiplicity two.
    """
    grid = f.grid
    w = grid.node_weights()
    if mask is not None:
        if mask.grid != grid:
            raise ValueError("mask grid mismatch")
        mv = mask.values
        if mv.min() < -1e-14 or mv.max() > 1.0 + 1e-14:
            raise ValueError("mask values must lie in [0, 1]")
        w = w * mv
    if isinstance(f, ScalarField):
        sq = f.values**2
    elif isinstance(f, VectorField):
        sq = np.sum(f.values**2, axis=0)
    elif isinstance(f, SymTensorField):
        sq = np.zeros(grid.shape)
        for c, (i, j) in enumerate(sym_component_pairs(grid.dim)):
            mult = 1.0 if i == j else 2.0
            sq += mult * f.values[c] ** 2
    else:
        raise TypeError(f"unsupported field type {type(f)}")
    return float(np.sqrt(np.sum(w * sq)))


# ---------------------------------------------------------------------------
# CSV serialization: one row per node, node indices then components.

_KIND = {"scalar": ScalarField, "vector": VectorField, "tensor": SymTensorField}


def _field_kind(f) -> str:
    for name, cls in _KIND.items():
        if isinstance(f, cls):
            return name
    raise TypeError(f"unsupported field type {type(f)}")


def save_field(path, f):
    grid = f.grid
    kind = _field_kind(f)
    if kind == "scalar":
        comps = ["value"]
        flat = f.values.reshape(1, -1)
    elif kind == "vector":
        comps = [f"u{i}" for i in range(grid.dim)]
        flat = f.values.reshape(grid.dim, -1)
    else:
        comps = [f"d{i}{j}" for i, j in sym_component_pairs(grid.dim)]
        flat = f.values.reshape(len(comps), -1)
    idx = np.indices(grid.shape).reshape(grid.dim, -1)
    per = ",".join("1" if p else "0" for p in grid.periodic)
    with open(path, "w") as fh:
        fh.write(f"# porohom field kind={kind} dim={grid.dim} n={grid.n_per_axis} periodic={per}\n")
        fh.write(",".join([f"i{k}" for k in range(grid.dim)] + comps) + "\n")
        for r in range(idx.shape[1]):
            row = [str(idx[k, r]) for k in range(grid.dim)]
            row += [format(v, ".17g") for v in flat[:, r]]
            fh.write(",".join(row) + "\n")


def load_field(path):
    with open(path) as fh:
        meta = fh.readline().strip()
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",")
    pairs = dict(tok.split("=") for tok in meta.split() if "=" in tok)
    dim = int(pairs["dim"])
    n = int(pairs["n"])
    periodic = tuple(c == "1" for c in pairs["periodic"].split(","))
    grid = Grid(dim=dim, n_per_axis=n, periodic=periodic)
    kind = pairs["kind"]
    ncomp = len(header) - dim
    vals = data[:, dim:].T.reshape((ncomp,) + grid.shape)
    if kind == "scalar":
        return ScalarField(grid, vals[0])
    if kind == "vector":
        return VectorField(grid, vals)
    return SymTensorField(grid, vals)
