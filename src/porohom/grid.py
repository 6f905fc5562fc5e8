"""Uniform Cartesian grid over the centered unit cube, nodal field
containers, the trapezoidal L2 norm and CSV field I/O.

Conventions
-----------
The domain is the unit cube centered at the origin, Omega = [-1/2, 1/2]^dim.
Non-periodic axes carry n nodes including both endpoints (spacing 1/(n-1));
periodic axes carry n distinct nodes covering [-1/2, 1/2) (spacing 1/n, no
duplicated endpoint).  Scalar fields store one value per node; vector fields
store components in the leading axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "sym_component_pairs",
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

    origin = -0.5  # lower corner of Omega on every axis (a class constant)

    def __post_init__(self):
        """ValueError naming every violation, one line each."""
        problems = []
        if self.dim not in (2, 3):
            problems.append(f"dim must be 2 or 3, got {self.dim}")
        if self.n_per_axis < 3:
            problems.append(f"n must be >= 3 nodes per axis, got {self.n_per_axis}")
        if self.periodic and len(self.periodic) != self.dim:
            problems.append(f"periodic flags must match dim, got {self.periodic}")
        if problems:
            raise ValueError("\n".join(problems))
        flags = self.periodic or (False,) * self.dim
        object.__setattr__(self, "periodic", tuple(bool(p) for p in flags))

    @property
    def shape(self):
        return (self.n_per_axis,) * self.dim

    @property
    def n_nodes(self):
        return self.n_per_axis**self.dim

    def spacing(self, axis: int) -> float:
        n = self.n_per_axis
        return 1.0 / n if self.periodic[axis] else 1.0 / (n - 1)

    def axis_coords(self, axis: int) -> np.ndarray:
        return self.origin + self.spacing(axis) * np.arange(self.n_per_axis)

    def coords(self):
        """Meshgrid of node coordinates, one array per axis."""
        axes = [self.axis_coords(k) for k in range(self.dim)]
        return np.meshgrid(*axes, indexing="ij")

    @lru_cache(maxsize=16)
    def node_weights(self) -> np.ndarray:
        """Trapezoidal quadrature weight per node (product rule), cached per
        grid and read-only."""
        w = np.ones(self.shape)
        for k in range(self.dim):
            wk = np.full(self.n_per_axis, self.spacing(k))
            if not self.periodic[k]:
                wk[0] *= 0.5
                wk[-1] *= 0.5
            shape = [1] * self.dim
            shape[k] = self.n_per_axis
            w = w * wk.reshape(shape)
        w.setflags(write=False)
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


def l2_norm(f, mask: ScalarField | None = None) -> float:
    """Trapezoidal L2 norm over Omega (or a masked subdomain)."""
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
    else:
        raise TypeError(f"unsupported field type {type(f)}")
    return float(np.sqrt(np.sum(w * sq)))


# ---------------------------------------------------------------------------
# CSV serialization: one row per node, node indices then components.

_META_KEYS = ("kind", "dim", "n", "periodic")


def save_field(path, f):
    grid = f.grid
    if isinstance(f, ScalarField):
        kind, comps = "scalar", ["value"]
    elif isinstance(f, VectorField):
        kind, comps = "vector", [f"u{i}" for i in range(grid.dim)]
    else:
        raise TypeError(f"unsupported field type {type(f)}")
    flat = f.values.reshape(len(comps), -1)
    idx = np.indices(grid.shape).reshape(grid.dim, -1)
    per = ",".join("1" if p else "0" for p in grid.periodic)
    with open(path, "w") as fh:
        fh.write(f"# porohom field kind={kind} dim={grid.dim} n={grid.n_per_axis} periodic={per}\n")
        fh.write(",".join([f"i{k}" for k in range(grid.dim)] + comps) + "\n")
        fmt = ",".join(["%d"] * grid.dim + ["%.17g"] * len(comps)) + "\n"
        fh.writelines(fmt % row for row in zip(*idx.tolist(), *flat.tolist()))


def load_field(path):
    """Read a field written by save_field; ValueError on a malformed header."""
    with open(path) as fh:
        meta = fh.readline().split()
        header = fh.readline().strip().split(",")
        pairs = dict(tok.split("=", 1) for tok in meta if "=" in tok)
        missing = [k for k in _META_KEYS if k not in pairs]
        if missing:
            raise ValueError(f"{path}: field header lacks {', '.join(missing)}")
        kind = pairs["kind"]
        if kind not in ("scalar", "vector"):
            raise ValueError(f"{path}: unknown field kind {kind!r}")
        data = np.loadtxt(fh, delimiter=",")
    dim = int(pairs["dim"])
    n = int(pairs["n"])
    periodic = tuple(c == "1" for c in pairs["periodic"].split(","))
    grid = Grid(dim=dim, n_per_axis=n, periodic=periodic)
    ncomp = len(header) - dim
    vals = data[:, dim:].T.reshape((ncomp,) + grid.shape)
    if kind == "scalar":
        return ScalarField(grid, vals[0])
    return VectorField(grid, vals)
