"""The four benchmark workloads: CLI configs made from a seed, and the checks
every run's outputs must pass.

A seed draws three inputs: the fluid interface plane, the inclusion radius r0
(inside a narrow band, so the cost of a workload barely depends on the seed)
and the seed of the program's own random stream.  The same seed always gives
the same config text.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

R0_BAND = (0.24, 0.26)
PLANE_BAND = (-0.1, 0.1)
EPS_SWEEP_R0 = 0.25

# Time steps per micro-sim call, sized so one call takes a few seconds.
STEPS_2D = 20
STEPS_3D = 3


@dataclass(frozen=True)
class CliRun:
    """One `porohom <experiment> --config ...` call and the check of its outputs."""

    experiment: str
    config: str
    check: Callable[[Path], list]


def draw(seed: int) -> dict:
    rnd = random.Random(seed)
    return {
        "r0": round(R0_BAND[0] + (R0_BAND[1] - R0_BAND[0]) * rnd.random(), 6),
        "plane": round(PLANE_BAND[0] + (PLANE_BAND[1] - PLANE_BAND[0]) * rnd.random(), 6),
        "rng_seed": rnd.randrange(1, 2**31),
    }


def _ini(name: str, rng_seed: int, grid: dict, material: dict | None = None,
         **experiment) -> str:
    def section(title, items):
        return [f"[{title}]"] + [f"{k} = {v}" for k, v in items.items()]

    lines = section("experiment", {"name": name, "seed": rng_seed, **experiment})
    lines += section("grid", grid)
    if material:
        lines += section("material", material)
    return "\n".join(lines) + "\n"


# -- output checks; each returns a list of problems, empty when the run passed --

def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _field_values(path: Path) -> list:
    """Component values of a field CSV written by `porohom.grid.save_field`."""
    with open(path, newline="") as fh:
        fh.readline()  # "# porohom field ..." metadata line
        reader = csv.reader(fh)
        header = next(reader)
        dim = sum(1 for h in header if h.startswith("i"))
        return [float(v) for row in reader for v in row[dim:]]


def _check_micro_sim(mu_lo: float, mu_hi: float):
    def check(out: Path) -> list:
        problems = []
        energy = _rows(out / "energy.csv")
        if not energy:
            return ["energy.csv has no steps"]
        residual = max(float(r["residual"]) for r in energy)
        if not residual <= 1e-6:
            problems.append(f"energy residual {residual:.3e} > 1e-6")
        diss = [float(r["dissipated"]) for r in energy]
        if not all(b >= a for a, b in zip(diss, diss[1:])):
            problems.append("cumulative dissipation decreases")
        if not all(0.0 <= c <= 1.0 for c in _field_values(out / "state_chi.csv")):
            problems.append("chi leaves [0, 1]")
        if not all(mu_lo <= m <= mu_hi for m in _field_values(out / "state_mu.csv")):
            problems.append(f"mu leaves [{mu_lo}, {mu_hi}]")
        return problems
    return check


def _check_eps_convergence(out: Path) -> list:
    rel = [float(r["rel_error"]) for r in _rows(out / "eps_convergence.csv")]
    if len(rel) < 2 or not all(b < a for a, b in zip(rel, rel[1:])):
        return [f"rel_error not strictly decreasing as eps shrinks: {rel}"]
    return []


def _check_cell_problems(out: Path) -> list:
    rows = _rows(out / "effective_tensors.csv")
    K = {r["index"]: float(r["value"]) for r in rows if r["tensor"] == "K"}
    C = {r["index"]: float(r["value"]) for r in rows if r["tensor"] == "C_eff"}
    asym = next(float(r["value"]) for r in rows if r["tensor"] == "K_asymmetry")
    problems = []
    dim = math.isqrt(len(K))
    diag = [K[f"{i}{i}"] for i in range(dim)]
    mean = sum(diag) / dim
    if not min(diag) > 0.0:
        problems.append(f"K not positive: diagonal {diag}")
    if not asym <= 1e-6 * mean:
        problems.append(f"K asymmetry {asym:.3e}")
    off = max((abs(K[f"{i}{j}"]) for i in range(dim) for j in range(dim) if i != j), default=0.0)
    if not (max(diag) - min(diag) <= 0.01 * mean and off <= 0.01 * mean):
        problems.append(f"K not isotropic within 1%: {K}")
    nv = math.isqrt(len(C))
    scale = max(abs(v) for v in C.values())
    if not all(abs(C[f"{a}{b}"] - C[f"{b}{a}"]) <= 1e-10 * scale
               for a in range(nv) for b in range(nv)):
        problems.append("C_eff not symmetric")
    return problems


def _check_mollifier_props(out: Path) -> list:
    m = {r["metric"]: float(r["value"]) for r in _rows(out / "mollifier_props.csv")}
    problems = []
    if not m["normalization_error"] < 1e-8:
        problems.append(f"normalization error {m['normalization_error']:.3e}")
    if not m["self_adjointness_max_rel"] < 1e-10:
        problems.append(f"self-adjointness {m['self_adjointness_max_rel']:.3e}")
    if not (m["l1_expansion_max"] <= 1.0 and m["l2_expansion_max"] <= 1.0):
        problems.append(f"expansion above 1: {m['l1_expansion_max']}, {m['l2_expansion_max']}")
    return problems


def _check_poincare_scaling(out: Path) -> list:
    bad = [(float(r["ratio"]), float(r["expected_ratio"]))
           for r in _rows(out / "poincare_scaling.csv")]
    bad = [(got, want) for got, want in bad if not abs(got - want) <= 0.1 * want]
    return [f"Poincare ratio {got} not within 10% of {want}" for got, want in bad]


def _check_extension_bounds(out: Path) -> list:
    errs = [float(r["fluid_identity_error"]) for r in _rows(out / "extension_bounds.csv")]
    return [] if errs and all(e == 0.0 for e in errs) else [f"fluid identity errors {errs}"]


def output_digest(out: Path) -> str:
    """sha256 over the run's CSV outputs; manifest.txt carries wall time and is left out."""
    h = hashlib.sha256()
    for path in sorted(out.glob("*.csv")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# -- workloads --------------------------------------------------------------

def transient_2d(seed: int) -> list:
    d = draw(seed)
    material = {"mu1": 1.0, "mu2": 3.0, "lambda": 1.0, "epsilon": 0.5,
                "tau": 0.005, "h_mollify": 0.1}
    grid = {"dim": 2, "n": 65, "pattern": "disk", "r0": d["r0"]}
    return [CliRun("micro-sim",
                   _ini("micro-sim", d["rng_seed"], grid, material,
                        steps=STEPS_2D, interface_plane=d["plane"]),
                   _check_micro_sim(1.0, 3.0))]


def transient_3d(seed: int) -> list:
    d = draw(seed)
    # h_mollify = 0.1 is below the mollifier's resolution floor 2/16 at n = 17.
    material = {"mu1": 1.0, "mu2": 3.0, "lambda": 1.0, "epsilon": 0.5,
                "tau": 0.005, "h_mollify": 0.15}
    grid = {"dim": 3, "n": 17, "pattern": "sphere", "r0": d["r0"]}
    return [CliRun("micro-sim",
                   _ini("micro-sim", d["rng_seed"], grid, material,
                        steps=STEPS_3D, interface_plane=d["plane"]),
                   _check_micro_sim(1.0, 3.0))]


def eps_sweep(seed: int) -> list:
    d = draw(seed)
    # r0 stays at 0.25: at r0 = 0.2427, 0.26 and 0.27 the program's eps = 1/8
    # micro flux overshoots the Darcy flux by 8-10% and rel_error is not
    # monotone (see README.md, "Known defect").
    # n is the number of grid nodes per periodicity cell: grids 33^2, 65^2, 129^2.
    grid = {"dim": 2, "n": 16, "pattern": "disk", "r0": EPS_SWEEP_R0}
    material = {"mu1": 1.0, "mu2": 1.0, "epsilon": 0.5, "tau": 0.05, "h_mollify": 0.0}
    return [CliRun("eps-convergence",
                   _ini("eps-convergence", d["rng_seed"], grid, material,
                        eps_list="0.5, 0.25, 0.125"),
                   _check_eps_convergence)]


def cell_analysis(seed: int) -> list:
    d = draw(seed)
    s = d["rng_seed"]
    return [
        CliRun("cell-problems",
               _ini("cell-problems", s, {"dim": 3, "n": 16, "pattern": "sphere", "r0": d["r0"]}),
               _check_cell_problems),
        CliRun("mollifier-props",
               _ini("mollifier-props", s, {"dim": 2, "n": 129}, h_list="0.2, 0.1, 0.05"),
               _check_mollifier_props),
        CliRun("poincare-scaling",
               _ini("poincare-scaling", s, {"dim": 2, "n": 65}, eps_list="1.0, 0.5, 0.25"),
               _check_poincare_scaling),
        CliRun("extension-bounds",
               _ini("extension-bounds", s, {"dim": 2, "n": 33, "pattern": "disk",
                                            "r0": d["r0"]}, eps_list="1.0, 0.5, 0.25"),
               _check_extension_bounds),
    ]


ALL_EXPERIMENTS = ("micro-sim", "eps-convergence", "cell-problems", "mollifier-props",
                   "poincare-scaling", "extension-bounds")

WORKLOADS = {
    "transient-2d": transient_2d,
    "transient-3d": transient_3d,
    "eps-sweep": eps_sweep,
    "cell-analysis": cell_analysis,
}
