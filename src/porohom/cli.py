"""Command line harness: `porohom <experiment> --config <path> [--out DIR] [--seed N]`.

Each experiment writes CSV outputs plus a manifest (config echo, library
versions, wall time, peak resident memory and, for micro-sim, the wall time
of each stage and the step operator's stored entries, for eps-convergence the
steps and convergence of each level's steady solve) into the output
directory.  Exit codes: 0 success, 1 validation failure, 2 solver failure
(including running out of memory).
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import extend_fluid, extend_solid, poincare_constant
from .config import ConfigError, RunConfig, parse_config
from .geometry import build_phase_mask, init_fluid_partition, porosity
from .grid import Grid, ScalarField, VectorField, l2_norm, save_field
from .homogenize import (
    compare_micro_macro,
    elasticity_from_mask,
    periodic_cell_grid,
    permeability_from_mask,
)
from .microsim import MicroSolver
from .mollifier import kernel_normalization, mollify, mollify_convergence_report, bump
from .rng import XorShift64Star
from .transport import interface_summary

FMT = ".17g"


def _write_csv(path: Path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                format(v, FMT) if isinstance(v, float) else str(v) for v in row) + "\n")
    return path


def _random_scalar(grid, rng):
    return ScalarField(grid, rng.array(grid.shape))


def run_mollifier_props(cfg: RunConfig, out: Path, rng) -> tuple:
    grid = Grid(dim=cfg.dim, n_per_axis=cfg.n)
    # independent Riemann-sum check of the kernel normalization
    s = (np.arange(200000) + 0.5) / 200000
    surface = {2: 2 * np.pi, 3: 4 * np.pi}[cfg.dim]
    riemann = surface * np.sum(bump(s) * s ** (cfg.dim - 1)) / 200000
    norm_err = abs(kernel_normalization(cfg.dim) * riemann - 1.0)

    h = cfg.h_list[-1]
    adj_max = 0.0
    exp_l1 = 0.0
    exp_l2 = 0.0
    w = grid.node_weights()
    for _ in range(20):
        u = _random_scalar(grid, rng)
        v = _random_scalar(grid, rng)
        mu, mv = mollify(u, h), mollify(v, h)
        a = float(np.sum(w * mu.values * v.values))
        b = float(np.sum(w * u.values * mv.values))
        adj_max = max(adj_max, abs(a - b) / max(abs(a), 1e-300))
        exp_l2 = max(exp_l2, l2_norm(mu) / max(l2_norm(u), 1e-300))
        exp_l1 = max(exp_l1, float(np.sum(w * np.abs(mu.values)))
                     / max(float(np.sum(w * np.abs(u.values))), 1e-300))

    coords = grid.coords()
    smooth = ScalarField(grid, np.prod([np.cos(2 * np.pi * c) for c in coords], axis=0))
    rep = mollify_convergence_report(smooth, cfg.h_list)

    files = [
        _write_csv(out / "mollifier_props.csv", ["metric", "value"], [
            ("normalization_error", norm_err),
            ("self_adjointness_max_rel", adj_max),
            ("l1_expansion_max", exp_l1),
            ("l2_expansion_max", exp_l2),
        ]),
        _write_csv(out / "mollifier_convergence.csv", ["h", "norm", "order"], [
            (h_, n_, o_) for h_, n_, o_ in
            zip(rep["h"], rep["norm"], [float("nan")] + rep["order"])
        ]),
    ]
    return files, {}


def run_poincare_scaling(cfg: RunConfig, out: Path, rng) -> tuple:
    grid = Grid(dim=cfg.dim, n_per_axis=cfg.n)
    coords = grid.coords()
    rows = []
    base = None
    for s in cfg.eps_list:
        inside = np.ones(grid.shape, dtype=bool)
        for c in coords:
            inside &= np.abs(c) <= 0.5 * s + 1e-12
        est = poincare_constant(ScalarField(grid, inside.astype(float)), grid,
                                seed=cfg.seed)
        if base is None:
            base = est.value
        rows.append((s, est.value, est.value / base, s / cfg.eps_list[0],
                     est.iterations, est.residual))
    return [_write_csv(out / "poincare_scaling.csv",
                       ["eps", "value", "ratio", "expected_ratio", "iterations", "residual"],
                       rows)], {}


def run_extension_bounds(cfg: RunConfig, out: Path, rng) -> tuple:
    rows = []
    for eps in cfg.eps_list:
        n_eps = round((cfg.n - 1) / eps) + 1
        grid = Grid(dim=cfg.dim, n_per_axis=n_eps)
        mask = build_phase_mask(cfg.pattern, eps, grid)
        coords = grid.coords()
        vals = np.stack([np.sin(np.pi * coords[0]) * np.cos(np.pi * coords[k])
                         for k in range(grid.dim)])
        w_s = VectorField(grid, vals)
        h = 0.1 * eps
        r0 = cfg.pattern.solid_radius if cfg.pattern.has_inclusion else None
        ext = extend_solid(w_s, mask, h, solid_radius=r0)
        solid_norm = l2_norm(w_s, ScalarField(grid, 1.0 - mask.chi_eps))
        m_solid = l2_norm(ext) / max(solid_norm, 1e-300)
        w_f = VectorField(grid, -vals)
        ext_f = extend_fluid(w_f, w_s, mask)
        ident = float(np.max(np.abs((ext_f.values - w_f.values) * mask.chi_eps)))
        rows.append((eps, m_solid, ident, h))
    return [_write_csv(out / "extension_bounds.csv",
                       ["eps", "m_solid", "fluid_identity_error", "h"], rows)], {}


def run_micro_sim(cfg: RunConfig, out: Path, rng) -> tuple:
    grid = Grid(dim=cfg.dim, n_per_axis=cfg.n)
    mask = build_phase_mask(cfg.pattern, cfg.material.epsilon, grid)
    mask = init_fluid_partition(mask, cfg.interface_plane)
    ms = MicroSolver(mask, cfg.material, advance_transport=True, solver="cg")
    iface_rows = []
    for _ in range(cfg.steps):
        st = ms.step()
        summ = interface_summary(st.chi, mask)
        iface_rows.append((st.t, summ["mean_x1"], summ["width"]))
    files = [
        _write_csv(out / "energy.csv",
                   ["t", "elastic", "compressive", "dissipated", "work", "residual"],
                   ms.history),
        _write_csv(out / "interface.csv", ["t", "mean_x1", "width"], iface_rows),
        _write_csv(out / "trace.csv", ["t", "cg_iterations", "cg_residual", "cfl_margin"],
                   ms.trace),
    ]
    for name, field in (("w", ms.state.w), ("v", ms.state.v),
                        ("mu", ms.state.mu), ("chi", ms.state.chi)):
        p = out / f"state_{name}.csv"
        save_field(p, field)
        files.append(p)
    stats = {f"{stage}_s": f"{seconds:.4f}" for stage, seconds in ms.stage_seconds.items()}
    stats["step_operator_nnz"] = ms.operator_nnz
    return files, stats


def run_cell_problems(cfg: RunConfig, out: Path, rng) -> tuple:
    cell = periodic_cell_grid(cfg.dim, cfg.n)
    mask = build_phase_mask(cfg.pattern, 1.0, cell)
    K, asym = permeability_from_mask(mask, cfg.material.mu1)
    C = elasticity_from_mask(mask, cfg.material.lam)
    rows = [("porosity", "", porosity(mask)), ("K_asymmetry", "", asym)]
    for i in range(cfg.dim):
        for j in range(cfg.dim):
            rows.append(("K", f"{i}{j}", K[i, j]))
    for a in range(C.shape[0]):
        for b in range(C.shape[1]):
            rows.append(("C_eff", f"{a}{b}", C[a, b]))
    return [_write_csv(out / "effective_tensors.csv", ["tensor", "index", "value"], rows)], {}


def run_eps_convergence(cfg: RunConfig, out: Path, rng) -> tuple:
    eps_list = [e for e in cfg.eps_list if e < 1.0] or list(cfg.eps_list)
    rows = compare_micro_macro(cfg.pattern, cfg.material, eps_list, nodes_per_cell=cfg.n)
    stats = {"al_steps": ",".join(str(r["steps"]) for r in rows),
             "al_converged": ",".join(str(int(r["converged"])) for r in rows)}
    return [_write_csv(out / "eps_convergence.csv",
                       ["eps", "micro_flux", "darcy_flux", "rel_error", "observed_order",
                        "converged"],
                       [(r["eps"], r["micro_flux"], r["darcy_flux"], r["rel_error"],
                         r["observed_order"], int(r["converged"])) for r in rows])], stats


# Each experiment returns (output files, extra manifest lines {key: value}).
REGISTRY = {
    "mollifier-props": run_mollifier_props,
    "poincare-scaling": run_poincare_scaling,
    "extension-bounds": run_extension_bounds,
    "micro-sim": run_micro_sim,
    "cell-problems": run_cell_problems,
    "eps-convergence": run_eps_convergence,
}


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far (ru_maxrss counts KiB
    on Linux, bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def _write_manifest(out: Path, cfg_text: str, status: str, elapsed: float, files,
                    stats=None):
    import scipy
    with open(out / "manifest.txt", "w") as fh:
        fh.write(f"porohom {__version__}\n")
        fh.write(f"python {sys.version.split()[0]} numpy {np.__version__} scipy {scipy.__version__}\n")
        fh.write(f"status {status}\n")
        fh.write(f"wall_time_s {elapsed:.3f}\n")
        fh.write(f"peak_rss_mb {_peak_rss_mb():.1f}\n")
        for key, value in (stats or {}).items():
            fh.write(f"{key} {value}\n")
        fh.write("outputs " + " ".join(str(Path(f).name) for f in files) + "\n")
        fh.write("--- config ---\n")
        fh.write(cfg_text)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="porohom", description=__doc__)
    ap.add_argument("experiment", help="experiment name from the registry")
    ap.add_argument("--config", required=True, help="path to the run configuration")
    ap.add_argument("--out", default=None, help="output directory (overrides config)")
    ap.add_argument("--seed", type=int, default=None, help="PRNG seed (overrides config)")
    args = ap.parse_args(argv)

    if args.experiment not in REGISTRY:
        print(f"unknown experiment {args.experiment!r}; registry: {', '.join(REGISTRY)}",
              file=sys.stderr)
        return 1
    try:
        cfg_text = Path(args.config).read_text()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(cfg_text)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if cfg.experiment != args.experiment:
        print(f"config {args.config} is for experiment {cfg.experiment!r}, "
              f"not {args.experiment!r}", file=sys.stderr)
        return 1
    if args.seed is not None:
        cfg.seed = args.seed
    out = Path(args.out or cfg.out_dir)
    try:
        return _run(args.experiment, cfg, cfg_text, out)
    except OSError as exc:
        print(f"cannot write to output directory {out}: {exc}", file=sys.stderr)
        return 1


def _run(experiment: str, cfg: RunConfig, cfg_text: str, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    rng = XorShift64Star(cfg.seed)
    start = time.perf_counter()
    try:
        files, stats = REGISTRY[experiment](cfg, out, rng)
    except ValueError as exc:
        _write_manifest(out, cfg_text, f"validation-failure: {exc}",
                        time.perf_counter() - start, [])
        print(str(exc), file=sys.stderr)
        return 1
    except (RuntimeError, MemoryError) as exc:
        msg = str(exc) or type(exc).__name__
        _write_manifest(out, cfg_text, f"solver-failure: {msg}", time.perf_counter() - start, [])
        print(msg, file=sys.stderr)
        return 2
    _write_manifest(out, cfg_text, "ok", time.perf_counter() - start, files, stats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
