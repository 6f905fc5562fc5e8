import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import porohom
from porohom import cli, homogenize, solvers
from porohom.config import ConfigError, EXPERIMENTS, parse_config
from porohom.geometry import UnitCellPattern, build_phase_mask
from porohom.homogenize import periodic_cell_grid, permeability_from_mask
from porohom.microsim import MaterialParams
from porohom.rng import XorShift64Star

BASE = """
[experiment]
name = mollifier-props
out_dir = {out}
seed = 3
h_list = 0.2, 0.1, 0.05

[grid]
dim = 2
n = 65

[material]
epsilon = 0.5
tau = 0.01
h_mollify = 0.0
"""


def test_rng_uniform_range_and_determinism():
    a = XorShift64Star(42).array((100,), low=-2.0, high=3.0)
    b = XorShift64Star(42).array((100,), low=-2.0, high=3.0)
    assert np.array_equal(a, b)
    assert a.min() >= -2.0 and a.max() <= 3.0


def test_parse_config_defaults_and_values():
    cfg = parse_config(BASE.format(out="runs"))
    assert cfg.experiment == "mollifier-props"
    assert cfg.seed == 3
    assert cfg.n == 65
    assert cfg.h_list == (0.2, 0.1, 0.05)
    assert cfg.epsilon == 0.5
    assert cfg.material.p_drive_grad == (1.0, 0.0)


def test_parse_config_collects_all_violations_with_lines():
    text = """\
[experiment]
name = mystery-run
seed = not-a-number

[warp]
speed = 9

[material]
epsilon = 0.3
mu1 = -2.0
mu1 = 1.0
"""
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msgs = "\n".join(err.value.problems)
    assert "unknown experiment" in msgs
    assert "line 3" in msgs and "not-a-number" in msgs
    assert "line 5" in msgs and "unknown section" in msgs
    assert "integer reciprocal" in msgs
    assert "must be positive" in msgs
    assert "duplicate key" in msgs and "first set on line 10" in msgs
    assert len(err.value.problems) >= 6


def test_parse_config_lists_problems_in_a_fixed_order():
    # one config breaking a rule of every owner: syntax lines first, in line
    # order, then name, steps, eps_list, h_list, interface_plane, [grid], the
    # pattern, epsilon and MaterialParams
    text = """\
[experiment]
name = mystery-run
steps = 0
eps_list = 0.3
h_list = 0.1, 0.2
interface_plane = 0.7
seed = 1.5
this line has no equals sign

[warp]
speed = 9

[grid]
dim = 4
pattern = hexagon
dim = 2

[material]
viscosity = 2
epsilon = 0.3
mu1 = -2
"""
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.problems == [
        "line 7: cannot parse value '1.5' for key 'seed'",
        "line 8: expected `key = value`, got 'this line has no equals sign'",
        "line 10: unknown section [warp]",
        "line 11: key 'speed' outside any section",
        "line 16: duplicate key 'dim' (first set on line 14)",
        "line 19: unknown key 'viscosity' in section [material]",
        "unknown experiment 'mystery-run'; registry: mollifier-props, poincare-scaling, "
        "extension-bounds, micro-sim, cell-problems, eps-convergence",
        "steps must be >= 1, got 0",
        "eps_list: epsilon must be an integer reciprocal, got 0.3",
        "h_list must be strictly decreasing, got (0.1, 0.2)",
        "interface_plane must lie in (-1/2, 1/2), got 0.7",
        "[grid] dim must be 2 or 3, got 4",
        "[grid] unknown pattern kind 'hexagon', expected one of "
        "('disk', 'sphere', 'square-block', 'full-solid', 'none')",
        "[material] epsilon must be an integer reciprocal, got 0.3",
        "[material] mu1 must be positive, got -2.0",
    ]


def test_parse_config_lists_every_material_problem():
    text = ("[experiment]\nname = micro-sim\n"
            "[material]\nmu1 = -2\ntau = 0\nepsilon = 0.3\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    problems = err.value.problems
    assert len(problems) == 3
    assert any("mu1 must be positive, got -2.0" in p for p in problems)
    assert any("tau must be positive, got 0.0" in p for p in problems)
    assert "[material] epsilon must be an integer reciprocal, got 0.3" in problems


@pytest.mark.parametrize("eps", [0.0, -0.5])
def test_parse_config_rejects_a_non_positive_epsilon(eps):
    text = f"[experiment]\nname = micro-sim\n[material]\nepsilon = {eps}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.problems == [f"[material] epsilon must be an integer reciprocal, got {eps}"]


def test_parse_config_rejects_non_finite_drive_data():
    text = "[experiment]\nname = micro-sim\n[material]\np0 = nan\np_grad = inf\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    problems = err.value.problems
    assert len(problems) == 2
    assert any("p0 must be finite, got nan" in p for p in problems)
    assert any("p_drive_grad must be finite, got (inf, 0.0)" in p for p in problems)


def test_parse_config_reports_grid_and_eps_list_problems():
    text = ("[experiment]\nname = poincare-scaling\neps_list = 0.5, 0.3, -1\n"
            "[grid]\ndim = 4\nn = 2\npattern = hexagon\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msgs = "\n".join(err.value.problems)
    assert len(err.value.problems) == 5
    assert "got 0.3" in msgs and "got -1.0" in msgs
    assert "dim must be 2 or 3" in msgs and "n must be >= 3" in msgs
    assert "unknown pattern kind 'hexagon'" in msgs


@pytest.mark.parametrize("pattern", ["none", "full-solid"])
def test_parse_config_ignores_r0_of_a_pattern_without_inclusion(pattern):
    text = f"[experiment]\nname = cell-problems\n[grid]\npattern = {pattern}\nr0 = 0.7\n"
    cfg = parse_config(text)
    assert cfg.pattern == UnitCellPattern(pattern, 0.7)
    with pytest.raises(ConfigError, match=r"r0\) must lie in \[0, 1/2\), got 0.7"):
        parse_config(text.replace(pattern, "disk"))


@pytest.mark.parametrize("pattern", ["none", "full-solid"])
def test_cli_extension_bounds_ignores_r0_of_a_pattern_without_inclusion(pattern, tmp_path):
    # h = 0.1 * eps = 0.1 lies above the resolution floor 2/32 and would
    # break the ceiling (1/2 - r0) eps / 2 < 0 if r0 were applied
    cfg = tmp_path / "run.ini"
    out = tmp_path / "out"
    cfg.write_text(f"[experiment]\nname = extension-bounds\nout_dir = {out}\neps_list = 1.0\n"
                   f"[grid]\ndim = 2\nn = 33\npattern = {pattern}\nr0 = 0.7\n")
    assert cli.main(["extension-bounds", "--config", str(cfg)]) == 0
    assert (out / "extension_bounds.csv").exists()


def test_parse_config_rejects_bad_lists():
    text = BASE.format(out="runs") + "\n[experiment]"
    # re-opening a section is fine; a rising h_list is not
    bad = BASE.format(out="runs").replace("h_list = 0.2, 0.1, 0.05",
                                          "h_list = 0.05, 0.1")
    with pytest.raises(ConfigError, match="decreasing"):
        parse_config(bad)


@pytest.mark.parametrize("section,line,message", [
    ("experiment", "steps = 0", "steps must be >= 1"),
    ("experiment", "steps = -3", "steps must be >= 1"),
    ("experiment", "eps_list =", "eps_list must not be empty"),
    ("experiment", "h_list =", "h_list must not be empty"),
    ("material", "h_mollify = -1", "h_mollify must be >= 0"),
])
def test_parse_config_rejects_out_of_range_values(section, line, message):
    text = f"[experiment]\nname = mollifier-props\n[{section}]\n{line}\n"
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


def _run_cli(args):
    # the child imports the same porohom as this process, installed or not
    src = str(Path(porohom.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "porohom.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_cli_experiment_writes_outputs_and_manifest(tmp_path):
    cfg = tmp_path / "run.ini"
    out = tmp_path / "out"
    cfg.write_text(BASE.format(out=out))
    proc = _run_cli(["mollifier-props", "--config", str(cfg)])
    assert proc.returncode == 0, proc.stderr
    assert (out / "manifest.txt").exists()
    assert (out / "mollifier_props.csv").exists()
    man = (out / "manifest.txt").read_text()
    assert "status ok" in man


def test_cli_reruns_are_deterministic(tmp_path):
    outs = []
    for tag in ("a", "b"):
        cfg = tmp_path / f"{tag}.ini"
        out = tmp_path / tag
        cfg.write_text(BASE.format(out=out).replace(
            "name = mollifier-props", "name = poincare-scaling"))
        proc = _run_cli(["poincare-scaling", "--config", str(cfg)])
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    for f in sorted(outs[0].glob("*.csv")):
        assert f.read_bytes() == (outs[1] / f.name).read_bytes()


def test_cli_micro_sim_writes_a_deterministic_step_trace(tmp_path):
    outs = []
    for tag in ("a", "b"):
        cfg = tmp_path / f"{tag}.ini"
        out = tmp_path / tag
        cfg.write_text(BASE.format(out=out).replace("name = mollifier-props",
                                                    "name = micro-sim\nsteps = 3")
                       .replace("n = 65", "n = 17"))
        proc = _run_cli(["micro-sim", "--config", str(cfg)])
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    rows = (outs[0] / "trace.csv").read_text().splitlines()
    assert rows[0] == "t,cg_iterations,cg_residual,cfl_margin"
    assert len(rows) == 4 and all(int(r.split(",")[1]) > 0 for r in rows[1:])
    assert "trace.csv" in (outs[0] / "manifest.txt").read_text()
    for f in sorted(outs[0].glob("*.csv")):
        assert f.read_bytes() == (outs[1] / f.name).read_bytes()


def test_parse_config_material_defaults_are_the_material_params_defaults():
    assert parse_config("[experiment]\nname = micro-sim\n").material == MaterialParams()


def test_cli_micro_sim_runs_from_a_config_with_only_a_name(tmp_path):
    # every default step stays inside the CFL bound of the default flow
    cfg = tmp_path / "run.ini"
    out = tmp_path / "out"
    cfg.write_text("[experiment]\nname = micro-sim\n")
    proc = _run_cli(["micro-sim", "--config", str(cfg), "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert "status ok" in (out / "manifest.txt").read_text().splitlines()
    rows = (out / "trace.csv").read_text().splitlines()[1:]
    assert len(rows) == 10 and all(0 < float(r.split(",")[3]) < 1 for r in rows)


def test_cli_mollifier_props_runs_from_a_config_with_only_a_name(tmp_path):
    # the default h_list ends at the resolution floor of the default grid
    cfg = tmp_path / "run.ini"
    out = tmp_path / "out"
    cfg.write_text("[experiment]\nname = mollifier-props\n")
    proc = _run_cli(["mollifier-props", "--config", str(cfg), "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert "status ok" in (out / "manifest.txt").read_text().splitlines()


def test_cli_infinite_h_list_exits_1_without_traceback(tmp_path):
    cfg = tmp_path / "bad.ini"
    out = tmp_path / "out"
    cfg.write_text(f"[experiment]\nname = mollifier-props\nout_dir = {out}\nh_list = inf\n")
    proc = _run_cli(["mollifier-props", "--config", cfg.as_posix()])
    assert proc.returncode == 1
    assert "mollification radius must be finite, got inf" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "validation-failure" in (out / "manifest.txt").read_text()
    assert not list(out.glob("*.csv"))


def test_cli_infinite_h_mollify_is_rejected_with_the_config(tmp_path):
    cfg = tmp_path / "bad.ini"
    out = tmp_path / "out"
    cfg.write_text("[experiment]\nname = micro-sim\n[material]\nmu2 = 3\nh_mollify = inf\n")
    proc = _run_cli(["micro-sim", "--config", cfg.as_posix(), "--out", str(out)])
    assert proc.returncode == 1
    assert "h_mollify must be finite, got inf" in proc.stderr
    assert "Traceback" not in proc.stderr
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "status validation-failure: [material] h_mollify must be finite, got inf" in manifest
    assert not list(out.glob("*.csv"))


def test_cli_rejected_config_leaves_a_manifest_in_its_out_dir(tmp_path, capsys):
    # out_dir is known even when other keys fail; without one it is the default
    with pytest.raises(ConfigError) as err:
        parse_config("[experiment]\nname = micro-sim\nsteps = 0\n")
    assert err.value.out_dir == "runs"
    cfg = tmp_path / "bad.ini"
    out = tmp_path / "out"
    cfg.write_text(f"[experiment]\nname = micro-sim\nout_dir = {out}\nsteps = 0\n"
                   "[grid]\nn = 2\n")
    assert cli.main(["micro-sim", "--config", str(cfg)]) == 1
    manifest = (out / "manifest.txt").read_text()
    assert ("\nstatus validation-failure: steps must be >= 1, got 0; "
            "[grid] n must be >= 3 nodes per axis, got 2\n") in manifest
    assert manifest.endswith("--- config ---\n" + cfg.read_text())
    assert "outputs \n" in manifest and not list(out.glob("*.csv"))
    assert "steps must be >= 1, got 0" in capsys.readouterr().err


def test_cli_validation_failure_exit_code(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[material]\nepsilon = 0.3\n")
    proc = _run_cli(["micro-sim", "--config", cfg.as_posix(), "--out", str(tmp_path / "out")])
    assert proc.returncode == 1
    assert "integer reciprocal" in (proc.stderr + proc.stdout)


def test_cli_infinite_epsilon_exits_1_without_traceback(tmp_path):
    cfg = tmp_path / "bad.ini"
    out = tmp_path / "out"
    cfg.write_text(f"[experiment]\nname = micro-sim\nout_dir = {out}\n"
                   "[material]\nepsilon = inf\n")
    proc = _run_cli(["micro-sim", "--config", cfg.as_posix(), "--out", str(out)])
    assert proc.returncode == 1
    assert "epsilon must be an integer reciprocal, got inf" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "validation-failure" in (out / "manifest.txt").read_text()
    assert not list(out.glob("*.csv"))


def test_cli_non_finite_drive_exits_1_before_any_step(tmp_path):
    cfg = tmp_path / "bad.ini"
    out = tmp_path / "out"
    cfg.write_text(f"[experiment]\nname = micro-sim\nout_dir = {out}\nsteps = 1\n"
                   "[material]\np_grad = inf\n")
    proc = _run_cli(["micro-sim", "--config", cfg.as_posix(), "--out", str(out)])
    assert proc.returncode == 1
    assert "p_drive_grad must be finite" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (out / "energy.csv").exists()


def test_cli_infinite_lambda_exits_1_without_a_warning(tmp_path):
    cfg = tmp_path / "bad.ini"
    out = tmp_path / "out"
    cfg.write_text(f"[experiment]\nname = micro-sim\nout_dir = {out}\nsteps = 2\n"
                   "[grid]\nn = 17\n[material]\nlambda = inf\n")
    proc = _run_cli(["micro-sim", "--config", cfg.as_posix(), "--out", str(out)])
    assert proc.returncode == 1
    assert "lam must be finite, got inf" in proc.stderr
    assert "Warning" not in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (out / "energy.csv").exists()


@pytest.mark.parametrize("second_fluid", ["mu2 = 3", "c_f2 = 2"])
def test_cli_eps_convergence_rejects_a_second_fluid(tmp_path, second_fluid):
    # the micro/macro comparison is single-fluid; a second fluid is an error,
    # not silently replaced by the first
    cfg = tmp_path / "two.ini"
    out = tmp_path / "out"
    cfg.write_text(f"[experiment]\nname = eps-convergence\nout_dir = {out}\n"
                   f"eps_list = 0.5, 0.25\n[grid]\nn = 8\n[material]\n{second_fluid}\n")
    proc = _run_cli(["eps-convergence", "--config", cfg.as_posix()])
    assert proc.returncode == 1
    assert "single fluid" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "validation-failure" in (out / "manifest.txt").read_text()
    assert not (out / "eps_convergence.csv").exists()


def test_cli_eps_convergence_of_one_fluid_never_mollifies(tmp_path):
    # at eps = 1/2 the grid has 17 nodes, so the default h_mollify 0.1 is
    # below the floor 2/16; one viscosity needs no mollification
    cfg = tmp_path / "one.ini"
    out = tmp_path / "out"
    cfg.write_text(f"[experiment]\nname = eps-convergence\nout_dir = {out}\n"
                   "eps_list = 0.5, 0.25\n[grid]\nn = 8\n")
    assert cli.main(["eps-convergence", "--config", str(cfg)]) == 0
    assert (out / "eps_convergence.csv").exists()


def test_cli_eps_convergence_runs_every_listed_level(tmp_path):
    # eps = 1 is a level like any other: one cell across the box
    cfg = tmp_path / "one_cell.ini"
    out = tmp_path / "out"
    cfg.write_text(f"[experiment]\nname = eps-convergence\nout_dir = {out}\n"
                   "eps_list = 1.0, 0.5\n[grid]\nn = 8\n")
    assert cli.main(["eps-convergence", "--config", str(cfg)]) == 0
    rows = (out / "eps_convergence.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [1.0, 0.5]
    assert all(r.split(",")[-1] == "1" for r in rows)


def test_cli_eps_convergence_rejects_an_under_resolved_cell(tmp_path):
    # nodes per cell is n as configured, not raised to a floor behind the
    # manifest's back
    cfg = tmp_path / "coarse.ini"
    out = tmp_path / "out"
    cfg.write_text(f"[experiment]\nname = eps-convergence\nout_dir = {out}\n"
                   "eps_list = 0.5, 0.25\n[grid]\nn = 6\n")
    proc = _run_cli(["eps-convergence", "--config", cfg.as_posix()])
    assert proc.returncode == 1
    assert "cell under-resolved on axis 0: 6.0 nodes/cell" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "validation-failure" in (out / "manifest.txt").read_text()
    assert not (out / "eps_convergence.csv").exists()


def test_cli_micro_sim_of_two_fluids_rejects_an_unresolved_mollifier(tmp_path):
    cfg = tmp_path / "two.ini"
    out = tmp_path / "out"
    cfg.write_text(f"[experiment]\nname = micro-sim\nout_dir = {out}\nsteps = 2\n"
                   "[grid]\nn = 17\n[material]\nmu2 = 3\n")
    proc = _run_cli(["micro-sim", "--config", cfg.as_posix()])
    assert proc.returncode == 1
    assert "below resolution floor" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "validation-failure" in (out / "manifest.txt").read_text()
    assert not list(out.glob("*.csv"))


def test_cli_unwritable_output_directory_exits_1_without_traceback(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(BASE.format(out=tmp_path / "ignored"))
    (tmp_path / "a_file").write_text("not a directory\n")
    proc = _run_cli(["mollifier-props", "--config", str(cfg),
                     "--out", str(tmp_path / "a_file" / "sub")])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "cannot write to output directory" in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def test_cli_unknown_experiment_rejected(tmp_path):
    cfg = tmp_path / "x.ini"
    cfg.write_text(BASE.format(out=tmp_path / "o"))
    proc = _run_cli(["teleport", "--config", str(cfg)])
    assert proc.returncode == 1
    assert "unknown experiment" in proc.stderr


def test_cli_rejects_a_config_for_another_experiment(tmp_path):
    cfg = tmp_path / "x.ini"
    out = tmp_path / "o"
    cfg.write_text(BASE.format(out=out))  # name = mollifier-props
    proc = _run_cli(["poincare-scaling", "--config", str(cfg)])
    assert proc.returncode == 1
    assert "'mollifier-props'" in proc.stderr and "'poincare-scaling'" in proc.stderr
    assert not out.exists()


def test_cli_override_flags(tmp_path):
    cfg = tmp_path / "run.ini"
    out = tmp_path / "flagged"
    cfg.write_text(BASE.format(out=tmp_path / "ignored"))
    proc = _run_cli(["mollifier-props", "--config", str(cfg),
                     "--out", str(out), "--seed", "9"])
    assert proc.returncode == 0, proc.stderr
    assert (out / "manifest.txt").exists()


def test_registry_matches_config_module():
    assert set(EXPERIMENTS) == {
        "mollifier-props", "poincare-scaling", "extension-bounds",
        "micro-sim", "cell-problems", "eps-convergence"}


def test_cli_registry_has_every_config_experiment():
    assert set(cli.REGISTRY) == set(EXPERIMENTS)


def _manifest_lines(out):
    head = (out / "manifest.txt").read_text().split("--- config ---")[0]
    return dict(line.split(" ", 1) for line in head.splitlines())


def test_manifest_reports_peak_memory_and_the_micro_sim_stages(tmp_path):
    cfg = tmp_path / "sim.ini"
    cfg.write_text(BASE.format(out=tmp_path / "sim").replace(
        "name = mollifier-props", "name = micro-sim\nsteps = 3").replace("n = 65", "n = 17"))
    assert cli.main(["micro-sim", "--config", str(cfg)]) == 0
    lines = _manifest_lines(tmp_path / "sim")
    assert float(lines["peak_rss_mb"]) > 0
    stages = [float(lines[f"{stage}_s"]) for stage in ("assemble", "solve", "transport")]
    assert all(t > 0 for t in stages)
    assert sum(stages) <= float(lines["wall_time_s"]) + 1e-3
    assert int(lines["step_operator_nnz"]) > 0
    # poincare-scaling reports the preconditioner of each level's eigensolve
    # instead; the CSV keeps its six columns
    for n, precond in ((17, "multigrid,multigrid,multigrid"), (16, "factor,multigrid,multigrid")):
        out = tmp_path / f"poincare{n}"
        cfg = tmp_path / f"poincare{n}.ini"
        cfg.write_text(BASE.format(out=out).replace(
            "name = mollifier-props", "name = poincare-scaling").replace("n = 65", f"n = {n}"))
        assert cli.main(["poincare-scaling", "--config", str(cfg)]) == 0
        lines = _manifest_lines(out)
        assert float(lines["peak_rss_mb"]) > 0 and "assemble_s" not in lines
        assert "al_steps" not in lines
        # n = 16 cannot be halved; its two smaller boxes are small enough for
        # the V-cycle to be one factored level
        assert lines["eigen_precond"] == precond
        header = (out / "poincare_scaling.csv").read_text().splitlines()[0]
        assert header == "eps,value,ratio,expected_ratio,iterations,residual"
    # eps-convergence reports the steady solve of each level; the CSV keeps
    # its six columns
    cfg = tmp_path / "eps.ini"
    cfg.write_text(f"[experiment]\nname = eps-convergence\nout_dir = {tmp_path / 'eps'}\n"
                   "eps_list = 0.5, 0.25\n[grid]\nn = 8\n")
    assert cli.main(["eps-convergence", "--config", str(cfg)]) == 0
    lines = _manifest_lines(tmp_path / "eps")
    rows = (tmp_path / "eps" / "eps_convergence.csv").read_text().splitlines()
    assert rows[0].split(",") == ["eps", "micro_flux", "darcy_flux", "rel_error",
                                  "observed_order", "converged"]
    steps = [int(k) for k in lines["al_steps"].split(",")]
    assert len(steps) == 2 and all(k >= 2 for k in steps)
    assert lines["al_converged"] == ",".join(row.split(",")[-1] for row in rows[1:]) == "1,1"


def test_unconverged_cell_problem_raises_and_cli_exits_2(tmp_path, monkeypatch):
    monkeypatch.setattr(homogenize, "CELL_CG_MAX_ITER", 2)
    mask = build_phase_mask(UnitCellPattern("disk", 0.25), 1.0, periodic_cell_grid(2, 16))
    with pytest.raises(RuntimeError, match="cell-problem CG failed"):
        permeability_from_mask(mask, 1.0)
    cfg = tmp_path / "run.ini"
    out = tmp_path / "out"
    cfg.write_text(BASE.format(out=out).replace(
        "name = mollifier-props", "name = cell-problems").replace("n = 65", "n = 16"))
    assert cli.main(["cell-problems", "--config", str(cfg)]) == 2
    assert "status solver-failure: cell-problem CG failed" in (out / "manifest.txt").read_text()
    assert not (out / "effective_tensors.csv").exists()


def test_cli_unconverged_power_iteration_exits_2(tmp_path, monkeypatch):
    monkeypatch.setattr(solvers, "POWER_MAX_OUTER", 1)
    cfg = tmp_path / "run.ini"
    out = tmp_path / "out"
    cfg.write_text(BASE.format(out=out).replace(
        "name = mollifier-props", "name = poincare-scaling").replace("n = 65", "n = 17"))
    assert cli.main(["poincare-scaling", "--config", str(cfg)]) == 2
    assert "status solver-failure" in (out / "manifest.txt").read_text()
    assert not (out / "poincare_scaling.csv").exists()


def test_cli_out_of_memory_is_a_solver_failure(tmp_path, monkeypatch):
    def exhausted(cfg, out, rng):
        raise MemoryError

    monkeypatch.setitem(cli.REGISTRY, "mollifier-props", exhausted)
    cfg = tmp_path / "run.ini"
    out = tmp_path / "out"
    cfg.write_text(BASE.format(out=out))
    assert cli.main(["mollifier-props", "--config", str(cfg)]) == 2
    assert "status solver-failure: MemoryError" in (out / "manifest.txt").read_text()
    assert not list(out.glob("*.csv"))
