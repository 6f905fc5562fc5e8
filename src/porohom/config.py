"""Plain-text run configuration: `key = value` lines, `#` comments and the
sections [experiment], [grid], [material].  Validation collects every
violation (with line numbers for syntax errors) instead of stopping at the
first.

The table SCHEMA lists each key once with its default, its parser and the
RunConfig or MaterialParams field it fills.

Each value rule has one owner.  parse_config checks the syntax and the
experiment-level keys (name, steps, the eps_list/h_list shapes,
interface_plane); the objects it builds check the rest and parse_config lists
their messages: Grid checks [grid] dim and n, UnitCellPattern [grid] pattern
and r0, MaterialParams every other [material] key, and geometry.cells_across
[material] epsilon (kept as RunConfig.epsilon) and each eps_list entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import UnitCellPattern, cells_across
from .grid import Grid
from .microsim import MaterialParams

__all__ = ["RunConfig", "ConfigError", "parse_config", "EXPERIMENTS"]

EXPERIMENTS = (
    "mollifier-props",
    "poincare-scaling",
    "extension-bounds",
    "micro-sim",
    "cell-problems",
    "eps-convergence",
)

def _floats(s):
    return tuple(float(t) for t in s.split(",") if t.strip())


# (section, key) -> (default, parser, field).  field names a RunConfig field,
# or a MaterialParams field behind "material."; [grid] pattern and r0 become
# the one field pattern.  The [material] defaults are MaterialParams' own,
# except epsilon, which it does not hold.
SCHEMA = {
    ("experiment", "name"): (None, str, "experiment"),
    ("experiment", "out_dir"): ("runs", str, "out_dir"),
    ("experiment", "seed"): (0, int, "seed"),
    ("experiment", "steps"): (10, int, "steps"),
    ("experiment", "eps_list"): ((1.0, 0.5, 0.25), _floats, "eps_list"),
    ("experiment", "h_list"): ((0.25, 0.125, 0.0625), _floats, "h_list"),
    ("experiment", "interface_plane"): (0.0, float, "interface_plane"),
    ("grid", "dim"): (2, int, "dim"),
    ("grid", "n"): (33, int, "n"),
    ("grid", "pattern"): ("disk", str, "pattern"),
    ("grid", "r0"): (0.25, float, "r0"),
    ("material", "mu1"): (MaterialParams.mu1, float, "material.mu1"),
    ("material", "mu2"): (MaterialParams.mu2, float, "material.mu2"),
    ("material", "lambda"): (MaterialParams.lam, float, "material.lam"),
    ("material", "c_f1"): (MaterialParams.c_f1, float, "material.c_f1"),
    ("material", "c_f2"): (MaterialParams.c_f2, float, "material.c_f2"),
    ("material", "c_s"): (MaterialParams.c_s, float, "material.c_s"),
    ("material", "p0"): (MaterialParams.p0, float, "material.p0"),
    ("material", "p_grad"): (MaterialParams.p_drive_grad[0], float, "material.p_drive_grad"),
    ("material", "epsilon"): (0.5, float, "epsilon"),
    ("material", "h_mollify"): (MaterialParams.h_mollify, float, "material.h_mollify"),
    ("material", "tau"): (MaterialParams.tau, float, "material.tau"),
}


class ConfigError(ValueError):
    """Every violation of a config, in order; out_dir is the config's output
    directory, known even when other keys fail."""

    def __init__(self, problems, out_dir):
        self.problems = list(problems)
        self.out_dir = out_dir
        super().__init__("invalid configuration:\n" + "\n".join(self.problems))


@dataclass
class RunConfig:
    experiment: str
    out_dir: str
    seed: int
    steps: int
    eps_list: tuple
    h_list: tuple
    interface_plane: float
    dim: int
    n: int
    pattern: UnitCellPattern
    epsilon: float
    material: MaterialParams


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError listing every violation."""
    problems = []
    seen = {}  # (section, key) -> line number
    fields = {field: default for default, _, field in SCHEMA.values()}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in ("experiment", "grid", "material"):
                problems.append(f"line {lineno}: unknown section [{section}]")
                section = None
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected `key = value`, got {line!r}")
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if section is None:
            problems.append(f"line {lineno}: key {key!r} outside any section")
            continue
        slot = (section, key)
        if slot not in SCHEMA:
            problems.append(f"line {lineno}: unknown key {key!r} in section [{section}]")
            continue
        if slot in seen:
            problems.append(
                f"line {lineno}: duplicate key {key!r} (first set on line {seen[slot]})")
            continue
        seen[slot] = lineno
        _, conv, field = SCHEMA[slot]
        try:
            fields[field] = conv(val)
        except ValueError:
            problems.append(f"line {lineno}: cannot parse value {val!r} for key {key!r}")
    material = {field.removeprefix("material."): fields.pop(field)
                for field in list(fields) if field.startswith("material.")}
    material["p_drive_grad"] = (material["p_drive_grad"],) + (0.0,) * (fields["dim"] - 1)

    def build(where, make, *args, **kwargs):
        """make(*args, **kwargs), or None with each line of its ValueError
        appended to problems."""
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            problems.extend(f"{where} {line}" for line in str(exc).splitlines())
            return None

    name = fields["experiment"]
    if name is None:
        problems.append("missing required key `name` in [experiment]")
    elif name not in EXPERIMENTS:
        problems.append(f"unknown experiment {name!r}; registry: {', '.join(EXPERIMENTS)}")
    if fields["steps"] < 1:
        problems.append(f"steps must be >= 1, got {fields['steps']}")
    if not fields["eps_list"]:
        problems.append("eps_list must not be empty")
    for e in fields["eps_list"]:
        build("eps_list:", cells_across, e)
    h_list = fields["h_list"]
    if not h_list:
        problems.append("h_list must not be empty")
    if any(b >= a for a, b in zip(h_list, h_list[1:])):
        problems.append(f"h_list must be strictly decreasing, got {h_list}")
    plane = fields["interface_plane"]
    if not -0.5 < plane < 0.5:
        problems.append(f"interface_plane must lie in (-1/2, 1/2), got {plane}")

    build("[grid]", Grid, fields["dim"], fields["n"])
    fields["pattern"] = build("[grid]", UnitCellPattern, fields["pattern"], fields.pop("r0"))
    build("[material]", cells_across, fields["epsilon"])
    fields["material"] = build("[material]", MaterialParams, **material)
    if problems:
        raise ConfigError(problems, fields["out_dir"])
    return RunConfig(**fields)
