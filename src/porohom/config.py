"""Plain-text run configuration: `key = value` lines, `#` comments and the
sections [experiment], [grid], [material].  Validation collects every
violation (with line numbers for syntax errors) instead of stopping at the
first.

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

# (section, key) -> (default, parser).  The [material] defaults are
# MaterialParams' own, except epsilon, which it does not hold.
def _floats(s):
    return tuple(float(t) for t in s.split(",") if t.strip())


DEFAULTS = {
    ("experiment", "name"): (None, str),
    ("experiment", "out_dir"): ("runs", str),
    ("experiment", "seed"): (0, int),
    ("experiment", "steps"): (10, int),
    ("experiment", "eps_list"): ((1.0, 0.5, 0.25), _floats),
    ("experiment", "h_list"): ((0.25, 0.125, 0.0625), _floats),
    ("experiment", "interface_plane"): (0.0, float),
    ("grid", "dim"): (2, int),
    ("grid", "n"): (33, int),
    ("grid", "pattern"): ("disk", str),
    ("grid", "r0"): (0.25, float),
    ("material", "mu1"): (MaterialParams.mu1, float),
    ("material", "mu2"): (MaterialParams.mu2, float),
    ("material", "lambda"): (MaterialParams.lam, float),
    ("material", "c_f1"): (MaterialParams.c_f1, float),
    ("material", "c_f2"): (MaterialParams.c_f2, float),
    ("material", "c_s"): (MaterialParams.c_s, float),
    ("material", "p0"): (MaterialParams.p0, float),
    ("material", "p_grad"): (MaterialParams.p_drive_grad[0], float),
    ("material", "epsilon"): (0.5, float),
    ("material", "h_mollify"): (MaterialParams.h_mollify, float),
    ("material", "tau"): (MaterialParams.tau, float),
}


class ConfigError(ValueError):
    def __init__(self, problems):
        self.problems = list(problems)
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
    values = {}
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
        if slot not in DEFAULTS:
            problems.append(f"line {lineno}: unknown key {key!r} in section [{section}]")
            continue
        if slot in seen:
            problems.append(
                f"line {lineno}: duplicate key {key!r} (first set on line {seen[slot]})")
            continue
        seen[slot] = lineno
        _, conv = DEFAULTS[slot]
        try:
            values[slot] = conv(val)
        except ValueError:
            problems.append(f"line {lineno}: cannot parse value {val!r} for key {key!r}")

    def get(section, key):
        slot = (section, key)
        return values.get(slot, DEFAULTS[slot][0])

    def build(where, make, *args, **kwargs):
        """make(*args, **kwargs), or None with each line of its ValueError
        appended to problems."""
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            problems.extend(f"{where} {line}" for line in str(exc).splitlines())
            return None

    name = get("experiment", "name")
    if name is None:
        problems.append("missing required key `name` in [experiment]")
    elif name not in EXPERIMENTS:
        problems.append(f"unknown experiment {name!r}; registry: {', '.join(EXPERIMENTS)}")
    steps = get("experiment", "steps")
    if steps < 1:
        problems.append(f"steps must be >= 1, got {steps}")
    eps_list = get("experiment", "eps_list")
    if not eps_list:
        problems.append("eps_list must not be empty")
    for e in eps_list:
        build("eps_list:", cells_across, e)
    h_list = get("experiment", "h_list")
    if not h_list:
        problems.append("h_list must not be empty")
    if any(b >= a for a, b in zip(h_list, h_list[1:])):
        problems.append(f"h_list must be strictly decreasing, got {h_list}")
    plane = get("experiment", "interface_plane")
    if not -0.5 < plane < 0.5:
        problems.append(f"interface_plane must lie in (-1/2, 1/2), got {plane}")

    dim, n = get("grid", "dim"), get("grid", "n")
    build("[grid]", Grid, dim, n)
    pattern = build("[grid]", UnitCellPattern, get("grid", "pattern"), get("grid", "r0"))
    epsilon = get("material", "epsilon")
    build("[material]", cells_across, epsilon)
    material = build(
        "[material]", MaterialParams,
        mu1=get("material", "mu1"),
        mu2=get("material", "mu2"),
        lam=get("material", "lambda"),
        c_f1=get("material", "c_f1"),
        c_f2=get("material", "c_f2"),
        c_s=get("material", "c_s"),
        p0=get("material", "p0"),
        p_drive_grad=(get("material", "p_grad"),) + (0.0,) * (dim - 1),
        h_mollify=get("material", "h_mollify"),
        tau=get("material", "tau"),
    )
    if problems:
        raise ConfigError(problems)
    return RunConfig(
        experiment=name,
        out_dir=get("experiment", "out_dir"),
        seed=get("experiment", "seed"),
        steps=steps,
        eps_list=tuple(eps_list),
        h_list=tuple(h_list),
        interface_plane=plane,
        dim=dim,
        n=n,
        pattern=pattern,
        epsilon=epsilon,
        material=material,
    )
