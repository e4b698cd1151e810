"""Command-line entry point.

Configuration lives in an INI-style file ("key = value" lines under
[section] headers, '#' comments, UTF-8); runs with dozens of parameters
do not fit on a command line.  CONFIG_KEYS declares each key once (section,
key, which is also its RunConfig field, default, parser, help comment), and
_COMMANDS the keys each command reads; the RunConfig defaults and the
grammar that `mlpicard --help-config` prints are derived from them.
Unknown sections or keys are rejected, and so is a key that the command
does not read.

Exit codes (fixed contract for scripting):
    0   success
    2   configuration problem (bad file, bad key, bad value, bad ranges)
    3   numeric failure (oracle blow-up, failed self-check, overflow,
        non-finite estimate or a-priori bound)
    4   level-selection cap exceeded

Each subcommand takes only the flags it reads, as _COMMANDS declares them,
and argparse refuses any other; --threads (default 1) affects wall time
only, never values.
With a fixed config and seed, emitted CSVs are byte-identical across runs
and thread counts, wall-time columns excluded.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import importlib.resources
import math
import sys
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from . import bounds, experiments, oracles, problem as problem_mod
from .estimator import MlpParams, estimate_batch
from .problem import Orientation, PdeProblem
from .randomness import path_digest, uniform01, uniforms_vec, verify_golden


class ConfigError(Exception):
    """Anything wrong with the run configuration (exit code 2)."""


# configuration -----------------------------------------------------------

def _parse_choice(raw, choices, key):
    value = raw.strip().lower()
    if value not in choices:
        raise ConfigError(f"{key} must be one of {sorted(choices)}, got {raw!r}")
    return value


def _parser(convert, what):
    # a (raw, key) parser: convert(raw), or a ConfigError saying that key
    # must be what.  int and float ignore surrounding whitespace themselves
    def parse(raw, key):
        try:
            return convert(raw)
        except ValueError:
            raise ConfigError(f"{key} must be {what}, got {raw!r}") from None
    return parse


_parse_int = _parser(int, "an integer")
_parse_float = _parser(float, "a number")
_parse_int_list = _parser(lambda raw: tuple(map(int, raw.split(","))),
                          "a comma list of integers")
_parse_float_list = _parser(lambda raw: tuple(map(float, raw.split(","))),
                            "a comma list of numbers")
# diagonal (M = n) is None
_parse_branching = _parser(
    lambda raw: None if raw.strip() == "diagonal" else int(raw),
    "diagonal or an integer")


@dataclass(frozen=True)
class ConfigKey:
    """One config key: its section, default and grammar line.

    ``key`` is also the RunConfig field.  ``default`` is the text the
    grammar shows; empty means unset (None), otherwise the default value is
    ``parse`` applied to it.  ``parse`` is a parser taking (raw, key) or a
    tuple of allowed words, which then also open the help comment.
    """

    section: str
    key: str
    default: str
    parse: object
    comment: str = ""

    def parse_value(self, raw: str):
        where = f"[{self.section}] {self.key}"
        if isinstance(self.parse, tuple):
            return _parse_choice(raw, self.parse, where)
        return self.parse(raw, where)

    @property
    def default_value(self):
        return self.parse_value(self.default) if self.default else None

    def grammar_line(self) -> str:
        comment = self.comment
        if isinstance(self.parse, tuple):
            comment = " ".join(filter(None, (" | ".join(self.parse), comment)))
        comment = "; ".join(filter(None, (comment,
                                          f"read by {_readers(self.key)}")))
        return f"{self.key:<13}= {self.default:<12} # {comment}"


_ORIENTATIONS = tuple(o.value for o in Orientation)
_BOUNDARIES = tuple(b.value for b in oracles.Boundary)


def _builtin_parameter(kind, key, what):
    # a [problem] parameter of the builtins of kind; its help names those
    # that take it, with their defaults, from the problem module's registry
    readers = " | ".join(
        name if default is None else f"{name} (default {default!r})"
        for name, (param, default) in
        problem_mod.builtin_parameters(kind).items() if param == key)
    return ConfigKey("problem", key, "", _parse_float,
                     f"{what} of {readers}")


CONFIG_KEYS = (
    ConfigKey("problem", "dimension", "1", _parse_int, "integer >= 1"),
    ConfigKey("problem", "horizon", "0.5", _parse_float, "T > 0"),
    ConfigKey("problem", "orientation", "forward", _ORIENTATIONS),
    ConfigKey("problem", "nonlinearity", "allen_cahn",
              tuple(problem_mod.builtin_parameters("nonlinearity"))),
    _builtin_parameter("nonlinearity", "a", "coefficient"),
    ConfigKey("problem", "data", "constant",
              tuple(problem_mod.builtin_parameters("data"))),
    _builtin_parameter("data", "value", "datum value"),
    _builtin_parameter("data", "kappa", "datum amplitude"),
    ConfigKey("estimator", "levels", "1", _parse_int, "n >= 0"),
    ConfigKey("estimator", "n_list", "0,1,2,3,4", _parse_int_list),
    ConfigKey("estimator", "branching", "diagonal", _parse_branching,
              "diagonal (M = n) | integer >= 1"),
    ConfigKey("estimator", "radius", "", _parse_float,
              "default rho_min(problem)"),
    ConfigKey("estimator", "repetitions", "1", _parse_int, "K >= 1"),
    ConfigKey("estimator", "seed", "0", _parse_int),
    ConfigKey("evaluation", "t", "", _parse_float, "default: horizon"),
    ConfigKey("evaluation", "x", "0", _parse_float_list,
              "scalar (broadcast) or comma list of length d"),
    ConfigKey("experiment", "d_list", "1,10,100", _parse_int_list),
    ConfigKey("experiment", "n", "3", _parse_int, "fixed n = M"),
    ConfigKey("experiment", "epsilon_list",
              "0.5,0.25,0.125,0.0625,0.03125,0.015625", _parse_float_list),
    ConfigKey("experiment", "delta", "1.0", _parse_float,
              "exponent offset, > 0"),
    ConfigKey("experiment", "n_max", "64", _parse_int,
              "level-selection cap"),
    ConfigKey("experiment", "constants", "problem",
              ("problem", "surrogate"), "(kappa=1, f0=0, T=1, L=0)"),
    ConfigKey("oracle", "kind", "ode", ("ode", "fd")),
    ConfigKey("oracle", "u0", "", _parse_float,
              "ode initial value; default: constant datum"),
    ConfigKey("oracle", "h", "", _parse_float, "ode step; default horizon/1000"),
    ConfigKey("oracle", "times", "", _parse_float_list,
              "ode output ladder; default 5 evenly spaced"),
    ConfigKey("oracle", "half_width", "6.0", _parse_float,
              "fd domain is [-half_width, half_width]"),
    ConfigKey("oracle", "grid_points", "201", _parse_int),
    ConfigKey("oracle", "dt", "0.0001", _parse_float),
    ConfigKey("oracle", "boundary", "neumann", _BOUNDARIES),
)

_SCHEMA = {(k.section, k.key): k for k in CONFIG_KEYS}
_SECTIONS = sorted({k.section for k in CONFIG_KEYS})


def _readers(key: str) -> str:
    # the commands whose _COMMANDS entry declares that they read key
    return ", ".join(name for name, (_, _, keys, _) in _COMMANDS.items()
                     if key in keys.split())


def _grammar() -> str:
    lines = ["Configuration file grammar (INI style, '#' comments, "
             "all keys optional):"]
    section = None
    for k in CONFIG_KEYS:
        if k.section != section:
            section = k.section
            lines += ["", f"[{section}]"]
        lines.append(k.grammar_line())
    return "\n".join(lines) + "\n"


RunConfig = dataclasses.make_dataclass(
    "RunConfig",
    [(k.key, Any, dataclasses.field(default=k.default_value))
     for k in CONFIG_KEYS],
    frozen=True,
)
RunConfig.__module__ = __name__
RunConfig.__doc__ = "Typed view of a configuration file; one field per CONFIG_KEYS row."


def parse_config(text: str, command: str) -> RunConfig:
    """Parse config text for command; unknown sections or keys, and keys
    that command does not read, raise ConfigError."""
    parser = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), comment_prefixes=("#",)
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None
    updates = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(
                f"unknown section [{section}]; known: {_SECTIONS}"
            )
        for key, raw in parser.items(section):
            try:
                spec = _SCHEMA[(section, key)]
            except KeyError:
                known = sorted(k for (s, k) in _SCHEMA if s == section)
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]; known: {known}"
                ) from None
            if key not in _COMMANDS[command][2].split():
                raise ConfigError(f"{command} does not read [{section}] {key}"
                                  f" (read by {_readers(key)})")
            updates[key] = spec.parse_value(raw)
    return RunConfig(**updates)


def load_config(path: Optional[str], command: str) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read(), command)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None


# config -> library objects -------------------------------------------------


def build_problem(config: RunConfig) -> PdeProblem:
    # each builtin gets the [problem] parameters of its kind that the config
    # sets; one it does not read is a ValueError, so the run exits 2
    def params(kind):
        return {key: getattr(config, key)
                for key, _ in problem_mod.builtin_parameters(kind).values()
                if key and getattr(config, key) is not None}

    return problem_mod.make_problem(
        dimension=config.dimension,
        horizon=config.horizon,
        orientation=Orientation(config.orientation),
        nonlinearity=problem_mod.builtin_nonlinearity(
            config.nonlinearity, **params("nonlinearity")),
        data=problem_mod.builtin_data(config.data, config.dimension,
                                      **params("data")),
    )


def resolve_point(config: RunConfig, prob: PdeProblem):
    t = prob.horizon if config.t is None else config.t
    if len(config.x) == 1:
        x = np.full(prob.dimension, config.x[0])
    elif len(config.x) == prob.dimension:
        x = np.array(config.x, dtype=np.float64)
    else:
        raise ConfigError(
            f"[evaluation] x has {len(config.x)} entries, expected 1 or "
            f"{prob.dimension}"
        )
    return t, x


def _scalar_ode_f(prob: PdeProblem):
    nl = prob.nonlinearity
    if not nl.autonomous:
        raise ConfigError(
            "the ODE reduction needs an autonomous nonlinearity"
        )
    t0 = np.zeros(1)
    x0 = np.zeros((1, prob.dimension))

    def f(y: float) -> float:
        return float(np.asarray(nl.eval(t0, x0, np.array([y])))[0])

    return f


def _ode_oracle(config: RunConfig, prob: PdeProblem) -> oracles.OdeOracle:
    # the ODE reduction y' = f(y), started at [oracle] u0 or the datum
    u0 = prob.data.constant_value if config.u0 is None else config.u0
    if u0 is None:
        raise ConfigError(
            "this command needs a constant datum (or explicit [oracle] u0)"
        )
    return oracles.OdeOracle(f=_scalar_ode_f(prob), u0=float(u0),
                             horizon=prob.horizon, h=config.h)


# subcommands ---------------------------------------------------------------


def cmd_estimate(config: RunConfig, threads: int) -> int:
    prob = build_problem(config)
    t, x = resolve_point(config, prob)
    K = config.repetitions
    values, tally, _, model, params = experiments.run_checked(
        prob, config.levels, t, x, K, config.seed, threads,
        branching=config.branching, radius=config.radius)
    mean = float(values.mean())
    if not math.isfinite(mean):
        raise ArithmeticError(f"the estimate is not finite: mean {mean!r}")
    se = float(values.std(ddof=1) / math.sqrt(K)) if K > 1 else float("nan")
    print(f"value_mean = {mean!r}")
    print(f"value_se = {se!r}")
    print(f"repetitions = {K}")
    print(f"levels = {params.levels}")
    print(f"branching = {params.branching}")
    print(f"radius = {params.truncation_radius!r}")
    print(f"seed = {params.seed}")
    print(f"draws = {tally.total_draws}")
    print(f"cost_model = {model}")
    return 0


def cmd_converge(config: RunConfig, out: Optional[str], threads: int) -> int:
    prob = build_problem(config)
    if prob.orientation is not Orientation.FORWARD:
        raise ConfigError("converge compares against the forward-run oracle; "
                          "set [problem] orientation = forward")
    ode = _ode_oracle(config, prob)
    t, x = resolve_point(config, prob)
    oracle_value = oracles.ode_solve(ode, t)
    # the default K = 1 gives no standard error, so it runs as K = 2;
    # rmse_vs_oracle refuses any other K < 2
    K = 2 if config.repetitions == 1 else config.repetitions
    rows = experiments.rmse_vs_oracle(
        prob, oracle_value, t, x, config.n_list, K=K, seed=config.seed,
        worker_count=threads, radius=config.radius,
    )
    path = out or "convergence.csv"
    experiments.write_rows(path, experiments.ConvergenceRow, rows)
    print(f"converge: {len(rows)} rows -> {path}; oracle {oracle_value!r}; "
          f"final rmse {rows[-1].rmse!r}")
    return 0


def cmd_scale(config: RunConfig, out: Optional[str], threads: int) -> int:
    result = experiments.dimension_scaling(
        lambda d: build_problem(dataclasses.replace(config, dimension=d)),
        config.d_list, n=config.n, t=config.t,
        K=config.repetitions, seed=config.seed, worker_count=threads,
    )
    path = out or "scaling.csv"
    experiments.write_rows(path, experiments.ScalingRow, result.rows)
    print(f"scale: {len(result.rows)} rows -> {path}; "
          f"cost_affine_exact={result.cost_affine_exact}; "
          f"draws_affine_exact={result.draws_affine_exact}")
    return 0


def cmd_sweep(config: RunConfig, out: Optional[str]) -> int:
    if config.constants == "surrogate":
        consts = bounds.surrogate_constants()
    else:
        consts = bounds.BoundConstants.from_problem(build_problem(config))
    try:
        result = experiments.epsilon_sweep(
            consts, config.delta, config.epsilon_list, config.d_list,
            n_max=config.n_max,
        )
    except bounds.CapExceededError as exc:
        if config.constants == "surrogate":
            raise
        # the default problem's bound (T = 0.5) still rises at n_max = 64
        raise bounds.CapExceededError(
            f"{exc}; set [experiment] constants = surrogate, or use a shorter "
            "[problem] horizon (T = 0.05 selects 37-43 levels)") from exc
    path = out or "sweep.csv"
    experiments.write_rows(path, experiments.SweepRow, result.rows)
    print(f"sweep: {len(result.rows)} rows -> {path}; "
          f"scaled cost max {result.scaled_max!r} min {result.scaled_min!r}")
    return 0


CURVE_HEADER = ("t", "x", "value")


def cmd_oracle(config: RunConfig, out: Optional[str]) -> int:
    prob = build_problem(config)
    path = out or "oracle.csv"
    if config.kind == "ode":
        ode = _ode_oracle(config, prob)
        times = config.times
        if times is None:
            times = tuple(prob.horizon * k / 4.0 for k in range(5))
        rows = [(repr(t), 0, repr(oracles.ode_solve(ode, t))) for t in times]
        experiments.write_csv(path, CURVE_HEADER, rows)
        print(f"oracle ode: {len(rows)} rows -> {path}; "
              f"value at T {oracles.ode_solve(ode, prob.horizon)!r}")
        return 0
    fd = oracles.FdOracle1d(
        half_width=config.half_width, grid_points=config.grid_points,
        dt=config.dt, boundary=config.boundary,
    )
    t = prob.horizon if config.t is None else config.t
    sol = oracles.fd_solve_1d(prob, fd, t)
    rows = [(repr(t), repr(float(xi)), repr(float(vi)))
            for xi, vi in zip(sol.x, sol.values)]
    experiments.write_csv(path, CURVE_HEADER, rows)
    print(f"oracle fd: {len(rows)} rows -> {path}; sup|u| {sol.sup_abs!r}")
    return 0


def cmd_cost(out: Optional[str]) -> int:
    path = out or "cost.csv"
    rows = [(d, n, M, bounds.cost_recursion(d, n, M), bounds.cost_bound(d, n, M))
            for d in (1, 10, 100) for n in range(1, 7) for M in range(1, 7)]
    violations = sum(model > bound for *_, model, bound in rows)
    experiments.write_csv(path, ("d", "n", "M", "cost_model", "cost_bound"),
                          rows)
    print(f"cost: {len(rows)} rows -> {path}; bound violations: {violations}")
    return 0 if violations == 0 else 3


def cmd_selftest() -> int:
    checks = []

    golden = importlib.resources.files(__package__) / "golden_rng.txt"
    problems = verify_golden(golden.read_text(encoding="utf-8").splitlines())
    checks.append(("golden RNG values", not problems,
                   "; ".join(problems) or "ok"))

    keys = ((0, (), 0), (3, (1, -2), 5))
    ok = all(uniform01(seed, path, counter)
             == float(uniforms_vec(np.uint64(path_digest(seed, path)), counter))
             for seed, path, counter in keys)
    checks.append(("scalar and vector uniforms agree", ok,
                   f"{len(keys)} keys"))

    u = uniform01(1, (2, -3), 0)
    checks.append(("uniform in range", 0.0 <= u < 1.0, f"u={u}"))

    prob = problem_mod.make_problem(dimension=3, horizon=0.5)
    params = MlpParams(levels=1, branching=1, truncation_radius=4.0, seed=0)
    res = estimate_batch(prob, params, 0.5, np.zeros(3), 1)[0]
    checks.append(("single-level estimate is the datum",
                   res.value == prob.data.constant_value, f"value={res.value}"))

    res0 = estimate_batch(
        prob, dataclasses.replace(params, levels=0), 0.5, np.zeros(3), 1)[0]
    checks.append(("zero levels -> zero", res0.value == 0.0
                   and res0.tally.total_draws == 0, f"value={res0.value}"))

    grid = np.linspace(-5.0, 5.0, 101)
    clamped = problem_mod.truncate_value(grid, 2.0)
    ok = (np.all(np.abs(clamped) <= 2.0)
          and np.array_equal(problem_mod.truncate_value(clamped, 2.0), clamped)
          and np.array_equal(clamped[np.abs(grid) <= 2.0],
                             grid[np.abs(grid) <= 2.0]))
    checks.append(("clamp identity/idempotence", bool(ok), "grid of 101"))

    checks.append(("cost examples", bounds.cost_recursion(1, 1, 2) == 6
                   and bounds.cost_recursion(1, 2, 2) == 28, "6, 28"))

    levels = bounds.level_bounds(bounds.surrogate_constants()).select(0.5)
    checks.append(("level selection surrogate", levels == 4, f"N(0.5)={levels}"))

    failed = [name for name, ok, _ in checks if not ok]
    for name, ok, detail in checks:
        print(f"{'ok ' if ok else 'FAIL'} {name}: {detail}")
    print(f"selftest: {len(checks) - len(failed)}/{len(checks)} checks passed")
    return 0 if not failed else 3


# dest: the add_argument keywords of --dest
_FLAGS = {
    "config": dict(help="path to a configuration file"),
    "seed": dict(type=int, help="override [estimator] seed"),
    "threads": dict(type=int, default=1, help="worker threads (default 1)"),
    "out": dict(help="output CSV path"),
}

# the [problem] keys that build_problem reads, but dimension, which scale
# takes from [experiment] d_list instead
_PROBLEM = "horizon orientation nonlinearity a data value kappa"

# name: (handler, the dests of the flags it reads, the config keys it can
# read, help line), in the order --help lists them; argparse refuses any
# other flag and parse_config any other key
_COMMANDS = {
    "estimate": (cmd_estimate, "config seed threads",
                 f"dimension {_PROBLEM} levels branching radius repetitions "
                 "seed t x",
                 "run the estimator at one point, print mean and SE"),
    "converge": (cmd_converge, "config seed threads out",
                 f"dimension {_PROBLEM} n_list radius repetitions seed t x "
                 "u0 h",
                 "RMSE-vs-oracle table over levels -> convergence.csv"),
    "scale": (cmd_scale, "config seed threads out",
              f"{_PROBLEM} repetitions seed t d_list n",
              "draw counts across dimensions -> scaling.csv"),
    "sweep": (cmd_sweep, "config out",
              f"dimension {_PROBLEM} d_list epsilon_list delta n_max "
              "constants",
              "levels and model cost over accuracies -> sweep.csv"),
    "oracle": (cmd_oracle, "config out",
               f"dimension {_PROBLEM} t kind u0 h times half_width "
               "grid_points dt boundary",
               "reference curve (ode or fd) -> oracle.csv"),
    "cost": (cmd_cost, "out", "",
             "cost model vs closed-form bound table -> cost.csv"),
    "selftest": (cmd_selftest, "", "", "golden RNG values and basic invariants"),
}


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlpicard",
        description="Multilevel Picard estimation for semilinear heat "
                    "equations, with bounds, oracles and experiment tables.",
    )
    parser.add_argument("--help-config", action="store_true",
                        help="print the configuration file grammar and exit")
    sub = parser.add_subparsers(dest="command")
    for name, (_, flags, _, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        for dest in flags.split():
            cmd.add_argument(f"--{dest}", **_FLAGS[dest])
    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = vars(parser.parse_args(argv))
    if args.pop("help_config"):
        print(_grammar(), end="")
        return 0
    command = args.pop("command")
    if command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        # the handler takes the command's flags by dest, except that
        # --config and --seed give it one RunConfig
        seed = args.pop("seed", None)
        if "config" in args:
            args["config"] = load_config(args["config"], command)
            if seed is not None:
                args["config"] = dataclasses.replace(args["config"], seed=seed)
        if args.get("threads", 1) < 1:
            raise ConfigError(f"thread count must be >= 1, got {args['threads']}")
        return _COMMANDS[command][0](**args)
    except (ConfigError, ValueError) as exc:
        print(f"mlpicard: config error: {exc}", file=sys.stderr)
        return 2
    except bounds.CapExceededError as exc:
        print(f"mlpicard: level-selection cap: {exc}", file=sys.stderr)
        return 4
    except (oracles.OracleError, ArithmeticError) as exc:
        print(f"mlpicard: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
