"""Exit-code contract, config round-trip, CSV reproducibility, smoke runs."""

import argparse
import dataclasses
import os

import pytest

from mlpicard import bounds, cli, experiments
from mlpicard.cli import (
    CONFIG_KEYS,
    ConfigError,
    RunConfig,
    build_arg_parser,
    main,
    parse_config,
)
from mlpicard.oracles import allen_cahn_reference


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_fields(out: str) -> dict:
    fields = {}
    for line in out.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            fields[key] = value
    return fields


def strip_wall(text: str) -> list:
    return [",".join(line.split(",")[:-1]) for line in text.splitlines()]


# configuration ---------------------------------------------------------------


def test_config_parses_defaults_and_modified_values():
    assert parse_config("", "estimate") == RunConfig()
    problem = """\
[problem]
dimension = 10
a = -0.25
data = cosine_mean
kappa = 1.5
"""
    changed = dict(dimension=10, a=-0.25, kappa=1.5, data="cosine_mean")
    converge = problem + "[estimator]\nn_list = 0,1,2\nradius = 3.5\n"
    assert parse_config(converge, "converge") == dataclasses.replace(
        RunConfig(), radius=3.5, n_list=(0, 1, 2), **changed)
    oracle = problem + "[oracle]\nkind = fd\ntimes = 0.0,0.5\n"
    assert parse_config(oracle, "oracle") == dataclasses.replace(
        RunConfig(), kind="fd", times=(0.0, 0.5), **changed)


def test_config_rejects_unknown_key_and_section():
    with pytest.raises(ConfigError):
        parse_config("[problem]\nwibble = 3\n", "estimate")
    with pytest.raises(ConfigError):
        parse_config("[wibble]\nx = 3\n", "estimate")
    # rho_min is the one radius rule; the truncation schedule key is gone
    with pytest.raises(ConfigError, match="unknown key 'schedule'"):
        parse_config("[estimator]\nschedule = default\n", "estimate")
    with pytest.raises(ConfigError):
        parse_config("[problem]\ndimension = banana\n", "estimate")


@pytest.mark.parametrize("section, key, raw, message", [
    ("problem", "dimension", "banana",
     "[problem] dimension must be an integer, got 'banana'"),
    ("problem", "horizon", "soon",
     "[problem] horizon must be a number, got 'soon'"),
    ("estimator", "n_list", "1,two",
     "[estimator] n_list must be a comma list of integers, got '1,two'"),
    ("evaluation", "x", "0.5,,1",
     "[evaluation] x must be a comma list of numbers, got '0.5,,1'"),
    ("problem", "orientation", "Sideways",
     "[problem] orientation must be one of ['backward', 'forward'], "
     "got 'Sideways'"),
])
def test_config_parse_errors_name_the_key_and_the_value(section, key, raw,
                                                         message):
    # one bad value per parser: integer, number, integer list, number list
    # and choice; converge reads each of these keys
    with pytest.raises(ConfigError) as err:
        parse_config(f"[{section}]\n{key} = {raw}\n", "converge")
    assert str(err.value) == message


# each command's flags
FLAGS = {
    "estimate": ("--config", "--seed", "--threads"),
    "converge": ("--config", "--seed", "--threads", "--out"),
    "scale": ("--config", "--seed", "--threads", "--out"),
    "sweep": ("--config", "--out"),
    "oracle": ("--config", "--out"),
    "cost": ("--out",),
    "selftest": (),
}
# flag: (a command-line value, its parsed value, the default)
FLAG_VALUES = {"--config": ("run.ini", "run.ini", None),
               "--seed": ("5", 5, None),
               "--threads": ("2", 2, 1),
               "--out": ("table.csv", "table.csv", None)}


def test_subcommands_their_help_lines_and_flags():
    parser = build_arg_parser()
    sub, = (action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction))
    assert [(choice.dest, choice.help) for choice in sub._choices_actions] == [
        ("estimate", "run the estimator at one point, print mean and SE"),
        ("converge", "RMSE-vs-oracle table over levels -> convergence.csv"),
        ("scale", "draw counts across dimensions -> scaling.csv"),
        ("sweep", "levels and model cost over accuracies -> sweep.csv"),
        ("oracle", "reference curve (ode or fd) -> oracle.csv"),
        ("cost", "cost model vs closed-form bound table -> cost.csv"),
        ("selftest", "golden RNG values and basic invariants"),
    ]
    assert list(sub.choices) == list(FLAGS)
    # 16 of the 28 (command, flag) slots
    assert sum(map(len, FLAGS.values())) == 16
    for name, flags in FLAGS.items():
        # --help lists exactly these flags
        assert {option for action in sub.choices[name]._actions
                for option in action.option_strings} == {
            "-h", "--help", *flags}
        args = parser.parse_args(
            [name, *(word for flag in flags
                     for word in (flag, FLAG_VALUES[flag][0]))])
        assert vars(args) == {"help_config": False, "command": name, **{
            flag[2:]: FLAG_VALUES[flag][1] for flag in flags}}
        assert vars(parser.parse_args([name])) == {
            "help_config": False, "command": name,
            **{flag[2:]: FLAG_VALUES[flag][2] for flag in flags}}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in FLAGS.items()
    for flag in FLAG_VALUES if flag not in flags])
def test_a_flag_the_command_does_not_read_exits_2(capsys, command, flag):
    # refused by argparse before any config is read or file written
    value = FLAG_VALUES[flag][0]
    with pytest.raises(SystemExit) as exit_:
        main([command, flag, value])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} {value}" in captured.err


# each config-reading command: the keys it declares that it reads
READS = {name: set(keys.split()) for name, (_, _, keys, _)
         in cli._COMMANDS.items() if keys}
SECTION = {spec.key: spec.section for spec in CONFIG_KEYS}


def test_each_command_declares_the_config_keys_it_reads():
    # 73 of the 150 (command, key) slots
    assert list(READS) == ["estimate", "converge", "scale", "sweep", "oracle"]
    assert len(CONFIG_KEYS) == 30
    assert sum(map(len, READS.values())) == 73


# (command, config, exit code): the default config of each command, and the
# other branch of the handlers that branch on a key
READ_RUNS = [
    ("estimate", "", 0), ("converge", "", 0), ("scale", "", 0),
    # the default problem's bound rises at n_max, after every key is read
    ("sweep", "", 4),
    ("sweep", "[experiment]\nconstants = surrogate\n", 0),
    ("oracle", "", 0), ("oracle", "[oracle]\nkind = fd\n", 0),
]


def test_each_command_reads_exactly_the_config_keys_it_declares(
        tmp_path, monkeypatch, capsys, config_reads):
    # the config-key twin of the unread-parameter guard: a handler that
    # reads a key it does not declare fails here, and so does a declared key
    # that no run reads (the demo configs are checked in test_demos.py)
    monkeypatch.chdir(tmp_path)
    reads = {}
    for command, text, code in READ_RUNS:
        (tmp_path / "run.ini").write_text(text, encoding="utf-8")
        config_reads.clear()
        assert main([command, "--config", "run.ini"]) == code, command
        assert config_reads <= READS[command], (
            command, config_reads - READS[command])
        reads.setdefault(command, set()).update(config_reads)
    assert reads == READS
    capsys.readouterr()


@pytest.mark.parametrize("command, key", [
    (command, spec.key) for command in READS for spec in CONFIG_KEYS
    if spec.key not in READS[command]])
def test_a_config_key_the_command_does_not_read_exits_2(
        tmp_path, monkeypatch, capsys, command, key):
    # refused whatever its value, before any run or file is written: for
    # example converge with [estimator] branching, which it used to drop
    # and run the diagonal
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.ini").write_text(f"[{SECTION[key]}]\n{key} = 3\n",
                                      encoding="utf-8")
    code, out, err = run(capsys, command, "--config", "run.ini")
    assert code == 2
    assert (f"mlpicard: config error: {command} does not read "
            f"[{SECTION[key]}] {key} (read by ") in err
    assert out == "" and os.listdir(tmp_path) == ["run.ini"]


HELP_CONFIG = """\
Configuration file grammar (INI style, '#' comments, all keys optional):

[problem]
dimension    = 1            # integer >= 1; read by estimate, converge, sweep, oracle
horizon      = 0.5          # T > 0; read by estimate, converge, scale, sweep, oracle
orientation  = forward      # forward | backward; read by estimate, converge, scale, sweep, oracle
nonlinearity = allen_cahn   # allen_cahn | linear | sine; read by estimate, converge, scale, sweep, oracle
a            =              # coefficient of linear; read by estimate, converge, scale, sweep, oracle
data         = constant     # constant | cosine_mean | gaussian_bump; read by estimate, converge, scale, sweep, oracle
value        =              # datum value of constant (default 2.0); read by estimate, converge, scale, sweep, oracle
kappa        =              # datum amplitude of cosine_mean | gaussian_bump; read by estimate, converge, scale, sweep, oracle

[estimator]
levels       = 1            # n >= 0; read by estimate
n_list       = 0,1,2,3,4    # read by converge
branching    = diagonal     # diagonal (M = n) | integer >= 1; read by estimate
radius       =              # default rho_min(problem); read by estimate, converge
repetitions  = 1            # K >= 1; read by estimate, converge, scale
seed         = 0            # read by estimate, converge, scale

[evaluation]
t            =              # default: horizon; read by estimate, converge, scale, oracle
x            = 0            # scalar (broadcast) or comma list of length d; read by estimate, converge

[experiment]
d_list       = 1,10,100     # read by scale, sweep
n            = 3            # fixed n = M; read by scale
epsilon_list = 0.5,0.25,0.125,0.0625,0.03125,0.015625 # read by sweep
delta        = 1.0          # exponent offset, > 0; read by sweep
n_max        = 64           # level-selection cap; read by sweep
constants    = problem      # problem | surrogate (kappa=1, f0=0, T=1, L=0); read by sweep

[oracle]
kind         = ode          # ode | fd; read by oracle
u0           =              # ode initial value; default: constant datum; read by converge, oracle
h            =              # ode step; default horizon/1000; read by converge, oracle
times        =              # ode output ladder; default 5 evenly spaced; read by oracle
half_width   = 6.0          # fd domain is [-half_width, half_width]; read by oracle
grid_points  = 201          # read by oracle
dt           = 0.0001       # read by oracle
boundary     = neumann      # neumann | periodic; read by oracle
"""


def test_help_config_prints_grammar(capsys):
    code, out, _ = run(capsys, "--help-config")
    assert code == 0
    assert out == HELP_CONFIG


# exit codes ------------------------------------------------------------------


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "8/8 checks passed" in out


def test_selftest_fails_on_a_changed_generator(capsys, monkeypatch):
    # the golden check reads the packaged file, not the generator's own output
    from mlpicard import randomness

    raw = randomness._raw
    monkeypatch.setattr(randomness, "_raw",
                        lambda digest, counter: raw(digest, counter) ^ 1)
    code, out, _ = run(capsys, "selftest")
    assert code == 3
    assert "FAIL golden RNG values" in out


def test_estimate_default_prints_datum(capsys):
    code, out, _ = run(capsys, "estimate")
    assert code == 0
    fields = stdout_fields(out)
    assert fields["value_mean"] == "2.0"
    assert fields["draws"] == "1"
    assert fields["cost_model"] == "3"


def test_estimate_zero_levels(tmp_path, capsys):
    cfg = tmp_path / "n0.ini"
    cfg.write_text("[estimator]\nlevels = 0\n", encoding="utf-8")
    code, out, _ = run(capsys, "estimate", "--config", str(cfg))
    assert code == 0
    fields = stdout_fields(out)
    assert fields["value_mean"] == "0.0"
    assert fields["draws"] == "0"


def test_bad_config_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[problem]\ndimension = banana\n", encoding="utf-8")
    code, _, err = run(capsys, "estimate", "--config", str(cfg))
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize("text, message", [
    ("[problem]\ndata = cosine_mean\n", "cosine_mean data needs parameter kappa"),
    ("[problem]\nnonlinearity = linear\n", "linear nonlinearity needs parameter a"),
])
def test_missing_problem_parameter_exits_2(tmp_path, capsys, text, message):
    cfg = tmp_path / "missing.ini"
    cfg.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "estimate", "--config", str(cfg))
    assert code == 2
    assert "config error" in err and message in err
    assert "value_mean" not in out


@pytest.mark.parametrize("text, key, builtin", [
    ("a = 5\n", "a", "allen_cahn"),
    ("a = 5\nkappa = 3\n", "a", "allen_cahn"),
    ("nonlinearity = sine\na = 5\n", "a", "sine"),
    ("kappa = 3\n", "kappa", "constant"),
    ("data = cosine_mean\nkappa = 1\nvalue = 7\n", "value", "cosine_mean"),
    ("data = gaussian_bump\nkappa = 1\nvalue = 7\n", "value",
     "gaussian_bump"),
], ids=["a-allen_cahn", "a-kappa-default", "a-sine", "kappa-constant",
        "value-cosine_mean", "value-gaussian_bump"])
def test_a_problem_key_the_chosen_builtins_do_not_read_exits_2(
        tmp_path, capsys, text, key, builtin):
    # a key set for a builtin that is not chosen is refused, not dropped
    cfg = tmp_path / "unread.ini"
    cfg.write_text("[problem]\n" + text, encoding="utf-8")
    code, out, err = run(capsys, "estimate", "--config", str(cfg))
    assert code == 2
    assert "config error" in err
    assert f"{builtin} " in err and f"reads no parameter {key}" in err
    assert "value_mean" not in out


@pytest.mark.parametrize("text", [
    "[evaluation]\nx = nan\n",
    "[problem]\ndata = cosine_mean\nkappa = 1.0\n[evaluation]\nx = inf\n",
    "[problem]\nhorizon = inf\n",
    *(f"[problem]\ndimension = 2\nhorizon = 0.5\n{problem}"
      "[estimator]\nlevels = 2\nrepetitions = 3\n"
      for problem in ("value = inf\n", "value = nan\n",
                      "data = cosine_mean\nkappa = inf\n",
                      "nonlinearity = linear\na = inf\n",
                      "nonlinearity = linear\na = nan\n")),
])
def test_non_finite_input_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "nonfinite.ini"
    cfg.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "estimate", "--config", str(cfg))
    assert code == 2
    assert "finite" in err
    assert "value_mean" not in out


@pytest.mark.parametrize("text", [
    "[problem]\ndata = cosine_mean\nkappa = 1.0\n"
    "[oracle]\nkind = fd\nhalf_width = inf\n",
    "[oracle]\nkind = fd\nhalf_width = inf\n",
    "[oracle]\nkind = fd\nhalf_width = 1e-160\ngrid_points = 3\n",
    "[oracle]\nkind = fd\nhalf_width = 1e-160\n",
    "[oracle]\nkind = fd\nhalf_width = 1e-160\nboundary = periodic\n",
    "[problem]\ndata = cosine_mean\nkappa = 1.0\n"
    "[oracle]\nkind = fd\nhalf_width = 1e308\n",
    "[oracle]\nkind = fd\nhalf_width = 1e308\n",
    "[problem]\nhorizon = 0.1\n[oracle]\nkind = fd\ndt = 1e-300\n",
])
def test_degenerate_fd_grid_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "grid.ini"
    cfg.write_text(text, encoding="utf-8")
    out_path = tmp_path / "fd.csv"
    code, _, err = run(capsys, "oracle", "--config", str(cfg),
                       "--out", str(out_path))
    assert code == 2
    assert "config error" in err
    assert not out_path.exists()


@pytest.mark.parametrize("text, message", [
    ("[problem]\nhorizon = 0.1\n[oracle]\nkind = ode\nh = 1e-300\n",
     "STEP_LIMIT"),
    ("[oracle]\nkind = ode\nh = 0\n", "0 < h"),
])
def test_degenerate_ode_step_exits_2(tmp_path, capsys, text, message):
    cfg = tmp_path / "step.ini"
    cfg.write_text(text, encoding="utf-8")
    out_path = tmp_path / "ode.csv"
    code, _, err = run(capsys, "oracle", "--config", str(cfg),
                       "--out", str(out_path))
    assert code == 2
    assert "config error" in err and message in err
    assert not out_path.exists()


@pytest.mark.parametrize("d_list", ["5,5", "5,6,5"])
def test_repeated_dimensions_exit_2_before_any_run(tmp_path, capsys, d_list):
    cfg = tmp_path / "repeated.ini"
    out_path = tmp_path / "scaling.csv"
    cfg.write_text(f"[experiment]\nd_list = {d_list}\n", encoding="utf-8")
    code, out, err = run(capsys, "scale", "--config", str(cfg),
                         "--out", str(out_path))
    assert code == 2
    assert "config error" in err and "[5] more than once" in err
    assert not out_path.exists() and "rows" not in out


def test_levels_past_int64_sample_indices_exit_2(tmp_path, capsys):
    # 30 levels on the diagonal need sample indices up to 30^30 > 2^63
    cfg = tmp_path / "huge.ini"
    cfg.write_text("[estimator]\nlevels = 30\nbranching = diagonal\n",
                   encoding="utf-8")
    code, out, err = run(capsys, "estimate", "--config", str(cfg))
    assert code == 2
    assert "below 2**63" in err
    assert "value_mean" not in out


@pytest.mark.parametrize("command, raw", [
    ("estimate", "foo"), ("sweep", "foo"), ("estimate", "0"),
])
def test_bad_branching_exits_2(tmp_path, capsys, command, raw):
    # branching is parsed with the config, and sweep, which does not read
    # it, refuses it whatever its value; M < 1 is refused before any run
    cfg = tmp_path / "branching.ini"
    cfg.write_text(f"[estimator]\nbranching = {raw}\n", encoding="utf-8")
    out_path = tmp_path / "out.csv"
    out_flag = ["--out", str(out_path)] if command == "sweep" else []
    code, out, err = run(capsys, command, "--config", str(cfg), *out_flag)
    assert code == 2
    assert "config error" in err and "branching" in err
    assert out == "" and not out_path.exists()


def test_sweep_config_with_k_offset_exits_2(tmp_path, capsys):
    cfg = tmp_path / "offset.ini"
    cfg.write_text("[experiment]\nconstants = surrogate\nk_offset = 0\n",
                   encoding="utf-8")
    out_path = tmp_path / "sweep.csv"
    code, out, err = run(capsys, "sweep", "--config", str(cfg),
                         "--out", str(out_path))
    assert code == 2
    assert "unknown key 'k_offset'" in err
    assert out == "" and not out_path.exists()


@pytest.mark.parametrize("repetitions", ["0", "-3"])
def test_converge_with_fewer_than_one_repetition_exits_2(tmp_path, capsys,
                                                         repetitions):
    # only the default K = 1 runs as K = 2; no table is written otherwise
    cfg = tmp_path / "reps.ini"
    cfg.write_text(f"[estimator]\nrepetitions = {repetitions}\n",
                   encoding="utf-8")
    out_path = tmp_path / "conv.csv"
    code, out, err = run(capsys, "converge", "--config", str(cfg),
                         "--out", str(out_path))
    assert code == 2
    assert f"K must be >= 2 for a standard error, got {repetitions}" in err
    assert out == "" and not out_path.exists()


def test_missing_config_file_exits_2(capsys):
    code, _, err = run(capsys, "estimate", "--config", "/nonexistent.ini")
    assert code == 2
    assert "config" in err


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "unknown.ini"
    cfg.write_text("[estimator]\nbogus = 1\n", encoding="utf-8")
    code, _, err = run(capsys, "estimate", "--config", str(cfg))
    assert code == 2
    assert "bogus" in err


def test_estimate_checks_draws_against_the_cost_model(tmp_path, capsys,
                                                     monkeypatch):
    cfg = tmp_path / "cost.ini"
    cfg.write_text("[problem]\ndimension = 3\n"
                   "[estimator]\nlevels = 2\nrepetitions = 2\n",
                   encoding="utf-8")
    code, out, _ = run(capsys, "estimate", "--config", str(cfg))
    assert code == 0
    draws = int(stdout_fields(out)["draws"])
    monkeypatch.setattr(experiments, "cost_recursion",
                        lambda d, n, M: draws - 1)
    with pytest.raises(AssertionError, match="exceed cost model"):
        main(["estimate", "--config", str(cfg)])


def test_numeric_failure_exits_3(tmp_path, capsys):
    # strongly expanding linear ODE: RK4 step-doubling check fails
    cfg = tmp_path / "blow.ini"
    cfg.write_text(
        "[problem]\nnonlinearity = linear\na = 60.0\nhorizon = 1.0\n",
        encoding="utf-8",
    )
    code, _, err = run(capsys, "oracle", "--config", str(cfg),
                       "--out", str(tmp_path / "x.csv"))
    assert code == 3
    assert "numeric failure" in err


@pytest.mark.parametrize("text", [
    # kappa^2 overflows the a-priori bound behind the default radius
    "[problem]\ndimension = 2\nhorizon = 0.5\nvalue = 1e200\n"
    "[estimator]\nlevels = 2\nrepetitions = 3\n",
    # explicit radius, so the estimate itself overflows to nan
    "[problem]\ndimension = 2\nhorizon = 1.0\nnonlinearity = linear\n"
    "a = 1e308\nvalue = 1e308\n"
    "[estimator]\nlevels = 3\nrepetitions = 4\nradius = 1e308\n",
])
def test_overflow_exits_3(tmp_path, capsys, text):
    cfg = tmp_path / "overflow.ini"
    cfg.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "estimate", "--config", str(cfg))
    assert code == 3
    assert "numeric failure" in err
    assert "value_mean" not in out


def test_sweep_past_the_overflow_of_e_to_the_m_over_2_exits_0(tmp_path, capsys):
    # e^(M/2) alone overflows a float from M = 1420, while the surrogate
    # bound e^(M/2) M^(-M/2) underflows to 0 there; the scan reaches M = 1500
    cfg = tmp_path / "long.ini"
    cfg.write_text("[experiment]\nconstants = surrogate\nn_max = 1500\n",
                   encoding="utf-8")
    out_path = tmp_path / "sweep.csv"
    code, _, err = run(capsys, "sweep", "--config", str(cfg),
                       "--out", str(out_path))
    assert code == 0, err
    rows = out_path.read_text(encoding="utf-8").splitlines()
    assert {int(row.split(",")[2]) for row in rows[1:]} == {4, 5, 6, 7, 8}


@pytest.mark.parametrize("value, bound", [("1.0", "inf"), ("0.0", "0.0")])
def test_converge_at_a_huge_radius_saturates_the_bound(tmp_path, capsys,
                                                        value, bound):
    # e^(L(r) T) overflows a float at r = 1e150; the bound is inf, or 0.0
    # when kappa + T |f(0)| = 0 makes the whole product vanish
    cfg = tmp_path / "huge.ini"
    cfg.write_text(f"[problem]\nvalue = {value}\n"
                   "[estimator]\nradius = 1e150\n", encoding="utf-8")
    out_path = tmp_path / "conv.csv"
    code, _, err = run(capsys, "converge", "--config", str(cfg),
                       "--out", str(out_path))
    assert code == 0, err
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0].split(",")[5] == "error_bound"
    assert [line.split(",")[5] for line in lines[1:]] == [bound] * 5


@pytest.mark.parametrize("command", ["oracle", "converge"])
@pytest.mark.parametrize("u0", ["nan", "inf"])
def test_non_finite_ode_start_exits_2(tmp_path, capsys, command, u0):
    cfg = tmp_path / "u0.ini"
    cfg.write_text(f"[oracle]\nu0 = {u0}\n", encoding="utf-8")
    out_path = tmp_path / "out.csv"
    code, _, err = run(capsys, command, "--config", str(cfg),
                       "--out", str(out_path))
    assert code == 2
    assert "u0 must be finite" in err
    assert not out_path.exists()


def test_cap_exceeded_exits_4(tmp_path, capsys):
    cfg = tmp_path / "cap.ini"
    cfg.write_text(
        "[experiment]\nconstants = surrogate\nepsilon_list = 0.000001\n"
        "n_max = 10\n",
        encoding="utf-8",
    )
    code, _, err = run(capsys, "sweep", "--config", str(cfg),
                       "--out", str(tmp_path / "x.csv"))
    assert code == 4
    assert "cap" in err


def test_sweep_past_the_n_max_limit_exits_2_before_any_bound(
        tmp_path, capsys, monkeypatch):
    def no_bound(*args):
        raise AssertionError("a bound was computed")

    monkeypatch.setattr(bounds, "error_bound", no_bound)
    cfg = tmp_path / "huge.ini"
    cfg.write_text("[experiment]\nconstants = surrogate\n"
                   f"n_max = {bounds.N_MAX_LIMIT + 1}\n", encoding="utf-8")
    out_path = tmp_path / "sweep.csv"
    code, out, err = run(capsys, "sweep", "--config", str(cfg),
                         "--out", str(out_path))
    assert code == 2
    assert f"n_max must lie in [3, {bounds.N_MAX_LIMIT}]" in err
    assert out == ""
    assert not out_path.exists()


def test_default_sweep_exits_4_and_names_the_fix(tmp_path, capsys):
    # the default problem's bound still rises at n_max = 64
    code, out, err = run(capsys, "sweep", "--out", str(tmp_path / "x.csv"))
    assert code == 4
    assert out == ""
    assert "bound sequence not decreasing at n_max=64" in err
    assert "set [experiment] constants = surrogate" in err
    assert "shorter [problem] horizon (T = 0.05 selects 37-43 levels)" in err
    assert not (tmp_path / "x.csv").exists()


def test_sweep_at_the_hinted_horizon_selects_37_to_43_levels(tmp_path, capsys):
    # the exit-4 hint above names T = 0.05; the problem's own constants at
    # r = rho_min select these levels over the default epsilon grid
    cfg = tmp_path / "short.ini"
    cfg.write_text(
        "[problem]\nhorizon = 0.05\n[experiment]\nconstants = problem\n",
        encoding="utf-8",
    )
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--config", str(cfg),
                     "--out", str(out_path))
    assert code == 0
    rows = out_path.read_text(encoding="utf-8").splitlines()
    assert rows[0].split(",")[2] == "levels"
    assert {int(row.split(",")[2]) for row in rows[1:]} == {37, 38, 39, 40, 42, 43}


def test_bad_thread_count_exits_2(capsys):
    code, _, err = run(capsys, "estimate", "--threads", "0")
    assert code == 2
    assert "thread" in err


def test_no_subcommand_exits_2(capsys):
    code, _, _ = run(capsys)
    assert code == 2


# subcommand output -------------------------------------------------------------


def test_cost_table_has_108_rows_and_bound_dominates(tmp_path, capsys):
    out_path = tmp_path / "cost.csv"
    code, out, _ = run(capsys, "cost", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "d,n,M,cost_model,cost_bound"
    assert len(lines) == 109
    for line in lines[1:]:
        d, n, M, model, bound = map(int, line.split(","))
        assert model <= bound, line
    assert "violations: 0" in out


def test_scale_reports_both_affinity_checks(tmp_path, capsys):
    out_path = tmp_path / "scaling.csv"
    code, out, _ = run(capsys, "scale", "--out", str(out_path))
    assert code == 0
    assert out.endswith("cost_affine_exact=True; draws_affine_exact=True\n")
    assert strip_wall(out_path.read_text(encoding="utf-8")) == [
        "d,gaussians_measured,draws_measured,cost_model",
        "1,138,159,393", "10,1380,1401,2688", "100,13800,13821,25638"]


def test_oracle_ode_equilibrium_curve(tmp_path, capsys):
    cfg = tmp_path / "eq.ini"
    cfg.write_text("[problem]\nvalue = 1.0\n", encoding="utf-8")
    out_path = tmp_path / "ode.csv"
    code, _, _ = run(capsys, "oracle", "--config", str(cfg),
                     "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,x,value"
    assert len(lines) == 6
    assert all(line.endswith(",1.0") for line in lines[1:])


def test_sweep_csv_levels_monotone(tmp_path, capsys):
    cfg = tmp_path / "s.ini"
    cfg.write_text("[experiment]\nconstants = surrogate\n", encoding="utf-8")
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--config", str(cfg),
                     "--out", str(out_path))
    assert code == 0
    rows = [line.split(",")
            for line in out_path.read_text(encoding="utf-8").splitlines()[1:]]
    levels = {}
    for eps, d, n, cost, scaled in rows:
        levels.setdefault(float(eps), int(n))
    eps_sorted = sorted(levels)
    n_values = [levels[e] for e in eps_sorted]
    assert n_values == sorted(n_values, reverse=True)


CONV_INI = (
    "[problem]\nhorizon = 0.1\n"
    "[estimator]\nn_list = 0,1,2,3\nrepetitions = 100\n"
)


def test_converge_byte_identical_across_threads(tmp_path, capsys):
    cfg = tmp_path / "conv.ini"
    cfg.write_text(CONV_INI, encoding="utf-8")
    paths = {}
    for threads in (1, 4):
        out_path = tmp_path / f"conv{threads}.csv"
        code, _, _ = run(capsys, "converge", "--config", str(cfg),
                         "--threads", str(threads), "--out", str(out_path))
        assert code == 0
        paths[threads] = out_path
    assert (strip_wall(paths[1].read_text(encoding="utf-8"))
            == strip_wall(paths[4].read_text(encoding="utf-8")))


def test_seed_flag_changes_sampled_output(tmp_path, capsys):
    cfg = tmp_path / "mc.ini"
    cfg.write_text(
        "[problem]\nhorizon = 0.1\n"
        "[estimator]\nlevels = 3\nrepetitions = 50\n",
        encoding="utf-8",
    )
    _, out_a, _ = run(capsys, "estimate", "--config", str(cfg), "--seed", "1")
    _, out_b, _ = run(capsys, "estimate", "--config", str(cfg), "--seed", "2")
    _, out_a2, _ = run(capsys, "estimate", "--config", str(cfg), "--seed", "1")
    mean_a = stdout_fields(out_a)["value_mean"]
    mean_b = stdout_fields(out_b)["value_mean"]
    mean_a2 = stdout_fields(out_a2)["value_mean"]
    assert mean_a != mean_b
    assert mean_a == mean_a2


def test_estimate_smoke_mean_within_3_se(tmp_path, capsys):
    cfg = tmp_path / "smoke.ini"
    cfg.write_text(
        "[problem]\nhorizon = 0.05\n"
        "[estimator]\nlevels = 5\nbranching = diagonal\nrepetitions = 200\n"
        "seed = 0\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "estimate", "--config", str(cfg))
    assert code == 0
    fields = stdout_fields(out)
    mean = float(fields["value_mean"])
    se = float(fields["value_se"])
    oracle = allen_cahn_reference(2.0, 0.05)
    assert abs(mean - oracle) <= 3.0 * se
