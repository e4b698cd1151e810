"""Exit-code contract, config round-trip, CSV reproducibility, smoke runs."""

import argparse
import dataclasses

import pytest

from mlpicard import bounds
from mlpicard.cli import (
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
    assert parse_config("") == RunConfig()
    text = """\
[problem]
dimension = 10
a = -0.25
data = cosine_mean
kappa = 1.5

[estimator]
n_list = 0,1,2
radius = 3.5

[oracle]
kind = fd
times = 0.0,0.5
"""
    assert parse_config(text) == dataclasses.replace(
        RunConfig(), dimension=10, radius=3.5, n_list=(0, 1, 2), a=-0.25,
        oracle_kind="fd", times=(0.0, 0.5), kappa=1.5, data="cosine_mean")


def test_config_rejects_unknown_key_and_section():
    with pytest.raises(ConfigError):
        parse_config("[problem]\nwibble = 3\n")
    with pytest.raises(ConfigError):
        parse_config("[wibble]\nx = 3\n")
    # rho_min is the one radius rule; the truncation schedule key is gone
    with pytest.raises(ConfigError, match="unknown key 'schedule'"):
        parse_config("[estimator]\nschedule = default\n")
    with pytest.raises(ConfigError):
        parse_config("[problem]\ndimension = banana\n")


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
    # and choice
    with pytest.raises(ConfigError) as err:
        parse_config(f"[{section}]\n{key} = {raw}\n")
    assert str(err.value) == message


def test_subcommands_their_help_lines_and_common_options():
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
    assert list(sub.choices) == [choice.dest for choice in sub._choices_actions]
    for name in sub.choices:
        args = parser.parse_args([name, "--config", "run.ini", "--seed", "5",
                                  "--threads", "2", "--out", "table.csv"])
        assert (args.command, args.config, args.seed, args.threads,
                args.out) == (name, "run.ini", 5, 2, "table.csv")
        args = parser.parse_args([name])
        assert (args.config, args.seed, args.threads, args.out) == (
            None, None, 1, None)


HELP_CONFIG = """\
Configuration file grammar (INI style, '#' comments, all keys optional):

[problem]
dimension    = 1            # integer >= 1
horizon      = 0.5          # T > 0
orientation  = forward      # forward | backward
nonlinearity = allen_cahn   # allen_cahn | linear | sine
a            =              # coefficient; read by linear
data         = constant     # constant | cosine_mean | gaussian_bump
value        =              # datum value; read by constant (default 2.0)
kappa        =              # datum amplitude; read by cosine_mean | gaussian_bump

[estimator]
levels       = 1            # n >= 0
n_list       =              # comma list, converge only (overrides levels)
branching    = diagonal     # diagonal (M = n) | integer >= 1
radius       =              # estimate and converge; default rho_min(problem)
repetitions  = 1            # K >= 1
seed         = 0

[evaluation]
t            =              # default: horizon
x            = 0            # scalar (broadcast) or comma list of length d

[experiment]
d_list       = 1,10,100     # scale and sweep
n            = 3            # scale: fixed n = M
epsilon_list = 0.5,0.25,0.125,0.0625,0.03125,0.015625
delta        = 1.0          # sweep exponent offset, > 0
k_offset     = 0            # extra levels accumulated past N(epsilon)
n_max        = 64           # level-selection cap
constants    = problem      # problem | surrogate (kappa=1, f0=0, T=1, L=0)

[oracle]
kind         = ode          # ode | fd
u0           =              # ode initial value; default: constant datum
h            =              # ode step; default horizon/1000
times        =              # ode output ladder; default 5 evenly spaced
half_width   = 6.0          # fd domain is [-half_width, half_width]
grid_points  = 201
dt           = 0.0001
boundary     = neumann      # neumann | periodic
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
    code, _, err = run(capsys, "selftest", "--threads", "0")
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
