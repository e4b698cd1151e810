"""Every demo runs to completion from a clean working directory: each script
as a program, each config through the command its first line names, which
reads no config key that it does not declare; any other command refuses the
config."""

import configparser
import os
import pathlib
import subprocess
import sys

import pytest

from mlpicard import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
CONFIGS = sorted((ROOT / "demos").glob("*.ini"))

# the file each command writes when --out is not given
DEFAULT_CSV = {"converge": "convergence.csv", "scale": "scaling.csv",
               "sweep": "sweep.csv", "oracle": "oracle.csv"}


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]


def run_command(config):
    # the first line is the run line, and it names this very file
    run_line = config.read_text(encoding="utf-8").splitlines()[0].split()
    assert (run_line[:2] == ["#", "mlpicard"]
            and run_line[3:] == ["--config", f"demos/{config.name}"]), run_line
    return run_line[2]


def declared_keys(command):
    return set(cli._COMMANDS[command][2].split())


@pytest.mark.parametrize("config", CONFIGS, ids=[p.name for p in CONFIGS])
def test_demo_config_runs(config, tmp_path, monkeypatch, config_reads):
    command = run_command(config)
    monkeypatch.chdir(tmp_path)
    assert cli.main([command, "--config", str(config)]) == 0
    written = [DEFAULT_CSV[command]] if command in DEFAULT_CSV else []
    assert sorted(os.listdir(tmp_path)) == written
    assert config_reads <= declared_keys(command), (
        config_reads - declared_keys(command))


@pytest.mark.parametrize("config, command", [
    (config, command) for config in CONFIGS for command in cli._COMMANDS
    if declared_keys(command) and command != run_command(config)],
    ids=lambda value: getattr(value, "name", value))
def test_demo_config_under_another_command_exits_2(config, command, tmp_path,
                                                  monkeypatch, capsys):
    # the config sets a key that command does not read: the run is refused,
    # before it writes anything, naming the first such key in the file
    parser = configparser.ConfigParser()
    parser.read(config, encoding="utf-8")
    unread = [f"[{section}] {key}" for section in parser.sections()
              for key in parser[section] if key not in declared_keys(command)]
    monkeypatch.chdir(tmp_path)
    assert cli.main([command, "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert f"{command} does not read {unread[0]} (read by " in captured.err
    assert captured.out == "" and os.listdir(tmp_path) == []
