"""Every demo runs to completion from a clean working directory: each script
as a program, each config through the command its first line names."""

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


@pytest.mark.parametrize("config", CONFIGS, ids=[p.name for p in CONFIGS])
def test_demo_config_runs(config, tmp_path, monkeypatch):
    # the first line is the run line, and it names this very file
    run_line = config.read_text(encoding="utf-8").splitlines()[0].split()
    assert (run_line[:2] == ["#", "mlpicard"]
            and run_line[3:] == ["--config", f"demos/{config.name}"]), run_line
    command = run_line[2]
    monkeypatch.chdir(tmp_path)
    assert cli.main([command, "--config", str(config)]) == 0
    written = [DEFAULT_CSV[command]] if command in DEFAULT_CSV else []
    assert sorted(os.listdir(tmp_path)) == written
