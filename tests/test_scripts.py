"""Each script in scripts/ imports and parses its arguments, and runs end to
end on the tiny config with the same numbers the grid writes."""

import csv
import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

from test_config_cli import TINY_CONFIG
from unprune.config import parse_config
from unprune.experiment import run_experiment

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SCRIPTS = os.path.join(ROOT, "scripts")


@pytest.mark.parametrize(
    "name", sorted(n for n in os.listdir(SCRIPTS) if n.endswith(".py")))
def test_script_help(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


# The tiny config with a wider layer, more deleted rows, a higher sparsity,
# a longer and faster finetune and two seeds. On the tiny config itself the
# original and the oracle keep the same mask (IoU 1), and un-pruning moves
# no mask, so neither script's number would tell two computations apart;
# here the original-init finetune IoM also differs from the random-init one.
SCRIPT_CONFIG = (TINY_CONFIG.replace("hidden = 8", "hidden = 16")
                 .replace("ratio = 0.1", "ratio = 0.3")
                 .replace("sparsities = 0.5", "sparsities = 0.8")
                 .replace("rate = 0.05", "rate = 0.3")
                 .replace("[unlearn.finetune]\nsteps = 5",
                          "[unlearn.finetune]\nsteps = 20")
                 .replace("seeds = 0", "seeds = 0,1"))


@pytest.fixture(scope="module")
def tiny_grid(tmp_path_factory):
    """(config path, report, out dir) of SCRIPT_CONFIG's grid."""
    root = tmp_path_factory.mktemp("scripts")
    config_path = root / "tiny.ini"
    config_path.write_text(SCRIPT_CONFIG)
    out = root / "grid"
    report = run_experiment(parse_config(str(config_path)), out_dir=str(out))
    assert not report.errors
    return config_path, report, out


def _run_script(name, config_path, argv, monkeypatch):
    """``scripts/<name>``'s ``main()`` with its CONFIG at ``config_path``."""
    spec = importlib.util.spec_from_file_location(
        name[:-3], os.path.join(SCRIPTS, name))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "CONFIG", str(config_path))
    monkeypatch.setattr(sys, "argv", [name, *argv])
    return script.main()


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_data_dependence_iou_global_is_the_grid_original_iou(
        tiny_grid, tmp_path, monkeypatch):
    # Train + prune on D against on D_r is the grid's original-vs-oracle IoU.
    config_path, _, grid = tiny_grid
    out = tmp_path / "data_dependence.csv"
    assert _run_script("data_dependence.py", config_path, ["--out", str(out)],
                       monkeypatch) == 0
    original = [row for row in _csv_rows(grid / "results.csv")
                if row["method"] == "original"]
    assert [row["iou_global"] for row in _csv_rows(out)] == [
        row["iou"] for row in original]


def test_init_strategies_original_is_the_grid_finetune_iom(
        tiny_grid, monkeypatch, capsys):
    config_path, report, _ = tiny_grid
    assert _run_script("init_strategies.py", config_path, [],
                       monkeypatch) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    (line,) = [line for line in lines
               if line.split()[:2] == ["finetune", "init=original"]]
    mean = np.mean([row.iom for row in report.select(method="finetune")])
    assert f"mean IoM={mean:.4f} " in line
