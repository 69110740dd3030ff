"""Each script in scripts/ imports and parses its arguments, and runs end to
end: the studies on the mask-test config with the same numbers the grid
writes, the step timing on the shipped configs. Each module of the package
imports on its own in a fresh interpreter."""

import csv
import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

import unprune.train as train_module
from test_config_cli import MASK_CONFIG, _counting
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


# Imports each named module of the package with no unprune module loaded.
IMPORT_ALONE = """
import importlib, sys
for name in sys.argv[1:]:
    for key in [k for k in sys.modules if k.split(".")[0] == "unprune"]:
        del sys.modules[key]
    importlib.import_module("unprune." + name)
"""


def test_each_module_imports_on_its_own():
    # The package root imports nothing, so a fresh import of one module runs
    # only that module's own imports: an import cycle fails here, whatever
    # order the rest of the suite imports the modules in.
    src = os.path.join(ROOT, "src")
    modules = sorted(n[:-3] for n in os.listdir(os.path.join(src, "unprune"))
                     if n.endswith(".py") and n != "__init__.py")
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_ALONE, *modules],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


@pytest.fixture(scope="module")
def mask_grid(tmp_path_factory):
    """(config path, report, out dir) of MASK_CONFIG's grid."""
    root = tmp_path_factory.mktemp("scripts")
    config_path = root / "mask.ini"
    config_path.write_text(MASK_CONFIG)
    out = root / "grid"
    report = run_experiment(parse_config(str(config_path)), out_dir=str(out))
    assert not report.errors
    return config_path, report, out


def _run_script(name, argv, monkeypatch, config_path=None):
    """``scripts/<name>``'s ``main()``, with its CONFIG at ``config_path``
    if one is given."""
    spec = importlib.util.spec_from_file_location(
        name[:-3], os.path.join(SCRIPTS, name))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    if config_path is not None:
        monkeypatch.setattr(script, "CONFIG", str(config_path))
    monkeypatch.setattr(sys, "argv", [name, *argv])
    return script.main()


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_data_dependence_iou_global_is_the_grid_original_iou(
        mask_grid, tmp_path, monkeypatch):
    # Train + prune on D against on D_r is the grid's original-vs-oracle IoU.
    config_path, _, grid = mask_grid
    out = tmp_path / "data_dependence.csv"
    assert _run_script("data_dependence.py", ["--out", str(out)], monkeypatch,
                       config_path) == 0
    original = [row for row in _csv_rows(grid / "results.csv")
                if row["method"] == "original"]
    assert [row["iou_global"] for row in _csv_rows(out)] == [
        row["iou"] for row in original]


def test_init_strategies_original_is_the_grid_finetune_iom(
        mask_grid, monkeypatch, capsys):
    config_path, report, _ = mask_grid
    assert _run_script("init_strategies.py", [], monkeypatch,
                       config_path) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    (line,) = [line for line in lines
               if line.split()[:2] == ["finetune", "init=original"]]
    rows = report.select(method="finetune")  # sorted by seed
    mean = np.mean([row.iom for row in rows])
    assert f"mean IoM={mean:.4f} " in line
    # The two inits reach the same mean on this config, but not per seed.
    assert line.endswith(f"per-seed {[f'{row.iom:.4f}' for row in rows]}")


def test_init_strategies_rejects_a_bad_method_before_training(
        tmp_path, monkeypatch, capsys):
    config_path = tmp_path / "mask.ini"
    config_path.write_text(MASK_CONFIG)
    calls = []
    monkeypatch.setattr(train_module, "train_sgd", _counting(
        calls, "train", train_module.train_sgd))
    assert _run_script("init_strategies.py", ["--methods", "bogus"],
                       monkeypatch, config_path) == 1
    assert calls == []
    assert capsys.readouterr().err == (
        "config error: unknown unlearning method 'bogus'\n")


def test_step_timing_prints_one_row_per_shipped_step(monkeypatch, capsys):
    assert _run_script("step_timing.py", ["--steps", "2", "--repeats", "1"],
                       monkeypatch) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[:4] for row in rows] == [
        ["structured.ini", "finetune", "720", "2-32-32-2"],
        ["reference.ini", "finetune", "360", "2-64-32-2"],
        ["structured.ini", "gradient_ascent", "80", "2-32-32-2"],
        ["reference.ini", "gradient_ascent", "40", "2-64-32-2"]]
    assert all(float(row[4]) > 0 and float(row[5]) >= 0 for row in rows)
