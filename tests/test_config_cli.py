import configparser
import functools
import hashlib
import os
import re
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

import unprune.core as core_module
import unprune.experiment as experiment_module
import unprune.oracle as oracle_module
import unprune.train as train_module
from unprune import cli, numeric, svg
from unprune.cli import main
from unprune.config import (
    _KEYS,
    ExperimentConfig,
    parse_config,
    parse_config_text,
)
from unprune.data import Dataset, write_idx
from unprune.errors import ConfigError, NumericError
from unprune.mia import CHANNELS
from unprune.experiment import (
    CellRow,
    ExperimentReport,
    _prune_to,
    _scores,
    build_data,
    cell_oracle,
    emit_csv,
    emit_json,
    emit_scatter,
    model_cache_dir,
    prepare_seed,
    report_from_json,
    run_experiment,
)
from unprune.model import save_snapshot, snapshot_header
from unprune.numeric import SeededRng
from unprune.oracle import build_model, dense_key
from unprune.train import TrainCfg
from unprune.unlearn import METHODS, UnlearnConfig, unlearn

TINY_CONFIG = """
[dataset]
kind = blobs
classes = 2
n_per_class = 30
test_per_class = 20
dim = 2
spread = 1.0

[model]
hidden = 8

[train]
epochs = 40
lr = 0.3

[delete]
ratio = 0.1

[prune]
mode = unstructured
sparsities = 0.5

[unprune]
grow_per_iter = 0.05
iterations = 2

[unlearn]
methods = noop,finetune

[unlearn.finetune]
steps = 5
rate = 0.05

[run]
seeds = 0
record_timing = false
"""

# The one config of the tests that check masks: the tiny config with three
# classes, a wider layer, more deleted rows, a higher sparsity, a longer and
# faster finetune and two seeds. On TINY_CONFIG every row reads IoU 1.0 and
# IoM 0.5, so its rows and digests cannot tell one mask computation from
# another. Here the original and the oracle keep different masks, the
# original-init finetune IoM differs from the random-init one on each seed,
# and the three classes run the class-major cross-entropy end to end.
MASK_CONFIG = (TINY_CONFIG.replace("classes = 2", "classes = 3")
               .replace("hidden = 8", "hidden = 16")
               .replace("ratio = 0.1", "ratio = 0.3")
               .replace("sparsities = 0.5", "sparsities = 0.8")
               .replace("rate = 0.05", "rate = 0.3")
               .replace("[unlearn.finetune]\nsteps = 5",
                        "[unlearn.finetune]\nsteps = 20")
               .replace("seeds = 0", "seeds = 0,1"))


def test_unknown_section_and_key_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config_text("[dataset]\nkind = blobs\n[extra]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("[dataset]\nkindd = blobs\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("[unlearn.finetune]\nlearning = 3\n")
    with pytest.raises(ConfigError):
        parse_config_text("[unlearn.warp]\nsteps = 3\n")
    # Every step is full-batch, so no section takes a batch size.
    for section in ("train", "unlearn", "unlearn.finetune"):
        with pytest.raises(ConfigError,
                           match=f"unknown key 'batch_size' in \\[{section}\\]"):
            parse_config_text(f"[{section}]\nbatch_size = 32\n")


def test_bad_values_rejected():
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config_text("[train]\nepochs = many\n")
    with pytest.raises(ConfigError):
        parse_config_text("[prune]\nsparsities = 1.5\n")
    for section, key in (("run", "seeds"), ("mia", "ratios")):
        with pytest.raises(ConfigError, match="must be nonempty"):
            parse_config_text(f"[{section}]\n{key} =\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("[run]\njobs = 2\n")
    for name in ("jobs", "imp_rounds"):
        with pytest.raises(ConfigError, match=name):
            replace(parse_config_text(""), **{name: 2}).validate()


# The config has no [oracle] section: the oracle has one variant, and an
# out dir always holds the model cache.
ORACLE_GONE = r"unknown section \[oracle\]"


def test_rewind_key_rejected():
    # The oracle already starts from the original model's init, so a rewind
    # to it would change nothing but the cache key.
    for key in ("rewind = true", "cache = true", "cache = false"):
        with pytest.raises(ConfigError, match=ORACLE_GONE):
            parse_config_text(f"[oracle]\n{key}\n")


def test_imp_rounds_key_rejected():
    # The oracle has one variant: retrain on the retained rows, prune once.
    for rounds in (0, 1, 3):
        with pytest.raises(ConfigError, match=ORACLE_GONE):
            parse_config_text(f"[oracle]\nimp_rounds = {rounds}\n")


def _method_table(i, method):
    """[unlearn.<method>] with method i's own value for each key it reads."""
    values = {"steps": 11 + i, "rate": f"0.{5 + i}",
              "fisher_noise_scale": f"0.00{5 + i}"}
    return f"\n[unlearn.{method}]\n" + "".join(
        f"{key} = {values[key]}\n" for key in METHODS[method])


# Every key of the schema, each set to a value other than its default.
EVERY_KEY = """
[dataset]
kind = idx
classes = 3
n_per_class = 7
test_per_class = 8
dim = 4
spread = 0.5
images = a.idx
labels = b.idx
test_images = c.idx
test_labels = d.idx

[model]
hidden = 5,6

[train]
epochs = 9
lr = 0.2

[delete]
ratio = 0.2
target_class = 1

[prune]
mode = structured
sparsities = 0.5,0.7
scope = per_layer

[unprune]
grow_per_iter = 0.1
iterations = 4
init = random
random_init_std = 0.02

[unlearn]
methods = finetune,noop

[mia]
ratios = 0.5,0.9

[run]
seeds = 3,4
out = elsewhere
record_timing = false
""" + "".join(_method_table(i, m) for i, m in enumerate(METHODS))


def _field(cfg, section, field_path):
    method = section.partition(".")[2]
    if method:
        return getattr(cfg.unlearn_config(method), field_path.split(".")[-1])
    return functools.reduce(getattr, field_path.split("."), cfg)


def _ini_and_config(text):
    ini = configparser.ConfigParser(interpolation=None)
    ini.read_string(text)
    return ini, parse_config_text(text)


def test_every_key_lands_in_its_field():
    ini, cfg = _ini_and_config(EVERY_KEY)
    defaults = ExperimentConfig()
    assert set(ini.sections()) == set(_KEYS)
    for section, rows in _KEYS.items():
        assert set(ini[section]) == set(rows), section
        for key, (field_path, parse) in rows.items():
            value = parse(ini[section][key])
            assert value != _field(defaults, section, field_path), (section, key)
            assert _field(cfg, section, field_path) == value, (section, key)


def test_each_field_has_one_key():
    paths = Counter(path for rows in _KEYS.values()
                    for path, _ in rows.values())
    nested = {"train", "unlearn_settings", "jobs", "imp_rounds"}
    top = {f.name for f in fields(ExperimentConfig)} - nested
    assert ({p: n for p, n in paths.items() if "." not in p}
            == dict.fromkeys(top, 1))
    assert {p for p in paths if p.startswith("train.")} == {
        f"train.{f.name}" for f in fields(TrainCfg)}
    # Each method's table sets the settings unlearn.METHODS lists for it,
    # and every UnlearnConfig setting is read by some method.
    assert {p for p in paths if p.startswith("unlearn_settings.")} == {
        f"unlearn_settings.{m}.{key}" for m, keys in METHODS.items()
        for key in keys}
    assert {key for keys in METHODS.values() for key in keys} == set(
        UNLEARN_SETTINGS)


def test_per_method_overrides():
    # A method's table sets its settings; a method without a table keeps
    # UnlearnConfig's defaults.
    cfg = parse_config_text(TINY_CONFIG)
    assert cfg.unlearn_settings == {"finetune": {"steps": 5, "rate": 0.05}}
    assert cfg.unlearn_config("finetune") == UnlearnConfig(
        "finetune", steps=5, rate=0.05)
    assert cfg.unlearn_config("noop") == UnlearnConfig("noop")


# A valid value other than the default for each UnlearnConfig setting.
UNLEARN_SETTINGS = {"steps": "2", "rate": "0.02", "fisher_noise_scale": "0.002"}


@pytest.mark.parametrize("key", UNLEARN_SETTINGS)
@pytest.mark.parametrize("section",
                         ["unlearn", *(f"unlearn.{m}" for m in METHODS)])
def test_a_table_takes_a_setting_iff_its_method_reads_it(section, key):
    # [unlearn] holds only the method list, and no method table takes a key
    # that its method would ignore.
    method = section.partition(".")[2]
    text = f"[{section}]\n{key} = {UNLEARN_SETTINGS[key]}\n"
    if key in METHODS.get(method, ()):
        value = getattr(parse_config_text(text).unlearn_config(method), key)
        assert value == float(UNLEARN_SETTINGS[key])
    else:
        with pytest.raises(ConfigError, match=re.escape(
                f"unknown key '{key}' in [{section}]")):
            parse_config_text(text)


@pytest.fixture(scope="module")
def tiny_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = parse_config_text(TINY_CONFIG)
    report = run_experiment(cfg, out_dir=str(out))
    return cfg, report, out


def test_run_experiment_row_structure(tiny_report):
    cfg, report, out = tiny_report
    assert not report.errors
    methods = sorted({row.method for row in report.rows})
    assert methods == ["finetune", "finetune:vs_original", "noop",
                       "noop:vs_original", "oracle", "original"]
    oracle_row = report.select(method="oracle")[0]
    assert oracle_row.iou == 1.0
    assert oracle_row.kl == 0.0
    # noop with nonzero growth still restores sparsity; mask may differ.
    for row in report.rows:
        assert 0.0 <= row.iom <= row.uom <= 1.0


def test_degenerate_noop_identity_row():
    text = TINY_CONFIG.replace("grow_per_iter = 0.05", "grow_per_iter = 1e-9")
    text = text.replace("methods = noop,finetune", "methods = noop")
    cfg = parse_config_text(text)
    report = run_experiment(cfg)
    row = report.select(method="noop:vs_original")[0]
    assert row.iou == 1.0  # degenerate loop is the identity on the mask


def test_csv_columns_exact(tiny_report):
    _, _, out = tiny_report
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "seed,method,sparsity,iom,uom,iou,kl,ta,ua,wall_time_s"


def test_empty_report_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(ExperimentReport(), str(path))
    assert path.read_text().splitlines() == [
        "seed,method,sparsity,iom,uom,iou,kl,ta,ua,wall_time_s"
    ]


def test_json_round_trip(tiny_report, tmp_path):
    _, report, _ = tiny_report
    path = tmp_path / "report.json"
    emit_json(report, str(path))
    loaded = report_from_json(str(path))
    assert loaded.rows == report.rows
    assert loaded.errors == report.errors


def test_rerun_is_byte_identical(tiny_report, tmp_path):
    # With timing off a second out dir gets the same results and traces.
    # Its model cache entries differ only in their wall= header line, the
    # measured wall time of the build, which lies outside that contract.
    cfg, _, out = tiny_report
    second = tmp_path / "again"
    run_experiment(cfg, out_dir=str(second))
    names = ["results.csv", "results.json",
             *(f"traces/{n}" for n in sorted(os.listdir(out / "traces")))]
    assert sorted(os.listdir(second / "traces")) == sorted(
        os.listdir(out / "traces"))
    for name in names:
        assert (second / name).read_bytes() == (out / name).read_bytes(), name
    entries = sorted(os.listdir(out / "oracle_cache"))
    assert entries and sorted(os.listdir(second / "oracle_cache")) == entries

    def without_wall(path):
        header, end, blocks = path.read_bytes().partition(b"end-header\n")
        lines = header.split(b"\n")
        assert sum(line.startswith(b"wall=") for line in lines) == 1
        return [line for line in lines
                if not line.startswith(b"wall=")], blocks

    for name in entries:
        assert without_wall(second / "oracle_cache" / name) == without_wall(
            out / "oracle_cache" / name), name


def _counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return wrapper


def test_rerun_into_one_out_dir_reads_the_model_cache(tmp_path, monkeypatch):
    # The second run loads the dense model and the oracle instead of
    # training them, and writes the same bytes.
    cfg = parse_config_text(TINY_CONFIG)
    out = tmp_path / "out"
    run_experiment(cfg, out_dir=str(out))
    names = ["results.csv", "results.json",
             *(f"traces/{n}" for n in sorted(os.listdir(out / "traces")))]
    first = {name: (out / name).read_bytes() for name in names}
    calls = []
    monkeypatch.setattr(oracle_module, "train_with_cfg", _counting(
        calls, "train", oracle_module.train_with_cfg))
    monkeypatch.setattr(oracle_module, "retrain_reprune", _counting(
        calls, "oracle", oracle_module.retrain_reprune))
    run_experiment(cfg, out_dir=str(out))
    assert calls == []
    assert {name: (out / name).read_bytes() for name in names} == first


def test_rerun_reports_the_stored_build_walls(tmp_path):
    # A re-run reads both models from the cache; its oracle row still
    # reports the retrain's wall time and its original row the training's.
    cfg = replace(parse_config_text(TINY_CONFIG), record_timing=True)
    first = run_experiment(cfg, out_dir=str(tmp_path))
    second = run_experiment(cfg, out_dir=str(tmp_path))
    oracle_walls = [r.select(method="oracle")[0].wall_time_s
                    for r in (first, second)]
    assert oracle_walls[0] > 0.0 and oracle_walls[1] == oracle_walls[0]
    # Two dense entries: the original's on all rows, the oracle's on the
    # retained rows.
    assert len(list((tmp_path / "oracle_cache").glob("dense-*.bin"))) == 2
    train_data = build_data(cfg, 0)[0]
    key = dense_key(train_data, np.arange(train_data.n), cfg.arch_dims(),
                    cfg.train, 0)
    dense_entry = tmp_path / "oracle_cache" / f"dense-{key}.bin"
    dense_wall = float(snapshot_header(str(dense_entry))["wall"])
    assert second.select(method="original")[0].wall_time_s >= dense_wall > 0.0


def test_grid_trains_one_retained_model_per_seed(tmp_path, monkeypatch):
    # Every sparsity's oracle prunes the seed's one retained-row model, and
    # equals retrain_reprune at that sparsity bit for bit.
    cfg = replace(parse_config_text(TINY_CONFIG), sparsities=(0.5, 0.7),
                  seeds=(0, 1))
    calls = []
    # train_sgd runs every training in the package, whoever calls it.
    monkeypatch.setattr(train_module, "train_sgd", _counting(
        calls, "train", train_module.train_sgd))
    report = run_experiment(cfg, out_dir=str(tmp_path))
    assert len(calls) == 2 * len(cfg.seeds)  # all rows, retained rows
    monkeypatch.undo()
    for seed in cfg.seeds:
        train_data, test_data, split = build_data(cfg, seed)
        for sparsity in cfg.sparsities:
            oracle, _ = oracle_module.retrain_reprune(
                train_data, split, cfg.arch_dims(), cfg.train, sparsity, seed)
            cached, _, hit = cell_oracle(cfg, seed, sparsity, train_data, split,
                                         model_cache_dir(str(tmp_path)))
            assert hit
            for got, want in ((cached.weights, oracle.weights),
                              (cached.masks, oracle.masks)):
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
            scores = _scores(cfg, oracle, (oracle,), train_data, test_data,
                             split)[0]
            (row,) = [r for r in report.select(method="oracle",
                                               sparsity=sparsity)
                      if r.seed == seed]
            assert row == CellRow(seed=seed, method="oracle",
                                  sparsity=sparsity, wall_time_s=0.0, **scores)


def test_failed_cell_records_its_error_type(tmp_path, monkeypatch):
    # Finetune raises inside core.unprune's BLAS scope; the cell becomes an
    # error row with the exception's type, the other cells still write
    # their rows, and the BLAS thread count is left as it was found.
    def failing_unlearn(model, split, dataset, config, rng):
        if config.method == "finetune":
            raise NumericError("diverged on purpose")
        return unlearn(model, split, dataset, config, rng)

    monkeypatch.setattr(core_module, "unlearn", failing_unlearn)
    get_threads, _ = numeric._BLAS_THREADS
    threads = get_threads()
    report = run_experiment(parse_config_text(TINY_CONFIG), out_dir=str(tmp_path))
    (error,) = report.errors
    assert {k: v for k, v in error.items() if k != "traceback"} == {
        "seed": 0, "method": "finetune", "sparsity": 0.5,
        "error": "diverged on purpose", "type": "NumericError"}
    # Frames run from the grid's catch to the raise, each file named by its
    # base name only.
    frames = error["traceback"]
    assert frames[0].startswith("experiment.py:")
    assert frames[-1].startswith("test_config_cli.py:")
    assert frames[-1].endswith(" in failing_unlearn")
    assert not any(os.sep in frame for frame in frames)
    assert report_from_json(str(tmp_path / "results.json")).errors == report.errors
    methods = [line.split(",")[1] for line in
               (tmp_path / "results.csv").read_text().splitlines()[1:]]
    assert methods == ["noop", "noop:vs_original", "oracle", "original"]
    assert os.listdir(tmp_path / "traces") == ["trace_seed0_s0.5_noop.csv"]
    assert get_threads() == threads


@pytest.mark.parametrize("module", [experiment_module, oracle_module],
                         ids=["dense", "oracle"])
def test_diverging_seed_keeps_the_other_seeds(tmp_path, monkeypatch, module):
    # Seed 1's dense training (in prepare_seed), or only its retained
    # training (in the oracle), diverges. Its cells become errors; seed 0's
    # rows and traces are written as a seed-0-only run writes them.
    alone = tmp_path / "alone"
    report_alone = run_experiment(parse_config_text(TINY_CONFIG),
                                  out_dir=str(alone))
    train_model = module.train_model

    def diverging(cache_dir, dataset, rows, dims, train_cfg, seed):
        if seed == 1:
            raise NumericError("training diverged on purpose")
        return train_model(cache_dir, dataset, rows, dims, train_cfg, seed)

    monkeypatch.setattr(module, "train_model", diverging)
    config_path = tmp_path / "two.ini"
    config_path.write_text(TINY_CONFIG.replace("seeds = 0", "seeds = 0,1"))
    out = tmp_path / "two"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
    report = report_from_json(str(out / "results.json"))
    assert report.rows == report_alone.rows
    assert (out / "results.csv").read_bytes() == (
        alone / "results.csv").read_bytes()
    traces = sorted(os.listdir(alone / "traces"))
    assert sorted(os.listdir(out / "traces")) == traces
    for name in traces:
        assert (out / "traces" / name).read_bytes() == (
            alone / "traces" / name).read_bytes()
    assert [(e["seed"], e["sparsity"], e["method"], e["type"], e["error"])
            for e in report.errors] == [
        (1, 0.5, "finetune", "NumericError", "training diverged on purpose"),
        (1, 0.5, "noop", "NumericError", "training diverged on purpose")]
    for error in report.errors:
        assert set(error) == {"seed", "method", "sparsity", "error", "type",
                              "traceback"}
        assert error["traceback"][-1].endswith(" in diverging")


def test_diverging_oracle_trains_once_per_seed(monkeypatch):
    # Seed 1's retained training diverges. Its oracles at the three
    # sparsities share that one training, so it runs once and its error
    # stands for every seed-1 cell; seed 0 writes all of its rows.
    train_model = oracle_module.train_model
    seeds = []

    def diverging(cache_dir, dataset, rows, dims, train_cfg, seed):
        seeds.append(seed)
        if seed == 1:
            raise NumericError("training diverged on purpose")
        return train_model(cache_dir, dataset, rows, dims, train_cfg, seed)

    monkeypatch.setattr(oracle_module, "train_model", diverging)
    report = run_experiment(parse_config_text(
        TINY_CONFIG.replace("sparsities = 0.5", "sparsities = 0.3,0.5,0.7")
        .replace("seeds = 0", "seeds = 0,1")))
    assert seeds.count(1) == 1
    assert [(e["seed"], e["sparsity"], e["method"], e["error"])
            for e in report.errors] == [
        (1, sparsity, method, "training diverged on purpose")
        for sparsity in (0.3, 0.5, 0.7) for method in ("finetune", "noop")]
    assert len(report.rows) == 18
    assert {row.seed for row in report.rows} == {0}


# SHA-256 of the structured grid's outputs for seed 0 without timing. A
# change that moves these numbers must re-pin them and say why.
STRUCTURED_SEED0_SHA256 = {
    "results.csv":
        "28aa37cb94413cd385de36331b978123f14bcaf397dab0acedb654f1728ecd9a",
    "results.json":
        "23a7d0f1fa43e428e64e0e7d3c47ad7b78ecfcec63af231b9a1468f9b0b73bc2",
    "traces/trace_seed0_s0.75_finetune.csv":
        "10295c991333d380060b965924df9aead8fbe1563e5ab9a4c1db5a63b599d2ac",
    "traces/trace_seed0_s0.75_gradient_ascent.csv":
        "55948050df664d546c36e7e6915d353c2634e509354f430860cc1b6c1e1e2c7a",
}


def test_structured_golden_output(struct_grid, tmp_path):
    # The session grid's seed-0 rows, emitted alone, and its seed-0 traces.
    report, out = struct_grid
    seed0 = ExperimentReport(rows=[row for row in report.rows if row.seed == 0])
    emit_csv(seed0, str(tmp_path / "results.csv"))
    emit_json(seed0, str(tmp_path / "results.json"))
    for name, digest in STRUCTURED_SEED0_SHA256.items():
        data = (out / name if name.startswith("traces/") else
                tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


TINY_SHA256 = {
    "results.csv":
        "4b35e5a328aaa1abe0537dfa09c213183542fbd0a567bb8144aa1530ee8ff581",
    "results.json":
        "5b7d34cdb7e6136cc2d53bc2e8f39104d611d231e7d967cab42bae93506487d7",
    "traces/trace_seed0_s0.5_finetune.csv":
        "8fe5d73b7249a8bfcd1a9bee197bac35811832a4639cb48b97f6e192adfba7b6",
    "traces/trace_seed0_s0.5_noop.csv":
        "8fe5d73b7249a8bfcd1a9bee197bac35811832a4639cb48b97f6e192adfba7b6",
}


def test_tiny_unstructured_golden_output(tiny_report):
    _, _, out = tiny_report
    for name, digest in TINY_SHA256.items():
        data = (out / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


# SHA-256 of MASK_CONFIG's grid outputs. A change that moves these numbers
# must re-pin them and say why.
MASK_SHA256 = {
    "results.csv":
        "2f27f514f306ae2523ade8c1aa2f1d3217d56ab0b8589eb7986ef6dc0abb3c74",
    "results.json":
        "97fb6e244cd820f02e4ce045648e0de5a2cbb65a66fd9318ce2e44ba90fc10f6",
    "traces/trace_seed0_s0.8_finetune.csv":
        "ae64fa1e131b4a8c8c3fd1d801cbba8e64eaf8270e6ec97cd4956bcca089d8e3",
    "traces/trace_seed0_s0.8_noop.csv":
        "6ae00fbd32cba358a9af873d22aed408b4cae2eadd5bb5dee9773865b1068cba",
    "traces/trace_seed1_s0.8_finetune.csv":
        "52622ce69939c4dd11c7526fb105d5e9201bb3a3e7be43914093ad10e8c91d67",
    "traces/trace_seed1_s0.8_noop.csv":
        "005effe085e012585848d457222f3efad498830f6f21e06724f00249eda73712",
}


def test_mask_config_golden_output(tmp_path):
    report = run_experiment(parse_config_text(MASK_CONFIG), out_dir=str(tmp_path))
    assert not report.errors
    assert min(row.iou for row in report.rows) < 0.7
    for name, digest in MASK_SHA256.items():
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_traces_written(tiny_report):
    _, _, out = tiny_report
    traces = sorted(p.name for p in (out / "traces").iterdir())
    assert traces == ["trace_seed0_s0.5_finetune.csv", "trace_seed0_s0.5_noop.csv"]


def _count_circles(path):
    tree = ET.parse(path)
    return len(tree.getroot().findall(".//{http://www.w3.org/2000/svg}circle"))


def _svg_elements(path, tag):
    return ET.parse(path).getroot().findall(f"{{http://www.w3.org/2000/svg}}{tag}")


def _legend(path):
    """The legend's labels, top to bottom."""
    x = str(svg.WIDTH - svg.MARGIN - 114)
    return [t.text for t in _svg_elements(path, "text") if t.get("x") == x]


def test_scatter_svg_valid_and_counts(tiny_report, tmp_path):
    _, report, _ = tiny_report
    path = tmp_path / "scatter.svg"
    emit_scatter(report, "iom", "ua", str(path))
    # (original + 2 methods) x 1 seed = 3 circles; oracle is a diamond marker.
    assert _count_circles(str(path)) == 3
    assert len(_svg_elements(str(path), "path")) == 1
    # Methods in first-appearance order, then the oracle's own entry.
    assert _legend(str(path)) == ["finetune", "noop", "original", "oracle"]
    empty = tmp_path / "empty.svg"
    emit_scatter(ExperimentReport(), "iom", "ua", str(empty))
    ET.parse(str(empty))  # still well-formed XML
    with pytest.raises(ConfigError):
        emit_scatter(report, "iom", "accuracy", str(path))


def test_chart_svg_skips_nan_points_and_keeps_their_legend(tmp_path):
    nan = float("nan")
    series = {"a": [(0.0, 1.0), (1.0, nan), (2.0, 3.0)],
              "b": [(0.0, nan), (1.0, nan)]}
    path = str(tmp_path / "lines.svg")
    svg.chart_svg(series, "x", "y", path, lines=True)
    (line,) = _svg_elements(path, "polyline")
    assert len(line.get("points").split()) == 2
    assert _legend(path) == ["a", "b"]
    svg.chart_svg(series, "x", "y", path)
    assert _count_circles(path) == 2
    assert not _svg_elements(path, "polyline")
    assert _legend(path) == ["a", "b"]


def test_mia_sweep_chart_has_one_line_per_channel(tmp_path):
    config_path = tmp_path / "tiny.ini"
    config_path.write_text(TINY_CONFIG)
    out = tmp_path / "out"
    assert main(["mia-sweep", "--config", str(config_path), "--out",
                 str(out)]) == 0
    path = str(out / "mia_sweep_seed0.svg")
    assert len(_svg_elements(path, "polyline")) == len(CHANNELS) == 5
    assert _legend(path) == list(CHANNELS)
    assert _count_circles(path) == 0


def test_cli_run_and_plot(tmp_path):
    config_path = tmp_path / "tiny.ini"
    config_path.write_text(TINY_CONFIG)
    out = tmp_path / "out"
    code = main(["run", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    assert (out / "results.csv").exists()
    code = main(["plot", "--config", str(config_path), "--out", str(out),
                 "--x", "iou", "--y", "ua"])
    assert code == 0
    ET.parse(str(out / "scatter_iou_ua.svg"))


def test_cli_stage_commands(tmp_path):
    config_path = tmp_path / "tiny.ini"
    config_path.write_text(TINY_CONFIG)
    out = tmp_path / "stages"
    assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
    snap = out / "model_seed0.bin"
    assert snap.exists()
    assert main(["prune", "--config", str(config_path), "--out", str(out),
                 "--model", str(snap)]) == 0
    assert main(["oracle", "--config", str(config_path), "--out", str(out)]) == 0
    assert main(["unprune", "--config", str(config_path), "--out", str(out),
                 "--method", "finetune"]) == 0
    assert main(["evaluate", "--config", str(config_path), "--out", str(out),
                 "--model", str(snap)]) == 0
    assert main(["mia-sweep", "--config", str(config_path), "--out", str(out),
                 "--model", str(snap)]) == 0
    assert (out / "mia_sweep_seed0.csv").exists()
    ET.parse(str(out / "mia_sweep_seed0.svg"))


def test_cli_config_error_exit_code(tmp_path):
    config_path = tmp_path / "bad.ini"
    config_path.write_text("[dataset]\nkind = parquet\n")
    assert main(["run", "--config", str(config_path), "--out",
                 str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("command", ["train", "run"])
def test_cli_diverging_training_exits_1(tmp_path, capsys, command):
    config_path = tmp_path / "diverging.ini"
    config_path.write_text(TINY_CONFIG.replace("lr = 0.3", "lr = 1e300"))
    assert main([command, "--config", str(config_path), "--out",
                 str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: training diverged at epoch 0")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["prune", "oracle", "unprune"])
@pytest.mark.parametrize("sparsity", ["1.5", "1", "0"])
def test_cli_sparsity_outside_unit_interval_rejected_before_work(
        tmp_path, monkeypatch, capsys, command, sparsity):
    def no_work(*args, **kwargs):
        raise AssertionError("the model was built before --sparsity was checked")

    monkeypatch.setattr(cli, "prepare_seed", no_work)
    monkeypatch.setattr(cli, "build_data", no_work)
    config_path = tmp_path / "tiny.ini"
    config_path.write_text(TINY_CONFIG)
    assert main([command, "--config", str(config_path), "--out",
                 str(tmp_path / "o"), "--sparsity", sparsity]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: sparsity {float(sparsity)} outside (0, 1)\n"


# (TINY_CONFIG line, its replacement, the error): each cell of such a
# config cannot run. 0.3 x 2 iterations underflows the 0.5 sparsity; with
# no epoch the grid would score untrained init weights.
BAD_UNPRUNE = [
    ("iterations = 2", "iterations = 0", "iterations must be >= 1"),
    ("grow_per_iter = 0.05", "grow_per_iter = 0.3", "sparsity underflow"),
    ("iterations = 2", "iterations = 2\nrandom_init_std = -1",
     "random_init_std must be >= 0"),
    ("epochs = 40", "epochs = 0", "epochs must be >= 1"),
    ("lr = 0.3", "lr = -1.0", "lr must be finite and >= 0"),
    ("lr = 0.3", "lr = nan", "lr must be finite and >= 0"),
    ("methods = noop,finetune", "methods = noop,fisher_forgetting\n\n"
     "[unlearn.fisher_forgetting]\nfisher_noise_scale = -1",
     "fisher_forgetting fisher_noise_scale must be >= 0"),
    # A method table is checked even when the grid does not run its method:
    # `unprune --method` can still pick it.
    ("[run]", "[unlearn.fisher_forgetting]\nfisher_noise_scale = -1\n\n[run]",
     "fisher_forgetting fisher_noise_scale must be >= 0"),
    ("steps = 5", "steps = 0", "finetune steps must be >= 1"),
    ("rate = 0.05", "rate = 0", "finetune rate must be > 0"),
    ("hidden = 8", "hidden = 8,0", "hidden widths must be >= 1"),
    # Structured pruning cuts hidden neurons, so it needs a hidden layer.
    (("hidden = 8", "mode = unstructured"), ("hidden =", "mode = structured"),
     "structured pruning needs a hidden layer"),
    ("ratio = 0.1", "ratio = 0.1\ntarget_class = 5", "target_class 5 outside"),
    # One logit's softmax cross-entropy is 0 whatever the weights.
    ("classes = 2", "classes = 1", "classes must be >= 2"),
]


@pytest.mark.parametrize("old, new, error", BAD_UNPRUNE,
                         ids=["iterations", "underflow", "random_init_std",
                              "epochs", "lr", "lr_nan", "fisher_noise_scale",
                              "unused_method_table", "steps", "rate",
                              "hidden_width", "structured_no_hidden",
                              "target_class", "one_class"])
def test_bad_unprune_settings_rejected_before_training(
        tmp_path, monkeypatch, capsys, old, new, error):
    text = TINY_CONFIG
    # A tuple row makes one edit per pair.
    for o, n in (zip(old, new) if isinstance(old, tuple) else [(old, new)]):
        text = text.replace(o, n)
    with pytest.raises(ConfigError, match=error):
        parse_config_text(text)
    calls = []
    monkeypatch.setattr(oracle_module, "train_with_cfg", _counting(
        calls, "train", oracle_module.train_with_cfg))
    config_path = tmp_path / "bad.ini"
    config_path.write_text(text)
    assert main(["run", "--config", str(config_path), "--out",
                 str(tmp_path / "o")]) == 1
    assert calls == []
    assert capsys.readouterr().err.startswith(f"config error: {error}")


@pytest.mark.parametrize("dim, top_label, error", [
    (None, 1, "[dataset] dim is 2, but the idx-train inputs have 9 columns"),
    ("9", 2, "[dataset] classes is 2, but the idx-train labels reach 2"),
], ids=["dim", "classes"])
def test_idx_data_that_misfits_the_config_rejected_before_training(
        tmp_path, monkeypatch, capsys, dim, top_label, error):
    rng = SeededRng(3)
    images = Dataset(inputs=rng.uniform(0.0, 1.0, 60 * 9).reshape(60, 9),
                     labels=np.arange(60) % (top_label + 1),
                     num_classes=top_label + 1, name="tiny",
                     image_shape=(3, 3))
    write_idx(images, str(tmp_path / "a.idx"), str(tmp_path / "b.idx"))
    dataset = "kind = idx\nimages = {0}/a.idx\nlabels = {0}/b.idx\n".format(
        tmp_path) + (f"dim = {dim}\n" if dim else "")
    text = TINY_CONFIG.replace("kind = blobs\n", dataset).replace(
        "dim = 2\n", "")
    calls = []
    monkeypatch.setattr(oracle_module, "train_with_cfg", _counting(
        calls, "train", oracle_module.train_with_cfg))
    config_path = tmp_path / "idx.ini"
    config_path.write_text(text)
    assert main(["run", "--config", str(config_path), "--out",
                 str(tmp_path / "o")]) == 1
    assert calls == []
    assert capsys.readouterr().err == f"config error: {error}\n"


def test_empty_method_list_rejected(tmp_path, capsys):
    # With no method there is no cell to check the [unprune] settings on,
    # and `unprune` has no method to run.
    text = TINY_CONFIG.replace("methods = noop,finetune", "methods =")
    with pytest.raises(ConfigError, match="methods must be nonempty"):
        parse_config_text(text.replace("iterations = 2", "iterations = 0"))
    config_path = tmp_path / "no_methods.ini"
    config_path.write_text(text)
    assert main(["unprune", "--config", str(config_path), "--out",
                 str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "config error: methods must be nonempty\n"


@pytest.mark.parametrize("old, new", [
    ("seeds = 0", "seeds = 0,0"),
    ("sparsities = 0.5", "sparsities = 0.5,0.50"),
    ("methods = noop,finetune", "methods = finetune,noop,finetune"),
    ("[run]", "[mia]\nratios = 0.9,1.0,0.9\n\n[run]"),
], ids=["seeds", "sparsities", "methods", "mia_ratios"])
def test_repeated_list_entry_rejected_before_training(tmp_path, monkeypatch,
                                                      capsys, old, new):
    # A repeated seed, sparsity or method would run its cells twice, write
    # their rows twice and their traces once; a repeated ratio would sweep
    # one point twice.
    text = TINY_CONFIG.replace(old, new)
    with pytest.raises(ConfigError, match="repeated entry in"):
        parse_config_text(text)
    calls = []
    monkeypatch.setattr(train_module, "train_sgd", _counting(
        calls, "train", train_module.train_sgd))
    config_path = tmp_path / "repeat.ini"
    config_path.write_text(text)
    assert main(["run", "--config", str(config_path), "--out",
                 str(tmp_path / "o")]) == 1
    assert calls == []
    assert capsys.readouterr().err.startswith("config error: repeated entry")


@pytest.mark.parametrize("ratios", ["0,-1", "inf", "nan"],
                         ids=["nonpositive", "inf", "nan"])
def test_bad_mia_ratios_rejected_before_training(tmp_path, monkeypatch,
                                                 capsys, ratios):
    # A ratio sets the member count round(ratio * pool), so it must be a
    # finite number > 0.
    text = TINY_CONFIG.replace("[run]", f"[mia]\nratios = {ratios}\n\n[run]")
    calls = []
    monkeypatch.setattr(train_module, "train_sgd", _counting(
        calls, "train", train_module.train_sgd))
    config_path = tmp_path / "ratios.ini"
    config_path.write_text(text)
    out = tmp_path / "o"
    assert main(["mia-sweep", "--config", str(config_path), "--out",
                 str(out)]) == 1
    assert calls == []
    assert capsys.readouterr().err.startswith("config error: [mia] ratios: ")
    assert list(out.glob("oracle_cache/*")) == []


@pytest.mark.parametrize("nonmembers, ratios, error", [
    ("-5", "", "need a pool of at least 2 non-members, got -5"),
    ("0", "", "need a pool of at least 2 non-members, got 0"),
    ("1", "", "need a pool of at least 2 non-members, got 1"),
    ("2", "[mia]\nratios = 1.0,0.5\n\n",
     "2 non-members at ratio 0.5 give a member count of 1; need at least 2"),
], ids=["negative", "zero", "one", "too_few_members"])
def test_cli_mia_sweep_nonmembers_checked_before_training(
        tmp_path, monkeypatch, capsys, nonmembers, ratios, error):
    calls = []
    monkeypatch.setattr(train_module, "train_sgd", _counting(
        calls, "train", train_module.train_sgd))
    config_path = tmp_path / "tiny.ini"
    config_path.write_text(TINY_CONFIG.replace("[run]", ratios + "[run]"))
    out = tmp_path / "o"
    assert main(["mia-sweep", "--config", str(config_path), "--out", str(out),
                 "--nonmembers", nonmembers]) == 1
    assert calls == []
    assert capsys.readouterr().err == f"config error: --nonmembers: {error}\n"
    assert list(out.glob("oracle_cache/*")) == []


def test_cli_unknown_method_rejected_before_work(tmp_path, monkeypatch,
                                                 capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("the model was built before --method was checked")

    monkeypatch.setattr(cli, "prepare_seed", no_work)
    monkeypatch.setattr(cli, "build_data", no_work)
    config_path = tmp_path / "tiny.ini"
    config_path.write_text(TINY_CONFIG)
    assert main(["unprune", "--config", str(config_path), "--out",
                 str(tmp_path / "o"), "--method", "bogus"]) == 1
    assert capsys.readouterr().err == (
        "config error: unknown unlearning method 'bogus'\n")


@pytest.mark.parametrize("seeds", ["0,x", ",", "0,1,0"])
def test_cli_malformed_seeds_are_a_config_error(tmp_path, monkeypatch, capsys,
                                                seeds):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --seeds was checked")

    monkeypatch.setattr(cli, "prepare_seed", no_work)
    config_path = tmp_path / "tiny.ini"
    config_path.write_text(TINY_CONFIG)
    assert main(["train", "--config", str(config_path), "--out",
                 str(tmp_path / "o"), "--seeds", seeds]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_cli_input_and_format_errors_exit_1(tmp_path, capsys):
    config_path = tmp_path / "tiny.ini"
    config_path.write_text(TINY_CONFIG)
    corrupt = tmp_path / "corrupt.bin"
    corrupt.write_bytes(b"not a snapshot")
    assert main(["evaluate", "--config", str(config_path),
                 "--model", str(corrupt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    wrong_input = tmp_path / "three_inputs.bin"
    save_snapshot(build_model([3, 4, 2], 0), str(wrong_input))
    assert main(["evaluate", "--config", str(config_path),
                 "--model", str(wrong_input)]) == 1
    err = capsys.readouterr().err
    assert err == "error: inputs must be (batch, 3), got (6, 2)\n"


def test_cli_prune_writes_the_grids_pruned_clone(tmp_path):
    # One prune path: from the model cache, or from the snapshot that
    # `train` wrote, `prune` writes the model the grid cuts for the cell.
    text = TINY_CONFIG.replace("sparsities = 0.5", "sparsities = 0.5,0.7")
    config_path = tmp_path / "tiny.ini"
    config_path.write_text(text)
    out, trained = tmp_path / "pruned", tmp_path / "trained"
    assert main(["prune", "--config", str(config_path), "--out", str(out),
                 "--sparsity", "0.7"]) == 0
    assert main(["train", "--config", str(config_path), "--out",
                 str(trained)]) == 0
    assert main(["prune", "--config", str(config_path), "--out", str(trained),
                 "--model", str(trained / "model_seed0.bin"),
                 "--sparsity", "0.7"]) == 0
    expected = tmp_path / "grid_clone.bin"
    cfg = parse_config(str(config_path)).validate()
    save_snapshot(_prune_to(prepare_seed(cfg, 0).dense, cfg, 0.7),
                  str(expected))
    for directory in (out, trained):
        assert ((directory / "pruned_seed0_s0.7.bin").read_bytes()
                == expected.read_bytes())


@pytest.mark.parametrize("command", ["train", "mia-sweep", "prune", "unprune",
                                     "run"])
def test_cli_prunes_only_the_models_it_reads(tmp_path, monkeypatch, command):
    # Each command prunes where it reads a pruned model: `run` one clone
    # per (seed, sparsity), `prune` and `unprune` one model, the others none.
    calls = []
    counted = _counting(calls, "prune", experiment_module._prune_to)
    monkeypatch.setattr(experiment_module, "_prune_to", counted)
    monkeypatch.setattr(cli, "_prune_to", counted)
    config_path = tmp_path / "tiny.ini"
    config_path.write_text(TINY_CONFIG.replace(
        "sparsities = 0.5", "sparsities = 0.3,0.5,0.7").replace(
        "seeds = 0", "seeds = 0,1"))
    assert main([command, "--config", str(config_path), "--out",
                 str(tmp_path / "o")]) == 0
    expected = {"train": 0, "mia-sweep": 0, "prune": 1, "unprune": 1,
                "run": 2 * 3}
    assert len(calls) == expected[command]


@pytest.mark.parametrize("argv, results", [
    (["evaluate", "--model", "missing.bin"], None),
    (["mia-sweep", "--model", "missing.bin"], None),
    (["plot"], None),
    (["plot", "--results", "rows.json"], '{"rows": [{"seed": 0}], "errors": []}'),
    (["plot", "--results", "rows.json"], "seed,method\n"),
], ids=["evaluate_missing_model", "mia_sweep_missing_model",
        "plot_missing_results", "plot_row_lacks_keys", "plot_not_json"])
def test_cli_bad_input_file_is_one_error_line(tmp_path, monkeypatch, capsys,
                                              argv, results):
    monkeypatch.chdir(tmp_path)
    if results is not None:
        (tmp_path / "rows.json").write_text(results)
    (tmp_path / "tiny.ini").write_text(TINY_CONFIG)
    assert main([*argv, "--config", "tiny.ini", "--out", "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_readme_commands_parse(capsys):
    # Every `unprune ...` line in the README's code blocks, optional [parts]
    # included, is a command line the parser accepts.
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                          "README.md")
    with open(readme) as fh:
        blocks = fh.read().split("```")[1::2]
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("unprune ")]
    assert lines
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(line.replace("[", "").replace("]", "")
                              .split()[1:])
        except SystemExit:
            pytest.fail(f"{line!r}: {capsys.readouterr().err}")


def test_cli_out_falls_back_to_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config_path = tmp_path / "tiny.ini"
    config_path.write_text(TINY_CONFIG.replace(
        "[run]\n", f"[run]\nout = {tmp_path / 'cfg-out'}\n"))
    assert main(["train", "--config", str(config_path)]) == 0
    assert (tmp_path / "cfg-out" / "model_seed0.bin").exists()
    assert main(["train", "--config", str(config_path), "--out",
                 str(tmp_path / "flag-out")]) == 0
    assert (tmp_path / "flag-out" / "model_seed0.bin").exists()
    assert not (tmp_path / "results").exists()


def test_cli_unprune_trace_equals_grid_trace(tiny_report, tmp_path):
    # The unprune subcommand runs the same cell as the grid, byte for byte.
    _, _, grid_out = tiny_report
    config_path = tmp_path / "tiny.ini"
    config_path.write_text(TINY_CONFIG)
    out = tmp_path / "cell"
    assert main(["unprune", "--config", str(config_path), "--out", str(out),
                 "--method", "finetune"]) == 0
    name = "trace_seed0_s0.5_finetune.csv"
    assert (out / name).read_bytes() == (grid_out / "traces" / name).read_bytes()


@pytest.mark.parametrize("command, output", [
    ("prune", "pruned_seed0_s0.5.bin"),
    ("unprune", "unpruned_seed0_s0.5_noop.bin"),
    ("mia-sweep", "mia_sweep_seed0.csv"),
])
def test_cli_second_call_loads_the_cached_model(tmp_path, monkeypatch,
                                                command, output):
    def no_training(*args, **kwargs):
        raise AssertionError("the dense model was trained again")

    config_path = tmp_path / "tiny.ini"
    config_path.write_text(TINY_CONFIG)
    argv = [command, "--config", str(config_path), "--out", str(tmp_path)]
    assert main(argv) == 0
    first = (tmp_path / output).read_bytes()
    monkeypatch.setattr(oracle_module, "train_with_cfg", no_training)
    assert main(argv) == 0
    assert (tmp_path / output).read_bytes() == first


def test_cli_train_then_unprune_trains_once(tmp_path, monkeypatch):
    # train writes the dense cache entry that unprune then reads.
    calls = []
    monkeypatch.setattr(oracle_module, "train_with_cfg", _counting(
        calls, "train", oracle_module.train_with_cfg))
    config_path = tmp_path / "tiny.ini"
    config_path.write_text(TINY_CONFIG)
    for command in ("train", "unprune"):
        assert main([command, "--config", str(config_path), "--out",
                     str(tmp_path / "out")]) == 0
    assert calls == ["train"]


def test_cli_evaluate_ref_prints_the_grids_original_row(tiny_report, tmp_path,
                                                        capsys):
    _, report, _ = tiny_report
    config_path = tmp_path / "tiny.ini"
    config_path.write_text(TINY_CONFIG)
    out = tmp_path / "out"
    for command in ("prune", "oracle"):
        assert main([command, "--config", str(config_path), "--out",
                     str(out)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--config", str(config_path),
                 "--model", str(out / "pruned_seed0_s0.5.bin"),
                 "--ref", str(out / "oracle_seed0_s0.5.bin")]) == 0
    row = report.select(method="original")[0]
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"vs ref: iom={row.iom:.4f} uom={row.uom:.4f} iou={row.iou:.4f} "
        f"kl={row.kl:.4f}")


def test_cli_seeds_override(tmp_path):
    config_path = tmp_path / "tiny.ini"
    config_path.write_text(TINY_CONFIG.replace("seeds = 0", "seeds = 0,1"))
    out = tmp_path / "seeded"
    assert main(["run", "--config", str(config_path), "--out", str(out),
                 "--seeds", "1"]) == 0
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert all(row.startswith("1,") for row in rows)


def test_partial_cell_failure_exit_code(tmp_path):
    # A diverging unlearner fails its cell; other cells still complete.
    text = TINY_CONFIG.replace("methods = noop,finetune",
                               "methods = noop,gradient_ascent")
    text += "\n[unlearn.gradient_ascent]\nsteps = 50\nrate = 1e9\n"
    config_path = tmp_path / "diverge.ini"
    config_path.write_text(text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert any(",noop," in row for row in rows)
    assert not any("gradient_ascent" in row for row in rows)
