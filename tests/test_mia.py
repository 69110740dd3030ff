import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unprune.config import ExperimentConfig
from unprune.data import Dataset, gen_blobs, split_delete
from unprune.errors import InputError
from unprune.mia import (
    CHANNELS,
    _fit_thresholds,
    _padded,
    _score_thresholds,
    mia_evaluate,
    mia_features,
    ratio_sweep,
    sweep_to_csv,
)
from unprune import mia as mia_module
from unprune.model import forward, init_model
from unprune.numeric import SeededRng
from unprune.oracle import build_model
from unprune.train import TrainCfg, train_with_cfg

# The sweep's default shadow ratios, 0.80 to 1.20.
MIA_RATIOS = ExperimentConfig().mia_ratios


@pytest.fixture(scope="module")
def trained():
    rng = SeededRng(50)
    train = gen_blobs(rng.split("tr"), 100, 2, 2, 1.5)
    test = gen_blobs(rng.split("te"), 100, 2, 2, 1.5)
    split = split_delete(train, 0.2, rng.split("del"))
    model = build_model([2, 16, 2], 50)
    train_with_cfg(model, train, np.arange(train.n), TrainCfg(300, 0.3),
                   SeededRng(50).split("sgd"))
    return model, train, test, split


def test_uniform_softmax_entropy_is_log_c():
    model = init_model([2, 3], SeededRng(0))
    for w in model.weights:
        w[...] = 0.0
    data = gen_blobs(SeededRng(1), 5, 3, 2, 1.0)
    feats = mia_features(model, data, np.arange(data.n))
    assert np.allclose(feats["entropy"], np.log(3.0), atol=1e-12)
    assert np.allclose(feats["confidence"], 1.0 / 3.0, atol=1e-12)


def test_confident_correct_prediction_has_tiny_m_entropy():
    model = init_model([2, 2], SeededRng(0))
    model.weights[0][...] = np.array([[60.0, 0.0], [-60.0, 0.0]])
    data = Dataset(inputs=np.tile([[1.0, 0.0]], (3, 1)),
                   labels=np.zeros(3, dtype=np.int64), num_classes=2,
                   name="confident")
    feats = mia_features(model, data, np.arange(3))
    assert np.all(feats["m_entropy"] < 1e-6)
    assert np.all(feats["correctness"] == 1.0)


def test_features_deterministic(trained):
    model, train, _, split = trained
    a = mia_features(model, train, split.forget_indices)
    b = mia_features(model, train, split.forget_indices)
    assert set(a) == set(CHANNELS)
    for key in a:
        assert np.array_equal(a[key], b[key])


def test_evaluate_deterministic_and_bounded(trained):
    model, train, test, split = trained
    args = (model, train, split.forget_indices, test, np.arange(test.n))
    a = mia_evaluate(*args, ratio=1.0, rng=SeededRng(3))
    b = mia_evaluate(*args, ratio=1.0, rng=SeededRng(3))
    assert a == b
    for channel in CHANNELS:
        assert 0.0 <= a.score(channel) <= 1.0


def test_evaluate_resampling_counts_and_flag(trained):
    model, train, test, split = trained
    report = mia_evaluate(model, train, split.forget_indices, test,
                          np.arange(100), ratio=1.2, rng=SeededRng(4))
    assert report.n_member == 120
    assert report.n_nonmember == 100
    assert report.resampled_with_replacement  # only 40 distinct members


def test_evaluate_degenerate_inputs_rejected(trained):
    model, train, test, split = trained
    with pytest.raises(InputError):
        mia_evaluate(model, train, np.array([], dtype=int), test,
                     np.arange(10), 1.0, SeededRng(0))
    with pytest.raises(InputError):
        mia_evaluate(model, train, split.forget_indices, test,
                     np.arange(10), 0.0, SeededRng(0))
    with pytest.raises(InputError):
        # member count rounds to 1 < 2: degenerate attack set
        mia_evaluate(model, train, split.forget_indices, test,
                     np.arange(1), 1.0, SeededRng(0))


def test_ratio_sweep_counts_and_repeatability(trained):
    model, train, test, split = trained
    reports = ratio_sweep(model, train, split.forget_indices, test,
                          np.arange(60), MIA_RATIOS, SeededRng(5))
    assert len(reports) == 9
    # Identical ratios reproduce identical reports regardless of position.
    again = ratio_sweep(model, train, split.forget_indices, test,
                        np.arange(60), [1.0, 1.0, 1.0], SeededRng(5))
    assert again[0] == again[1] == again[2]


def test_ratio_sweep_featurizes_the_nonmembers_once(trained, monkeypatch):
    # The model and both pools are the same at every ratio, so a 9-ratio
    # sweep makes two forward passes: the non-members and the member pool.
    # The reports equal one mia_evaluate per ratio, field for field.
    model, train, test, split = trained
    nonmembers = np.arange(60)
    expected = [mia_evaluate(model, train, split.forget_indices, test,
                             nonmembers, r,
                             SeededRng(5).split(f"ratio={float(r)!r}"))
                for r in MIA_RATIOS]
    passes = []

    def recording(model, inputs):
        passes.append(np.array(inputs))
        return forward(model, inputs)

    monkeypatch.setattr(mia_module, "forward", recording)
    reports = ratio_sweep(model, train, split.forget_indices, test,
                          nonmembers, MIA_RATIOS, SeededRng(5))
    assert len(MIA_RATIOS) == 9
    assert [dataclasses.asdict(r) for r in reports] == [
        dataclasses.asdict(r) for r in expected]
    assert len(passes) == 2
    assert np.array_equal(passes[0], test.inputs[nonmembers])
    assert np.array_equal(passes[1], train.inputs[split.forget_indices])


def test_ratio_sweep_sets_blas_threads_once(trained, blas_threads):
    model, train, test, split = trained
    ratio_sweep(model, train, split.forget_indices, test, np.arange(60),
                [0.9, 1.0, 1.1], SeededRng(5))
    assert blas_threads.sets == [1, 3]


def test_label_permutation_sanity(trained):
    # Members and non-members drawn from one common pool: every channel's
    # held-out score averages to chance over 20 seeds.
    model, train, test, split = trained
    pool = np.arange(test.n)
    scores = {channel: [] for channel in CHANNELS}
    for seed in range(20):
        perm = SeededRng(seed + 300).permutation(test.n)
        members, nonmembers = pool[perm[:50]], pool[perm[50:100]]
        report = mia_evaluate(model, test, members, test, nonmembers,
                              1.0, SeededRng(seed + 600))
        for channel in CHANNELS:
            scores[channel].append(report.score(channel))
    for channel, values in scores.items():
        assert abs(np.mean(values) - 0.5) <= 0.1, channel


def test_sweep_csv(tmp_path, trained):
    model, train, test, split = trained
    reports = ratio_sweep(model, train, split.forget_indices, test,
                          np.arange(40), [0.9, 1.0], SeededRng(6))
    path = tmp_path / "sweep.csv"
    sweep_to_csv(reports, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "ratio,correctness,confidence,entropy,m_entropy,probability"
    assert len(lines) == 3


def _predict(vals, threshold, direction):
    return vals >= threshold if direction == 1 else vals <= threshold


def _balanced(member_pred, nonmember_pred):
    tpr = member_pred.mean()
    tnr = 1.0 - nonmember_pred.mean()
    return float((tpr + tnr) / 2.0)


def _fit_threshold_loop(member_vals, nonmember_vals):
    """Reference: one comparison and one mean per candidate and direction."""
    values = np.concatenate([member_vals, nonmember_vals])
    cuts = np.unique(values)
    candidates = np.concatenate([[cuts[0] - 1.0], (cuts[:-1] + cuts[1:]) / 2.0,
                                 [cuts[-1] + 1.0]])
    best = (-1.0, 0.0, 1)
    for threshold in candidates:
        for direction in (1, -1):
            acc = _balanced(_predict(member_vals, threshold, direction),
                            _predict(nonmember_vals, threshold, direction))
            if acc > best[0] + 1e-15:
                best = (acc, float(threshold), direction)
    return best[1], best[2], best[0]


def _ulps(base, k):
    """The double k steps of one ulp from ``base`` (toward -inf if k < 0)."""
    value = np.float64(base)
    for _ in range(abs(k)):
        value = np.nextafter(value, np.copysign(np.inf, k))
    return float(value)


# One value kind per pool: spread floats, the 0/1 correctness channel, and
# coarse grids that tie many values.
_POOL_VALUES = (
    st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False),
    st.sampled_from([0.0, 1.0]),
    st.integers(-8, 8).map(lambda k: k / 4.0),
    st.integers(0, 100).map(lambda k: round(k / 100.0, 2)),
)
# Adjacent doubles, whose midpoints round onto an endpoint (at 2**60 the
# outer candidates value -+ 1.0 do too), and signed zeros mixed with the
# smallest subnormals.
_EDGE_VALUES = (
    *(st.integers(-2, 2).map(lambda k, b=base: _ulps(b, k))
      for base in (1.0, -0.1, 2.0 ** 60)),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324]),
)


def _draw_pool(data, values, size):
    return np.array(data.draw(st.lists(values, min_size=size, max_size=size)),
                    dtype=np.float64)


def _bits(x):
    return np.float64(x).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    values=st.sampled_from(_POOL_VALUES),
    sizes=st.tuples(st.integers(1, 60), st.integers(1, 60)),
    data=st.data(),
)
def test_fit_threshold_equals_loop(values, sizes, data):
    member, nonmember = (_draw_pool(data, values, n) for n in sizes)
    threshold, direction, acc = _fit_threshold_loop(member, nonmember)
    thresholds, directions = _fit_thresholds(member[None], nonmember[None])
    assert (thresholds.tolist(), directions.tolist()) == (
        [threshold], [direction])
    assert _score_thresholds(thresholds, directions, member[None],
                             nonmember[None]).tolist() == [acc]


@settings(max_examples=150, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(_POOL_VALUES + _EDGE_VALUES),
                   min_size=1, max_size=4),
    data=st.data(),
)
def test_batched_attack_equals_loop_row_by_row(kinds, data):
    # Each row has its own value kind and its own pool sizes; the rows are
    # NaN-padded into one batch, as a sweep pads its ratios.
    pools = [[_draw_pool(data, values, data.draw(st.integers(1, 30)))
              for _ in range(4)] for values in kinds]
    fit_m, fit_n, held_m, held_n = (_padded([row[i] for row in pools], np.nan)
                                    for i in range(4))
    thresholds, directions = _fit_thresholds(fit_m, fit_n)
    scores = _score_thresholds(thresholds, directions, held_m, held_n)
    for j, (fm, fn, hm, hn) in enumerate(pools):
        threshold, direction, _ = _fit_threshold_loop(fm, fn)
        assert _bits(thresholds[j]) == _bits(threshold)
        assert directions[j] == direction
        assert scores[j] == _balanced(_predict(hm, threshold, direction),
                                      _predict(hn, threshold, direction))


def test_sweep_csv_golden(tmp_path, trained):
    model, train, test, split = trained
    reports = ratio_sweep(model, train, split.forget_indices, test,
                          np.arange(60), MIA_RATIOS, SeededRng(5))
    path = tmp_path / "sweep.csv"
    sweep_to_csv(reports, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "bf4e433d748f37b4e81fd6c1788d191730727db3b0584641e993bcafa1e43724"
    )


def test_score_threshold_includes_values_at_the_threshold():
    # Five (threshold, direction) rows on one pool; the NaN pad of the
    # member rows is not a value.
    member = np.tile([1.0, 0.0, 2.0, np.nan], (5, 1))
    nonmember = np.tile([1.0, 1.0], (5, 1))
    # +1: member iff value >= 1 -> TPR 2/3, TNR 0; -1: value <= 1 -> 2/3, 0.
    scores = _score_thresholds(np.array([1.0, 1.0, 1.5, 0.5, 0.5]),
                               np.array([1, -1, -1, 1, -1]), member, nonmember)
    assert scores.tolist() == [(2 / 3 + 0.0) / 2.0] * 4 + [(1 / 3 + 1.0) / 2.0]
