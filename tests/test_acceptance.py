"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion
lines as they complete.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from pdfmlp import (
    Dataset,
    TrainConfig,
    cross_entropy,
    extract_features,
    fit_scaler,
    train,
)
from pdfmlp.evaluate import evaluate
from pdfmlp.features import N_FEATURES
from pdfmlp.mlp import build_model, backward, forward
from pdfmlp.preprocess import Scaler, split_train_validation
from pdfmlp.store import dumps, load, loads, save

from gradcheck import max_relative_error, min_relu_margin, param_arrays
from synth import best_linear_accuracy_2d, perceptron_separates, separable_dataset, xor_dataset
from test_evaluate import dataset_with_scores, identity_scaler, passthrough_model


def report(line: str) -> None:
    print(f"\nPASS {line}")


# -- criterion 1: gradient oracle ------------------------------------------------


def _gradient_case(seed: int, batch_norm: bool):
    """Deterministically regenerate until no ReLU unit sits near its kink,
    where central differences would straddle the nondifferentiability."""
    while True:
        rng = np.random.default_rng(seed)
        model = build_model(48, (72, 72), dropout_rate=0.0, batch_norm=batch_norm, rng=rng)
        X = rng.normal(size=(4, 48))
        y = rng.integers(0, 2, 4).astype(float)
        if min_relu_margin(model, X) > 5e-5:
            return model, X, y
        seed += 1000

def test_criterion_1_gradient_oracle():
    started = time.time()
    worst_plain = 0.0
    worst_bn = 0.0
    for i in range(20):
        model, X, y = _gradient_case(seed=i, batch_norm=False)
        _, cache = forward(model, X, mode="train")
        grads = backward(model, cache, y)
        err = max_relative_error(model, X, y, grads, h=1e-5, sample_per_array=200, seed=i)
        worst_plain = max(worst_plain, err)

        model, X, y = _gradient_case(seed=10_000 + i, batch_norm=True)
        _, cache = forward(model, X, mode="train")
        grads = backward(model, cache, y)
        err = max_relative_error(model, X, y, grads, h=1e-5, sample_per_array=200, seed=i)
        worst_bn = max(worst_bn, err)
    elapsed = time.time() - started
    assert worst_plain <= 1e-4
    assert worst_bn <= 1e-3
    assert elapsed < 60.0
    report(
        "criterion 1: gradient oracle over 20+20 random 48-72-72-1 nets "
        f"(max rel err {worst_plain:.2e} plain, {worst_bn:.2e} batch-norm, {elapsed:.1f}s)"
    )


# -- criterion 2: loss values ------------------------------------------------------


def test_criterion_2_cross_entropy_closed_form():
    assert cross_entropy(0.5, 1) == pytest.approx(0.693147, abs=1e-6)
    assert cross_entropy(0.9, 1) == pytest.approx(0.105361, abs=1e-6)
    assert cross_entropy(0.5, 1) == pytest.approx(math.log(2.0), abs=1e-12)
    assert cross_entropy(0.9, 1) == pytest.approx(-math.log(0.9), abs=1e-12)
    report("criterion 2: cross-entropy matches the closed form at (0.5,1) and (0.9,1)")


# -- criterion 3: normalization -----------------------------------------------------


def test_criterion_3_standardization():
    rng = np.random.default_rng(314)
    X = rng.lognormal(mean=1.0, sigma=2.0, size=(1500, N_FEATURES))
    X *= rng.uniform(0.01, 100.0, N_FEATURES)
    X[:, 7] = 42.0  # one degenerate column on purpose
    d = Dataset(features=X, labels=rng.integers(0, 2, 1500), paths=[str(i) for i in range(1500)])
    scaler = fit_scaler(d)
    out = scaler.transform_matrix(X)
    nondegenerate = [i for i in range(N_FEATURES) if i != 7]
    assert np.all(np.abs(out[:, nondegenerate].mean(axis=0)) <= 1e-9)
    assert np.all(np.abs(out[:, nondegenerate].std(axis=0) - 1.0) <= 1e-9)
    assert np.all(out[:, 7] == 0.0)
    report("criterion 3: fit+transform standardizes every non-degenerate column to 1e-9")


# -- criterion 4: learning capacity ---------------------------------------------------


def test_criterion_4_learning_capacity():
    separable = separable_dataset(n=2000, seed=0, ratio=6)
    assert perceptron_separates(separable)
    config = TrainConfig(epochs=50, batch_size=64, eta=0.01, seed=1)
    model, scaler, _ = train(separable, config)
    _, val_part = split_train_validation(separable, config.validation_fraction, config.seed)
    probs, _ = forward(model, scaler.transform_matrix(val_part.features), mode="infer")
    val_acc = float(np.mean((probs >= 0.5).astype(int) == val_part.labels))
    assert val_acc >= 0.99

    xor = xor_dataset(n=400, seed=3)
    linear_cap = best_linear_accuracy_2d(xor)
    assert linear_cap <= 0.75
    model2, scaler2, _ = train(
        xor, TrainConfig(epochs=2000, batch_size=64, eta=0.05, seed=2, early_stop_loss=0.01)
    )
    probs2, _ = forward(model2, scaler2.transform_matrix(xor.features), mode="infer")
    xor_acc = float(np.mean((probs2 >= 0.5).astype(int) == xor.labels))
    assert xor_acc == 1.0
    report(
        "criterion 4: separable set val acc "
        f"{val_acc:.3f} in 50 epochs; XOR acc {xor_acc:.2f} vs linear cap {linear_cap:.2f}"
    )


# -- criterion 5: evaluation oracle ----------------------------------------------------


def test_criterion_5_auc_and_rate_shapes():
    rng = np.random.default_rng(555)
    mal = np.round(rng.beta(5, 2, size=1000), 2)  # rounding forces plenty of ties
    ben = np.round(rng.beta(2, 5, size=1000), 2)
    mal = np.clip(mal, 0.01, 0.99)
    ben = np.clip(ben, 0.01, 0.99)
    d = dataset_with_scores(mal, ben)
    model, scaler = passthrough_model(), identity_scaler()
    rep = evaluate(model, scaler, d)

    from pdfmlp.evaluate import score_dataset

    scores = score_dataset(model, scaler, d)
    m = scores[d.labels == 1][:, None]
    b = scores[d.labels == 0][None, :]
    brute = float((np.sum(m > b) + 0.5 * np.sum(m == b)) / (m.size * b.size))
    assert abs(rep.auc - brute) <= 1e-12

    fprs = [p.fpr for p in rep.sweep]
    fnrs = [p.fnr for p in rep.sweep]
    assert all(a >= b for a, b in zip(fprs, fprs[1:]))  # non-increasing in threshold
    assert all(a <= b for a, b in zip(fnrs, fnrs[1:]))  # non-decreasing in threshold
    report(
        f"criterion 5: AUC equals the pairwise oracle to 1e-12 ({rep.auc:.6f}) "
        "with monotone FPR/FNR sweeps"
    )


# -- criterion 6: paper-configuration fidelity -------------------------------------------


def test_criterion_6_default_configuration_snapshot():
    config = TrainConfig()
    assert config.epochs == 5000
    assert config.batch_size == 64
    assert config.dropout_rate == 0.15
    assert config.validation_fraction == 0.20
    model = build_model()
    assert model.widths() == (48, 72, 72, 1)
    assert model.threshold == 0.62
    assert model.layers[-1].activation == "sigmoid"
    assert all(l.dropout_rate == 0.15 for l in model.layers[:-1])

    from pdfmlp.cli import _build_parser

    args = _build_parser().parse_args(["train", "--features", "x.csv", "--out", "m.bin"])
    assert (args.epochs, args.batch_size, args.dropout, args.val_frac, args.threshold) == (
        5000,
        64,
        0.15,
        0.2,
        0.62,
    )
    report("criterion 6: defaults are epochs 5000, batch 64, dropout 0.15, "
           "validation 0.20, threshold 0.62, architecture 48-72-72-1")


# -- criterion 7: parser totality under fuzzing -------------------------------------------


def test_criterion_7_parser_totality_under_fuzz(fuzz_corpus):
    slowest = 0.0
    for data, doc, parse_s in fuzz_corpus:
        started = time.perf_counter()
        vector = extract_features(doc, data)
        elapsed = parse_s + time.perf_counter() - started
        slowest = max(slowest, elapsed)
        assert elapsed < 5.0
        assert doc.total_size == len(data)
        assert np.all(np.isfinite(vector.values))
        assert not any("internal parser error" in d.detail for d in doc.diagnostics)
    report(f"criterion 7: 10,000 fuzzed documents parsed and featurized "
           f"(slowest {slowest * 1e3:.1f} ms)")


# -- criterion 8: end-to-end determinism ----------------------------------------------------


def _pipeline(corpus, workdir: str, jobs: int) -> dict:
    env = dict(os.environ, PDFMLP_SEED="7", PYTHONHASHSEED="0")
    os.makedirs(workdir, exist_ok=True)
    features = os.path.join(workdir, "features.csv")
    model = os.path.join(workdir, "model.bin")
    evaldir = os.path.join(workdir, "eval")

    def run(*args):
        result = subprocess.run(
            [sys.executable, "-m", "pdfmlp", *args],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        return result

    run(
        "extract",
        "--benign", str(corpus["benign"]),
        "--malicious", str(corpus["malicious"]),
        "--out", features,
        "--jobs", str(jobs),
    )
    run("train", "--features", features, "--out", model, "--epochs", "25")
    run("evaluate", "--features", features, "--model", model, "--out-dir", evaldir)
    artifacts = {}
    for name in (features, model, model + ".train.csv"):
        artifacts[os.path.basename(name)] = Path(name).read_bytes()
    for name in ("roc.csv", "sweep.csv", "report.txt"):
        artifacts[name] = Path(evaldir, name).read_bytes()
    return artifacts


def test_criterion_8_pipeline_determinism(corpus, tmp_path):
    first = _pipeline(corpus, str(tmp_path / "run1"), jobs=1)
    second = _pipeline(corpus, str(tmp_path / "run2"), jobs=4)
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    report("criterion 8: extract+train+evaluate is byte-identical across reruns "
           f"({len(first)} artifacts compared)")


# -- criterion 9: round trip -------------------------------------------------------------


def test_criterion_9_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(909)
    model = build_model(48, (72, 72), rng=rng)
    forward(model, rng.normal(size=(64, 48)), mode="train", rng=rng)  # move running stats
    scaler = Scaler(means=rng.normal(size=N_FEATURES), stds=rng.uniform(0.5, 2.0, N_FEATURES))
    path = str(tmp_path / "model.bin")
    save(model, scaler, path)
    loaded, loaded_scaler, _ = load(path)

    for a, b in zip(param_arrays(model), param_arrays(loaded)):
        assert np.array_equal(a, b)
    np.testing.assert_array_equal(scaler.means, loaded_scaler.means)
    np.testing.assert_array_equal(scaler.stds, loaded_scaler.stds)
    assert loads(dumps(model, scaler))[0].threshold == model.threshold

    X = rng.normal(size=(100, 48))
    before, _ = forward(model, X, mode="infer")
    after, _ = forward(loaded, X, mode="infer")
    assert np.array_equal(before, after)
    report("criterion 9: save/load round trip is bit-exact; 100 inference outputs identical")
