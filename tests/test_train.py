"""Training loop: learning capacity, determinism, model selection."""

import functools
import importlib
from pathlib import Path

import numpy as np
import pytest

from pdfmlp import Dataset, TrainConfig, train
from pdfmlp.features import N_FEATURES
from pdfmlp.mlp import build_model, forward, mean_cross_entropy
from pdfmlp.preprocess import split_train_validation
from pdfmlp.train import TrainingDivergedError, _rng

from synth import best_linear_accuracy_2d, perceptron_separates, separable_dataset, xor_dataset


def small_dataset(n=60, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, N_FEATURES))
    y = np.array(([0] * 5 + [1]) * (n // 6))
    X[y == 1] += 1.5
    return Dataset(features=X, labels=y, paths=[str(i) for i in range(n)])


def accuracy(model, scaler, dataset):
    probs, _ = forward(model, scaler.transform_matrix(dataset.features), mode="infer")
    return float(np.mean((probs >= 0.5).astype(int) == dataset.labels))


# -- hyperparameter defaults -------------------------------------------------------


def test_config_defaults():
    config = TrainConfig()
    assert config.epochs == 5000
    assert config.batch_size == 64
    assert config.dropout_rate == 0.15
    assert config.validation_fraction == 0.20
    assert config.early_stop_loss is None


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(validation_fraction=1.0)
    for eta in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="eta"):
            TrainConfig(eta=eta)
    for loss in (np.nan, -1.0, 0.0):
        with pytest.raises(ValueError, match="early_stop_loss"):
            TrainConfig(early_stop_loss=loss)
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        TrainConfig(seed=-1)


@pytest.mark.parametrize(
    "field, value",
    [("epochs", 1.5), ("epochs", 3.0), ("epochs", True), ("epochs", "3"), ("batch_size", 2.5),
     ("batch_size", False), ("seed", True), ("seed", 0.0), ("seed", None), ("seed", np.float64(1))],
)
def test_config_refuses_a_count_or_seed_that_is_not_an_integer(field, value):
    with pytest.raises(ValueError) as refused:
        TrainConfig(**{field: value})
    assert str(refused.value) == f"{field} must be an integer, got {value!r}"


def test_config_takes_numpy_integers():
    config = TrainConfig(epochs=np.int64(2), batch_size=np.int32(3), seed=np.uint8(4))
    assert (config.epochs, config.batch_size, config.seed) == (2, 3, 4)


# -- learning capacity ---------------------------------------------------------------


def test_separable_clusters_reach_99_validation_accuracy():
    dataset = separable_dataset(n=2000, seed=0)
    assert perceptron_separates(dataset)  # oracle: the task is linearly separable
    config = TrainConfig(epochs=50, batch_size=64, eta=0.01, seed=1)
    model, scaler, report = train(dataset, config)
    _, val_part = split_train_validation(dataset, config.validation_fraction, config.seed)
    assert accuracy(model, scaler, val_part) >= 0.99
    assert len(report.records) <= 50


def test_xor_needs_the_nonlinearity_and_gets_it():
    dataset = xor_dataset(n=400, seed=3)
    # oracle: no linear classifier on the informative pair beats 0.75
    assert best_linear_accuracy_2d(dataset) <= 0.75
    config = TrainConfig(epochs=2000, batch_size=64, eta=0.05, seed=2, early_stop_loss=0.01)
    model, scaler, _ = train(dataset, config)
    assert accuracy(model, scaler, dataset) == 1.0


def test_learning_decreases_training_loss():
    dataset = separable_dataset(n=600, seed=4)
    model, scaler, report = train(dataset, TrainConfig(epochs=12, seed=5))
    assert report.records[report.selected_epoch].train_loss < report.records[0].train_loss


# -- errors ------------------------------------------------------------------------


def test_zero_epochs_is_an_error():
    with pytest.raises(ValueError, match="no training performed"):
        train(small_dataset(), TrainConfig(epochs=0))


def test_single_class_is_an_error():
    d = small_dataset()
    single = Dataset(
        features=d.features[d.labels == 0],
        labels=d.labels[d.labels == 0],
        paths=[p for p, l in zip(d.paths, d.labels) if l == 0],
    )
    with pytest.raises(ValueError, match="both classes"):
        train(single, TrainConfig(epochs=1))


def test_divergence_is_reported_with_epoch():
    dataset = small_dataset(seed=6)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError, match="epoch"):
        train(dataset, TrainConfig(epochs=30, eta=1e160, seed=0))


# -- determinism and model selection ---------------------------------------------------


def test_same_seed_same_everything():
    dataset = separable_dataset(n=400, seed=7)
    config = TrainConfig(epochs=8, seed=42)
    m1, s1, r1 = train(dataset, config)
    m2, s2, r2 = train(dataset, config)
    assert r1.final_model_checksum == r2.final_model_checksum
    assert r1.records == r2.records
    for l1, l2 in zip(m1.layers, m2.layers):
        np.testing.assert_array_equal(l1.weights, l2.weights)


def test_different_seed_different_trajectory():
    dataset = separable_dataset(n=400, seed=7)
    _, _, r1 = train(dataset, TrainConfig(epochs=5, seed=1))
    _, _, r2 = train(dataset, TrainConfig(epochs=5, seed=2))
    assert r1.final_model_checksum != r2.final_model_checksum


def test_selected_epoch_is_validation_minimum():
    dataset = separable_dataset(n=500, seed=9)
    model, scaler, report = train(dataset, TrainConfig(epochs=15, seed=3))
    losses = [r.val_loss for r in report.records]
    assert report.selected_epoch == int(np.argmin(losses))
    # and the returned snapshot reproduces exactly that loss
    _, val_part = split_train_validation(dataset, 0.2, 3)
    probs, _ = forward(model, scaler.transform_matrix(val_part.features), mode="infer")
    got = mean_cross_entropy(probs, val_part.labels.astype(float))
    assert got == pytest.approx(min(losses), abs=1e-12)


def test_early_stop_cuts_epochs():
    dataset = separable_dataset(n=800, seed=10)
    _, _, report = train(dataset, TrainConfig(epochs=200, seed=4, early_stop_loss=0.05))
    assert len(report.records) < 200
    assert report.records[-1].val_loss < 0.05


def test_every_sample_visits_each_epoch_exactly_once(monkeypatch):
    # With a vanishing learning rate and no batch statistics in play, the
    # recorded epoch loss equals the whole-set loss of the initial model
    # only when the batches partition the training rows.  The attribute
    # pdfmlp.train is the function, so the module is imported by name.
    train_module = importlib.import_module("pdfmlp.train")
    monkeypatch.setattr(train_module, "build_model", functools.partial(build_model, batch_norm=False))
    dataset = separable_dataset(n=300, seed=11)
    config = TrainConfig(epochs=1, batch_size=7, eta=1e-300, dropout_rate=0.0, seed=12)
    model, scaler, report = train(dataset, config)
    fit_part, _ = split_train_validation(dataset, config.validation_fraction, config.seed)
    fresh = build_model(
        input_width=N_FEATURES,
        hidden_widths=(72, 72),
        dropout_rate=0.0,
        batch_norm=False,
        rng=_rng(config.seed, 0),
    )
    probs, _ = forward(fresh, scaler.transform_matrix(fit_part.features), mode="infer")
    expected = mean_cross_entropy(probs, fit_part.labels.astype(float))
    assert report.records[0].train_loss == pytest.approx(expected, rel=1e-12)


# -- report -------------------------------------------------------------------------


def test_report_csv_format(tmp_path):
    report_path = str(tmp_path / "report.csv")
    dataset = separable_dataset(n=300, seed=13)
    _, _, report = train(dataset, TrainConfig(epochs=3, seed=6))
    report.write_csv(report_path)
    lines = Path(report_path).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,val_tpr,val_fpr"
    assert len(lines) == 1 + 3
    first = lines[1].split(",")
    assert first[0] == "0"
    float(first[1]), float(first[2]), float(first[3]), float(first[4])
