"""Mini-batch SGD training loop with validation-based model selection.

Each epoch reshuffles the training rows from a per-epoch seed, walks
mini-batches (the last one may be short), and runs forward/backward/step.
After every epoch the validation loss is measured in infer mode; the
parameter snapshot with the lowest validation loss is what the caller
gets back, which doubles as the overfitting guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .mlp import MlpModel, backward, build_model, forward, mean_cross_entropy, sgd_step
from .preprocess import Dataset, Scaler, fit_scaler, split_train_validation
from .store import dataset_checksum, model_checksum

__all__ = ["TrainConfig", "TrainReport", "EpochRecord", "TrainingDivergedError", "train"]


class TrainingDivergedError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5000
    batch_size: int = 64
    eta: float = 0.01
    dropout_rate: float = 0.15
    validation_fraction: float = 0.20
    seed: int = 0
    early_stop_loss: Optional[float] = None

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("no training performed: epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in (0, 1)")
        if not 0.0 < self.eta < np.inf:
            raise ValueError("eta must be positive and finite")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.early_stop_loss is not None and not self.early_stop_loss > 0.0:
            raise ValueError("early_stop_loss must be positive")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    val_tpr: float
    val_fpr: float


@dataclass
class TrainReport:
    records: list[EpochRecord] = field(default_factory=list)
    selected_epoch: int = -1
    final_model_checksum: str = ""

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("epoch,train_loss,val_loss,val_tpr,val_fpr\n")
            for r in self.records:
                fh.write(
                    f"{r.epoch},{r.train_loss:.9g},{r.val_loss:.9g},"
                    f"{r.val_tpr:.9g},{r.val_fpr:.9g}\n"
                )


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=stream))


def _rates_at_half(probs: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    pos = labels == 1
    neg = labels == 0
    tpr = float(np.sum(probs[pos] >= 0.5) / pos.sum()) if pos.any() else 0.0
    fpr = float(np.sum(probs[neg] >= 0.5) / neg.sum()) if neg.any() else 0.0
    return tpr, fpr


def train(
    train_set: Dataset,
    config: TrainConfig,
    *,
    hidden_widths: Sequence[int] = (72, 72),
    batch_norm: bool = True,
    threshold: float = MlpModel.threshold,
) -> tuple[MlpModel, Scaler, TrainReport]:
    """Fit a fresh network on ``train_set``.

    Splits off the validation part first, fits the feature scaler on the
    remaining training rows only, then runs the SGD loop.  Training stops
    after ``config.epochs`` epochs or as soon as the validation loss drops
    below ``config.early_stop_loss`` when one is set.
    """
    if np.any((train_set.labels != 0) & (train_set.labels != 1)):
        raise ValueError("training labels must be 0 or 1")
    if 0 in train_set.class_counts():
        raise ValueError("training needs both classes present")
    model = build_model(
        input_width=train_set.features.shape[1],
        hidden_widths=hidden_widths,
        dropout_rate=config.dropout_rate,
        batch_norm=batch_norm,
        threshold=threshold,
        rng=_rng(config.seed, 0),
    )
    fit_part, val_part = split_train_validation(
        train_set, config.validation_fraction, config.seed
    )
    scaler = fit_scaler(fit_part)
    X = scaler.transform_matrix(fit_part.features)
    y = fit_part.labels.astype(np.float64)
    X_val = scaler.transform_matrix(val_part.features)
    y_val = val_part.labels

    n = X.shape[0]
    report = TrainReport()
    best_loss = np.inf
    best = model.copy()

    for epoch in range(config.epochs):
        shuffle = _rng(config.seed, 1, epoch)
        dropout_rng = _rng(config.seed, 2, epoch)
        # One gather per epoch; each batch is a view of the shuffled rows.
        order = shuffle.permutation(n)
        X_epoch, y_epoch = X[order], y[order]
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            X_batch = X_epoch[start : start + config.batch_size]
            y_batch = y_epoch[start : start + config.batch_size]
            probs, cache = forward(model, X_batch, mode="train", rng=dropout_rng)
            loss_sum += mean_cross_entropy(probs, y_batch) * y_batch.shape[0]
            grads = backward(model, cache, y_batch)
            sgd_step(model, grads, config.eta)
        train_loss = loss_sum / n

        val_probs, _ = forward(model, X_val, mode="infer")
        val_loss = mean_cross_entropy(val_probs, y_val.astype(np.float64))
        tpr, fpr = _rates_at_half(val_probs, y_val)
        report.records.append(EpochRecord(epoch, train_loss, val_loss, tpr, fpr))

        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
        if val_loss < best_loss:
            best_loss = val_loss
            best = model.copy()
            report.selected_epoch = epoch
        if config.early_stop_loss is not None and val_loss < config.early_stop_loss:
            break

    fingerprint = {
        "seed": config.seed,
        "epochs": config.epochs,
        "eta": config.eta,
        "data_checksum": dataset_checksum(train_set),
    }
    report.final_model_checksum = model_checksum(best, scaler, fingerprint)
    return best, scaler, report
