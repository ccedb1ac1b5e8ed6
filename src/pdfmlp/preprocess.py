"""Dataset assembly, per-feature standardization and the train/validation split."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from .features import N_FEATURES, FeatureVector

__all__ = [
    "Dataset",
    "Scaler",
    "fit_scaler",
    "transform",
    "split_train_validation",
    "read_features_csv",
    "write_features_csv",
    "CSV_HEADER",
]

CSV_HEADER = ["path", "label"] + [f"f{i:02d}" for i in range(N_FEATURES)]


@dataclass
class Dataset:
    """A feature matrix with labels and source-path provenance."""

    features: np.ndarray  # (n, 48) float64
    labels: np.ndarray  # (n,) int, 0 benign / 1 malicious / -1 unlabeled
    paths: list[str]

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[1] != N_FEATURES:
            raise ValueError(f"feature matrix must be (n, {N_FEATURES})")
        n = self.features.shape[0]
        if self.labels.shape != (n,) or len(self.paths) != n:
            raise ValueError("row, label and path counts must agree")

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(
            features=self.features[indices],
            labels=self.labels[indices],
            paths=[self.paths[i] for i in indices],
        )

    def class_counts(self) -> tuple[int, int]:
        return int(np.sum(self.labels == 0)), int(np.sum(self.labels == 1))


@dataclass
class Scaler:
    """Per-feature mean/std fitted on training data.

    A constant feature gets std 1 so its transform is identically zero
    instead of dividing by zero.
    """

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self) -> None:
        self.means = np.asarray(self.means, dtype=np.float64)
        self.stds = np.asarray(self.stds, dtype=np.float64)
        if self.means.shape != self.stds.shape or self.means.ndim != 1:
            raise ValueError("means and stds must be equal-length vectors")
        if not np.all(self.stds > 0):  # NaN fails it too
            raise ValueError("stds must be positive")

    def transform_matrix(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.shape[-1] != self.means.shape[0]:
            raise ValueError(
                f"expected {self.means.shape[0]} features, got {X.shape[-1]}"
            )
        return (X - self.means) / self.stds


def fit_scaler(train: Dataset) -> Scaler:
    """Fit per-column mean and population standard deviation."""
    if len(train) == 0:
        raise ValueError("empty training set")
    means = train.features.mean(axis=0)
    stds = train.features.std(axis=0)  # population: divide by n
    stds = np.where(stds == 0.0, 1.0, stds)
    return Scaler(means=means, stds=stds)


def transform(scaler: Scaler, x: Union[FeatureVector, np.ndarray]) -> np.ndarray:
    """Standardize one feature vector: (x - mean) / std per column."""
    if isinstance(x, FeatureVector):
        x = x.values
    return scaler.transform_matrix(np.asarray(x, dtype=np.float64))


def split_train_validation(
    d: Dataset, fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Deterministic stratified split; the second part gets round(fraction*n) rows.

    Per-class validation counts are apportioned by largest remainder, so
    both parts keep the full set's class ratio to within one sample per
    class.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    n = len(d)
    classes = sorted(set(int(v) for v in d.labels))
    for c in classes:
        if int(np.sum(d.labels == c)) < 2:
            raise ValueError(f"cannot stratify: class {c} has fewer than 2 samples")

    n_val = int(math.floor(fraction * n + 0.5))
    n_val = min(max(n_val, 0), n)

    # Largest-remainder apportionment of n_val across classes.
    quotas = []
    for c in classes:
        exact = n_val * int(np.sum(d.labels == c)) / n
        quotas.append([c, int(math.floor(exact)), exact - math.floor(exact)])
    short = n_val - sum(q[1] for q in quotas)
    for q in sorted(quotas, key=lambda q: (-q[2], q[0]))[:short]:
        q[1] += 1

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    val_idx: list[np.ndarray] = []
    train_idx: list[np.ndarray] = []
    for c, take, _ in quotas:
        members = np.flatnonzero(d.labels == c)
        order = rng.permutation(len(members))
        members = members[order]
        val_idx.append(members[:take])
        train_idx.append(members[take:])
    val = np.concatenate(val_idx) if val_idx else np.empty(0, dtype=np.int64)
    train = np.concatenate(train_idx) if train_idx else np.empty(0, dtype=np.int64)
    return d.subset(train), d.subset(val)


def write_features_csv(path: str, dataset: Dataset) -> None:
    """Write the feature-matrix CSV: header then one row per document.

    Values carry up to 9 significant digits; rows are written in dataset
    order (callers wanting deterministic files sort by path first).
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for i in range(len(dataset)):
            row = [dataset.paths[i], str(int(dataset.labels[i]))]
            row += [_format_value(v) for v in dataset.features[i]]
            writer.writerow(row)


def _format_value(v: float) -> str:
    return format(float(v), ".9g")


def read_features_csv(path: str) -> Dataset:
    """Read a feature-matrix CSV produced by write_features_csv.

    The file is read once, then parsed by _read_plain if it takes the
    text, else by _read_csv, which also words every error.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    dataset = _read_plain(text)
    if dataset is None:
        dataset = _read_csv(path, io.StringIO(text, newline=""))
    return dataset


_HEADER_LINE = ",".join(CSV_HEADER)
_LABELS = {"-1": -1, "0": 0, "1": 1}
# The bytes a row's value cells may hold on the loadtxt path.
_VALUE_BYTES = b"0123456789.+-eE,"


def _read_plain(text: str) -> Optional[Dataset]:
    """Parse a plain feature CSV with np.loadtxt, or return None.

    It takes only text that _read_csv reads without error and to the same
    Dataset: the exact header; no quote, CR or NUL; every line ending in LF,
    none empty and none longer than csv's field limit; labels spelled -1, 0
    or 1; value cells made of _VALUE_BYTES only; and finite values. Over
    that alphabet float() and numpy's parser both come down to
    PyOS_string_to_double, so they accept the same cells and round them to
    the same double. On anything else the csv reader reads the text.
    """
    if '"' in text or "\r" in text or "\x00" in text or not text.endswith("\n"):
        return None
    rows = text.split("\n")
    rows.pop()  # the empty string after the last LF
    if rows.pop(0) != _HEADER_LINE or max(map(len, rows), default=0) > csv.field_size_limit():
        return None
    try:
        # With no rows, or a row of fewer than three fields (an empty line
        # among them), zip yields fewer than three columns and the
        # unpacking raises.
        paths, labels, values = zip(*[row.split(",", 2) for row in rows])
    except ValueError:
        return None
    del rows
    if not _LABELS.keys() >= set(labels):
        return None
    try:
        if any(cells.encode("ascii").translate(None, _VALUE_BYTES) for cells in values):
            return None
        features = np.loadtxt(
            values, delimiter=",", comments=None, dtype=np.float64, ndmin=2
        )
    except ValueError:  # UnicodeEncodeError included
        return None
    if features.shape != (len(values), N_FEATURES) or not np.isfinite(features).all():
        return None
    return Dataset(
        features=features,
        labels=np.array([_LABELS[label] for label in labels], dtype=np.int64),
        paths=list(paths),
    )


def _read_csv(path: str, lines: Iterable[str]) -> Dataset:
    """Read feature-CSV lines with the csv module.

    This reader takes quoted and odd files, and it words every error
    ``path:line: ...``.
    """
    paths: list[str] = []
    labels: list[int] = []
    rows: list[list[float]] = []
    linenos: list[int] = []
    reader = csv.reader(lines)
    try:
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected header; not a feature CSV")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"{path}:{lineno}: expected {len(CSV_HEADER)} fields")
            paths.append(row[0])
            try:
                label = int(row[1])
                values = [float(v) for v in row[2:]]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if label not in (-1, 0, 1):
                raise ValueError(f"{path}:{lineno}: label must be -1, 0 or 1")
            labels.append(label)
            rows.append(values)
            linenos.append(lineno)
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    features = (
        np.asarray(rows, dtype=np.float64)
        if rows
        else np.empty((0, N_FEATURES), dtype=np.float64)
    )
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}:{linenos[bad[0]]}: feature values must be finite")
    return Dataset(features=features, labels=np.asarray(labels, dtype=np.int64), paths=paths)
