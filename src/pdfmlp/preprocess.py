"""Dataset assembly, per-feature standardization and the train/validation split."""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import shutil
import tempfile
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, TextIO, Union

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
        centred = X - self.means
        return np.divide(centred, self.stds, out=centred)


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
        fh.write(_HEADER_LINE)
        for i in range(len(dataset)):
            values = ",".join(_format_value(v) for v in dataset.features[i])
            fh.write(f"{_csv_field(dataset.paths[i])},{int(dataset.labels[i])},{values}\n")


def _format_value(v: float) -> str:
    return format(float(v), ".9g")


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted when it holds a comma, quote, CR or LF.

    The csv module quotes a lone CR only from Python 3.13; unquoted, it
    reads back as a line end.
    """
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def read_features_csv(path: str) -> Dataset:
    """Read a feature-matrix CSV produced by write_features_csv.

    The file is opened once.  _read_rows streams it through np.loadtxt; a
    file it declines is read again from its start by _read_csv, which also
    words every error.  An input that cannot seek, such as a pipe, is read
    from a temporary copy.
    """
    with contextlib.ExitStack() as stack:
        binary = stack.enter_context(open(path, "rb"))
        if not binary.seekable():
            copy = stack.enter_context(tempfile.TemporaryFile())
            shutil.copyfileobj(binary, copy)
            copy.seek(0)
            binary = copy
        fh = stack.enter_context(io.TextIOWrapper(binary, encoding="utf-8", newline=""))
        dataset = _read_rows(fh)
        if dataset is None:
            fh.seek(0)
            try:
                fh.read()  # one decode of the whole file, so an error gives its offset in it
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: {exc}") from None
            fh.seek(0)
            dataset = _read_csv(path, fh)
    return dataset


_HEADER_LINE = ",".join(CSV_HEADER) + "\n"
# One feature-CSV row as np.loadtxt reads it. The label stays text: numpy
# releases before 2.0 read "0.9" into an int64 field as 0, with a warning.
_ROW = np.dtype([("path", object), ("label", object), ("values", np.float64, (N_FEATURES,))])
_LABELS = {"-1": -1, "0": 0, "1": 1}


def _read_rows(fh: TextIO) -> Optional[Dataset]:
    """Read a feature CSV from its open file with one streamed np.loadtxt, or return None.

    numpy splits fields as the csv module does and reads values as float()
    does, or declines them. The file is left to _read_csv on a header other
    than _HEADER_LINE, no row, a line over csv's field limit, a cell numpy
    declines, fewer rows than non-blank lines (a quoted line break, which
    can hide an over-long field in short lines), a label spelled other than
    -1, 0 or 1, or a non-finite value.
    """
    limit, lines = csv.field_size_limit(), 0

    def nonblank(fh: Iterable[str]) -> Iterator[str]:
        nonlocal lines
        for line in fh:
            if len(line) > limit:
                raise ValueError("line over the csv field limit")
            if line.strip("\r\n"):
                lines += 1
                yield line

    try:
        if fh.readline() != _HEADER_LINE:
            return None
        rows = nonblank(fh)
        first = next(rows, None)
        if first is None:  # loadtxt would warn of no data
            return None
        table = np.loadtxt(itertools.chain([first], rows), dtype=_ROW, delimiter=",",
                           quotechar='"', comments=None, ndmin=1)
    except ValueError:  # UnicodeDecodeError included
        return None
    # A copy, so that the Dataset does not keep the row table alive and the
    # finiteness check scans contiguous memory.
    labels, values = [_LABELS.get(s) for s in table["label"].tolist()], table["values"].copy()
    if len(table) != lines or None in labels or not np.isfinite(values).all():
        return None
    return Dataset(features=values, labels=labels, paths=table["path"].tolist())


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
