"""Threshold-sweep evaluation: confusion rates, ROC points and AUC."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .mlp import MlpModel, forward
from .preprocess import Dataset, Scaler

__all__ = [
    "EvalReport",
    "SweepPoint",
    "ThresholdNotReachable",
    "evaluate",
    "pick_threshold",
    "score_dataset",
    "write_report_files",
]


class SweepPoint(NamedTuple):
    threshold: float
    tpr: float
    fpr: float
    fnr: float


class ThresholdNotReachable(ValueError):
    pass


@dataclass
class EvalReport:
    """Counts, AUC and the operating point, with the sweep and ROC as record arrays.

    ``sweep`` has float64 fields ``threshold, tpr, fpr, fnr``, ascending by
    threshold; ``roc_points`` has float64 fields ``fpr, tpr``, from (0, 0)
    at the highest threshold to (1, 1) at the lowest.
    """

    n_benign: int
    n_malicious: int
    sweep: np.recarray
    roc_points: np.recarray
    auc: float
    operating_point: SweepPoint


def score_dataset(model: MlpModel, scaler: Scaler, test: Dataset) -> np.ndarray:
    """Score every row once in infer mode."""
    X = scaler.transform_matrix(test.features)
    probs, _ = forward(model, X, mode="infer")
    return probs


def evaluate(
    model: MlpModel,
    scaler: Scaler,
    test: Dataset,
    thresholds: Optional[Sequence[float]] = None,
) -> EvalReport:
    """Evaluate the model over a labeled test set.

    A sample is called malicious when its score is >= the threshold.  The
    ROC curve is built from the full set of distinct scores, so the AUC is
    the exact empirical value (trapezoids handle tied scores).  When
    ``thresholds`` is None the sweep covers every distinct score plus the
    model's own threshold.
    """
    labels = test.labels
    n_mal = int(np.sum(labels == 1))
    n_ben = int(np.sum(labels == 0))
    if n_mal == 0 or n_ben == 0:
        raise ValueError("rates undefined: test set must contain both classes")

    scores = score_dataset(model, scaler, test)
    mal_sorted = np.sort(scores[labels == 1])
    ben_sorted = np.sort(scores[labels == 0])

    def rates(values: np.ndarray) -> np.recarray:
        tpr = (n_mal - np.searchsorted(mal_sorted, values, side="left")) / n_mal
        fpr = (n_ben - np.searchsorted(ben_sorted, values, side="left")) / n_ben
        return np.rec.fromarrays((values, tpr, fpr, 1.0 - tpr), names=SweepPoint._fields)

    # One row per distinct score, with the model's threshold inserted in
    # order unless it is one of them: the default sweep.
    distinct = np.unique(scores)
    at = int(np.searchsorted(distinct, model.threshold))
    inserted = at == len(distinct) or distinct[at] != model.threshold
    rows = rates(np.insert(distinct, at, model.threshold) if inserted else distinct)
    if thresholds is None:
        sweep = rows
    else:
        if len(thresholds) == 0:
            raise ValueError("thresholds must be nonempty")
        sweep = rates(np.sort(np.asarray(thresholds, dtype=np.float64), kind="stable"))

    # ROC from high threshold to low: (0, 0), then the distinct scores'
    # rows reversed.  The lowest score flags every sample, so the last is (1, 1).
    fpr, tpr = rows.fpr, rows.tpr
    if inserted:
        fpr, tpr = np.delete(fpr, at), np.delete(tpr, at)
    roc = np.rec.fromarrays((np.r_[0.0, fpr[::-1]], np.r_[0.0, tpr[::-1]]), names="fpr,tpr")
    # Trapezoids summed left to right, as a running total from 0.0.
    fpr, tpr = roc.fpr, roc.tpr
    terms = (fpr[1:] - fpr[:-1]) * (tpr[:-1] + tpr[1:]) / 2.0
    auc = np.add.accumulate(np.concatenate(([0.0], terms)))[-1]

    return EvalReport(
        n_benign=n_ben,
        n_malicious=n_mal,
        sweep=sweep,
        roc_points=roc,
        auc=float(auc),
        operating_point=SweepPoint(*rows[at].tolist()),
    )


def pick_threshold(report: EvalReport, max_fpr: float) -> float:
    """Best swept threshold: maximal TPR subject to FPR <= max_fpr.

    Ties go to the larger threshold.  When nothing qualifies the error
    names the smallest FPR the sweep can reach.
    """
    if not 0.0 <= max_fpr < 1.0:
        raise ValueError("max_fpr must be in [0, 1)")
    sweep = report.sweep
    eligible = sweep.fpr <= max_fpr
    if not eligible.any():
        raise ThresholdNotReachable(
            f"no swept threshold reaches FPR <= {max_fpr:g}; "
            f"minimum achievable is {float(sweep.fpr.min()):g}"
        )
    tpr = sweep.tpr[eligible]
    best = sweep.threshold[eligible][tpr == tpr.max()]
    return float(best[np.argmax(best)])


def write_report_files(report: EvalReport, out_dir: str) -> None:
    """Emit roc.csv, sweep.csv and report.txt under ``out_dir``."""
    roc, sweep = report.roc_points, report.sweep
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "roc.csv"), "w", newline="", encoding="utf-8") as fh:
        fh.write("fpr,tpr\n")
        fh.write("%.9g,%.9g\n" * len(roc) % _flat(roc, "fpr", "tpr"))
    with open(os.path.join(out_dir, "sweep.csv"), "w", newline="", encoding="utf-8") as fh:
        fh.write("threshold,tpr,fpr,fnr\n")
        fh.write("%.9g,%.9g,%.9g,%.9g\n" * len(sweep) % _flat(sweep, *SweepPoint._fields))
    op = report.operating_point
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"benign: {report.n_benign}\n")
        fh.write(f"malicious: {report.n_malicious}\n")
        fh.write(f"auc: {report.auc:.6f}\n")
        fh.write(
            "operating point: threshold=%.4f tpr=%.6f fpr=%.6f fnr=%.6f\n"
            % (op.threshold, op.tpr, op.fpr, op.fnr)
        )


def _flat(records: np.ndarray, *fields: str) -> tuple[float, ...]:
    """The named fields of each record, row by row, as one tuple of floats."""
    return tuple(np.column_stack([records[name] for name in fields]).ravel().tolist())
