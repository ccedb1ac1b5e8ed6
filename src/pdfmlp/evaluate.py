"""Threshold-sweep evaluation: confusion rates, ROC points and AUC."""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain
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
    n_benign: int
    n_malicious: int
    sweep: list[SweepPoint]
    roc_points: list[tuple[float, float]]  # (fpr, tpr), sorted by fpr
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

    def tpr_fpr(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        tpr = (n_mal - np.searchsorted(mal_sorted, values, side="left")) / n_mal
        fpr = (n_ben - np.searchsorted(ben_sorted, values, side="left")) / n_ben
        return tpr, fpr

    def rates(values) -> list[SweepPoint]:
        values = np.asarray(values, dtype=np.float64)
        tpr, fpr = tpr_fpr(values)
        return list(map(SweepPoint, values.tolist(), tpr.tolist(), fpr.tolist(), (1.0 - tpr).tolist()))

    distinct = np.unique(scores)
    if thresholds is None:
        sweep = rates(np.union1d(distinct, [model.threshold]))
    else:
        if len(thresholds) == 0:
            raise ValueError("thresholds must be nonempty")
        sweep = rates(np.sort(np.asarray(thresholds, dtype=np.float64), kind="stable"))

    # ROC from high threshold to low: starts at (0,0), ends at (1,1).
    tpr, fpr = tpr_fpr(distinct[::-1])
    end = [] if (fpr[-1], tpr[-1]) == (1.0, 1.0) else [1.0]
    fpr = np.concatenate(([0.0], fpr, end))
    tpr = np.concatenate(([0.0], tpr, end))
    roc_points = list(zip(fpr.tolist(), tpr.tolist()))
    # Trapezoids summed left to right, as a running total from 0.0.
    terms = (fpr[1:] - fpr[:-1]) * (tpr[:-1] + tpr[1:]) / 2.0
    auc = np.add.accumulate(np.concatenate(([0.0], terms)))[-1]

    return EvalReport(
        n_benign=n_ben,
        n_malicious=n_mal,
        sweep=sweep,
        roc_points=roc_points,
        auc=float(auc),
        operating_point=rates([model.threshold])[0],
    )


def pick_threshold(report: EvalReport, max_fpr: float) -> float:
    """Best swept threshold: maximal TPR subject to FPR <= max_fpr.

    Ties go to the larger threshold.  When nothing qualifies the error
    names the smallest FPR the sweep can reach.
    """
    if not 0.0 <= max_fpr < 1.0:
        raise ValueError("max_fpr must be in [0, 1)")
    eligible = [p for p in report.sweep if p.fpr <= max_fpr]
    if not eligible:
        floor = min(p.fpr for p in report.sweep)
        raise ThresholdNotReachable(
            f"no swept threshold reaches FPR <= {max_fpr:g}; minimum achievable is {floor:g}"
        )
    best = max(eligible, key=lambda p: (p.tpr, p.threshold))
    return best.threshold


def write_report_files(report: EvalReport, out_dir: str) -> None:
    """Emit roc.csv, sweep.csv and report.txt under ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "roc.csv"), "w", newline="", encoding="utf-8") as fh:
        fh.write("fpr,tpr\n")
        fh.write("%.9g,%.9g\n" * len(report.roc_points) % tuple(chain.from_iterable(report.roc_points)))
    with open(os.path.join(out_dir, "sweep.csv"), "w", newline="", encoding="utf-8") as fh:
        fh.write("threshold,tpr,fpr,fnr\n")
        fh.write("%.9g,%.9g,%.9g,%.9g\n" * len(report.sweep) % tuple(chain.from_iterable(report.sweep)))
    op = report.operating_point
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"benign: {report.n_benign}\n")
        fh.write(f"malicious: {report.n_malicious}\n")
        fh.write(f"auc: {report.auc:.6f}\n")
        fh.write(
            "operating point: threshold=%.4f tpr=%.6f fpr=%.6f fnr=%.6f\n"
            % (op.threshold, op.tpr, op.fpr, op.fnr)
        )
