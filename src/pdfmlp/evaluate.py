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

    def rates(values) -> list[SweepPoint]:
        values = np.asarray(values, dtype=np.float64)
        tpr = (n_mal - np.searchsorted(mal_sorted, values, side="left")) / n_mal
        fpr = (n_ben - np.searchsorted(ben_sorted, values, side="left")) / n_ben
        return list(map(SweepPoint, values.tolist(), tpr.tolist(), fpr.tolist(), (1.0 - tpr).tolist()))

    distinct = np.unique(scores)
    if thresholds is None:
        sweep = rates(np.union1d(distinct, [model.threshold]))
    else:
        if len(thresholds) == 0:
            raise ValueError("thresholds must be nonempty")
        sweep = rates(np.sort(np.asarray(thresholds, dtype=np.float64), kind="stable"))

    # ROC from high threshold to low: starts at (0,0), ends at (1,1).
    roc_points = [(0.0, 0.0)] + [(p.fpr, p.tpr) for p in rates(distinct[::-1])]
    if roc_points[-1] != (1.0, 1.0):
        roc_points.append((1.0, 1.0))

    auc = 0.0
    for (f0, t0), (f1, t1) in zip(roc_points, roc_points[1:]):
        auc += (f1 - f0) * (t0 + t1) / 2.0

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
    with open(os.path.join(out_dir, "roc.csv"), "w", newline="") as fh:
        fh.write("fpr,tpr\n")
        for fpr, tpr in report.roc_points:
            fh.write(f"{fpr:.9g},{tpr:.9g}\n")
    with open(os.path.join(out_dir, "sweep.csv"), "w", newline="") as fh:
        fh.write("threshold,tpr,fpr,fnr\n")
        for p in report.sweep:
            fh.write(f"{p.threshold:.9g},{p.tpr:.9g},{p.fpr:.9g},{p.fnr:.9g}\n")
    op = report.operating_point
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write(f"benign: {report.n_benign}\n")
        fh.write(f"malicious: {report.n_malicious}\n")
        fh.write(f"auc: {report.auc:.6f}\n")
        fh.write(
            "operating point: threshold=%.4f tpr=%.6f fpr=%.6f fnr=%.6f\n"
            % (op.threshold, op.tpr, op.fpr, op.fnr)
        )
