"""Reference evaluation that the library's ``evaluate`` is checked against.

This is the straightforward version: every rate is computed one threshold
at a time with two scalar ``searchsorted`` calls, the default sweep takes
its distinct scores from a Python ``set``, and the ROC curve walks
``np.unique`` of the scores from the highest down; only the finished lists
become the report's record arrays.  ``pick_threshold`` looks at one sweep
point at a time, and ``write_report_files`` writes one formatted line at a
time.
"""

import os

import numpy as np

from pdfmlp.evaluate import EvalReport, SweepPoint, ThresholdNotReachable, score_dataset


def evaluate(model, scaler, test, thresholds=None) -> EvalReport:
    labels = test.labels
    n_mal = int(np.sum(labels == 1))
    n_ben = int(np.sum(labels == 0))
    if n_mal == 0 or n_ben == 0:
        raise ValueError("rates undefined: test set must contain both classes")

    scores = score_dataset(model, scaler, test)
    mal_sorted = np.sort(scores[labels == 1])
    ben_sorted = np.sort(scores[labels == 0])

    def rates(threshold: float) -> SweepPoint:
        tp = n_mal - int(np.searchsorted(mal_sorted, threshold, side="left"))
        fp = n_ben - int(np.searchsorted(ben_sorted, threshold, side="left"))
        tpr = tp / n_mal
        fpr = fp / n_ben
        return SweepPoint(threshold=float(threshold), tpr=tpr, fpr=fpr, fnr=1.0 - tpr)

    if thresholds is None:
        sweep_values = sorted(set(float(s) for s in scores) | {float(model.threshold)})
    else:
        if len(thresholds) == 0:
            raise ValueError("thresholds must be nonempty")
        sweep_values = sorted(float(t) for t in thresholds)
    sweep = [rates(t) for t in sweep_values]

    roc_points = [(0.0, 0.0)]
    for t in np.unique(np.concatenate([mal_sorted, ben_sorted]))[::-1]:
        p = rates(float(t))
        roc_points.append((p.fpr, p.tpr))
    if roc_points[-1] != (1.0, 1.0):
        roc_points.append((1.0, 1.0))

    auc = 0.0
    for (f0, t0), (f1, t1) in zip(roc_points, roc_points[1:]):
        auc += (f1 - f0) * (t0 + t1) / 2.0

    return EvalReport(
        n_benign=n_ben,
        n_malicious=n_mal,
        sweep=np.rec.fromrecords(sweep, names=SweepPoint._fields),
        roc_points=np.rec.fromrecords(roc_points, names="fpr,tpr"),
        auc=float(auc),
        operating_point=rates(model.threshold),
    )


def _points(report: EvalReport) -> list[SweepPoint]:
    sweep = report.sweep
    return [SweepPoint(*row) for row in zip(*(sweep[name].tolist() for name in SweepPoint._fields))]


def pick_threshold(report: EvalReport, max_fpr: float) -> float:
    if not 0.0 <= max_fpr < 1.0:
        raise ValueError("max_fpr must be in [0, 1)")
    points = _points(report)
    eligible = [p for p in points if p.fpr <= max_fpr]
    if not eligible:
        floor = min(p.fpr for p in points)
        raise ThresholdNotReachable(
            f"no swept threshold reaches FPR <= {max_fpr:g}; minimum achievable is {floor:g}"
        )
    best = max(eligible, key=lambda p: (p.tpr, p.threshold))
    return best.threshold


def write_report_files(report: EvalReport, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "roc.csv"), "w", newline="") as fh:
        fh.write("fpr,tpr\n")
        for fpr, tpr in zip(report.roc_points.fpr.tolist(), report.roc_points.tpr.tolist()):
            fh.write(f"{fpr:.9g},{tpr:.9g}\n")
    with open(os.path.join(out_dir, "sweep.csv"), "w", newline="") as fh:
        fh.write("threshold,tpr,fpr,fnr\n")
        for p in _points(report):
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
