"""Reference evaluation that the library's ``evaluate`` is checked against.

This is the straightforward version: every rate is computed one threshold
at a time with two scalar ``searchsorted`` calls, the default sweep takes
its distinct scores from a Python ``set``, and the ROC curve walks
``np.unique`` of the scores from the highest down.
"""

import numpy as np

from pdfmlp.evaluate import EvalReport, SweepPoint, score_dataset


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
        sweep=sweep,
        roc_points=roc_points,
        auc=float(auc),
        operating_point=rates(model.threshold),
    )
