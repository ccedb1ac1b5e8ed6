"""Evaluation: hand-enumerated confusion counts, exact AUC, threshold picking."""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdfmlp import Dataset, evaluate, pick_threshold
from pdfmlp.evaluate import (
    EvalReport,
    SweepPoint,
    ThresholdNotReachable,
    score_dataset,
    write_report_files,
)
from pdfmlp.features import N_FEATURES
from pdfmlp.mlp import DenseLayer, MlpModel
from pdfmlp.preprocess import Scaler

import evaluate_reference as reference


def passthrough_model(threshold: float = 0.5) -> MlpModel:
    """sigmoid(feature 0): lets a test dictate scores via logits."""
    weights = np.zeros((1, N_FEATURES))
    weights[0, 0] = 1.0
    return MlpModel(
        layers=[DenseLayer(weights=weights, biases=np.zeros(1), activation="sigmoid")],
        threshold=threshold,
    )


def identity_scaler() -> Scaler:
    return Scaler(means=np.zeros(N_FEATURES), stds=np.ones(N_FEATURES))


def dataset_with_scores(mal_scores, ben_scores) -> Dataset:
    scores = list(mal_scores) + list(ben_scores)
    labels = [1] * len(mal_scores) + [0] * len(ben_scores)
    X = np.zeros((len(scores), N_FEATURES))
    X[:, 0] = [math.log(s / (1.0 - s)) for s in scores]  # logits
    return Dataset(features=X, labels=np.array(labels), paths=[str(i) for i in range(len(scores))])


def dataset_with_logits(mal_logits, ben_logits) -> Dataset:
    X = np.zeros((len(mal_logits) + len(ben_logits), N_FEATURES))
    X[:, 0] = list(mal_logits) + list(ben_logits)
    labels = [1] * len(mal_logits) + [0] * len(ben_logits)
    return Dataset(features=X, labels=np.array(labels), paths=[str(i) for i in range(len(X))])


def brute_force_auc(mal_scores, ben_scores) -> float:
    wins = 0.0
    for m in mal_scores:
        for b in ben_scores:
            if m > b:
                wins += 1.0
            elif m == b:
                wins += 0.5
    return wins / (len(mal_scores) * len(ben_scores))


def test_perfect_scorer():
    d = dataset_with_scores([0.99] * 5, [0.01] * 7)
    report = evaluate(passthrough_model(0.5), identity_scaler(), d, thresholds=[0.5])
    point = report.sweep[0]
    assert point.tpr == 1.0
    assert point.fpr == 0.0
    assert report.auc == 1.0
    assert report.n_malicious == 5
    assert report.n_benign == 7


def test_constant_scorer_gives_diagonal_roc():
    d = dataset_with_scores([0.5] * 10, [0.5] * 10)
    report = evaluate(passthrough_model(), identity_scaler(), d)
    assert report.auc == pytest.approx(0.5, abs=1e-15)
    pairs = report.roc_points.tolist()
    assert (0.0, 0.0) in pairs and (1.0, 1.0) in pairs


def test_hand_enumerated_confusion_counts():
    # mal: 0.9, 0.8, 0.3; ben: 0.7, 0.2, 0.1 at threshold 0.75:
    # TP = {0.9, 0.8}, FN = {0.3}, FP = {}, TN = all benign
    d = dataset_with_scores([0.9, 0.8, 0.3], [0.7, 0.2, 0.1])
    report = evaluate(passthrough_model(), identity_scaler(), d, thresholds=[0.75])
    point = report.sweep[0]
    assert point.tpr == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert point.fpr == 0.0
    assert point.fnr == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_auc_equals_pairwise_probability_with_ties():
    rng = np.random.default_rng(0)
    mal = list(np.round(rng.uniform(0.2, 0.95, 300), 2))  # rounding forces ties
    ben = list(np.round(rng.uniform(0.05, 0.8, 400), 2))
    d = dataset_with_scores(mal, ben)
    model, scaler = passthrough_model(), identity_scaler()
    report = evaluate(model, scaler, d)
    scores = score_dataset(model, scaler, d)
    auc_oracle = brute_force_auc(scores[d.labels == 1], scores[d.labels == 0])
    assert abs(report.auc - auc_oracle) <= 1e-12


def test_rates_identities_and_monotonicity():
    rng = np.random.default_rng(3)
    d = dataset_with_scores(rng.uniform(0.3, 0.99, 150), rng.uniform(0.01, 0.7, 300))
    report = evaluate(passthrough_model(), identity_scaler(), d)
    previous_fpr, previous_fnr = 1.1, -0.1
    for point in report.sweep:  # sweep is sorted ascending by threshold
        assert point.tpr + point.fnr == 1.0
        assert point.fpr <= previous_fpr  # FPR never increases with threshold
        assert point.fnr >= previous_fnr  # FNR never decreases
        previous_fpr, previous_fnr = point.fpr, point.fnr
    fprs, tprs = report.roc_points.fpr, report.roc_points.tpr
    assert np.array_equal(fprs, np.sort(fprs))
    assert np.array_equal(tprs, np.sort(tprs))
    assert 0.0 <= report.auc <= 1.0


def test_row_permutation_changes_nothing():
    rng = np.random.default_rng(9)
    mal = rng.uniform(0.4, 0.99, 80)
    ben = rng.uniform(0.01, 0.6, 200)
    d = dataset_with_scores(mal, ben)
    order = rng.permutation(len(d))
    shuffled = d.subset(order)
    a = evaluate(passthrough_model(), identity_scaler(), d)
    b = evaluate(passthrough_model(), identity_scaler(), shuffled)
    assert a.sweep.tobytes() == b.sweep.tobytes()
    assert a.roc_points.tobytes() == b.roc_points.tobytes()
    assert a.auc == b.auc


def test_single_class_rejected():
    d = dataset_with_scores([0.9, 0.8], [])
    with pytest.raises(ValueError, match="rates undefined"):
        evaluate(passthrough_model(), identity_scaler(), d)


def test_empty_thresholds_rejected():
    d = dataset_with_scores([0.9], [0.1])
    with pytest.raises(ValueError, match="nonempty"):
        evaluate(passthrough_model(), identity_scaler(), d, thresholds=[])


def test_operating_point_uses_model_threshold():
    d = dataset_with_scores([0.9, 0.63, 0.3], [0.61, 0.2])
    report = evaluate(passthrough_model(0.62), identity_scaler(), d)
    op = report.operating_point
    assert op.threshold == 0.62
    assert op.tpr == pytest.approx(2.0 / 3.0)
    assert op.fpr == 0.0


# Quarter-step logits repeat often, so many scores tie.
_logits = st.one_of(st.integers(-12, 12).map(lambda k: k / 4.0), st.floats(-30.0, 30.0))


def assert_same_report(got: EvalReport, want: EvalReport) -> None:
    """Equal bit for bit, column by column, and of the same types."""
    for got_rows, want_rows in ((got.sweep, want.sweep), (got.roc_points, want.roc_points)):
        assert isinstance(got_rows, np.recarray)
        assert got_rows.dtype.names == want_rows.dtype.names
        for name in want_rows.dtype.names:
            assert got_rows[name].dtype == np.float64
            assert got_rows[name].tobytes() == want_rows[name].tobytes(), name
    assert np.float64(got.auc).tobytes() == np.float64(want.auc).tobytes()
    assert type(got.operating_point) is SweepPoint
    assert np.array(got.operating_point).tobytes() == np.array(want.operating_point).tobytes()
    assert (got.n_benign, got.n_malicious) == (want.n_benign, want.n_malicious)


@given(
    mal=st.lists(_logits, min_size=1, max_size=40),
    ben=st.lists(_logits, min_size=1, max_size=40),
    model_threshold=st.floats(0.001, 0.999),
    threshold_pick=st.none() | st.integers(0, 10**6),
    explicit=st.none() | st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=10),
    picks=st.lists(st.integers(0, 10**6), max_size=8),
)
@example(
    mal=[1.0, 1.0, 0.0],
    ben=[0.0, -1.0, -1.0],
    model_threshold=0.5,
    threshold_pick=None,
    explicit=[2.0, 0.5, -1.0, 0.5, 0.5],
    picks=[],
)
@example(mal=[1.0, 1.0, 0.0], ben=[0.0, -1.0], model_threshold=0.5, threshold_pick=2, explicit=None, picks=[])
@example(mal=[0.25], ben=[-0.25], model_threshold=0.999, threshold_pick=None, explicit=None, picks=[])
@example(mal=[0.25], ben=[-0.25], model_threshold=0.001, threshold_pick=None, explicit=None, picks=[])
@settings(max_examples=300, deadline=None)
def test_evaluate_equals_per_threshold_reference(mal, ben, model_threshold, threshold_pick, explicit, picks):
    d = dataset_with_logits(mal, ben)
    scores = score_dataset(passthrough_model(), identity_scaler(), d).tolist()
    if threshold_pick is not None:  # the model's threshold is one of the scores
        model_threshold = scores[threshold_pick % len(scores)]
    model, scaler = passthrough_model(model_threshold), identity_scaler()
    if explicit is not None:
        # duplicate some thresholds and hit some scores exactly
        pool = explicit + scores
        explicit = explicit + [pool[i % len(pool)] for i in picks]
    assert_same_report(
        evaluate(model, scaler, d, thresholds=explicit),
        reference.evaluate(model, scaler, d, thresholds=explicit),
    )


def test_report_arrays_keep_len_indexing_iteration_and_fields():
    d = dataset_with_scores([0.9, 0.7], [0.3, 0.1])
    report = evaluate(passthrough_model(0.5), identity_scaler(), d)
    assert report.sweep.dtype.names == ("threshold", "tpr", "fpr", "fnr")
    assert report.roc_points.dtype.names == ("fpr", "tpr")
    assert len(report.sweep) == 5  # four distinct scores and the model's threshold
    assert len(report.roc_points) == 5  # (0, 0) and one point per distinct score
    assert [p.threshold for p in report.sweep] == report.sweep.threshold.tolist()
    assert report.sweep[2].threshold == 0.5 and report.sweep[2].tpr == 1.0
    assert report.sweep[2].tolist() == tuple(report.operating_point)
    assert report.roc_points[-1].tolist() == (1.0, 1.0)


# -- pick_threshold ------------------------------------------------------------


def test_pick_threshold_perfect_scorer():
    d = dataset_with_scores([0.99] * 10, [0.01] * 10)
    grid = [round(0.1 * k, 2) for k in range(1, 10)]  # 0.1 .. 0.9
    report = evaluate(passthrough_model(), identity_scaler(), d, thresholds=grid)
    assert pick_threshold(report, max_fpr=0.001) == 0.9


def test_pick_threshold_constant_scorer_degenerate_bound():
    d = dataset_with_scores([0.5] * 6, [0.5] * 6)
    report = evaluate(passthrough_model(), identity_scaler(), d, thresholds=[0.4, 0.6])
    # above 0.5 nothing is flagged: TPR 0, FPR 0 still satisfies the bound
    assert pick_threshold(report, max_fpr=0.0) == 0.6


def test_pick_threshold_unreachable_reports_floor():
    d = dataset_with_scores([0.9], [0.9, 0.2])
    report = evaluate(passthrough_model(), identity_scaler(), d, thresholds=[0.1])
    with pytest.raises(ThresholdNotReachable, match="minimum achievable"):
        pick_threshold(report, max_fpr=0.01)


def pick_outcome(pick, report, max_fpr):
    """The picked threshold's bytes, or the error's type and text."""
    try:
        return np.float64(pick(report, max_fpr)).tobytes()
    except ValueError as exc:
        return type(exc), str(exc)


# Few distinct values, so rates and thresholds tie often; -0.0 and 0.0 tie
# as numbers but not as bytes, so the pick must take the same one.
_tied = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
_sweep_rows = st.lists(
    st.tuples(st.sampled_from([-0.0, 0.0, 0.3, 0.5, 0.7, 1.0]), _tied, _tied), min_size=1, max_size=12
)


@given(rows=_sweep_rows, max_fpr=_tied.filter(lambda f: f < 1.0) | st.floats(0.0, 1.0, exclude_max=True))
@example(rows=[(0.3, 0.5, 0.5)], max_fpr=0.25)  # nothing qualifies
@example(rows=[(0.0, 1.0, 0.0), (-0.0, 1.0, 0.0)], max_fpr=0.0)
@example(rows=[(-0.0, 1.0, 0.0), (0.0, 1.0, 0.0)], max_fpr=0.0)
@settings(max_examples=300, deadline=None)
def test_pick_threshold_equals_per_point_reference(rows, max_fpr):
    # Any sweep, even one out of order: the highest TPR within the budget,
    # ties to the larger threshold, and the first of equal ones.
    sweep = np.rec.fromrecords(
        [(t, tpr, fpr, 1.0 - tpr) for t, tpr, fpr in rows], names=SweepPoint._fields
    )
    report = EvalReport(
        n_benign=1, n_malicious=1, sweep=sweep, roc_points=sweep[["fpr", "tpr"]],
        auc=0.5, operating_point=SweepPoint(*sweep[0].tolist()),
    )
    assert pick_outcome(pick_threshold, report, max_fpr) == pick_outcome(
        reference.pick_threshold, report, max_fpr
    )


@given(
    mal=st.lists(_logits, min_size=1, max_size=30),
    ben=st.lists(_logits, min_size=1, max_size=30),
    explicit=st.none() | st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=10),
    picks=st.lists(st.integers(0, 10**6), max_size=8),
    budget=st.none() | st.floats(0.0, 1.0, exclude_max=True),
    budget_pick=st.integers(0, 10**6),
)
@settings(max_examples=200, deadline=None)
def test_pick_threshold_on_evaluated_sweeps_equals_reference(mal, ben, explicit, picks, budget, budget_pick):
    d = dataset_with_logits(mal, ben)
    model, scaler = passthrough_model(), identity_scaler()
    if explicit is not None:
        explicit = explicit + [explicit[i % len(explicit)] for i in picks]  # duplicates
    report = evaluate(model, scaler, d, thresholds=explicit)
    if budget is None:  # a budget equal to a swept FPR
        budget = min(report.sweep.fpr.tolist()[budget_pick % len(report.sweep)], 0.5)
    assert pick_outcome(pick_threshold, report, budget) == pick_outcome(
        reference.pick_threshold, report, budget
    )


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _phi_inv(p: float) -> float:
    lo, hi = -10.0, 10.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if _phi(mid) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def test_small_fpr_relaxation_buys_large_tpr():
    # Two-Gaussian score model tuned to AUC ~ 0.99; the numerically
    # integrated oracle says what TPR each FPR bound should buy.
    mu = 3.3
    rng = np.random.default_rng(2718)
    ben_logit = rng.normal(0.0, 1.0, 20000)
    mal_logit = rng.normal(mu, 1.0, 2000)
    to_score = lambda z: 1.0 / (1.0 + np.exp(-z))
    d = dataset_with_scores(to_score(mal_logit), to_score(ben_logit))
    report = evaluate(passthrough_model(), identity_scaler(), d)
    assert report.auc == pytest.approx(_phi(mu / math.sqrt(2.0)), abs=0.01)

    def tpr_at(max_fpr):
        threshold = pick_threshold(report, max_fpr)
        return next(p.tpr for p in report.sweep if p.threshold == threshold)

    expected_tight = _phi(mu - _phi_inv(1.0 - 1e-3))  # ~0.58
    expected_loose = _phi(mu - _phi_inv(1.0 - 1e-2))  # ~0.83
    assert tpr_at(1e-3) == pytest.approx(expected_tight, abs=0.05)
    assert tpr_at(1e-2) == pytest.approx(expected_loose, abs=0.05)
    assert tpr_at(1e-2) - tpr_at(1e-3) > 0.15


def test_report_files(tmp_path):
    d = dataset_with_scores([0.9, 0.7], [0.3, 0.1])
    report = evaluate(passthrough_model(), identity_scaler(), d)
    write_report_files(report, str(tmp_path))
    roc = (tmp_path / "roc.csv").read_text().splitlines()
    sweep = (tmp_path / "sweep.csv").read_text().splitlines()
    text = (tmp_path / "report.txt").read_text()
    assert roc[0] == "fpr,tpr"
    assert sweep[0] == "threshold,tpr,fpr,fnr"
    assert "auc:" in text and "operating point:" in text
    assert len(roc) == len(report.roc_points) + 1


# Rates and thresholds that need all nine digits, the ends of [0, 1] and
# subnormals, besides whatever hypothesis draws.
_report_float = st.floats() | st.sampled_from(
    [0.0, 1.0, 1.0 / 3.0, 0.1 + 0.2, 0.123456789, 0.987654321, 5e-324, 2.2250738585072009e-308]
)
_sweep_point = st.tuples(*[_report_float] * 4).map(lambda t: SweepPoint(*t))


@given(
    roc=st.lists(st.tuples(_report_float, _report_float), min_size=1, max_size=30),
    sweep=st.lists(_sweep_point, min_size=1, max_size=30),
    auc=_report_float,
    counts=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
)
@example(roc=[(0.0, 0.0), (1.0, 1.0)], sweep=[SweepPoint(0.62, 1.0, 0.0, 0.0)], auc=1.0, counts=(1, 1))
@settings(max_examples=150, deadline=None)
def test_report_files_equal_the_line_by_line_reference(roc, sweep, auc, counts):
    report = EvalReport(
        n_benign=counts[0],
        n_malicious=counts[1],
        sweep=np.rec.fromrecords(sweep, names=SweepPoint._fields),
        roc_points=np.rec.fromrecords(roc, names="fpr,tpr"),
        auc=auc,
        operating_point=sweep[0],
    )
    with tempfile.TemporaryDirectory() as got_dir, tempfile.TemporaryDirectory() as want_dir:
        write_report_files(report, got_dir)
        reference.write_report_files(report, want_dir)
        for name in ("roc.csv", "sweep.csv", "report.txt"):
            with open(os.path.join(got_dir, name), "rb") as got, open(os.path.join(want_dir, name), "rb") as want:
                assert got.read() == want.read(), name
