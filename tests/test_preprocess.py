"""Standardization and splitting: hand-computed moments, stratification, CSV."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdfmlp import (
    Dataset,
    FeatureVector,
    N_FEATURES,
    fit_scaler,
    read_features_csv,
    split_train_validation,
    transform,
    write_features_csv,
)
from pdfmlp.preprocess import CSV_HEADER, Scaler


def make_dataset(features, labels):
    features = np.asarray(features, dtype=np.float64)
    if features.shape[1] != N_FEATURES:
        padded = np.zeros((features.shape[0], N_FEATURES))
        padded[:, : features.shape[1]] = features
        features = padded
    return Dataset(
        features=features,
        labels=np.asarray(labels),
        paths=[f"doc{i}" for i in range(len(labels))],
    )


def test_fit_population_moments_by_hand():
    # column [1,2,3]: mean 2, population std sqrt(((1)^2+0+(1)^2)/3) = sqrt(2/3)
    d = make_dataset([[1.0], [2.0], [3.0]], [0, 1, 0])
    scaler = fit_scaler(d)
    assert scaler.means[0] == pytest.approx(2.0, abs=1e-12)
    assert scaler.stds[0] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)


def test_fit_constant_column_degenerate_rule():
    d = make_dataset([[5.0], [5.0], [5.0]], [0, 1, 0])
    scaler = fit_scaler(d)
    assert scaler.means[0] == 5.0
    assert scaler.stds[0] == 1.0
    out = scaler.transform_matrix(d.features)
    assert np.all(out[:, 0] == 0.0)


def test_fit_on_standardized_data_is_identityish():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(500, N_FEATURES))
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    scaler = fit_scaler(make_dataset(X, rng.integers(0, 2, 500)))
    assert np.all(np.abs(scaler.means) <= 1e-9)
    assert np.all(np.abs(scaler.stds - 1.0) <= 1e-9)


def test_fit_empty_raises():
    d = Dataset(features=np.empty((0, N_FEATURES)), labels=np.empty(0, dtype=int), paths=[])
    with pytest.raises(ValueError, match="empty training set"):
        fit_scaler(d)


def test_transform_hand_values():
    d = make_dataset([[1.0], [2.0], [3.0]], [0, 1, 0])
    scaler = fit_scaler(d)
    out = scaler.transform_matrix(d.features)
    expected = (np.array([1.0, 2.0, 3.0]) - 2.0) / math.sqrt(2.0 / 3.0)
    np.testing.assert_allclose(out[:, 0], expected, atol=1e-12)
    assert out[0, 0] == pytest.approx(-1.224744871391589, abs=1e-9)
    assert out[1, 0] == 0.0
    assert out[2, 0] == pytest.approx(1.224744871391589, abs=1e-9)


def test_transform_of_means_is_zero():
    rng = np.random.default_rng(11)
    d = make_dataset(rng.normal(size=(40, N_FEATURES)), rng.integers(0, 2, 40))
    scaler = fit_scaler(d)
    vec = FeatureVector(values=scaler.means.copy())
    np.testing.assert_array_equal(transform(scaler, vec), np.zeros(N_FEATURES))


def test_transform_schema_mismatch():
    d = make_dataset(np.zeros((3, N_FEATURES)), [0, 1, 1])
    scaler = fit_scaler(d)
    vec = FeatureVector(values=np.zeros(N_FEATURES), schema_id="other-schema")
    with pytest.raises(ValueError, match="schema mismatch"):
        transform(scaler, vec)


def test_fit_then_transform_standardizes_every_column():
    rng = np.random.default_rng(1234)
    X = rng.gamma(2.0, 3.0, size=(777, N_FEATURES)) * rng.uniform(0.1, 50, N_FEATURES)
    d = make_dataset(X, rng.integers(0, 2, 777))
    scaler = fit_scaler(d)
    out = scaler.transform_matrix(d.features)
    assert np.all(np.abs(out.mean(axis=0)) <= 1e-9)
    assert np.all(np.abs(out.std(axis=0) - 1.0) <= 1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_transform_is_affine(seed):
    rng = np.random.default_rng(seed)
    scaler = Scaler(
        means=rng.normal(size=N_FEATURES), stds=rng.uniform(0.5, 3.0, N_FEATURES)
    )
    x = rng.normal(size=N_FEATURES)
    np.testing.assert_allclose(
        transform(scaler, x), (x - scaler.means) / scaler.stds, rtol=0, atol=0
    )


# -- splitting -----------------------------------------------------------------


def test_split_stratified_50_50():
    d = make_dataset(np.arange(100)[:, None] * np.ones((1, N_FEATURES)), [0] * 50 + [1] * 50)
    train, val = split_train_validation(d, 0.2, seed=7)
    assert len(val) == 20
    assert len(train) == 80
    assert int(np.sum(val.labels == 1)) == 10
    assert int(np.sum(train.labels == 1)) == 40


def test_split_deterministic():
    rng = np.random.default_rng(5)
    d = make_dataset(rng.normal(size=(101, N_FEATURES)), rng.integers(0, 2, 101))
    a_train, a_val = split_train_validation(d, 0.25, seed=99)
    b_train, b_val = split_train_validation(d, 0.25, seed=99)
    assert a_val.paths == b_val.paths
    assert a_train.paths == b_train.paths
    c_train, c_val = split_train_validation(d, 0.25, seed=100)
    assert a_val.paths != c_val.paths


def test_split_is_a_partition():
    rng = np.random.default_rng(8)
    d = make_dataset(rng.normal(size=(233, N_FEATURES)), rng.integers(0, 2, 233))
    train, val = split_train_validation(d, 0.3, seed=1)
    together = sorted(train.paths + val.paths)
    assert together == sorted(d.paths)
    assert not set(train.paths) & set(val.paths)


def test_split_paper_scale_counts():
    # 90000 rows at a 6:1-ish class ratio; 20% validation = 18000 rows
    labels = np.zeros(90000, dtype=int)
    labels[:11316] = 1
    d = Dataset(
        features=np.zeros((90000, N_FEATURES)),
        labels=labels,
        paths=[str(i) for i in range(90000)],
    )
    train, val = split_train_validation(d, 0.2, seed=0)
    assert len(val) == 18000
    assert len(train) == 72000
    # class ratio preserved to within one sample
    expected_mal = 18000 * 11316 / 90000
    assert abs(int(np.sum(val.labels == 1)) - expected_mal) <= 1


def test_split_ratio_within_one_sample_per_class():
    rng = np.random.default_rng(21)
    labels = (rng.random(1000) < 1 / 7).astype(int)  # roughly 6:1
    d = make_dataset(rng.normal(size=(1000, N_FEATURES)), labels)
    train, val = split_train_validation(d, 0.2, seed=3)
    n_val = len(val)
    for c in (0, 1):
        whole = int(np.sum(d.labels == c))
        got = int(np.sum(val.labels == c))
        assert abs(got - n_val * whole / 1000) <= 1


def test_split_rejects_tiny_class():
    d = make_dataset(np.zeros((5, N_FEATURES)), [0, 0, 0, 0, 1])
    with pytest.raises(ValueError, match="cannot stratify"):
        split_train_validation(d, 0.2, seed=0)


def test_split_rejects_bad_fraction():
    d = make_dataset(np.zeros((10, N_FEATURES)), [0] * 5 + [1] * 5)
    for fraction in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            split_train_validation(d, fraction, seed=0)


# -- CSV round trip ---------------------------------------------------------------


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(17)
    d = make_dataset(rng.normal(size=(25, N_FEATURES)), rng.integers(0, 2, 25))
    path = str(tmp_path / "features.csv")
    write_features_csv(path, d)
    back = read_features_csv(path)
    assert back.paths == d.paths
    np.testing.assert_array_equal(back.labels, d.labels)
    # 9 significant digits both ways
    np.testing.assert_allclose(back.features, d.features, rtol=1e-8, atol=1e-12)


def test_csv_header_exact(tmp_path):
    d = make_dataset(np.zeros((1, N_FEATURES)), [0])
    path = str(tmp_path / "features.csv")
    write_features_csv(path, d)
    first = open(path).readline().strip()
    assert first == ",".join(CSV_HEADER)
    assert first.startswith("path,label,f00,f01,")
    assert first.endswith(",f47")


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="not a feature CSV"):
        read_features_csv(str(path))


def test_csv_rejects_bad_label(tmp_path):
    d = make_dataset(np.zeros((1, N_FEATURES)), [0])
    path = str(tmp_path / "features.csv")
    write_features_csv(path, d)
    text = open(path).read().replace("doc0,0", "doc0,7")
    open(path, "w").write(text)
    with pytest.raises(ValueError, match="label"):
        read_features_csv(path)


def _csv_with_cell(tmp_path, column, cell):
    """A three-row feature CSV whose line 3 holds ``cell`` in ``column``."""
    d = make_dataset(np.zeros((3, N_FEATURES)), [0, 1, 0])
    path = str(tmp_path / "features.csv")
    write_features_csv(path, d)
    lines = open(path).read().splitlines()
    fields = lines[2].split(",")
    fields[column] = cell
    lines[2] = ",".join(fields)
    open(path, "w").write("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_csv_rejects_non_finite_values(tmp_path, cell):
    path = _csv_with_cell(tmp_path, 7, cell)
    with pytest.raises(ValueError, match=r"features\.csv:3: feature values must be finite"):
        read_features_csv(path)


@pytest.mark.parametrize("column, cell", [(1, "1.0"), (7, "abc")])
def test_csv_unparseable_cell_names_its_line(tmp_path, column, cell):
    path = _csv_with_cell(tmp_path, column, cell)
    with pytest.raises(ValueError, match=rf"features\.csv:3: .*'{cell}'"):
        read_features_csv(path)


def test_csv_accepts_unlabeled_rows(tmp_path):
    d = Dataset(
        features=np.zeros((3, N_FEATURES)),
        labels=np.array([0, 1, -1]),
        paths=["a", "b", "c"],
    )
    path = str(tmp_path / "features.csv")
    write_features_csv(path, d)
    back = read_features_csv(path)
    np.testing.assert_array_equal(back.labels, [0, 1, -1])


def test_csv_paths_with_commas_survive(tmp_path):
    d = Dataset(
        features=np.ones((1, N_FEATURES)),
        labels=np.array([1]),
        paths=['odd, "name".pdf'],
    )
    path = str(tmp_path / "features.csv")
    write_features_csv(path, d)
    assert read_features_csv(path).paths == ['odd, "name".pdf']
