"""Standardization and splitting: hand-computed moments, stratification, CSV."""

import csv
import math
from pathlib import Path

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
from pdfmlp import preprocess
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


def test_scaler_rejects_nan_std():
    # NaN fails `stds <= 0` as well, so a NaN std used to pass.
    with pytest.raises(ValueError, match="stds must be positive"):
        Scaler(means=np.zeros(3), stds=np.array([1.0, np.nan, 1.0]))


# -- the loadtxt path against the csv module reader ------------------------------


def read_with_csv_module(path):
    """The oracle: the csv module reader alone, over the file."""
    with open(path, newline="") as fh:
        return preprocess._read_csv(path, fh)


def outcome(read, path):
    try:
        d = read(path)
    except ValueError as exc:
        return "error", str(exc)
    return d.paths, d.labels.tobytes(), d.features.tobytes()


def assert_same_as_csv_module(path):
    assert outcome(read_features_csv, path) == outcome(read_with_csv_module, path)


# Spellings float(), int() and numpy's parser may disagree on.  The first
# four are numbers to every reader; the rest leave the loadtxt path.  The
# last is two cells, so its row has one field too many.
ODD_CELLS = ["+.5", "5.", "1e0001", "00012", "1_0", " 1", "١", "\xa01",
             "inf", "nan", "1e999", '""', "1,2"]
ODD_LABELS = ["+1", "01", "1.0", " 0", "2", '""']
VALUE_ALPHABET = "0123456789.+-eE"

cell = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: format(v, ".9g")),
    st.sampled_from(ODD_CELLS),
    st.text(VALUE_ALPHABET, min_size=1, max_size=6),
)


@st.composite
def csv_row(draw):
    cells = [format(v, ".9g") for v in draw(
        st.lists(st.floats(-1e6, 1e6), min_size=N_FEATURES, max_size=N_FEATURES)
    )]
    for column, spelling in draw(st.lists(st.tuples(st.integers(0, N_FEATURES - 1), cell), max_size=3)):
        cells[column] = spelling
    label = draw(st.one_of(st.sampled_from(["-1", "0", "1"]), st.sampled_from(ODD_LABELS)))
    path = draw(st.sampled_from(["a.pdf", "dir/b c.pdf", "été.pdf", '"q.pdf"', "c\rr.pdf"]))
    return ",".join([path, label, *cells])


@given(rows=st.lists(csv_row(), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_csv_reads_like_the_csv_module(tmp_path_factory, rows):
    path = str(tmp_path_factory.getbasetemp() / "spellings.csv")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([",".join(CSV_HEADER), *rows]) + "\n")
    assert_same_as_csv_module(path)


@pytest.mark.parametrize("seed", [1, 2, 7, 31])
def test_benchmark_csvs_take_the_loadtxt_path_bit_exact(tmp_path, monkeypatch, seed):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.inputs import synthetic_feature_rows

    rng = np.random.default_rng(seed)
    path = str(tmp_path / "features.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(synthetic_feature_rows(rng, 500, "doc"))
    with open(path, newline="") as fh:
        assert preprocess._read_plain(fh.read()) is not None
    back, oracle = read_features_csv(path), read_with_csv_module(path)
    assert back.paths == oracle.paths
    assert back.labels.tobytes() == oracle.labels.tobytes()
    assert back.features.tobytes() == oracle.features.tobytes()


@pytest.mark.parametrize("n_values", [N_FEATURES - 1, N_FEATURES + 1])
def test_csv_row_of_the_wrong_width_names_its_line(tmp_path, n_values):
    # Every row is as wide as every other, so loadtxt reads the file; the
    # shape check must still send it to the csv reader.
    path = tmp_path / "features.csv"
    path.write_text(",".join(CSV_HEADER) + "\n" + ",".join(["a", "0"] + ["1"] * n_values) + "\n")
    with pytest.raises(ValueError, match=rf"features\.csv:2: expected {len(CSV_HEADER)} fields"):
        read_features_csv(str(path))


def _quoted_path(text):
    return text.replace("doc1,", '"doc1",', 1)


def _crlf(text):
    return text.replace("\n", "\r\n")


def _blank_line(text):
    return text.replace("\ndoc1,", "\n\ndoc1,", 1)


def _no_final_newline(text):
    return text[:-1]


@pytest.mark.parametrize("edit", [_quoted_path, _crlf, _blank_line, _no_final_newline])
def test_odd_files_take_the_csv_path(tmp_path, edit):
    d = make_dataset(np.random.default_rng(3).normal(size=(4, N_FEATURES)), [0, 1, 0, -1])
    path = str(tmp_path / "features.csv")
    write_features_csv(path, d)
    text = edit(open(path, newline="").read())
    open(path, "w", newline="").write(text)
    assert preprocess._read_plain(text) is None
    assert len(read_features_csv(path)) == 4
    assert_same_as_csv_module(path)


@pytest.mark.parametrize("column", [0, 9], ids=["path", "value"])
def test_csv_field_over_the_csv_limit_names_its_line(tmp_path, column):
    # The csv module raised a bare _csv.Error, which is no ValueError.  The
    # value cell is digits only, so loadtxt would read it: the length check
    # must send it to the csv reader too.
    limit = csv.field_size_limit()
    path = _csv_with_cell(tmp_path, column, "0" * limit + "1")
    with pytest.raises(ValueError, match=rf"features\.csv:3: field larger than field limit \({limit}\)"):
        read_features_csv(path)
    assert_same_as_csv_module(path)


def test_csv_field_at_the_csv_limit_reads(tmp_path):
    limit = csv.field_size_limit()
    path = _csv_with_cell(tmp_path, 0, "p" * limit)
    assert read_features_csv(path).paths[1] == "p" * limit
    assert_same_as_csv_module(path)
