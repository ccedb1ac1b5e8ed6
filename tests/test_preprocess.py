"""Standardization and splitting: hand-computed moments, stratification, CSV."""

import csv
import math
import os
import subprocess
import sys
import tracemalloc
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
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
    assert first == ",".join(CSV_HEADER)
    assert first.startswith("path,label,f00,f01,")
    assert first.endswith(",f47")


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="not a feature CSV"):
        read_features_csv(str(path))


def test_csv_rejects_bad_label(tmp_path):
    d = make_dataset(np.zeros((1, N_FEATURES)), [0])
    path = str(tmp_path / "features.csv")
    write_features_csv(path, d)
    text = Path(path).read_text(encoding="utf-8").replace("doc0,0", "doc0,7")
    Path(path).write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match="label"):
        read_features_csv(path)


@pytest.mark.parametrize("label", ["0.9", "-0.7", "1.0", "1e0", "+1", "01", " 0", "1 ", "-0"])
def test_a_label_not_spelled_minus_one_zero_or_one_goes_to_the_csv_reader(tmp_path, label):
    # numpy before 2.0 reads "0.9" into an int64 field as 0, with only a
    # warning; so numpy reads the label as text and takes those three
    # spellings alone.
    path = _csv_with_cell(tmp_path, 1, label)
    assert read_rows(path) is None
    assert_same_as_csv_module(path)


def _csv_with_cell(tmp_path, column, cell):
    """A three-row feature CSV whose line 3 holds ``cell`` in ``column``."""
    d = make_dataset(np.zeros((3, N_FEATURES)), [0, 1, 0])
    path = str(tmp_path / "features.csv")
    write_features_csv(path, d)
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    fields = lines[2].split(",")
    fields[column] = cell
    lines[2] = ",".join(fields)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
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


def test_header_only_csv_is_an_empty_dataset(tmp_path):
    # No row: the streamed reader declines the file, and the csv reader
    # returns the empty dataset.
    path = tmp_path / "features.csv"
    path.write_text(",".join(CSV_HEADER) + "\n", encoding="utf-8")
    empty = read_features_csv(str(path))
    assert empty.features.shape == (0, N_FEATURES) and empty.features.dtype == np.float64
    assert empty.labels.shape == (0,) and empty.labels.dtype == np.int64
    assert empty.paths == []


def test_csv_paths_with_commas_survive(tmp_path):
    d = Dataset(
        features=np.ones((1, N_FEATURES)),
        labels=np.array([1]),
        paths=['odd, "name".pdf'],
    )
    path = str(tmp_path / "features.csv")
    write_features_csv(path, d)
    assert read_features_csv(path).paths == ['odd, "name".pdf']


def test_written_rows_are_the_per_value_rows(tmp_path):
    # Each value as format(v, ".9g"), each path quoted when it holds a
    # comma, a quote, a CR or an LF: the rows the writer wrote value by value.
    paths = ["a,b.pdf", 'q"x.pdf', "cr\r.pdf", "lf\n.pdf", "plain.pdf"]
    values = np.resize([-0.0, 1e-300, 1e300, 0.1, 1 / 3, -2.5e-7, 123456789.5], (5, N_FEATURES))
    path = str(tmp_path / "features.csv")
    write_features_csv(path, Dataset(features=values, labels=np.array([0, 1, -1, 0, 1]), paths=paths))
    quoted = ['"a,b.pdf"', '"q""x.pdf"', '"cr\r.pdf"', '"lf\n.pdf"', "plain.pdf"]
    rows = [
        f"{name},{label}," + ",".join(format(v, ".9g") for v in row) + "\n"
        for name, label, row in zip(quoted, [0, 1, -1, 0, 1], values.tolist())
    ]
    with open(path, newline="", encoding="utf-8") as fh:
        assert fh.read() == ",".join(CSV_HEADER) + "\n" + "".join(rows)
    assert "-0,1e-300,1e+300," in rows[0]


# The characters a feature CSV must quote (comma, quote, CR, LF), and others
# a CSV reader may treat specially: tab, NUL, '#', backslash, non-ASCII.
PATH_ALPHABET = 'a ,"\r\n\t\x00é#\\'


@given(paths=st.lists(st.text(PATH_ALPHABET, max_size=8), min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_written_paths_read_back_exactly(tmp_path_factory, paths):
    d = Dataset(
        features=np.ones((len(paths), N_FEATURES)),
        labels=np.zeros(len(paths), dtype=np.int64),
        paths=paths,
    )
    path = str(tmp_path_factory.getbasetemp() / "paths.csv")
    write_features_csv(path, d)
    assert read_features_csv(path).paths == paths


def test_scaler_rejects_nan_std():
    # NaN fails `stds <= 0` as well, so a NaN std used to pass.
    with pytest.raises(ValueError, match="stds must be positive"):
        Scaler(means=np.zeros(3), stds=np.array([1.0, np.nan, 1.0]))


# -- the numpy reader against the csv module reader -----------------------------


def read_rows(path):
    """_read_rows over the file at path: a Dataset, or None where numpy declines it."""
    with open(path, newline="", encoding="utf-8") as fh:
        return preprocess._read_rows(fh)


def read_with_csv_module(path):
    """The oracle: the csv module reader alone, over the file."""
    with open(path, newline="", encoding="utf-8") as fh:
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
# four are numbers to every reader, and so are " 1" and "\xa01": numpy, like
# float(), strips the whitespace.  "1_0" and "١" are numbers to float()
# alone, and the next three are not finite, so each of those five sends the
# file to the csv reader.  '""' is no number to any reader, and the last is
# two cells, so its row has one field too many.
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\n".join([",".join(CSV_HEADER), *rows]) + "\n")
    assert_same_as_csv_module(path)


@pytest.mark.parametrize("seed", [1, 2, 7, 31])
def test_benchmark_csvs_take_the_loadtxt_path_bit_exact(tmp_path, monkeypatch, seed):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.inputs import synthetic_feature_rows

    rng = np.random.default_rng(seed)
    path = str(tmp_path / "features.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(synthetic_feature_rows(rng, 500, "doc"))
    assert read_rows(path) is not None
    back, oracle = read_features_csv(path), read_with_csv_module(path)
    assert back.paths == oracle.paths
    assert back.labels.tobytes() == oracle.labels.tobytes()
    assert back.features.tobytes() == oracle.features.tobytes()


@pytest.mark.parametrize("n_values", [N_FEATURES - 1, N_FEATURES + 1])
def test_csv_row_of_the_wrong_width_names_its_line(tmp_path, n_values):
    # Every row is as wide as every other, so loadtxt reads the file; the
    # shape check must still send it to the csv reader.
    path = tmp_path / "features.csv"
    path.write_text(",".join(CSV_HEADER) + "\n" + ",".join(["a", "0"] + ["1"] * n_values) + "\n", encoding="utf-8")
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
def test_odd_files_pick_their_reader(tmp_path, edit):
    d = make_dataset(np.random.default_rng(3).normal(size=(4, N_FEATURES)), [0, 1, 0, -1])
    path = str(tmp_path / "features.csv")
    write_features_csv(path, d)
    with open(path, newline="", encoding="utf-8") as fh:
        text = edit(fh.read())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    # numpy reads all but the file whose header line ends in CRLF.
    assert (read_rows(path) is None) == (edit is _crlf)
    assert len(read_features_csv(path)) == 4
    assert_same_as_csv_module(path)


# A thread writes the file into the FIFO while the child reads it, so a
# reader that opened the FIFO a second time would wait for another writer
# until the timeout ended the child.
_READ_FROM_A_FIFO = """
import shutil, sys, threading
from pdfmlp.preprocess import read_features_csv
fifo, source = sys.argv[1:]

def write():
    with open(source, "rb") as src, open(fifo, "wb") as dst:
        shutil.copyfileobj(src, dst)

threading.Thread(target=write, daemon=True).start()
try:
    print(len(read_features_csv(fifo)))
except ValueError as exc:
    print(exc)
"""


def read_from_a_fifo(fifo, source):
    """What a child that reads the CSV at source through a new FIFO prints: its rows or its error."""
    os.mkfifo(fifo)
    command = [sys.executable, "-c", _READ_FROM_A_FIFO, str(fifo), str(source)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=30)
    assert done.stderr == ""
    return done.stdout


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_a_crlf_csv_reads_from_a_fifo(tmp_path):
    # numpy declines the CRLF header, so the csv module reader reads the
    # file again, from the one open.
    path = tmp_path / "features.csv"
    write_features_csv(str(path), make_dataset(np.ones((4, N_FEATURES)), [0, 1, 0, -1]))
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert read_from_a_fifo(tmp_path / "pipe.csv", path) == "4\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_a_bad_cell_read_from_a_fifo_names_its_line(tmp_path):
    fifo, path = tmp_path / "pipe.csv", _csv_with_cell(tmp_path, 7, "abc")
    assert read_from_a_fifo(fifo, path) == f"{fifo}:3: could not convert string to float: 'abc'\n"


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_a_crlf_csv_reads_from_a_pipe_on_stdin(tmp_path):
    path = tmp_path / "features.csv"
    write_features_csv(str(path), make_dataset(np.ones((2, N_FEATURES)), [0, 1]))
    code = "from pdfmlp.preprocess import read_features_csv; print(len(read_features_csv('/dev/stdin')))"
    crlf = path.read_bytes().replace(b"\n", b"\r\n")
    done = subprocess.run([sys.executable, "-c", code], input=crlf, capture_output=True, timeout=30)
    assert (done.stdout, done.stderr) == (b"2\n", b"")


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


def test_csv_field_over_the_csv_limit_across_a_line_break_names_its_line(tmp_path):
    # Each of the path's two lines is under csv's limit and the field is
    # over it: only the count of rows against lines sends it to the csv
    # reader.
    limit = csv.field_size_limit()
    half = "p" * (limit // 2 + 4_000)
    d = make_dataset(np.zeros((1, N_FEATURES)), [0])
    d.paths[0] = f"{half}\n{half}"
    path = str(tmp_path / "features.csv")
    write_features_csv(path, d)
    with pytest.raises(ValueError, match=rf"features\.csv:3: field larger than field limit \({limit}\)$"):
        read_features_csv(path)
    assert_same_as_csv_module(path)


def test_invalid_utf8_names_its_offset_in_the_file(tmp_path):
    # The streamed read meets the bad byte in a later chunk; the message
    # still gives its offset in the whole file.
    rng = np.random.default_rng(5)
    d = make_dataset(rng.normal(size=(400, N_FEATURES)), rng.integers(0, 2, 400))
    path = tmp_path / "features.csv"
    write_features_csv(str(path), d)
    raw = path.read_bytes()
    at = raw.index(b"doc350,")
    assert at > 200_000
    path.write_bytes(raw[:at] + b"\xe9" + raw[at + 1:])
    with pytest.raises(ValueError) as exc:
        read_features_csv(str(path))
    assert str(exc.value) == (
        f"{path}: 'utf-8' codec can't decode byte 0xe9 in position {at}: invalid continuation byte"
    )


def test_reading_a_csv_traces_at_most_twice_its_size(tmp_path):
    rng = np.random.default_rng(11)
    d = make_dataset(rng.normal(size=(5_000, N_FEATURES)), rng.integers(0, 2, 5_000))
    path = tmp_path / "features.csv"
    write_features_csv(str(path), d)
    tracemalloc.start()
    try:
        read_features_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * path.stat().st_size


# Path characters csv quotes, numpy might not, or either might treat as a
# line end, a comment or an escape.
SPLICED_PATH_CHARS = 'a ,"\r\n\t\x00é#\\'
# What a splice puts after the header: line breaks, blank and
# whitespace-only lines, a stray quote or comma; None drops the final LF.
SPLICES = ["\n", "\r\n", "\r", " \n", "\t\r\n", '"', ",", None]


@given(data=st.data())
@settings(max_examples=1_000, deadline=None)
def test_spliced_files_read_like_the_csv_module(tmp_path_factory, data):
    n = data.draw(st.integers(1, 4))
    d = Dataset(
        features=np.random.default_rng(data.draw(st.integers(0, 2**16))).integers(-9, 10, (n, N_FEATURES)),
        labels=data.draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n)),
        paths=data.draw(st.lists(st.text(SPLICED_PATH_CHARS, max_size=6), min_size=n, max_size=n)),
    )
    path = str(tmp_path_factory.getbasetemp() / "spliced.csv")
    write_features_csv(path, d)
    with open(path, newline="", encoding="utf-8") as fh:
        text = fh.read()
    head = len(",".join(CSV_HEADER)) + 1
    for splice in data.draw(st.lists(st.sampled_from(SPLICES), max_size=3)):
        if splice is None:
            text = text.removesuffix("\n")
            continue
        line_starts = [i + 1 for i in range(head - 1, len(text)) if text[i] == "\n"]
        at = data.draw(st.one_of(st.sampled_from(line_starts), st.integers(head, len(text))))
        text = text[:at] + splice + text[at:]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    assert_same_as_csv_module(path)
