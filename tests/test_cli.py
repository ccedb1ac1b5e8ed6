"""CLI contract: flags, outputs, exit codes (0 ok, 2 error, 3 malicious)."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pdfmlp import MlpModel, TrainConfig, cli
from pdfmlp.preprocess import read_features_csv

from pdfbuild import long_number_pdfs, minimal_pdf


def run_cli(args, **kwargs):
    """Run the real entry point in a subprocess."""
    return subprocess.run(
        [sys.executable, "-m", "pdfmlp", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def extract(corpus, out, jobs=1):
    return cli.main(
        [
            "extract",
            "--benign",
            str(corpus["benign"]),
            "--malicious",
            str(corpus["malicious"]),
            "--out",
            out,
            "--jobs",
            str(jobs),
        ]
    )


@pytest.fixture(scope="module")
def features_csv(corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("features") / "features.csv")
    assert extract(corpus, out) == 0
    return out


@pytest.fixture(scope="module")
def model_file(features_csv, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("model") / "model.bin")
    rc = cli.main(
        ["train", "--features", features_csv, "--out", out, "--epochs", "30", "--seed", "5"]
    )
    assert rc == 0
    return out


# -- schema ---------------------------------------------------------------------


def test_schema_prints_48_rows():
    result = run_cli(["schema"])
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    data_rows = [l for l in lines if l[:2].isdigit()]
    assert len(data_rows) == 48
    categories = {row.split("\t")[2] for row in data_rows}
    assert categories == {"structure", "object-properties", "content-stats", "metadata"}


def test_schema_output_stable():
    a = run_cli(["schema"])
    b = run_cli(["schema"])
    assert a.stdout == b.stdout


# -- extract --------------------------------------------------------------------


def test_extract_row_counts(corpus, tmp_path, capsys):
    out = str(tmp_path / "f.csv")
    assert extract(corpus, out) == 0
    dataset = read_features_csv(out)
    assert len(dataset) == 40
    assert int(np.sum(dataset.labels == 1)) == 16
    assert dataset.paths == sorted(dataset.paths)


def test_extract_small_mixed_corpus(tmp_path, capsys):
    benign = tmp_path / "b"
    malicious = tmp_path / "m"
    benign.mkdir()
    malicious.mkdir()
    (benign / "one.pdf").write_bytes(minimal_pdf())
    (benign / "two.pdf").write_bytes(minimal_pdf() + b"%x\n")
    (malicious / "evil.pdf").write_bytes(minimal_pdf().replace(b"/Catalog", b"/JavaScript"))
    out = str(tmp_path / "out.csv")
    rc = cli.main(
        ["extract", "--benign", str(benign), "--malicious", str(malicious), "--out", out]
    )
    assert rc == 0
    lines = Path(out).read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 3


def test_extract_jobs_byte_identical(corpus, tmp_path):
    serial = str(tmp_path / "serial.csv")
    parallel = str(tmp_path / "parallel.csv")
    assert extract(corpus, serial, jobs=1) == 0
    assert extract(corpus, parallel, jobs=4) == 0
    assert Path(serial).read_bytes() == Path(parallel).read_bytes()


def test_extract_skips_non_files_with_warning(corpus, tmp_path, capsys):
    benign = tmp_path / "b"
    benign.mkdir()
    (benign / "real.pdf").write_bytes(minimal_pdf())
    (benign / "subdir").mkdir()
    out = str(tmp_path / "out.csv")
    rc = cli.main(
        [
            "extract",
            "--benign",
            str(benign),
            "--malicious",
            str(corpus["malicious"]),
            "--out",
            out,
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "skipping non-file" in captured.err
    assert "subdir" not in Path(out).read_text(encoding="utf-8")


def test_extract_skips_a_name_that_is_not_utf8(corpus, tmp_path, capsys):
    # A file whose name is not UTF-8 cannot have a CSV row: it is skipped with
    # a warning, and the extract exits 0 with the other files' rows.
    benign = tmp_path / "b"
    benign.mkdir()
    (benign / "real.pdf").write_bytes(minimal_pdf())
    with open(os.fsencode(benign) + b"/bad\xff.pdf", "wb") as fh:
        fh.write(minimal_pdf())
    out = str(tmp_path / "out.csv")
    rc = cli.main(["extract", "--benign", str(benign), "--malicious", str(corpus["malicious"]), "--out", out])
    assert rc == 0
    assert "name is not valid UTF-8" in capsys.readouterr().err
    expected = [benign / "real.pdf", *corpus["malicious"].iterdir()]
    assert read_features_csv(out).paths == sorted(map(str, expected))


def test_extract_unreadable_file_omitted(corpus, tmp_path, capsys, monkeypatch):
    real = cli._extract_row

    def failing(item):
        if item[0].endswith("b00.pdf"):
            return item[0], item[1], None
        return real(item)

    monkeypatch.setattr(cli, "_extract_row", failing)
    out = str(tmp_path / "out.csv")
    assert extract(corpus, out) == 0
    captured = capsys.readouterr()
    assert "row omitted" in captured.err
    assert "b00.pdf" not in Path(out).read_text(encoding="utf-8")
    assert len(read_features_csv(out)) == 39



def test_extract_prints_a_name_with_control_characters_on_one_line(tmp_path, capsys, monkeypatch):
    # A name could forge a line of its own: 'skipping non-file' printed
    # '.../a' and then 'pdfmlp: error: x' on a second stderr line.
    benign = tmp_path / "b"
    benign.mkdir()
    forged_dir = benign / "a\npdfmlp: error: x"
    forged_dir.mkdir()
    unread = benign / "c\rd.pdf"
    unread.write_bytes(minimal_pdf())
    (benign / "real.pdf").write_bytes(minimal_pdf())
    real = cli._extract_row
    monkeypatch.setattr(cli, "_extract_row", lambda item: (*item, None) if "\r" in item[0] else real(item))
    out = str(tmp_path / "out.csv")
    rc = cli.main(["extract", "--benign", str(benign), "--benign", str(benign), "--out", out])
    assert rc == 0
    assert capsys.readouterr().err.splitlines() == [
        f"pdfmlp: warning: skipping non-file {str(forged_dir)!r}",
        f"pdfmlp: warning: skipping non-file {str(forged_dir)!r}",
        f"pdfmlp: warning: skipping duplicate {str(unread)!r}",
        f"pdfmlp: warning: skipping duplicate {benign / 'real.pdf'}",
        f"pdfmlp: warning: cannot read {str(unread)!r}; row omitted",
    ]
    rc = cli.main(["extract", "--benign", str(benign), "--malicious", str(benign), "--out", out])
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"pdfmlp: error: {str(unread)!r} listed as both benign and malicious"
    )


def test_extract_long_numbers_writes_every_row(tmp_path, capsys):
    hostile = tmp_path / "hostile"
    hostile.mkdir()
    for name, raw in long_number_pdfs().items():
        (hostile / name).write_bytes(raw)
    out = str(tmp_path / "out.csv")
    assert cli.main(["extract", "--malicious", str(hostile), "--out", out]) == 0
    dataset = read_features_csv(out)
    assert [os.path.basename(p) for p in dataset.paths] == sorted(long_number_pdfs())


def test_extract_no_files_is_an_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = cli.main(["extract", "--benign", str(empty), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "no PDF files" in capsys.readouterr().err


# -- train ----------------------------------------------------------------------


def test_train_writes_model_and_report(features_csv, tmp_path, capsys):
    out = str(tmp_path / "model.bin")
    rc = cli.main(["train", "--features", features_csv, "--out", out, "--epochs", "5"])
    captured = capsys.readouterr()
    assert rc == 0
    assert os.path.exists(out)
    assert os.path.exists(out + ".train.csv")
    assert "selected epoch" in captured.out
    assert "val_loss=" in captured.out


def test_train_epochs_zero_is_usage_error(features_csv, tmp_path):
    result = run_cli(
        ["train", "--features", features_csv, "--out", str(tmp_path / "m.bin"), "--epochs", "0"]
    )
    assert result.returncode == 2


def test_train_defaults_are_the_library_defaults():
    args = cli._build_parser().parse_args(["train", "--features", "F", "--out", "M"])
    config = TrainConfig()
    assert (args.epochs, args.batch_size, args.eta, args.dropout, args.val_frac) == (
        config.epochs, config.batch_size, config.eta, config.dropout_rate, config.validation_fraction
    )
    assert args.threshold == MlpModel.threshold
    assert (args.seed, args.early_stop_loss) == (None, None)


def test_printed_checksum_matches_model_file(features_csv, tmp_path, capsys):
    import hashlib

    out = str(tmp_path / "model.bin")
    rc = cli.main(["train", "--features", features_csv, "--out", out, "--epochs", "3"])
    assert rc == 0
    printed = [
        l.split()[-1] for l in capsys.readouterr().out.splitlines() if "checksum" in l
    ][0]
    assert printed == hashlib.sha256(Path(out).read_bytes()).hexdigest()


def test_train_same_seed_same_checksum(features_csv, tmp_path, capsys):
    def checksum(path):
        rc = cli.main(
            ["train", "--features", features_csv, "--out", path, "--epochs", "4", "--seed", "11"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        return [l for l in out.splitlines() if l.startswith("model checksum")][0]

    a = checksum(str(tmp_path / "a.bin"))
    b = checksum(str(tmp_path / "b.bin"))
    assert a == b
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_train_seed_from_environment(features_csv, tmp_path):
    env = dict(os.environ, PDFMLP_SEED="11")
    r1 = run_cli(
        ["train", "--features", features_csv, "--out", str(tmp_path / "e.bin"), "--epochs", "4"],
        env=env,
    )
    assert r1.returncode == 0
    r2 = run_cli(
        [
            "train",
            "--features",
            features_csv,
            "--out",
            str(tmp_path / "s.bin"),
            "--epochs",
            "4",
            "--seed",
            "11",
        ]
    )
    assert r2.returncode == 0
    assert (tmp_path / "e.bin").read_bytes() == (tmp_path / "s.bin").read_bytes()


def test_train_malformed_csv_is_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("this,is,not\na,feature,matrix\n", encoding="utf-8")
    rc = cli.main(["train", "--features", str(bad), "--out", str(tmp_path / "m.bin")])
    assert rc == 2
    assert "not a feature CSV" in capsys.readouterr().err


def test_train_non_finite_csv_is_error(features_csv, tmp_path):
    lines = Path(features_csv).read_text(encoding="utf-8").splitlines()
    fields = lines[5].split(",")
    fields[10] = "nan"
    lines[5] = ",".join(fields)
    bad = tmp_path / "nan.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = run_cli(["train", "--features", str(bad), "--out", str(tmp_path / "m.bin")])
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        f"pdfmlp: error: {bad}:6: feature values must be finite"
    ]


def test_train_divergence_is_error(features_csv, tmp_path):
    out = str(tmp_path / "m.bin")
    result = run_cli(["train", "--features", features_csv, "--out", out, "--epochs", "3", "--eta", "1e300"])
    assert result.returncode == 2
    assert result.stderr.splitlines() == ["pdfmlp: error: non-finite loss at epoch 0"]
    assert not os.path.exists(out)


def test_train_single_class_csv_is_error(corpus, tmp_path, capsys):
    out = str(tmp_path / "benign-only.csv")
    rc = cli.main(["extract", "--benign", str(corpus["benign"]), "--out", out])
    assert rc == 0
    rc = cli.main(["train", "--features", out, "--out", str(tmp_path / "m.bin"), "--epochs", "2"])
    assert rc == 2
    assert "both classes" in capsys.readouterr().err


# -- evaluate ---------------------------------------------------------------------


def test_evaluate_writes_artifacts(features_csv, model_file, tmp_path, capsys):
    out_dir = str(tmp_path / "eval")
    rc = cli.main(
        ["evaluate", "--features", features_csv, "--model", model_file, "--out-dir", out_dir]
    )
    captured = capsys.readouterr()
    assert rc == 0
    for name in ("roc.csv", "sweep.csv", "report.txt"):
        assert os.path.exists(os.path.join(out_dir, name))
    assert "tpr=" in captured.out and "fpr=" in captured.out and "fnr=" in captured.out
    roc_lines = Path(out_dir, "roc.csv").read_text(encoding="utf-8").splitlines()
    assert roc_lines[0] == "fpr,tpr"
    assert all(len(l.split(",")) == 2 for l in roc_lines[1:])
    # the synthetic corpus is easy: the trained model should separate it well
    report = Path(out_dir, "report.txt").read_text(encoding="utf-8")
    auc = float([l for l in report.splitlines() if l.startswith("auc:")][0].split()[1])
    assert auc >= 0.95


def _foreign_model(model_file, tmp_path):
    """A copy of model_file whose META names another feature schema."""
    blob = Path(model_file).read_bytes()
    # same length, so the META section's length prefix still holds
    foreign = blob.replace(b'"schema_id":"pdfmlp-v1"', b'"schema_id":"pdfmlp-v9"')
    assert foreign != blob
    other = str(tmp_path / "other.bin")
    with open(other, "wb") as fh:
        fh.write(foreign)
    return other


def test_evaluate_schema_mismatch_is_distinct_error(features_csv, model_file, tmp_path, capsys):
    other = _foreign_model(model_file, tmp_path)
    rc = cli.main(
        ["evaluate", "--features", features_csv, "--model", other, "--out-dir", str(tmp_path / "e")]
    )
    assert rc == 2
    assert "schema mismatch" in capsys.readouterr().err


def test_evaluate_missing_model(features_csv, tmp_path, capsys):
    rc = cli.main(
        [
            "evaluate",
            "--features",
            features_csv,
            "--model",
            str(tmp_path / "missing.bin"),
            "--out-dir",
            str(tmp_path / "e"),
        ]
    )
    assert rc == 2
    assert "cannot load model" in capsys.readouterr().err


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_evaluate_refuses_a_fifo_model_without_waiting_for_a_writer(features_csv, tmp_path):
    # store.load opened the model with a blocking open, so evaluate waited
    # for a writer for good; it now reads through scan's regular-file reader.
    fifo = tmp_path / "model.bin"
    os.mkfifo(fifo)
    out_dir = str(tmp_path / "e")
    args = ["evaluate", "--features", features_csv, "--model", str(fifo), "--out-dir", out_dir]
    done = run_cli(args, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"pdfmlp: error: cannot load model {fifo}: not a regular file\n"


def test_text_files_are_written_and_read_as_utf8(corpus, tmp_path):
    # Every text-mode open names its encoding, so no output depends on the locale.
    def run(*args):
        command = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
        done = subprocess.run([*command, "-m", "pdfmlp", *args], capture_output=True, text=True)
        assert done.returncode in (0, 3), done.stderr
        assert "EncodingWarning" not in done.stderr

    features, model = str(tmp_path / "f.csv"), str(tmp_path / "m.bin")
    run("extract", "--benign", str(corpus["benign"]), "--malicious", str(corpus["malicious"]), "--out", features)
    run("train", "--features", features, "--out", model, "--epochs", "2", "--seed", "1")
    run("evaluate", "--features", features, "--model", model, "--out-dir", str(tmp_path / "e"))
    run("scan", "--model", model, str(corpus["benign"] / "b01.pdf"))


# -- scan -------------------------------------------------------------------------


def test_scan_benign_exit_zero(corpus, model_file, capsys):
    target = str(corpus["benign"] / "b01.pdf")
    rc = cli.main(["scan", "--model", model_file, target])
    captured = capsys.readouterr()
    assert rc == 0
    path, prob, verdict = captured.out.strip().split("\t")
    assert path == target
    assert verdict == "benign"
    assert len(prob.split(".")[1]) == 4  # four decimal places


def test_scan_schema_mismatch_is_distinct_error(corpus, model_file, tmp_path, capsys):
    other = _foreign_model(model_file, tmp_path)
    rc = cli.main(["scan", "--model", other, str(corpus["benign"] / "b01.pdf")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "schema mismatch: model was trained on 'pdfmlp-v9'" in err


def test_scan_malicious_exit_three(corpus, model_file, capsys):
    targets = [str(corpus["malicious"] / f) for f in ("m00.pdf", "m01.pdf")]
    rc = cli.main(["scan", "--model", model_file, str(corpus["benign"] / "b02.pdf"), *targets])
    captured = capsys.readouterr()
    assert rc == 3
    lines = captured.out.strip().splitlines()
    assert len(lines) == 3
    verdicts = [l.split("\t")[2] for l in lines]
    assert verdicts.count("malicious") >= 1


def test_scan_deterministic_output(corpus, model_file):
    target = str(corpus["benign"] / "b03.pdf")
    a = run_cli(["scan", "--model", model_file, target])
    b = run_cli(["scan", "--model", model_file, target])
    assert a.stdout == b.stdout


def test_scan_garbage_file_still_scanned(model_file, tmp_path, capsys):
    junk = tmp_path / "junk.pdf"
    junk.write_bytes(b"\x00\xff" * 100)
    rc = cli.main(["scan", "--model", model_file, str(junk)])
    captured = capsys.readouterr()
    assert rc in (0, 3)  # scanned and classified, parser never refuses
    assert "junk.pdf" in captured.out


def test_scan_unreadable_target_is_operational_error(model_file, tmp_path, capsys):
    rc = cli.main(["scan", "--model", model_file, str(tmp_path)])  # a directory
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_scan_refuses_a_fifo_without_waiting_for_a_writer(corpus, model_file, tmp_path):
    # Opening a FIFO for reading waits for a writer, so scan once blocked
    # there for good, whether the FIFO was a FILE or the model.
    fifo = tmp_path / "pipe.pdf"
    os.mkfifo(fifo)
    done = run_cli(["scan", "--model", model_file, str(fifo)], timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"pdfmlp: warning: cannot read {fifo}: not a regular file\n"
    done = run_cli(["scan", "--model", str(fifo), str(corpus["benign"] / "b01.pdf")], timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"pdfmlp: error: cannot load model {fifo}: not a regular file\n"


def test_files_over_the_read_cap_are_refused(corpus, model_file, tmp_path, capsys, monkeypatch):
    # Any regular file was read whole, whatever its size.
    from pdfmlp import store

    small = str(corpus["benign"] / "b01.pdf")
    cap = max(os.path.getsize(small), os.path.getsize(model_file))
    big = tmp_path / "big.pdf"
    big.write_bytes(minimal_pdf().ljust(cap + 1, b"%"))
    monkeypatch.setattr(store, "MAX_FILE_BYTES", cap)
    assert cli.main(["scan", "--model", model_file, str(big)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"pdfmlp: warning: cannot read {big}: file larger than {store.MAX_FILE_BYTES} bytes\n"
    benign = tmp_path / "benign"
    benign.mkdir()
    (benign / "big.pdf").write_bytes(big.read_bytes())
    (benign / "small.pdf").write_bytes(Path(small).read_bytes())
    out = tmp_path / "out.csv"
    assert cli.main(["extract", "--benign", str(benign), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == f"pdfmlp: warning: cannot read {benign / 'big.pdf'}; row omitted\n"
    assert read_features_csv(str(out)).paths == [str(benign / "small.pdf")]
    monkeypatch.setattr(store, "MAX_FILE_BYTES", 64)
    assert cli.main(["scan", "--model", model_file, small]) == 2
    assert capsys.readouterr().err == f"pdfmlp: error: cannot load model {model_file}: file larger than 64 bytes\n"


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_scan_refuses_a_device(corpus, model_file, capsys):
    # /dev/null read as an empty file and printed a benign verdict; an
    # endless device would have been read until memory ran out.
    assert cli.main(["scan", "--model", model_file, "/dev/null"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "pdfmlp: warning: cannot read /dev/null: not a regular file\n"
    assert cli.main(["scan", "--model", "/dev/null", str(corpus["benign"] / "b01.pdf")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "pdfmlp: error: cannot load model /dev/null: not a regular file\n"


def test_scan_model_with_a_nan_weight_is_a_load_error(corpus, model_file, tmp_path, capsys):
    # A NaN weight scored every file NaN, which printed as benign with exit 0.
    from pdfmlp.store import load, save

    model, scaler, _ = load(model_file)
    model.layers[0].weights[0, 0] = np.nan
    bad = str(tmp_path / "nan.bin")
    save(model, scaler, bad)
    rc = cli.main(["scan", "--model", bad, str(corpus["malicious"] / "m00.pdf")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(f"pdfmlp: error: cannot load model {bad}: ")


def test_scan_prints_one_line_of_three_fields_for_a_name_with_control_characters(
    model_file, tmp_path, capsys
):
    # A name could forge a verdict line of its own: the output read
    # 'a.pdf\nforged.pdf\t0.0000\tbenign\t1.0000\tmalicious\n'.
    forged = tmp_path / "a.pdf\nforged.pdf\t0.0000\tbenign"
    forged.write_bytes(minimal_pdf())
    plain = tmp_path / "é ü.pdf"
    plain.write_bytes(minimal_pdf())
    missing = str(tmp_path / "gone.pdf\rforged.pdf")
    rc = cli.main(["scan", "--model", model_file, str(forged), str(plain), missing])
    captured = capsys.readouterr()
    assert rc == 2
    lines = captured.out.splitlines()
    assert captured.out.count("\n") == len(lines) == 2
    assert [line.split("\t")[0] for line in lines] == [repr(str(forged)), str(plain)]
    assert all(len(line.split("\t")) == 3 for line in lines)
    assert captured.err.count("\n") == 1 and "\r" not in captured.err
    assert captured.err.startswith(f"pdfmlp: warning: cannot read {missing!r}: ")


# -- scan's model memo --------------------------------------------------------------


@pytest.fixture
def counted_loads(monkeypatch):
    """A fresh scan memo, and the list of blobs store.loads is called with."""
    monkeypatch.setattr(cli, "_scan_model", cli._LastModel())
    calls = []
    loads = cli.loads

    def counting(blob):
        calls.append(blob)
        return loads(blob)

    monkeypatch.setattr(cli, "loads", counting)
    return calls


def _scan(model, target, capsys):
    rc = cli.main(["scan", "--model", model, target])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_scan_parses_its_model_once_per_process(model_file, corpus, counted_loads, capsys):
    targets = [str(corpus[kind] / name) for kind, name in (("benign", "b01.pdf"), ("malicious", "m00.pdf"))]
    results = [_scan(model_file, target, capsys) for target in (*targets, targets[0])]
    assert len(counted_loads) == 1
    assert results[0] == results[2]
    assert [rc for rc, _, _ in results] == [0, 3, 0]


def test_scan_model_rewritten_with_its_size_and_mtime_is_parsed_again(
    model_file, corpus, counted_loads, tmp_path, capsys
):
    model = tmp_path / "model.bin"
    blob = Path(model_file).read_bytes()
    model.write_bytes(blob)
    stat = os.stat(model)
    target = str(corpus["benign"] / "b01.pdf")
    assert _scan(str(model), target, capsys)[0] == 0
    # The output layer's bias is the file's last 8 bytes; a large one makes
    # every score 1.
    model.write_bytes(blob[:-8] + np.float64(50.0).astype("<f8").tobytes())
    os.utime(model, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert os.stat(model).st_size == stat.st_size and os.stat(model).st_mtime_ns == stat.st_mtime_ns
    assert _scan(str(model), target, capsys) == (3, f"{target}\t1.0000\tmalicious\n", "")
    assert len(counted_loads) == 2


def test_scan_after_a_corrupt_model_recovers_when_the_bytes_do(
    model_file, corpus, counted_loads, tmp_path, capsys
):
    model = tmp_path / "model.bin"
    blob = Path(model_file).read_bytes()
    model.write_bytes(blob)
    target = str(corpus["malicious"] / "m00.pdf")
    first = _scan(str(model), target, capsys)
    assert first[0] == 3
    model.write_bytes(blob[: len(blob) // 2])
    rc, out, err = _scan(str(model), target, capsys)
    assert (rc, out) == (2, "")
    assert err.startswith(f"pdfmlp: error: cannot load model {model}: ")
    model.write_bytes(blob)
    assert _scan(str(model), target, capsys) == first
    assert len(counted_loads) == 2  # the corrupt bytes were parsed, and nothing of them kept


def test_scan_keeps_its_model_read_only(model_file, corpus, counted_loads, capsys):
    from pdfmlp.mlp import BATCH_NORM_ARRAYS

    assert _scan(model_file, str(corpus["benign"] / "b01.pdf"), capsys)[0] == 0
    model, scaler, _ = cli._scan_model.kept[1]
    arrays = [scaler.means, scaler.stds]
    for layer in model.layers:
        arrays += [layer.weights, layer.biases]
        if layer.batch_norm is not None:
            arrays += [getattr(layer.batch_norm, name) for name in BATCH_NORM_ARRAYS]
    assert len(arrays) == 2 + 2 * 3 + 4 * 2
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0.0


def test_scan_empty_file_list_usage_error(model_file):
    result = run_cli(["scan", "--model", model_file])
    assert result.returncode == 2


def test_unknown_command_usage_error():
    assert run_cli(["frobnicate"]).returncode == 2


# -- the argument parser ------------------------------------------------------------


def test_main_builds_its_argument_parser_at_most_once(model_file, corpus, monkeypatch, capsys):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "pdfmlp":  # the top-level parser, not a subcommand's
            built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    target = str(corpus["benign"] / "b01.pdf")
    for _ in range(3):
        assert cli.main(["scan", "--model", model_file, target]) == 0
        assert cli.main(["schema"]) == 0
    assert len(built) <= 1


def test_import_builds_no_argument_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "real_init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *a, **k):\n"
        "    built.append(k.get('prog'))\n"
        "    real_init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import pdfmlp.cli\n"
        "print(len(built))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0\n"


def test_append_options_do_not_carry_over_between_calls(tmp_path, capsys):
    outs = []
    for name in ("first", "second"):
        directory = tmp_path / name
        directory.mkdir()
        (directory / f"{name}.pdf").write_bytes(minimal_pdf())
        out = str(tmp_path / f"{name}.csv")
        assert cli.main(["extract", "--benign", str(directory), "--out", out]) == 0
        outs.append(out)
    for name, out in zip(("first", "second"), outs):
        assert read_features_csv(out).paths == [str(tmp_path / name / f"{name}.pdf")]


def test_in_process_calls_match_a_fresh_process(model_file, corpus, monkeypatch, capsys):
    # A usage error, then --version, then a scan in one process each print
    # what a fresh interpreter prints for that request alone.
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "COLUMNS": "80"}
    target = str(corpus["malicious"] / "m00.pdf")
    requests = [["frobnicate"], ["--version"], ["scan", "--model", model_file, target]]
    codes = []
    for argv in requests:
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        code = codes[-1]
        captured = capsys.readouterr()
        fresh = run_cli(argv, env=env)
        assert (code, captured.out, captured.err) == (
            fresh.returncode,
            fresh.stdout,
            fresh.stderr,
        )
    assert codes[:2] == [2, 0]


def test_train_csv_field_over_the_csv_limit_is_error(features_csv, tmp_path, capsys):
    # The csv module's _csv.Error is no ValueError: this ended in a traceback.
    lines = Path(features_csv).read_text(encoding="utf-8").splitlines()
    lines[1] = "p" * 200_000 + lines[1][lines[1].index(",") :]
    bad = tmp_path / "long.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = cli.main(["train", "--features", str(bad), "--out", str(tmp_path / "m.bin")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        f"pdfmlp: error: {bad}:2: field larger than field limit (131072)"
    ]


def test_evaluate_undecodable_csv_names_the_file(model_file, tmp_path, capsys):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(b"path,label\ncaf\xe9.pdf,0\n")
    rc = cli.main(["evaluate", "--features", str(bad), "--model", model_file,
                   "--out-dir", str(tmp_path / "eval")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"pdfmlp: error: {bad}: 'utf-8' codec can't decode byte 0xe9")
