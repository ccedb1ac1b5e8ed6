"""Command-line interface: schema, extract, train, evaluate, scan.

Exit codes: 0 success (and all-benign scans), 2 usage or operational
error, 3 at least one malicious verdict from scan.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import os
import re
import sys
from typing import Optional

import numpy as np

from . import __version__
from .evaluate import evaluate, write_report_files
from .features import FeatureVector, describe_schema, extract_features
from .mlp import MlpModel, predict
from .pdf import parse_pdf
from .preprocess import Dataset, read_features_csv, transform, write_features_csv
from .store import ModelStoreError, _read_file, dataset_checksum, load, loads, save
from .train import TrainConfig, TrainingDivergedError, train

EXIT_OK = 0
EXIT_ERROR = 2
EXIT_MALICIOUS = 3


class CliError(Exception):
    pass


def _warn(message: str) -> None:
    print(f"pdfmlp: warning: {message}", file=sys.stderr)


# A control character in a file name could end a printed line or field early.
_CONTROL_RE = re.compile(r"[\x00-\x1f\x7f-\x9f]")


def _shown(path: str) -> str:
    """The path as printed: quoted and escaped if it holds a control character."""
    return repr(path) if _CONTROL_RE.search(path) else path


def _escaped(message: str) -> str:
    """The message with each control character escaped, as repr escapes it."""
    return _CONTROL_RE.sub(lambda m: repr(m[0])[1:-1], message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _default_seed(value: Optional[int]) -> int:
    if value is not None:
        return value
    env = os.environ.get("PDFMLP_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise CliError(f"PDFMLP_SEED must be an integer, got {env!r}")


def _read_features(path: str) -> FeatureVector:
    """Read, parse and extract one file; a read failure raises OSError."""
    raw = _read_file(path)
    return extract_features(parse_pdf(raw), raw)


def _extract_row(item: tuple[str, int]) -> tuple[str, int, Optional[np.ndarray]]:
    path, label = item
    try:
        vector = _read_features(path)
    except OSError:
        return path, label, None
    return path, label, vector.values


def _collect_corpus(args: argparse.Namespace) -> list[tuple[str, int]]:
    entries: list[tuple[str, int]] = []
    seen: dict[str, int] = {}
    for label, dirs in ((0, args.benign or []), (1, args.malicious or [])):
        for directory in dirs:
            try:
                names = sorted(os.listdir(directory))
            except OSError as exc:
                raise CliError(f"cannot list {_shown(directory)}: {exc}")
            for name in names:
                path = os.path.join(directory, name)
                try:
                    path.encode("utf-8")  # the CSV names each row's file in UTF-8
                except UnicodeEncodeError:
                    _warn(f"skipping {path!r}: name is not valid UTF-8")
                    continue
                if not os.path.isfile(path):
                    _warn(f"skipping non-file {_shown(path)}")
                    continue
                if path in seen:
                    if seen[path] != label:
                        raise CliError(f"{_shown(path)} listed as both benign and malicious")
                    _warn(f"skipping duplicate {_shown(path)}")
                    continue
                seen[path] = label
                entries.append((path, label))
    return entries


def cmd_extract(args: argparse.Namespace) -> int:
    entries = _collect_corpus(args)
    if not entries:
        raise CliError("no PDF files found under the given directories")

    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_extract_row, entries, chunksize=8))
    else:
        results = [_extract_row(item) for item in entries]

    rows = []
    for path, label, values in results:
        if values is None:
            _warn(f"cannot read {_shown(path)}; row omitted")
            continue
        rows.append((path, label, values))
    if not rows:
        raise CliError("no readable PDF files; nothing written")

    rows.sort(key=lambda r: r[0])
    dataset = Dataset(
        features=np.stack([r[2] for r in rows]),
        labels=np.asarray([r[1] for r in rows], dtype=np.int64),
        paths=[r[0] for r in rows],
    )
    write_features_csv(args.out, dataset)
    n_ben, n_mal = dataset.class_counts()
    print(f"wrote {len(dataset)} rows ({n_ben} benign, {n_mal} malicious) to {_shown(args.out)}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    # Every value is checked, and the paths told apart, before the features are read.
    config = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        eta=args.eta,
        dropout_rate=args.dropout,
        validation_fraction=args.val_frac,
        seed=_default_seed(args.seed),
        early_stop_loss=args.early_stop_loss,
    )
    report_path = args.report or args.out + ".train.csv"
    if len({os.path.realpath(p) for p in (args.features, args.out, report_path)}) < 3:
        raise CliError(
            f"--features, --out and the report ({_shown(report_path)}) must be three different files"
        )
    dataset = read_features_csv(args.features)
    # A diverging run is reported once, by TrainingDivergedError, not by
    # numpy's overflow warnings on the way there.
    with np.errstate(all="ignore"):
        model, scaler, report = train(dataset, config, threshold=args.threshold)

    fingerprint = {
        "seed": config.seed,
        "epochs": config.epochs,
        "eta": config.eta,
        "data_checksum": dataset_checksum(dataset),
    }
    save(model, scaler, args.out, fingerprint)
    report.write_csv(report_path)

    best = report.records[report.selected_epoch]
    print(
        f"selected epoch {report.selected_epoch}: "
        f"val_loss={best.val_loss:.6f} val_tpr={best.val_tpr:.4f} val_fpr={best.val_fpr:.4f}"
    )
    print(f"model checksum {report.final_model_checksum}")
    print(f"wrote {_shown(args.out)} and {_shown(report_path)}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    model, scaler = _load_model(load, args.model)
    dataset = read_features_csv(args.features)
    report = evaluate(model, scaler, dataset)
    write_report_files(report, args.out_dir)
    op = report.operating_point
    print(
        f"threshold={op.threshold:.4f} tpr={op.tpr:.6f} fpr={op.fpr:.6f} "
        f"fnr={op.fnr:.6f} auc={report.auc:.6f}"
    )
    print(f"wrote roc.csv, sweep.csv, report.txt under {_shown(args.out_dir)}")
    return EXIT_OK


class _LastModel:
    """The last model file scan parsed: its bytes, with what loads made of them.

    Each request still reads the file, and only bytes that differ from the
    kept ones are parsed: those just read, so what is kept always matches
    its key.  loads' arrays are read-only, so no request can change the
    model the next one scores with.  A failed load keeps nothing.
    """

    def __init__(self) -> None:
        self.kept: tuple = (None, None)  # (bytes, loads' result), swapped as one

    def load(self, path: str):
        blob = _read_file(path)
        kept_blob, loaded = self.kept
        if blob != kept_blob:
            loaded = loads(blob)
            self.kept = (blob, loaded)
        return loaded


# Kept for the life of the process, across main() calls.
_scan_model = _LastModel()


def cmd_scan(args: argparse.Namespace) -> int:
    model, scaler = _load_model(_scan_model.load, args.model)
    any_malicious = False
    operational_error = False
    for path in args.files:
        try:
            vector = _read_features(path)
        except OSError as exc:
            _warn(f"cannot read {_shown(path)}: {exc}")
            operational_error = True
            continue
        probability, verdict = predict(model, transform(scaler, vector))
        print(f"{_shown(path)}\t{probability:.4f}\t{verdict}")
        if verdict == "malicious":
            any_malicious = True
    if operational_error:
        return EXIT_ERROR
    return EXIT_MALICIOUS if any_malicious else EXIT_OK


def cmd_schema(args: argparse.Namespace) -> int:
    schema = describe_schema()
    print(f"schema {schema.schema_id}: {len(schema.descriptors)} features")
    for i, d in enumerate(schema.descriptors):
        print(f"{i:02d}\t{d.name}\t{d.category}\t{d.description} [{d.unit}]")
    return EXIT_OK


def _load_model(read, path: str):
    """The model and scaler read(path) returns; a failure is a CliError."""
    try:
        model, scaler, _ = read(path)
    except (OSError, ModelStoreError) as exc:
        raise CliError(f"cannot load model {_shown(path)}: {exc}")
    return model, scaler


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first call and shared by later ones.

    Each parse_args call fills a fresh Namespace, so requests do not share
    state; the cmd_* functions are bound here, at the first build.
    """
    parser = argparse.ArgumentParser(
        prog="pdfmlp",
        description="Static PDF malware detection with an MLP classifier.",
    )
    parser.add_argument("--version", action="version", version=f"pdfmlp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract the 48-feature CSV from labeled corpora")
    p.add_argument("--benign", action="append", metavar="DIR", help="directory of benign PDFs")
    p.add_argument("--malicious", action="append", metavar="DIR", help="directory of malicious PDFs")
    p.add_argument("--out", required=True, metavar="CSV", help="feature CSV to write")
    p.add_argument("--jobs", type=_positive_int, default=1, help="parallel extraction workers")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a model from a feature CSV")
    p.add_argument("--features", required=True, metavar="CSV")
    p.add_argument("--out", required=True, metavar="MODEL")
    p.add_argument("--report", metavar="CSV", help="per-epoch report (default: MODEL.train.csv)")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--eta", type=float, default=TrainConfig.eta)
    p.add_argument("--dropout", type=float, default=TrainConfig.dropout_rate)
    p.add_argument("--val-frac", type=float, default=TrainConfig.validation_fraction)
    p.add_argument("--seed", type=int, default=None, help="defaults to $PDFMLP_SEED, then 0")
    p.add_argument("--threshold", type=float, default=MlpModel.threshold)
    p.add_argument("--early-stop-loss", type=float, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="sweep thresholds over a labeled test CSV")
    p.add_argument("--features", required=True, metavar="CSV")
    p.add_argument("--model", required=True, metavar="MODEL")
    p.add_argument("--out-dir", required=True, metavar="DIR")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("scan", help="classify PDF files with a trained model")
    p.add_argument("--model", required=True, metavar="MODEL")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("schema", help="print the 48-feature schema")
    p.set_defaults(func=cmd_schema)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, OSError, ValueError, TrainingDivergedError) as exc:
        print(f"pdfmlp: error: {_escaped(str(exc))}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
