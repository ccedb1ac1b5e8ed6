"""Seeded inputs and their references for the three workloads.

Small documents come from the test-suite generators (``benign_pdf`` and
``malicious_pdf`` in ``tests/conftest.py``) and are assembled with
``tests/pdfbuild.py``.  The hostile and heavy tail kinds are built here.
Every ``prepare_*`` function writes its files under a work directory,
computes the reference output for the seed through the library (never
through the CLI that the timed loop exercises, except where noted), and
returns a JSON-able plan holding only relative file paths.

The amount of work per kind is fixed; the seed changes content only, so
two seeds cost about the same and their figures can be compared.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import sys
import zlib
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import benign_pdf, malicious_pdf  # noqa: E402
from pdfbuild import assemble_pdf, pdf_with_objstm, stream_body  # noqa: E402

from pdfmlp.cli import main as pdfmlp_main  # noqa: E402
from pdfmlp.evaluate import score_dataset  # noqa: E402
from pdfmlp.features import extract_features  # noqa: E402
from pdfmlp.mlp import predict  # noqa: E402
from pdfmlp.pdf import parse_pdf  # noqa: E402
from pdfmlp.preprocess import read_features_csv, transform  # noqa: E402
from pdfmlp.store import load  # noqa: E402

N_FEATURES = 48
CSV_HEADER = ["path", "label"] + [f"f{i:02d}" for i in range(N_FEATURES)]

# sha256 of the feature CSV that `pdfmlp extract` writes for the canary
# tree (fixed seed, relative paths).  It pins the feature values across
# commits: the ROADMAP requires the feature CSV to stay byte-identical.
CANARY_SEED = 20261017
CANARY_SHA256 = "5b1649d1f534e98e4ee2e95ed084849f6575b4895dd8c12746e0d375ca91cab2"

# extract-corpus: (kind, label directory, count).  The small documents
# are most of the count; the tail holds most of the bytes and time.
EXTRACT_KINDS = (
    ("small-benign", "benign", 240),
    ("small-malicious", "malicious", 160),
    ("many-objects", "benign", 2),
    ("png-predictor", "benign", 2),
    ("objstm-hex-names", "malicious", 4),
    ("lying-length", "malicious", 6),
    ("broken-xref", "benign", 6),
    ("truncated", "malicious", 6),
    ("deep-nesting", "malicious", 4),
    ("flate-bomb", "malicious", 1),
)

# scan-inbox: distinct files (medium ones last), then the request list.
SCAN_SMALL_BENIGN = 162
SCAN_SMALL_MALICIOUS = 108
SCAN_MEDIUM = 30
SCAN_MULTI_REQUESTS = 100  # of 2..8 files; each file is also one request alone
SCAN_MODEL_DOCS = (120, 80)  # benign, malicious documents for the model
SCAN_MODEL_EPOCHS = 20

# train-eval
TRAIN_ROWS = 5000  # 4,000 fit + 1,000 validation rows at --val-frac 0.2
TEST_ROWS = 20000
TRAIN_EPOCHS = 20
TRAIN_ETA = 0.03  # at the default 0.01 every epoch improves the validation loss; here only some do

BOMB_INFLATED = 256 << 20


# -- tail builders -------------------------------------------------------------


def _text(rng: np.random.Generator, n: int) -> bytes:
    return rng.integers(97, 123, size=n).astype(np.uint8).tobytes()


def many_object_pdf(rng: np.random.Generator, pages: int = 400) -> bytes:
    """A page tree where every page has a font, a link annotation and content."""
    first = 3
    kids = " ".join(f"{first + 4 * i} 0 R" for i in range(pages))
    bodies = [
        b"<< /Type /Catalog /Pages 2 0 R /Names << /Dests 3 0 R >> >>",
        f"<< /Type /Pages /Kids [{kids}] /Count {pages} >>".encode(),
    ]
    for i in range(pages):
        page = first + 4 * i
        bodies.append(
            f"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            f"/Resources << /Font << /F1 {page + 1} 0 R >> >> "
            f"/Contents {page + 2} 0 R /Annots [{page + 3} 0 R] >>".encode()
        )
        bodies.append(b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>")
        lines = b"".join(
            b"BT /F1 10 Tf 72 " + str(700 - 12 * k).encode() + b" Td (" + _text(rng, 60) + b") Tj ET\n"
            for k in range(int(rng.integers(36, 44)))
        )
        bodies.append(stream_body(b"<< >>", lines))
        uri = b"http://example.org/" + _text(rng, 12)
        bodies.append(
            b"<< /Type /Annot /Subtype /Link /Rect [72 72 144 96] "
            b"/A << /Type /Action /S /URI /URI (" + uri + b") >> >>"
        )
    return assemble_pdf(bodies)


def png_predictor_pdf(
    rng: np.random.Generator, streams: int = 20, rows: int = 80, columns: int = 400
) -> bytes:
    """Flate image streams whose rows use PNG filter types 0-4."""
    bodies = [
        b"<< /Type /Catalog /Pages 2 0 R >>",
        b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] >>",
    ]
    for _ in range(streams):
        filtered = np.empty((rows, columns + 1), dtype=np.uint8)
        filtered[:, 0] = rng.integers(0, 5, size=rows)
        filtered[:, 1:] = rng.integers(0, 16, size=(rows, columns))
        params = f"/DecodeParms << /Predictor 12 /Colors 1 /BitsPerComponent 8 /Columns {columns} >>"
        bodies.append(
            stream_body(
                f"<< /Type /XObject /Subtype /Image /Width {columns} /Height {rows} "
                f"/Filter /FlateDecode {params} >>".encode(),
                zlib.compress(filtered.tobytes()),
            )
        )
    return assemble_pdf(bodies)


_HEX_NAMES = (
    b"/J#61vaScript",
    b"/#4As",
    b"/Open#41ction",
    b"/L#61unch",
    b"/#55RI",
    b"/Embedded#46ile",
    b"/#41A",
    b"/Submit#46orm",
)


def objstm_hex_pdf(rng: np.random.Generator, inner: int = 60) -> bytes:
    """An object stream whose dictionaries spell action names with #xx escapes."""
    objects = []
    for k in range(inner):
        a, b = rng.choice(len(_HEX_NAMES), size=2, replace=False)
        body = (
            b"<< /Type /Action /S " + _HEX_NAMES[a] + b" " + _HEX_NAMES[b]
            + b" (" + _text(rng, int(rng.integers(20, 80))) + b") >>"
        )
        objects.append((4 + k, body))
    return pdf_with_objstm(objects)


def _paged_bodies(rng: np.random.Generator, pages: int, lengths=None) -> list[bytes]:
    kids = " ".join(f"{3 + i} 0 R" for i in range(pages))
    bodies = [
        b"<< /Type /Catalog /Pages 2 0 R /OpenAction 3 0 R >>",
        f"<< /Type /Pages /Kids [{kids}] /Count {pages} >>".encode(),
    ]
    for i in range(pages):
        bodies.append(f"<< /Type /Page /Parent 2 0 R /Contents {3 + pages + i} 0 R >>".encode())
    for i in range(pages):
        data = b"BT (" + _text(rng, int(rng.integers(200, 600))) + b") Tj ET"
        length = None if lengths is None else lengths(len(data))
        bodies.append(stream_body(b"<< >>", data, length=length))
    return bodies


def lying_length_pdf(rng: np.random.Generator, pages: int = 12) -> bytes:
    """Every /Length is wrong: too long, too short or negative."""

    def lie(n: int) -> int:
        return int(rng.choice([n + int(rng.integers(7, 5000)), n // 3, -1]))

    return assemble_pdf(_paged_bodies(rng, pages, lie))


def broken_xref_pdf(rng: np.random.Generator, pages: int = 12) -> bytes:
    """Valid objects behind a cross-reference table of wrong offsets."""
    raw = bytearray(assemble_pdf(_paged_bodies(rng, pages)))
    xref_at = raw.rfind(b"\nxref\n") + 1
    pos = raw.index(b"\n", raw.index(b"\n", xref_at) + 1) + 1  # past "0 N" line
    while raw[pos : pos + 1].isdigit():
        raw[pos : pos + 10] = b"%010d" % int(rng.integers(0, len(raw) * 2))
        pos += 20
    start = raw.rfind(b"startxref\n") + len(b"startxref\n")
    end = raw.index(b"\n", start)
    raw[start:end] = str(int(rng.integers(0, xref_at))).encode()
    return bytes(raw)


def truncated_pdf(rng: np.random.Generator, pages: int = 16) -> bytes:
    """A valid document cut off between 30% and 90% of its length."""
    raw = assemble_pdf(_paged_bodies(rng, pages))
    return raw[: int(len(raw) * rng.uniform(0.3, 0.9))]


def deep_nesting_pdf(rng: np.random.Generator, depths=(20, 63, 65, 400)) -> bytes:
    """Objects nested past the parser's depth limit, with a script inside."""
    bodies = [
        b"<< /Type /Catalog /Pages 2 0 R /OpenAction 3 0 R >>",
        b"<< /Type /Pages /Kids [] /Count 0 >>",
        b"<< /S /JavaScript /JS (eval(unescape('%u9090'))) >>",
    ]
    for depth in depths:
        opens, closes = [], []
        for level in range(depth):
            if rng.random() < 0.5:
                opens.append(b"[ ")
                closes.append(b" ]")
            else:
                opens.append(b"<< /K" + str(level).encode() + b" ")
                closes.append(b" >>")
        bodies.append(b"".join(opens) + b"/JavaScript" + b"".join(reversed(closes)))
    return assemble_pdf(bodies)


def flate_pages_pdf(rng: np.random.Generator, pages: int = 30) -> bytes:
    """A medium multi-page document with Flate-compressed content streams."""
    kids = " ".join(f"{3 + i} 0 R" for i in range(pages))
    bodies = [
        b"<< /Type /Catalog /Pages 2 0 R >>",
        f"<< /Type /Pages /Kids [{kids}] /Count {pages} >>".encode(),
    ]
    for i in range(pages):
        bodies.append(f"<< /Type /Page /Parent 2 0 R /Contents {3 + pages + i} 0 R >>".encode())
    for i in range(pages):
        text = b" ".join(_text(rng, int(rng.integers(3, 10))) for _ in range(400))
        bodies.append(stream_body(b"<< /Filter /FlateDecode >>", zlib.compress(b"BT (" + text + b") Tj ET")))
    bodies.append(b"<< /Title (monthly statement) /Producer (pdfmlp bench) >>")
    return assemble_pdf(bodies, info=len(bodies))


def bomb_payload(cache_dir: Path) -> bytes:
    """Flate data (~260 KB) that inflates to 256 MiB of zeros, cached on disk."""
    path = cache_dir / "flate-bomb.zlib"
    if path.exists():
        return path.read_bytes()
    compressor = zlib.compressobj(6)
    chunk = bytes(1 << 20)
    parts = [compressor.compress(chunk) for _ in range(BOMB_INFLATED // len(chunk))]
    parts.append(compressor.flush())
    payload = b"".join(parts)
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)
    return payload


def flate_bomb_pdf(payload: bytes) -> bytes:
    return assemble_pdf(
        [
            b"<< /Type /Catalog /Pages 2 0 R >>",
            b"<< /Type /Pages /Kids [] /Count 0 >>",
            stream_body(b"<< /Filter /FlateDecode >>", payload),
        ]
    )


def build_document(kind: str, rng: np.random.Generator, cache_dir: Path) -> bytes:
    if kind == "small-benign":
        return benign_pdf(rng)
    if kind == "small-malicious":
        return malicious_pdf(rng)
    if kind == "flate-bomb":
        return flate_bomb_pdf(bomb_payload(cache_dir))
    return {
        "many-objects": many_object_pdf,
        "png-predictor": png_predictor_pdf,
        "objstm-hex-names": objstm_hex_pdf,
        "lying-length": lying_length_pdf,
        "broken-xref": broken_xref_pdf,
        "truncated": truncated_pdf,
        "deep-nesting": deep_nesting_pdf,
        "scan-medium": flate_pages_pdf,
    }[kind](rng)


# -- references ----------------------------------------------------------------


def _format_row(path: str, label: int, values) -> list[str]:
    return [path, str(label)] + [format(float(v), ".9g") for v in values]


def feature_csv_text(rows: list[list[str]]) -> str:
    """The feature CSV as `pdfmlp extract` documents it, assembled independently."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(sorted(rows, key=lambda r: r[0]))
    return out.getvalue()


def _library_features(path: Path) -> list[float]:
    raw = path.read_bytes()
    return list(extract_features(parse_pdf(raw), raw).values)


def _write_tree(workdir: Path, top: str, layout, rng, cache_dir: Path) -> tuple[list, dict]:
    """Write documents under workdir/top/<label dir>/; return rows and kind stats."""
    rows: list[list[str]] = []
    stats: dict[str, dict[str, int]] = {}
    for kind, label_dir, count in layout:
        directory = workdir / top / label_dir
        directory.mkdir(parents=True, exist_ok=True)
        for i in range(count):
            raw = build_document(kind, rng, cache_dir)
            rel = f"{top}/{label_dir}/{kind}-{i:04d}.pdf"
            (workdir / rel).write_bytes(raw)
            label = 1 if label_dir == "malicious" else 0
            rows.append(_format_row(rel, label, _library_features(workdir / rel)))
            entry = stats.setdefault(kind, {"docs": 0, "bytes": 0})
            entry["docs"] += 1
            entry["bytes"] += len(raw)
    return rows, stats


def _composition(stats: dict[str, dict[str, int]]) -> dict:
    docs = sum(s["docs"] for s in stats.values())
    total = sum(s["bytes"] for s in stats.values())
    return {
        "docs": docs,
        "bytes": total,
        "kinds": {
            kind: {
                "docs": s["docs"],
                "bytes": s["bytes"],
                "doc_share": s["docs"] / docs,
                "byte_share": s["bytes"] / total,
            }
            for kind, s in stats.items()
        },
    }


def canary_layout():
    heavy = ("many-objects", "flate-bomb")
    return [(kind, label_dir, 1) for kind, label_dir, _ in EXTRACT_KINDS if kind not in heavy] + [
        ("small-benign", "benign", 3),
        ("small-malicious", "malicious", 3),
    ]


def prepare_extract(workdir: Path, seed: int, cache_dir: Path) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    rows, stats = _write_tree(workdir, "corpus", EXTRACT_KINDS, rng, cache_dir)
    canary_rng = np.random.default_rng(CANARY_SEED)
    _write_tree(workdir, "canary", canary_layout(), canary_rng, cache_dir)
    text = feature_csv_text(rows)
    (workdir / "out").mkdir()
    return {
        "workload": "extract-corpus",
        "argv": ["extract", "--jobs", "1", "--benign", "corpus/benign",
                 "--malicious", "corpus/malicious", "--out", "out/features.csv"],
        "canary_argv": ["extract", "--jobs", "1", "--benign", "canary/benign",
                        "--malicious", "canary/malicious", "--out", "out/canary.csv"],
        "canary_sha256": CANARY_SHA256,
        "expected_csv": text,
        "sizes": {row[0]: (workdir / row[0]).stat().st_size for row in rows},
        "composition": _composition(stats),
    }


def _scan_tail(model, scaler, path: Path) -> tuple[str, str]:
    raw = path.read_bytes()
    probability, verdict = predict(model, transform(scaler, extract_features(parse_pdf(raw), raw)))
    return f"\t{probability:.4f}\t{verdict}\n", verdict


def prepare_scan(workdir: Path, seed: int, cache_dir: Path) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2,)))
    model_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(3,)))
    n_ben, n_mal = SCAN_MODEL_DOCS
    model_rows, _ = _write_tree(
        workdir, "model-corpus",
        (("small-benign", "benign", n_ben), ("small-malicious", "malicious", n_mal)),
        model_rng, cache_dir,
    )
    (workdir / "model-features.csv").write_text(feature_csv_text(model_rows))
    with redirect_stdout(io.StringIO()):
        code = pdfmlp_main(["train", "--features", str(workdir / "model-features.csv"),
                     "--out", str(workdir / "model.bin"), "--epochs", str(SCAN_MODEL_EPOCHS),
                     "--seed", str(seed)])
    if code != 0:
        raise RuntimeError(f"training the scan model failed with exit code {code}")
    model, scaler, _ = load(str(workdir / "model.bin"))

    layout = (
        ("small-benign", "inbox", SCAN_SMALL_BENIGN),
        ("small-malicious", "inbox", SCAN_SMALL_MALICIOUS),
        ("scan-medium", "inbox", SCAN_MEDIUM),
    )
    files, tails, verdicts, sizes = [], [], [], []
    stats: dict[str, dict[str, int]] = {}
    (workdir / "inbox").mkdir()
    for kind, _, count in layout:
        for i in range(count):
            raw = build_document(kind, rng, cache_dir)
            rel = f"inbox/{kind}-{i:04d}.pdf"
            (workdir / rel).write_bytes(raw)
            tail, verdict = _scan_tail(model, scaler, workdir / rel)
            files.append(rel)
            tails.append(tail)
            verdicts.append(verdict)
            sizes.append(len(raw))
            entry = stats.setdefault(kind, {"docs": 0, "bytes": 0})
            entry["docs"] += 1
            entry["bytes"] += len(raw)

    # Every file is once a request of its own, so the one-file requests,
    # among which the median latency falls, hold the seed's whole inbox and
    # not a random draw from it.  The multi-file requests have fixed widths
    # and a fixed share of medium picks, so that every seed asks for the
    # same work; the seed picks their files and the order of all requests.
    widths = [2 + i % 7 for i in range(SCAN_MULTI_REQUESTS)]
    medium_pick = np.zeros(sum(widths), dtype=bool)
    medium_pick[: round(len(medium_pick) * SCAN_MEDIUM / len(files))] = True
    rng.shuffle(medium_pick)
    small, medium = np.arange(len(files) - SCAN_MEDIUM), np.arange(len(files) - SCAN_MEDIUM, len(files))
    groups = [[i] for i in range(len(files))]
    at = 0
    for k in widths:
        n_medium = int(medium_pick[at : at + k].sum())
        at += k
        picks = [int(i) for i in np.concatenate(
            [rng.choice(medium, n_medium, replace=False), rng.choice(small, k - n_medium, replace=False)]
        )]
        rng.shuffle(picks)
        groups.append(picks)
    requests = []
    for g in rng.permutation(len(groups)):
        picks = groups[g]
        malicious = any(verdicts[i] == "malicious" for i in picks)
        requests.append({
            "files": picks,
            "stdout": "".join(files[i] + tails[i] for i in picks),
            "exit": 3 if malicious else 0,
        })
    return {
        "workload": "scan-inbox",
        "model": "model.bin",
        "files": files,
        "sizes": sizes,
        "requests": requests,
        "composition": _composition(stats),
    }


def synthetic_feature_rows(rng: np.random.Generator, n: int, prefix: str) -> list[list[str]]:
    """Rows with overlapping classes on varied scales (AUC well below 1)."""
    labels = (rng.random(n) < 0.4).astype(int)
    shift = np.zeros(N_FEATURES)
    shift[:24] = np.linspace(0.05, 0.3, 24)
    scales = 10.0 ** np.linspace(-1.0, 3.0, N_FEATURES)
    X = (rng.normal(size=(n, N_FEATURES)) + labels[:, None] * shift) * scales
    return [_format_row(f"{prefix}{i:06d}", int(labels[i]), X[i]) for i in range(n)]


def _rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC with average ranks for ties: an oracle for evaluate."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    pos = labels == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def train_eval_argv(seed: int) -> tuple[list[str], list[str]]:
    train = ["train", "--features", "train.csv", "--out", "out/model.bin",
             "--epochs", str(TRAIN_EPOCHS), "--eta", str(TRAIN_ETA), "--seed", str(seed)]
    evaluate = ["evaluate", "--features", "test.csv", "--model", "out/model.bin",
                "--out-dir", "out/eval"]
    return train, evaluate


def prepare_train_eval(workdir: Path, seed: int, cache_dir: Path) -> dict:
    """Write both CSVs and record the reference from one untimed CLI run.

    The reference run goes through the CLI because the model checksum
    has no independent oracle; evaluate's AUC is checked against a
    rank-based oracle computed from the reference model's scores.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(4,)))
    for name, n, prefix in (("train.csv", TRAIN_ROWS, "fit"), ("test.csv", TEST_ROWS, "test")):
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(synthetic_feature_rows(rng, n, prefix))
        (workdir / name).write_text(text.getvalue())

    train_argv, eval_argv = train_eval_argv(seed)
    os.makedirs(workdir / "out", exist_ok=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        stdout = []
        for argv in (train_argv, eval_argv):
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                code = pdfmlp_main(argv)
            if code != 0:
                raise RuntimeError(f"reference {argv[0]} failed with exit code {code}")
            stdout.append(buffer.getvalue())
    finally:
        os.chdir(cwd)

    model, scaler, _ = load(str(workdir / "out" / "model.bin"))
    test = read_features_csv(str(workdir / "test.csv"))
    scores = score_dataset(model, scaler, test)
    report = (workdir / "out" / "eval" / "report.txt").read_text()
    printed_auc = float(report.split("auc: ")[1].split()[0])
    oracle_auc = _rank_auc(scores, test.labels)

    val_losses = [float(line.split(",")[2]) for line in
                  (workdir / "out" / "model.bin.train.csv").read_text().splitlines()[1:]]
    improvements = sum(1 for i, v in enumerate(val_losses) if v < min(val_losses[:i], default=np.inf))
    sizes = {name: (workdir / name).stat().st_size for name in ("train.csv", "test.csv")}
    return {
        "workload": "train-eval",
        "train_stdout": stdout[0],
        "evaluate_stdout": stdout[1],
        "train_argv": train_argv,
        "evaluate_argv": eval_argv,
        "outputs": {name: file_sha256(workdir / "out" / "eval" / name)
                    for name in ("roc.csv", "sweep.csv", "report.txt")},
        "auc_oracle_ok": abs(printed_auc - oracle_auc) <= 1e-6,
        "auc": oracle_auc,
        "composition": {
            "train_rows": TRAIN_ROWS,
            "test_rows": TEST_ROWS,
            "epochs": TRAIN_EPOCHS,
            "bytes": sizes,
            "distinct_score_share": len(np.unique(scores)) / len(scores),
            "model_copies": 1 + improvements,
        },
    }


PREPARE = {
    "extract-corpus": prepare_extract,
    "scan-inbox": prepare_scan,
    "train-eval": prepare_train_eval,
}
