"""Shared fixtures: a small on-disk corpus of synthetic benign/malicious PDFs,
and the fuzzed documents that the parser and extractor tests walk."""

import time

import numpy as np
import pytest

from pdfmlp import parse_pdf

from pdfbuild import assemble_pdf, fuzzed_pdfs, stream_body


def benign_pdf(rng: np.random.Generator) -> bytes:
    pages = int(rng.integers(1, 4))
    kids = " ".join(f"{3 + i} 0 R" for i in range(pages))
    bodies = [
        b"<< /Type /Catalog /Pages 2 0 R >>",
        f"<< /Type /Pages /Kids [{kids}] /Count {pages} >>".encode(),
    ]
    for i in range(pages):
        bodies.append(f"<< /Type /Page /Parent 2 0 R /Contents {3 + pages + i} 0 R >>".encode())
    for i in range(pages):
        text = bytes(rng.integers(97, 123, size=int(rng.integers(20, 200))))
        bodies.append(stream_body(b"<< >>", b"BT (" + text + b") Tj ET"))
    info = None
    if rng.random() < 0.5:
        bodies.append(b"<< /Title (quarterly report) /Author (finance) >>")
        info = len(bodies)
    return assemble_pdf(bodies, info=info)


def malicious_pdf(rng: np.random.Generator) -> bytes:
    js = b"var p = unescape('%u9090%u9090'); eval(p); String.fromCharCode(144);"
    payload = b"(" + js + b")" if rng.random() < 0.5 else b"4 0 R"
    bodies = [
        b"<< /Type /Catalog /Pages 2 0 R /OpenAction 3 0 R >>",
        b"<< /Type /Pages /Kids [] /Count 0 >>",
        b"<< /S /JavaScript /JS " + payload + b" >>",
        stream_body(b"<< >>", js * int(rng.integers(1, 4))),
        b"<< /Type /Action /S /Launch /F (cmd.exe) >>",
    ]
    raw = assemble_pdf(bodies)
    if rng.random() < 0.4:
        # malicious files routinely lie about stream lengths
        raw = raw.replace(b"/Length ", b"/Length 9", 1)
    if rng.random() < 0.3:
        raw += b"%incremental junk " + bytes(rng.integers(0, 256, size=40))
    return raw


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    """Directories of synthetic PDFs: 24 benign, 16 malicious."""
    root = tmp_path_factory.mktemp("corpus")
    benign_dir = root / "benign"
    malicious_dir = root / "malicious"
    benign_dir.mkdir()
    malicious_dir.mkdir()
    rng = np.random.default_rng(20260810)
    for i in range(24):
        (benign_dir / f"b{i:02d}.pdf").write_bytes(benign_pdf(rng))
    for i in range(16):
        (malicious_dir / f"m{i:02d}.pdf").write_bytes(malicious_pdf(rng))
    return {"root": root, "benign": benign_dir, "malicious": malicious_dir}


@pytest.fixture(scope="session")
def fuzz_corpus():
    """10,000 fuzzed documents as (bytes, parse_pdf document, seconds to parse).

    Built and parsed once for the tests that walk them all; a document is
    not mutated after parse_pdf returns, so they can share it.
    """
    corpus = []
    for data in fuzzed_pdfs(10_000):
        started = time.perf_counter()
        doc = parse_pdf(data)
        corpus.append((data, doc, time.perf_counter() - started))
    return corpus
