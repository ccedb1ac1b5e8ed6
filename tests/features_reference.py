"""Former feature-extractor code, kept as oracles for the code that replaced it.

``_nesting_depth`` is the recursive depth walk and ``_iter_dicts`` with
``_obfuscation_score`` the dict walk for the JavaScript payload score;
``PdfDocument._graph`` finds both, and the name counts, in one walk.
``graph_facts`` gives their results in its shape.  ``_longest_hex_run`` is
the per-byte scan that ``features._longest_hex_run`` replaced with a
translate table; it takes the Info dict, as the extractor's did before it
took the Info strings.

``extract_features`` is the extractor before its byte counts were made in
chunks of ``features._COUNT_CHUNK`` bytes and each of its inputs was built
once: a whole-buffer ``np.bincount`` per entropy input and per gap between
stream spans, the Info strings built twice, and each trailer's /Root
resolved by ``_page_count`` and ``_has_xmp`` apart.  Its helpers are
copied here; the unchanged ones come from ``pdfmlp.features``.
``_entropy_from_counts`` is the entropy before it took its total from the
byte length and summed with ``np.add.reduce``, and the mean stream size is
still ``np.mean``.  Its one change is the sign of a zero entropy: the
former code returned -0.0 for one repeated byte value, which the CSV wrote
as "-0".
"""

import sys
from typing import Any, Iterable, Optional

import numpy as np

from pdfmlp.features import (
    _NAME_COUNTS,
    _OBFUSCATION_TOKENS,
    N_FEATURES,
    _bytes_after_last_eof,
    _info_dict,
    _info_string_values,
    _resolve,
    _version_number,
)
from pdfmlp.pdf import (
    DiagnosticKind,
    PdfDocument,
    PdfName,
    PdfStream,
    PdfString,
    canonical_filter_name,
    iter_name_occurrences,
)
from pdfmlp.pdf.objects import HEX_DIGITS


def graph_facts(doc: PdfDocument) -> tuple[int, int]:
    depth = max((_nesting_depth(v) for v in doc.objects.values()), default=0)
    return depth, _obfuscation_score(doc)


def _nesting_depth(value: Any, depth: int = 0) -> int:
    if depth > 80:
        return depth
    if isinstance(value, dict):
        return 1 + max((_nesting_depth(v, depth + 1) for v in value.values()), default=0)
    if isinstance(value, list):
        return 1 + max((_nesting_depth(v, depth + 1) for v in value), default=0)
    if isinstance(value, PdfStream):
        return 1 + _nesting_depth(value.dictionary, depth + 1)
    return 0


def _iter_dicts(doc: PdfDocument) -> Iterable[dict]:
    seen: set[int] = set()
    stack: list[Any] = list(doc.trailer_dicts) + list(doc.objects.values())
    while stack:
        value = stack.pop()
        if isinstance(value, PdfStream):
            value = value.dictionary
        if isinstance(value, dict):
            if id(value) in seen:
                continue
            seen.add(id(value))
            yield value
            stack.extend(value.values())
        elif isinstance(value, list):
            if id(value) in seen:
                continue
            seen.add(id(value))
            stack.extend(value)


def _obfuscation_score(doc: PdfDocument) -> int:
    score = 0
    for d in _iter_dicts(doc):
        for key in ("/JS", "/JavaScript"):
            if key not in d:
                continue
            payload = _resolve(doc, d[key])
            if isinstance(payload, PdfString):
                data = payload.data
            elif isinstance(payload, PdfStream):
                data = payload.data
            else:
                continue
            score += sum(data.count(tok) for tok in _OBFUSCATION_TOKENS)
    return score


def _longest_hex_run(info: Optional[dict]) -> int:
    longest = 0
    for data in _info_string_values(info):
        run = 0
        for b in data:
            if b in HEX_DIGITS:
                run += 1
                if run > longest:
                    longest = run
            else:
                run = 0
    return longest


def extract_features(doc: PdfDocument, raw: bytes) -> np.ndarray:
    values = np.zeros(N_FEATURES, dtype=np.float64)
    streams = [v for v in doc.objects.values() if isinstance(v, PdfStream)]

    values[0] = doc.total_size
    values[1] = _version_number(doc.header_version)
    values[2] = len(doc.objects)
    values[3] = len(streams)
    values[4] = doc.xref_section_count
    values[5] = len(doc.trailer_dicts)
    values[6] = len(doc.startxref_offsets)
    values[7] = len(doc.eof_marker_offsets)
    values[8] = _bytes_after_last_eof(doc)
    values[9] = doc._graph.depth
    values[10] = doc.diagnostic_count(DiagnosticKind.DUPLICATE_OBJECT)
    values[11] = len(doc.diagnostics)

    for i, (_, _, names) in enumerate(_NAME_COUNTS):
        values[12 + i] = sum(iter_name_occurrences(doc, n) for n in names)

    values[28] = shannon_entropy(raw)
    values[29], values[31] = _stream_entropies(streams)
    values[30] = _entropy_outside_streams(raw, streams)
    raw_sizes = [len(s.raw) for s in streams]
    values[32] = float(np.mean(raw_sizes)) if raw_sizes else 0.0
    values[33] = max(raw_sizes, default=0)
    values[34] = (sum(raw_sizes) / doc.total_size) if doc.total_size else 0.0
    values[35:39] = _filter_counts(doc, streams)
    values[39] = sum(1 for s in streams if s.decoded is None)
    info = _info_dict(doc)
    values[40] = _longest_hex_run(info)
    values[41] = _obfuscation_score(doc)

    values[42] = _page_count(doc)
    values[43] = 1.0 if info is not None else 0.0
    info_strings = _info_string_values(info)
    values[44] = sum(len(s) for s in info_strings)
    values[45] = sum(1 for s in info_strings if len(s) > 256)
    values[46] = 1.0 if _has_xmp(doc) else 0.0
    values[47] = 1.0 if (values[12] > 0 or values[13] > 0) else 0.0
    return values


def _entropy_from_counts(counts: np.ndarray) -> float:
    total = int(counts.sum())
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return 0.0 - float(np.sum(p * np.log2(p)))


def shannon_entropy(data: bytes) -> float:
    if not data:
        return 0.0
    counts = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
    return _entropy_from_counts(counts)


def _stream_entropies(streams: list[PdfStream]) -> tuple[float, float]:
    combined = np.zeros(256, dtype=np.int64)
    per_stream_max = 0.0
    for s in streams:
        data = s.data
        if not data:
            continue
        counts = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
        combined += counts
        per_stream_max = max(per_stream_max, _entropy_from_counts(counts))
    return _entropy_from_counts(combined), per_stream_max


def _entropy_outside_streams(raw: bytes, streams: list[PdfStream]) -> float:
    spans = sorted(s.span for s in streams if s.span is not None)
    counts = np.zeros(256, dtype=np.int64)
    pos = 0
    for start, end in spans:
        start = max(start, pos)
        if start > pos:
            segment = raw[pos:start]
            counts += np.bincount(np.frombuffer(segment, dtype=np.uint8), minlength=256)
        pos = max(pos, end)
    if pos < len(raw):
        counts += np.bincount(np.frombuffer(raw[pos:], dtype=np.uint8), minlength=256)
    return _entropy_from_counts(counts)


def _declared_filters(doc: PdfDocument, stream: PdfStream) -> list[str]:
    filters = _resolve(doc, stream.dictionary.get("/Filter"))
    if filters is None:
        return []
    if isinstance(filters, (PdfName, str)):
        return [canonical_filter_name(filters)]
    if isinstance(filters, list):
        out = []
        for f in filters:
            f = _resolve(doc, f)
            if isinstance(f, (PdfName, str)):
                out.append(canonical_filter_name(f))
        return out
    return []


def _filter_counts(doc: PdfDocument, streams: list[PdfStream]) -> tuple[int, int, int, int]:
    flate = ascii_ = other = cascade = 0
    for s in streams:
        names = _declared_filters(doc, s)
        if len(names) >= 2:
            cascade += 1
        for name in names:
            if name == "FlateDecode":
                flate += 1
            elif name in ("ASCIIHexDecode", "ASCII85Decode"):
                ascii_ += 1
            else:
                other += 1
    return flate, ascii_, other, cascade


def _page_count(doc: PdfDocument) -> float:
    pages = 0
    for value in doc.objects.values():
        if isinstance(value, dict) and value.get("/Type") == "/Page":
            pages += 1
    if pages:
        return float(pages)
    root = None
    for trailer in doc.trailer_dicts:
        if "/Root" in trailer:
            root = _resolve(doc, trailer["/Root"])
    trees = [value for value in doc.objects.values()
             if isinstance(value, dict) and value.get("/Type") == "/Pages"]
    if isinstance(root, dict):
        trees.insert(0, _resolve(doc, root.get("/Pages")))
    for tree in trees:
        count = _resolve(doc, tree.get("/Count")) if isinstance(tree, dict) else None
        if isinstance(count, int) and 0 <= count <= sys.float_info.max:
            return float(count)
    return 0.0


def _has_xmp(doc: PdfDocument) -> bool:
    for trailer in doc.trailer_dicts:
        root = _resolve(doc, trailer.get("/Root"))
        if isinstance(root, dict):
            meta = _resolve(doc, root.get("/Metadata"))
            if isinstance(meta, PdfStream):
                return True
    for value in doc.objects.values():
        if isinstance(value, PdfStream) and value.dictionary.get("/Type") == "/Metadata":
            return True
    return False
