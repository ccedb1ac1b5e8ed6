"""The 48-feature static schema and its extractor.

Features fall into four categories: document structure, object
properties (auto-action and scripting keywords), content statistics
(entropy, stream/filter shape) and metadata, filled by five block
functions (content statistics takes two).  Every feature is a real
number; flags are 0/1.  Extraction is deterministic and total: a
degenerate document produces zeros, never an error.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

import numpy as np

from .pdf import (
    DiagnosticKind,
    PdfDocument,
    PdfRef,
    PdfStream,
    PdfString,
    canonical_filter_name,
    iter_name_occurrences,
)
from .pdf.objects import HEX_DIGITS

__all__ = [
    "SCHEMA_ID",
    "N_FEATURES",
    "FeatureDescriptor",
    "FeatureSchema",
    "FeatureVector",
    "describe_schema",
    "extract_features",
    "shannon_entropy",
]

SCHEMA_ID = "pdfmlp-v1"
N_FEATURES = 48

CATEGORIES = ("structure", "object-properties", "content-stats", "metadata")

# Tokens whose presence inside JavaScript payloads indicates obfuscation.
_OBFUSCATION_TOKENS = (b"eval", b"unescape", b"String.fromCharCode", b"charCodeAt")

# Maps every byte that is no hex digit to a space, so split() yields the hex runs.
_HEX_RUNS = bytes(b if b in HEX_DIGITS else 0x20 for b in range(256))

# Names counted by the object-properties block, in schema order; each entry
# sums its names, so the /GoToR-or-GoToE entry sums two.
_COUNTED_NAMES = (
    ("/JavaScript",),
    ("/JS",),
    ("/OpenAction",),
    ("/AA",),
    ("/Launch",),
    ("/EmbeddedFile",),
    ("/RichMedia",),
    ("/AcroForm",),
    ("/XFA",),
    ("/URI",),
    ("/GoToR", "/GoToE"),
    ("/ObjStm",),
    ("/Encrypt",),
    ("/Names",),
    ("/SubmitForm",),
    ("/Action",),
)


class FeatureDescriptor(NamedTuple):
    name: str
    category: str
    description: str
    unit: str


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered definition of what each of the 48 features means."""

    schema_id: str
    descriptors: tuple[FeatureDescriptor, ...]

    def __post_init__(self) -> None:
        if len(self.descriptors) != N_FEATURES:
            raise ValueError(f"schema must have {N_FEATURES} descriptors")
        names = [d.name for d in self.descriptors]
        if len(set(names)) != N_FEATURES:
            raise ValueError("descriptor names must be unique")

    def index_of(self, name: str) -> int:
        for i, d in enumerate(self.descriptors):
            if d.name == name:
                return i
        raise KeyError(name)

    def category_counts(self) -> dict[str, int]:
        counts = {c: 0 for c in CATEGORIES}
        for d in self.descriptors:
            counts[d.category] += 1
        return counts


@dataclass
class FeatureVector:
    """Exactly 48 finite real values in schema order."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (N_FEATURES,):
            raise ValueError(f"expected {N_FEATURES} values, got shape {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("feature values must be finite")

    def __getitem__(self, name: str) -> float:
        return float(self.values[describe_schema().index_of(name)])


def _d(name: str, category: str, description: str, unit: str = "count") -> FeatureDescriptor:
    return FeatureDescriptor(name, category, description, unit)


_DESCRIPTORS: tuple[FeatureDescriptor, ...] = (
    # structure (12)
    _d("file_size", "structure", "total input length", "bytes"),
    _d("header_version", "structure", "numeric PDF version from the %PDF- header, 0 if absent", "version"),
    _d("object_count", "structure", "indirect objects found, including ones unpacked from object streams"),
    _d("stream_count", "structure", "stream objects found"),
    _d("xref_section_count", "structure", "cross-reference tables and cross-reference stream objects"),
    _d("trailer_count", "structure", "trailer dictionaries (classic and cross-reference stream)"),
    _d("startxref_count", "structure", "startxref markers"),
    _d("eof_count", "structure", "%%EOF markers"),
    _d("bytes_after_last_eof", "structure", "bytes following the final %%EOF marker (whole file if none)", "bytes"),
    _d("max_nesting_depth", "structure", "deepest container nesting over all object values", "levels"),
    _d("duplicate_object_count", "structure", "object numbers defined more than once"),
    _d("diagnostic_count", "structure", "parser diagnostics of any kind"),
    # object-properties (16)
    _d("count_javascript", "object-properties", "/JavaScript name occurrences (escape-canonicalized)"),
    _d("count_js", "object-properties", "/JS name occurrences"),
    _d("count_openaction", "object-properties", "/OpenAction name occurrences"),
    _d("count_aa", "object-properties", "/AA additional-actions name occurrences"),
    _d("count_launch", "object-properties", "/Launch action name occurrences"),
    _d("count_embeddedfile", "object-properties", "/EmbeddedFile name occurrences"),
    _d("count_richmedia", "object-properties", "/RichMedia name occurrences"),
    _d("count_acroform", "object-properties", "/AcroForm name occurrences"),
    _d("count_xfa", "object-properties", "/XFA form name occurrences"),
    _d("count_uri", "object-properties", "/URI name occurrences"),
    _d("count_goto_remote", "object-properties", "/GoToR plus /GoToE remote-goto name occurrences"),
    _d("count_objstm", "object-properties", "/ObjStm name occurrences"),
    _d("count_encrypt", "object-properties", "/Encrypt name occurrences"),
    _d("count_names", "object-properties", "/Names name occurrences"),
    _d("count_submitform", "object-properties", "/SubmitForm name occurrences"),
    _d("count_action", "object-properties", "/Action name occurrences"),
    # content-stats (14)
    _d("entropy_file", "content-stats", "byte entropy of the whole file", "bits"),
    _d("entropy_streams", "content-stats", "byte entropy over all stream content (decoded when possible)", "bits"),
    _d("entropy_outside_streams", "content-stats", "byte entropy of the file outside raw stream extents", "bits"),
    _d("entropy_stream_max", "content-stats", "largest per-stream content entropy", "bits"),
    _d("stream_size_mean", "content-stats", "mean raw stream length", "bytes"),
    _d("stream_size_max", "content-stats", "largest raw stream length", "bytes"),
    _d("stream_file_ratio", "content-stats", "raw stream bytes over file bytes", "ratio"),
    _d("filter_flate_count", "content-stats", "FlateDecode filter applications declared"),
    _d("filter_ascii_count", "content-stats", "ASCIIHexDecode plus ASCII85Decode filter applications declared"),
    _d("filter_other_count", "content-stats", "declared filters other than Flate/ASCIIHex/ASCII85"),
    _d("filter_cascade_count", "content-stats", "streams declaring two or more filters"),
    _d("decode_failure_count", "content-stats", "streams whose declared filters failed to decode"),
    _d("metadata_hex_run_max", "content-stats", "longest hex-digit run inside Info dictionary string values", "chars"),
    _d("js_obfuscation_score", "content-stats", "eval/unescape/String.fromCharCode/charCodeAt tokens in JavaScript payloads"),
    # metadata (6)
    _d("page_count", "metadata", "objects typed /Page, or the root page tree /Count when none parse"),
    _d("info_present", "metadata", "an Info dictionary resolves from a trailer", "flag"),
    _d("info_total_bytes", "metadata", "total byte length of Info dictionary string values", "bytes"),
    _d("info_long_tag_count", "metadata", "Info string values longer than 256 bytes"),
    _d("xmp_present", "metadata", "an XMP metadata stream is present", "flag"),
    _d("js_present", "metadata", "any /JavaScript or /JS name occurs", "flag"),
)

_SCHEMA = FeatureSchema(schema_id=SCHEMA_ID, descriptors=_DESCRIPTORS)


def describe_schema() -> FeatureSchema:
    """Return the compiled-in feature schema (stable for a given build)."""
    return _SCHEMA


def shannon_entropy(data: bytes) -> float:
    """Byte entropy in bits per byte, in [0, 8]; empty input is 0."""
    return _entropy(_byte_counts(data), len(data))


# Bytes counted per np.bincount call, which widens its input to int64: 8 MiB
# of temporaries at most, whatever a stream decodes to.
_COUNT_CHUNK = 1 << 20


def _byte_counts(data: bytes) -> np.ndarray:
    """How often each of the 256 byte values occurs in ``data``."""
    view = np.frombuffer(data, dtype=np.uint8)
    counts = np.bincount(view[:_COUNT_CHUNK], minlength=256)
    for start in range(_COUNT_CHUNK, len(view), _COUNT_CHUNK):
        counts += np.bincount(view[start : start + _COUNT_CHUNK], minlength=256)
    return counts


def _entropy(counts: np.ndarray, total: int) -> float:
    """The entropy of byte counts that sum to total."""
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    # 0.0 - sum, not -sum: one repeated byte value sums to 0.0, and -0.0
    # would be written as "-0".
    return 0.0 - float(np.add.reduce(p * np.log2(p)))


def extract_features(doc: PdfDocument, raw: bytes) -> FeatureVector:
    """Map a parsed document plus its raw bytes to the 48-feature vector.

    The five block functions below fill the schema in order.  Each is looked
    up as a module global when it runs, so a wrapper set there sees every call.
    """
    streams = list(doc.iter_streams())
    info = _info_dict(doc)
    info_strings = _info_string_values(info)
    values = [
        *_structure(doc, streams),
        *_names(doc),
        *_entropies(raw, streams),
        *_sizes_and_filters(doc, streams, info_strings),
        *_metadata(doc, streams, info, info_strings),
    ]
    return FeatureVector(values=np.array(values, dtype=np.float64))


def _structure(doc: PdfDocument, streams: list[PdfStream]) -> list[float]:
    """Features 0-11: file_size through diagnostic_count."""
    return [
        doc.total_size,
        _version_number(doc.header_version),
        len(doc.objects),
        len(streams),
        doc.xref_section_count,
        len(doc.trailer_dicts),
        len(doc.startxref_offsets),
        len(doc.eof_marker_offsets),
        _bytes_after_last_eof(doc),
        doc._graph.depth,
        doc.diagnostic_count(DiagnosticKind.DUPLICATE_OBJECT),
        len(doc.diagnostics),
    ]


def _names(doc: PdfDocument) -> list[float]:
    """Features 12-27: the _COUNTED_NAMES occurrences."""
    return [sum(iter_name_occurrences(doc, n) for n in names) for names in _COUNTED_NAMES]


def _entropies(raw: bytes, streams: list[PdfStream]) -> list[float]:
    """Features 28-31: entropy_file through entropy_stream_max.

    Streams whose filters failed keep contributing their raw bytes; an
    undecodable payload is still content.
    """
    combined = np.zeros(256, dtype=np.int64)
    per_stream_max = 0.0
    for s in streams:
        counts = _byte_counts(s.data)
        combined += counts
        per_stream_max = max(per_stream_max, _entropy(counts, len(s.data)))
    gaps = []
    pos = 0
    for start, end in sorted(s.span for s in streams if s.span is not None):
        gaps.append(raw[pos:start])
        pos = max(pos, end)
    gaps.append(raw[pos:])
    combined_entropy = _entropy(combined, sum(len(s.data) for s in streams))
    return [shannon_entropy(raw), combined_entropy, shannon_entropy(b"".join(gaps)), per_stream_max]


def _sizes_and_filters(doc: PdfDocument, streams: list[PdfStream], info_strings: list[bytes]) -> list[float]:
    """Features 32-41: stream_size_mean through js_obfuscation_score."""
    raw_sizes = [len(s.raw) for s in streams]
    raw_total = sum(raw_sizes)
    kinds = {"FlateDecode": 0, "ASCIIHexDecode": 1, "ASCII85Decode": 1}  # any other name: 2
    filters = [0, 0, 0, 0]  # flate, ascii, other, cascade
    for s in streams:
        names = _declared_filters(doc, s)
        filters[3] += len(names) >= 2
        for name in names:
            filters[kinds.get(name, 2)] += 1
    return [
        raw_total / len(raw_sizes) if raw_sizes else 0.0,
        max(raw_sizes, default=0),
        raw_total / doc.total_size if doc.total_size else 0.0,
        *filters,
        sum(1 for s in streams if s.decoded is None),
        _longest_hex_run(info_strings),
        _obfuscation_score(doc),
    ]


def _metadata(doc: PdfDocument, streams: list[PdfStream], info: Optional[dict], info_strings: list[bytes]) -> list[float]:
    """Features 42-47: page_count through js_present."""
    roots = [_resolve(doc, t["/Root"]) for t in doc.trailer_dicts if "/Root" in t]
    return [
        _page_count(doc, roots[-1] if roots else None),
        float(info is not None),
        sum(len(s) for s in info_strings),
        sum(1 for s in info_strings if len(s) > 256),
        float(_has_xmp(doc, roots, streams)),
        float(doc._graph.names["/JavaScript"] + doc._graph.names["/JS"] > 0),
    ]


# -- helpers -------------------------------------------------------------


def _version_number(header_version: Optional[str]) -> float:
    if not header_version:
        return 0.0
    try:
        version = float(header_version)
    except ValueError:
        return 0.0
    return version if math.isfinite(version) else 0.0


def _bytes_after_last_eof(doc: PdfDocument) -> int:
    if not doc.eof_marker_offsets:
        return doc.total_size
    return max(0, doc.total_size - (max(doc.eof_marker_offsets) + 5))


def _declared_filters(doc: PdfDocument, stream: PdfStream) -> list[str]:
    filters = _resolve(doc, stream.dictionary.get("/Filter"))
    if not isinstance(filters, list):
        return [canonical_filter_name(filters)] if isinstance(filters, str) else []
    resolved = (_resolve(doc, f) for f in filters)
    return [canonical_filter_name(f) for f in resolved if isinstance(f, str)]


def _resolve(doc: PdfDocument, value: Any, depth: int = 8) -> Any:
    while isinstance(value, PdfRef) and depth > 0:
        value = doc.objects.get((value.number, value.generation))
        depth -= 1
    return None if isinstance(value, PdfRef) else value


def _obfuscation_score(doc: PdfDocument) -> int:
    """Obfuscation tokens in the /JS and /JavaScript payloads that are strings or streams."""
    score = 0
    for payload in doc._graph.scripts:
        payload = _resolve(doc, payload)
        if isinstance(payload, (PdfString, PdfStream)):
            score += sum(payload.data.count(tok) for tok in _OBFUSCATION_TOKENS)
    return score


def _page_count(doc: PdfDocument, root: Any) -> float:
    pages = 0
    trees = []
    for value in doc.objects.values():
        if isinstance(value, dict):
            kind = value.get("/Type")
            if kind == "/Page":
                pages += 1
            elif kind == "/Pages":
                trees.append(value)
    if pages:
        return float(pages)
    # Fall back to the declared /Count of the root page tree, then of any page tree.
    if isinstance(root, dict):
        trees.insert(0, _resolve(doc, root.get("/Pages")))
    for tree in trees:
        count = _resolve(doc, tree.get("/Count")) if isinstance(tree, dict) else None
        # a count that is no integer, or too large for a float, is skipped
        if type(count) is int and 0 <= count <= sys.float_info.max:
            return float(count)
    return 0.0


def _info_dict(doc: PdfDocument) -> Optional[dict]:
    found = None
    for trailer in doc.trailer_dicts:
        if "/Info" in trailer:
            candidate = _resolve(doc, trailer["/Info"])
            if isinstance(candidate, dict):
                found = candidate  # later trailers win
    return found


def _info_string_values(info: Optional[dict]) -> list[bytes]:
    if not info:
        return []
    return [v.data for v in info.values() if isinstance(v, PdfString)]


def _longest_hex_run(strings: list[bytes]) -> int:
    runs = (data.translate(_HEX_RUNS).split() for data in strings)
    return max((max(map(len, r), default=0) for r in runs), default=0)


def _has_xmp(doc: PdfDocument, roots: list[Any], streams: list[PdfStream]) -> bool:
    for root in roots:
        if isinstance(root, dict) and isinstance(_resolve(doc, root.get("/Metadata")), PdfStream):
            return True
    return any(s.dictionary.get("/Type") == "/Metadata" for s in streams)
