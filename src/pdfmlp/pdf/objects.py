"""Object model for parsed PDF documents."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Any, NamedTuple, Optional

# Byte classes of the PDF lexer, shared by the parser, the filters and the
# feature extractor.  Sorted bytes, so each serves as it is as a deletion
# table for bytes.translate and, through re.escape, as a regex class.
WHITESPACE = b"\x00\t\n\x0c\r "
HEX_DIGITS = b"0123456789ABCDEFabcdef"


class DiagnosticKind(str, Enum):
    BAD_XREF = "bad-xref"
    BAD_LENGTH = "bad-length"
    UNKNOWN_FILTER = "unknown-filter"
    DECODE_ERROR = "decode-error"
    DUPLICATE_OBJECT = "duplicate-object"
    GARBAGE_BYTES = "garbage-bytes"
    TRUNCATED = "truncated"


@dataclass(frozen=True)
class ParseDiagnostic:
    """One anomaly noticed while parsing; offset is a byte position in the input."""

    offset: int
    kind: DiagnosticKind
    detail: str = ""


class PdfName(str):
    """A PDF name with #xx escapes already resolved, e.g. PdfName("/JavaScript").

    Subclasses str so names compare and hash like plain strings.  The
    leading slash is part of the value.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PdfName({str.__repr__(self)})"


@dataclass(frozen=True)
class PdfString:
    """A PDF string: raw bytes plus how it was written ((...) or <...>)."""

    data: bytes
    hex: bool = False


@dataclass(frozen=True)
class PdfRef:
    """An indirect reference, "N G R"."""

    number: int
    generation: int


@dataclass
class PdfStream:
    """A stream object: its dictionary, the raw bytes, and the decode outcome.

    ``decoded`` is None iff at least one declared filter failed; the raw
    bytes are always kept.  ``span`` is the (start, end) byte extent of the
    raw data in the original file, or None for streams that were themselves
    unpacked from an object stream.
    """

    dictionary: dict[str, Any]
    raw: bytes
    decoded: Optional[bytes] = None
    span: Optional[tuple[int, int]] = None

    @property
    def data(self) -> bytes:
        """Decoded bytes when available, raw bytes otherwise."""
        return self.decoded if self.decoded is not None else self.raw


# A parsed PDF value: None, bool, int, float, PdfString, PdfName, list,
# dict (PdfName -> value), PdfStream or PdfRef.
PdfValue = Any


class _Graph(NamedTuple):  # see PdfDocument._graph
    names: Counter  # PdfName -> occurrences as a dict key or value
    depth: int  # deepest container level under an object, 0 if none
    scripts: list[PdfValue]  # /JS and /JavaScript values, unresolved
    streams: list[PdfStream]  # object values that are streams, in object order
    pages: int  # object values typed /Page
    trees: list[dict]  # object values typed /Pages, in object order


@dataclass
class PdfDocument:
    """Everything recovered from one byte input.

    Construction never fails: a hopeless input yields an empty object map
    and diagnostics rather than an exception.  Instances are not mutated
    after parse_pdf returns and can be shared freely across threads.
    """

    header_version: Optional[str] = None
    objects: dict[tuple[int, int], PdfValue] = field(default_factory=dict)
    trailer_dicts: list[dict] = field(default_factory=list)
    xref_section_count: int = 0
    startxref_offsets: list[int] = field(default_factory=list)
    eof_marker_offsets: list[int] = field(default_factory=list)
    total_size: int = 0
    diagnostics: list[ParseDiagnostic] = field(default_factory=list)

    def diagnostic_count(self, kind: DiagnosticKind) -> int:
        return sum(1 for d in self.diagnostics if d.kind is kind)

    @cached_property
    def _graph(self) -> _Graph:
        """Name counts, depth, scripts, streams and page census from one walk.

        Each dict and list is visited once.  An object value is at level 1, a
        child one below its container, a stream's dictionary one below the
        stream.  Trailers lie under the objects on the stack at level -inf: a
        container an object shares with a trailer (an /XRef stream dictionary)
        gets its object level, one reached only from a trailer no depth.  A
        container shared by two objects counts at its first visit, for the
        page census too; parse_pdf never builds one.  A name is counted where
        it lies, and only containers go on the stack.  Values are told apart
        by their exact types, the ones parse_pdf builds: a plain str is no
        name, though `in` finds a script under a plain str key, and a subclass
        of dict or list is no container.  Cached, as the document is not
        mutated after parse_pdf returns; two threads that ask at once may both
        walk, and store equal results.
        """
        names: list[PdfName] = []
        scripts: list[PdfValue] = []
        streams: list[PdfStream] = []
        trees: list[dict] = []
        depth = pages = 0
        seen: set[int] = set()
        # The trailers and the object values are containers one level above
        # what they hold; the object values are popped first.
        objects = list(self.objects.values())
        stack: list[tuple[Any, float]] = [(self.trailer_dicts, -math.inf), (objects, 0)]
        while stack:
            value, level = stack.pop()
            if id(value) in seen:
                continue
            seen.add(id(value))
            if level > depth:
                depth = level
            if type(value) is dict:
                names += [key for key in value if type(key) is PdfName]
                scripts += [value[key] for key in ("/JS", "/JavaScript") if key in value]
                if level == 1:  # an object value; they pop in reverse object order
                    pages += value.get("/Type") == "/Page"
                    if value.get("/Type") == "/Pages":
                        trees.append(value)
                value = value.values()
            level += 1
            for child in value:
                kind = type(child)
                if kind is PdfName:
                    names.append(child)
                elif kind is dict or kind is list:
                    stack.append((child, level))
                elif kind is PdfStream:
                    if level == 1:
                        streams.append(child)
                    if type(child.dictionary) in (dict, list):
                        stack.append((child.dictionary, level + 1))
        return _Graph(Counter(names), depth, scripts, streams, pages, trees[::-1])
