"""Object model for parsed PDF documents."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Any, Optional

# Byte classes of the PDF lexer, shared by the parser, the filters and the
# feature extractor.
WHITESPACE = frozenset(b"\x00\t\n\x0c\r ")
HEX_DIGITS = frozenset(b"0123456789abcdefABCDEF")


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
    def decode_ok(self) -> bool:
        return self.decoded is not None

    @property
    def data(self) -> bytes:
        """Decoded bytes when available, raw bytes otherwise."""
        return self.decoded if self.decoded is not None else self.raw


# A parsed PDF value: None, bool, int, float, PdfString, PdfName, list,
# dict (PdfName -> value), PdfStream or PdfRef.
PdfValue = Any


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

    def iter_streams(self):
        """Yield every PdfStream held as an indirect object value."""
        for value in self.objects.values():
            if isinstance(value, PdfStream):
                yield value

    def diagnostic_count(self, kind: DiagnosticKind) -> int:
        return sum(1 for d in self.diagnostics if d.kind is kind)

    @cached_property
    def _name_counts(self) -> Counter:
        """How often each PdfName occurs as a dict key or value; a plain str key is no name.

        Walked once and cached, as the document is not mutated after parse_pdf
        returns; two threads that ask at once may both walk, and store equal counts.
        """
        names: list[PdfName] = []
        seen: set[int] = set()
        stack: list[Any] = [*self.trailer_dicts, *self.objects.values()]
        while stack:
            value = stack.pop()
            if isinstance(value, PdfName):
                names.append(value)
            elif isinstance(value, (dict, list)):
                if id(value) in seen:
                    continue
                seen.add(id(value))
                stack.extend(value)  # a dict's keys too
                if isinstance(value, dict):
                    stack.extend(value.values())
            elif isinstance(value, PdfStream):
                stack.append(value.dictionary)
        return Counter(names)
