"""Recovery-first PDF parser.

Malicious PDFs are malformed on purpose, so this parser never trusts the
cross-reference table and never raises: it scans the whole input linearly
for "N G obj" headers, recovers stream extents by searching for the
endstream keyword whenever /Length is wrong, unpacks object streams, and
records every anomaly as a ParseDiagnostic on the returned PdfDocument.

The trade-off is deliberate: a best-effort object graph with diagnostics
is far more useful for feature extraction than a strict parse that dies
on the first corrupt byte.
"""

from __future__ import annotations

import re
from typing import Any, Optional

from .filters import StreamDecodeError, UnknownFilterError, decode_stream
from .objects import (
    HEX_DIGITS,
    WHITESPACE,
    DiagnosticKind,
    ParseDiagnostic,
    PdfDocument,
    PdfName,
    PdfRef,
    PdfStream,
    PdfString,
)

__all__ = ["parse_pdf", "iter_name_occurrences", "MAX_NESTING_DEPTH"]

MAX_NESTING_DEPTH = 64

_REGULAR_END = bytes(sorted(WHITESPACE + b"()<>[]{}/%"))

# The whitespace class of the regexes below.
_WS = b"[" + re.escape(WHITESPACE) + b"]"
_OBJ_RE = re.compile(rb"(\d{1,10})" + _WS + rb"+(\d{1,5})" + _WS + rb"+obj(?![0-9A-Za-z])")
# Object headers and the structural markers in one alternation.  A header
# starts with a digit and a marker holds none, so matches never overlap.
# The markers' word boundaries are checked by the caller: a lookbehind here
# would stop the regex engine from searching for the literals.
_SCAN_RE = re.compile(_OBJ_RE.pattern + rb"|startxref|xref|trailer|%%EOF")
_HEADER_RE = re.compile(rb"%PDF-(\d+(?:\.\d+)?)")
# Whitespace and comments, which separate tokens; a comment runs from '%'
# to the end of its line.  Unrolled as W*(?:%C*W*)*, a turn per comment,
# and possessive, so that it keeps no regex frame per turn: one match takes
# any run in flat memory.
_SKIP = rb"%s*+(?:%%[^\r\n]*+%s*+)*+" % (_WS, _WS)
_SKIP_RE = re.compile(_SKIP)
# One cross-reference row, after the whitespace and comments before it.
_XREF_ENTRY_RE = re.compile(_SKIP + rb"(\d{10})" + _WS + rb"(\d{5})" + _WS + rb"([nf])")
# A literal-string byte taken as it is: all but '(', ')' and the backslash.
# Written as ranges, the class is one bitmap test per byte.
_PLAIN = rb"[\x00-\x27\x2a-\x5b\x5d-\xff]"
# A literal string's bytes up to its next parenthesis: plain bytes and
# backslash pairs, unrolled as P*(?:\\.P*)* and possessive, as above.
_STRING_RUN_RE = re.compile(rb"%s*+(?:\\.%s*+)*+" % (_PLAIN, _PLAIN), re.S)
# At most this many escapes a run, so that _resolve_escapes splits each run
# into a short list of pieces.
_MAX_TURNS = 1024
# A string's body, parentheses included, a bounded run of escapes at a time:
# a cut between two matches splits no escape.
_ESCAPED_RUN_RE = re.compile(rb"[^\\]*(?:\\.[^\\]*){0,%d}" % _MAX_TURNS, re.S)
# One escape: up to three octal digits, an EOL (a line continuation) or any byte.
_STRING_ESCAPE_RE = re.compile(rb"\\([0-7]{1,3}|\r\n?|.)", re.S)
# What an escape stands for: octal digits their value mod 256, a mapped letter
# its control byte and an EOL nothing; any other byte stands for itself.
_STRING_ESCAPES = {
    b"%0*o" % (width, v): bytes((v & 0xFF,)) for width in (1, 2, 3) for v in range(8**width)
} | {b"n": b"\n", b"r": b"\r", b"t": b"\t", b"b": b"\b", b"f": b"\f",
     b"\r": b"", b"\n": b"", b"\r\n": b""}
_NOT_HEX_DIGITS = bytes(range(256)).translate(None, HEX_DIGITS)
_NAME_ESCAPE_RE = re.compile(rb"#([%s]{2})" % HEX_DIGITS)
_UINT_RE = re.compile(_SKIP + rb"(\d{1,15})")
# What ends an object body: the whitespace and comments after its value, then
# its stream or endobj keyword, if one is there.
_OBJECT_END_RE = re.compile(_SKIP + rb"(stream|endobj)?")
# Number tokens longer than this are read as reals.  It is Python's default
# int-string limit, fixed here so the parse never raises on a long integer
# and does not depend on sys.set_int_max_str_digits.
_MAX_INT_DIGITS = 4300

# Keywords that terminate a value context instead of being values.
_STOP_KEYWORDS = frozenset(
    [b"endobj", b"endstream", b"obj", b"stream", b"trailer", b"startxref", b"xref"]
)
_CONSTANTS = {b"true": True, b"false": False, b"null": None}

# One token of the value grammar, after the whitespace and comments before
# it; the group that matched (lastindex) says which token it is.  A name is
# its '/' and the run of regular bytes after it; a number's first byte is a
# digit, '+', '-' or '.', and one that is no number is that byte alone.  An
# indirect reference "N G R" is one token, tried before the number: N is an
# unsigned integer short enough to be read as one, and G at most ten digits,
# each followed by whitespace only.  Its outer group closes last, so that it
# is lastindex and starts at the token's first byte.
_TOKEN_RE = re.compile(
    _SKIP
    + rb"(?:(/[^%s]*)" % re.escape(_REGULAR_END)
    + rb"|((\d{1,%d}+)%s++(\d{1,10}+)%s++R(?![0-9A-Za-z]))" % (_MAX_INT_DIGITS, _WS, _WS)
    + rb"|([+-]?(?:\d+(?:\.\d*)?|\.\d+))|(<<)|(>>)|(\[)|(\])|(\()|(<)|([A-Za-z]{1,32})|([+.-])|(.))",
    re.S,
)
_NAME, _REF = 1, 2  # the reference's number and generation are groups 3 and 4
_NUMBER, _DICT, _DICT_END, _ARRAY, _ARRAY_END, _LITERAL, _HEX, _KEYWORD, _LONE_SIGN = range(5, 14)


class _Truncated(Exception):
    pass


class _DepthExceeded(Exception):
    pass


class _StopKeyword(Exception):
    """A structural keyword was found where a value was expected."""


class _Terminator(Exception):
    """A stray ']' or '>>' was consumed in value position."""

    def __init__(self, which: bytes):
        self.which = which


def _name(token: bytes) -> PdfName:
    """The name a '/' token spells."""
    if b"#" in token:
        # '#' and two hex digits is one escaped byte; any other '#' is literal.
        token = _NAME_ESCAPE_RE.sub(lambda e: bytes((int(e.group(1), 16),)), token)
    return PdfName(token.decode("latin-1"))


def _resolve_escapes(data: bytes, start: int, end: int) -> bytes:
    """data[start:end], a literal string's body, with its escapes resolved."""
    out = bytearray()
    # A bounded run at a time keeps the list of pieces short.
    for run in _ESCAPED_RUN_RE.finditer(data, start, end):
        pieces = _STRING_ESCAPE_RE.split(run[0])  # text, escape, text, ..., text
        escapes = pieces[1::2]
        pieces[1::2] = map(_STRING_ESCAPES.get, escapes, escapes)
        out += b"".join(pieces)
    return bytes(out)


class _Scanner:
    """Cursor over the raw bytes with the token-level primitives."""

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def skip_ws(self) -> None:
        if self.pos < len(self.data):  # a match would clamp a position past the end
            self.pos = _SKIP_RE.match(self.data, self.pos).end()

    def starts_with(self, token: bytes) -> bool:
        return self.data.startswith(token, self.pos)

    def read_uint(self) -> Optional[int]:
        """The unsigned integer after the whitespace and comments at pos."""
        m = _UINT_RE.match(self.data, self.pos)
        if not m:
            return None
        self.pos = m.end()
        return int(m.group(1))

    # -- value parsing -----------------------------------------------------

    def _token(self) -> re.Match:
        """The next token; pos moves past it."""
        m = _TOKEN_RE.match(self.data, self.pos)
        if m is None:  # only whitespace and comments are left
            self.pos = len(self.data)
            raise _Truncated
        self.pos = m.end()
        return m

    def parse_value(self, depth: int) -> Any:
        if depth > MAX_NESTING_DEPTH:
            raise _DepthExceeded
        return self._value(self._token(), depth)

    def _value(self, m: re.Match, depth: int) -> Any:
        """The value that token m starts; tokens that are no value are skipped."""
        while True:
            kind = m.lastindex
            if kind == _NAME:
                return _name(m.group(kind))
            if kind == _REF:
                return PdfRef(int(m.group(3)), int(m.group(4)))
            if kind == _NUMBER:
                text = m.group(kind)
                if b"." in text or len(text) > _MAX_INT_DIGITS:
                    return float(text)  # accepts every number token; a huge one gives inf
                return int(text)
            if kind == _DICT:
                return self.parse_dict(depth + 1)
            if kind == _DICT_END:
                raise _Terminator(b">>")
            if kind == _ARRAY:
                return self.parse_array(depth + 1)
            if kind == _ARRAY_END:
                raise _Terminator(b"]")
            if kind == _LITERAL:
                self.pos = m.start(kind)
                return self.read_literal_string()
            if kind == _HEX:
                self.pos = m.start(kind)
                return self.read_hex_string()
            if kind == _KEYWORD:
                word = m.group(kind)
                if word in _STOP_KEYWORDS:
                    self.pos = m.start(kind)  # leave the keyword unconsumed
                    raise _StopKeyword
                if word in _CONSTANTS:
                    return _CONSTANTS[word]
            elif kind == _LONE_SIGN:
                return None
            # Another keyword, a lone '>' or an unparseable byte (braces,
            # stray delimiters, binary junk) is skipped.
            m = self._token()

    def parse_dict(self, depth: int) -> dict:
        """The dictionary whose '<<' ends at pos."""
        out: dict = {}
        while True:
            m = self._token()
            kind = m.lastindex
            if kind == _DICT_END:
                return out
            if kind == _NAME:
                key = _name(m.group(kind))
                if depth > MAX_NESTING_DEPTH:  # parse_value's check, past the key
                    raise _DepthExceeded
                m = self._token()
            else:
                # Junk where a key belongs is read as one value and dropped.
                key = None
                if depth > MAX_NESTING_DEPTH:  # parse_value's check, at the junk's first byte
                    self.pos = m.start(kind)
                    raise _DepthExceeded
            try:
                value = self._value(m, depth)
            except _Terminator as t:
                if t.which == b">>":
                    return out
                continue  # stray ']' consumed; drop the key
            if key is not None:
                out[key] = value

    def parse_array(self, depth: int) -> list:
        """The array whose '[' ends at pos."""
        out: list = []
        while True:
            m = self._token()
            kind = m.lastindex
            if kind == _ARRAY_END:
                return out
            if depth > MAX_NESTING_DEPTH:  # parse_value's check, at the element's first byte
                self.pos = m.start(kind)
                raise _DepthExceeded
            try:
                out.append(self._value(m, depth))
            except _Terminator as t:
                if t.which == b"]":
                    return out
                # Stray '>>' inside an array: consumed, keep going.

    def read_literal_string(self) -> PdfString:
        data = self.data
        start = pos = self.pos + 1  # past '('
        depth = 1
        while True:
            pos = _STRING_RUN_RE.match(data, pos).end()
            b = data[pos : pos + 1]
            if b == b"(":
                depth += 1
            elif b == b")":
                depth -= 1
                if depth == 0:
                    break
            else:  # the input ends, perhaps after a lone backslash
                self.pos = len(data)
                raise _Truncated
            pos += 1
        self.pos = pos + 1
        if data.find(b"\\", start, pos) == -1:
            return PdfString(data[start:pos], hex=False)
        return PdfString(_resolve_escapes(data, start, pos), hex=False)

    def read_hex_string(self) -> PdfString:
        end = self.data.find(b">", self.pos + 1)
        if end == -1:
            self.pos = len(self.data)
            raise _Truncated
        # whitespace and junk between the digits are dropped
        digits = self.data[self.pos + 1 : end].translate(None, _NOT_HEX_DIGITS)
        self.pos = end + 1
        if len(digits) % 2:
            digits += b"0"
        return PdfString(bytes.fromhex(digits.decode("ascii")), hex=True)


# The %PDF- header must start within this many bytes of the file's start, and
# a declared offset resolves only to a token that starts this close to it.
_WINDOW = 1024


def _probe(data: bytes, offset: int) -> Optional[int]:
    """Where the token at offset starts, past whitespace and comments.

    None when no token starts within _WINDOW bytes of offset.  A caller
    matches the token in place within _WINDOW bytes of its start, so a probe
    reads at most two windows however often an offset is declared.
    """
    end = min(offset + _WINDOW, len(data))
    start = _SKIP_RE.match(data, offset, end).end()
    return start if start < end else None


def _skip_eol(data: bytes, pos: int) -> int:
    """Position just past one EOL marker (CRLF, LF or CR) at pos, if there is one."""
    if data.startswith(b"\r\n", pos):
        return pos + 2
    if data[pos : pos + 1] in (b"\n", b"\r"):
        return pos + 1
    return pos


class _DocumentParser:
    """Fills one PdfDocument: _scan in file order, then _expand_object_streams."""

    def __init__(self, data: bytes):
        self.data = data
        self.doc = PdfDocument(total_size=len(data))
        # Where each top-level object's header starts, and the keyword of each
        # of doc.trailer_dicts, by which the trailers are put in file order.
        self.object_offsets: dict[tuple[int, int], int] = {}
        self.trailer_offsets: list[int] = []
        # The key of each header that _scan matched, by where it starts, if
        # the match fits in _WINDOW bytes: what an xref row's offset there finds.
        self.header_keys: dict[int, tuple[int, int]] = {}

    def diag(self, offset: int, kind: DiagnosticKind, detail: str = "") -> None:
        offset = max(0, min(offset, len(self.data)))
        self.doc.diagnostics.append(ParseDiagnostic(offset, kind, detail))

    # -- top level -----------------------------------------------------------

    def parse(self) -> PdfDocument:
        doc = self.doc
        if not self.data:
            self.diag(0, DiagnosticKind.TRUNCATED, "empty input")
            return doc
        doc.header_version = self._parse_header()
        self._scan()
        self._expand_object_streams()
        # An /XRef stream is both a trailer and a cross-reference section.
        for key, value in doc.objects.items():
            if isinstance(value, PdfStream) and value.dictionary.get("/Type") == "/XRef":
                self._add_trailer(self.object_offsets[key], value.dictionary)
                doc.xref_section_count += 1
        in_order = sorted(zip(self.trailer_offsets, doc.trailer_dicts), key=lambda pair: pair[0])
        doc.trailer_dicts[:] = [d for _, d in in_order]
        return doc

    def _define(self, key: tuple[int, int], value: Any, at: int, how: str) -> None:
        """Make value object key; a later definition wins, with one diagnostic at offset at."""
        if key in self.doc.objects:
            self.diag(at, DiagnosticKind.DUPLICATE_OBJECT, f"object {key[0]} {key[1]} redefined{how}")
        self.doc.objects[key] = value

    def _add_trailer(self, at: int, dictionary: dict) -> None:
        self.trailer_offsets.append(at)
        self.doc.trailer_dicts.append(dictionary)

    def _parse_header(self) -> Optional[str]:
        m = _HEADER_RE.search(self.data, 0, _WINDOW + 16)
        if m and m.start() < _WINDOW:
            return m.group(1).decode("ascii")
        self.diag(0, DiagnosticKind.GARBAGE_BYTES, "no %PDF- header in first 1024 bytes")
        return None

    # -- pass 1: one linear scan for objects and the xref/trailer markers -----

    def _scan(self) -> None:
        """Add every object, xref table, trailer, startxref and %%EOF to the document in file order.

        The search resumes after each parsed object and trailer dictionary,
        so an object body, stream payloads included, or a trailer is read
        only by its own parser; a marker inside belongs to it.
        """
        data, doc = self.data, self.doc
        pos = 0
        while (m := _SCAN_RE.search(data, pos)) is not None:
            at, pos = m.span()
            if m.group(1) is not None:
                key = (int(m.group(1)), int(m.group(2)))
                if pos - at <= _WINDOW:
                    self.header_keys[at] = key
                value, pos = self._parse_object_body(pos)
                self._define(key, value, at, "; keeping the later definition")
                self.object_offsets[key] = at
                continue
            word = m.group()
            if word == b"%%EOF":
                doc.eof_marker_offsets.append(at)
            elif data[at - 1 : at].isalpha() or data[pos : pos + 1].isalnum():
                continue  # the keyword is part of a longer word
            elif word == b"xref":
                doc.xref_section_count += 1
                pos = self._parse_xref_table(m)
            elif word == b"trailer":
                pos = self._parse_trailer(at)
            else:
                self._parse_startxref(m)

    def _parse_object_body(self, pos: int) -> tuple[Any, int]:
        data = self.data
        sc = _Scanner(data, pos)
        value = self._parse_value_tolerant(sc, pos)
        end = _OBJECT_END_RE.match(data, sc.pos)
        if end[1] == b"stream" and isinstance(value, dict):
            sc.pos = end.start(1)
            value = self._read_stream(sc, value)
            end = _OBJECT_END_RE.match(data, sc.pos)
        if end[1] == b"endobj":
            return value, end.end()
        # At a stray stream keyword, or else past the whitespace and comments.
        pos = end.start(1) if end[1] else end.end()
        if pos < len(data):
            self.diag(pos, DiagnosticKind.GARBAGE_BYTES, "expected endobj")
        return value, pos

    def _parse_value_tolerant(self, sc: _Scanner, at: int) -> Any:
        try:
            return sc.parse_value(0)
        except (_StopKeyword, _Terminator):
            return None
        except _Truncated:
            self.diag(len(self.data), DiagnosticKind.TRUNCATED, "object runs past end of input")
            return None
        except _DepthExceeded:
            self.diag(at, DiagnosticKind.GARBAGE_BYTES, f"nesting deeper than {MAX_NESTING_DEPTH}")
            recovery = self.data.find(b"endobj", sc.pos)
            sc.pos = recovery if recovery != -1 else len(self.data)
            return None

    def _read_stream(self, sc: _Scanner, dictionary: dict) -> PdfStream:
        data = self.data
        keyword_at = sc.pos
        start = _skip_eol(data, sc.pos + 6)  # past 'stream' and its EOL

        declared = dictionary.get("/Length")
        end: Optional[int] = None
        after: Optional[int] = None
        if type(declared) is int and declared >= 0 and start + declared <= len(data):
            follow = _skip_eol(data, start + declared)  # an EOL may precede endstream
            if data.startswith(b"endstream", follow):
                end = start + declared
                after = follow + 9
        if end is None:
            found = data.find(b"endstream", start)
            if found == -1:
                self.diag(keyword_at, DiagnosticKind.TRUNCATED, "stream without endstream")
                end = len(data)
                after = len(data)
            else:
                end = found
                # A single EOL before endstream belongs to the syntax, not the data.
                if data.endswith(b"\r\n", start, end):
                    end -= 2
                elif end > start and data[end - 1 : end] in (b"\n", b"\r"):
                    end -= 1
                after = found + 9
            if declared is None:
                self.diag(keyword_at, DiagnosticKind.BAD_LENGTH, "stream without /Length")
            elif type(declared) is not PdfRef:  # an indirect /Length is legal, and recovered silently
                self.diag(
                    keyword_at,
                    DiagnosticKind.BAD_LENGTH,
                    f"/Length {declared} is wrong; recovered {end - start} bytes",
                )
        sc.pos = after

        raw = data[start:end]
        decoded = self._decode(dictionary, raw, keyword_at)
        return PdfStream(dictionary=dictionary, raw=raw, decoded=decoded, span=(start, end))

    def _decode(self, dictionary: dict, raw: bytes, at: int) -> Optional[bytes]:
        filters = dictionary.get("/Filter")
        if filters is None:
            return raw
        if not (isinstance(filters, str) or isinstance(filters, list) and all(isinstance(f, str) for f in filters)):
            self.diag(at, DiagnosticKind.DECODE_ERROR, "unusable /Filter entry")
            return None
        params = dictionary.get("/DecodeParms", dictionary.get("/DP"))
        try:
            decoded = decode_stream(raw, filters, params)
        except UnknownFilterError as exc:
            self.diag(at, DiagnosticKind.UNKNOWN_FILTER, exc.filter_name)
            return None
        except StreamDecodeError as exc:
            self.diag(at, DiagnosticKind.DECODE_ERROR, str(exc))
            return None
        except Exception as exc:  # pragma: no cover - belt and braces
            self.diag(at, DiagnosticKind.DECODE_ERROR, f"unexpected: {exc}")
            return None
        return decoded

    # -- xref tables, trailers, startxref -------------------------------------

    def _parse_xref_table(self, m: re.Match) -> int:
        """Check the table after xref keyword m; resume past its trailer, else past m."""
        data = self.data
        sc = _Scanner(data, m.end())
        resume = m.end()
        mismatches = 0
        entries = 0
        while True:
            sc.skip_ws()
            if sc.starts_with(b"trailer"):
                resume = self._parse_trailer(sc.pos)
                break
            first = sc.read_uint()
            if first is None:
                self.diag(m.start(), DiagnosticKind.BAD_XREF, "cross-reference table without trailer")
                break
            count = sc.read_uint()
            if count is None:
                self.diag(m.start(), DiagnosticKind.BAD_XREF, "malformed subsection header")
                break
            count = min(count, max(0, (len(data) - sc.pos) // 18 + 1))
            for number in range(first, first + count):
                em = _XREF_ENTRY_RE.match(data, sc.pos)
                if em is None:
                    sc.skip_ws()
                    self.diag(sc.pos, DiagnosticKind.BAD_XREF, "malformed table entry")
                    break
                sc.pos = em.end()
                entries += 1
                if em.group(3) == b"n":
                    # An in-use row's offset must hold its object's header:
                    # one the scan matched there, or one matched in place.
                    offset, key = int(em.group(1)), (number, int(em.group(2)))
                    if self.header_keys.get(offset) != key:
                        at = _probe(data, offset)
                        om = at is not None and _OBJ_RE.match(data, at, at + _WINDOW)
                        if not (om and (int(om.group(1)), int(om.group(2))) == key):
                            mismatches += 1
            else:
                continue  # the next subsection
            break
        if mismatches:
            self.diag(
                m.start(),
                DiagnosticKind.BAD_XREF,
                f"{mismatches} of {entries} in-use entries do not point at their object",
            )
        return resume

    def _parse_trailer(self, keyword_at: int) -> int:
        """Add the dictionary after the keyword as a trailer; resume past it, else the keyword."""
        sc = _Scanner(self.data, keyword_at + 7)
        sc.skip_ws()
        if not sc.starts_with(b"<<"):
            self.diag(keyword_at, DiagnosticKind.BAD_XREF, "trailer without dictionary")
            return keyword_at + 7
        sc.pos += 2
        try:
            self._add_trailer(keyword_at, sc.parse_dict(1))
        except (_Truncated, _DepthExceeded, _StopKeyword, _Terminator):
            self.diag(keyword_at, DiagnosticKind.TRUNCATED, "unterminated trailer dictionary")
            return keyword_at + 7
        return sc.pos

    def _parse_startxref(self, m: re.Match) -> None:
        """Add the offset after a startxref keyword to the document, checked against the file."""
        data = self.data
        value = _Scanner(data, m.end()).read_uint()
        if value is None:
            self.diag(m.start(), DiagnosticKind.BAD_XREF, "startxref without offset")
            return
        self.doc.startxref_offsets.append(value)
        if value >= len(data):
            self.diag(m.start(), DiagnosticKind.BAD_XREF, f"startxref {value} is past end of file")
            return
        at = _probe(data, value)
        if at is None or not (data.startswith(b"xref", at) or data[at : at + 1].isdigit()):
            self.diag(
                m.start(),
                DiagnosticKind.BAD_XREF,
                f"startxref {value} does not point at cross-reference data",
            )

    # -- pass 2: object streams -----------------------------------------------

    def _expand_object_streams(self) -> None:
        containers = [
            (self.object_offsets[key], value)
            for key, value in self.doc.objects.items()
            if isinstance(value, PdfStream) and value.dictionary.get("/Type") == "/ObjStm"
        ]
        for at, stream in containers:
            if stream.decoded is None:
                continue  # the decode failure already has its diagnostic
            count = stream.dictionary.get("/N")
            first = stream.dictionary.get("/First")
            if (
                type(count) is not int  # a bool is an int subclass
                or type(first) is not int
                or count < 0
                or first < 0
                or first > len(stream.decoded)
            ):
                self.diag(at, DiagnosticKind.GARBAGE_BYTES, "malformed object stream header")
                continue
            pairs = self._objstm_pairs(stream.decoded[:first], min(count, 10_000), at)
            targets: set[int] = set()
            for number, rel in pairs:
                target = first + rel
                if target > len(stream.decoded):
                    self.diag(at, DiagnosticKind.GARBAGE_BYTES, "object stream offset out of range")
                    continue
                if target in targets:
                    # Each offset is parsed once, and no value is shared.
                    self.diag(at, DiagnosticKind.GARBAGE_BYTES, "object stream offset repeated")
                    continue
                targets.add(target)
                sc = _Scanner(stream.decoded, target)
                try:
                    value = sc.parse_value(0)
                except (_Truncated, _DepthExceeded, _StopKeyword, _Terminator):
                    self.diag(at, DiagnosticKind.GARBAGE_BYTES, "unparseable object inside object stream")
                    value = None
                self._define((number, 0), value, at, " by object stream")

    def _objstm_pairs(self, header: bytes, count: int, at: int) -> list[tuple[int, int]]:
        sc = _Scanner(header, 0)
        pairs: list[tuple[int, int]] = []
        for _ in range(count):
            number = sc.read_uint()
            rel = sc.read_uint()
            if number is None or rel is None:
                self.diag(at, DiagnosticKind.GARBAGE_BYTES, "short object stream index")
                break
            pairs.append((number, rel))
        return pairs


def parse_pdf(data: bytes) -> PdfDocument:
    """Parse any byte input into a PdfDocument.

    Total by contract: anomalies become diagnostics and hopeless inputs
    yield an empty document, never an exception.
    """
    try:
        return _DocumentParser(bytes(data)).parse()
    except Exception as exc:  # pragma: no cover - safety net, see fuzz tests
        return PdfDocument(
            total_size=len(data),
            diagnostics=[
                ParseDiagnostic(0, DiagnosticKind.GARBAGE_BYTES, f"internal parser error: {exc!r}")
            ],
        )


def iter_name_occurrences(doc: PdfDocument, name: str) -> int:
    """Count how often a canonical name appears as a dict key or value.

    The query may be written with or without the leading slash; names in
    the document were canonicalized (#xx escapes resolved) at parse time,
    so obfuscated spellings are already folded in.  Objects unpacked from
    object streams are part of the object map and therefore counted.  A
    query is a lookup into counts that one walk caches on the document.
    """
    target = name if name.startswith("/") else "/" + name
    return doc._graph.names[target]
