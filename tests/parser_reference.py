"""Former parser code, kept as oracles for the code that replaced it.

``FivePassParser`` is the former five-pass scan, the oracle for the
one-pass scan.  It runs one whole-file regex pass each for object
headers, ``xref`` tables and ``trailer`` dictionaries, parsing every one
it finds, then claims their extents in file order, skipping each that
starts inside one claimed before it, and then runs one pass each for
``startxref`` and ``%%EOF``.  A marker counts only when it lies outside
every claimed extent, found by binary search over them.  An xref table's
extent runs to the end of its trailer dictionary, so the table and its
trailer are one item.  The per-item parsers (object bodies, xref tables,
trailer dictionaries, object streams) and the tokenizer are the
library's own, so a test that compares the two isolates the scan.  The
item parsers add what they find to the parser's document; the oracle
takes each item's additions off it again, and builds its own document
from what it claims, with its own copy of the former /XRef stream loop.
Its startxref check probes the declared offset with ``probe``.

``PeekScanner`` is the former value grammar, the oracle for the one
that reads each token with one match: per token it skips whitespace and
comments, tests for the end of the data, peeks at the next byte and calls
a reader.  After an unsigned integer it matches ``_REF_TAIL_RE``, the
rest of an indirect reference, where the library reads a reference as
one token.  Its string readers and ``skip_ws`` are the library's own.

``read_name``, ``read_literal_string`` and ``read_hex_string`` are the
per-byte readers, the oracles for the ``_Scanner`` methods of the same
names; each returns the value (None where the input ends first) and the
position after it.  ``skip_ws`` is the per-byte skip of whitespace and
comments; it returns the position after them.  ``read_uint`` is that skip
and then the former integer read, the oracle for ``_Scanner.read_uint``,
which skips for itself; ``probe`` is the former ``_probe``, which sliced
the window out and skipped over the slice.  ``iter_name_occurrences``
is the recursive name walk, the oracle for the one walk that counts every
name.

``FormerXrefParser`` is the parser with its former cross-reference table
check, the oracle for the one that takes each row in one match and matches
each declared header in place: per row it skipped whitespace and comments,
matched the row, and matched an in-use row's object header in the window
that ``probe`` slices out at the row's offset.

``FormerDecodeParser`` is the parser with its former ``_decode``, which
checked each /Filter element while it copied the names into a list and
handed them to the former filter pairing, ``filters_reference.decode_stream``;
the oracle for the ``_decode`` that hands /Filter to ``decode_stream`` as it is.
"""

import re
from typing import Any, Optional

from pdfmlp.pdf.filters import StreamDecodeError, UnknownFilterError
from pdfmlp.pdf.objects import (
    HEX_DIGITS,
    WHITESPACE,
    DiagnosticKind,
    PdfDocument,
    PdfName,
    PdfRef,
    PdfStream,
    PdfString,
)
from pdfmlp.pdf.parser import (
    _MAX_INT_DIGITS,
    _NAME_ESCAPE_RE,
    _OBJ_RE,
    _REGULAR_END,
    _WINDOW,
    _WS,
    _STOP_KEYWORDS,
    MAX_NESTING_DEPTH,
    _DepthExceeded,
    _DocumentParser,
    _Scanner,
    _StopKeyword,
    _Terminator,
    _Truncated,
)

import filters_reference

# The byte each one-byte escape of a literal string stands for.
_STRING_ESCAPES = {
    0x6E: 0x0A,  # \n
    0x72: 0x0D,  # \r
    0x74: 0x09,  # \t
    0x62: 0x08,  # \b
    0x66: 0x0C,  # \f
    0x28: 0x28,  # \(
    0x29: 0x29,  # \)
    0x5C: 0x5C,  # \\
}

_XREF_RE = re.compile(rb"(?<![A-Za-z])xref(?![0-9A-Za-z])")
_TRAILER_RE = re.compile(rb"(?<![A-Za-z])trailer(?![0-9A-Za-z])")
_STARTXREF_RE = re.compile(rb"(?<![A-Za-z])startxref(?![0-9A-Za-z])")
_EOF_RE = re.compile(rb"%%EOF")
_XREF_ENTRY_RE = re.compile(rb"(\d{10})" + _WS + rb"(\d{5})" + _WS + rb"([nf])")
_REF_TAIL_RE = re.compile(_WS + rb"+(\d{1,10})" + _WS + rb"+R(?![0-9A-Za-z])")


class FormerDecodeParser(_DocumentParser):
    def _decode(self, dictionary: dict, raw: bytes, at: int) -> Optional[bytes]:
        filters = dictionary.get("/Filter")
        if filters is None:
            return raw
        if isinstance(filters, (PdfName, str)):
            filters = [filters]
        if not isinstance(filters, list):
            self.diag(at, DiagnosticKind.DECODE_ERROR, "unusable /Filter entry")
            return None
        names = []
        for f in filters:
            if not isinstance(f, (PdfName, str)):
                self.diag(at, DiagnosticKind.DECODE_ERROR, "unusable /Filter entry")
                return None
            names.append(str(f))
        params = dictionary.get("/DecodeParms", dictionary.get("/DP"))
        try:
            decoded = filters_reference.decode_stream(raw, names, params)
        except UnknownFilterError as exc:
            self.diag(at, DiagnosticKind.UNKNOWN_FILTER, exc.filter_name)
            return None
        except StreamDecodeError as exc:
            self.diag(at, DiagnosticKind.DECODE_ERROR, str(exc))
            return None
        return decoded


class FormerXrefParser(_DocumentParser):
    def _parse_xref_table(self, m: re.Match) -> int:
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
            broken = False
            for i in range(count):
                sc.skip_ws()
                em = _XREF_ENTRY_RE.match(data, sc.pos)
                if not em:
                    self.diag(sc.pos, DiagnosticKind.BAD_XREF, "malformed table entry")
                    broken = True
                    break
                sc.pos = em.end()
                entries += 1
                if em.group(3) == b"n" and not self._entry_resolves(
                    int(em.group(1)), first + i, int(em.group(2))
                ):
                    mismatches += 1
            if broken:
                break
        if mismatches:
            self.diag(
                m.start(),
                DiagnosticKind.BAD_XREF,
                f"{mismatches} of {entries} in-use entries do not point at their object",
            )
        return resume

    def _entry_resolves(self, offset: int, number: int, generation: int) -> bool:
        om = _OBJ_RE.match(probe(self.data, offset))
        return bool(om) and int(om.group(1)) == number and int(om.group(2)) == generation


class FivePassParser(_DocumentParser):
    def __init__(self, data: bytes):
        super().__init__(data)
        self.extents: list[tuple[int, int]] = []
        self.xref_section_count = 0

    def parse(self) -> PdfDocument:
        data = self.data
        diags = self.doc.diagnostics
        if not data:
            self.diag(0, DiagnosticKind.TRUNCATED, "empty input")
            return PdfDocument(total_size=0, diagnostics=diags)

        header_version = self._parse_header()
        trailer_dicts = self._claim(self._objects() + self._xref_tables() + self._trailers())
        startxref_offsets = self._scan_startxref()
        eof_offsets = [m.start() for m in _EOF_RE.finditer(data) if self._outside(m.start())]
        self._expand_object_streams()

        xref_streams = []
        for key, value in self.doc.objects.items():
            if isinstance(value, PdfStream) and value.dictionary.get("/Type") == "/XRef":
                xref_streams.append((self.object_offsets.get(key, 0), value.dictionary))
        all_trailers = sorted(trailer_dicts + xref_streams, key=lambda pair: pair[0])

        return PdfDocument(
            header_version=header_version,
            objects=self.doc.objects,
            trailer_dicts=[d for _, d in all_trailers],
            xref_section_count=self.xref_section_count + len(xref_streams),
            startxref_offsets=startxref_offsets,
            eof_marker_offsets=eof_offsets,
            total_size=len(data),
            diagnostics=diags,
        )

    def _parsed(self, parse):
        """parse()'s result, and the diagnostics and (offset, trailer) pairs it added.

        Those are taken off the parser's document, for _claim to keep or drop.
        """
        diags, trailers, offsets = self.doc.diagnostics, self.doc.trailer_dicts, self.trailer_offsets
        diag_mark, trailer_mark = len(diags), len(trailers)
        result = parse()
        made = diags[diag_mark:], list(zip(offsets[trailer_mark:], trailers[trailer_mark:]))
        del diags[diag_mark:], trailers[trailer_mark:], offsets[trailer_mark:]
        return result, made

    # Each pass below returns (start, end, diagnostics, kind, value) items;
    # an xref or trailer item's value is its (offset, trailer) pairs.

    def _objects(self) -> list:
        items = []
        for m in _OBJ_RE.finditer(self.data):
            key = (int(m.group(1)), int(m.group(2)))
            (value, end), (diags, _) = self._parsed(lambda: self._parse_object_body(m.end()))
            items.append((m.start(), end, diags, key, value))
        return items

    def _xref_tables(self) -> list:
        items = []
        for m in _XREF_RE.finditer(self.data):
            end, (diags, trailers) = self._parsed(lambda: self._parse_xref_table(m))
            items.append((m.start(), end, diags, "xref", trailers))
        return items

    def _trailers(self) -> list:
        items = []
        for m in _TRAILER_RE.finditer(self.data):
            end, (diags, trailers) = self._parsed(lambda: self._parse_trailer(m.start()))
            items.append((m.start(), end, diags, "trailer", trailers))
        return items

    def _claim(self, items: list) -> list[tuple[int, dict]]:
        """Keep the items in file order that start outside those kept; their trailers."""
        trailers: list[tuple[int, dict]] = []
        cursor = 0
        for start, end, diags, kind, value in sorted(items, key=lambda item: item[0]):
            if start < cursor:
                continue
            cursor = end
            self.extents.append((start, end))
            self.doc.diagnostics.extend(diags)
            if kind == "xref":
                self.xref_section_count += 1
            if isinstance(kind, str):
                trailers += value
                continue
            if kind in self.doc.objects:
                self.diag(
                    start,
                    DiagnosticKind.DUPLICATE_OBJECT,
                    f"object {kind[0]} {kind[1]} redefined; keeping the later definition",
                )
            self.doc.objects[kind] = value
            self.object_offsets[kind] = start
        return trailers

    def _outside(self, offset: int) -> bool:
        lo, hi = 0, len(self.extents)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.extents[mid][0] <= offset:
                lo = mid + 1
            else:
                hi = mid
        if lo == 0:
            return True
        return offset >= self.extents[lo - 1][1]

    def _scan_startxref(self) -> list[int]:
        offsets: list[int] = []
        data = self.data
        for m in _STARTXREF_RE.finditer(data):
            if not self._outside(m.start()):
                continue
            value = _Scanner(data, m.end()).read_uint()
            if value is None:
                self.diag(m.start(), DiagnosticKind.BAD_XREF, "startxref without offset")
                continue
            offsets.append(value)
            if value >= len(data):
                self.diag(m.start(), DiagnosticKind.BAD_XREF, f"startxref {value} is past end of file")
                continue
            target = probe(data, value)
            if not (target.startswith(b"xref") or target[:1].isdigit()):
                self.diag(
                    m.start(),
                    DiagnosticKind.BAD_XREF,
                    f"startxref {value} does not point at cross-reference data",
                )
        return offsets


def parse_pdf(data: bytes) -> PdfDocument:
    return FivePassParser(bytes(data)).parse()

_NAME_RE = re.compile(b"[^" + re.escape(bytes(sorted(_REGULAR_END))) + b"]*")
_NUMBER_RE = re.compile(rb"[+-]?(?:\d+(?:\.\d*)?|\.\d+)")
_KEYWORD_RE = re.compile(rb"[A-Za-z]{1,32}")
_SKIPPED = object()


class PeekScanner(_Scanner):
    """The former value grammar: skip_ws, at_end, peek and a reader per token.

    ``parse_dict`` starts at its '<<', where the library's starts past it.
    """

    def at_end(self) -> bool:
        return self.pos >= len(self.data)

    def peek(self) -> int:
        return self.data[self.pos] if self.pos < len(self.data) else -1

    def parse_value(self, depth: int) -> Any:
        if depth > MAX_NESTING_DEPTH:
            raise _DepthExceeded
        while True:
            self.skip_ws()
            if self.at_end():
                raise _Truncated
            b = self.peek()
            if b == 0x3C:  # '<'
                if self.data.startswith(b"<<", self.pos):
                    return self.parse_dict(depth + 1)
                return self.read_hex_string()
            if b == 0x3E:  # '>'
                if self.data.startswith(b">>", self.pos):
                    self.pos += 2
                    raise _Terminator(b">>")
                self.pos += 1
                continue
            if b == 0x5B:  # '['
                self.pos += 1
                return self.parse_array(depth + 1)
            if b == 0x5D:  # ']'
                self.pos += 1
                raise _Terminator(b"]")
            if b == 0x2F:  # '/'
                return self.read_name()
            if b == 0x28:  # '('
                return self.read_literal_string()
            if 0x30 <= b <= 0x39 or b in (0x2B, 0x2D, 0x2E):  # digit + - .
                return self.read_number()
            if (0x41 <= b <= 0x5A) or (0x61 <= b <= 0x7A):
                value = self.read_keyword()
                if value is not _SKIPPED:
                    return value
                continue
            # Unparseable byte (braces, stray delimiters, binary junk).
            self.pos += 1

    def parse_dict(self, depth: int) -> dict:
        self.pos += 2  # consume '<<'
        out: dict = {}
        while True:
            self.skip_ws()
            if self.at_end():
                raise _Truncated
            if self.data.startswith(b">>", self.pos):
                self.pos += 2
                return out
            # Junk where a key belongs is read as one value and dropped.
            key = self.read_name() if self.peek() == 0x2F else None
            try:
                value = self.parse_value(depth)
            except _Terminator as t:
                if t.which == b">>":
                    return out
                continue  # stray ']' consumed; drop the key
            if key is not None:
                out[key] = value

    def parse_array(self, depth: int) -> list:
        out: list = []
        while True:
            self.skip_ws()
            if self.at_end():
                raise _Truncated
            if self.peek() == 0x5D:
                self.pos += 1
                return out
            try:
                out.append(self.parse_value(depth))
            except _Terminator as t:
                if t.which == b"]":
                    return out
                # Stray '>>' inside an array: consumed, keep going.

    def read_number(self) -> Any:
        m = _NUMBER_RE.match(self.data, self.pos)
        if not m:
            self.pos += 1
            return None
        text = m.group()
        self.pos = m.end()
        if b"." in text or len(text) > _MAX_INT_DIGITS:
            return float(text)  # accepts every _NUMBER_RE match; a huge one gives inf
        value = int(text)
        if text[:1] not in (b"+", b"-"):
            tail = _REF_TAIL_RE.match(self.data, self.pos)
            if tail:
                self.pos = tail.end()
                return PdfRef(value, int(tail.group(1)))
        return value

    def read_keyword(self) -> Any:
        m = _KEYWORD_RE.match(self.data, self.pos)
        word = m.group()
        if word in _STOP_KEYWORDS:
            raise _StopKeyword  # leave the keyword unconsumed
        self.pos = m.end()
        if word == b"true":
            return True
        if word == b"false":
            return False
        if word == b"null":
            return None
        return _SKIPPED

    def read_name(self) -> PdfName:
        m = _NAME_RE.match(self.data, self.pos + 1)  # past '/'
        self.pos = m.end()
        raw = m.group()
        if b"#" in raw:
            # '#' and two hex digits is one escaped byte; any other '#' is literal.
            raw = _NAME_ESCAPE_RE.sub(lambda e: bytes((int(e.group(1), 16),)), raw)
        return PdfName("/" + raw.decode("latin-1"))



def skip_ws(data: bytes, pos: int) -> int:
    """The position after the whitespace and comments at pos, one byte per step."""
    n = len(data)
    while pos < n:
        b = data[pos]
        if b in WHITESPACE:
            pos += 1
        elif b == 0x25:  # '%' comment runs to end of line
            while pos < n and data[pos] not in (0x0D, 0x0A):
                pos += 1
        else:
            break
    return pos


_UINT_RE = re.compile(rb"\d{1,15}")


def read_uint(data: bytes, pos: int) -> tuple[Optional[int], int]:
    """The integer after the whitespace and comments at pos (None if no digit
    follows them), and the position after it, or after them if None."""
    pos = skip_ws(data, pos)
    m = _UINT_RE.match(data, pos)
    if not m:
        return None, pos
    return int(m.group()), m.end()


def probe(data: bytes, offset: int) -> bytes:
    """The bytes from the token at offset on; empty if none starts in the window."""
    window = data[offset : offset + _WINDOW]
    pos = skip_ws(window, 0)
    if pos >= len(window):
        return b""
    start = offset + pos
    return data[start : start + _WINDOW]


def read_name(data: bytes, pos: int) -> tuple[PdfName, int]:
    """The name whose '/' is at pos, and the position just past it."""
    pos += 1  # consume '/'
    n = len(data)
    raw = bytearray()
    while pos < n:
        b = data[pos]
        if b in _REGULAR_END:
            break
        if (
            b == 0x23  # '#xx' escape
            and pos + 2 < n
            and data[pos + 1] in HEX_DIGITS
            and data[pos + 2] in HEX_DIGITS
        ):
            raw.append(int(data[pos + 1 : pos + 3], 16))
            pos += 3
            continue
        raw.append(b)
        pos += 1
    return PdfName("/" + raw.decode("latin-1")), pos


def read_literal_string(data: bytes, pos: int) -> tuple[Optional[PdfString], int]:
    """The string whose '(' is at pos, and the position just past it."""
    pos += 1  # consume '('
    n = len(data)
    out = bytearray()
    depth = 1
    while pos < n:
        b = data[pos]
        if b == 0x5C:  # backslash
            pos += 1
            if pos >= n:
                break
            e = data[pos]
            mapped = _STRING_ESCAPES.get(e)
            if mapped is not None:
                out.append(mapped)
                pos += 1
            elif 0x30 <= e <= 0x37:  # octal, up to three digits
                octal = 0
                k = 0
                while k < 3 and pos < n and 0x30 <= data[pos] <= 0x37:
                    octal = octal * 8 + (data[pos] - 0x30)
                    pos += 1
                    k += 1
                out.append(octal & 0xFF)
            elif e in (0x0D, 0x0A):  # line continuation
                pos += 1
                if e == 0x0D and pos < n and data[pos] == 0x0A:
                    pos += 1
            else:
                out.append(e)
                pos += 1
        elif b == 0x28:  # '('
            depth += 1
            out.append(b)
            pos += 1
        elif b == 0x29:  # ')'
            depth -= 1
            pos += 1
            if depth == 0:
                return PdfString(bytes(out), hex=False), pos
            out.append(b)
        else:
            out.append(b)
            pos += 1
    return None, pos


def read_hex_string(data: bytes, pos: int) -> tuple[Optional[PdfString], int]:
    """The string whose '<' is at pos, and the position just past it."""
    pos += 1  # consume '<'
    n = len(data)
    digits = bytearray()
    while pos < n:
        b = data[pos]
        pos += 1
        if b == 0x3E:  # '>'
            if len(digits) % 2:
                digits.append(0x30)
            return PdfString(bytes.fromhex(digits.decode("ascii")), hex=True), pos
        if b in HEX_DIGITS:
            digits.append(b)
        # anything else (whitespace or junk) is skipped
    return None, pos


def iter_name_occurrences(doc: PdfDocument, name: str) -> int:
    target = name if name.startswith("/") else "/" + name
    seen: set[int] = set()
    count = 0

    def walk(value: Any) -> None:
        nonlocal count
        if isinstance(value, PdfName):
            if value == target:
                count += 1
        elif isinstance(value, dict):
            if id(value) in seen:
                return
            seen.add(id(value))
            for key, item in value.items():
                if isinstance(key, PdfName) and key == target:
                    count += 1
                walk(item)
        elif isinstance(value, list):
            if id(value) in seen:
                return
            seen.add(id(value))
            for item in value:
                walk(item)
        elif isinstance(value, PdfStream):
            walk(value.dictionary)

    for trailer in doc.trailer_dicts:
        walk(trailer)
    for obj in doc.objects.values():
        walk(obj)
    return count
