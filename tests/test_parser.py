"""Parser behavior: recovery, diagnostics, totality, name canonicalization."""

import dataclasses
import math
import sys
import zlib
from typing import Optional

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdfmlp.features import _NAME_COUNTS, extract_features
from pdfmlp.pdf import (
    MAX_NESTING_DEPTH,
    DiagnosticKind,
    ParseDiagnostic,
    PdfDocument,
    PdfName,
    PdfRef,
    PdfStream,
    PdfString,
    iter_name_occurrences,
    parse_pdf,
)
from pdfmlp.pdf.filters import _INFLATE_CHUNK, MAX_DECODED
from pdfmlp.pdf.objects import WHITESPACE
from pdfmlp.pdf.parser import (
    _MAX_TURNS,
    _DocumentParser,
    _Scanner,
    _Terminator,
    _Truncated,
    _probe,
)

from costs import best_time, quadrupling_ratios, traced_peak
from pdfbuild import (
    assemble_pdf,
    long_number_pdfs,
    minimal_pdf,
    pdf_with_objstm,
    pdf_with_stream,
    stream_body,
)
import parser_reference


def kinds(doc):
    return [d.kind for d in doc.diagnostics]


def test_minimal_pdf_parses_clean():
    raw = minimal_pdf()
    doc = parse_pdf(raw)
    assert len(doc.objects) == 3
    assert len(doc.trailer_dicts) == 1
    assert len(doc.eof_marker_offsets) == 1
    assert doc.xref_section_count == 1
    assert len(doc.startxref_offsets) == 1
    assert doc.diagnostics == []
    assert doc.header_version == "1.4"
    assert doc.total_size == len(raw)


def test_empty_input():
    doc = parse_pdf(b"")
    assert doc.objects == {}
    assert doc.header_version is None
    assert DiagnosticKind.TRUNCATED in kinds(doc)
    assert doc.total_size == 0


def test_wrong_length_recovered_by_endstream_scan():
    data = b"Q" * 44
    good = parse_pdf(pdf_with_stream(data))
    # 44 -> 54 keeps every byte offset identical, so only /Length is wrong.
    mutated = pdf_with_stream(data).replace(b"/Length 44", b"/Length 54")
    doc = parse_pdf(mutated)
    assert len(doc.objects) == len(good.objects)
    assert kinds(doc) == [DiagnosticKind.BAD_LENGTH]
    stream = doc.objects[(4, 0)]
    assert isinstance(stream, PdfStream)
    assert stream.raw == data


def test_stream_without_endstream_is_truncated():
    raw = b"%PDF-1.4\n1 0 obj\n<< /Length 5 >>\nstream\nhello"
    doc = parse_pdf(raw)
    assert DiagnosticKind.TRUNCATED in kinds(doc)
    assert isinstance(doc.objects[(1, 0)], PdfStream)


def test_indirect_length_recovers_without_diagnostic():
    body = b"<< /Length 5 0 R >>\nstream\npayload bytes\nendstream"
    raw = assemble_pdf(
        [
            b"<< /Type /Catalog /Pages 2 0 R >>",
            b"<< /Type /Pages /Kids [] /Count 0 >>",
            b"null",
            body,
            b"13",
        ]
    )
    doc = parse_pdf(raw)
    stream = doc.objects[(4, 0)]
    assert stream.raw == b"payload bytes"
    assert DiagnosticKind.BAD_LENGTH not in kinds(doc)


@pytest.mark.parametrize("payload", [b"x", b"xyz"])
@pytest.mark.parametrize("length", [b"true", b"false"])
def test_a_boolean_length_is_no_length(length, payload):
    # /Length true was read as 1: a 1-byte payload was taken with no diagnostic.
    data = b"1 0 obj << /Length %s >> stream\n%s\nendstream" % (length, payload)
    doc = parse_pdf(data)
    assert doc.objects[(1, 0)].raw == payload
    assert kinds(doc).count(DiagnosticKind.BAD_LENGTH) == 1


@pytest.mark.parametrize(
    "length, diagnostics",
    [(b"6", []), (b"9", [(DiagnosticKind.BAD_LENGTH, "/Length 9 is wrong; recovered 6 bytes")])],
    ids=["declared", "recovered"],
)
def test_a_crlf_after_stream_and_before_endstream_is_syntax(length, diagnostics):
    # The declared length is checked against the endstream after the CRLF; a
    # wrong one is recovered by the endstream scan, which drops the CRLF too.
    data = b"%%PDF-1.4\n1 0 obj << /Length %s >> stream\r\n\r\nabc\r\r\nendstream\r\nendobj" % length
    doc = parse_pdf(data)
    start = data.index(b"stream") + 8
    assert doc.objects[(1, 0)].raw == b"\r\nabc\r"
    assert doc.objects[(1, 0)].span == (start, start + 6)
    assert doc.diagnostics == [ParseDiagnostic(data.index(b"stream"), *d) for d in diagnostics]


@pytest.mark.parametrize("length", [b"3.0", b"/Three", b"(3)", b"[3]"])
def test_a_direct_length_that_is_no_integer_is_a_bad_length(length):
    # Such a /Length was recovered by scanning with no diagnostic, as if indirect.
    data = b"1 0 obj << /Length %s >> stream\nxyz\nendstream endobj" % length
    doc = parse_pdf(data)
    assert doc.objects[(1, 0)].raw == b"xyz"
    assert kinds(doc).count(DiagnosticKind.BAD_LENGTH) == 1


def test_duplicate_object_last_definition_wins():
    raw = (
        b"%PDF-1.4\n"
        b"1 0 obj\n<< /V 1 >>\nendobj\n"
        b"1 0 obj\n<< /V 2 >>\nendobj\n"
        b"%%EOF\n"
    )
    doc = parse_pdf(raw)
    assert doc.objects[(1, 0)]["/V"] == 2
    assert DiagnosticKind.DUPLICATE_OBJECT in kinds(doc)


def test_broken_xref_gets_diagnostic_but_objects_survive():
    raw = minimal_pdf().replace(b"0000000058", b"0000000999")
    doc = parse_pdf(raw)
    assert len(doc.objects) == 3
    assert DiagnosticKind.BAD_XREF in kinds(doc)


def test_startxref_pointing_nowhere():
    raw = minimal_pdf()
    xref_at = raw.rfind(b"startxref")
    value = int(raw[xref_at + 9 :].split()[0])
    mutated = raw.replace(str(value).encode(), b"9" * len(str(value)), 1)
    doc = parse_pdf(mutated)
    assert DiagnosticKind.BAD_XREF in kinds(doc)


_RUN = 100_000  # spaces between the header and what the offsets declare


def _xref_entries(offsets) -> bytes:
    """A table of in-use entries at offsets, after _RUN spaces and one object."""
    entries = b"".join(b"%010d 00000 n \n" % offset for offset in offsets)
    body = b"1 0 obj\n<< >>\nendobj\nxref\n1 %d\n" % len(offsets) + entries
    return b"%PDF-1.4\n" + b" " * _RUN + body


def _startxrefs(offsets) -> bytes:
    return b"%PDF-1.4\n" + b" " * _RUN + b"".join(b"startxref\n%d\n" % o for o in offsets)


@pytest.mark.parametrize(
    "build, detail",
    [
        (lambda: _xref_entries([9] * 5000), "5000 of 5000 in-use entries do not point at their object"),
        (lambda: _xref_entries(range(9, 5009)), "5000 of 5000 in-use entries do not point at their object"),
        (lambda: _startxrefs([9] * 5000), "startxref 9 does not point at cross-reference data"),
        (lambda: _startxrefs(range(9, 5009)), "startxref 5008 does not point at cross-reference data"),
    ],
    ids=["xref-same-offset", "xref-distinct-offsets", "startxref-same-offset", "startxref-distinct-offsets"],
)
def test_declared_offsets_in_a_long_whitespace_run_are_probed_in_bounded_time(build, detail):
    # Each entry or startxref skipped the whole run after its offset: ~1.0-1.3 s
    # here, now ~0.05 s (2-core VM, Python 3.11).  A probe skips within the
    # 1,024 bytes at the offset, and the object or table lies past them.
    data = build()
    assert best_time(lambda: parse_pdf(data), runs=3) < 0.2
    assert detail in [d.detail for d in parse_pdf(data).diagnostics]


@pytest.mark.parametrize("gap, resolves", [(1023, True), (1024, False)])
def test_declared_offset_resolves_to_a_token_inside_the_probe_window(gap, resolves):
    # A token resolves when it starts within 1,024 bytes of its offset, as the
    # %PDF- header must start within the first 1,024 bytes.  The xref entry
    # and startxref both declare offset 9, where the gap starts.
    data = (
        b"%PDF-1.4\n" + b" " * gap + b"1 0 obj\n<< >>\nendobj\n"
        + b"xref\n1 1\n0000000009 00000 n \ntrailer\n<< /Size 2 >>\nstartxref\n9\n"
    )
    doc = parse_pdf(data)
    assert doc.objects == {(1, 0): {}}
    expected = [] if resolves else [
        "1 of 1 in-use entries do not point at their object",
        "startxref 9 does not point at cross-reference data",
    ]
    assert [d.detail for d in doc.diagnostics] == expected


def test_header_only_within_first_kilobyte():
    raw = b" " * 2000 + b"%PDF-1.7\n1 0 obj\nnull\nendobj\n"
    doc = parse_pdf(raw)
    assert doc.header_version is None
    assert DiagnosticKind.GARBAGE_BYTES in kinds(doc)


def test_value_types_roundtrip():
    raw = assemble_pdf(
        [
            b"<< /Type /Catalog /Pages 2 0 R >>",
            b"<< /Type /Pages /Kids [] /Count 0 >>",
            b"<< /B true /N null /I -42 /R 3.5 /S (lit\\)eral) /H <4869> "
            b"/A [1 2 [3]] /Ref 1 0 R >>",
        ]
    )
    doc = parse_pdf(raw)
    d = doc.objects[(3, 0)]
    assert d["/B"] is True
    assert d["/N"] is None
    assert d["/I"] == -42
    assert d["/R"] == 3.5
    assert d["/S"] == PdfString(b"lit)eral", hex=False)
    assert d["/H"] == PdfString(b"Hi", hex=True)
    assert d["/A"] == [1, 2, [3]]
    assert d["/Ref"] == PdfRef(1, 0)
    assert doc.diagnostics == []


def test_overlong_integer_is_read_as_a_real():
    doc = parse_pdf(long_number_pdfs()["long-integer.pdf"])
    assert len(doc.objects) == 3
    assert doc.objects[(3, 0)]["/Pad"] == float("inf")
    assert iter_name_occurrences(doc, "/JavaScript") == 1
    assert iter_name_occurrences(doc, "/OpenAction") == 1


def test_integer_token_length_rule():
    at_limit = b"1" * 4300
    doc = parse_pdf(assemble_pdf([b"[" + at_limit + b" -" + at_limit[1:] + b" " + at_limit + b"1]"]))
    small, negative, over = doc.objects[(1, 0)]
    assert small == int(at_limit)
    assert negative == -int(at_limit[1:])
    assert isinstance(over, float) and over == float(at_limit + b"1")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-string limit")
def test_long_integers_parse_the_same_without_the_int_string_limit():
    raw = long_number_pdfs()["long-integer.pdf"]
    limited = parse_pdf(raw)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        unlimited = parse_pdf(raw)
    finally:
        sys.set_int_max_str_digits(previous)
    assert unlimited.objects == limited.objects
    assert unlimited.diagnostics == limited.diagnostics


def test_string_escapes():
    raw = b"1 0 obj\n<< /S (a\\164b\\n\\(c\\nd) >>\nendobj"
    doc = parse_pdf(raw)
    assert doc.objects[(1, 0)]["/S"].data == b"atb\n(c\nd"


@pytest.mark.parametrize(
    "body",
    [b"a\\\r\nb)", b"a\\\rb)", b"a\\\nb)", b"\\\n\\\r\n\\\r)", b"\\377\\400\\4000\\08)",
     b"\\n\\r\\t\\b\\f\\(\\)\\\\\\x)", b"(a\\)b)c)", b"\\", b"a(b\\", b"\\)", b"\\\x00\\\xff)",
     # Escapes are resolved at most _MAX_TURNS a run, so these are resolved
     # over several runs.
     pytest.param(b"\\a" * _MAX_TURNS + b")", id="at-bound"),
     pytest.param(b"\\a" * (_MAX_TURNS + 1) + b")", id="past-bound"),
     pytest.param(b"\\\\" * (3 * _MAX_TURNS) + b")", id="escaped-backslashes"),
     pytest.param((b"\\101(" + b"\\\r\n" * 700 + b"x\\\r)") * 3 + b")", id="octal-eol-parens"),
     pytest.param(b"(" + b"\\377" * (2 * _MAX_TURNS + 5) + b"\\", id="lone-backslash"),
     pytest.param(b"\\" * (2 * _MAX_TURNS + 1), id="odd-backslashes")],
)
def test_literal_string_escape_forms_match_per_byte_reader(body):
    # Each form of escape and each way to end, so that no form is left to the
    # draw of the property test below.
    data = b"(" + body
    assert read_string(data) == parser_reference.read_literal_string(data, 0)


_STRING_PIECES = st.one_of(
    st.binary(max_size=6),
    st.sampled_from([b"(", b")", b"\\", b">", b"<", b"\r\n", b" ", b"0", b"a", b"F", b"g"]),
    # an escape: the backslash, then a mapped byte, octal digits, an EOL or another byte
    st.sampled_from([b"n", b"r", b"t", b"b", b"f", b"(", b")", b"\\", b"\r", b"\n", b"\r\n",
                     b"0", b"7", b"12", b"377", b"4000", b"8", b"x", b""]).map(lambda e: b"\\" + e),
)


def read_string(data):
    """The string the scanner reads at 0 (None if the input ends first) and its end."""
    sc = _Scanner(data, 0)
    try:
        value = sc.read_literal_string() if data[:1] == b"(" else sc.read_hex_string()
    except _Truncated:
        value = None
    return value, sc.pos


@given(st.sampled_from([b"(", b"<"]), st.lists(_STRING_PIECES, max_size=16).map(b"".join))
@settings(max_examples=600, deadline=None)
def test_string_readers_match_per_byte_readers(opening, body):
    data = opening + body
    reference = (
        parser_reference.read_literal_string if opening == b"(" else parser_reference.read_hex_string
    )
    assert read_string(data) == reference(data, 0)


_MIB = 1 << 20


def test_long_literal_string_is_read_in_bounded_time():
    # One regex match reads the body up to its closing parenthesis and one
    # slice copies it: ~3 ms on this MiB, where the former per-byte reader
    # took 100-200 ms (2-core VM, Python 3.11).
    data = b"(" + b"var x = 'abc'; y = 2; " * (_MIB // 22) + b")"
    assert read_string(data)[1] == len(data)
    assert best_time(lambda: read_string(data)) < 0.02


def test_long_unterminated_escaped_literal_is_read_in_bounded_time():
    # Backslash pairs are part of the one regex match that runs to the end
    # of the input, and an unterminated string resolves no escape: ~8-25 ms
    # on this MiB, where a loop turn per escape took ~0.26-0.55 s (2-core
    # VM, Python 3.11).
    data = b"(" + b"a\\b" * (_MIB // 3)
    assert read_string(data) == (None, len(data))
    assert best_time(lambda: read_string(data)) < 0.08


@pytest.mark.parametrize("closing, bound", [(b"", _MIB), (b")", 2 * _MIB)], ids=["open", "closed"])
def test_escaped_literal_is_read_in_flat_memory(closing, bound):
    # One possessive match takes every escape and keeps no regex frame per
    # escape: ~1.3 KiB traced here unterminated (~78 MiB with a repeat that
    # keeps a frame per turn).  A closed string resolves its escapes a bounded
    # run at a time, so the output and its copy are what it holds: ~1.1 MiB
    # (~62 MiB with one substitution over the body).
    data = b"(" + b"\\a" * (_MIB // 2) + closing
    (value, end), peak = traced_peak(lambda: read_string(data))
    assert end == len(data)
    assert value == (PdfString(b"a" * (_MIB // 2), hex=False) if closing else None)
    assert peak < bound


def test_long_hex_string_is_read_in_bounded_time():
    # One find for '>' and one translate: ~2.5 ms, where per byte it took
    # 100-160 ms (2-core VM, Python 3.11).
    data = b"<" + b"6576616c 0a" * (_MIB // 11) + b">"
    assert read_string(data)[1] == len(data)
    assert best_time(lambda: read_string(data)) < 0.016


@given(
    st.lists(st.sampled_from([b" ", b"\x00", b"\t", b"\x0c", b"\r", b"\n", b"%", b"%%EOF", b"x", b"1"]),
             max_size=20).map(b"".join),
    st.integers(0, 20),
)
@settings(max_examples=600, deadline=None)
def test_skip_ws_matches_per_byte_skip(data, pos):
    sc = _Scanner(data, pos)
    sc.skip_ws()
    assert sc.pos == parser_reference.skip_ws(data, pos)


# Whitespace, comments, EOLs, digits and junk, with runs long enough that a
# probe's window can end inside a comment or a whitespace run.
_SKIP_SOUP = st.lists(
    st.sampled_from([b" ", b"\x00\t\x0c", b"\r", b"\n", b"\r\n", b"%", b"%c", b"%%EOF", b"1", b"15",
                     b"0" * 16, b"x", b"obj", b"-", b" " * 700, b"%" + b"y" * 700, b"\r\n" * 300]),
    max_size=12,
).map(b"".join)


@given(_SKIP_SOUP, st.integers(0, 4000))
@settings(max_examples=600, deadline=None)
def test_read_uint_matches_former_skip_and_read(data, pos):
    # read_uint skips for itself; where no digit follows, the position it
    # leaves is read by no caller.
    sc = _Scanner(data, pos)
    value = sc.read_uint()
    expected, end = parser_reference.read_uint(data, pos)
    assert value == expected
    if value is not None:
        assert sc.pos == end


@given(_SKIP_SOUP, st.integers(0, 4000))
@example(b"", 1)  # past the end
@example(b"1", 1)  # at the end
@example(b" " * 1023 + b"1", 0)  # the token starts in the window
@example(b" " * 1024 + b"1", 0)  # and just past it
@example(b" " * 600 + b"%" + b"y" * 600 + b"\n1", 0)  # the window ends in a comment
@example(b"x" * 10 + b" " * 1100 + b"1", 10)  # or in a whitespace run
@settings(max_examples=600, deadline=None)
def test_probe_matches_former_probe(data, offset):
    # The former probe sliced the window at the token out; _probe says where
    # the token starts, and its callers match it in place.
    at = _probe(data, offset)
    assert (b"" if at is None else data[at : at + 1024]) == parser_reference.probe(data, offset)


# What goes before an object header or a table row: whitespace and comment
# runs, some long enough that a probe's window ends inside them.
_XREF_GAPS = st.lists(
    st.sampled_from([b" ", b"\n", b"\r\n", b"%c\n", b" " * 700, b"%" + b"y" * 700 + b"\n"]), max_size=3
).map(b"".join)
_MALFORMED_ROWS = [b"12345 00000 n", b"0000000009 0000 n", b"0000000009 00000 x", b"trailer", b""]


@st.composite
def _xref_documents(draw):
    """Objects after gaps, then an xref table of subsections whose rows point at them."""
    data = b"%PDF-1.4\n"
    offsets = [0, len(data)]  # where each gap and each header starts
    for number in range(1, draw(st.integers(0, 4)) + 1):
        offsets.append(len(data))
        data += draw(_XREF_GAPS)
        offsets.append(len(data))
        data += b"%d %d obj\n<< >>\nendobj\n" % (number, draw(st.integers(0, 1)))
    points = st.one_of(
        st.sampled_from(offsets),
        st.integers(0, len(data) + 40),
        st.integers(len(data), 10**10 - 1),  # past the end of the file
    )
    data += b"xref\n"
    for _ in range(draw(st.integers(1, 3))):
        rows = []
        for _ in range(draw(st.integers(0, 5))):
            if draw(st.integers(0, 7)) == 0:
                rows.append(draw(st.sampled_from(_MALFORMED_ROWS)))
            else:
                used = draw(st.sampled_from(b"nnf"))
                rows.append(b"%010d %05d %c" % (draw(points), draw(st.integers(0, 1)), used))
        count = max(0, len(rows) + draw(st.integers(-1, 1)))
        data += b"%d %d" % (draw(st.integers(0, 3)), count)
        data += b"".join(draw(st.sampled_from([b"\n", b" \r\n"])) + draw(_XREF_GAPS) + row for row in rows)
    return data + draw(st.sampled_from([b"\ntrailer\n<< /Size 5 >>\n", b"\n", b" junk"]))


def _one_row_table(before: bytes, number: int, target: bytes, after: bytes = b"") -> bytes:
    """before, a one-row xref table for object number at target's first place
    in before + the table + after, and after."""
    table = b"xref\n%d 1\n%%010d 00000 n \ntrailer\n<< >>\n" % number
    at = (before + table % 0 + after).index(target)
    return before + table % at + after


@given(_xref_documents())
@example(b"%PDF-1.4\n" + b" " * 1023 + b"1 0 obj\n<< >>\nendobj\nxref\n1 1\n0000000009 00000 n \ntrailer\n<< >>")
@example(b"%PDF-1.4\n" + b" " * 1024 + b"1 0 obj\n<< >>\nendobj\nxref\n1 1\n0000000009 00000 n \ntrailer\n<< >>")
# each row below points at a header: one longer than the window,
@example(_one_row_table(b"%PDF-1.4\n1" + b" " * 1100 + b"0 obj << >> endobj\n", 1, b"1 "))
# one inside a stream payload, which the scan never sees,
@example(_one_row_table(b"%PDF-1.4\n1 0 obj << /Length 20 >> stream\n2 0 obj << >> endobj\nendstream endobj\n", 2, b"2 0 obj"))
# one after the table,
@example(_one_row_table(b"%PDF-1.4\n", 1, b"1 0 obj", b"1 0 obj << >> endobj\n"))
# the 2 of 12 0 obj,
@example(_one_row_table(b"%PDF-1.4\n12 0 obj << >> endobj\n", 2, b"2 0 obj"))
# and the earlier definition of a redefined object.
@example(_one_row_table(b"%PDF-1.4\n1 0 obj << /A 1 >> endobj\n1 0 obj << /A 2 >> endobj\n", 1, b"1 0 obj"))
@settings(max_examples=400, deadline=None)
def test_xref_table_diagnostics_match_the_former_row_loop(data):
    assert parse_pdf(data).diagnostics == parser_reference.FormerXrefParser(data).parse().diagnostics


def test_object_stream_header_with_comments_between_its_numbers():
    header = b"1 %c\n0 2 %x\r15"
    parser = _DocumentParser(b"")
    assert parser._objstm_pairs(header, 2, 0) == [(1, 0), (2, 15)]
    assert parser.doc.diagnostics == []
    # The pairs as the former skip_ws and read_uint read them.
    pos, former = 0, []
    for _ in range(4):
        value, pos = parser_reference.read_uint(header, pos)
        former.append(value)
    assert former == [1, 0, 2, 15]
    # A third pair is short, as before.
    assert parser._objstm_pairs(header, 3, 7) == [(1, 0), (2, 15)]
    assert [d.detail for d in parser.doc.diagnostics] == ["short object stream index"]


def test_long_comment_is_skipped_in_bounded_time():
    # One possessive match skips the whole run of whitespace and comments,
    # here one comment and its CR: ~7 ms on this MiB, where a step per byte
    # took ~95-105 ms (2-core VM, Python 3.11).
    data = b"%" + b"eval(1);x=2 " * (_MIB // 12) + b"\r1"
    sc = _Scanner(data, 0)
    sc.skip_ws()
    assert sc.pos == len(data) - 1
    assert best_time(lambda: _Scanner(data, 0).skip_ws()) < 0.025


@pytest.mark.parametrize(
    "data",
    [b"%\n" * (3 * _MAX_TURNS) + b"1", b"%ab\r\n \t" * (_MAX_TURNS + 1) + b"%x",
     b"%" * (2 * _MAX_TURNS) + b"\r" + b"%\r" * _MAX_TURNS + b" " * 9 + b"x"],
    ids=["lf-lines", "crlf-and-blanks", "cr-lines"],
)
def test_comment_runs_past_one_match_match_per_byte_skip(data):
    # Runs longer than _MAX_TURNS lines, which one match once could not
    # take; each is now one possessive match.
    sc = _Scanner(data, 0)
    sc.skip_ws()
    assert sc.pos == parser_reference.skip_ws(data, 0)


def test_comment_lines_are_skipped_in_flat_memory():
    # One possessive match takes every line and keeps no regex frame per
    # line: ~1.5 KiB traced on this MiB (~95 MiB with a repeat that keeps a
    # frame per turn).
    data = b"%\n" * (_MIB // 2) + b"1"
    sc = _Scanner(data, 0)
    _, peak = traced_peak(sc.skip_ws)
    assert sc.pos == len(data) - 1
    assert peak < _MIB


@pytest.mark.parametrize(
    "data, read",
    [(b"%\n" * (_MIB // 2) + b"1", lambda data: _Scanner(data, 0).skip_ws()),
     (b"(" + b"\\a" * (_MIB // 2), read_string)],
    ids=["comment-lines", "unterminated-escapes"],
)
def test_comment_run_and_string_bytes_are_each_one_flat_match(data, read):
    # Possessive repeats keep no regex frame per turn, so one match takes the
    # whole run: ~1.5 KiB traced on each MiB here, where matches of at most
    # 1,024 turns traced ~180 and ~145 KiB (2-core VM, Python 3.11).
    _, peak = traced_peak(lambda: read(data))
    assert peak < 16 * 1024


def test_long_whitespace_run_is_skipped_in_bounded_time():
    # The run is part of the one match that skips whitespace and comments:
    # ~2 ms on this MiB, where a step per byte took ~100-130 ms (2-core VM,
    # Python 3.11).
    data = bytes(sorted(WHITESPACE)) * (_MIB // len(WHITESPACE)) + b"1"
    sc = _Scanner(data, 0)
    sc.skip_ws()
    assert sc.pos == len(data) - 1
    assert best_time(lambda: _Scanner(data, 0).skip_ws()) < 0.025


# -- cost shape: parse time and memory grow linearly in each hostile family ----


def _objstm_over_letters(n: int) -> bytes:
    """An object stream of n letters whose entries, one per 256, parse no value."""
    entries = n // 256
    head = b" ".join(b"%d %d" % (10 + i, 256 * i) for i in range(entries)) + b" "
    dictionary = b"<< /Type /ObjStm /N %d /First %d /Filter /FlateDecode >>" % (entries, len(head))
    return b"%PDF-1.4\n" + _object(1, stream_body(dictionary, zlib.compress(head + b"a" * n)))


def _escaped_string(n: int) -> bytes:
    """One literal string of n runs, each with four escapes: a parenthesis, octal, n and an EOL."""
    return b"%PDF-1.4\n" + _object(1, b"(" + b"ab\\(c\\053\\n\\\n" * n + b")")


def _commented_array(n: int) -> bytes:
    """An array of n elements, each followed by a 260-byte comment line ending in LF."""
    return b"%PDF-1.4\n" + _object(1, b"[" + (b"1 %" + b" comment" * 32 + b"\n") * n + b"]")


def _xref_rows_off_target(n: int) -> bytes:
    """An xref table of n in-use rows, each pointing at object 1's header as its own."""
    rows = b"0000000009 00000 n \n" * n
    return b"%PDF-1.4\n" + _object(1, b"null") + b"xref\n2 %d\n%strailer\n<< >>\n" % (n, rows)


def _startxrefs_into_blanks(n: int) -> bytes:
    """n startxref markers, each declaring the start of a 64 n-byte whitespace run."""
    return b"%PDF-1.4\n" + b" " * (64 * n) + b"xref\n" + b"startxref\n9\n%%EOF\n" * n


def _nested_to_and_past_the_cap(n: int) -> bytes:
    """n pairs of objects: an array nested to the depth cap, and one nested a level past it.

    The innermost array holds 4 KiB of blanks, so the file is large against
    the parse work and work per container over the rest of the file shows.
    """
    at_cap = b"[" * (MAX_NESTING_DEPTH + 1) + b" " * 4096 + b"]" * (MAX_NESTING_DEPTH + 1)
    past_cap = b"[" + at_cap + b"]"
    return b"%PDF-1.4\n" + b"".join(_object(2 * i + 1, at_cap) + _object(2 * i + 2, past_cap) for i in range(n))


def _trailers_nested_in_a_string(n: int) -> bytes:
    """One trailer whose string holds n - 1 more trailer keywords, each opening a dictionary and a string."""
    return b"%PDF-1.4\n" + b"trailer << /A (" * n + b")" * n + b" >>"


def _objstm_pairs_sharing_an_offset(n: int) -> bytes:
    """An object stream of n pairs that all point at one array of 64 n zeros."""
    return _objstm_sharing_one_offset(n, 64 * n)


# Each family's input at its n, where one parse takes 5 ms or more: ~7, ~8,
# ~10, ~13, ~11, ~8, ~7 and ~11 ms in this order (2-core VM, Python 3.11.7).
_QUADRUPLING_FAMILIES = {
    "objstm-entries-in-letters": (_objstm_over_letters, 64 << 10),
    "string-escapes": (_escaped_string, 6000),
    "comment-lines": (_commented_array, 2000),
    "xref-rows": (_xref_rows_off_target, 8000),
    "startxref-offsets": (_startxrefs_into_blanks, 1000),
    "nesting-to-and-past-the-cap": (_nested_to_and_past_the_cap, 40),
    "nested-trailers": (_trailers_nested_in_a_string, 10_000),
    "objstm-pairs-sharing-an-offset": (_objstm_pairs_sharing_an_offset, 128),
}


@pytest.mark.parametrize("family", _QUADRUPLING_FAMILIES)
def test_parse_time_and_memory_grow_linearly(family):
    # Linear gives ~4 for both ratios and quadratic ~16.  Object-stream
    # entries that each parsed on to the stream's end took 15-16 times as
    # long at 4n (2-core VM, Python 3.11.7).
    build, n = _QUADRUPLING_FAMILIES[family]
    time_ratio, peak_ratio = quadrupling_ratios(parse_pdf, build, n)
    assert time_ratio <= 6 and peak_ratio <= 4.5, (time_ratio, peak_ratio)


def _bomb_stream_pdf(filters: bytes, payload: bytes) -> bytes:
    return assemble_pdf(
        [
            b"<< /Type /Catalog /Pages 2 0 R >>",
            b"<< /Type /Pages /Kids [] /Count 0 >>",
            stream_body(b"<< /Filter " + filters + b" >>", payload),
        ]
    )


def _parse_with_peak(raw: bytes):
    return traced_peak(lambda: parse_pdf(raw))


def _assert_rejected_within_bound(raw: bytes, filter_name: str, bound: float) -> None:
    doc, peak = _parse_with_peak(raw)
    errors = [d for d in doc.diagnostics if d.kind is DiagnosticKind.DECODE_ERROR]
    assert [d.detail for d in errors] == [f"{filter_name}: decoded output exceeds size cap"]
    assert doc.objects[(3, 0)].decoded is None
    assert peak < bound


def test_flate_bomb_is_stopped_at_the_cap():
    # ~0.6 MB of level-1 deflate that inflates to 128 MiB of zeros.  Flate
    # only counts its output past the first chunk, so the bomb fails having
    # held a few chunks, not the 64 MiB of output it would discard.
    c = zlib.compressobj(1)
    zeros = bytes(1 << 20)
    payload = b"".join([c.compress(zeros) for _ in range((2 * MAX_DECODED) >> 20)] + [c.flush()])
    raw = _bomb_stream_pdf(b"/FlateDecode", payload)
    _assert_rejected_within_bound(raw, "FlateDecode", 6 * _INFLATE_CHUNK)


def test_runlength_bomb_under_flate_is_stopped_at_the_cap():
    # Each (129, byte) pair repeats the byte 128 times: 2 MiB of runs
    # decode to 128 MiB, and flate shrinks the runs to a few kilobytes.
    # RunLength counts its output before it builds it, so the parse holds
    # the runs and little more: ~3 MiB traced, where building up to the cap
    # held ~67 MiB (2-core VM, Python 3.11).
    runs = bytes([129, 0x41]) * (2 * MAX_DECODED // 128) + b"\x80"
    raw = _bomb_stream_pdf(b"[/FlateDecode /RunLengthDecode]", zlib.compress(runs, 9))
    _assert_rejected_within_bound(raw, "RunLengthDecode", len(runs) + 2 * _INFLATE_CHUNK)


_ZEROS_60_MIB = 60 * _MIB


def _parse_zeros_stream(payload: bytes) -> tuple[bytes, int]:
    doc, peak = _parse_with_peak(_bomb_stream_pdf(b"/FlateDecode", payload))
    decoded = doc.objects[(3, 0)].decoded
    assert decoded.count(0) == len(decoded) > _ZEROS_60_MIB // 3
    return decoded, peak


def test_flate_stream_with_its_end_marker_is_built_once():
    # Counted first, then inflated into one buffer of its exact size: the
    # output is not held twice, as chunks and as their join.
    decoded, peak = _parse_zeros_stream(zlib.compress(bytes(_ZEROS_60_MIB), 9))
    assert len(decoded) == _ZEROS_60_MIB
    assert peak <= 1.1 * _ZEROS_60_MIB


def test_truncated_flate_stream_is_held_at_most_twice():
    # A truncated stream is built from its chunks, which with their join
    # hold it twice; a whole-stream decompressobj call would hold more.
    payload = zlib.compress(bytes(_ZEROS_60_MIB), 9)
    decoded, peak = _parse_zeros_stream(payload[: len(payload) // 2])
    assert len(decoded) < _ZEROS_60_MIB
    assert peak <= 2 * len(decoded) + _INFLATE_CHUNK


def test_nesting_depth_capped():
    raw = b"1 0 obj\n" + b"[" * 200 + b"]" * 200 + b"\nendobj"
    doc = parse_pdf(raw)
    assert DiagnosticKind.GARBAGE_BYTES in kinds(doc)
    assert (1, 0) in doc.objects


# -- the value grammar against its former code ------------------------------------


def _shape(value):
    """A value with the type of every part, so that True and 1 differ."""
    if isinstance(value, dict):
        return ("dict", [(type(k).__name__, k, _shape(v)) for k, v in value.items()])
    if isinstance(value, list):
        return ("list", [_shape(v) for v in value])
    return (type(value).__name__, value)


def _outcome(sc, parse):
    """What parse() returned or raised, and where it left the scanner."""
    try:
        result = _shape(parse())
    except _Terminator as t:
        result = ("_Terminator", t.which)
    except Exception as exc:  # the parser's own signals: _Truncated, _DepthExceeded, _StopKeyword
        result = (type(exc).__name__,)
    return result, sc.pos


def assert_same_as_peek_scanner(data: bytes, depth: int) -> None:
    """parse_value at 0, and parse_dict after a leading '<<', as the former grammar reads them."""
    sc, ref = _Scanner(data, 0), parser_reference.PeekScanner(data, 0)
    assert _outcome(sc, lambda: sc.parse_value(depth)) == _outcome(ref, lambda: ref.parse_value(depth))
    if data.startswith(b"<<"):
        sc, ref = _Scanner(data, 2), parser_reference.PeekScanner(data, 0)
        assert _outcome(sc, lambda: sc.parse_dict(depth)) == _outcome(ref, lambda: ref.parse_dict(depth))


_SOUP_TOKENS = [
    b"<<", b">>", b"<", b">", b"[", b"]", b"(", b")", b"{", b"}", b"/", b"/A", b"/K", b"/J#61",
    b"(s)", b"(a\\)b)", b"<41 4>", b"1", b"12", b"-3", b"+4", b"2.5", b".5", b"7.", b"+", b"-", b".",
    b"+.", b"0 R", b"R", b"true", b"false", b"null", b"junk", b"endobj", b"stream", b"obj", b"xref",
    b"%c\n", b"%", b" ", b"\n", b"\r\n", b"\x00", b"\\", b"\xff",
]


@given(
    st.lists(st.sampled_from(_SOUP_TOKENS), max_size=24),
    st.sampled_from([b"", b" "]),
    st.sampled_from([0, 1, MAX_NESTING_DEPTH - 1, MAX_NESTING_DEPTH, MAX_NESTING_DEPTH + 1]),
)
@settings(max_examples=600, deadline=None)
def test_value_grammar_matches_former_on_token_soups(tokens, separator, depth):
    assert_same_as_peek_scanner(separator.join(tokens), depth)


@pytest.mark.parametrize(
    "data, expected",
    [
        # a token handed on to be read again restarts at its own first byte
        (b"[<<>> /A]", [{}, PdfName("/A")]),
        (b"[/A /B]", [PdfName("/A"), PdfName("/B")]),
        (b"<< junk /K 1 >>", {}),  # the junk's value is /K, dropped with it; then 1
        (b"<< /K junk 1 >>", {PdfName("/K"): 1}),
        (b"[+ - . > 1]", [None, None, None, 1]),  # a lone sign or dot is None, a lone '>' skipped
        (b"> 5", 5),
        (b"+", None),
        (b"-", None),
        (b".", None),
        # a reference is one token, where a key, a value or an element belongs
        (b"<< 1 0 R /A 1 >>", {PdfName("/A"): 1}),  # a junk key is dropped whole
        (b"<< /A 1 0 R >>", {PdfName("/A"): PdfRef(1, 0)}),
        (b"[1 0 R 2]", [PdfRef(1, 0), 2]),
        pytest.param(b"[" + b"7" * 4300 + b" 0 R]", [PdfRef(int(b"7" * 4300), 0)], id="4300-digit-ref"),
        pytest.param(b"[" + b"7" * 4301 + b" 0 R]", [math.inf, 0], id="4301-digit-number"),
        (b"[1 0 Rx]", [1, 0]),
        (b"[1 01234567890 R]", [1, 1234567890]),  # an eleven-digit generation
        (b"[+1 0 R]", [1, 0]),
        (b"[1. 0 R]", [1.0, 0]),
        (b"[1 %c\n0 R]", [1, 0]),  # no comment inside a reference
    ],
)
def test_value_grammar_named_cases(data, expected):
    assert_same_as_peek_scanner(data, 0)
    assert _shape(_Scanner(data, 0).parse_value(0)) == _shape(expected)


@pytest.mark.parametrize("levels", range(MAX_NESTING_DEPTH - 1, MAX_NESTING_DEPTH + 3))
@pytest.mark.parametrize("opening, empty, closing", [(b"[", b"[]", b"]"), (b"<< /K ", b"<<>>", b" >>")])
def test_empty_container_at_the_nesting_cap_parses_as_before(levels, opening, empty, closing):
    data = opening * levels + empty + closing * levels
    assert_same_as_peek_scanner(data, 0)
    sc = _Scanner(data, 0)
    if levels <= MAX_NESTING_DEPTH:  # the empty container opens at depth levels + 1
        assert sc.parse_value(0) is not None and sc.pos == len(data)


def test_object_stream_contents_merged():
    raw = pdf_with_objstm(
        [(10, b"<< /S /JavaScript /JS (eval(x)) >>"), (11, b"<< /Type /Page >>")]
    )
    doc = parse_pdf(raw)
    assert (10, 0) in doc.objects
    assert (11, 0) in doc.objects
    assert doc.objects[(11, 0)]["/Type"] == "/Page"


def test_object_stream_collision_diagnosed():
    raw = pdf_with_objstm([(1, b"<< /Hidden true >>")])
    doc = parse_pdf(raw)
    assert DiagnosticKind.DUPLICATE_OBJECT in kinds(doc)
    assert doc.objects[(1, 0)] == {"/Hidden": True}


# -- the definition rule: the later definition wins, with one diagnostic --------


def _object(number: int, body: bytes) -> bytes:
    return b"%d 0 obj\n%s\nendobj\n" % (number, body)


def _object_stream(number: int, inner: list[tuple[int, bytes]]) -> bytes:
    """Object number: an unfiltered object stream holding the (number, body) pairs."""
    head = payload = b""
    for n, body in inner:
        head += b"%d %d " % (n, len(payload))
        payload += body + b" "
    dictionary = b"<< /Type /ObjStm /N %d /First %d >>" % (len(inner), len(head))
    return _object(number, stream_body(dictionary, head + payload))


@pytest.mark.parametrize("count, first", [(b"true", b"4"), (b"1", b"false"), (b"true", b"true")])
def test_object_stream_header_of_booleans_is_malformed(count, first):
    # /N true unpacked one object, and /First false read the index from 0.
    dictionary = b"<< /Type /ObjStm /N %s /First %s >>" % (count, first)
    data = b"%PDF-1.4\n" + _object(2, stream_body(dictionary, b"1 0 (inner) "))
    doc = parse_pdf(data)
    assert list(doc.objects) == [(2, 0)]
    assert doc.diagnostics == [
        ParseDiagnostic(
            data.index(b"2 0 obj"), DiagnosticKind.GARBAGE_BYTES, "malformed object stream header"
        )
    ]


def _redefined(at: int, detail: str) -> ParseDiagnostic:
    return ParseDiagnostic(at, DiagnosticKind.DUPLICATE_OBJECT, detail)


def test_a_top_level_redefinition_replaces_the_object():
    data = b"%PDF-1.4\n" + _object(1, b"(first)") + _object(1, b"(second)")
    doc = parse_pdf(data)
    assert doc.objects == {(1, 0): PdfString(b"second", hex=False)}
    assert doc.diagnostics == [
        _redefined(data.rindex(b"1 0 obj"), "object 1 0 redefined; keeping the later definition")
    ]


def test_an_object_stream_object_replaces_a_top_level_object():
    data = b"%PDF-1.4\n" + _object(1, b"(top)") + _object_stream(2, [(1, b"(inner)")])
    doc = parse_pdf(data)
    assert doc.objects[(1, 0)] == PdfString(b"inner", hex=False)
    assert doc.diagnostics == [_redefined(data.index(b"2 0 obj"), "object 1 0 redefined by object stream")]


def test_a_container_whose_number_is_taken_is_still_expanded_at_its_own_offset():
    # Container 2 holds an object 3, which replaces container 3; container 3's
    # object 1 still replaces the top-level object 1, diagnosed at its header.
    data = (
        b"%PDF-1.4\n"
        + _object(1, b"(top)")
        + _object_stream(2, [(3, b"(from 2)")])
        + _object_stream(3, [(1, b"(from 3)")])
    )
    doc = parse_pdf(data)
    assert doc.objects[(3, 0)] == PdfString(b"from 2", hex=False)
    assert doc.objects[(1, 0)] == PdfString(b"from 3", hex=False)
    assert doc.diagnostics == [
        _redefined(data.index(b"2 0 obj"), "object 3 0 redefined by object stream"),
        _redefined(data.index(b"3 0 obj"), "object 1 0 redefined by object stream"),
    ]


def test_an_xref_stream_replaced_by_an_object_stream_object_is_no_trailer_or_section():
    data = (
        b"%PDF-1.4\n"
        + _object(4, stream_body(b"<< /Type /XRef /Size 5 >>", b""))
        + _object_stream(2, [(4, b"null")])
        + b"trailer\n<< /Size 5 >>\n"
    )
    doc = parse_pdf(data)
    assert doc.objects[(4, 0)] is None
    assert doc.trailer_dicts == [{"/Size": 5}]
    assert doc.xref_section_count == 0
    assert doc.diagnostics == [_redefined(data.index(b"2 0 obj"), "object 4 0 redefined by object stream")]
    # Without the object stream, the /XRef stream is a trailer and a section,
    # in file order before the trailer dictionary.
    doc = parse_pdf(data.replace(b"/ObjStm", b"/Other"))
    assert doc.trailer_dicts == [{"/Type": "/XRef", "/Size": 5, "/Length": 0}, {"/Size": 5}]
    assert doc.xref_section_count == 1


def _objstm_sharing_one_offset(pairs: int, elements: int) -> bytes:
    """An object stream whose pairs all point at one array of elements zeros."""
    head = b" ".join(b"%d 0" % (10 + i) for i in range(pairs)) + b" "
    objstm = stream_body(
        b"<< /Type /ObjStm /N %d /First %d /Filter /FlateDecode >>" % (pairs, len(head)),
        zlib.compress(head + b"[" + b"0 " * elements + b"]"),
    )
    return assemble_pdf(
        [b"<< /Type /Catalog /Pages 2 0 R >>", b"<< /Type /Pages /Kids [] /Count 0 >>", objstm]
    )


def test_object_stream_pairs_sharing_an_offset_are_parsed_once():
    # Every pair parsed the array again and kept its own copy, and the graph
    # walk visited each: parse and extract took ~1.3 s here, now ~0.05 s
    # (2-core VM, Python 3.11).  The first pair gets the value; each repeat
    # gets a diagnostic, so parse_pdf still builds no shared container.
    raw = _objstm_sharing_one_offset(25, 20_000)
    assert len(raw) < 1024
    assert best_time(lambda: extract_features(parse_pdf(raw), raw), runs=3) < 0.25
    doc = parse_pdf(raw)
    assert doc.objects[(10, 0)] == [0] * 20_000
    assert [key for key in doc.objects if key[0] >= 10] == [(10, 0)]
    assert [d.detail for d in doc.diagnostics] == ["object stream offset repeated"] * 24


def _object_stream_at(pairs: list[tuple[int, int]], payload: bytes) -> bytes:
    """Object 2: an unfiltered object stream of the (number, offset) pairs over payload."""
    head = b"".join(b"%d %d " % pair for pair in pairs)
    dictionary = b"<< /Type /ObjStm /N %d /First %d >>" % (len(pairs), len(head))
    return b"%PDF-1.4\n" + _object(2, stream_body(dictionary, head + payload))


def _s(data: bytes) -> PdfString:
    return PdfString(data, hex=False)


@pytest.mark.parametrize(
    "pairs, payload, objects, details",
    [
        # The array was read whole, past the next offset.
        ([(10, 0), (11, 4)], b"[1 2 3]", [(10, None), (11, 3)], ["unparseable object inside object stream"]),
        # Abutting numbers were 12345 and 345.
        ([(10, 0), (11, 2)], b"12345", [(10, 12), (11, 345)], []),
        ([(10, 0), (11, 0), (12, 4)], b"(a) (b)", [(10, _s(b"a")), (12, _s(b"b"))], ["object stream offset repeated"]),
        # Defined in index order; each entry still ends at the next larger offset.
        ([(10, 4), (11, 0)], b"(a) (b)", [(10, _s(b"b")), (11, _s(b"a"))], []),
    ],
    ids=["value-past-next-offset", "abutting-objects", "repeated-offset", "offsets-out-of-order"],
)
def test_object_stream_entry_is_parsed_within_its_extent(pairs, payload, objects, details):
    doc = parse_pdf(_object_stream_at(pairs, payload))
    assert [(key[0], value) for key, value in doc.objects.items() if key != (2, 0)] == objects
    assert [d.detail for d in doc.diagnostics] == details


def test_encrypted_stays_raw():
    raw = assemble_pdf(
        [
            b"<< /Type /Catalog /Pages 2 0 R >>",
            b"<< /Type /Pages /Kids [] /Count 0 >>",
            b"<< /Filter /Standard /V 1 >>",
        ],
        trailer_extra=b"/Encrypt 3 0 R ",
    )
    doc = parse_pdf(raw)
    assert iter_name_occurrences(doc, "/Encrypt") == 1


# -- iter_name_occurrences ----------------------------------------------------


def test_name_count_direct():
    raw = assemble_pdf(
        [
            b"<< /Type /Catalog /Pages 2 0 R /OpenAction << /S /JavaScript >> >>",
            b"<< /Type /Pages /Kids [] /Count 0 >>",
        ]
    )
    doc = parse_pdf(raw)
    assert iter_name_occurrences(doc, "/OpenAction") == 1
    assert iter_name_occurrences(doc, "/JavaScript") == 1
    assert iter_name_occurrences(doc, "OpenAction") == 1  # slash optional in query


def test_name_count_empty_doc():
    assert iter_name_occurrences(parse_pdf(b""), "/OpenAction") == 0


def test_hex_escaped_name_counts_as_canonical():
    # "a" is 0x61, so /J#61vaScript and /JavaScript are the same name.
    plain = b"1 0 obj\n<< /S /JavaScript >>\nendobj"
    escaped = b"1 0 obj\n<< /S /J#61vaScript >>\nendobj"
    assert iter_name_occurrences(parse_pdf(plain), "/JavaScript") == 1
    assert iter_name_occurrences(parse_pdf(escaped), "/JavaScript") == 1


def test_name_escape_needs_two_hex_digits():
    # PDF 32000-1 7.3.5: '#' escapes a byte only when two hex digits follow.
    raw = b"1 0 obj\n[/A#+1 /A# 1 /A#1 /B /A#4g /A#-1 /A#41 /A##41 /A#4]\nendobj"
    assert parse_pdf(raw).objects[(1, 0)] == [
        "/A#+1", "/A#", 1, "/A#1", "/B", "/A#4g", "/A#-1", "/AA", "/A#A", "/A#4"
    ]


_NAME_PIECES = st.one_of(
    st.sampled_from([bytes([b]) for b in b"AZaz09.+-_!~\x80\xff"]),  # regular
    st.sampled_from([bytes([b]) for b in b"()<>[]{}/%"]),  # delimiters
    st.sampled_from([bytes([b]) for b in sorted(WHITESPACE)]),
    st.lists(st.sampled_from([bytes([b]) for b in b"09afAF#gG +-/"]), max_size=2).map(
        lambda tail: b"#" + b"".join(tail)
    ),
)


@given(
    st.lists(_NAME_PIECES, max_size=12).map(b"".join),
    st.sampled_from([b"", b"#", b"#4", b"#g", b"4#", b"##"]),  # '#' among the last two bytes
)
@settings(max_examples=400, deadline=None)
def test_read_name_matches_per_byte_reader(body, tail):
    data = b"/" + body + tail
    sc = _Scanner(data, 0)
    name = sc.parse_value(0)
    expected, end = parser_reference.read_name(data, 0)
    assert (name, sc.pos) == (expected, end)
    assert type(name) is PdfName


@given(st.text(alphabet="ABCdef123", min_size=1, max_size=12), st.data())
@settings(max_examples=50, deadline=None)
def test_any_escaping_counts_identically(name, data):
    spellings = []
    for ch in name:
        if data.draw(st.booleans()):
            spellings.append(f"#{ord(ch):02x}")
        else:
            spellings.append(ch)
    escaped = "".join(spellings)
    raw_plain = f"1 0 obj\n<< /X /{name} >>\nendobj".encode()
    raw_escaped = f"1 0 obj\n<< /X /{escaped} >>\nendobj".encode()
    assert iter_name_occurrences(parse_pdf(raw_plain), "/" + name) == 1
    assert iter_name_occurrences(parse_pdf(raw_escaped), "/" + name) == 1


def test_xref_stream_counts_as_section_and_trailer():
    entries = zlib.compress(b"\x01\x00\x09\x00")
    raw = assemble_pdf(
        [
            b"<< /Type /Catalog /Pages 2 0 R >>",
            b"<< /Type /Pages /Kids [] /Count 0 >>",
            stream_body(
                b"<< /Type /XRef /W [1 2 1] /Size 1 /Filter /FlateDecode >>", entries
            ),
        ]
    )
    doc = parse_pdf(raw)
    assert doc.xref_section_count == 2  # classic table from the builder + the stream
    assert len(doc.trailer_dicts) == 2


_ALL_COUNTED_NAMES = [n for _, _, names in _NAME_COUNTS for n in names]


def assert_same_name_counts_as_recursive_walk(doc, more_names=()):
    for name in [*_ALL_COUNTED_NAMES, *more_names]:
        expected = parser_reference.iter_name_occurrences(doc, name)
        assert iter_name_occurrences(doc, name) == expected, name


def test_name_counts_match_recursive_walk_on_fuzz_corpus(fuzz_corpus):
    for _, doc, _ in fuzz_corpus:
        assert_same_name_counts_as_recursive_walk(doc)


def _nested(depth, leaf):
    value = leaf
    for level in range(depth):
        value = [value] if level % 2 else {PdfName("/K"): value}
    return value


_JS = PdfName("/JS")
_SHARED = {_JS: _JS}
_NAME_WALK_CASES = {
    # (document, expected count of /JS)
    "dict-shared-by-trailer-and-object": (
        PdfDocument(objects={(1, 0): _SHARED, (2, 0): [_SHARED]}, trailer_dicts=[_SHARED]),
        2,
    ),
    "plain-str-key": (PdfDocument(objects={(1, 0): {"/JS": 1}, (2, 0): {"/JS": _JS}}), 1),
    "nested-lists": (PdfDocument(objects={(1, 0): [[_JS, [_JS, []]], _JS], (2, 0): _JS}), 4),
    "stream-dictionaries": (
        PdfDocument(objects={(1, 0): PdfStream({_JS: [_JS], PdfName("/Length"): 0}, b"/JS")}),
        2,
    ),
    "nested-to-max-depth": (
        PdfDocument(
            objects={(1, 0): _nested(MAX_NESTING_DEPTH, _JS)},
            trailer_dicts=[_nested(MAX_NESTING_DEPTH, {_JS: 1})],
        ),
        2,
    ),
    "parsed-stream-and-max-depth": (
        parse_pdf(
            assemble_pdf(
                [
                    b"<< /OpenAction << /S /JavaScript /JS (x) >> >>",
                    stream_body(b"<< /JS /JS >>", b"/JS /JS"),
                    b"[" * MAX_NESTING_DEPTH + b"/JS" + b"]" * MAX_NESTING_DEPTH,
                ]
            )
        ),
        4,
    ),
}


@pytest.mark.parametrize("name", sorted(_NAME_WALK_CASES))
def test_name_counts_match_recursive_walk_on_hand_built_documents(name):
    doc, expected = _NAME_WALK_CASES[name]
    assert iter_name_occurrences(doc, "/JS") == expected
    assert_same_name_counts_as_recursive_walk(doc)


# -- totality and idempotence --------------------------------------------------


@given(st.binary(min_size=0, max_size=600))
@settings(max_examples=120, deadline=None)
def test_parse_never_raises_and_is_idempotent(data):
    first = parse_pdf(data)
    second = parse_pdf(data)
    assert first == second
    assert first.total_size == len(data)
    assert all(d.offset <= first.total_size for d in first.diagnostics)


def test_structured_documents_parse_idempotently():
    corpus = [
        minimal_pdf(),
        pdf_with_stream(b"deep " * 30),
        pdf_with_objstm([(8, b"<< /Type /Page >>"), (9, b"(payload)")]),
    ]
    for raw in corpus:
        assert parse_pdf(raw) == parse_pdf(raw)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_mutated_real_pdfs_parse(data):
    base = bytearray(pdf_with_stream(b"q Q " * 20))
    n_edits = data.draw(st.integers(1, 12))
    for _ in range(n_edits):
        pos = data.draw(st.integers(0, len(base) - 1))
        base[pos] = data.draw(st.integers(0, 255))
    doc = parse_pdf(bytes(base))
    assert doc.total_size == len(base)


# -- the one-pass scan against the former five-pass scan -------------------------


def _diagnostic_order(d):
    return (d.offset, d.kind, d.detail)


def assert_same_as_five_pass_scan(data: bytes, new: Optional[PdfDocument] = None) -> None:
    """Every field of new, parse_pdf(data) by default, equals the oracle's; diagnostics in any order."""
    if new is None:
        new = parse_pdf(data)
    old = parser_reference.parse_pdf(data)
    for f in dataclasses.fields(PdfDocument):
        a, b = getattr(new, f.name), getattr(old, f.name)
        if f.name == "diagnostics":
            a, b = sorted(a, key=_diagnostic_order), sorted(b, key=_diagnostic_order)
        assert a == b, f.name


_KEYWORD_CASES = {
    "Xstartxref": minimal_pdf().replace(b"startxref", b"Xstartxref"),
    "axref": minimal_pdf().replace(b"xref\n0 ", b"axref\n0 "),
    "xrefs": minimal_pdf().replace(b"xref\n0 ", b"xrefs\n0 "),
    "xref%%EOF": minimal_pdf() + b"xref%%EOF",
    "%%%EOF": minimal_pdf().replace(b"%%EOF", b"%%%EOF"),
    "%%EOFxref": minimal_pdf() + b"%%EOFxref\n",
    "xref-then-digit": minimal_pdf() + b"xref1 0 obj\nnull\nendobj\n",
    "keywords-in-string": assemble_pdf(
        [
            b"<< /Type /Catalog /Pages 2 0 R /T (xref trailer << >> startxref 0 %%EOF) >>",
            b"<< /Type /Pages /Kids [] /Count 0 >>",
        ]
    ),
    "keywords-in-stream": pdf_with_stream(b"xref\n0 1\ntrailer\n<< /Size 1 >>\nstartxref\n0\n%%EOF"),
    "keywords-in-stream-bad-length": pdf_with_stream(b"trailer << >> startxref 7 %%EOF", length=999),
    "standalone-trailer-before-table": minimal_pdf().replace(
        b"xref\n", b"trailer\n<< /Size 9 >>\nxref\n"
    ),
    "trailer-consumed-by-table": minimal_pdf(),
    "trailer-in-table-comment": minimal_pdf().replace(b"xref\n", b"xref\n% trailer << /C 1 >>\n"),
    "two-tables-one-trailer": minimal_pdf().replace(b"xref\n", b"xref\n% xref\n"),
    "table-without-trailer": minimal_pdf().replace(b"trailer", b"Xtrailer"),
    "unterminated-trailer-after-table": minimal_pdf().replace(b" >>\nstartxref", b"\nstartxref"),
    # Where a trailer dictionary ends: the scan resumes there.
    "markers-in-trailer-string": minimal_pdf().replace(
        b"trailer\n<< ", b"trailer\n<< /A (trailer << /B 1 >> 9 0 obj null endobj xref startxref 0 %%EOF) "
    ),
    "keywords-at-both-ends": b"startxref" + minimal_pdf()[9:] + b"xref",
    # Where an object body ends: the scan resumes there.
    "number-then-header": b"1 0 obj 5 6 0 obj",
    "keyword-then-header": b"1 0 obj true12 0 obj",
    "long-number-then-header": b"1 0 obj 12345678901 0 obj",
    "value-before-startxref": b"%PDF-1.4\n1 0 obj\n<< /A 5 >>startxref\n0\n%%EOF\n",
    "keyword-splits-startxref": b"1 0 obj " + b"a" * 27 + b"startxref 0\n%%EOF",
    "too-deep-recovers-at-endobj": b"%PDF-1.4\n1 0 obj\n"
    + b"[" * (MAX_NESTING_DEPTH + 1)
    + b" 3 0 obj xref trailer << >> startxref 0 %%EOF\nendobj\n2 0 obj\nnull\nendobj\n",
    "stream-hides-header-and-markers": pdf_with_stream(
        b"3 0 obj\nnull\nendobj\nxref\n0 1\ntrailer\n<< /Size 1 >>\nstartxref\n0\n%%EOF"
    ),
}


@pytest.mark.parametrize("name", sorted(_KEYWORD_CASES))
def test_scan_matches_five_pass_scan_on_keyword_cases(name):
    assert_same_as_five_pass_scan(_KEYWORD_CASES[name])


def test_keywords_inside_longer_words_are_not_markers():
    doc = parse_pdf(_KEYWORD_CASES["Xstartxref"])
    assert doc.startxref_offsets == []
    assert parse_pdf(_KEYWORD_CASES["xrefs"]).xref_section_count == 0
    assert len(parse_pdf(_KEYWORD_CASES["%%%EOF"]).eof_marker_offsets) == 1
    assert parse_pdf(_KEYWORD_CASES["xref%%EOF"]).xref_section_count == 2
    doc = parse_pdf(_KEYWORD_CASES["standalone-trailer-before-table"])
    assert [t.get("/Size") for t in doc.trailer_dicts] == [9, 4]


@pytest.mark.parametrize(
    "prefix", [b"", b"xref\n0 1\n0000000000 65535 f \n"], ids=["standalone", "after-xref-table"]
)
def test_trailers_nested_in_a_trailer_string_are_part_of_it(prefix):
    # The scan resumes after a trailer dictionary, so the trailer words in its
    # string are not parsed again: ~1 ms here, where parsing each nested
    # trailer and its string to the end of the file took ~1.1 s (2-core VM,
    # Python 3.11).
    data = prefix + b"trailer << /A (" * 1000 + b")" * 1000 + b" >>"
    assert best_time(lambda: parse_pdf(data), runs=3) < 0.1
    assert len(parse_pdf(data).trailer_dicts) == 1


def test_unterminated_trailer_after_a_table_is_reported_once():
    doc = parse_pdf(_KEYWORD_CASES["unterminated-trailer-after-table"])
    assert [d.detail for d in doc.diagnostics] == ["unterminated trailer dictionary"]
    assert doc.trailer_dicts == []
    assert doc.startxref_offsets == [186]


def test_scan_matches_five_pass_scan_on_fuzz_corpus(fuzz_corpus):
    for data, doc, _ in fuzz_corpus:
        assert_same_as_five_pass_scan(data, doc)


_SPLICE_BASES = [
    minimal_pdf(),
    pdf_with_stream(b"xref trailer startxref 9 %%EOF"),
    pdf_with_objstm([(7, b"(xref trailer %%EOF)"), (8, b"<< /A 1 >>")]),
    _KEYWORD_CASES["keywords-in-string"],
]
_SPLICES = [
    b"Xstartxref", b"axref", b"xrefs", b"xref%%EOF", b"%%%EOF", b"%%EOFxref",
    b"xref", b"trailer", b"startxref", b"%%EOF", b"startxref\n0\n", b"trailer\n<< /Size 3 >>\n",
    b"xref\n0 1\n0000000000 65535 f \n", b"(xref trailer)", b"% startxref\n",
    b"1 0 obj", b"endobj", b"stream\n", b"endstream", b"<<", b">>", b"(", b" ",
    b"trailer << /A (",
]


@st.composite
def spliced_documents(draw):
    data = bytearray(draw(st.sampled_from(_SPLICE_BASES)))
    for _ in range(draw(st.integers(1, 6))):
        pos = draw(st.integers(0, len(data)))
        data[pos:pos] = draw(st.sampled_from(_SPLICES))
    return bytes(data)


@given(spliced_documents())
@settings(max_examples=300, deadline=None)
def test_scan_matches_five_pass_scan_on_spliced_keywords(data):
    assert_same_as_five_pass_scan(data)


# -- /Filter and /DecodeParms spellings ----------------------------------------

_PLAIN_TEXT = b"the bytes under a filter chain"
_UP_ROWS = bytes([2, 1, 2, 3, 4, 2, 1, 1, 1, 1])  # two PNG Up rows of four bytes
_HEX_ROWS = b"\x006869\x002121"  # two PNG None rows holding the hex digits of "hi!!"
_PNG_PARMS = b"<< /Predictor 12 /Columns 4 >>"

# name -> (stream dictionary, raw bytes, decoded bytes or None)
_FILTER_ENTRIES = {
    "no-filter": (b"<< >>", _PLAIN_TEXT, _PLAIN_TEXT),
    "name": (b"<< /Filter /FlateDecode >>", zlib.compress(_PLAIN_TEXT), _PLAIN_TEXT),
    "alias": (b"<< /Filter /Fl >>", zlib.compress(_PLAIN_TEXT), _PLAIN_TEXT),
    "empty-list": (b"<< /Filter [] >>", _PLAIN_TEXT, _PLAIN_TEXT),
    "list": (b"<< /Filter [/FlateDecode] >>", zlib.compress(_PLAIN_TEXT), _PLAIN_TEXT),
    "list-with-ref": (b"<< /Filter [/FlateDecode 9 0 R] >>", zlib.compress(_PLAIN_TEXT), None),
    "ref": (b"<< /Filter 9 0 R >>", zlib.compress(_PLAIN_TEXT), None),
    "int": (b"<< /Filter 5 >>", _PLAIN_TEXT, None),
    "dict": (b"<< /Filter << /F /FlateDecode >> >>", zlib.compress(_PLAIN_TEXT), None),
    "asciihex-flate": (
        b"<< /Filter [/ASCIIHexDecode /FlateDecode] >>",
        zlib.compress(_PLAIN_TEXT).hex().encode() + b">",
        _PLAIN_TEXT,
    ),
    "dct": (b"<< /Filter /DCTDecode >>", b"\xff\xd8\xff\xe0", None),
    "unknown": (b"<< /Filter /NoSuchFilter >>", _PLAIN_TEXT, None),
    "params-int": (b"<< /Filter /FlateDecode /DecodeParms 5 >>", zlib.compress(_PLAIN_TEXT), _PLAIN_TEXT),
    "params-list": (
        b"<< /Filter [/AHx /Fl] /DecodeParms [null " + _PNG_PARMS + b"] >>",
        zlib.compress(_UP_ROWS).hex().encode() + b">",
        bytes([1, 2, 3, 4, 2, 3, 4, 5]),
    ),
    "dp-png": (
        b"<< /Filter /FlateDecode /DP " + _PNG_PARMS + b" >>",
        zlib.compress(_UP_ROWS),
        bytes([1, 2, 3, 4, 2, 3, 4, 5]),
    ),
    # One dictionary belongs to the first filter: the predictor runs on
    # Flate's output, before ASCIIHex.
    "one-dict-two-filters": (
        b"<< /Filter [/FlateDecode /ASCIIHexDecode] /DecodeParms " + _PNG_PARMS + b" >>",
        zlib.compress(_HEX_ROWS),
        b"hi!!",
    ),
}


@pytest.mark.parametrize(
    "dictionary, raw, expected", list(_FILTER_ENTRIES.values()), ids=list(_FILTER_ENTRIES)
)
def test_filter_entry_decodes_as_the_former_decode(dictionary, raw, expected):
    pdf = assemble_pdf([stream_body(dictionary, raw)])
    doc = parse_pdf(pdf)
    former = parser_reference.FormerDecodeParser(pdf).parse()
    assert doc.objects[(1, 0)].decoded == former.objects[(1, 0)].decoded == expected
    assert doc.diagnostics == former.diagnostics


@pytest.mark.parametrize("entry", ["list-with-ref", "ref", "int", "dict"])
def test_unusable_filter_entry_is_one_decode_error(entry):
    dictionary, raw, _ = _FILTER_ENTRIES[entry]
    doc = parse_pdf(assemble_pdf([stream_body(dictionary, raw)]))
    assert [(d.kind, d.detail) for d in doc.diagnostics] == [
        (DiagnosticKind.DECODE_ERROR, "unusable /Filter entry")
    ]
