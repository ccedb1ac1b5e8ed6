"""Feature schema and extraction: frozen counts, entropy oracles, properties."""

import importlib.util
import math
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdfmlp import (
    N_FEATURES,
    SCHEMA_ID,
    Dataset,
    describe_schema,
    extract_features,
    parse_pdf,
    shannon_entropy,
    write_features_csv,
)
from pdfmlp import features
from pdfmlp.features import (
    CATEGORIES,
    FeatureVector,
    _byte_counts,
    _info_dict,
    _info_string_values,
    _longest_hex_run,
    _obfuscation_score,
)
from pdfmlp.pdf import MAX_NESTING_DEPTH, DiagnosticKind, PdfDocument, PdfName, PdfRef, PdfStream, PdfString

from pdfbuild import assemble_pdf, long_number_pdfs, minimal_pdf, pdf_with_stream, stream_body
import features_reference
from costs import best_time, traced_peak
from test_parser import _bomb_stream_pdf, assert_same_name_counts_as_recursive_walk


def extract(raw: bytes) -> FeatureVector:
    return extract_features(parse_pdf(raw), raw)


# -- schema ------------------------------------------------------------------


def test_schema_has_48_unique_descriptors():
    schema = describe_schema()
    assert len(schema.descriptors) == 48
    assert len({d.name for d in schema.descriptors}) == 48
    assert schema.schema_id == SCHEMA_ID


def test_schema_covers_all_four_categories():
    counts = describe_schema().category_counts()
    assert set(counts) == set(CATEGORIES)
    assert all(v > 0 for v in counts.values())
    assert sum(counts.values()) == 48
    assert counts == {
        "structure": 12,
        "object-properties": 16,
        "content-stats": 14,
        "metadata": 6,
    }


def test_schema_stable_between_calls():
    assert describe_schema() == describe_schema()


# -- shannon entropy -----------------------------------------------------------


def test_entropy_single_symbol():
    assert shannon_entropy(b"\x00" * 1024) == 0.0


def test_entropy_of_one_byte_value_is_positive_zero(tmp_path):
    # A zero sum negated is -0.0, which the feature CSV writes as "-0".
    assert math.copysign(1.0, shannon_entropy(b"aaaa")) == 1.0
    vec = extract(pdf_with_stream(b"a" * 64))
    assert math.copysign(1.0, vec["entropy_streams"]) == 1.0
    path = tmp_path / "features.csv"
    write_features_csv(
        str(path), Dataset(features=vec.values[None, :], labels=np.array([0]), paths=["a.pdf"])
    )
    row = path.read_text(encoding="utf-8").splitlines()[1].split(",")
    assert "-0" not in row


def test_entropy_uniform_bytes():
    assert shannon_entropy(bytes(range(256))) == pytest.approx(8.0, abs=1e-12)


def test_entropy_two_symbols():
    # two symbols at p=0.5: -2 * 0.5 * log2(0.5) = 1 bit
    assert shannon_entropy(b"aabb") == pytest.approx(1.0, abs=1e-12)


def test_entropy_empty_is_zero():
    assert shannon_entropy(b"") == 0.0


@given(st.binary(max_size=4096))
@settings(max_examples=80, deadline=None)
def test_entropy_bounds(data):
    h = shannon_entropy(data)
    assert 0.0 <= h <= 8.0
    if len(set(data)) <= 1:
        assert h == 0.0
    else:
        assert h > 0.0


def test_entropy_matches_direct_sum():
    data = b"abracadabra" * 7
    counts = {b: data.count(bytes([b])) for b in set(data)}
    expected = -sum(
        (c / len(data)) * math.log2(c / len(data)) for c in counts.values()
    )
    assert shannon_entropy(data) == pytest.approx(expected, abs=1e-12)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_byte_counts_equal_one_whole_buffer_count(data):
    chunk = data.draw(st.integers(1, 7), label="chunk")
    size = data.draw(st.integers(0, 4 * chunk + 1), label="size")
    buffer = data.draw(st.binary(min_size=size, max_size=size), label="buffer")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(features, "_COUNT_CHUNK", chunk)
        counts = _byte_counts(buffer)
    expected = np.bincount(np.frombuffer(buffer, dtype=np.uint8), minlength=256)
    assert counts.dtype == expected.dtype
    np.testing.assert_array_equal(counts, expected)


def test_extraction_memory_does_not_grow_with_what_a_stream_decodes_to():
    # ~61 KiB of deflate that inflates to 60 MiB, under the decoding cap.
    # Counting the 60 MiB in one np.bincount, which widens every byte to an
    # int64, peaked at 480 MiB; 1 MiB at a time it peaked at ~8 MiB, and
    # 64 KiB at a time it peaks at ~0.5 MiB.
    raw = _bomb_stream_pdf(b"/FlateDecode", zlib.compress(bytes(60 << 20), 9))
    doc = parse_pdf(raw)
    assert len(doc.objects[(3, 0)].decoded) == 60 << 20
    vector, peak = traced_peak(lambda: extract_features(doc, raw))
    assert vector["entropy_stream_max"] == 0.0
    assert peak < 2 << 20


def _annotations_pdf(seed: int, count: int, streams: bool) -> bytes:
    """count /Annot dictionaries of 2,000 random letters, each with a content
    stream of the same letters when streams is set."""
    rng = np.random.default_rng(seed)
    bodies = [b"<< /Type /Catalog /Pages 2 0 R >>", b"<< /Type /Pages /Kids [] /Count 0 >>"]
    for _ in range(count):
        text = rng.integers(97, 123, size=2000).astype(np.uint8).tobytes()
        bodies.append(b"<< /Type /Annot /Contents (" + text + b") >>")
        if streams:
            bodies.append(stream_body(b"<< >>", b"BT (" + text + b") Tj ET"))
    return assemble_pdf(bodies)


def test_extraction_memory_does_not_grow_with_the_file():
    # A 1.2 MiB file, about half of it outside streams.  Counting it 1 MiB at
    # a time added ~8.7 MiB, and 64 KiB at a time ~1.2 MiB, most of it one
    # copy of the bytes between streams.  Counted where they lie, with no
    # copy, it adds ~0.6 MiB.
    raw = _annotations_pdf(7, 300, streams=True)
    assert len(raw) >= 1 << 20
    doc = parse_pdf(raw)
    vector, peak = traced_peak(lambda: extract_features(doc, raw))
    assert vector["stream_count"] == 300
    assert peak < 1 << 20


def test_extraction_memory_does_not_grow_with_a_streamless_file():
    # ~4 MiB of dictionaries and no stream.  Joining the bytes between streams
    # into one buffer copied the whole file, ~4.6 MiB traced; counted where
    # they lie, they add ~0.6 MiB.
    raw = _annotations_pdf(11, 2000, streams=False)
    assert len(raw) >= 3 << 20
    doc = parse_pdf(raw)
    vector, peak = traced_peak(lambda: extract_features(doc, raw))
    assert vector["stream_count"] == 0
    assert vector["entropy_outside_streams"] == vector["entropy_file"]
    assert peak < 1 << 20


def assert_outside_stream_entropy_equals_the_reference(data):
    # Real parses give sorted, disjoint spans; these may be unsorted,
    # overlapping, nested, empty or run past either end of the input.
    raw = data.draw(st.binary(max_size=64), label="raw")
    bound = st.integers(0, len(raw) + 2)
    spans = data.draw(st.lists(st.tuples(bound, bound), max_size=6), label="spans")
    streams = [PdfStream({}, b"", span=span) for span in spans]
    streams.append(PdfStream({}, b"x"))  # unpacked from an object stream: no span
    expected = features_reference._entropy_outside_streams(raw, streams)
    assert features._entropies(raw, streams)[2] == expected


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_outside_stream_entropy_equals_the_reference_on_any_spans(data):
    assert_outside_stream_entropy_equals_the_reference(data)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_outside_stream_entropy_equals_the_reference_counted_in_small_pieces(data):
    # Chunks of 1-16 bytes make each gap counted in several pieces, all in one
    # input of at most 64 bytes.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(features, "_COUNT_CHUNK", data.draw(st.integers(1, 16), label="chunk"))
        assert_outside_stream_entropy_equals_the_reference(data)


# -- extraction on handcrafted documents ----------------------------------------


def test_minimal_benign_pdf():
    raw = minimal_pdf()
    v = extract(raw)
    assert v["count_javascript"] == 0
    assert v["count_js"] == 0
    assert v["page_count"] == 1
    assert v["count_embeddedfile"] == 0
    assert v["decode_failure_count"] == 0
    assert v["file_size"] == len(raw)
    assert v["object_count"] == 3
    assert v["stream_count"] == 0
    assert v["trailer_count"] == 1
    assert v["startxref_count"] == 1
    assert v["eof_count"] == 1
    assert v["diagnostic_count"] == 0
    assert v["header_version"] == pytest.approx(1.4)
    assert v["js_present"] == 0


def test_empty_input_degenerates_to_zeros():
    v = extract(b"")
    assert v["file_size"] == 0
    assert v["object_count"] == 0
    for name in ("entropy_file", "entropy_streams", "entropy_outside_streams", "entropy_stream_max"):
        assert v[name] == 0.0
    for d in describe_schema().descriptors:
        if d.category == "object-properties":
            assert v[d.name] == 0
    # parsing noted the degenerate input; that is the one nonzero signal
    assert v["diagnostic_count"] == 1


def test_javascript_with_obfuscated_payload():
    payload = b"eval(unescape('%41%42')); x.charCodeAt(0); String.fromCharCode(66)"
    raw = assemble_pdf(
        [
            b"<< /Type /Catalog /Pages 2 0 R /OpenAction 3 0 R >>",
            b"<< /Type /Pages /Kids [] /Count 0 >>",
            b"<< /S /JavaScript /JS (" + payload + b") >>",
        ]
    )
    v = extract(raw)
    assert v["js_present"] == 1
    assert v["count_javascript"] == 1
    assert v["count_openaction"] == 1
    assert v["js_obfuscation_score"] >= 2
    assert v["js_obfuscation_score"] == 4


def test_javascript_payload_in_stream_object():
    js = b"var s = unescape('%u9090'); eval(s);"
    raw = assemble_pdf(
        [
            b"<< /Type /Catalog /Pages 2 0 R >>",
            b"<< /Type /Pages /Kids [] /Count 0 >>",
            b"<< /S /JavaScript /JS 4 0 R >>",
            stream_body(b"<< >>", zlib.compress(js))[:0]
            + stream_body(b"<< /Filter /FlateDecode >>", zlib.compress(js)),
        ]
    )
    v = extract(raw)
    assert v["js_obfuscation_score"] == 2
    assert v["filter_flate_count"] == 1


def test_stream_accounting():
    data = b"stream content here!" * 4
    raw = pdf_with_stream(data)
    v = extract(raw)
    assert v["stream_count"] == 1
    assert v["stream_size_max"] == len(data)
    assert v["stream_size_mean"] == len(data)
    assert 0 < v["stream_file_ratio"] < 1
    assert v["entropy_stream_max"] == pytest.approx(shannon_entropy(data))
    assert v["entropy_streams"] == pytest.approx(shannon_entropy(data))


def test_outside_stream_entropy_excludes_stream_bytes():
    # A maximally random stream should not contaminate the outside entropy.
    noise = bytes(range(256)) * 2
    raw = pdf_with_stream(noise)
    doc = parse_pdf(raw)
    span = doc.objects[(4, 0)].span
    outside = raw[: span[0]] + raw[span[1] :]
    v = extract(raw)
    assert v["entropy_outside_streams"] == pytest.approx(shannon_entropy(outside))


def test_decode_failure_and_filter_counts():
    raw = assemble_pdf(
        [
            b"<< /Type /Catalog /Pages 2 0 R >>",
            b"<< /Type /Pages /Kids [] /Count 0 >>",
            stream_body(b"<< /Filter /DCTDecode >>", b"\xff\xd8 jpeg-ish"),
            stream_body(b"<< /Filter [/ASCIIHexDecode /FlateDecode] >>", b"not hex!"),
        ]
    )
    v = extract(raw)
    assert v["decode_failure_count"] == 2
    assert v["filter_other_count"] == 1  # DCTDecode
    assert v["filter_ascii_count"] == 1
    assert v["filter_flate_count"] == 1
    assert v["filter_cascade_count"] == 1
    assert v["diagnostic_count"] == 2


def test_encrypt_flag_counted_from_trailer():
    raw = assemble_pdf(
        [
            b"<< /Type /Catalog /Pages 2 0 R >>",
            b"<< /Type /Pages /Kids [] /Count 0 >>",
            b"<< /V 1 >>",
        ],
        trailer_extra=b"/Encrypt 3 0 R ",
    )
    assert extract(raw)["count_encrypt"] == 1


def test_info_metadata_features():
    long_tag = b"Z" * 300  # Z is not a hex digit, so only its length matters
    hexish = b"prefix" + b"DEADBEEF" * 8 + b"suffix"
    raw = assemble_pdf(
        [
            b"<< /Type /Catalog /Pages 2 0 R >>",
            b"<< /Type /Pages /Kids [] /Count 0 >>",
            b"<< /Title (" + hexish + b") /Author (" + long_tag + b") >>",
        ],
        info=3,
    )
    v = extract(raw)
    assert v["info_present"] == 1
    assert v["info_total_bytes"] == len(hexish) + len(long_tag)
    assert v["info_long_tag_count"] == 1
    assert v["metadata_hex_run_max"] == 64


_HEX_PIECES = st.one_of(
    st.binary(max_size=4),
    st.sampled_from([b"0", b"9", b"a", b"f", b"A", b"F", b"g", b"G", b" ", b"\x00", b"\xff"]),
    st.integers(1, 40).map(lambda n: b"c0ffee"[: n % 7] * (n // 7 + 1)),
)


@given(st.lists(st.lists(_HEX_PIECES, max_size=10).map(b"".join), max_size=4))
@settings(max_examples=300, deadline=None)
def test_longest_hex_run_matches_per_byte_scan(strings):
    info = {PdfName(f"/K{i}"): PdfString(data) for i, data in enumerate(strings)}
    info[PdfName("/N")] = 12345678  # a value that is no string is not scanned
    assert _longest_hex_run(_info_string_values(info)) == features_reference._longest_hex_run(info)
    assert _longest_hex_run([]) == features_reference._longest_hex_run(None) == 0


def test_long_hex_info_string_is_scanned_in_bounded_time():
    # Translate and split take ~2.5-4.5 ms on these 2 MiB, the former
    # per-byte scan 90-160 ms (2-core VM, Python 3.11).
    strings = [b"0123456789abcdef" * (1 << 17)]
    assert _longest_hex_run(strings) == 1 << 21
    assert best_time(lambda: _longest_hex_run(strings)) < 0.02


def test_page_count_falls_back_to_pages_count_entry():
    raw = assemble_pdf(
        [
            b"<< /Type /Catalog /Pages 2 0 R >>",
            b"<< /Type /Pages /Kids [] /Count 17 >>",
        ]
    )
    assert extract(raw)["page_count"] == 17


_PAGES_3 = b"<< /Type /Pages /Kids [] /Count 3 >>"


@pytest.mark.parametrize(
    "count, more, pages",
    [(b"true", [], 0), (b"true", [_PAGES_3], 3), (b"false", [_PAGES_3], 3)],
    ids=["true", "true-then-3", "false-then-3"],
)
def test_page_count_skips_a_boolean_count(count, more, pages):
    tree = b"<< /Type /Pages /Kids [] /Count " + count + b" >>"
    raw = assemble_pdf([b"<< /Type /Catalog /Pages 2 0 R >>", tree, *more])
    assert extract(raw)["page_count"] == pages


def test_long_numbers_keep_extraction_total():
    docs = long_number_pdfs()
    integer = extract(docs["long-integer.pdf"])
    assert integer["count_javascript"] == 1
    assert integer["page_count"] == 1
    version = extract(docs["long-version.pdf"])
    assert version["header_version"] == 0.0
    # the root tree's /Count overflows a float and is skipped like a non-integer
    assert extract(docs["long-count.pdf"])["page_count"] == 3


def test_xmp_presence():
    raw = assemble_pdf(
        [
            b"<< /Type /Catalog /Pages 2 0 R /Metadata 3 0 R >>",
            b"<< /Type /Pages /Kids [] /Count 0 >>",
            stream_body(b"<< /Type /Metadata /Subtype /XML >>", b"<x:xmpmeta/>"),
        ]
    )
    assert extract(raw)["xmp_present"] == 1
    assert extract(minimal_pdf())["xmp_present"] == 0


def test_bytes_after_last_eof():
    raw = minimal_pdf() + b"TRAILING GARBAGE"
    v = extract(raw)
    # builder ends with "%%EOF\n": newline plus the appended garbage
    assert v["bytes_after_last_eof"] == 1 + len(b"TRAILING GARBAGE")


# -- properties -----------------------------------------------------------------


def test_extraction_is_deterministic():
    raw = pdf_with_stream(b"deterministic?")
    a = extract(raw)
    b = extract(raw)
    assert np.array_equal(a.values, b.values)


def test_appending_javascript_object_is_monotone():
    base = minimal_pdf()
    addition = b"\n9 0 obj\n<< /S /JavaScript /JS (alert(1)) >>\nendobj\n"
    before = extract(base)
    after = extract(base + addition)
    assert after["count_javascript"] >= before["count_javascript"]
    assert after["count_javascript"] == before["count_javascript"] + 1


@given(st.binary(max_size=800))
@settings(max_examples=100, deadline=None)
def test_extraction_total_and_valid(data):
    v = extract(data)
    assert v.values.shape == (N_FEATURES,)
    assert np.all(np.isfinite(v.values))
    counts_ok = [d.name for d in describe_schema().descriptors if d.unit == "count"]
    for name in counts_ok:
        assert v[name] >= 0
    for name in ("entropy_file", "entropy_streams", "entropy_outside_streams", "entropy_stream_max"):
        assert 0.0 <= v[name] <= 8.0


def test_feature_vector_rejects_wrong_shape():
    with pytest.raises(ValueError):
        FeatureVector(values=np.zeros(47))
    with pytest.raises(ValueError):
        FeatureVector(values=np.full(48, np.nan))


# -- the extractor against its former code ----------------------------------------


def assert_same_as_former_extractor(doc, raw):
    values = extract_features(doc, raw).values
    assert values.tobytes() == features_reference.extract_features(doc, raw).tobytes()


def test_features_match_the_former_extractor_on_fuzz_corpus(fuzz_corpus):
    for data, doc, _ in fuzz_corpus:
        assert_same_as_former_extractor(doc, data)
    for data in long_number_pdfs().values():
        assert_same_as_former_extractor(parse_pdf(data), data)


def _with_trailers(bodies, trailers):
    """Objects 1..n, then one trailer per entry of ``trailers``; no xref table."""
    out = b"%PDF-1.7\n"
    for number, body in enumerate(bodies, start=1):
        out += b"%d 0 obj\n" % number + body + b"\nendobj\n"
    for entries in trailers:
        out += b"trailer\n<< " + entries + b" >>\n"
    return out + b"startxref\n0\n%%EOF\n"


_CATALOGS = [
    b"<< /Type /Catalog /Pages 3 0 R /Metadata 5 0 R >>",
    b"<< /Type /Catalog /Pages 4 0 R >>",
    b"<< /Type /Pages /Kids [] /Count 7 >>",
    b"<< /Type /Pages /Kids [] /Count 9 >>",
    stream_body(b"<< /Subtype /XML >>", b"<x:xmpmeta/>"),
]
_BYTES = bytes(range(64)) * 2
_SPANS = PdfDocument(
    objects={
        (1, 0): PdfStream({}, b"", span=(10, 10)),
        (2, 0): PdfStream({}, _BYTES[10:30], span=(10, 30)),
        (3, 0): PdfStream({}, _BYTES[30:50], span=(30, 50)),  # adjacent to the one before
        (4, 0): PdfStream({}, _BYTES[40:45], span=(40, 45)),  # inside the one before
        (5, 0): PdfStream({}, b"unpacked", decoded=b""),  # from an object stream: no span
        (6, 0): PdfStream({}, _BYTES[100:], span=(100, 128)),  # ends the input
    },
    total_size=len(_BYTES),
)
_FORMER_EXTRACTOR_CASES = {
    # (document, raw bytes, the features that make the case)
    "last-root-wins": (
        _with_trailers(_CATALOGS, [b"/Root 1 0 R", b"/Size 6", b"/Root 2 0 R", b"/Size 6"]),
        {"trailer_count": 4, "page_count": 9, "xmp_present": 1},  # xmp from the first root
    ),
    "last-root-is-dangling": (
        _with_trailers(_CATALOGS, [b"/Root 2 0 R", b"/Root 99 0 R", b"/Size 6"]),
        {"trailer_count": 3, "page_count": 7, "xmp_present": 0},  # first /Pages object
    ),
    "no-trailer-has-a-root": (
        _with_trailers(_CATALOGS[1:], [b"/Size 5", b"/Info 9 0 R"]),
        {"trailer_count": 2, "page_count": 7, "xmp_present": 0},
    ),
    "indirect-filters": (
        assemble_pdf([
            b"<< /Type /Catalog /Pages 2 0 R >>",
            b"<< /Type /Pages /Kids [] /Count 0 >>",
            stream_body(b"<< /Filter 7 0 R >>", zlib.compress(b"hello")),
            stream_body(b"<< /Filter [8 0 R /ASCIIHexDecode 99 0 R 7 0 R] >>", b"00ff>"),
            stream_body(b"<< /Filter 9 0 R >>", b"x"),
            stream_body(b"<< /Filter 42 >>", b""),
            b"/FlateDecode",
            b"/A85",
            b"[/FlateDecode 8 0 R /DCTDecode]",
        ]),
        {"filter_flate_count": 3, "filter_ascii_count": 3, "filter_other_count": 1,
         "filter_cascade_count": 2, "stream_count": 4},
    ),
    "empty-adjacent-nested-and-unplaced-spans": (
        (_SPANS, _BYTES),
        {"stream_count": 6, "entropy_outside_streams": shannon_entropy(_BYTES[:10] + _BYTES[50:100])},
    ),
    "xref-stream": (
        assemble_pdf(
            [
                b"<< /Type /Catalog /Pages 2 0 R >>",
                b"<< /Type /Pages /Kids [] /Count 4 >>",
                stream_body(b"<< /Type /XRef /W [1 2 1] /Size 5 /Root 1 0 R /Info 4 0 R >>", bytes(16)),
                b"<< /Title (feed) /Producer <DEADBEEF0123> >>",
            ],
            info=4,
        ),
        {"trailer_count": 2, "page_count": 4, "metadata_hex_run_max": 4},
    ),
    "bytes-after-the-last-stream": (
        pdf_with_stream(bytes(range(256))) + b"tail bytes \x00\xff",
        {"stream_count": 1, "entropy_stream_max": 8.0},
    ),
    "typed-metadata-stream-outside-the-root": (
        assemble_pdf([
            b"<< /Type /Catalog /Pages 2 0 R >>",
            b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
            stream_body(b"<< /Type /Metadata >>", b""),
        ]),
        {"xmp_present": 1, "page_count": 1},
    ),
}


@pytest.mark.parametrize("name", sorted(_FORMER_EXTRACTOR_CASES))
def test_features_match_the_former_extractor_on_hand_built_documents(name):
    source, expected = _FORMER_EXTRACTOR_CASES[name]
    doc, raw = source if isinstance(source, tuple) else (parse_pdf(source), source)
    assert_same_as_former_extractor(doc, raw)
    vector = extract_features(doc, raw)
    assert {key: vector[key] for key in expected} == expected


# -- the domain of each unit -------------------------------------------------------


def _whole(v):
    return (v >= 0) & (v == np.floor(v))


# What each unit allows; stream_size_mean is a mean of byte lengths, so it
# may be fractional.
_UNIT_DOMAINS = {
    "count": _whole,
    "chars": _whole,
    "levels": _whole,
    "bytes": _whole,
    "bits": lambda v: (v >= 0) & (v <= 8),
    "flag": lambda v: (v == 0) | (v == 1),
    "ratio": lambda v: (v >= 0) & (v <= 1),  # top-level stream extents are disjoint
    "version": lambda v: (v >= 0) & np.isfinite(v),
}
_FEATURE_DOMAINS = {"stream_size_mean": lambda v: v >= 0}


def assert_features_in_their_domains(matrix):
    """Every column of an (n, 48) feature matrix lies in its unit's domain."""
    assert not np.any((matrix == 0) & np.signbit(matrix)), "a negative zero"
    for i, d in enumerate(describe_schema().descriptors):
        inside = _FEATURE_DOMAINS.get(d.name, _UNIT_DOMAINS[d.unit])(matrix[:, i])
        assert inside.all(), f"{d.name} [{d.unit}]: {sorted(set(matrix[~inside, i]))[:5]}"


def test_every_feature_lies_in_its_units_domain(fuzz_corpus, corpus):
    vectors = [extract_features(doc, data).values for data, doc, _ in fuzz_corpus]
    for path in sorted(corpus["root"].rglob("*.pdf")):
        vectors.append(extract(path.read_bytes()).values)
    for source, _ in _FORMER_EXTRACTOR_CASES.values():
        doc, raw = source if isinstance(source, tuple) else (parse_pdf(source), source)
        vectors.append(extract_features(doc, raw).values)
    assert len(vectors) == 10_000 + 40 + len(_FORMER_EXTRACTOR_CASES)
    assert_features_in_their_domains(np.array(vectors))


@pytest.fixture(scope="module")
def perfbench_documents(tmp_path_factory):
    """One document of each of perfbench's 11 kinds, by kind, from its builders."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "path", list(sys.path))  # the module prepends src and tests
        spec.loader.exec_module(inputs)
    kinds = [kind for kind, _, _ in inputs.EXTRACT_KINDS] + ["scan-medium"]
    rng = np.random.default_rng(1)
    cache = tmp_path_factory.mktemp("perfbench")
    return {kind: inputs.build_document(kind, rng, cache) for kind in kinds}


def test_every_perfbench_kind_lies_in_its_units_domain(perfbench_documents):
    vectors = [extract(data).values for data in perfbench_documents.values()]
    assert len(vectors) == 11
    assert_features_in_their_domains(np.array(vectors))


@pytest.mark.parametrize(
    "column, value",
    [("file_size", 1.5), ("entropy_file", 8.5), ("js_present", 2.0), ("stream_file_ratio", 1.01),
     ("stream_size_mean", -1.0), ("page_count", -0.0)],
)
def test_a_value_outside_its_domain_is_caught(column, value):
    matrix = np.zeros((2, N_FEATURES))
    assert_features_in_their_domains(matrix)
    matrix[1, describe_schema().index_of(column)] = value
    with pytest.raises(AssertionError):
        assert_features_in_their_domains(matrix)


# -- an edit and how each feature responds ------------------------------------------


def append_incremental_update(data, doc, body=b"<< /Note (appended) >>"):
    """data and one incremental update: an object numbered past every object
    of doc, an xref section for it, a trailer, startxref and %%EOF."""
    number = max((n for n, _ in doc.objects), default=0) + 1
    obj = b"\n%d 0 obj\n%s\nendobj\n" % (number, body)
    xref = b"xref\n0 1\n0000000000 65535 f \n%d 1\n%010d 00000 n \n" % (number, len(data) + 1)
    trailer = b"trailer\n<< /Size %d >>\nstartxref\n%d\n%%%%EOF\n" % (number + 1, len(data) + len(obj))
    return data + obj + xref + trailer


# Each feature's response to an update that adds one object with no counted
# name: "+1" exactly, ">=" non-decreasing, "=" unchanged, or "any".  A feature
# not named is unchanged: page_count and the 16 name counts among them.
_UPDATE_RESPONSES = {
    **dict.fromkeys((d.name for d in describe_schema().descriptors), "="),
    **dict.fromkeys(("object_count", "xref_section_count", "trailer_count", "startxref_count", "eof_count"), "+1"),
    **dict.fromkeys(("file_size", "max_nesting_depth"), ">="),
    **dict.fromkeys(("bytes_after_last_eof", "entropy_file", "entropy_outside_streams", "stream_file_ratio"), "any"),
}
# A document with a `truncated` diagnostic ends inside a value, which takes
# the update in: no count moves, and an unterminated stream grows.
_TRUNCATED_UPDATE_RESPONSES = {
    **_UPDATE_RESPONSES,
    **{name: "=" for name, response in _UPDATE_RESPONSES.items() if response == "+1"},
    **dict.fromkeys(("stream_size_mean", "stream_size_max"), ">="),
    **dict.fromkeys(("entropy_streams", "entropy_stream_max"), "any"),
}
_RESPONDS = {
    "+1": lambda before, after: after == before + 1,
    ">=": lambda before, after: after >= before,
    "=": lambda before, after: after == before,
    "any": lambda before, after: True,
}


def assert_update_responses_hold(data, body=b"<< /Note (appended) >>"):
    """The declared response of every feature to one appended update; True if data is truncated."""
    doc = parse_pdf(data)
    truncated = doc.diagnostic_count(DiagnosticKind.TRUNCATED) > 0
    before = extract_features(doc, data).values
    after = extract(append_incremental_update(data, doc, body)).values
    responses = _TRUNCATED_UPDATE_RESPONSES if truncated else _UPDATE_RESPONSES
    names = [d.name for d in describe_schema().descriptors]
    wrong = {name: (b, a) for name, b, a in zip(names, before, after) if not _RESPONDS[responses[name]](b, a)}
    assert not wrong, wrong
    return truncated


def test_an_appended_update_moves_each_feature_as_declared_on_the_corpus(corpus):
    paths = sorted(corpus["root"].rglob("*.pdf"))
    assert len(paths) == 40
    assert not any(assert_update_responses_hold(path.read_bytes()) for path in paths)


def test_an_appended_update_moves_each_feature_as_declared_on_every_perfbench_kind(perfbench_documents):
    truncated = [kind for kind, data in perfbench_documents.items() if assert_update_responses_hold(data)]
    assert truncated == ["truncated"]


def test_an_update_that_adds_a_counted_name_breaks_the_relation():
    with pytest.raises(AssertionError, match="count_js"):
        assert_update_responses_hold(minimal_pdf(), body=b"<< /JS (x) >>")


# -- the feature blocks --------------------------------------------------------

# Each block function, with the first and last feature of its schema range.
_BLOCKS = {
    "_structure": ("file_size", "diagnostic_count"),
    "_names": ("count_javascript", "count_action"),
    "_entropies": ("entropy_file", "entropy_stream_max"),
    "_sizes_and_filters": ("stream_size_mean", "js_obfuscation_score"),
    "_metadata": ("page_count", "js_present"),
}


def _block_range(block):
    first, last = _BLOCKS[block]
    return describe_schema().index_of(first), describe_schema().index_of(last) + 1


def _block_documents(fuzz_corpus):
    """The hand-built cases and the first 300 fuzzed documents, as (doc, raw)."""
    for source, _ in _FORMER_EXTRACTOR_CASES.values():
        yield source if isinstance(source, tuple) else (parse_pdf(source), source)
    for data, doc, _ in fuzz_corpus[:300]:
        yield doc, data


def test_feature_blocks_cover_the_schema_in_order():
    ranges = [_block_range(block) for block in _BLOCKS]
    assert [hi - lo for lo, hi in ranges] == [12, 16, 4, 10, 6]
    assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
    assert sum(hi - lo for lo, hi in ranges) == N_FEATURES


@pytest.mark.parametrize("block", _BLOCKS)
def test_each_block_runs_once_through_its_module_global_and_fills_its_range(monkeypatch, fuzz_corpus, block):
    original = getattr(features, block)
    returned = []

    def counted(*args):
        returned.append(original(*args))
        return returned[-1]

    monkeypatch.setattr(features, block, counted)
    lo, hi = _block_range(block)
    for calls, (doc, raw) in enumerate(_block_documents(fuzz_corpus), start=1):
        values = extract_features(doc, raw).values
        assert len(returned) == calls
        assert len(returned[-1]) == hi - lo
        assert np.array(returned[-1], dtype=np.float64).tobytes() == values[lo:hi].tobytes()


def test_names_block_makes_17_name_lookups_per_document(monkeypatch, fuzz_corpus):
    original = features.iter_name_occurrences
    lookups = []

    def counted(doc, name):
        lookups.append(name)
        return original(doc, name)

    monkeypatch.setattr(features, "iter_name_occurrences", counted)
    for calls, (doc, raw) in enumerate(_block_documents(fuzz_corpus), start=1):
        extract_features(doc, raw)
        assert len(lookups) == 17 * calls
    assert lookups[:17] == [n for names in features._COUNTED_NAMES for n in names]


# -- the graph walk ------------------------------------------------------------


def graph_facts(doc):
    """max_nesting_depth and js_obfuscation_score as the extractor takes them."""
    return doc._graph.depth, _obfuscation_score(doc)


def test_graph_facts_match_former_walks_on_fuzz_corpus(fuzz_corpus):
    for _, doc, _ in fuzz_corpus:
        assert graph_facts(doc) == features_reference.graph_facts(doc)
        info = _info_dict(doc)
        assert _longest_hex_run(_info_string_values(info)) == features_reference._longest_hex_run(info)


def test_graph_matches_the_recursive_walks_on_every_perfbench_kind(perfbench_documents):
    for kind, data in perfbench_documents.items():
        doc = parse_pdf(data)
        assert graph_facts(doc) == features_reference.graph_facts(doc), kind
        assert_same_name_counts_as_recursive_walk(doc, set(doc._graph.names))


def _nested(depth, leaf):
    """leaf inside depth containers, dicts and lists in turn."""
    value = leaf
    for level in range(depth):
        value = [value] if level % 2 else {PdfName("/K"): value}
    return value


_EVAL = PdfString(b"eval(unescape(x))")  # two tokens
_JS_DICT = {PdfName("/S"): PdfName("/JavaScript"), PdfName("/JS"): _EVAL}
_XREF = {PdfName("/Type"): PdfName("/XRef"), PdfName("/W"): [1, 2, 1], PdfName("/JS"): _EVAL}
_GRAPH_CASES = {
    # (document, expected max_nesting_depth, js_obfuscation_score, count of /JS)
    "stream-at-root-and-nested": (
        PdfDocument(objects={
            (1, 0): PdfStream({PdfName("/Length"): 0}, b""),
            (2, 0): {PdfName("/K"): [PdfStream({PdfName("/A"): [1]}, b"")]},
        }),
        5,  # dict, list, stream, its dictionary, the array in it
        0,
        0,
    ),
    "xref-stream-dictionary-is-object-and-trailer": (
        PdfDocument(objects={(1, 0): PdfStream(_XREF, b"")}, trailer_dicts=[_XREF]),
        3,
        2,  # scored once
        1,
    ),
    "deep-trailer-only-dict": (
        PdfDocument(
            objects={(1, 0): [1, 2]},
            trailer_dicts=[_nested(MAX_NESTING_DEPTH, {PdfName("/JS"): _EVAL})],
        ),
        1,
        2,
        1,
    ),
    "js-dict-reached-twice": (
        PdfDocument(
            objects={(1, 0): [_JS_DICT], (2, 0): [_JS_DICT]},
            trailer_dicts=[{PdfName("/Root"): _JS_DICT}],
        ),
        2,
        2,  # scored once
        1,
    ),
    "javascript-stream-payloads": (
        PdfDocument(objects={
            (1, 0): {PdfName("/JavaScript"): PdfRef(2, 0)},
            (2, 0): PdfStream({}, b"raw", decoded=b"eval(String.fromCharCode(1))"),
            (3, 0): {PdfName("/JavaScript"): PdfStream({}, b"x.charCodeAt(0)")},
            (4, 0): {"/JS": PdfRef(9, 0)},  # a reference to nothing scores nothing
        }),
        3,  # dict, stream, its dictionary
        3,
        0,
    ),
    "nested-to-max-depth": (
        PdfDocument(objects={
            (1, 0): _nested(MAX_NESTING_DEPTH, {PdfName("/JS"): _EVAL}),
            (2, 0): PdfStream({PdfName("/K"): _nested(MAX_NESTING_DEPTH, 1)}, b""),
        }),
        MAX_NESTING_DEPTH + 2,
        2,
        1,
    ),
    "plain-str-and-pdfname-js-keys": (
        PdfDocument(objects={
            (1, 0): {"/JS": _EVAL},  # scores, but is no name
            (2, 0): {PdfName("/JS"): PdfString(b"unescape")},
        }),
        1,
        3,
        1,
    ),
    "parsed-nesting-at-the-cap": (
        parse_pdf(assemble_pdf([
            b"[" * (MAX_NESTING_DEPTH + 1) + b"]" * (MAX_NESTING_DEPTH + 1),
            stream_body(b"<< /K " + b"[" * MAX_NESTING_DEPTH + b"]" * MAX_NESTING_DEPTH + b" >>", b""),
            b"<< /S /JavaScript /JS (eval) >>",
        ])),
        MAX_NESTING_DEPTH + 2,
        1,
        1,
    ),
}


@pytest.mark.parametrize("name", sorted(_GRAPH_CASES))
def test_graph_facts_match_former_walks_on_hand_built_documents(name):
    doc, depth, score, js_names = _GRAPH_CASES[name]
    assert graph_facts(doc) == (depth, score)
    assert features_reference.graph_facts(doc) == (depth, score)
    assert doc._graph.names["/JS"] == js_names
    assert_same_name_counts_as_recursive_walk(doc, set(doc._graph.names))


def test_shared_container_counts_at_its_first_visit():
    # parse_pdf never shares a container between objects; a hand-built
    # document can.  The walk visits object 2 first, so the shared dict is
    # at level 1 and its list at level 2; the former walk, which counted
    # every path, also reached them at levels 3 and 4 through object 1.
    shared = {PdfName("/K"): [1]}
    doc = PdfDocument(objects={(1, 0): [[shared]], (2, 0): shared})
    assert graph_facts(doc) == (2, 0)
    assert features_reference.graph_facts(doc) == (4, 0)


def assert_walk_takes_what_plain_loops_take(doc):
    """The walk's streams, /Page count and /Pages trees against loops over the object map."""
    values = list(doc.objects.values())
    types = [v.get("/Type") if isinstance(v, dict) else None for v in values]
    graph = doc._graph
    assert list(map(id, graph.streams)) == [id(v) for v in values if isinstance(v, PdfStream)]
    assert graph.pages == types.count("/Page")
    assert list(map(id, graph.trees)) == [id(v) for v, t in zip(values, types) if t == "/Pages"]


def test_walk_takes_streams_and_page_census_as_plain_loops_do(fuzz_corpus, perfbench_documents):
    for _, doc, _ in fuzz_corpus:
        assert_walk_takes_what_plain_loops_take(doc)
    for data in perfbench_documents.values():
        assert_walk_takes_what_plain_loops_take(parse_pdf(data))
    for source, _ in _FORMER_EXTRACTOR_CASES.values():
        assert_walk_takes_what_plain_loops_take(source[0] if isinstance(source, tuple) else parse_pdf(source))


_PAGE = {PdfName("/Type"): PdfName("/Page")}
_PAGES = {PdfName("/Type"): PdfName("/Pages"), PdfName("/Count"): 2}
_WALK_CASES = {
    # (document, expected stream objects, /Page count, /Pages object numbers)
    "xref-stream-dictionary-is-a-trailer": (
        PdfDocument(objects={(1, 0): _PAGES, (2, 0): PdfStream(_XREF, b""), (3, 0): _PAGE}, trailer_dicts=[_XREF]),
        [2],
        1,
        [1],
    ),
    "page-dict-nested-under-an-object": (
        PdfDocument(objects={(1, 0): {PdfName("/Kids"): [dict(_PAGE)]}, (2, 0): [_PAGES]}),
        [],
        0,
        [],
    ),
}


@pytest.mark.parametrize("name", sorted(_WALK_CASES))
def test_walk_takes_streams_and_page_census_on_hand_built_documents(name):
    doc, streams, pages, trees = _WALK_CASES[name]
    assert doc._graph.streams == [doc.objects[n, 0] for n in streams]
    assert (doc._graph.pages, doc._graph.trees) == (pages, [doc.objects[n, 0] for n in trees])
    assert_walk_takes_what_plain_loops_take(doc)


def test_page_dict_shared_by_two_objects_counts_once():
    # The former loop over the object map counted it twice.
    doc = PdfDocument(objects={(1, 0): _PAGE, (2, 0): _PAGE})
    assert doc._graph.pages == 1
    assert features_reference._page_count(doc) == 2
