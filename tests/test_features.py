"""Feature schema and extraction: frozen counts, entropy oracles, properties."""

import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdfmlp import (
    N_FEATURES,
    SCHEMA_ID,
    describe_schema,
    extract_features,
    parse_pdf,
    shannon_entropy,
)
from pdfmlp.features import CATEGORIES, FeatureVector

from pdfbuild import assemble_pdf, long_number_pdfs, minimal_pdf, pdf_with_stream, stream_body


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


def test_page_count_falls_back_to_pages_count_entry():
    raw = assemble_pdf(
        [
            b"<< /Type /Catalog /Pages 2 0 R >>",
            b"<< /Type /Pages /Kids [] /Count 17 >>",
        ]
    )
    assert extract(raw)["page_count"] == 17


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
    assert a.schema_id == b.schema_id


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
