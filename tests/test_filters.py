"""Stream filter decoders: frozen oracles and encode/decode round trips.

The encoders here live in the tests only; they exist so every supported
filter can be checked as decode(encode(x)) == x on arbitrary bytes.
"""

import base64
import binascii
import random
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import filters_reference as reference
from costs import quadrupling_ratios
from pdfmlp.pdf import filters
from pdfmlp.pdf.filters import (
    StreamDecodeError,
    UnknownFilterError,
    canonical_filter_name,
    decode_stream,
)


# -- test-side encoders ----------------------------------------------------


def encode_asciihex(data: bytes) -> bytes:
    return binascii.hexlify(data).upper() + b">"


def encode_ascii85(data: bytes) -> bytes:
    return base64.a85encode(data) + b"~>"


def encode_runlength(data: bytes) -> bytes:
    out = bytearray()
    for start in range(0, len(data), 128):
        chunk = data[start : start + 128]
        out.append(len(chunk) - 1)
        out += chunk
    out.append(128)  # EOD
    return bytes(out)


def pack_codes(codes: list[tuple[int, int]]) -> bytes:
    """(code, bit width) pairs packed high bit first, the last byte zero-padded."""
    out = bytearray()
    acc = 0
    nbits = 0
    for code, width in codes:
        acc = (acc << width) | code
        nbits += width
        while nbits >= 8:
            nbits -= 8
            out.append(acc >> nbits)
            acc &= (1 << nbits) - 1  # keep only the bits not yet written
    if nbits:
        out.append(acc << (8 - nbits))
    return bytes(out)


def encode_lzw(data: bytes, early_change: int = 1) -> bytes:
    """Minimal LZW encoder mirroring the decoder's width schedule."""
    CLEAR, EOD = 256, 257
    codes: list[tuple[int, int]] = []
    bits = 9
    mirror_size = 258  # decoder table size, drives the shared width schedule
    emitted_any = False

    def write(code: int) -> None:
        nonlocal bits, mirror_size, emitted_any
        codes.append((code, bits))
        if code == CLEAR:
            bits = 9
            mirror_size = 258
            emitted_any = False
            return
        if code == EOD:
            return
        if emitted_any:
            mirror_size += 1
        emitted_any = True
        if mirror_size + early_change >= (1 << bits) and bits < 12:
            bits += 1

    table = {bytes([i]): i for i in range(256)}
    next_code = 258
    write(CLEAR)
    w = b""
    for byte in data:
        wc = w + bytes([byte])
        if wc in table:
            w = wc
            continue
        write(table[w])
        if next_code < 4094:
            table[wc] = next_code
            next_code += 1
        else:
            write(CLEAR)
            table = {bytes([i]): i for i in range(256)}
            next_code = 258
        w = bytes([byte])
    if w:
        write(table[w])
    write(EOD)
    return pack_codes(codes)


# -- frozen oracle values ----------------------------------------------------


def test_asciihex_hand_decoded():
    # 48 65 6C 6C 6F spells Hello; hand-decoded pairwise.
    assert decode_stream(b"48656C6C6F>", ["ASCIIHexDecode"]) == b"Hello"


def test_asciihex_whitespace_and_odd_digit():
    assert decode_stream(b"4 8 6\n56C6C6F>", ["/ASCIIHexDecode"]) == b"Hello"
    # odd digit count: trailing digit is a high nibble, padded with 0
    assert decode_stream(b"7>", ["ASCIIHexDecode"]) == b"\x70"


def test_asciihex_bad_byte():
    with pytest.raises(StreamDecodeError):
        decode_stream(b"4X>", ["ASCIIHexDecode"])


def test_empty_filter_list_is_identity():
    blob = bytes(range(256))
    assert decode_stream(blob, []) == blob


def test_flate_of_repeated_bytes():
    # deflate oracle from the standard library
    raw = zlib.compress(b"A" * 1000)
    out = decode_stream(raw, ["FlateDecode"])
    assert out == b"\x41" * 1000
    assert len(out) == 1000


def test_flate_corrupt_data_fails():
    with pytest.raises(StreamDecodeError):
        decode_stream(b"this is not deflate", ["FlateDecode"])


def test_lzw_published_example():
    # Worked example from the LZW section of the PDF format standard:
    # decimal samples 45x5, 65, 45x3, 66.
    encoded = bytes([0x80, 0x0B, 0x60, 0x50, 0x22, 0x0C, 0x0C, 0x85, 0x01])
    assert decode_stream(encoded, ["LZWDecode"]) == bytes([45] * 5 + [65] + [45] * 3 + [66])


def test_unknown_filter_raises_distinctly():
    with pytest.raises(UnknownFilterError):
        decode_stream(b"\xff\xd8\xff", ["DCTDecode"])
    with pytest.raises(UnknownFilterError):
        decode_stream(b"", ["NoSuchFilter"])


@pytest.mark.parametrize("name", ["/FlateDecode", "FlateDecode", "/Fl"])
def test_one_filter_name_is_one_filter_not_a_list_of_characters(name):
    assert decode_stream(zlib.compress(b"x"), name) == b"x"
    assert decode_stream(zlib.compress(b"x"), name, {"/Predictor": 1}) == b"x"


def test_one_unknown_filter_name_is_named_whole():
    with pytest.raises(UnknownFilterError, match="^NoSuchFilter: unsupported filter$"):
        decode_stream(b"", "/NoSuchFilter")


def test_filter_name_aliases():
    assert canonical_filter_name("/Fl") == "FlateDecode"
    assert canonical_filter_name("AHx") == "ASCIIHexDecode"
    assert canonical_filter_name("/LZW") == "LZWDecode"
    assert canonical_filter_name("/FlateDecode") == "FlateDecode"


def test_cascade_applies_in_declared_order():
    data = b"cascade order matters"
    staged = encode_asciihex(zlib.compress(data))
    assert decode_stream(staged, ["ASCIIHexDecode", "FlateDecode"]) == data


def test_png_up_predictor_roundtrip():
    # Two rows of four bytes, delta-coded by the Up filter by hand:
    # row1 = 1 2 3 4 (Up against zeros), row2 = 5 5 5 5 stored as deltas 4 3 2 1.
    encoded_rows = bytes([2, 1, 2, 3, 4]) + bytes([2, 4, 3, 2, 1])
    raw = zlib.compress(encoded_rows)
    parms = {"/Predictor": 12, "/Columns": 4}
    out = decode_stream(raw, ["FlateDecode"], parms)
    assert out == bytes([1, 2, 3, 4, 5, 5, 5, 5])


def test_tiff_predictor():
    # columns=3, colors=1: rows are cumulative sums of the stored deltas
    stored = bytes([10, 1, 1]) + bytes([0, 5, 250])
    raw = zlib.compress(stored)
    out = decode_stream(raw, ["FlateDecode"], {"/Predictor": 2, "/Columns": 3})
    assert out == bytes([10, 11, 12]) + bytes([0, 5, 255])


@pytest.mark.parametrize("predictor", range(3, 10))
@pytest.mark.parametrize("name, encode", [("FlateDecode", zlib.compress), ("LZWDecode", encode_lzw)])
def test_predictors_3_to_9_are_refused(name, encode, predictor):
    # 2 is TIFF and 10 to 15 are PNG; the numbers between name no predictor.
    with pytest.raises(StreamDecodeError) as info:
        decode_stream(encode(b"abc"), [name], {"/Predictor": predictor})
    assert str(info.value) == f"{name}: unsupported predictor {predictor}"


# -- round-trip properties ---------------------------------------------------

_blobs = st.binary(min_size=0, max_size=2000)


@given(_blobs)
@settings(max_examples=60, deadline=None)
def test_roundtrip_flate(data):
    assert decode_stream(zlib.compress(data), ["FlateDecode"]) == data


@given(_blobs)
@settings(max_examples=60, deadline=None)
def test_roundtrip_asciihex(data):
    assert decode_stream(encode_asciihex(data), ["ASCIIHexDecode"]) == data


@given(_blobs)
@settings(max_examples=60, deadline=None)
def test_roundtrip_ascii85(data):
    assert decode_stream(encode_ascii85(data), ["ASCII85Decode"]) == data


@given(_blobs)
@settings(max_examples=60, deadline=None)
def test_roundtrip_runlength(data):
    assert decode_stream(encode_runlength(data), ["RunLengthDecode"]) == data


@pytest.mark.parametrize("early_change", [0, 1])
@given(_blobs)
@example(random.Random(0).randbytes(3000))  # past 511 and 1,023 table entries, where widths grow
@settings(max_examples=60, deadline=None)
def test_roundtrip_lzw(early_change, data):
    encoded = encode_lzw(data, early_change)
    assert decode_stream(encoded, ["LZWDecode"], {"/EarlyChange": early_change}) == data


def test_lzw_decodes_in_linear_time():
    # The decoder drops each code's bits from its accumulator.  While it kept
    # them, every input byte shifted an integer as long as all the input read
    # so far: this ~290 KiB stream took ~32 s, where it now takes ~0.5 s, its
    # codes read twice (2-core VM, Python 3.11).  A CLEAR every 200 literals
    # keeps codes 9 bits.
    CLEAR, EOD = 256, 257
    data = random.Random(0).randbytes(264_000)
    codes = []
    for start in range(0, len(data), 200):
        codes += [(CLEAR, 9)] + [(b, 9) for b in data[start : start + 200]]
    stream = pack_codes(codes + [(EOD, 9)])
    started = time.perf_counter()
    assert decode_stream(stream, ["LZWDecode"]) == data
    assert time.perf_counter() - started < 3


def _lzw_input(n):
    """n bytes of an eight-letter alphabet, LZW-encoded."""
    return encode_lzw(bytes(random.Random(n).choices(b"abcdefgh", k=n)))


def _short_repeat_runs(n):
    """n RunLength repeat runs, each of 2 to 5 copies of one byte, and EOD."""
    rng = random.Random(n)
    return b"".join(bytes([257 - rng.randrange(2, 6), rng.randrange(256)]) for _ in range(n)) + b"\x80"


# Each family's input at its n, where one decode takes 5 ms or more: LZW
# ~7 ms, ASCII85 ~7.5 ms, RunLength ~7 ms (2-core VM, Python 3.11.7).
_QUADRUPLING_FAMILIES = {
    "LZWDecode": (_lzw_input, 24 << 10),
    "ASCII85Decode": (lambda n: encode_ascii85(random.Random(n).randbytes(n)), 48 << 10),
    "RunLengthDecode": (_short_repeat_runs, 14_000),
}


@pytest.mark.parametrize("name", _QUADRUPLING_FAMILIES)
def test_decode_time_and_memory_grow_linearly(name):
    # Linear gives ~4 for both ratios and quadratic ~16.  On a 2-core VM: LZW
    # 3.8-4.1 in time and 1.4 in memory, ASCII85 4.0-4.7 and 4.0, RunLength
    # 2.6-4.1 and 3.8.
    build, n = _QUADRUPLING_FAMILIES[name]
    time_ratio, peak_ratio = quadrupling_ratios(lambda data: decode_stream(data, [name]), build, n)
    assert time_ratio <= 6 and peak_ratio <= 4.5, (time_ratio, peak_ratio)


@given(st.binary(min_size=0, max_size=300))
@settings(max_examples=30, deadline=None)
def test_roundtrip_cascade(data):
    staged = encode_ascii85(encode_runlength(zlib.compress(data)))
    out = decode_stream(staged, ["ASCII85Decode", "RunLengthDecode", "FlateDecode"])
    assert out == data


# -- equivalence with the reference decoders ---------------------------------


def outcome(decode, *args):
    """Decoded bytes, or the error text, so both sides compare with ==."""
    try:
        return decode(*args)
    except StreamDecodeError as exc:
        return f"error: {exc}"


def _raw_deflate(data: bytes) -> bytes:
    c = zlib.compressobj(wbits=-15)
    return c.compress(data) + c.flush()


_TEXT = b"flate equivalence " * 40
_BIG = zlib.compress(bytes(range(256)) * 12_000)  # inflates over several bounded chunks


_FLATE_CASES = {
    "valid": zlib.compress(_TEXT),
    "trailing-junk": zlib.compress(_TEXT) + b"trailing junk",
    "two-streams": zlib.compress(_TEXT) + zlib.compress(b"second stream"),
    "truncated": zlib.compress(_TEXT)[:-7],
    "bad-checksum": zlib.compress(_TEXT)[:-1] + b"\x00",
    "header-only": zlib.compress(_TEXT)[:2],
    "empty-zlib-stream": zlib.compress(b""),
    "empty-input": b"",
    "headerless-deflate": _raw_deflate(_TEXT),
    "headerless-truncated": _raw_deflate(_TEXT)[:-3],
    "not-deflate": b"this is not deflate",
    "multi-chunk": _BIG,
    "multi-chunk-truncated": _BIG[: len(_BIG) // 2],
}


@pytest.mark.parametrize("data", list(_FLATE_CASES.values()), ids=list(_FLATE_CASES))
def test_flate_matches_zlib_decompress_semantics(data):
    expected = outcome(reference.inflate, data)
    assert outcome(decode_stream, data, ["FlateDecode"]) == expected


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("data", list(_FLATE_CASES.values()), ids=list(_FLATE_CASES))
def test_flate_matches_zlib_decompress_semantics_in_small_chunks(monkeypatch, data, chunk):
    # With chunks this small every case with output crosses from keeping
    # the output to counting it, and then to building it a second time.
    monkeypatch.setattr(filters, "_INFLATE_CHUNK", chunk)
    test_flate_matches_zlib_decompress_semantics(data)


@given(
    st.binary(max_size=40),
    st.integers(1, 60),
    st.sampled_from([zlib.MAX_WBITS, -zlib.MAX_WBITS]),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_flate_matches_reference_at_any_chunk_size(unit, repeats, wbits, data):
    c = zlib.compressobj(data.draw(st.integers(0, 9)), wbits=wbits)
    stream = c.compress(unit * repeats) + c.flush()
    cut = data.draw(st.one_of(st.just(len(stream)), st.integers(0, len(stream))))
    trailing = data.draw(st.sampled_from([b"", b"\x00", b"endstream", zlib.compress(b"next")]))
    chunk = data.draw(st.sampled_from([1, 2, 3, 7, 64, 1 << 20]))
    stream = stream[:cut] + trailing
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(filters, "_INFLATE_CHUNK", chunk)
        assert outcome(decode_stream, stream, ["FlateDecode"]) == outcome(reference.inflate, stream)


@pytest.mark.parametrize("truncated", [False, True], ids=["complete", "truncated"])
def test_flate_feeds_its_input_to_zlib_about_once(monkeypatch, truncated):
    # Passing the whole unconsumed tail back in on every chunk re-fed the
    # rest of the input each time: ~8.5 times this 16 MiB stream.
    fed = []
    make = zlib.decompressobj

    class CountingDecompressor:
        def __init__(self, *args):
            self._d = make(*args)

        def decompress(self, data, max_length=0):
            fed.append(len(data))
            return self._d.decompress(data, max_length)

        def __getattr__(self, name):
            return getattr(self._d, name)

    payload = np.random.default_rng(14).bytes(16 << 20)
    stream = zlib.compress(payload, 1)
    if truncated:
        stream = stream[: len(stream) // 2]
    monkeypatch.setattr(zlib, "decompressobj", CountingDecompressor)
    out = decode_stream(stream, ["FlateDecode"])
    assert len(out) > len(stream) // 2 and out == payload[: len(out)]
    assert sum(fed) <= 2 * len(stream) + filters._INFLATE_CHUNK


_ASCII_PIECES = st.one_of(
    st.binary(max_size=5),
    st.sampled_from([bytes([b]) for b in b"\x00\t\n\x0c\r 09afAFgz!u~<>v{\x80\xff"]),
    st.sampled_from([b"<~", b"~>", b"zz", b"!!!!!", b"s8W-!"]),
)


@given(st.lists(_ASCII_PIECES, max_size=24).map(b"".join), st.sampled_from([None, 3, 8]))
@example(b"41 4>", 3)
@example(b"4 1 4 X>", None)
@settings(max_examples=500, deadline=None)
def test_ascii_filters_match_per_byte_strippers(data, cap):
    with pytest.MonkeyPatch.context() as patch:
        if cap is not None:
            patch.setattr(filters, "MAX_DECODED", cap)
        assert outcome(decode_stream, data, ["ASCIIHexDecode"]) == outcome(
            reference.asciihex_decode, data
        )
        assert outcome(decode_stream, data, ["ASCII85Decode"]) == outcome(
            reference.ascii85_decode, data
        )



# RunLength headers (a literal run of 1-3 bytes, a repeat of 2, 127 or 128,
# EOD) and bytes, so that runs are cut short where the input ends.
_RUNLENGTH_PIECES = st.one_of(
    st.binary(max_size=4),
    st.sampled_from([bytes([b]) for b in (0, 1, 2, 127, 128, 129, 255)]),
)


@given(st.lists(_RUNLENGTH_PIECES, max_size=24).map(b"".join), st.sampled_from([None, 1, 130, 300]))
@example(b"\x81A\x81A", 254)
@example(b"\x81A\x81A", 255)
@example(b"\x81A\x02", 128)
@settings(max_examples=500, deadline=None)
def test_runlength_matches_former_decoder(data, cap):
    # Counting first gives the same output and the same first error.
    with pytest.MonkeyPatch.context() as patch:
        if cap is not None:
            patch.setattr(filters, "MAX_DECODED", cap)
        assert outcome(decode_stream, data, ["RunLengthDecode"]) == outcome(
            reference.runlength_decode, data
        )


def pack_lzw(codes: list[int], early_change: int = 1) -> bytes:
    """Codes packed at the widths the decoder reads them at."""
    sized, size, bits, first = [], 258, 9, True
    for code in codes:
        sized.append((code, bits))
        if code == 256:
            size, bits, first = 258, 9, True
            continue
        if first:
            first = False
        else:
            size += 1
        if size + early_change >= (1 << bits) and bits < 12:
            bits += 1
    return pack_codes(sized)


@st.composite
def lzw_streams(draw):
    """Codes that mostly name a table entry (the next one included, which
    repeats the previous entry), with clear codes, a code past the table or
    past the initial 256, and EOD or none at the end."""
    early_change = draw(st.sampled_from([0, 1]))
    codes, size, bits, first = [], 258, 9, True
    for _ in range(draw(st.integers(0, 60))):
        kind = draw(st.sampled_from(["entry"] * 12 + ["clear", "bad"]))
        if kind == "clear":
            codes.append(256)
            size, bits, first = 258, 9, True
            continue
        if kind == "bad" and size + 1 < (1 << bits):
            codes.append(258 if first else draw(st.integers(size + 1, (1 << bits) - 1)))
            continue
        code = draw(st.integers(0, 255 if first else min(size, 4095)))
        codes.append(255 if code in (256, 257) else code)
        if first:
            first = False
        else:
            size += 1
        if size + early_change >= (1 << bits) and bits < 12:
            bits += 1
    if draw(st.booleans()):
        codes.append(257)
    return pack_lzw(codes, early_change), early_change


def _lzw_past_a_full_table(early_change: int) -> tuple[bytes, int]:
    # 6,000 codes without a clear code: the table fills at 4,096 entries and
    # later codes still name entries in it.
    rng = random.Random(early_change)
    codes = [rng.randrange(256)] + [rng.randrange(256, min(259 + k, 4096)) for k in range(6000)]
    codes = [255 if code in (256, 257) else code for code in codes]
    return pack_lzw(codes + [257], early_change), early_change


@given(lzw_streams(), st.sampled_from([None, 1, 40, 300]))
@example(_lzw_past_a_full_table(0), None)
@example(_lzw_past_a_full_table(1), None)
@settings(max_examples=500, deadline=None)
def test_lzw_matches_former_decoder(case, cap):
    # Counting first gives the same output and the same first error.
    data, early_change = case
    with pytest.MonkeyPatch.context() as patch:
        if cap is not None:
            patch.setattr(filters, "MAX_DECODED", cap)
        got = outcome(decode_stream, data, ["LZWDecode"], {"/EarlyChange": early_change})
        assert got == outcome(reference.lzw_decode, data, early_change)


def test_lzw_bomb_fails_having_built_nothing(monkeypatch):
    # Each code names the entry being made, the previous one plus its first
    # byte, so entry k is k + 2 bytes of "A": 3,838 codes (5.4 KB) decode to
    # 7.4 MB.  Counting first fails at ~52 KiB traced, where the former
    # decoder held its output up to the 1 MiB cap and the entries behind it,
    # ~2.1 MiB (2-core VM, Python 3.11).
    cap = 1 << 20
    monkeypatch.setattr(filters, "MAX_DECODED", cap)
    stream = pack_lzw([65, *range(258, 4096), 257])
    tracemalloc.start()
    try:
        with pytest.raises(StreamDecodeError, match="decoded output exceeds size cap"):
            decode_stream(stream, ["LZWDecode"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cap // 8


@st.composite
def predictor_cases(draw, colors=st.integers(1, 5), bpc=st.sampled_from([1, 2, 4, 8, 16])):
    """Rows of a PNG-predicted image: a row type 0-4, then row_len bytes."""
    colors, bpc = draw(colors), draw(bpc)
    columns = draw(st.integers(1, 40))
    row_len = (colors * bpc * columns + 7) // 8
    types = draw(st.lists(st.integers(0, 4), max_size=6))
    body = draw(st.binary(min_size=len(types) * row_len, max_size=len(types) * row_len))
    rows = [bytes([t]) + body[k * row_len : (k + 1) * row_len] for k, t in enumerate(types)]
    tail = draw(st.sampled_from([b"", b"", b"", b"\x01"]))  # sometimes a row size mismatch
    return b"".join(rows) + tail, colors, bpc, columns


# colors 5 at 4 bits per component: 2 bytes per pixel but 3 bytes per row
_ODD_ROW = (bytes([1, 9, 8, 7, 2, 1, 2, 3, 3, 200, 100, 50, 4, 7, 255, 3, 1, 250, 6, 5]), 5, 4, 1)


@given(st.one_of(predictor_cases(), predictor_cases(st.just(5), st.just(4))))
@example(_ODD_ROW)
@example((bytes([7, 1, 2, 3]), 1, 8, 3))  # unknown row type
@settings(max_examples=400, deadline=None)
def test_png_predictor_matches_reference(case):
    data, colors, bpc, columns = case
    parms = {"/Predictor": 12, "/Colors": colors, "/BitsPerComponent": bpc, "/Columns": columns}
    expected = outcome(reference.png_predictor, data, colors, bpc, columns, "FlateDecode")
    assert outcome(decode_stream, zlib.compress(data), ["FlateDecode"], parms) == expected


@given(
    st.integers(1, 5),
    st.sampled_from([1, 2, 4, 8, 16]),
    st.integers(1, 40),
    st.integers(0, 6),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_tiff_predictor_matches_reference(colors, bpc, columns, rows, data):
    size = rows * colors * columns + data.draw(st.sampled_from([0, 0, 0, 1]))
    raw = data.draw(st.binary(min_size=size, max_size=size))
    parms = {"/Predictor": 2, "/Colors": colors, "/BitsPerComponent": bpc, "/Columns": columns}
    expected = outcome(reference.tiff_predictor, raw, colors, bpc, columns, "FlateDecode")
    assert outcome(decode_stream, zlib.compress(raw), ["FlateDecode"], parms) == expected


# -- the size cap --------------------------------------------------------------

_CAP = 1000
_ENCODERS = {
    "FlateDecode": zlib.compress,
    "LZWDecode": encode_lzw,
    "RunLengthDecode": encode_runlength,
    "ASCIIHexDecode": encode_asciihex,
    "ASCII85Decode": encode_ascii85,
}


@pytest.mark.parametrize("name", sorted(_ENCODERS))
@pytest.mark.parametrize("payload", [bytes(_CAP + 1), bytes(range(256)) * 4], ids=["zeros", "bytes"])
def test_every_filter_stops_one_byte_past_the_cap(monkeypatch, name, payload):
    monkeypatch.setattr(filters, "MAX_DECODED", _CAP)
    encode = _ENCODERS[name]
    at_cap = payload[:_CAP]
    assert decode_stream(encode(at_cap), [name]) == at_cap
    with pytest.raises(StreamDecodeError, match="decoded output exceeds size cap") as info:
        decode_stream(encode(payload[: _CAP + 1]), [name])
    assert info.value.filter_name == name


# -- pairing a filter chain with its parameters --------------------------------

_SPELLINGS = [
    "FlateDecode", "/FlateDecode", "Fl", "/Fl", "LZWDecode", "/LZW", "ASCIIHexDecode",
    "/AHx", "A85", "/RunLengthDecode", "RL", "/DCTDecode", "DCT", "NoSuchFilter",
]
_PARM_DICTS = st.one_of(
    st.just({}),
    st.fixed_dictionaries(
        {
            "/Predictor": st.sampled_from([1, 2, 7, 10, 12, 15]),
            "/Columns": st.sampled_from([1, 3, 4]),
            "/Colors": st.sampled_from([1, 2]),
            "/BitsPerComponent": st.sampled_from([4, 8]),
        }
    ),
    st.fixed_dictionaries({"/Predictor": st.sampled_from([2, 12]), "/Columns": st.just(4)}),
    st.fixed_dictionaries({"Predictor": st.sampled_from([2, 12]), "Columns": st.just(4)}),
    st.fixed_dictionaries({"/EarlyChange": st.sampled_from([0, 1, False, True])}),
    st.just({"/Predictor": "/12", "/Columns": 4}),  # a value that is no integer
    st.fixed_dictionaries(  # nor is a boolean
        {
            "/Predictor": st.sampled_from([2, 12, True]),
            "/Columns": st.sampled_from([4, False, True]),
            "/Colors": st.sampled_from([1, False, True]),
            "/BitsPerComponent": st.sampled_from([8, False, True]),
        }
    ),
)
_PARM_ENTRIES = st.one_of(_PARM_DICTS, st.none(), st.integers(-1, 15), st.just("/Name"), st.just([{}]))
_PARAMS = st.one_of(
    st.none(),
    _PARM_DICTS,
    st.lists(_PARM_ENTRIES, max_size=4),
    st.lists(_PARM_ENTRIES, max_size=4).map(tuple),
    st.integers(-1, 15),
)


@st.composite
def filter_chains(draw):
    """Rows of four bytes (PNG rows have a row type first) encoded through a
    drawn filter list, with /DecodeParms of any shape."""
    names = draw(st.lists(st.sampled_from(_SPELLINGS), max_size=3))
    rows = draw(st.lists(st.binary(min_size=4, max_size=4), max_size=5))
    if draw(st.booleans()):
        rows = [bytes([draw(st.integers(0, 5))]) + row for row in rows]
    data = b"".join(rows)
    for name in reversed(names):
        encode = _ENCODERS.get(canonical_filter_name(name))
        if encode is not None:
            data = encode(data)
    return data, names, draw(_PARAMS)


def typed_outcome(decode, *args):
    try:
        return decode(*args)
    except StreamDecodeError as exc:
        return type(exc).__name__, str(exc)


_PNG_ROWS = bytes([2, 1, 2, 3, 4, 1, 9, 1, 1, 1])  # an Up row and a Sub row


@given(filter_chains())
@example((zlib.compress(_PNG_ROWS), ["FlateDecode"], {"/Predictor": 12, "/Columns": 4}))
@example((encode_lzw(bytes(range(8))), ["/LZW"], [{"/Predictor": 2, "/Columns": 4}]))
@example((encode_asciihex(zlib.compress(_PNG_ROWS)), ["AHx", "Fl"], (None, {"/Predictor": 12, "/Columns": 4})))
@example((encode_asciihex(zlib.compress(_PNG_ROWS)), ["AHx", "Fl"], {"/Predictor": 12, "/Columns": 4}))
@example((zlib.compress(_PNG_ROWS), ["FlateDecode"], [5, {"/Predictor": 12, "/Columns": 4}, None]))
@example((zlib.compress(_PNG_ROWS), ["FlateDecode"], 12))
@settings(max_examples=500, deadline=None)
def test_decode_stream_pairs_parameters_as_the_former_pairing(case):
    data, names, params = case
    expected = typed_outcome(reference.decode_stream, data, names, params)
    assert typed_outcome(decode_stream, data, names, params) == expected


_NONE_AND_UP_FLATE = zlib.compress(bytes([0, 1, 2, 3, 2, 1, 1, 1]))  # a None row and an Up row


@pytest.mark.parametrize(
    "encoded, name, parm, key, value",
    [
        (_NONE_AND_UP_FLATE, "FlateDecode", {"/Predictor": 12, "/Columns": 3}, "/BitsPerComponent", True),
        (_NONE_AND_UP_FLATE, "FlateDecode", {"/Predictor": 12}, "/Columns", False),
        (_NONE_AND_UP_FLATE, "FlateDecode", {"/Predictor": 12, "/Columns": 3}, "/Colors", False),
        (encode_lzw(random.Random(0).randbytes(2000)), "LZWDecode", {}, "/EarlyChange", False),
    ],
    ids=["bpc-true", "columns-false", "colors-false", "early-change-false"],
)
def test_a_boolean_parameter_decodes_as_if_absent(encoded, name, parm, key, value):
    # /BitsPerComponent true read as 1 bit, /Columns or /Colors false as 0,
    # and /EarlyChange false turned early change off.
    expected = typed_outcome(decode_stream, encoded, name, parm)
    assert typed_outcome(decode_stream, encoded, name, {**parm, key: value}) == expected
