"""PDF stream filter decoders.

Supported: FlateDecode and LZWDecode (each with PNG/TIFF predictors),
ASCIIHexDecode, ASCII85Decode and RunLengthDecode.  Anything else (DCTDecode,
JBIG2Decode, ...) raises UnknownFilterError so callers can keep the raw
bytes and move on.
"""

from __future__ import annotations

import base64
import zlib
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .objects import HEX_DIGITS, WHITESPACE

__all__ = [
    "MAX_DECODED",
    "StreamDecodeError",
    "UnknownFilterError",
    "canonical_filter_name",
    "decode_stream",
]

# Every filter stage stops with StreamDecodeError once its output would
# pass this many bytes; it bounds memory and time under bomb inputs.
MAX_DECODED = 1 << 26

_INFLATE_CHUNK = 1 << 20
_LZW_ENTRIES = 1 << 12

# Abbreviated filter names are legal inside inline images and show up in
# malformed files elsewhere too; treat them as their long forms.
_ALIASES = {
    "Fl": "FlateDecode",
    "AHx": "ASCIIHexDecode",
    "A85": "ASCII85Decode",
    "RL": "RunLengthDecode",
    "LZW": "LZWDecode",
    "CCF": "CCITTFaxDecode",
    "DCT": "DCTDecode",
}


class StreamDecodeError(Exception):
    """A declared filter could not decode the data it was given."""

    def __init__(self, filter_name: str, message: str):
        super().__init__(f"{filter_name}: {message}")
        self.filter_name = filter_name


class UnknownFilterError(StreamDecodeError):
    """The filter name is not one this library decodes."""

    def __init__(self, filter_name: str):
        super().__init__(filter_name, "unsupported filter")


def _over_cap(filter_name: str) -> StreamDecodeError:
    return StreamDecodeError(filter_name, "decoded output exceeds size cap")


def canonical_filter_name(name: Any) -> str:
    """Normalize a /Filter entry to its long name without the slash."""
    text = str(name)
    if text.startswith("/"):
        text = text[1:]
    return _ALIASES.get(text, text)


def decode_stream(
    raw: bytes,
    filters: str | Sequence[Any],
    params: Any = None,
) -> bytes:
    """Apply ``filters`` to ``raw`` in declared order and return the result.

    ``filters`` is one filter name or a sequence of names, as a stream
    dictionary gives them (leading slash optional, abbreviations allowed).
    ``params`` is a /DecodeParms value: a list pairs with the filters in
    order, and anything else belongs to the first filter.  An entry that
    is not a dictionary counts as none.  A FlateDecode or LZWDecode stage
    applies its own /Predictor.  An empty list returns ``raw`` unchanged.

    Raises StreamDecodeError (UnknownFilterError for filters outside the
    supported set) and never returns partial output.  A stage whose output
    would exceed MAX_DECODED bytes fails while it decodes, before the
    output is built.
    """
    if isinstance(filters, str):
        filters = (filters,)
    if not isinstance(params, (list, tuple)):
        params = (params,)
    data = raw
    for i, name in enumerate(filters):
        canonical = canonical_filter_name(name)
        decoder = _DECODERS.get(canonical)
        if decoder is None:
            raise UnknownFilterError(canonical)
        data = decoder(data, params[i] if i < len(params) else None)
    return data


def _param(parm: Any, key: str, default: int) -> int:
    if not isinstance(parm, dict):
        return default
    value = parm.get("/" + key, parm.get(key, default))
    return value if type(value) is int else default


def _flate_decode(data: bytes) -> bytes:
    try:
        out, reached_end = _inflate(data, zlib.MAX_WBITS)
        if reached_end or out:  # a truncated stream yields what it decoded
            return out
    except zlib.error:
        pass
    # Retry as headerless deflate.
    try:
        return _inflate(data, -zlib.MAX_WBITS)[0]
    except zlib.error as exc:
        raise StreamDecodeError("FlateDecode", str(exc)) from exc


def _inflate(data: bytes, wbits: int) -> tuple[bytes, bool]:
    """Inflate ``data``; output that may be thrown away is counted, not kept.

    Returns the output and whether the end-of-stream marker was reached;
    bytes after it are ignored.  The first pass keeps the output while it
    fits in one ``_INFLATE_CHUNK`` and after that only counts it, so a bomb
    fails at MAX_DECODED + 1 bytes having held about two chunks.  A longer
    stream under the cap is inflated again: one that reached its end marker
    into one buffer of exactly the counted size, a truncated one by chunks.
    """
    d = zlib.decompressobj(wbits)
    kept, size = _inflate_pieces(d, data, _INFLATE_CHUNK)
    if size <= _INFLATE_CHUNK:
        return b"".join(kept), d.eof
    if d.eof:
        return zlib.decompress(data, wbits, size), True
    return b"".join(_inflate_pieces(zlib.decompressobj(wbits), data, size)[0]), False


def _inflate_pieces(d: Any, data: bytes, keep: int) -> tuple[list[bytes], int]:
    """Feed ``data`` to the decompressor ``d`` and count what it inflates.

    Returns the output pieces, each at most ``_INFLATE_CHUNK`` bytes, while
    their total is at most ``keep`` bytes (after that none), and the total.
    The input goes in as ``_INFLATE_CHUNK`` slices of one memoryview, so
    ``unconsumed_tail`` never copies more than one slice and the time is
    linear in the input.  Raises StreamDecodeError as soon as the output
    passes MAX_DECODED.
    """
    view = memoryview(data)
    kept: list[bytes] = []
    size = 0
    for start in range(0, len(view), _INFLATE_CHUNK):
        pending = view[start : start + _INFLATE_CHUNK]
        while not d.eof:
            # max_length stays >= 1 (0 would mean unlimited) and stops one byte past the cap.
            piece = d.decompress(pending, min(_INFLATE_CHUNK, MAX_DECODED + 1 - size))
            if not piece:  # slice used up and nothing buffered
                break
            size += len(piece)
            if size > MAX_DECODED:
                raise _over_cap("FlateDecode")
            if size <= keep:
                kept.append(piece)
            else:
                kept.clear()
            pending = d.unconsumed_tail
        if d.eof:
            break
    return kept, size


def _lzw_codes(data: bytes, early_change: int) -> Iterator[int]:
    """The codes of a variable-width (9..12 bit) LZW stream up to EOD 257.

    The clear code 256 is passed on, and one comes first, so a reader sets
    up its table only on a clear code.  A data code that names no entry of
    the table, whose size follows from the codes alone, raises here.
    """
    CLEAR, EOD = 256, 257
    size, bits, first = 258, 9, True  # the table holds 256 bytes, CLEAR and EOD
    acc = nbits = 0
    yield CLEAR
    for byte in data:
        acc = (acc << 8) | byte
        nbits += 8
        while nbits >= bits:
            nbits -= bits
            code = acc >> nbits
            acc &= (1 << nbits) - 1  # drop the code's bits, so acc stays short
            if code == CLEAR:
                size, bits, first = 258, 9, True
            elif code == EOD:
                return
            elif first:
                if code >= size:
                    raise StreamDecodeError("LZWDecode", f"bad initial code {code}")
                first = False
            elif code <= size:
                size += 1  # the previous entry plus this one's first byte
            else:
                raise StreamDecodeError("LZWDecode", f"code {code} out of range")
            yield code
            if size + early_change >= (1 << bits) and bits < 12:
                bits += 1


def _lzw_decode(data: bytes, early_change: int = 1) -> bytes:
    # Each code is read twice: first for the length of its entry alone, so a
    # stream that would pass MAX_DECODED fails having built none of it.  No
    # 12-bit code names an entry past _LZW_ENTRIES, so no table grows past it.
    total = 0
    for code in _lzw_codes(data, early_change):
        if code == 256:  # CLEAR
            lengths, prev = [1] * 256 + [0, 0], 0
            continue
        length = lengths[code] if code < len(lengths) else prev + 1
        if prev and len(lengths) < _LZW_ENTRIES:
            lengths.append(prev + 1)
        total += length
        if total > MAX_DECODED:
            raise _over_cap("LZWDecode")
        prev = length
    out = bytearray()
    for code in _lzw_codes(data, early_change):
        if code == 256:  # CLEAR
            table, entry = [bytes([i]) for i in range(256)] + [b"", b""], b""
            continue
        prev, entry = entry, table[code] if code < len(table) else entry + entry[:1]
        if prev and len(table) < _LZW_ENTRIES:
            table.append(prev + entry[:1])
        out += entry
    return bytes(out)


def _asciihex_decode(data: bytes) -> bytes:
    end = data.find(b">")
    digits = (data if end == -1 else data[:end]).translate(None, WHITESPACE)
    invalid = digits.translate(None, HEX_DIGITS)
    if invalid:
        raise StreamDecodeError("ASCIIHexDecode", f"invalid byte 0x{invalid[0]:02x}")
    if (len(digits) + 1) // 2 > MAX_DECODED:
        raise _over_cap("ASCIIHexDecode")
    if len(digits) % 2:
        digits += b"0"  # odd count: final digit is the high nibble
    return bytes.fromhex(digits.decode("ascii"))


def _ascii85_decode(data: bytes) -> bytes:
    body = data.translate(None, WHITESPACE)
    if body.startswith(b"<~"):
        body = body[2:]
    end = body.find(b"~>")
    if end != -1:
        body = body[:end]
    # Output size of valid input: 4 bytes per "z", 4 per 5-character group
    # and k - 1 for a final group of k characters.
    zeros = body.count(b"z")
    rest = len(body) - zeros
    if 4 * zeros + 4 * (rest // 5) + max(rest % 5 - 1, 0) > MAX_DECODED:
        raise _over_cap("ASCII85Decode")
    try:
        return base64.a85decode(body, adobe=False)
    except ValueError as exc:
        raise StreamDecodeError("ASCII85Decode", str(exc)) from exc


def _runlength_runs(data: bytes) -> Iterator[tuple[bytes, int]]:
    """Each run as a piece and how often it repeats; a missing EOD is tolerated."""
    i = 0
    n = len(data)
    while i < n:
        length = data[i]
        if length == 128:  # EOD
            return
        if length < 128:
            piece = data[i + 1 : i + 2 + length]
            if len(piece) != length + 1:
                raise StreamDecodeError("RunLengthDecode", "literal run truncated")
            yield piece, 1
            i += 2 + length
        else:
            if i + 1 >= n:
                raise StreamDecodeError("RunLengthDecode", "repeat run truncated")
            yield data[i + 1 : i + 2], 257 - length
            i += 2


def _runlength_decode(data: bytes) -> bytes:
    # The output is counted before it is built, so a stream that would pass
    # MAX_DECODED fails having allocated none of it.
    size = 0
    for piece, times in _runlength_runs(data):
        size += len(piece) * times
        if size > MAX_DECODED:
            raise _over_cap("RunLengthDecode")
    out = bytearray()
    for piece, times in _runlength_runs(data):
        out += piece * times
    return bytes(out)


# Canonical filter name -> decoder(data, decode parameters), where the
# parameters are any /DecodeParms entry (only a dictionary counts).
_DECODERS: dict[str, Callable[[bytes, Any], bytes]] = {
    "FlateDecode": lambda data, parm: _apply_predictor(_flate_decode(data), parm, "FlateDecode"),
    "LZWDecode": lambda data, parm: _apply_predictor(
        _lzw_decode(data, early_change=1 if _param(parm, "EarlyChange", 1) else 0), parm, "LZWDecode"
    ),
    "ASCIIHexDecode": lambda data, parm: _asciihex_decode(data),
    "ASCII85Decode": lambda data, parm: _ascii85_decode(data),
    "RunLengthDecode": lambda data, parm: _runlength_decode(data),
}


def _apply_predictor(data: bytes, parm: Any, filter_name: str) -> bytes:
    predictor = _param(parm, "Predictor", 1)
    if predictor <= 1:
        return data
    colors = _param(parm, "Colors", 1)
    bpc = _param(parm, "BitsPerComponent", 8)
    columns = _param(parm, "Columns", 1)
    if predictor == 2:
        return _tiff_predictor(data, colors, bpc, columns, filter_name)
    if predictor >= 10:
        return _png_predictor(data, colors, bpc, columns, filter_name)
    raise StreamDecodeError(filter_name, f"unsupported predictor {predictor}")


def _tiff_predictor(data: bytes, colors: int, bpc: int, columns: int, who: str) -> bytes:
    if bpc != 8:
        raise StreamDecodeError(who, f"TIFF predictor with {bpc} bits per component")
    row_len = colors * columns
    if row_len <= 0 or len(data) % row_len:
        raise StreamDecodeError(who, "predictor row size mismatch")
    if not data:
        return data
    if colors < 0:
        raise StreamDecodeError(who, f"TIFF predictor with {colors} colors")
    # Each sample is the running sum of its row's deltas in the same color lane.
    samples = np.frombuffer(data, np.uint8).reshape(-1, columns, colors)
    return samples.cumsum(axis=1, dtype=np.uint8).tobytes()


def _png_predictor(data: bytes, colors: int, bpc: int, columns: int, who: str) -> bytes:
    bpp = max(1, (colors * bpc) // 8)
    row_len = (colors * bpc * columns + 7) // 8
    stride = row_len + 1  # each row is prefixed with its filter type
    if row_len <= 0 or len(data) % stride:
        raise StreamDecodeError(who, "predictor row size mismatch")
    if not data:
        return data
    encoded = np.frombuffer(data, np.uint8).reshape(-1, stride)
    ftypes = encoded[:, 0].tolist()
    for ftype in ftypes:
        if ftype > 4:
            raise StreamDecodeError(who, f"unknown PNG row filter {ftype}")
    # Rows are padded to a whole number of pixels, so that each byte lane
    # (the bytes bpp apart) has the same length and Sub is one cumsum per lane.
    # Padding bytes come last in their lane and never feed back into the row.
    width = -(-row_len // bpp) * bpp
    out = np.zeros((len(ftypes), width), np.uint8)
    out[:, :row_len] = encoded[:, 1:]
    prev = np.zeros(width, np.uint8)
    for ftype, row in zip(ftypes, out):
        if ftype == 1:  # Sub
            lanes = row.reshape(-1, bpp)
            lanes.cumsum(axis=0, dtype=np.uint8, out=lanes)
        elif ftype == 2:  # Up
            row += prev
        elif ftype >= 3:  # Average, Paeth: each byte depends on the decoded left byte
            unfilter = _png_average if ftype == 3 else _png_paeth
            for lane in range(bpp):
                row[lane::bpp] = unfilter(row[lane::bpp].tobytes(), prev[lane::bpp].tobytes())
        prev = row
    return out[:, :row_len].tobytes()


def _png_average(raw: bytes, prev: bytes) -> bytearray:
    out = bytearray()
    left = 0
    for x, up in zip(raw, prev):
        left = (x + ((left + up) >> 1)) & 0xFF
        out.append(left)
    return out


def _png_paeth(raw: bytes, prev: bytes) -> bytearray:
    out = bytearray()
    left = up_left = 0
    for x, up in zip(raw, prev):
        # Distances from p = left + up - up_left to left, up and up_left.
        pa = up - up_left
        pb = left - up_left
        pc = pa + pb
        if pa < 0:
            pa = -pa
        if pb < 0:
            pb = -pb
        if pc < 0:
            pc = -pc
        if pa <= pb and pa <= pc:
            left = (x + left) & 0xFF
        elif pb <= pc:
            left = (x + up) & 0xFF
        else:
            left = (x + up_left) & 0xFF
        out.append(left)
        up_left = up
    return out
