"""Reference decoders that the library's filters are checked against.

These are the straightforward versions: whole-buffer ``zlib.decompress``
with the same three attempts the library makes, and one Python step per
byte for the PNG and TIFF predictors.  They have no size cap, so tests use
them only on inputs well below ``MAX_DECODED``.

``asciihex_decode`` and ``ascii85_decode`` are the former ASCII filters,
which strip whitespace one byte per step.  They keep the up-front size
cap, read from ``filters.MAX_DECODED`` so a test can lower it.
``runlength_decode`` is the former RunLength filter, which checks the cap
after each run it appends, so it builds up to the cap before it fails.
``lzw_decode`` is the former LZW filter, which does the same after each
code.

``decode_stream`` is the former pairing of a filter chain with its
parameters: ``normalize_params`` first rebuilds /DecodeParms as one entry
per filter, and ``apply_predictor`` runs after a FlateDecode or LZWDecode
stage, chosen by name.  The stage decoders and the predictors are the
library's own, so a test that compares the two isolates the pairing.
"""

import base64
import zlib
from typing import Any, Optional

from pdfmlp.pdf import filters
from pdfmlp.pdf.filters import StreamDecodeError, UnknownFilterError, _over_cap
from pdfmlp.pdf.objects import HEX_DIGITS, WHITESPACE


def inflate(data: bytes) -> bytes:
    try:
        return zlib.decompress(data)
    except zlib.error:
        try:
            d = zlib.decompressobj()
            out = d.decompress(data) + d.flush()
            if not out:
                raise zlib.error("empty")
            return out
        except zlib.error:
            try:
                d = zlib.decompressobj(wbits=-15)
                return d.decompress(data) + d.flush()
            except zlib.error as exc:
                raise StreamDecodeError("FlateDecode", str(exc)) from exc


def tiff_predictor(data: bytes, colors: int, bpc: int, columns: int, who: str) -> bytes:
    if bpc != 8:
        raise StreamDecodeError(who, f"TIFF predictor with {bpc} bits per component")
    row_len = colors * columns
    if row_len <= 0 or len(data) % row_len:
        raise StreamDecodeError(who, "predictor row size mismatch")
    out = bytearray(data)
    for row_start in range(0, len(out), row_len):
        for i in range(row_start + colors, row_start + row_len):
            out[i] = (out[i] + out[i - colors]) & 0xFF
    return bytes(out)


def png_predictor(data: bytes, colors: int, bpc: int, columns: int, who: str) -> bytes:
    bpp = max(1, (colors * bpc) // 8)
    row_len = (colors * bpc * columns + 7) // 8
    stride = row_len + 1  # each row is prefixed with its filter type
    if row_len <= 0 or len(data) % stride:
        raise StreamDecodeError(who, "predictor row size mismatch")
    out = bytearray()
    prev = bytearray(row_len)
    for row_start in range(0, len(data), stride):
        ftype = data[row_start]
        row = bytearray(data[row_start + 1 : row_start + stride])
        if ftype == 0:
            pass
        elif ftype == 1:  # Sub
            for i in range(bpp, row_len):
                row[i] = (row[i] + row[i - bpp]) & 0xFF
        elif ftype == 2:  # Up
            for i in range(row_len):
                row[i] = (row[i] + prev[i]) & 0xFF
        elif ftype == 3:  # Average
            for i in range(row_len):
                left = row[i - bpp] if i >= bpp else 0
                row[i] = (row[i] + (left + prev[i]) // 2) & 0xFF
        elif ftype == 4:  # Paeth
            for i in range(row_len):
                left = row[i - bpp] if i >= bpp else 0
                up = prev[i]
                up_left = prev[i - bpp] if i >= bpp else 0
                row[i] = (row[i] + _paeth(left, up, up_left)) & 0xFF
        else:
            raise StreamDecodeError(who, f"unknown PNG row filter {ftype}")
        out += row
        prev = row
    return bytes(out)


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    if pb <= pc:
        return b
    return c


def asciihex_decode(data: bytes) -> bytes:
    digits = bytearray()
    for byte in data:
        if byte == 0x3E:  # ">"
            break
        if byte in WHITESPACE:
            continue
        if byte not in HEX_DIGITS:
            raise StreamDecodeError("ASCIIHexDecode", f"invalid byte 0x{byte:02x}")
        digits.append(byte)
    if (len(digits) + 1) // 2 > filters.MAX_DECODED:
        raise _over_cap("ASCIIHexDecode")
    if len(digits) % 2:
        digits.append(0x30)  # odd count: final digit is the high nibble
    return bytes.fromhex(digits.decode("ascii"))


def ascii85_decode(data: bytes) -> bytes:
    body = bytes(b for b in data if b not in WHITESPACE)
    if body.startswith(b"<~"):
        body = body[2:]
    end = body.find(b"~>")
    if end != -1:
        body = body[:end]
    zeros = body.count(b"z")
    rest = len(body) - zeros
    if 4 * zeros + 4 * (rest // 5) + max(rest % 5 - 1, 0) > filters.MAX_DECODED:
        raise _over_cap("ASCII85Decode")
    try:
        return base64.a85decode(body, adobe=False)
    except ValueError as exc:
        raise StreamDecodeError("ASCII85Decode", str(exc)) from exc


def runlength_decode(data: bytes) -> bytes:
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        length = data[i]
        if length == 128:  # EOD
            return bytes(out)
        if length < 128:
            chunk = data[i + 1 : i + 2 + length]
            if len(chunk) != length + 1:
                raise StreamDecodeError("RunLengthDecode", "literal run truncated")
            out += chunk
            i += 2 + length
        else:
            if i + 1 >= n:
                raise StreamDecodeError("RunLengthDecode", "repeat run truncated")
            out += data[i + 1 : i + 2] * (257 - length)
            i += 2
        if len(out) > filters.MAX_DECODED:
            raise _over_cap("RunLengthDecode")
    # Missing EOD is tolerated; everything decoded so far is complete.
    return bytes(out)


def lzw_decode(data: bytes, early_change: int = 1) -> bytes:
    CLEAR, EOD = 256, 257
    out = bytearray()
    table: list[bytes] = []
    bits = 9
    prev: Optional[bytes] = None

    def reset() -> None:
        nonlocal table, bits, prev
        table = [bytes([i]) for i in range(256)] + [b"", b""]
        bits = 9
        prev = None

    reset()
    acc = 0
    nbits = 0
    for byte in data:
        acc = (acc << 8) | byte
        nbits += 8
        while nbits >= bits:
            nbits -= bits
            code = acc >> nbits
            acc &= (1 << nbits) - 1
            if code == CLEAR:
                reset()
                continue
            if code == EOD:
                return bytes(out)
            if prev is None:
                if code >= len(table):
                    raise StreamDecodeError("LZWDecode", f"bad initial code {code}")
                entry = table[code]
            elif code < len(table):
                entry = table[code]
                table.append(prev + entry[:1])
            elif code == len(table):
                entry = prev + prev[:1]
                table.append(entry)
            else:
                raise StreamDecodeError("LZWDecode", f"code {code} out of range")
            out += entry
            if len(out) > filters.MAX_DECODED:
                raise _over_cap("LZWDecode")
            prev = entry
            if len(table) + early_change >= (1 << bits) and bits < 12:
                bits += 1
    return bytes(out)


def decode_stream(raw: bytes, filter_names: list, params: Any = None) -> bytes:
    param_list = normalize_params(params, len(filter_names))
    data = raw
    for name, parm in zip(filter_names, param_list):
        canonical = filters.canonical_filter_name(name)
        decoder = _STAGES.get(canonical)
        if decoder is None:
            raise UnknownFilterError(canonical)
        data = decoder(data, parm)
        if canonical in ("FlateDecode", "LZWDecode"):
            data = apply_predictor(data, parm, canonical)
    return data


def normalize_params(params: Any, n: int) -> list[Optional[dict]]:
    if params is None:
        return [None] * n
    if isinstance(params, dict):
        return [params] + [None] * (n - 1) if n else []
    if isinstance(params, (list, tuple)):
        out: list[Optional[dict]] = []
        for i in range(n):
            p = params[i] if i < len(params) else None
            out.append(p if isinstance(p, dict) else None)
        return out
    return [None] * n


def param(parm: Optional[dict], key: str, default: int) -> int:
    if not parm:
        return default
    value = parm.get("/" + key, parm.get(key, default))
    return value if type(value) is int else default  # a bool is no integer


# One stage of each filter, without its predictor.
_STAGES = {
    "FlateDecode": lambda data, parm: filters._flate_decode(data),
    "LZWDecode": lambda data, parm: filters._lzw_decode(
        data, early_change=1 if param(parm, "EarlyChange", 1) else 0
    ),
    "ASCIIHexDecode": lambda data, parm: filters._asciihex_decode(data),
    "ASCII85Decode": lambda data, parm: filters._ascii85_decode(data),
    "RunLengthDecode": lambda data, parm: filters._runlength_decode(data),
}


def apply_predictor(data: bytes, parm: Optional[dict], filter_name: str) -> bytes:
    predictor = param(parm, "Predictor", 1)
    if predictor <= 1:
        return data
    colors = param(parm, "Colors", 1)
    bpc = param(parm, "BitsPerComponent", 8)
    columns = param(parm, "Columns", 1)
    if predictor == 2:
        return filters._tiff_predictor(data, colors, bpc, columns, filter_name)
    if predictor >= 10:
        return filters._png_predictor(data, colors, bpc, columns, filter_name)
    raise StreamDecodeError(filter_name, f"unsupported predictor {predictor}")
