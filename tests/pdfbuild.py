"""Byte-exact PDF assembly for tests.

assemble_pdf writes objects 1..n in order, then a cross-reference table
whose offsets are computed from the actual layout, so the output is a
structurally valid file unless a test mutates it on purpose.
"""

from __future__ import annotations

import zlib
from typing import Optional, Sequence

import numpy as np


def assemble_pdf(
    bodies: Sequence[bytes],
    *,
    header: bytes = b"%PDF-1.4\n",
    root: int = 1,
    info: Optional[int] = None,
    trailer_extra: bytes = b"",
) -> bytes:
    """Build a PDF whose object i+1 has content bodies[i] (sans obj wrapper)."""
    out = bytearray(header)
    offsets = []
    for number, body in enumerate(bodies, start=1):
        offsets.append(len(out))
        out += f"{number} 0 obj\n".encode() + body + b"\nendobj\n"
    xref_at = len(out)
    out += b"xref\n"
    out += f"0 {len(bodies) + 1}\n".encode()
    out += b"0000000000 65535 f \n"
    for off in offsets:
        out += f"{off:010d} 00000 n \n".encode()
    trailer = f"<< /Size {len(bodies) + 1} /Root {root} 0 R ".encode()
    if info is not None:
        trailer += f"/Info {info} 0 R ".encode()
    trailer += trailer_extra + b">>"
    out += b"trailer\n" + trailer + b"\n"
    out += b"startxref\n" + str(xref_at).encode() + b"\n%%EOF\n"
    return bytes(out)


def stream_body(dictionary: bytes, data: bytes, *, length: Optional[int] = None) -> bytes:
    """Object body for a stream; /Length is appended to the dictionary."""
    declared = len(data) if length is None else length
    if not dictionary.strip().endswith(b">>"):
        raise ValueError("dictionary must be <<...>>")
    head = dictionary.strip()[:-2].rstrip()
    return head + f" /Length {declared} >>".encode() + b"\nstream\n" + data + b"\nendstream"


def minimal_pdf() -> bytes:
    """One catalog, one pages node, one empty page, valid xref."""
    return assemble_pdf(
        [
            b"<< /Type /Catalog /Pages 2 0 R >>",
            b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
            b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] >>",
        ]
    )


def pdf_with_stream(data: bytes = b"BT /F1 12 Tf (hi) Tj ET", *, length: Optional[int] = None) -> bytes:
    """Minimal page plus one content stream object."""
    return assemble_pdf(
        [
            b"<< /Type /Catalog /Pages 2 0 R >>",
            b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
            b"<< /Type /Page /Parent 2 0 R /Contents 4 0 R >>",
            stream_body(b"<< >>", data, length=length),
        ]
    )


def pdf_with_objstm(inner: Sequence[tuple[int, bytes]]) -> bytes:
    """A catalog plus an object stream holding ``inner`` (number, body) pairs."""
    header_parts = []
    payload = bytearray()
    for number, body in inner:
        header_parts.append(f"{number} {len(payload)}".encode())
        payload += body + b" "
    head = b" ".join(header_parts) + b" "
    content = head + bytes(payload)
    compressed = zlib.compress(content)
    objstm = stream_body(
        f"<< /Type /ObjStm /N {len(inner)} /First {len(head)} /Filter /FlateDecode >>".encode(),
        compressed,
    )
    return assemble_pdf(
        [
            b"<< /Type /Catalog /Pages 2 0 R >>",
            b"<< /Type /Pages /Kids [] /Count 0 >>",
            objstm,
        ]
    )


def long_number_pdfs() -> dict[str, bytes]:
    """Documents whose numbers exceed Python's int-string limit or a float.

    The integer token has 5,000 digits; the header version and the root
    page tree's /Count have 400, which overflow a float.  A second page
    tree declares /Count 3.
    """
    digits = b"9" * 400
    catalog = b"<< /Type /Catalog /Pages 2 0 R /OpenAction 3 0 R >>"
    return {
        "long-integer.pdf": assemble_pdf(
            [
                catalog,
                b"<< /Type /Pages /Kids [] /Count 1 >>",
                b"<< /S /JavaScript /JS (app.alert(1)) /Pad " + b"7" * 5000 + b" >>",
            ]
        ),
        "long-version.pdf": assemble_pdf(
            [catalog, b"<< /Type /Pages /Kids [] /Count 1 >>"],
            header=b"%PDF-" + digits + b"\n",
        ),
        "long-count.pdf": assemble_pdf(
            [
                catalog,
                b"<< /Type /Pages /Kids [] /Count " + digits + b" >>",
                b"<< /Type /Pages /Kids [] /Count 3 >>",
            ]
        ),
    }


def fuzzed_pdfs(count: int):
    """Deterministic mutations over a few realistic seed documents."""
    rng = np.random.default_rng(0xF0221)
    seeds = [
        minimal_pdf(),
        pdf_with_stream(b"q Q re f " * 12),
        pdf_with_objstm([(9, b"<< /S /JavaScript /JS (eval(1)) >>"), (12, b"[1 2 3]")]),
        assemble_pdf(
            [
                b"<< /Type /Catalog /Pages 2 0 R /OpenAction 3 0 R >>",
                b"<< /Type /Pages /Kids [] /Count 0 >>",
                stream_body(b"<< /Filter /FlateDecode >>", b"broken deflate"),
            ],
            info=3,
        ),
    ]
    keywords = [b"obj", b"endobj", b"stream", b"endstream", b"xref", b"trailer",
                b"startxref", b"%%EOF", b"/Length 999", b"<<", b">>", b"(", b"R"]
    for i in range(count):
        base = bytearray(seeds[i % len(seeds)])
        for _ in range(int(rng.integers(1, 8))):
            op = rng.integers(0, 5)
            if len(base) == 0:
                break
            pos = int(rng.integers(0, len(base)))
            if op == 0:  # flip bytes
                base[pos] = int(rng.integers(0, 256))
            elif op == 1:  # delete a chunk
                del base[pos : pos + int(rng.integers(1, 40))]
            elif op == 2:  # duplicate a chunk
                chunk = base[pos : pos + int(rng.integers(1, 40))]
                base[pos:pos] = chunk
            elif op == 3:  # inject a structural keyword
                kw = keywords[int(rng.integers(0, len(keywords)))]
                base[pos:pos] = kw
            else:  # truncate
                del base[pos:]
        yield bytes(base)
