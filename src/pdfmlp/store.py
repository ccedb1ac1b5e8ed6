"""Versioned single-file persistence for a trained model plus its scaler.

Layout: the magic string "PDFMLP", a little-endian uint32 format version,
then length-prefixed sections (4-byte ASCII tag, uint64-LE payload
length, payload).  Section "META" is canonical JSON describing the
architecture, threshold, schema id and an ordered array manifest;
section "ARRS" is the manifest's arrays concatenated as raw
little-endian float64, which makes save/load round trips bit-exact.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import secrets
import stat
import struct
from typing import Any, Optional

import numpy as np

from .features import SCHEMA_ID
from .mlp import BATCH_NORM_ARRAYS, BatchNormState, DenseLayer, MlpModel
from .preprocess import Dataset, Scaler

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "ModelStoreError",
    "ModelFormatError",
    "TruncatedModelError",
    "UnsupportedVersionError",
    "dumps",
    "loads",
    "save",
    "load",
    "model_checksum",
    "dataset_checksum",
]

MAGIC = b"PDFMLP"
FORMAT_VERSION = 1


class ModelStoreError(Exception):
    """Base class for model-file problems."""


class ModelFormatError(ModelStoreError):
    """Structurally invalid content (bad magic, width mismatch, bad JSON)."""


class TruncatedModelError(ModelStoreError):
    """The file ends before a declared section does."""


class UnsupportedVersionError(ModelStoreError):
    """The file declares a format version or feature schema this build cannot read."""


def _meta_int(value: Any, what: str) -> int:
    # JSON gives bool for true/false, and bool is an int subclass.
    if type(value) is not int:
        raise ModelFormatError(f"{what} must be an integer, got {value!r}")
    return value


def _meta_number(value: Any, what: str) -> float:
    if type(value) not in (int, float):
        raise ModelFormatError(f"{what} must be a number, got {value!r}")
    return float(value)


def _layer_arrays(layer: DenseLayer) -> list[tuple[str, np.ndarray]]:
    arrays = [("weights", layer.weights), ("biases", layer.biases)]
    if layer.batch_norm is not None:
        arrays += [(name, getattr(layer.batch_norm, name)) for name in BATCH_NORM_ARRAYS]
    return arrays


def dumps(
    model: MlpModel,
    scaler: Scaler,
    fingerprint: Optional[dict[str, Any]] = None,
) -> bytes:
    """Serialize to bytes; identical inputs always produce identical bytes."""
    manifest: list[dict[str, Any]] = []
    blobs: list[bytes] = []

    def put(name: str, arr: np.ndarray) -> None:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        manifest.append({"name": name, "shape": list(arr.shape)})
        blobs.append(arr.astype("<f8").tobytes())

    put("scaler.means", scaler.means)
    put("scaler.stds", scaler.stds)
    layer_specs = []
    for i, layer in enumerate(model.layers):
        bn = layer.batch_norm
        layer_specs.append(
            {
                "in": layer.in_width,
                "out": layer.out_width,
                "activation": layer.activation,
                "dropout_rate": layer.dropout_rate,
                "batch_norm": (
                    {"momentum": bn.momentum, "epsilon": bn.epsilon} if bn else None
                ),
            }
        )
        for name, arr in _layer_arrays(layer):
            put(f"layer{i}.{name}", arr)

    meta = {
        "format": "pdfmlp-model",
        "schema_id": SCHEMA_ID,
        "threshold": model.threshold,
        "layers": layer_specs,
        "fingerprint": fingerprint,
        "arrays": manifest,
    }
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    arrs_bytes = b"".join(blobs)

    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", FORMAT_VERSION)
    for tag, payload in ((b"META", meta_bytes), (b"ARRS", arrs_bytes)):
        out += tag
        out += struct.pack("<Q", len(payload))
        out += payload
    return bytes(out)


def loads(blob: bytes) -> tuple[MlpModel, Scaler, str]:
    """Parse bytes produced by dumps; returns (model, scaler, schema_id).

    A model trained on another feature schema is refused, so the third
    value is always SCHEMA_ID.
    """
    if len(blob) < len(MAGIC) + 4:
        raise TruncatedModelError("file shorter than the fixed header")
    if blob[: len(MAGIC)] != MAGIC:
        raise ModelFormatError("not a model file (bad magic)")
    (version,) = struct.unpack_from("<I", blob, len(MAGIC))
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"unsupported format version {version} (this build reads {FORMAT_VERSION})"
        )

    sections: dict[bytes, bytes] = {}
    pos = len(MAGIC) + 4
    while pos < len(blob):
        if pos + 12 > len(blob):
            raise TruncatedModelError("truncated section header")
        tag = blob[pos : pos + 4]
        (length,) = struct.unpack_from("<Q", blob, pos + 4)
        pos += 12
        if pos + length > len(blob):
            raise TruncatedModelError(f"truncated {tag!r} section")
        if tag in sections:
            raise ModelFormatError(f"section {tag!r} appears twice")
        sections[tag] = blob[pos : pos + length]
        pos += length

    for required in (b"META", b"ARRS"):
        if required not in sections:
            raise ModelFormatError(f"missing {required!r} section")

    try:
        meta = json.loads(sections[b"META"].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"unreadable metadata: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("format") != "pdfmlp-model":
        raise ModelFormatError("metadata does not describe a model")

    arrays = _read_arrays(meta.get("arrays"), sections[b"ARRS"])
    try:
        schema_id = meta["schema_id"]
        if not isinstance(schema_id, str):
            raise ModelFormatError(f"schema_id must be a string, got {schema_id!r}")
        if schema_id != SCHEMA_ID:
            raise UnsupportedVersionError(
                f"schema mismatch: model was trained on {schema_id!r}, "
                f"this build extracts {SCHEMA_ID!r}"
            )
        scaler = Scaler(means=arrays.pop("scaler.means"), stds=arrays.pop("scaler.stds"))
        layers = []
        for i, spec in enumerate(meta["layers"]):
            if not isinstance(spec, dict):
                raise ModelFormatError(f"layer {i}: description is not an object")
            bn_spec = spec.get("batch_norm")
            bn = None
            if bn_spec is not None:
                bn = BatchNormState(
                    **{name: arrays.pop(f"layer{i}.{name}") for name in BATCH_NORM_ARRAYS},
                    momentum=_meta_number(bn_spec["momentum"], f"layer {i}: momentum"),
                    epsilon=_meta_number(bn_spec["epsilon"], f"layer {i}: epsilon"),
                )
            layer = DenseLayer(
                weights=arrays.pop(f"layer{i}.weights"),
                biases=arrays.pop(f"layer{i}.biases"),
                activation=spec["activation"],
                batch_norm=bn,
                dropout_rate=_meta_number(spec["dropout_rate"], f"layer {i}: dropout_rate"),
            )
            in_width = _meta_int(spec["in"], f"layer {i}: in")
            out_width = _meta_int(spec["out"], f"layer {i}: out")
            if (in_width, out_width) != (layer.in_width, layer.out_width):
                raise ModelFormatError(
                    f"layer {i}: declared widths {in_width}x{out_width} do not "
                    f"match stored arrays {layer.in_width}x{layer.out_width}"
                )
            layers.append(layer)
        model = MlpModel(layers=layers, threshold=_meta_number(meta["threshold"], "threshold"))
        if arrays:
            raise ModelFormatError(f"unused arrays: {', '.join(sorted(arrays))}")
    except ModelStoreError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"inconsistent model description: {exc}") from exc
    return model, scaler, schema_id


def _read_arrays(manifest: Any, payload: bytes) -> dict[str, np.ndarray]:
    if not isinstance(manifest, list):
        raise ModelFormatError("array manifest missing")
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for entry in manifest:
        try:
            name = entry["name"]
            shape = tuple(entry["shape"])
        except (KeyError, TypeError) as exc:
            raise ModelFormatError(f"bad manifest entry: {entry!r}") from exc
        if not isinstance(name, str) or any(type(s) is not int or s < 0 for s in shape):
            raise ModelFormatError(f"bad manifest entry: {entry!r}")
        if name in arrays:
            raise ModelFormatError(f"array {name!r} is listed twice")
        count = math.prod(shape)  # exact: an int64 product could wrap
        nbytes = count * 8
        if offset + nbytes > len(payload):
            raise TruncatedModelError(f"array {name!r} extends past the data section")
        flat = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        try:
            arrays[name] = flat.astype(np.float64).reshape(shape)
        except ValueError as exc:  # a dimension numpy cannot index, next to a 0
            raise ModelFormatError(f"bad manifest entry: {entry!r}") from exc
        offset += nbytes
    if offset != len(payload):
        raise ModelFormatError("data section has trailing bytes")
    # One check over the whole section: a NaN weight, scale or variance would
    # otherwise load and score every file NaN, which reads as benign.
    if not np.isfinite(np.frombuffer(payload, dtype="<f8")).all():
        raise ModelFormatError("data section holds a non-finite value")
    return arrays


def save(
    model: MlpModel,
    scaler: Scaler,
    path: str,
    fingerprint: Optional[dict[str, Any]] = None,
) -> None:
    """Write atomically: temp file in the target directory, then rename.

    The temp file is created here rather than by tempfile.mkstemp, whose
    0o600 would keep a reader run as another user out: the model gets the
    mode open(path, "wb") would give a new file, 0o666 less the umask.
    """
    blob = dumps(model, scaler, fingerprint)
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, ".pdfmlp-" + secrets.token_hex(8))
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


# The largest file _read_file returns: 256 MiB.
MAX_FILE_BYTES = 1 << 28


def _read_file(path: str) -> bytes:
    """A regular file's bytes; anything else raises OSError before a read.

    The open does not block, so a FIFO with no writer is refused at once,
    and a device, which could be endless, is never read.  A file over
    MAX_FILE_BYTES is refused by its size before a read, and one that
    grows past it while read is refused after at most MAX_FILE_BYTES + 1.
    """
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode):
            raise OSError("not a regular file")
        if info.st_size <= MAX_FILE_BYTES:
            with open(fd, "rb", closefd=False) as fh:
                data = fh.read(info.st_size + 1)
                if len(data) > info.st_size:  # it grew since the fstat
                    data += fh.read(MAX_FILE_BYTES - info.st_size)
            if len(data) <= MAX_FILE_BYTES:
                return data
        raise OSError(f"file larger than {MAX_FILE_BYTES} bytes")
    finally:
        os.close(fd)


def load(path: str) -> tuple[MlpModel, Scaler, str]:
    return loads(_read_file(path))


def model_checksum(
    model: MlpModel,
    scaler: Scaler,
    fingerprint: Optional[dict[str, Any]] = None,
) -> str:
    return hashlib.sha256(dumps(model, scaler, fingerprint)).hexdigest()


def dataset_checksum(dataset: Dataset) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(dataset.features, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(dataset.labels, dtype="<i8").tobytes())
    for p in dataset.paths:
        h.update(p.encode("utf-8", "replace"))
        h.update(b"\x00")
    return h.hexdigest()
