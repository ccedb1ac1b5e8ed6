"""Model persistence: bit-exact round trips and deliberate corruption."""

import io
import json
import os
import re
import stat
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pdfmlp import load, save, store
from pdfmlp.features import N_FEATURES, SCHEMA_ID
from pdfmlp.mlp import build_model, forward
from pdfmlp.preprocess import Scaler
from pdfmlp.store import (
    FORMAT_VERSION,
    MAGIC,
    ModelFormatError,
    ModelStoreError,
    TruncatedModelError,
    UnsupportedVersionError,
    dumps,
    loads,
    model_checksum,
)

from gradcheck import param_arrays


@pytest.fixture
def trained_pair():
    rng = np.random.default_rng(123)
    model = build_model(48, (72, 72), dropout_rate=0.15, batch_norm=True, rng=rng)
    # push the running statistics away from their init values
    forward(model, rng.normal(size=(64, 48)), mode="train", rng=rng)
    scaler = Scaler(
        means=rng.normal(size=N_FEATURES), stds=rng.uniform(0.5, 2.0, N_FEATURES)
    )
    return model, scaler


def test_roundtrip_bit_exact(tmp_path, trained_pair):
    model, scaler = trained_pair
    path = str(tmp_path / "model.bin")
    save(model, scaler, path, fingerprint={"seed": 7, "epochs": 3, "eta": 0.01, "data_checksum": "x"})
    loaded, loaded_scaler, schema_id = load(path)

    for a, b in zip(param_arrays(model), param_arrays(loaded)):
        np.testing.assert_array_equal(a, b)
    for l0, l1 in zip(model.layers, loaded.layers):
        assert l0.activation == l1.activation
        assert l0.dropout_rate == l1.dropout_rate
        if l0.batch_norm:
            np.testing.assert_array_equal(l0.batch_norm.running_mean, l1.batch_norm.running_mean)
            np.testing.assert_array_equal(l0.batch_norm.running_var, l1.batch_norm.running_var)
            assert l0.batch_norm.epsilon == l1.batch_norm.epsilon
            assert l0.batch_norm.momentum == l1.batch_norm.momentum
    np.testing.assert_array_equal(scaler.means, loaded_scaler.means)
    np.testing.assert_array_equal(scaler.stds, loaded_scaler.stds)
    assert loaded.threshold == model.threshold  # exact, not approximate
    assert schema_id == SCHEMA_ID

    rng = np.random.default_rng(5)
    X = rng.normal(size=(100, 48))
    before, _ = forward(model, X, mode="infer")
    after, _ = forward(loaded, X, mode="infer")
    np.testing.assert_array_equal(before, after)


def test_repeated_saves_identical(tmp_path, trained_pair):
    model, scaler = trained_pair
    a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    save(model, scaler, a)
    save(model, scaler, b)
    assert Path(a).read_bytes() == Path(b).read_bytes()
    assert model_checksum(model, scaler) == model_checksum(model, scaler)


def test_unwritable_path_leaves_nothing(tmp_path, trained_pair):
    model, scaler = trained_pair
    missing_dir = tmp_path / "does-not-exist"
    with pytest.raises(OSError):
        save(model, scaler, str(missing_dir / "model.bin"))
    assert not missing_dir.exists()
    assert list(tmp_path.iterdir()) == []


# Saves a model and opens a plain file in one directory under one umask.
_SAVE_UNDER_UMASK = """
import os, sys
import numpy as np
from pdfmlp import save
from pdfmlp.mlp import build_model
from pdfmlp.preprocess import Scaler
os.umask(int(sys.argv[1], 8))
model = build_model(48, (4,), rng=np.random.default_rng(0))
save(model, Scaler(means=np.zeros(48), stds=np.ones(48)), os.path.join(sys.argv[2], "model.bin"))
open(os.path.join(sys.argv[2], "plain"), "wb").close()
"""


@pytest.mark.parametrize("umask", ["022", "077"])
def test_saved_model_gets_the_mode_of_a_plain_open(tmp_path, umask):
    # The temp file came from mkstemp, so a model was 0o600 whatever the
    # umask, and a scan service run as another user could not read it.
    command = [sys.executable, "-c", _SAVE_UNDER_UMASK, umask, str(tmp_path)]
    subprocess.run(command, check=True, timeout=60)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == {"model.bin": modes["plain"], "plain": 0o666 & ~int(umask, 8)}


def test_unsupported_version(trained_pair):
    model, scaler = trained_pair
    blob = bytearray(dumps(model, scaler))
    struct.pack_into("<I", blob, len(MAGIC), FORMAT_VERSION + 1)
    with pytest.raises(UnsupportedVersionError, match="unsupported"):
        loads(bytes(blob))


def test_truncated_file(trained_pair):
    model, scaler = trained_pair
    blob = dumps(model, scaler)
    for cut in (3, len(MAGIC) + 2, len(blob) // 2, len(blob) - 1):
        with pytest.raises((TruncatedModelError, ModelFormatError)):
            loads(blob[:cut])
    with pytest.raises(TruncatedModelError):
        loads(blob[: len(blob) - 1])


def test_bad_magic(trained_pair):
    model, scaler = trained_pair
    blob = b"NOTPDF" + dumps(model, scaler)[6:]
    with pytest.raises(ModelFormatError, match="magic"):
        loads(blob)


def test_width_mismatch_detected(trained_pair):
    model, scaler = trained_pair
    blob = dumps(model, scaler)
    # lie about a layer width in the JSON metadata
    corrupted = blob.replace(b'"in":48,', b'"in":47,', 1)
    assert corrupted != blob
    with pytest.raises(ModelStoreError, match="width|match"):
        loads(corrupted)


def _with_meta(blob: bytes, edit) -> bytes:
    """blob with its metadata passed through edit, which changes it in place."""
    at = len(MAGIC) + 4
    assert blob[at : at + 4] == b"META"
    (length,) = struct.unpack_from("<Q", blob, at + 4)
    meta = json.loads(blob[at + 12 : at + 12 + length])
    edit(meta)
    new_meta = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    return blob[:at] + b"META" + struct.pack("<Q", len(new_meta)) + new_meta + blob[at + 12 + length :]


def test_model_of_a_foreign_schema_is_refused(tmp_path, trained_pair):
    # The schema is checked only here: the in-memory types carry no id,
    # so evaluate, score_dataset and scan all see it through load.
    model, scaler = trained_pair
    path = tmp_path / "foreign.bin"
    path.write_bytes(_with_meta(dumps(model, scaler), lambda meta: meta.update(schema_id="pdfmlp-v999")))
    message = "schema mismatch: model was trained on 'pdfmlp-v999', this build extracts 'pdfmlp-v1'"
    with pytest.raises(UnsupportedVersionError, match=re.escape(message)):
        load(str(path))


@pytest.mark.parametrize(
    "shape",
    [[-1], [-2, -24], [2**40, 2**40], [0, 2**63]],
    ids=["minus-one", "two-negatives", "int64-wrap", "zero-by-huge"],
)
def test_bad_manifest_shape_is_a_model_error(trained_pair, shape):
    # -1 reads the rest of the data; -2 x -24 is 48 elements but no shape; an
    # int64 product of 2**40 x 2**40 wraps to 0; 0 x 2**63 holds no element,
    # but numpy cannot index that dimension.  Each was a bare ValueError.
    model, scaler = trained_pair

    def edit(meta):
        meta["arrays"][0]["shape"] = shape

    with pytest.raises(ModelStoreError):
        loads(_with_meta(dumps(model, scaler), edit))


def _spec_not_an_object(meta):
    meta["layers"][0] = 1


def _layers_a_string(meta):
    meta["layers"] = "dense"


def _hidden_tanh(meta):
    meta["layers"][0]["activation"] = "tanh"


@pytest.mark.parametrize("edit", [_spec_not_an_object, _layers_a_string, _hidden_tanh])
def test_bad_layer_spec_is_a_model_error(trained_pair, edit):
    # A spec that is no object escaped as a bare AttributeError, and a tanh
    # hidden layer loaded and ran as a sigmoid.
    model, scaler = trained_pair
    with pytest.raises(ModelFormatError):
        loads(_with_meta(dumps(model, scaler), edit))


def _nan_weight(model, scaler):
    model.layers[0].weights[3, 5] = np.nan


def _nan_scaler_std(model, scaler):
    scaler.stds[7] = np.nan


def _nan_running_var(model, scaler):
    model.layers[1].batch_norm.running_var[0] = np.nan


def _infinite_scaler_mean(model, scaler):
    scaler.means[0] = np.inf


@pytest.mark.parametrize(
    "poison", [_nan_weight, _nan_scaler_std, _nan_running_var, _infinite_scaler_mean]
)
def test_non_finite_array_is_a_model_error(trained_pair, poison):
    # NaN passes the std and variance sign checks, so such a model loaded and
    # scored every file NaN, which reads as benign.
    model, scaler = trained_pair
    poison(model, scaler)
    with pytest.raises(ModelFormatError, match="non-finite"):
        loads(dumps(model, scaler))


@pytest.mark.parametrize(
    "field, value",
    [
        ("epsilon", float("nan")),
        ("epsilon", float("inf")),
        ("momentum", float("nan")),
        ("momentum", float("-inf")),
    ],
)
def test_non_finite_batch_norm_setting_is_a_model_error(trained_pair, field, value):
    # JSON reads NaN and Infinity; a NaN epsilon passed the epsilon <= 0 check.
    model, scaler = trained_pair

    def edit(meta):
        meta["layers"][0]["batch_norm"][field] = value

    with pytest.raises(ModelFormatError, match="batch-norm"):
        loads(_with_meta(dumps(model, scaler), edit))


@pytest.mark.parametrize("momentum", [5.0, -0.1], ids=["five", "negative"])
def test_batch_norm_momentum_out_of_range_is_a_model_error(trained_pair, momentum):
    # Both loaded; training on from such a model moves the running
    # statistics outside the batch statistics.
    model, scaler = trained_pair

    def edit(meta):
        meta["layers"][0]["batch_norm"]["momentum"] = momentum

    with pytest.raises(ModelFormatError, match="batch-norm momentum"):
        loads(_with_meta(dumps(model, scaler), edit))


def _set_layer0(field, value):
    return lambda meta: meta["layers"][0].__setitem__(field, value)


def _set_batch_norm0(field, value):
    return lambda meta: meta["layers"][0]["batch_norm"].__setitem__(field, value)


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set_layer0("in", 48.9), "layer 0: in must be an integer, got 48.9"),
        (_set_layer0("out", "72"), "layer 0: out must be an integer, got '72'"),
        (_set_batch_norm0("momentum", True), "layer 0: momentum must be a number, got True"),
        (_set_batch_norm0("epsilon", "1e-05"), "layer 0: epsilon must be a number, got '1e-05'"),
        (_set_layer0("dropout_rate", False), "layer 0: dropout_rate must be a number, got False"),
        (lambda meta: meta.update(threshold="0.62"), "threshold must be a number, got '0.62'"),
        (lambda meta: meta.update(schema_id=7), "schema_id must be a string, got 7"),
        (lambda meta: meta["arrays"][0].update(shape=["48"]), "bad manifest entry"),
        (lambda meta: meta["arrays"][1].update(shape=[48.7]), "bad manifest entry"),
    ],
    ids=["in-float", "out-string", "momentum-bool", "epsilon-string", "dropout-bool",
         "threshold-string", "schema-id-int", "shape-string", "shape-float"],
)
def test_metadata_value_of_the_wrong_type_is_a_model_error(trained_pair, edit, message):
    # dumps never writes these; they were coerced (48.9 -> 48, "72" -> 72,
    # true -> 1.0, 7 -> "7", a shape of ["48"] -> (48,)) and the file loaded.
    model, scaler = trained_pair
    with pytest.raises(ModelFormatError, match=re.escape(message)):
        loads(_with_meta(dumps(model, scaler), edit))


def _with_arrays(blob: bytes, edit) -> bytes:
    """blob with its arrays, a dict by manifest name, passed through edit."""
    at = len(MAGIC) + 4
    (meta_length,) = struct.unpack_from("<Q", blob, at + 4)
    meta = json.loads(blob[at + 12 : at + 12 + meta_length])
    arrs_at = at + 12 + meta_length
    data = np.frombuffer(blob, "<f8", offset=arrs_at + 12)
    arrays, offset = {}, 0
    for entry in meta["arrays"]:
        count = int(np.prod(entry["shape"]))
        arrays[entry["name"]] = data[offset : offset + count].reshape(entry["shape"])
        offset += count
    edit(arrays)
    meta["arrays"] = [{"name": name, "shape": list(a.shape)} for name, a in arrays.items()]
    new_meta = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    arrs = b"".join(a.astype("<f8").tobytes() for a in arrays.values())
    return (
        blob[:at]
        + b"META" + struct.pack("<Q", len(new_meta)) + new_meta
        + b"ARRS" + struct.pack("<Q", len(arrs)) + arrs
    )


def test_batch_norm_arrays_narrower_than_the_layer_are_a_model_error(trained_pair):
    # Arrays of shape (1,) loaded and broadcast over the layer's 72 outputs.
    model, scaler = trained_pair

    def edit(arrays):
        for name in ("gamma", "beta", "running_mean", "running_var"):
            arrays[f"layer0.{name}"] = arrays[f"layer0.{name}"][:1]

    blob = dumps(model, scaler)
    assert _with_arrays(blob, lambda arrays: None) == blob
    with pytest.raises(ModelFormatError, match="batch-norm width"):
        loads(_with_arrays(blob, edit))


def test_repeated_section_is_a_model_error(trained_pair):
    # The last of two META sections won: a 0.62 model loaded with 0.9.
    model, scaler = trained_pair
    blob = dumps(model, scaler)
    edited = _with_meta(blob, lambda meta: meta.update(threshold=0.9))
    assert loads(edited)[0].threshold == 0.9
    (length,) = struct.unpack_from("<Q", edited, len(MAGIC) + 8)
    second_meta = edited[len(MAGIC) + 4 : len(MAGIC) + 16 + length]
    with pytest.raises(ModelFormatError, match="appears twice"):
        loads(blob + second_meta)


def test_unknown_section_is_skipped(trained_pair):
    model, scaler = trained_pair
    loaded, _, _ = loads(dumps(model, scaler) + b"XTRA" + struct.pack("<Q", 3) + b"new")
    assert model_checksum(loaded, scaler) == model_checksum(model, scaler)


def _with_extra_array(blob: bytes, entry) -> bytes:
    """blob with entry appended to the manifest and zeros to the data."""
    at = len(MAGIC) + 4
    (meta_length,) = struct.unpack_from("<Q", blob, at + 4)
    meta = json.loads(blob[at + 12 : at + 12 + meta_length])
    meta["arrays"].append(entry)
    new_meta = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    arrs_at = at + 12 + meta_length
    assert blob[arrs_at : arrs_at + 4] == b"ARRS"
    (arrs_length,) = struct.unpack_from("<Q", blob, arrs_at + 4)
    arrs = blob[arrs_at + 12 : arrs_at + 12 + arrs_length] + bytes(8 * entry["shape"][0])
    return (
        blob[:at]
        + b"META" + struct.pack("<Q", len(new_meta)) + new_meta
        + b"ARRS" + struct.pack("<Q", len(arrs)) + arrs
    )


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"name": "scaler.means", "shape": [N_FEATURES]}, "'scaler.means' is listed twice"),
        ({"name": "layer9.weights", "shape": [2]}, "unused arrays: layer9.weights"),
        ({"name": ["scaler.means"], "shape": [2]}, "bad manifest entry"),
    ],
    ids=["duplicate", "left-over", "name-not-a-string"],
)
def test_manifest_must_name_each_array_once(trained_pair, entry, message):
    # A second scaler.means replaced the first, an array no layer takes was
    # ignored, and a list as a name escaped as a bare TypeError.
    model, scaler = trained_pair
    with pytest.raises(ModelFormatError, match=message):
        loads(_with_extra_array(dumps(model, scaler), entry))


def test_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        load(str(tmp_path / "nope.bin"))


def test_file_over_the_cap_is_refused_before_a_read(tmp_path, monkeypatch):
    monkeypatch.setattr(store, "MAX_FILE_BYTES", 64)
    path = tmp_path / "f"
    path.write_bytes(b"x" * 64)
    assert store._read_file(str(path)) == b"x" * 64
    path.write_bytes(b"x" * 65)

    def no_open(*args, **kwargs):
        raise AssertionError("opened for reading")

    monkeypatch.setattr(store, "open", no_open, raising=False)
    with pytest.raises(OSError, match=r"^file larger than 64 bytes$"):
        store._read_file(str(path))
    with pytest.raises(OSError, match="file larger than 64 bytes"):
        load(str(path))


@pytest.mark.parametrize("size, refused", [(50, False), (64, False), (65, True), (10_000, True)])
def test_file_that_grows_after_its_fstat_is_read_to_the_cap_at_most(tmp_path, monkeypatch, size, refused):
    # The fstat says 10 bytes, as it would have before the file grew.
    monkeypatch.setattr(store, "MAX_FILE_BYTES", 64)
    real_fstat = store.os.fstat

    def stale_fstat(fd):
        info = list(real_fstat(fd))
        info[stat.ST_SIZE] = 10
        return os.stat_result(info)

    read_sizes = []

    class CountingReader(io.BufferedReader):
        def read(self, n=-1):
            read_sizes.append(n)
            return super().read(n)

    def counting_open(fd, mode, closefd):
        return CountingReader(io.FileIO(fd, mode, closefd=closefd))

    path = tmp_path / "f"
    path.write_bytes(b"x" * size)
    monkeypatch.setattr(store.os, "fstat", stale_fstat)
    monkeypatch.setattr(store, "open", counting_open, raising=False)
    if refused:
        with pytest.raises(OSError, match="file larger than 64 bytes"):
            store._read_file(str(path))
    else:
        assert store._read_file(str(path)) == b"x" * size
    assert read_sizes == [11, 54]  # 65 bytes: the cap and one more


def test_checksum_reflects_parameters(trained_pair):
    model, scaler = trained_pair
    before = model_checksum(model, scaler)
    model.layers[0].weights[0, 0] += 1e-9
    assert model_checksum(model, scaler) != before
