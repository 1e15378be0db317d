import json

import numpy as np
import pytest

from smoothtta.paramio import MAGIC, header_number, load_blocks, save_blocks


def test_round_trip_preserves_bits_and_header(tmp_path):
    rng = np.random.default_rng(0)
    blocks = {
        "weights": rng.standard_normal((4, 5)),
        "intercepts": rng.standard_normal(7),
        "scalar": np.array(3.25),
    }
    header = {"kind": "test", "horizon": 7, "note": "free-form"}
    path = tmp_path / "blocks.bin"
    save_blocks(path, header, blocks)
    loaded_header, loaded = load_blocks(path)
    assert loaded_header == header
    for name, arr in blocks.items():
        assert loaded[name].shape == np.asarray(arr).shape
        assert np.array_equal(loaded[name], arr)


def test_save_casts_to_float64_row_major(tmp_path):
    arr = np.asfortranarray(np.arange(6, dtype=np.float32).reshape(2, 3))
    path = tmp_path / "blocks.bin"
    save_blocks(path, {"kind": "test"}, {"a": arr})
    _, loaded = load_blocks(path)
    assert loaded["a"].dtype == np.float64
    assert loaded["a"].flags["C_CONTIGUOUS"]
    assert np.array_equal(loaded["a"], arr.astype(np.float64))


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "blocks.bin"
    save_blocks(path, {"kind": "test"}, {"a": np.zeros(2)})
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="magic"):
        load_blocks(path)


def test_rejects_unknown_format_version(tmp_path):
    path = tmp_path / "blocks.bin"
    save_blocks(path, {"kind": "test"}, {"a": np.zeros(2)})
    raw = path.read_bytes()
    tampered = raw.replace(b'"_format_version": 1', b'"_format_version": 9')
    path.write_bytes(tampered)
    with pytest.raises(ValueError, match="version"):
        load_blocks(path)


def test_loaded_blocks_are_writable_copies(tmp_path):
    path = tmp_path / "blocks.bin"
    save_blocks(path, {"kind": "test"}, {"a": np.ones(3)})
    _, loaded = load_blocks(path)
    loaded["a"][0] = 5.0  # frombuffer views are read-only; we must have copied
    assert loaded["a"][0] == 5.0


def _write(path, head, payload: bytes) -> None:
    head_bytes = json.dumps(head).encode("utf-8")
    path.write_bytes(MAGIC + len(head_bytes).to_bytes(8, "little") + head_bytes + payload)


GOOD_HEAD = {"kind": "test", "_format_version": 1, "_blocks": [{"name": "a", "shape": [2]}]}


@pytest.mark.parametrize(
    "head, payload, message",
    [
        ([1, 2], bytes(16), "not an object"),
        ({"kind": "test", "_format_version": 1}, bytes(16), "manifest"),
        ({**GOOD_HEAD, "_blocks": [{"name": "a"}]}, bytes(16), "manifest"),
        ({**GOOD_HEAD, "_blocks": [{"name": "a", "shape": [-1]}]}, bytes(16), "manifest"),
        ({**GOOD_HEAD, "_blocks": [{"name": "a", "shape": [True]}]}, bytes(8), "manifest"),
        ({**GOOD_HEAD, "_blocks": [{"name": 3, "shape": [2]}]}, bytes(16), "manifest"),
        (GOOD_HEAD, bytes(12), "payload has 12 bytes"),
        (GOOD_HEAD, bytes(24), "payload has 24 bytes"),
        ({**GOOD_HEAD, "_blocks": [{"name": "a", "shape": [2**40, 2**40]}]}, bytes(16), "payload"),
    ],
)
def test_rejects_a_malformed_header_or_payload(tmp_path, head, payload, message):
    path = tmp_path / "blocks.bin"
    _write(path, head, payload)
    with pytest.raises(ValueError, match=message):
        load_blocks(path)


def test_rejects_a_header_length_past_the_end(tmp_path):
    path = tmp_path / "blocks.bin"
    save_blocks(path, {"kind": "test"}, {"a": np.zeros(2)})
    raw = bytearray(path.read_bytes())
    raw[4:12] = (2**62).to_bytes(8, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        load_blocks(path)


@pytest.mark.parametrize("value", [None, "16", 16.0, True, [16], float("nan")])
def test_header_number_rejects_anything_but_an_integer(value):
    with pytest.raises(ValueError, match="lookback"):
        header_number({"lookback": value}, "lookback")


def test_header_number_reads_integers_and_finite_floats():
    assert header_number({"L": 16}, "L") == 16
    assert header_number({"s": 1.5}, "s", float) == 1.5
    for bad in (float("inf"), 2, False):
        with pytest.raises(ValueError):
            header_number({"s": bad}, "s", float)
