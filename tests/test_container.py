import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pyreid.container import (deserialize_tensors, load_tensors, save_tensors,
                              serialize_tensors)
from pyreid.errors import ContainerError


def sample_tensors():
    return {
        "weights/layer0": np.arange(6, dtype=np.float32).reshape(2, 3),
        "stats": np.array(2.5, dtype=np.float64),
        "labels": np.array([3, 1, 4, 1, 5], dtype=np.int64),
    }


class TestFormat:
    def test_header_layout(self):
        blob = serialize_tensors(sample_tensors())
        assert blob[:4] == b"PYRT"
        version, count = struct.unpack_from("<HI", blob, 4)
        assert version == 1
        assert count == 3

    def test_first_entry_encoding(self):
        blob = serialize_tensors({"ab": np.zeros((2, 3), dtype=np.float32)})
        off = 10
        (name_len,) = struct.unpack_from("<H", blob, off)
        assert name_len == 2
        assert blob[off + 2:off + 4] == b"ab"
        code, ndim = struct.unpack_from("<BB", blob, off + 4)
        assert code == 0  # f32
        assert ndim == 2
        assert struct.unpack_from("<2I", blob, off + 6) == (2, 3)
        assert len(blob) == off + 6 + 8 + 2 * 3 * 4

    def test_payload_little_endian(self):
        blob = serialize_tensors({"x": np.array([1], dtype=np.int64)})
        assert blob[-8:] == (1).to_bytes(8, "little")

    def test_utf8_names(self, tmp_path):
        tensors = {"八つ/重み": np.ones(2, dtype=np.float32)}
        save_tensors(tmp_path / "t.pyrt", tensors)
        back = load_tensors(tmp_path / "t.pyrt")
        assert list(back) == ["八つ/重み"]


class TestRoundTrip:
    def test_values_and_dtypes_survive(self, tmp_path):
        path = tmp_path / "t.pyrt"
        save_tensors(path, sample_tensors())
        back = load_tensors(path)
        for name, arr in sample_tensors().items():
            np.testing.assert_array_equal(back[name], arr)
            assert back[name].dtype == arr.dtype

    def test_roundtrip_is_byte_identical(self, tmp_path):
        path = tmp_path / "t.pyrt"
        save_tensors(path, sample_tensors())
        first = path.read_bytes()
        save_tensors(path, load_tensors(path))
        assert path.read_bytes() == first

    def test_entry_order_preserved(self):
        back = deserialize_tensors(serialize_tensors(sample_tensors()))
        assert list(back) == list(sample_tensors())

    def test_zero_dim_scalar(self):
        back = deserialize_tensors(serialize_tensors({"s": np.array(7.0)}))
        assert back["s"].shape == ()
        assert back["s"][()] == 7.0


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(ContainerError, match="magic"):
            deserialize_tensors(b"NOPE" + b"\x00" * 16)

    def test_truncated_payload(self):
        blob = serialize_tensors(sample_tensors())
        with pytest.raises(ContainerError, match="truncated"):
            deserialize_tensors(blob[:-3])

    def test_trailing_garbage(self):
        blob = serialize_tensors(sample_tensors())
        with pytest.raises(ContainerError, match="trailing"):
            deserialize_tensors(blob + b"\x00")

    def test_unsupported_dtype(self):
        with pytest.raises(ContainerError, match="unsupported dtype"):
            serialize_tensors({"x": np.zeros(2, dtype=np.int32)})

    def test_unknown_version(self):
        blob = bytearray(serialize_tensors({"x": np.zeros(1, dtype=np.float32)}))
        blob[4:6] = struct.pack("<H", 9)
        with pytest.raises(ContainerError, match="version"):
            deserialize_tensors(bytes(blob))

    def test_non_utf8_name(self):
        blob = bytearray(serialize_tensors({"ab": np.zeros(1, dtype=np.float32)}))
        blob[12:14] = b"\xff\xfe"
        with pytest.raises(ContainerError, match="UTF-8"):
            deserialize_tensors(bytes(blob))

    @pytest.mark.parametrize("dims", [(0, 2**32 - 1, 2**32 - 1), (0,) * 100])
    def test_empty_payload_with_unrepresentable_shape(self, dims):
        header = struct.pack("<H", 1) + b"x" + struct.pack("<BB", 0, len(dims))
        blob = b"PYRT" + struct.pack("<HI", 1, 1) + header + \
            struct.pack(f"<{len(dims)}I", *dims)
        with pytest.raises(ContainerError, match="shape"):
            deserialize_tensors(blob)


def _parses_or_container_error(blob: bytes) -> None:
    try:
        tensors = deserialize_tensors(blob)
    except ContainerError:
        return
    assert serialize_tensors(tensors) == blob


class TestFuzz:
    """Any byte string either decodes, and then re-encodes to itself, or
    raises ContainerError."""

    @given(st.binary(max_size=200))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_arbitrary_bytes(self, blob):
        _parses_or_container_error(blob)

    @given(st.binary(max_size=120))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_arbitrary_entries_after_a_valid_header(self, tail):
        _parses_or_container_error(b"PYRT" + struct.pack("<HI", 1, 2) + tail)

    @given(st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_mutated_valid_container(self, data):
        blob = bytearray(serialize_tensors(sample_tensors()))
        for _ in range(data.draw(st.integers(1, 4))):
            blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
        cut = data.draw(st.integers(0, len(blob)))
        _parses_or_container_error(bytes(blob[:cut]))
