import re
import struct

import numpy as np
import pytest

from pfmatch.matio import MAGIC, load_matrix, save_matrix


def test_round_trip(tmp_path, rng):
    M = rng.standard_normal((7, 4))
    path = tmp_path / "m.bin"
    save_matrix(path, M)
    back = load_matrix(path)
    assert back.dtype == np.float64
    assert back.tobytes() == M.tobytes()
    assert back.shape == (7, 4)


def test_header_layout(tmp_path):
    M = np.arange(6, dtype=np.float64).reshape(2, 3)
    path = tmp_path / "m.bin"
    save_matrix(path, M)
    raw = path.read_bytes()
    assert raw[:8] == MAGIC
    rows, cols = struct.unpack("<QQ", raw[8:24])
    assert (rows, cols) == (2, 3)
    assert len(raw) == 24 + 6 * 8
    # Row-major payload.
    assert np.frombuffer(raw[24:], dtype="<f8").tolist() == [0, 1, 2, 3, 4, 5]


def test_vector_saved_as_column(tmp_path):
    v = np.array([1.0, 2.0, 3.0])
    path = tmp_path / "v.bin"
    save_matrix(path, v)
    back = load_matrix(path)
    assert back.shape == (3, 1)
    assert np.array_equal(back.ravel(), v)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTAMAT!" + b"\0" * 24)
    with pytest.raises(ValueError, match="magic"):
        load_matrix(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(MAGIC + struct.pack("<QQ", 4, 4) + b"\0" * 16)
    with pytest.raises(ValueError):
        load_matrix(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(MAGIC + b"\0\0")
    with pytest.raises(ValueError, match=re.escape(f"{path}: truncated header")):
        load_matrix(path)
