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


@pytest.mark.parametrize("rows", [2 ** 40, 2 ** 63])
def test_header_without_entries_names_the_file(tmp_path, rows):
    # rows x 0 once loaded as a (2^40, 0) array, and at 2^63 rows raised
    # numpy's "Maximum allowed dimension exceeded" without the path.
    path = tmp_path / "empty.bin"
    path.write_bytes(MAGIC + struct.pack("<QQ", rows, 0))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: header declares {rows} x 0, no entries")):
        load_matrix(path)


def test_zero_rows_rejected(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(MAGIC + struct.pack("<QQ", 0, 5))
    with pytest.raises(ValueError, match="no entries"):
        load_matrix(path)


@pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0)])
def test_empty_array_not_saved(tmp_path, shape):
    # Every file save_matrix writes loads back.
    path = tmp_path / "empty.bin"
    with pytest.raises(ValueError, match="empty array"):
        save_matrix(path, np.zeros(shape))
    assert not path.exists()
