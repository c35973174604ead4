"""Binary matrix container used for all persisted dense matrices, and the
writer of every CSV table.

Layout: 8-byte magic ``PFMMAT01``, then rows and cols as unsigned 64-bit
little-endian integers, then the row-major IEEE-754 double payload.
"""

import csv
import os
import struct

import numpy as np

MAGIC = b"PFMMAT01"


def save_matrix(path, mat):
    """Write a nonempty 1-D or 2-D array as a binary matrix file (vectors as
    n x 1)."""
    a = np.asarray(mat, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError("only 1-D or 2-D arrays can be saved")
    if a.size == 0:
        raise ValueError("an empty array cannot be saved")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<QQ", a.shape[0], a.shape[1]))
        fh.write(np.ascontiguousarray(a).tobytes())


def load_matrix(path):
    """Read a binary matrix file back into a float64 array of shape (rows,
    cols); a header that declares no entries is an error."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        header = fh.read(16)
        if len(header) < 16:
            raise ValueError(f"{path}: truncated header")
        rows, cols = struct.unpack("<QQ", header)
        if rows == 0 or cols == 0:
            raise ValueError(f"{path}: header declares {rows} x {cols}, "
                             "no entries")
        size = rows * cols * 8
        # The header may claim more than the file holds: read only that.
        payload = fh.read(min(size, os.fstat(fh.fileno()).st_size - fh.tell()))
    if len(payload) != size:
        raise ValueError(f"{path}: truncated payload")
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()


def save_csv(path, header, rows):
    """Write a CSV table: the ``header`` row, then each of ``rows``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
