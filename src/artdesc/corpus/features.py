"""Feature grid binary files and pooling.

File layout: 4 magic bytes b"FGRD", u32 L, u32 D (little-endian), then
L*D little-endian float32 values in row-major order (converted to float64
on load). Grids carry no checksum; a bad magic, a size that does not match
the header or a non-finite value is refused.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from artdesc.corpus.types import FeatureGrid
from artdesc.errors import FormatError
from artdesc.numcore.checkpoint import atomic_write

MAGIC = b"FGRD"


def save_feature_grid(path: str | Path, values: np.ndarray) -> None:
    grid = FeatureGrid(values)  # validates shape/finiteness
    atomic_write(path, [MAGIC, struct.pack("<II", grid.n_locations, grid.feature_dim),
                        grid.values.astype("<f4").tobytes(order="C")])


def load_feature_grid(path: str | Path) -> FeatureGrid:
    raw = Path(path).read_bytes()
    if len(raw) < 4 or raw[:4] != MAGIC:
        raise FormatError(f"bad feature file magic in {path}", 0)
    if len(raw) < 12:
        raise FormatError(f"truncated feature header in {path}", len(raw))
    n_loc, feat = struct.unpack("<II", raw[4:12])
    if n_loc < 1 or feat < 1:
        raise FormatError(f"invalid grid dimensions {n_loc}x{feat} in {path}", 4)
    expected = 12 + 4 * n_loc * feat
    if len(raw) != expected:
        raise FormatError(
            f"feature data size mismatch in {path}: have {len(raw)} bytes, want {expected}",
            min(len(raw), expected),
        )
    data = np.frombuffer(raw, dtype="<f4", offset=12).astype(np.float64).reshape(n_loc, feat)
    return FeatureGrid(data)


def mean_pool(grid: FeatureGrid) -> np.ndarray:
    """Arithmetic mean over the L locations; length-D vector."""
    return grid.values.mean(axis=0)
