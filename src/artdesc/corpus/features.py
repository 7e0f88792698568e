"""Feature grid files.

A grid file is a container (``artdesc/numcore/checkpoint.py``) of kind
"feature-grid" that holds one (L, D) float32 array, ``values``, converted to
float64 on load. A file of another layout, such as the old one with magic
"FGRD", is refused.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from artdesc.corpus.types import FeatureGrid
from artdesc.errors import DataError
from artdesc.numcore.checkpoint import load_container, save_container

KIND = "feature-grid"


def save_feature_grid(path: str | Path, values: np.ndarray) -> None:
    """Writes ``values`` as float32; a value that float32 cannot hold raises
    DataError before anything is written."""
    grid = FeatureGrid(values)  # validates shape/finiteness
    with np.errstate(over="ignore"):
        stored = grid.values.astype("<f4")
    if not np.isfinite(stored).all():
        raise DataError(f"{path}: feature grid value beyond the float32 range")
    save_container(path, {"kind": KIND}, {"values": stored})


def load_feature_grid(path: str | Path) -> FeatureGrid:
    """The grid in ``path``; a missing or bad file raises DataError naming it."""
    try:
        meta, arrays, _ = load_container(path, "feature grid")
    except FileNotFoundError:
        raise DataError(f"missing feature file {path}") from None
    if meta != {"kind": KIND} or list(arrays) != ["values"] or arrays["values"].dtype != "<f4":
        raise DataError(f"{path} is not a {KIND} file of one f4 array 'values'")
    try:
        return FeatureGrid(arrays["values"])
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
