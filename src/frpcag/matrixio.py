"""Data matrix ingestion, feature standardization and corruption generators."""

import csv
import math
import struct
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

BINARY_MAGIC = b"FRPM"


class MatrixFormatError(ValueError):
    """Raised when a matrix file is malformed (ragged rows, bad cells, bad header)."""


@dataclass(frozen=True)
class DataMatrix:
    """Dense p x n matrix: rows are features, columns are samples.

    image_dims, when present, is (h, w) with h * w = p and marks columns as
    vectorized images (required for block corruption).
    """

    values: np.ndarray
    image_dims: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError(f"expected a p x n matrix with p, n >= 1, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("matrix entries must all be finite")
        if self.image_dims is not None:
            h, w = self.image_dims
            if h < 1 or w < 1 or h * w != values.shape[0]:
                raise ValueError(f"image_dims {self.image_dims} inconsistent with p={values.shape[0]}")
        object.__setattr__(self, "values", values)

    @property
    def feature_count(self) -> int:
        return self.values.shape[0]

    @property
    def sample_count(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class CorruptionSpec:
    """Corruption recipe: one block occlusion or random missing pixels per sample."""

    kind: str  # "block" or "missing"
    fraction: float
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("block", "missing"):
            raise ValueError(f"unknown corruption kind {self.kind!r}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must lie in [0, 1], got {self.fraction}")


def load_matrix(path, fmt: str = "csv", image_dims=None) -> DataMatrix:
    """Load a DataMatrix from disk.

    fmt "csv" reads numeric RFC-4180 cells, one feature per row; fmt
    "binary-f64" reads the FRPM binary layout written by save_matrix.
    Raises MatrixFormatError on text that is not UTF-8, ragged rows,
    non-numeric or non-finite entries or a bad header, and OSError when the
    file cannot be read.
    """
    if fmt == "csv":
        rows = []
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                for lineno, record in enumerate(csv.reader(fh), start=1):
                    if not record:
                        continue
                    try:
                        rows.append([float(cell) for cell in record])
                    except ValueError as exc:
                        raise MatrixFormatError(
                            f"{path}: non-numeric cell on line {lineno}") from exc
                    if not all(map(math.isfinite, rows[-1])):
                        raise MatrixFormatError(f"{path}: non-finite cell on line {lineno}")
                    if len(rows[-1]) != len(rows[0]):
                        raise MatrixFormatError(
                            f"{path}: ragged row on line {lineno} "
                            f"({len(rows[-1])} cells, expected {len(rows[0])})"
                        )
        except (UnicodeDecodeError, csv.Error) as exc:  # csv.Error: a field past the size limit
            raise MatrixFormatError(f"{path}: {exc}") from exc
        if not rows:
            raise MatrixFormatError(f"{path}: empty file")
        return DataMatrix(np.array(rows, dtype=np.float64), image_dims=image_dims)
    if fmt == "binary-f64":
        with open(path, "rb") as fh:
            header = fh.read(20)
            if len(header) != 20 or header[:4] != BINARY_MAGIC:
                raise MatrixFormatError(f"{path}: missing FRPM header")
            p, n = struct.unpack("<QQ", header[4:])
            if p < 1 or n < 1:
                raise MatrixFormatError(f"{path}: bad dimensions {p} x {n}")
            payload = fh.read()
        expected = 8 * p * n
        if len(payload) != expected:
            raise MatrixFormatError(f"{path}: payload holds {len(payload)} bytes, expected {expected}")
        values = np.frombuffer(payload, dtype="<f8").reshape((p, n), order="F")
        if not np.all(np.isfinite(values)):
            raise MatrixFormatError(f"{path}: non-finite entry in the payload")
        return DataMatrix(values.copy(), image_dims=image_dims)
    raise ValueError(f"unknown matrix format {fmt!r}")


def save_matrix(path, X: DataMatrix, fmt: str = "csv") -> None:
    """Write a DataMatrix; binary-f64 round-trips bit-exactly."""
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in X.values:
                writer.writerow([repr(float(v)) for v in row])
    elif fmt == "binary-f64":
        with open(path, "wb") as fh:
            fh.write(BINARY_MAGIC)
            fh.write(struct.pack("<QQ", X.feature_count, X.sample_count))
            fh.write(np.asarray(X.values, dtype="<f8").tobytes(order="F"))
    else:
        raise ValueError(f"unknown matrix format {fmt!r}")


def standardize(X: DataMatrix) -> DataMatrix:
    """Center every feature row at 0 and scale it to unit sample standard deviation.

    Rows with zero variance (including single-sample matrices) map to all
    zeros instead of dividing by zero. Idempotent up to rounding.
    """
    values = X.values
    centered = values - values.mean(axis=1, keepdims=True)
    if values.shape[1] > 1:
        std = values.std(axis=1, ddof=1, keepdims=True)
    else:
        std = np.zeros((values.shape[0], 1))
    out = np.divide(centered, std, out=np.zeros_like(centered), where=std > 0)
    return DataMatrix(out, image_dims=X.image_dims)


def corrupt(X: DataMatrix, spec: CorruptionSpec):
    """Apply a corruption spec to every sample, deterministically under spec.seed.

    kind "block": one square occlusion per image, side round(sqrt(fraction*h*w))
    clipped to the image, placed uniformly at random and filled with 1.
    kind "missing": ceil(fraction*p) distinct pixels per sample set to 0.

    Returns (corrupted DataMatrix, boolean mask of corrupted entries).
    """
    rng = np.random.default_rng(spec.seed)
    values = X.values.copy()
    mask = np.zeros(values.shape, dtype=bool)
    p, n = values.shape
    if spec.kind == "block":
        if X.image_dims is None:
            raise ValueError("block corruption requires image_dims on the data matrix")
        h, w = X.image_dims
        side = int(round(np.sqrt(spec.fraction * h * w)))
        side = min(side, h, w)
        if side > 0:
            for j in range(n):
                top = rng.integers(0, h - side + 1)
                left = rng.integers(0, w - side + 1)
                block = np.zeros((h, w), dtype=bool)
                block[top:top + side, left:left + side] = True
                col_mask = block.reshape(p)
                values[col_mask, j] = 1.0
                mask[col_mask, j] = True
    else:  # missing
        count = int(np.ceil(spec.fraction * p))
        for j in range(n):
            if count > 0:
                idx = rng.choice(p, size=count, replace=False)
                values[idx, j] = 0.0
                mask[idx, j] = True
    return DataMatrix(values, image_dims=X.image_dims), mask
