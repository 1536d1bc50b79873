"""Data matrix ingestion, feature standardization and corruption generators."""

import csv
import math
import re
import struct
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .config import plain_number_text

BINARY_MAGIC = b"FRPM"
_INTEGER = re.compile(r"[+-]?[0-9]+")


class MatrixFormatError(ValueError):
    """Raised when a matrix file is malformed (ragged rows, bad cells, bad header)."""


@dataclass(frozen=True)
class DataMatrix:
    """Dense p x n matrix of finite values: rows are features, columns are samples."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError(f"expected a p x n matrix with p, n >= 1, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("matrix entries must all be finite")
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
    image_dims: Optional[Tuple[int, int]] = None  # (h, w) of the column images: block only

    def __post_init__(self):
        if self.kind not in ("block", "missing"):
            raise ValueError(f"unknown corruption kind {self.kind!r}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must lie in [0, 1], got {self.fraction}")
        if (self.image_dims is None) == (self.kind == "block"):
            raise ValueError(f"{self.kind} corruption "
                             f"{'needs' if self.kind == 'block' else 'takes no'} image_dims")
        if self.image_dims is not None and min(self.image_dims) < 1:
            raise ValueError(f"image_dims {self.image_dims} must both be >= 1")


def _number_lines(fh, path):
    """The lines of fh; MatrixFormatError names one that holds an underscore or
    a non-ASCII character, which float() would read as part of a number."""
    for lineno, line in enumerate(fh, start=1):
        if not plain_number_text(line):
            raise MatrixFormatError(f"{path}: non-numeric cell on line {lineno}")
        yield line


def load_matrix(path, fmt: str = "csv") -> DataMatrix:
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
                for lineno, record in enumerate(csv.reader(_number_lines(fh, path)), start=1):
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
        return DataMatrix(np.array(rows, dtype=np.float64))
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
        return DataMatrix(values.copy())
    raise ValueError(f"unknown matrix format {fmt!r}")


def load_labels(path) -> np.ndarray:
    """Read class labels: UTF-8 text, one integer per line, blank lines skipped.

    Raises MatrixFormatError, naming the line, for a line that is not one
    integer within int64 (such as "1 2", "abc" or "nan"), for text that is not
    UTF-8 and for a file without labels; OSError when the file cannot be read.
    """
    labels = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                # 19 digits at most, so int() stays far below its digit limit
                if not (_INTEGER.fullmatch(line) and len(line.lstrip("+-0")) <= 19
                        and -2**63 <= int(line) < 2**63):
                    raise MatrixFormatError(f"{path}: expected one integer on line {lineno}")
                labels.append(int(line))
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"{path}: {exc}") from exc
    if not labels:
        raise MatrixFormatError(f"{path}: no labels")
    return np.array(labels, dtype=np.int64)


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
    zeros instead of dividing by zero. Idempotent up to rounding. Raises
    ValueError, naming the feature, when a row's mean or standard deviation
    overflows.
    """
    values = X.values
    with np.errstate(over="ignore", invalid="ignore"):
        mean = values.mean(axis=1, keepdims=True)
        if values.shape[1] > 1:
            std = values.std(axis=1, ddof=1, keepdims=True)
        else:
            std = np.zeros((values.shape[0], 1))
    finite = np.isfinite(mean) & np.isfinite(std)
    if not finite.all():
        raise ValueError(f"feature {int(np.argmin(finite))}: its mean or standard "
                         "deviation overflows, so it cannot be standardized")
    centered = values - mean
    out = np.divide(centered, std, out=np.zeros_like(centered), where=std > 0)
    return DataMatrix(out)


def corrupt(X: DataMatrix, spec: CorruptionSpec):
    """Apply a corruption spec to every sample, deterministically under spec.seed.

    kind "block": one square occlusion per image of spec.image_dims = (h, w),
    side round(sqrt(fraction*h*w)) clipped to the image, placed uniformly at
    random and filled with 1; ValueError unless h * w = p.
    kind "missing": ceil(fraction*p) distinct pixels per sample set to 0.

    Returns (corrupted DataMatrix, boolean mask of corrupted entries).
    """
    rng = np.random.default_rng(spec.seed)
    values = X.values.copy()
    mask = np.zeros(values.shape, dtype=bool)
    p, n = values.shape
    if spec.kind == "block":
        h, w = spec.image_dims
        if h * w != p:
            raise ValueError(f"image_dims {spec.image_dims} give {h * w} pixels, "
                             f"but the matrix has p={p} features")
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
    return DataMatrix(values), mask
