"""Data matrix ingestion, feature standardization and corruption generators."""

import csv
import re
import struct
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .config import plain_number_text

BINARY_MAGIC = b"FRPM"
_BREAK = re.compile(rb"[,\r\n]")


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


def _read_table(path, error, syntax: str, valid, parse, **args):
    """The rows of the text table at path, or the error of its first offending record.

    When every byte is in the number grammar of plain_number_text, every
    64 KB block holds a ',' or a line end and none the quotechar of args (so
    no CSV cell reaches the csv module's limit of 131,072 characters: a
    quoted cell could hide its length in line breaks), np.loadtxt(path,
    **args) parses the text and valid(rows) holds, those rows are returned
    without Python work per line. Otherwise the file is read again one
    record at a time: a line, or with a quotechar in args, the cells of a
    csv.reader record.
    parse(number, record, rows above) gives the row of a record, None for a
    blank one, or raises the record's error, with number its last line (csv.reader's
    line_num). error(syntax formatted by that number) names a line
    outside the grammar or a record where parse raises another ValueError or
    an OverflowError; text that is not UTF-8 and a csv.Error fail with their
    own message, where the pass meets them.
    """
    args["comments"] = None  # a '#' line is refused, not skipped
    quote = args.get("quotechar", "").encode()
    with open(path, "rb") as fh:
        plain = all(plain_number_text(block) and _BREAK.search(block)
                    and not (quote and quote in block)
                    for block in iter(lambda: fh.read(1 << 16), b""))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty table is the caller's error
        # numpy releases from 1.23 that still carry this deprecation read '1.5'
        # in an integer field as 1 with only this warning
        warnings.simplefilter("error", DeprecationWarning)
        try:
            if plain and valid(rows := np.loadtxt(path, encoding="ascii", **args)):
                return rows
        except (ValueError, DeprecationWarning):  # the record-by-record pass names the offence
            pass
    rows, number = [], 0

    def plain_lines(text):
        nonlocal number
        for number, line in enumerate(text, start=1):
            if not plain_number_text(line):
                raise error(f"{path}: {syntax.format(number)}")
            yield line

    try:
        with open(path, encoding="utf-8", newline="") as text:
            records = plain_lines(text)
            for record in csv.reader(records) if "quotechar" in args else records:
                try:
                    row = parse(number, record, rows)
                except error:
                    raise
                except (ValueError, OverflowError):  # the record breaks the syntax
                    raise error(f"{path}: {syntax.format(number)}") from None
                if row is not None:
                    rows.append(row)
    except (UnicodeDecodeError, csv.Error) as exc:  # csv.Error: a cell past the size limit
        raise error(f"{path}: {exc}") from exc
    return np.array(rows, dtype=args.get("dtype", float))


def _csv_row(path, number: int, cells, above):
    """The numbers in the cells of one CSV record (None for an empty one);
    ValueError for a cell that is not a number, MatrixFormatError for one
    that is not finite or a width other than that of the first row above."""
    if not cells:
        return None
    row = [float(cell) for cell in cells]
    if not np.isfinite(row).all():
        raise MatrixFormatError(f"{path}: non-finite cell on line {number}")
    if above and len(row) != len(above[0]):
        raise MatrixFormatError(f"{path}: ragged row on line {number} "
                                f"({len(row)} cells, expected {len(above[0])})")
    return row


def load_matrix(path, fmt: str = "csv") -> DataMatrix:
    """Load a DataMatrix from disk.

    fmt "csv" reads numeric RFC-4180 cells, one feature per row; fmt
    "binary-f64" reads the FRPM binary layout written by save_matrix.
    Raises MatrixFormatError on text that is not UTF-8, ragged rows,
    non-numeric or non-finite entries or a bad header, and OSError when the
    file cannot be read.
    """
    if fmt == "csv":
        rows = _read_table(path, MatrixFormatError, "non-numeric cell on line {}",
                           lambda rows: np.isfinite(rows).all(),
                           lambda *record: _csv_row(path, *record),
                           delimiter=",", quotechar='"', ndmin=2)
        if rows.size == 0:
            raise MatrixFormatError(f"{path}: empty file")
        return DataMatrix(rows)
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
    rows = _read_table(path, MatrixFormatError, "expected one integer on line {}",
                       lambda rows: rows.shape[1] == 1,
                       lambda number, line, above: np.int64(line) if line.strip() else None,
                       dtype=np.int64, ndmin=2)
    if rows.size == 0:
        raise MatrixFormatError(f"{path}: no labels")
    return rows.ravel()


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
            # (h, w, n) views of the C-ordered copies: pixel (r, c) is row r * w + c
            images, hit = values.reshape(h, w, n), mask.reshape(h, w, n)
            for j in range(n):
                top = rng.integers(0, h - side + 1)
                left = rng.integers(0, w - side + 1)
                images[top:top + side, left:left + side, j] = 1.0
                hit[top:top + side, left:left + side, j] = True
    else:  # missing
        count = int(np.ceil(spec.fraction * p))
        for j in range(n):
            if count > 0:
                idx = rng.choice(p, size=count, replace=False)
                values[idx, j] = 0.0
                mask[idx, j] = True
    return DataMatrix(values), mask
