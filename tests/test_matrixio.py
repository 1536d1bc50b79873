import struct
import warnings

import numpy as np
import pytest

from frpcag.matrixio import (CorruptionSpec, DataMatrix, MatrixFormatError,
                             corrupt, load_matrix, save_matrix, standardize)
from memtrace import traced_peak


def test_load_csv_literal(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")
    X = load_matrix(path, "csv")
    assert np.array_equal(X.values, [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("fmt", ["csv", "binary-f64"])
def test_roundtrip_bitexact(tmp_path, fmt):
    rng = np.random.default_rng(11)
    X = DataMatrix(rng.standard_normal((7, 5)))
    path = tmp_path / "m.dat"
    save_matrix(path, X, fmt)
    Y = load_matrix(path, fmt)
    assert np.array_equal(X.values, Y.values)


def test_parse_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(MatrixFormatError):
        load_matrix(empty, "csv")
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    with pytest.raises(MatrixFormatError):
        load_matrix(ragged, "csv")
    text = tmp_path / "text.csv"
    text.write_text("1,abc\n")
    with pytest.raises(MatrixFormatError):
        load_matrix(text, "csv")
    bad_header = tmp_path / "bad.bin"
    bad_header.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(MatrixFormatError):
        load_matrix(bad_header, "binary-f64")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e309"])
def test_csv_rejects_non_finite_cells(tmp_path, cell):
    path = tmp_path / "m.csv"
    path.write_text(f"1,2\n3,{cell}\n")
    with pytest.raises(MatrixFormatError, match="non-finite cell on line 2"):
        load_matrix(path, "csv")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_binary_rejects_non_finite_payload(tmp_path, value):
    path = tmp_path / "m.bin"
    with open(path, "wb") as fh:  # save_matrix cannot write it: DataMatrix refuses
        fh.write(b"FRPM" + struct.pack("<QQ", 2, 2))
        fh.write(np.array([1.0, value, 3.0, 4.0], dtype="<f8").tobytes())
    with pytest.raises(MatrixFormatError, match="non-finite"):
        load_matrix(path, "binary-f64")


def test_csv_rejects_non_utf8(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"1,2\n3,\xff4\n")
    with pytest.raises(MatrixFormatError, match="can't decode"):
        load_matrix(path, "csv")


def test_csv_rejects_oversized_field(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1," + "9" * 200_000 + "\n")  # past the csv module's field limit
    with pytest.raises(MatrixFormatError, match="field larger than field limit"):
        load_matrix(path, "csv")


def test_csv_reader_memory_below_three_matrices(tmp_path):
    # the solve workload's shape and digits; the line-by-line oracle holds 5x
    X = np.random.default_rng(0).standard_normal((100, 2000))
    path = tmp_path / "x.csv"
    np.savetxt(path, X, fmt="%.17g", delimiter=",")
    Y, peak = traced_peak(lambda: load_matrix(path, "csv"))
    assert np.array_equal(Y.values, X)
    assert peak < 3 * X.nbytes


def test_load_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        load_matrix(tmp_path / "nope.csv", "csv")


def test_datamatrix_invariants():
    with pytest.raises(ValueError):
        DataMatrix(np.array([[np.inf, 1.0]]))
    with pytest.raises(ValueError):
        DataMatrix(np.zeros((0, 3)))
    with pytest.raises(ValueError, match=r"image_dims \(3, 3\) give 9 pixels"):
        corrupt(DataMatrix(np.zeros((4, 2))), CorruptionSpec("block", 0.5, image_dims=(3, 3)))
    with pytest.raises(ValueError, match="must both be >= 1"):
        CorruptionSpec("block", 0.5, image_dims=(-2, -3))
    with pytest.raises(ValueError, match="missing corruption takes no image_dims"):
        CorruptionSpec("missing", 0.5, image_dims=(2, 3))
    X = DataMatrix(np.zeros((6, 2)))
    assert X.feature_count == 6 and X.sample_count == 2
    assert corrupt(X, CorruptionSpec("block", 0.5, image_dims=(2, 3)))[1].any()


@pytest.mark.parametrize("fmt", ["tsv", "binary-f32"])
def test_unknown_matrix_format_is_refused(tmp_path, fmt):
    path = tmp_path / "m"
    with pytest.raises(ValueError, match=f"unknown matrix format '{fmt}'"):
        save_matrix(path, DataMatrix(np.ones((2, 2))), fmt=fmt)
    assert not path.exists()
    path.write_text("1,2\n")
    with pytest.raises(ValueError, match=f"unknown matrix format '{fmt}'"):
        load_matrix(path, fmt)


def test_standardize_single_sample_gives_zeros():
    Z = standardize(DataMatrix(np.array([[3.0], [-1e300], [0.0]]))).values
    assert Z.shape == (3, 1) and np.array_equal(Z, np.zeros((3, 1)))


def test_standardize_row_oracle():
    X = DataMatrix(np.array([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]]))
    Z = standardize(X).values
    # recompute mean/std independently
    assert abs(Z[0].mean()) < 1e-12
    assert abs(Z[0].std(ddof=1) - 1.0) < 1e-12
    assert np.array_equal(Z[1], np.zeros(3))


@pytest.mark.parametrize("row", [[1e300, -1e300, 1e300],   # std overflows
                                 [1e308, 1e308, 1e308]])   # the mean's sum overflows
def test_standardize_overflow_names_the_feature(row):
    X = DataMatrix(np.array([[1.0, 2.0, 3.0], row]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning either
        with pytest.raises(ValueError, match="feature 1: its mean or standard deviation"):
            standardize(X)


def test_standardize_matches_the_row_formula_bit_for_bit():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((6, 9)) * 10.0 ** rng.integers(-100, 150, size=(6, 1))
    centered = values - values.mean(axis=1, keepdims=True)
    std = values.std(axis=1, ddof=1, keepdims=True)
    assert np.array_equal(standardize(DataMatrix(values)).values, centered / std)


def test_standardize_idempotent():
    rng = np.random.default_rng(3)
    X = DataMatrix(rng.standard_normal((8, 20)))
    once = standardize(X)
    twice = standardize(once)
    assert np.abs(twice.values - once.values).max() < 1e-12


def test_corrupt_fraction_zero_identity():
    rng = np.random.default_rng(4)
    X = DataMatrix(rng.standard_normal((16, 6)))
    for kind, dims in (("block", (4, 4)), ("missing", None)):
        Y, mask = corrupt(X, CorruptionSpec(kind=kind, fraction=0.0, seed=1, image_dims=dims))
        assert np.array_equal(Y.values, X.values)
        assert not mask.any()


def test_corrupt_missing_count_per_column():
    rng = np.random.default_rng(5)
    X = DataMatrix(rng.standard_normal((16, 9)))
    Y, mask = corrupt(X, CorruptionSpec(kind="missing", fraction=0.25, seed=2))
    assert np.array_equal(mask.sum(axis=0), np.full(9, 4))  # ceil(0.25 * 16)
    assert np.all(Y.values[mask] == 0.0)


def test_corrupt_block_geometry_and_fill():
    rng = np.random.default_rng(6)
    X = DataMatrix(rng.standard_normal((36, 5)))
    Y, mask = corrupt(X, CorruptionSpec(kind="block", fraction=0.25, seed=3, image_dims=(6, 6)))
    side = round(np.sqrt(0.25 * 36))
    for j in range(5):
        col = mask[:, j].reshape(6, 6)
        rows = np.flatnonzero(col.any(axis=1))
        cols = np.flatnonzero(col.any(axis=0))
        assert rows.size == side and cols.size == side
        assert col.sum() == side * side  # contiguous square
    assert np.all(Y.values[mask] == 1.0)


def test_corrupt_only_masked_entries_change():
    rng = np.random.default_rng(7)
    X = DataMatrix(rng.standard_normal((25, 8)))
    for kind, dims in (("block", (5, 5)), ("missing", None)):
        Y, mask = corrupt(X, CorruptionSpec(kind=kind, fraction=0.3, seed=8, image_dims=dims))
        assert np.array_equal(Y.values[~mask], X.values[~mask])


def test_corrupt_deterministic_under_seed():
    rng = np.random.default_rng(9)
    X = DataMatrix(rng.standard_normal((16, 4)))
    spec = CorruptionSpec(kind="missing", fraction=0.5, seed=13)
    Y1, m1 = corrupt(X, spec)
    Y2, m2 = corrupt(X, spec)
    assert np.array_equal(Y1.values, Y2.values) and np.array_equal(m1, m2)


def test_corrupt_block_needs_image_dims():
    X = DataMatrix(np.zeros((9, 2)))
    with pytest.raises(ValueError):
        corrupt(X, CorruptionSpec(kind="block", fraction=0.2, seed=0))
