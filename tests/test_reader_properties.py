"""Property tests for the file readers: given any bytes, a reader returns a
value or raises its own documented format error, never anything else."""

import os
import struct
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from frpcag.frames import FrameFormatError, read_pgm
from frpcag.graph import GraphFormatError, load_graph_coo
from frpcag.matrixio import MatrixFormatError, load_labels, load_matrix

# Byte-level garbage, plus near-valid files that get past each header.
NUMBERS = st.sampled_from([b"0", b"1", b"2", b"-1", b"0.5", b"-2.5", b"1e308", b"1e309",
                           b"nan", b"inf", b"-inf", b"x", b"", b"\xff", b'"1"'])
CSV = st.one_of(
    st.binary(max_size=64),
    st.lists(st.lists(NUMBERS, min_size=1, max_size=4).map(b",".join), max_size=5)
    .map(b"\n".join))
FRPM = st.one_of(
    st.binary(max_size=64),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.binary(max_size=80))
    .map(lambda t: b"FRPM" + struct.pack("<QQ", t[0], t[1]) + t[2]),
    st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda pn: st.lists(st.floats(), min_size=pn[0] * pn[1], max_size=pn[0] * pn[1])
        .map(lambda cells: b"FRPM" + struct.pack(f"<QQ{len(cells)}d", *pn, *cells))))
INDICES = st.sampled_from([b"0", b"1", b"2", b"3", b"-1", b"1.5", b"a"])
COO = st.one_of(
    st.binary(max_size=64),
    st.lists(st.tuples(INDICES, INDICES, NUMBERS).map(b" ".join), max_size=8)
    .map(b"\n".join))
LABELS = st.one_of(
    st.binary(max_size=64),
    st.lists(st.one_of(NUMBERS, st.sampled_from([b"9" * 19, b"9" * 5000, b"1_0", b"+0"])),
             max_size=5).map(b"\n".join))
PGM = st.one_of(
    st.binary(max_size=64),
    st.tuples(st.sampled_from([b"P5", b"P6", b""]), st.integers(-1, 4), st.integers(-1, 4),
              st.integers(-1, 300), st.binary(max_size=20))
    .map(lambda t: b"%s\n%d %d\n%d\n" % t[:4] + t[4]))


def read_bytes_with(reader, content: bytes):
    """Write content to a fresh file and run reader on its path."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(content)
        return reader(path)


def assert_only(error, reader, content: bytes):
    try:
        read_bytes_with(reader, content)
    except error:
        pass


@settings(max_examples=300, deadline=None)
@given(CSV)
def test_csv_reader_raises_only_matrix_format_error(content):
    assert_only(MatrixFormatError, lambda path: load_matrix(path, "csv"), content)


@settings(max_examples=300, deadline=None)
@given(FRPM)
def test_frpm_reader_raises_only_matrix_format_error(content):
    assert_only(MatrixFormatError, lambda path: load_matrix(path, "binary-f64"), content)


@settings(max_examples=300, deadline=None)
@given(COO, st.integers(0, 4))
def test_coo_reader_raises_only_graph_format_error(content, vertex_count):
    assert_only(GraphFormatError, lambda path: load_graph_coo(path, vertex_count), content)


@settings(max_examples=300, deadline=None)
@given(PGM)
def test_pgm_reader_raises_only_frame_format_error(content):
    assert_only(FrameFormatError, read_pgm, content)


@settings(max_examples=300, deadline=None)
@given(LABELS)
def test_labels_reader_raises_only_matrix_format_error(content):
    assert_only(MatrixFormatError, load_labels, content)
