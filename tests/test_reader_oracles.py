"""The table readers against the line-by-line readers they replaced (tests/oracles.py).

On any file, a reader returns the oracle's value bit for bit or raises the
oracle's error class with its message, both as it reads the file and when
every file is sent past np.loadtxt to the pass that reads one record at a
time (the property tests patch matrixio._BREAK so that no 64 KB block holds
a break). Two differences are intended:
- a COO or labels line that holds a non-ASCII whitespace character or an
  ASCII separator 0x1c-0x1f, which the oracles strip or split as
  whitespace, is refused, as CSV lines already were;
- after a quoted CSV cell that holds a line break, the readers name lines
  and the CSV oracle csv.reader records, so only the outcome and the error
  class are compared there.
"""

import csv
import io
import os
import re
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from frpcag import matrixio
from frpcag.graph import GraphFormatError, load_graph_coo
from frpcag.matrixio import MatrixFormatError, load_labels, load_matrix

ENDS = st.sampled_from([b"\n", b"\r\n", b"\r"])
BLANK = st.sampled_from([b"", b"", b" ", b"\t", b"\x0b", b"\x0c"])
NON_ASCII = [b"\xd9\xa1", b"\xc3\xa9", b"\xff", b"\xe9"]  # Arabic-Indic 1, e-acute, two non-UTF-8


def text(lines):
    """Lines of bytes, each ended by CRLF, CR or LF; the last one may have no end."""
    def join(pairs, last_end):
        return b"".join(line + end for line, end in pairs[:-1]) + (
            pairs[-1][0] + pairs[-1][1] * last_end if pairs else b"")
    return st.builds(join, st.lists(st.tuples(lines | BLANK, ENDS), max_size=8), st.booleans())


CELLS = st.sampled_from([b"0", b"1", b"-2.5", b"+1", b"01", b".5", b"1.", b"1e308", b"1e309",
                         b"-1e-320", b"nan", b"inf", b"-Infinity", b"x", b"", b" 1 ",
                         b"\x0b1\x0c", b"1\x1c", b'"1"', b'" 2 "', b'"x"', b'"1"2', b'"',
                         b'""', b'"1,2"', b"1_0", b"#1", b"1 2", b"\xe2\x80\x832", *NON_ASCII,
                         b'"1\n"', b'"1""\n"', b'"1,\n2"', b'1"', b' "1"'])
CSV = text(st.lists(CELLS, min_size=1, max_size=4).map(b",".join))

INDICES = st.sampled_from([b"0", b"1", b"2", b"3", b"+1", b"01", b"-1", b"1.5", b"a",
                           b"9223372036854775807", b"99999999999999999999",
                           b"-99999999999999999999", b"1_0", b"\xd9\xa1"])
WEIGHTS = st.sampled_from([b"1", b"0.5", b"0", b"-1", b"nan", b"inf", b"1e309", b"1e308",
                           b"x", b"1_0", b"\xc3\xa9", b"\xff"])
SPACES = st.sampled_from([b" ", b"  ", b"\t", b"\x0b", b"\x0c"])
TRIPLETS = st.tuples(BLANK, INDICES, SPACES, INDICES, SPACES, WEIGHTS, BLANK).map(b"".join)
WEIGHT = st.sampled_from([b"1", b"0.25", b"3e-300", b"0", b"1e308"])


@st.composite
def graphs(draw):
    """(COO text, vertex count): a path through every vertex and random edges,
    each written in both directions."""
    n = draw(st.integers(2, 5))
    pairs = [(k, k + 1) for k in range(n - 1)] + draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    lines = []
    for i, j in pairs:
        w = draw(WEIGHT)
        lines += [b"%d %d %s\n" % (i, j, w), b"%d %d %s\n" % (j, i, w)]
    return b"".join(lines), n


COO = st.tuples(text(TRIPLETS | st.lists(INDICES, min_size=1, max_size=4).map(b" ".join)),
                st.integers(1, 5)) | graphs()

LABEL = st.sampled_from([b"0", b"1", b"-1", b"+0", b"007", b"9" * 19, b"9" * 5000,
                         b"-9223372036854775808", b"9223372036854775807",
                         b"9223372036854775808", b"1.0", b"1 2", b"abc", b"nan", b"1e3",
                         b"1_0", b" 3 ", b"\x0b4\x0c", b"#6", *NON_ASCII])
LABELS = text(LABEL)


def outcome(reader, path):
    """("ok", the value's bytes) or ("error", the class, the message)."""
    try:
        value = reader(path)
    except (MatrixFormatError, GraphFormatError) as exc:
        return "error", type(exc), str(exc)
    if hasattr(value, "laplacian"):
        return "ok", [(a.dtype, a.tobytes()) for m in (value.adjacency, value.laplacian)
                      for a in (m.indptr, m.indices, m.data)]
    return "ok", value.dtype, value.shape, value.tobytes()


def numbered_by_record(content: bytes) -> bool:
    """True when csv.reader takes more than one line for some record."""
    reader = csv.reader(io.StringIO(content.decode("utf-8", "replace"), newline=""))
    return any(reader.line_num != k for k, _ in enumerate(reader, start=1))


def same_as_oracle(reader, oracle, content: bytes, by_record=False):
    """reader gives the oracle's outcome on content, both as it reads the file
    and with the file forced past np.loadtxt to the record-by-record pass."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(content)
        expected = outcome(oracle, path)
        got = [outcome(reader, path)]
        with mock.patch.object(matrixio, "_BREAK", re.compile(rb"(?!)")):
            got.append(outcome(reader, path))
    if by_record and numbered_by_record(content) and expected[0] == "error":
        got, expected = [g[:2] for g in got], expected[:2]
    assert got == [expected, expected]


@settings(max_examples=500, deadline=None)
@given(CSV)
def test_csv_reader_matches_its_oracle(content):
    same_as_oracle(load_matrix, oracles.load_matrix_csv, content, by_record=True)


@settings(max_examples=500, deadline=None)
@given(COO)
def test_coo_reader_matches_its_oracle(content_and_vertex_count):
    content, vertex_count = content_and_vertex_count
    same_as_oracle(lambda path: load_graph_coo(path, vertex_count),
                   lambda path: oracles.load_graph_coo(path, vertex_count), content)


@settings(max_examples=500, deadline=None)
@given(LABELS)
def test_labels_reader_matches_its_oracle(content):
    same_as_oracle(load_labels, oracles.load_labels, content)


@pytest.mark.parametrize("cells", [["1", "2"], ['"1\n"', "2"], ['"\n1"', "2"]])
def test_csv_quoted_line_break_matches_its_oracle(tmp_path, cells):
    path = tmp_path / "m.csv"
    path.write_text(",".join(cells) + "\n3,4\n")
    assert outcome(load_matrix, path) == outcome(oracles.load_matrix_csv, path)


@pytest.mark.parametrize("content", [
    b'"1\n",2\n3,' + b"0" * 131_072,
    b'"1\r\n\r\n",2\r\n3,' + b"0" * 131_072,
    b'1,"2\n' + b"0" * 131_072,
    b'1,2\n3,"4\n' + b"0" * 131_072 + b'"\n',
])
def test_csv_quoted_line_break_in_a_file_read_line_by_line_matches_its_oracle(tmp_path, content):
    # a cell of more than 64 KB without a ',' or a line end sends the file
    # past np.loadtxt to the pass that reads one record at a time
    path = tmp_path / "m.csv"
    path.write_bytes(content)
    assert outcome(load_matrix, path) == outcome(oracles.load_matrix_csv, path)


@pytest.mark.parametrize("reader, content, message", [
    (load_labels, "1\n\u3000\n2\n", "expected one integer on line 2"),
    (load_labels, "1\n2\u00a0\n", "expected one integer on line 2"),
    (load_labels, "1\n2\x1c\n", "expected one integer on line 2"),
    (lambda path: load_graph_coo(path, 2), "0 1 1\n1 0 1\u2003\n",
     "expected 'i j weight' on line 2"),
    (lambda path: load_graph_coo(path, 2), "0 1 1\n1\x1f0 1\n",
     "expected 'i j weight' on line 2"),
])
def test_whitespace_outside_the_number_grammar_is_refused(tmp_path, reader, content, message):
    # the oracles read each of these files: strip() and split() take the
    # character for whitespace
    path = tmp_path / "input"
    path.write_text(content, encoding="utf-8")
    with pytest.raises((MatrixFormatError, GraphFormatError), match=message):
        reader(path)


@pytest.mark.parametrize("last, message", [
    (b"x", "expected one integer on line 3$"), (b"\xff", "can't decode byte 0xff")])
def test_an_offence_past_the_first_decoded_chunk_keeps_file_order(tmp_path, last, message):
    # text is decoded 8 KB at a time: "x" on line 3 is named before a
    # non-UTF-8 byte 10 KB on, and a bad byte in the same chunk as a bad line
    # that follows it is named first
    lines = [b"%d" % k for k in range(3000)]
    path = tmp_path / "labels.txt"
    if last == b"x":
        path.write_bytes(b"\n".join(lines[:2] + [b"x"] + lines[3:] + [b"\xff"]))
    else:
        path.write_bytes(b"\xff\n" + b"\n".join(lines[:2] + [b"x"]))
    for reader in (load_labels, oracles.load_labels):
        with pytest.raises(MatrixFormatError, match=message):
            reader(path)


@pytest.mark.parametrize("length", [131_072, 131_073])
@pytest.mark.parametrize("quote", ["", '"'])
def test_csv_field_limit_boundary_matches_its_oracle(tmp_path, length, quote):
    # the csv module refuses a cell of more than 131,072 characters, its
    # quotes and line end not counted and a quoted ',' or line break counted;
    # np.loadtxt has no limit
    path = tmp_path / "m.csv"
    half = length // 2
    for content in (f"1,{quote}{'0' * length}{quote}\n2,3\n",
                    f"{quote}{'0' * half},{'0' * (length - 1 - half)}{quote}\n",
                    f"{quote}{chr(10) * (length - 1)}1{quote}"):
        path.write_text(content)
        assert outcome(load_matrix, path) == outcome(oracles.load_matrix_csv, path)


@pytest.mark.parametrize("reader, content, message", [
    (load_labels, "0\n1.5\n", "expected one integer on line 2"),
    (lambda path: load_graph_coo(path, 2), "0 1 1\n1.5 0 1\n", "bad triplet on line 2"),
])
def test_an_integer_field_that_numpy_truncates_is_refused(tmp_path, monkeypatch, reader,
                                                          content, message):
    # numpy 1.23 up to the end of that deprecation parses "1.5" in an integer
    # field as 1 with a DeprecationWarning; the reader refuses such a table
    loadtxt = np.loadtxt

    def truncating(source, dtype=float, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
        floats = [(name, float) for name in np.dtype(dtype).names or ()] or float
        return loadtxt(source, dtype=floats, **kwargs).astype(dtype)

    monkeypatch.setattr(np, "loadtxt", truncating)
    path = tmp_path / "input"
    path.write_text(content)
    with pytest.raises((MatrixFormatError, GraphFormatError), match=message):
        reader(path)
