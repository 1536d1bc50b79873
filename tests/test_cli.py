import argparse
import json
import math
import os
import struct
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frpcag.evalcluster
import frpcag.frames
import frpcag.graph
import frpcag.solver
from frpcag.cli import build_parser, main
from frpcag.evalcluster import two_gaussians
from frpcag.frames import load_frames, save_frames, synthetic_sequence, write_pgm
from frpcag.graph import build_graph, knn_exact, load_graph_coo, save_graph_coo
from frpcag.matrixio import load_matrix, save_matrix
from frpcag.solver import LOSSES, SolverConfig


@pytest.fixture()
def dataset(tmp_path):
    X, labels = two_gaussians(n=30, p=10, separation=10.0, seed=0)
    path = tmp_path / "data.csv"
    save_matrix(path, X, fmt="csv")
    return path, X


def build_graphs(tmp_path, data):
    g1 = tmp_path / "g1.coo"
    g2 = tmp_path / "g2.coo"
    assert main(["graph", "--input", str(data), "--k", "5", "--sigma2", "auto",
                 "--output", str(g1)]) == 0
    assert main(["graph", "--input", str(data), "--axis", "features", "--k", "5",
                 "--sigma2", "auto", "--output", str(g2)]) == 0
    return g1, g2


def test_graph_command_and_determinism(tmp_path, dataset, capsys):
    data, _ = dataset
    out = tmp_path / "g.coo"
    assert main(["graph", "--input", str(data), "--k", "4", "--output", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "vertices=30" in printed and "sigma2=1" in printed
    out2 = tmp_path / "g_rerun.coo"
    assert main(["graph", "--input", str(data), "--k", "4", "--output", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_graph_k_too_large_exits_2(tmp_path, dataset):
    data, _ = dataset
    assert main(["graph", "--input", str(data), "--k", "30",
                 "--output", str(tmp_path / "g.coo")]) == 2


def test_graph_missing_input_exits_1(tmp_path):
    assert main(["graph", "--input", str(tmp_path / "nope.csv"), "--k", "3",
                 "--output", str(tmp_path / "g.coo")]) == 1


@pytest.mark.parametrize("fmt, content", [
    ("csv", b"1,2,3\n4,nan,6\n"),
    ("csv", b"1,2,3\n4,\xff5,6\n"),
    ("csv", b"1,2,3\n1_0,5,6\n"),  # Python's float reads 1_0 as 10
    ("csv", "1,2,3\n4,\u0662,6\n".encode()),  # and ARABIC-INDIC DIGIT TWO as 2
    ("binary-f64", b"FRPM" + struct.pack("<QQ", 1, 3) + struct.pack("<3d", 1, np.inf, 3)),
])
def test_graph_bad_matrix_file_exits_1(tmp_path, fmt, content):
    data = tmp_path / "data.in"
    data.write_bytes(content)
    assert main(["graph", "--input", str(data), "--format", fmt, "--k", "1",
                 "--output", str(tmp_path / "g.coo")]) == 1


@pytest.mark.parametrize("values, flags, message", [
    # Gaussian weights underflow to 0, so the file would leave out vertex 2
    ((np.arange(12.0) ** 1.5).reshape(3, 4), ["--axis", "features", "--k", "1"],
     "1 of 3 vertices keep no edge at sigma2=1 "),
    (np.array([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1e154]]), ["--k", "1", "--sigma2", "1e-3"],
     "1 of 4 vertices keep no edge at sigma2=0.001 "),
    # the distance from sample 1 to sample 2 overflows, and so does the mean
    (np.array([[0, 1, 2e160, 3], [1, 0, 1, 2]]), ["--k", "1", "--sigma2", "auto"],
     "sigma2 auto gives the width inf; give a number"),
])
def test_graph_solve_would_reject_exits_2(tmp_path, capsys, values, flags, message):
    data, out = tmp_path / "data.csv", tmp_path / "g.coo"
    save_matrix(data, values, fmt="csv")
    assert main(["graph", "--input", str(data), *flags, "--output", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_solve_zero_gammas_identity(tmp_path, dataset):
    data, X = dataset
    g1, g2 = build_graphs(tmp_path, data)
    out_u = tmp_path / "u.bin"
    assert main(["solve", "--input", str(data), "--graph1", str(g1),
                 "--graph2", str(g2), "--gamma1", "0", "--gamma2", "0",
                 "--output-u", str(out_u)]) == 0
    U = load_matrix(out_u, "binary-f64")
    assert np.array_equal(U, X)


def test_solve_frobenius_matches_sylvester_oracle(tmp_path, dataset):
    data, X = dataset
    g1, g2 = build_graphs(tmp_path, data)
    out_u = tmp_path / "u.bin"
    trace = tmp_path / "trace.csv"
    assert main(["solve", "--input", str(data), "--graph1", str(g1),
                 "--graph2", str(g2), "--loss", "frobenius_sq",
                 "--gamma1", "2", "--gamma2", "1", "--epsilon", "1e-24",
                 "--max-iters", "20000", "--output-u", str(out_u),
                 "--output-trace", str(trace)]) == 0
    from oracles import sylvester_solve
    Ustar = sylvester_solve(X, load_graph_coo(g1, X.shape[1]),
                            load_graph_coo(g2, X.shape[0]), 2.0, 1.0)
    U = load_matrix(out_u, "binary-f64")
    assert np.linalg.norm(U - Ustar) <= 1e-6 * np.linalg.norm(Ustar)
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "iteration,objective" and len(lines) > 1


def test_solve_rerun_byte_identical(tmp_path, dataset):
    data, _ = dataset
    g1, g2 = build_graphs(tmp_path, data)
    outs = []
    for name in ("u_a.bin", "u_b.bin"):
        out = tmp_path / name
        assert main(["solve", "--input", str(data), "--graph1", str(g1),
                     "--graph2", str(g2), "--gamma1", "3", "--gamma2", "3",
                     "--output-u", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_solve_on_the_kernel_imported_from_scipy_sparse(tmp_path, dataset, monkeypatch):
    # with no extension file found, the kernel comes from scipy.sparse: the
    # same products and the same U, bit for bit
    data, X = dataset
    g1, g2 = build_graphs(tmp_path, data)
    G1 = load_graph_coo(g1, X.shape[1])
    U = np.random.default_rng(7).standard_normal((X.shape[1], 4))
    product = frpcag.graph._csr_matvecs(G1.laplacian, U)
    solve = ["solve", "--input", str(data), "--graph1", str(g1), "--graph2", str(g2),
             "--gamma1", "3", "--gamma2", "3", "--output-u"]
    assert main([*solve, str(tmp_path / "u_file.bin")]) == 0
    monkeypatch.setattr(frpcag.graph, "_SPARSETOOLS", os.path.join("sparse", "_absent"))
    frpcag.graph._sparsetools.cache_clear()
    try:
        from scipy.sparse import _sparsetools
        assert frpcag.graph._sparsetools() is _sparsetools
        assert frpcag.graph._csr_matvecs(G1.laplacian, U).tobytes() == product.tobytes()
        assert main([*solve, str(tmp_path / "u_scipy.bin")]) == 0
    finally:
        frpcag.graph._sparsetools.cache_clear()  # the next call loads the file again
    assert (tmp_path / "u_file.bin").read_bytes() == (tmp_path / "u_scipy.bin").read_bytes()


def test_solve_dimension_mismatch_exits_2(tmp_path, dataset):
    data, _ = dataset
    g1, g2 = build_graphs(tmp_path, data)
    assert main(["solve", "--input", str(data), "--graph1", str(g2),
                 "--graph2", str(g1), "--output-u", str(tmp_path / "u.bin")]) == 2


def test_solve_huge_vertex_index_exits_2(tmp_path, dataset, capsys):
    # an edge to vertex 10^9 is a size mismatch, found before any matrix is built
    data, _ = dataset
    g1, g2 = build_graphs(tmp_path, data)
    lineno = len(g1.read_text().splitlines()) + 1
    g1.write_text(g1.read_text() + "0 1000000000 1\n1000000000 0 1\n")
    assert main(["solve", "--input", str(data), "--graph1", str(g1),
                 "--graph2", str(g2), "--output-u", str(tmp_path / "u.bin")]) == 2
    assert (f"vertex index 1000000000 on line {lineno} needs 1000000001 vertices, "
            "expected 30" in capsys.readouterr().err)


# Byte-level garbage, plus triplet files written in both directions, which
# get past the reader often enough to reach the solver.
WEIGHTS = st.sampled_from(["1", "0.5", "0", "-1", "nan", "1e308", "x"])
COO_FILES = st.one_of(
    st.binary(max_size=64),
    st.dictionaries(st.tuples(st.integers(-1, 4), st.integers(-1, 4)).map(sorted).map(tuple),
                    WEIGHTS, max_size=8)
    .map(lambda edges: "".join(f"{i} {j} {w}\n{j} {i} {w}\n"
                               for (i, j), w in edges.items()).encode()))


# Byte-level garbage, CSV text of malformed or misshapen rows, and 3 x 4
# matrices of finite values up to the float64 limit, which the solver solves.
FINITE_CELLS = st.sampled_from(["0", "1", "-2.5", "1e154", "1e308", "-1e308"])
CELLS = st.one_of(FINITE_CELLS, st.sampled_from(["nan", "inf", "x", ""]))
CSV_FILES = st.one_of(
    st.binary(max_size=64),
    st.lists(st.lists(CELLS, min_size=3, max_size=5), min_size=2, max_size=4)
    .map(lambda rows: "".join(",".join(row) + "\n" for row in rows).encode()),
    st.lists(FINITE_CELLS, min_size=12, max_size=12)
    .map(lambda cells: "".join(",".join(cells[i:i + 4]) + "\n" for i in (0, 4, 8)).encode()))
VALID_GRAPHS = {  # for a 3 x 4 matrix: 4 samples, 3 features
    "graph1": b"0 1 1\n1 0 1\n1 2 1\n2 1 1\n2 3 1\n3 2 1\n",
    "graph2": b"0 1 1\n0 2 1\n1 0 1\n1 2 1\n2 0 1\n2 1 1\n",
}


@pytest.mark.parametrize("arbitrary", ["input", "graph1", "graph2"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_solve_any_file_gives_documented_exit(arbitrary, data):
    # the other two files are valid; no exception may escape
    content = data.draw(CSV_FILES if arbitrary == "input" else COO_FILES)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in ("input", "graph1", "graph2")}
        save_matrix(paths["input"], np.arange(12.0).reshape(3, 4), fmt="csv")
        for name, valid in VALID_GRAPHS.items():
            with open(paths[name], "wb") as fh:
                fh.write(valid)
        with open(paths[arbitrary], "wb") as fh:
            fh.write(content)
        assert main(["solve", "--input", paths["input"], "--graph1", paths["graph1"],
                     "--graph2", paths["graph2"], "--max-iters", "20",
                     "--output-u", os.path.join(tmp, "u.bin")]) in (0, 1, 2, 4)


@settings(max_examples=200, deadline=None)
@given(content=CSV_FILES, axis=st.sampled_from(["samples", "features"]), k=st.integers(1, 3),
       sigma2=st.sampled_from(["auto", "1", "1e-3"]))
def test_graph_writes_what_solve_reads(content, axis, k, sigma2):
    # a file written with exit 0 loads at the input's sample or feature count
    with tempfile.TemporaryDirectory() as tmp:
        data, out = os.path.join(tmp, "data.csv"), os.path.join(tmp, "g.coo")
        with open(data, "wb") as fh:
            fh.write(content)
        status = main(["graph", "--input", data, "--axis", axis, "--k", str(k),
                       "--sigma2", sigma2, "--output", out])
        assert status in (0, 1, 2)
        if status == 0:
            X = load_matrix(data)
            load_graph_coo(out, X.shape[1] if axis == "samples" else X.shape[0])


def test_solve_takes_no_config_file(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", "x.csv", "--graph1", "g1.coo", "--graph2", "g2.coo",
              "--config", "solver.conf", "--output-u", "u.bin"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    "-1 0 1\n0 -1 1\n",  # negative vertex index
    "0 1 nan\n1 0 nan\n",  # non-finite weight
    "0 1 -50\n1 0 -50\n",  # negative weight, which drives a degree below 0
])
def test_solve_bad_graph_file_exits_1(tmp_path, dataset, extra):
    data, _ = dataset
    g1, g2 = build_graphs(tmp_path, data)
    g1.write_text(g1.read_text() + extra)
    assert main(["solve", "--input", str(data), "--graph1", str(g1),
                 "--graph2", str(g2), "--output-u", str(tmp_path / "u.bin")]) == 1


@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("factor", [2.0 ** 600, 2.0 ** -600, 1e200],
                         ids=["2^600", "2^-600", "1e200"])
def test_solve_any_finite_scale_exits_0(tmp_path, capsys, factor, loss):
    # X is solved as X / r, r the power of two at or below max|X|: U is r
    # times the U of the run on X / r, whose l1 gammas are r times as large,
    # and the objective r (l1) or r^2 times its objective, inf past float64
    rng = np.random.default_rng(16)
    points = rng.standard_normal((10, 14))
    g1, g2 = tmp_path / "g1.coo", tmp_path / "g2.coo"
    save_graph_coo(build_graph(knn_exact(points, 4), "auto"), g1)
    save_graph_coo(build_graph(knn_exact(points.T, 4), "auto"), g2)
    X = points * factor
    r = math.ldexp(1.0, math.frexp(np.abs(X).max())[1] - 1)

    def solve(name, matrix, gamma):
        save_matrix(tmp_path / f"{name}.csv", matrix, fmt="csv")
        assert main(["solve", "--input", str(tmp_path / f"{name}.csv"), "--graph1", str(g1),
                     "--graph2", str(g2), "--loss", loss, "--gamma1", repr(gamma),
                     "--gamma2", repr(gamma), "--output-u", str(tmp_path / f"{name}.bin")]) == 0
        out, err = capsys.readouterr()
        assert err == ""  # no traceback, no warning
        objective = float(out.split("objective=")[1].split()[0])
        return load_matrix(tmp_path / f"{name}.bin", "binary-f64"), objective

    unit_U, unit_objective = solve("unit", X / r, 5.0 * r if loss == "l1" else 5.0)
    U, objective = solve("scaled", X, 5.0)
    assert np.isfinite(U).all() and np.array_equal(U, unit_U * r)
    assert objective == unit_objective * r * (r if loss == "frobenius_sq" else 1.0)
    assert (objective == np.inf) == (factor > 1)  # the smooth terms scale as r^2


def test_solve_float64_extremes_exits_0(tmp_path, capsys):
    # the finite cells of test_solve_any_file_gives_documented_exit side by side:
    # beside +-1e308, the entries near 1 become subnormal in X / r, r = 2^1023
    X = np.array([[1e308, -1e308, 1e154, 0.0], [1.0, -2.5, 1e308, -1e308],
                  [0.0, 1.0, -2.5, 1e154]])
    save_matrix(tmp_path / "x.csv", X, fmt="csv")
    for name, valid in VALID_GRAPHS.items():
        (tmp_path / name).write_bytes(valid)
    assert main(["solve", "--input", str(tmp_path / "x.csv"), "--graph1",
                 str(tmp_path / "graph1"), "--graph2", str(tmp_path / "graph2"),
                 "--output-u", str(tmp_path / "u.bin")]) == 0
    assert capsys.readouterr().err == ""
    assert np.isfinite(load_matrix(tmp_path / "u.bin", "binary-f64")).all()


def test_solve_step_flag_exits_2(capsys):
    # the step is always 1/(4 (gamma1 + gamma2)); there is no flag for it
    with pytest.raises(SystemExit) as exited:
        main(["solve", "--input", "x.csv", "--graph1", "g1.coo", "--graph2", "g2.coo",
              "--step", "0.1", "--output-u", "u.bin"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --step 0.1" in capsys.readouterr().err


def test_solve_non_finite_flag_exits_2(tmp_path, dataset):
    data, _ = dataset
    g1, g2 = build_graphs(tmp_path, data)
    assert main(["solve", "--input", str(data), "--graph1", str(g1),
                 "--graph2", str(g2), "--gamma1", "nan",
                 "--output-u", str(tmp_path / "u.bin")]) == 2


@pytest.mark.parametrize("flags, message", [
    (["--gamma1", "1e308"], "gamma1 + gamma2 overflows: the auto step would be 0"),
    (["--gamma1", "1e-320", "--gamma2", "0"],
     "gamma1 + gamma2 = 9.9998886718268301e-321 is too small: the auto step"),
    (["--gamma1", "1e-309", "--gamma2", "0"],
     "gamma1 + gamma2 = 1.0000000000000019e-309 is too small: the auto step"),
])
def test_solve_step_scaling_that_overflows_exits_2(tmp_path, capsys, flags, message):
    rng = np.random.default_rng(16)
    points = rng.standard_normal((10, 14))
    save_graph_coo(build_graph(knn_exact(points, 4), "auto"), tmp_path / "g1.coo")
    save_graph_coo(build_graph(knn_exact(points.T, 4), "auto"), tmp_path / "g2.coo")
    save_matrix(tmp_path / "x.csv", rng.standard_normal((10, 14)) * 1e-60, fmt="csv")
    out = tmp_path / "u.bin"
    assert main(["solve", "--input", str(tmp_path / "x.csv"), "--graph1",
                 str(tmp_path / "g1.coo"), "--graph2", str(tmp_path / "g2.coo"),
                 *flags, "--output-u", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_solve_graph_with_a_vertex_without_edges_exits_1(tmp_path, dataset, capsys):
    # sample 15 of 30 has no line: the file still gives 30 vertices
    data, _ = dataset
    g1, g2 = build_graphs(tmp_path, data)
    lines = g1.read_text().splitlines()
    g1.write_text("".join(line + "\n" for line in lines if "15" not in line.split()[:2]))
    out = tmp_path / "u.bin"
    assert main(["solve", "--input", str(data), "--graph1", str(g1),
                 "--graph2", str(g2), "--output-u", str(out)]) == 1
    assert f"{g1}: 1 of 30 vertices keep no edge" in capsys.readouterr().err
    assert not out.exists()


class Built(Exception):
    """Carries the SolverConfig a command built out of main."""


SOLVER_FLAGS = ["--gamma1", "0.25", "--gamma2", "0.5", "--epsilon", "1e-5",
                "--max-iters", "7"]


def test_solve_lays_every_solver_flag_on_the_config(tmp_path, dataset, monkeypatch):
    def built(X, G1, G2, cfg):
        raise Built(cfg)
    monkeypatch.setattr(frpcag.solver, "fista_solve", built)
    data, _ = dataset
    g1, g2 = build_graphs(tmp_path, data)
    with pytest.raises(Built) as got:
        main(["solve", "--input", str(data), "--graph1", str(g1), "--graph2", str(g2),
              "--output-u", str(tmp_path / "u.bin"), *SOLVER_FLAGS,
              "--loss", "frobenius_sq"])
    cfg = got.value.args[0]
    assert cfg == SolverConfig(loss="frobenius_sq", gamma1=0.25, gamma2=0.5, epsilon=1e-5,
                               max_iters=7)
    # every field moved off its default, so a flag that went astray would show
    assert all(getattr(cfg, f) != getattr(SolverConfig(), f) for f in vars(cfg))


@pytest.mark.parametrize("flags, expected", [
    (SOLVER_FLAGS, SolverConfig(gamma1=0.25, gamma2=0.5, epsilon=1e-5, max_iters=7)),
    ([], SolverConfig(epsilon=1e-8)),
])
def test_background_lays_every_solver_flag_on_the_config(tmp_path, monkeypatch,
                                                         flags, expected):
    def built(frames, cfg, K, sigma2):
        raise Built(cfg)
    monkeypatch.setattr(frpcag.frames, "separate_background", built)
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    for i in range(3):
        write_pgm(frames_dir / f"f{i}.pgm", np.full((4, 4), i / 4))
    with pytest.raises(Built) as got:
        main(["background", "--frames-dir", str(frames_dir),
              "--out-dir", str(tmp_path / "out"), *flags])
    assert got.value.args[0] == expected


@pytest.mark.parametrize("flag, value, message", [
    ("--epsilon", "0", "epsilon must be positive"),
    ("--max-iters", "0", "max_iters must be >= 1"),
    ("--gamma1", "-1", "gamma1 and gamma2 must be finite"),
    ("--gamma2", "inf", "gamma1 and gamma2 must be finite"),
])
def test_background_bad_solver_flag_exits_2_before_reading_frames(tmp_path, capsys,
                                                                  flag, value, message):
    # the frames directory does not exist, so reading it first would exit 1
    assert main(["background", "--frames-dir", str(tmp_path / "missing"),
                 "--out-dir", str(tmp_path / "out"), flag, value]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["1_0", "\u0661"])  # int and float read 10 and 1
def test_every_numeric_flag_exits_2_outside_the_number_grammar(capsys, value):
    # every flag with a converter, of every command, with the command's
    # required flags given; argparse exits before any file is read
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    seen = set()
    for command, sub in subparsers.choices.items():
        required = [arg for a in sub._actions if a.required for arg in (a.option_strings[0], "x")]
        for flag in (a.option_strings[0] for a in sub._actions if a.type is not None):
            seen.add(flag)
            with pytest.raises(SystemExit) as exited:
                main([command, *required, flag, value])
            assert exited.value.code == 2
            assert f"argument {flag}: invalid" in capsys.readouterr().err
    assert seen >= {"--k", "--sigma2", "--gamma1", "--gamma2", "--epsilon", "--max-iters"}


def test_background_command(tmp_path):
    frames, background, mask = synthetic_sequence(count=20, h=16, w=16, square=4, seed=1)
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    save_frames(frames_dir, frames, [f"f{i:03d}.pgm" for i in range(20)])
    out_dir = tmp_path / "out"
    assert main(["background", "--frames-dir", str(frames_dir),
                 "--out-dir", str(out_dir), "--k", "6",
                 "--gamma1", "1", "--gamma2", "1"]) == 0
    recovered, names = load_frames(out_dir)
    assert len(names) == 2 * 20
    bg = recovered[:20]  # bg_* sorts before fg_*
    never = ~mask.any(axis=0)
    mae = np.abs(bg[:, never] - background[never][None]).mean()
    assert mae <= 0.02 + 0.5 / 255


def test_background_frame_without_edges_exits_2(tmp_path, capsys):
    # 29 black 8x8 frames and one white one: at K=1 the white frame's one
    # weight underflows to 0, so its Laplacian row would be the identity row
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    for i in range(30):
        write_pgm(frames_dir / f"f{i:02d}.pgm", np.full((8, 8), float(i == 29)))
    out_dir = tmp_path / "out"
    assert main(["background", "--frames-dir", str(frames_dir), "--out-dir", str(out_dir),
                 "--k", "1", "--gamma1", "10", "--gamma2", "1"]) == 2
    assert "1 of 30 vertices keep no edge at sigma2=" in capsys.readouterr().err
    assert not out_dir.exists()


def test_background_inconsistent_dims_exits_4(tmp_path):
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    write_pgm(frames_dir / "a.pgm", np.zeros((4, 4)))
    write_pgm(frames_dir / "b.pgm", np.zeros((5, 5)))
    assert main(["background", "--frames-dir", str(frames_dir),
                 "--out-dir", str(tmp_path / "out")]) == 4


def test_background_unreadable_frames_exit_1(tmp_path):
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    (frames_dir / "a.pgm").write_bytes(b"P6 broken")
    assert main(["background", "--frames-dir", str(frames_dir),
                 "--out-dir", str(tmp_path / "out")]) == 1


def test_background_value_above_maxval_exits_1(tmp_path, capsys):
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    write_pgm(frames_dir / "a.pgm", np.zeros((4, 5)))
    (frames_dir / "b.pgm").write_bytes(b"P5 5 4 100\n" + bytes(19) + bytes([250]))
    assert main(["background", "--frames-dir", str(frames_dir), "--k", "1",
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert "b.pgm: raster value 250 above maxval 100" in capsys.readouterr().err


def test_experiment_minimal_config(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text("dataset = two-gaussians\nn = 40\np = 12\nknn_k = 5\n"
                    "sigma2 = auto\ngamma = 2\nmax_iters = 300\nrestarts = 3\n")
    assert main(["experiment", "--config", str(conf)]) == 0
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.splitlines()
               if line.startswith("{")]
    assert len(records) == 1
    assert records[0]["converged"]


def test_experiment_gamma_sweep_rank_monotone(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text("dataset = two-gaussians\nn = 60\np = 16\nknn_k = 6\n"
                    "sigma2 = auto\ngamma = 1, 10, 30\nepsilon = 1e-8\n"
                    "max_iters = 500\nrestarts = 3\n"
                    f"output = {tmp_path / 'records.jsonl'}\n")
    assert main(["experiment", "--config", str(conf)]) == 0
    lines = (tmp_path / "records.jsonl").read_text().strip().splitlines()
    ranks = [json.loads(line)["rank"] for line in lines]
    assert len(ranks) == 3
    assert ranks[0] >= ranks[1] >= ranks[2]


def test_experiment_sweep_prepares_once(tmp_path, capsys, monkeypatch):
    calls = {"knn_exact": 0, "kmeans": 0, "partial_eigs": 0}
    for name in calls:
        def counted(*args, _fn=getattr(frpcag.evalcluster, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(frpcag.evalcluster, name, counted)
    conf = tmp_path / "exp.conf"
    conf.write_text("dataset = two-gaussians\nn = 40\np = 12\nknn_k = 5\n"
                    "sigma2 = auto\ngamma = 1, 3, 10\nmax_iters = 200\nrestarts = 2\n")
    assert main(["experiment", "--config", str(conf)]) == 0
    assert calls == {"knn_exact": 2, "kmeans": 3 + 1, "partial_eigs": 1}
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()
               if line.startswith("{")]
    stages = [list(r["timings_ms"]) for r in records]
    assert stages == [["import_ms", "corrupt_ms", "standardize_ms", "graphs_ms",
                       "cluster_raw_ms", "s_r_ms", "solve_ms", "svd_ms", "cluster_ms"]] + \
        2 * [["solve_ms", "svd_ms", "cluster_ms"]]


def test_experiment_prints_each_record_as_its_gamma_is_done(tmp_path, capsys, monkeypatch):
    # the second gamma runs out of memory: the first gamma's record is out already
    calls = []

    def fail_second(*args, _fn=frpcag.evalcluster.fista_solve, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise MemoryError("the second gamma")
        return _fn(*args, **kwargs)
    monkeypatch.setattr(frpcag.evalcluster, "fista_solve", fail_second)
    output = tmp_path / "records.jsonl"
    conf = tmp_path / "exp.conf"
    conf.write_text("dataset = two-gaussians\nn = 40\np = 12\nknn_k = 5\nsigma2 = auto\n"
                    f"gamma = 1, 3\nmax_iters = 200\nrestarts = 2\noutput = {output}\n")
    assert main(["experiment", "--config", str(conf)]) == 2
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("{")]
    assert len(printed) == 1
    assert output.read_text().splitlines() == printed


EXPERIMENT = {"dataset": "two-gaussians", "n": "40", "p": "12", "knn_k": "5",
              "sigma2": "auto", "gamma": "2", "max_iters": "200", "restarts": "2",
              "corruption": "missing", "fraction": "0.3"}


def experiment_records(tmp_path, capsys, **settings):
    conf = tmp_path / "exp.conf"
    conf.write_text("".join(f"{k} = {v}\n" for k, v in {**EXPERIMENT, **settings}.items()))
    status = main(["experiment", "--config", str(conf)])
    out = capsys.readouterr()
    records = [json.loads(line) for line in out.out.splitlines() if line.startswith("{")]
    for record in records:
        record.pop("timings_ms")
    return status, records, out.err


def test_experiment_bool_values_are_strict(tmp_path, capsys):
    status, default, _ = experiment_records(tmp_path, capsys)
    assert status == 0
    assert experiment_records(tmp_path, capsys, corrupt_after_standardize="FALSE")[:2] \
        == (0, default)
    status, flipped, _ = experiment_records(tmp_path, capsys, corrupt_after_standardize="true")
    assert status == 0 and flipped != default
    for word in ("no", "maybe"):
        status, _, err = experiment_records(tmp_path, capsys, corrupt_after_standardize=word)
        assert status == 2 and "corrupt_after_standardize" in err


@pytest.mark.parametrize("key, value", [("knn_k", "5.5"), ("gamma", "nan"), ("gamma", "1, inf"),
                                        ("sigma2", "-1"), ("loss", "l2"), ("gamma1", "3"),
                                        ("knn_k", "1_0"), ("knn_k", "\u0665"),
                                        ("format", "bogus"), ("step", "0.1")])
def test_experiment_bad_value_exits_2(tmp_path, capsys, key, value):
    status, records, err = experiment_records(tmp_path, capsys, **{key: value})
    assert status == 2 and records == []
    assert str(tmp_path / "exp.conf") in err and key in err


def test_experiment_graph_with_a_vertex_without_edges_exits_2(tmp_path, capsys):
    # every weight exp(-d^2 / 1e-3) of the standardized samples underflows to 0
    output = tmp_path / "records.jsonl"
    status, records, err = experiment_records(tmp_path, capsys, sigma2="1e-3",
                                              output=str(output))
    assert status == 2 and records == []
    assert "40 of 40 vertices keep no edge at sigma2=0.001 " in err
    assert not output.exists()


@pytest.mark.parametrize("settings", [
    {"corruption": "bogus"},
    {"corruption": "missing", "fraction": "2"},
    {"cluster_on": "v"},
    {"image_height": "16"},
    {"corruption": "block"},  # block corruption needs the image keys
    {"image_height": "4", "image_width": "4", "corruption": "missing"},  # and only it
])
def test_experiment_bad_key_exits_2_before_data_loads(tmp_path, capsys, settings):
    # the dataset does not exist, so any check left until after loading exits 1
    conf = tmp_path / "exp.conf"
    conf.write_text("dataset = missing.bin\nformat = binary-f64\nlabels = missing.txt\n"
                    + "".join(f"{k} = {v}\n" for k, v in settings.items()))
    assert main(["experiment", "--config", str(conf)]) == 2
    assert str(conf) in capsys.readouterr().err


def test_experiment_file_dataset_without_labels_exits_2_before_data_loads(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text("dataset = missing.bin\nformat = binary-f64\n")
    assert main(["experiment", "--config", str(conf)]) == 2
    assert f"{conf}: file datasets need a 'labels' path" in capsys.readouterr().err


def test_experiment_two_gaussians_with_labels_exits_2_before_data_is_made(tmp_path, capsys,
                                                                          monkeypatch):
    def no_data(*args, **kwargs):
        raise AssertionError("two_gaussians ran with a labels path")
    monkeypatch.setattr(frpcag.evalcluster, "two_gaussians", no_data)
    conf = tmp_path / "exp.conf"
    conf.write_text("dataset = two-gaussians\nlabels = /nonexistent.txt\n")
    assert main(["experiment", "--config", str(conf)]) == 2
    captured = capsys.readouterr()
    assert f"{conf}: labels = /nonexistent.txt: only file datasets take a 'labels' path" \
        in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("key, value", [("rank_threshold", "-1"), ("knn_k", "0"),
                                        ("n", "-3"), ("corruption_seed", "-1")])
def test_experiment_out_of_range_key_exits_2_before_data_loads(tmp_path, capsys, key, value):
    conf = tmp_path / "exp.conf"
    conf.write_text(f"dataset = missing.bin\nlabels = missing.txt\n{key} = {value}\n")
    assert main(["experiment", "--config", str(conf)]) == 2
    assert f"{conf}: {key} must be >= " in capsys.readouterr().err


@pytest.mark.parametrize("command", [["experiment"]])
def test_config_not_utf8_exits_2_naming_the_file(tmp_path, capsys, command):
    conf = tmp_path / "latin1.conf"
    conf.write_bytes(b"# r\xe9glages\nmax_iters = 5\n")
    assert main([*command, "--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert f"error: {conf}: 'utf-8' codec can't decode byte 0xe9" in err
    assert "Traceback" not in err


def test_experiment_feature_that_overflows_exits_2(tmp_path, capsys):
    # a std of 1e300-scale values overflows; standardizing it would zero the feature
    X, labels = two_gaussians(n=12, p=6, separation=10.0, seed=2)
    save_matrix(tmp_path / "d.csv", X * 1e300, fmt="csv")
    np.savetxt(tmp_path / "labels.txt", labels, fmt="%d")
    output = tmp_path / "records.jsonl"
    conf = tmp_path / "exp.conf"
    conf.write_text(f"dataset = {tmp_path / 'd.csv'}\nlabels = {tmp_path / 'labels.txt'}\n"
                    f"knn_k = 3\nsigma2 = auto\nrestarts = 2\noutput = {output}\n")
    assert main(["experiment", "--config", str(conf)]) == 2
    out = capsys.readouterr()
    assert "error: feature 0: its mean or standard deviation overflows" in out.err
    assert "{" not in out.out and not output.exists()


def test_experiment_image_dims_apply_to_two_gaussians(tmp_path, capsys):
    status, records, _ = experiment_records(tmp_path, capsys, p="40", image_height="4",
                                            image_width="10", corruption="block")
    assert status == 0 and records[0]["corruption"]["kind"] == "block"
    for h, w in (("4", "4"), ("-3", "-4")):
        status, _, err = experiment_records(tmp_path, capsys, image_height=h, image_width=w)
        assert status == 2 and "image_dims" in err


@pytest.mark.parametrize("key", ["n", "p"])
def test_experiment_size_beyond_memory_exits_2(tmp_path, capsys, key):
    # 10^15 samples or features exceed any 64-bit address space
    status, records, err = experiment_records(tmp_path, capsys, **{key: "1000000000000000"})
    assert status == 2 and records == []
    assert "error: not enough memory" in err and "Traceback" not in err


def test_experiment_unknown_key_exits_2(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text("dataset = two-gaussians\nmystery_knob = 3\n")
    assert main(["experiment", "--config", str(conf)]) == 2
    assert "mystery_knob" in capsys.readouterr().err


def test_graph_removed_search_flags_exit_2(tmp_path, dataset):
    data, _ = dataset
    for flag in (["--mode", "approx"], ["--recall", "0.9"], ["--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(["graph", "--input", str(data), "--output", str(tmp_path / "g.coo"), *flag])
        assert exc.value.code == 2


def test_experiment_file_dataset(tmp_path):
    X, labels = two_gaussians(n=24, p=8, separation=10.0, seed=2)
    save_matrix(tmp_path / "d.csv", X, fmt="csv")
    np.savetxt(tmp_path / "labels.csv", labels, fmt="%d")
    conf = tmp_path / "exp.conf"
    conf.write_text(f"dataset = {tmp_path / 'd.csv'}\n"
                    f"labels = {tmp_path / 'labels.csv'}\n"
                    "knn_k = 4\nsigma2 = auto\ngamma = 1\nrestarts = 2\n"
                    "corruption = missing\nfraction = 0.2\ncorruption_seed = 3\n")
    assert main(["experiment", "--config", str(conf)]) == 0


def file_experiment(tmp_path, labels: bytes):
    X, _ = two_gaussians(n=12, p=6, separation=10.0, seed=2)
    save_matrix(tmp_path / "d.csv", X, fmt="csv")
    (tmp_path / "labels.txt").write_bytes(labels)
    conf = tmp_path / "exp.conf"
    conf.write_text(f"dataset = {tmp_path / 'd.csv'}\nlabels = {tmp_path / 'labels.txt'}\n"
                    "knn_k = 3\nsigma2 = auto\ngamma = 1\nrestarts = 2\n")
    return main(["experiment", "--config", str(conf)])


@pytest.mark.parametrize("labels, line", [
    (b"0\n1\nabc\n", 3),
    (b"0\nnan\n", 2),
    (b"0\n1.5\n", 2),
    (b"0 1\n" * 6, 1),  # 6 x 2 for 12 samples: the right count, the wrong shape
    (b"0\n99999999999999999999\n", 2),  # beyond int64
])
def test_experiment_bad_labels_line_exits_1(tmp_path, capsys, monkeypatch, labels, line):
    def no_sweep(*args, **kwargs):
        raise AssertionError("experiment_records ran on a bad labels file")
    monkeypatch.setattr(frpcag.evalcluster, "experiment_records", no_sweep)
    assert file_experiment(tmp_path, labels) == 1
    assert f"{tmp_path / 'labels.txt'}: expected one integer on line {line}" \
        in capsys.readouterr().err


@pytest.mark.parametrize("labels", [b"\xff\xfe0\n", b"", b"\n\n"])
def test_experiment_unreadable_labels_file_exits_1(tmp_path, capsys, labels):
    assert file_experiment(tmp_path, labels) == 1
    assert str(tmp_path / "labels.txt") in capsys.readouterr().err


def test_experiment_labels_count_mismatch_exits_2(tmp_path, capsys):
    assert file_experiment(tmp_path, b"0\n1\n" * 5 + b"\n-3\n") == 2
    assert "11 labels for 12 samples" in capsys.readouterr().err
    assert file_experiment(tmp_path, b"0\n1\n" * 6) == 0


def test_installed_entry_point_runs():
    import_root = os.path.dirname(os.path.dirname(frpcag.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [import_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "frpcag.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "graph" in proc.stdout and "background" in proc.stdout


# Arbitrary command lines: each command with its required flags (each dropped
# now and then), some of its optional flags and junk tokens anywhere. A flag's
# value is half the time one that fits it and half the time any of its kind,
# valid or not. "@name" stands for a path in the example's own directory,
# created by argv_files (or left missing).
NUMBERS = ["0", "-1", "2.5", "1e308", "nan", "inf", "x", ""]
PATHS = ["@data.csv", "@data.bin", "@g1.coo", "@g2.coo", "@junk", "@frames", "@exp.conf",
         "@file.conf", "@solver.conf", "@labels.txt", "@missing", "@dir", "@out"]


def values(fitting, others):
    return st.one_of(st.sampled_from(fitting), st.sampled_from(others))


FLAG_VALUES = {
    "--input": values(["@data.csv", "@data.bin"], PATHS),
    "--format": values(["csv", "binary-f64"], ["x", ""]),
    "--axis": values(["samples", "features"], ["x", ""]),
    "--k": values(["1", "2", "3"], NUMBERS),
    "--sigma2": values(["auto", "1", "0.5"], NUMBERS),
    "--output": values(["@out"], PATHS),
    "--graph1": values(["@g1.coo"], PATHS),
    "--graph2": values(["@g2.coo"], PATHS),
    "--config": values(["@solver.conf", "@exp.conf", "@file.conf"], PATHS),
    "--gamma1": values(["0", "1", "3"], NUMBERS),
    "--gamma2": values(["0", "1", "3"], NUMBERS),
    "--loss": values(["l1", "frobenius_sq"], ["x", ""]),
    "--epsilon": values(["1e-3", "1e-6"], NUMBERS),
    "--max-iters": values(["1", "5", "20"], NUMBERS),
    "--output-u": values(["@out"], PATHS),
    "--output-trace": values(["@out.csv"], PATHS),
    "--frames-dir": values(["@frames"], PATHS),
    "--out-dir": values(["@out"], PATHS),
}
REQUIRED = {"graph": ["--input", "--output"],
            "solve": ["--input", "--graph1", "--graph2", "--output-u"],
            "background": ["--frames-dir", "--out-dir"],
            "experiment": ["--config"]}
OPTIONAL = {"graph": ["--format", "--axis", "--k", "--sigma2"],
            "solve": ["--format", "--gamma1", "--gamma2", "--loss", "--epsilon",
                      "--max-iters", "--output-trace"],
            "background": ["--k", "--gamma1", "--gamma2", "--sigma2", "--epsilon",
                           "--max-iters"],
            "experiment": []}
JUNK = st.sampled_from([*REQUIRED, "bogus", "--help", "-h", "--nope", "-k", *FLAG_VALUES,
                        *NUMBERS, *PATHS])


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from([*REQUIRED, "bogus"]))
    flags = [flag for flag in REQUIRED.get(command, []) if draw(st.integers(0, 9))]
    optional = OPTIONAL.get(command, [*FLAG_VALUES])
    if optional:
        flags += draw(st.lists(st.sampled_from(optional), unique=True, max_size=4))
    argv = [command]
    for flag in flags:
        argv += [flag, draw(FLAG_VALUES[flag])]
    junk = draw(st.one_of(st.just([]), st.lists(JUNK, min_size=1, max_size=2)))
    at = draw(st.integers(0, len(argv)))
    return argv[:at] + junk + argv[at:]


def argv_files(tmp):
    """The files that "@name" paths name: a 6 x 8 matrix with its graphs, three
    frames, experiment and solver configs, and junk."""
    X, labels = two_gaussians(n=8, p=6, separation=10.0, seed=0)
    save_matrix(os.path.join(tmp, "data.csv"), X, fmt="csv")
    save_matrix(os.path.join(tmp, "data.bin"), X, fmt="binary-f64")
    for axis, name in (("samples", "g1.coo"), ("features", "g2.coo")):
        assert main(["graph", "--input", os.path.join(tmp, "data.csv"), "--axis", axis,
                     "--k", "2", "--sigma2", "auto", "--output", os.path.join(tmp, name)]) == 0
    os.mkdir(os.path.join(tmp, "frames"))
    frames, _, _ = synthetic_sequence(count=4, h=4, w=5, square=2, seed=0)
    save_frames(os.path.join(tmp, "frames"), frames, [f"f{i}.pgm" for i in range(4)])
    np.savetxt(os.path.join(tmp, "labels.txt"), labels, fmt="%d")
    texts = {
        "exp.conf": "n = 12\np = 6\nknn_k = 3\ngamma = 1, 3\nmax_iters = 50\nrestarts = 1\n",
        "file.conf": f"dataset = {os.path.join(tmp, 'data.csv')}\nlabels = "
                     f"{os.path.join(tmp, 'labels.txt')}\nknn_k = 2\nrestarts = 1\n",
        "solver.conf": "loss = frobenius_sq\ngamma1 = 2\nmax_iters = 20\n",
    }
    for name, text in texts.items():
        with open(os.path.join(tmp, name), "w") as fh:
            fh.write(text)
    with open(os.path.join(tmp, "junk"), "wb") as fh:
        fh.write(b"\xff\x00 1 2\n,,nan\n")
    os.mkdir(os.path.join(tmp, "dir"))


@settings(max_examples=150, deadline=None)
@given(argv=command_lines())
def test_any_argv_gives_documented_exit(argv):
    with tempfile.TemporaryDirectory() as tmp:
        argv_files(tmp)
        argv = [os.path.join(tmp, t[1:]) if t.startswith("@") else t for t in argv]
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse: --help, or a usage error
            assert exc.code in (0, 2)
        else:
            assert status in (0, 1, 2, 3, 4)
