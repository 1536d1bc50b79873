import numpy as np
import pytest

import frpcag.frames
from frpcag.frames import (FrameDimensionError, FrameFormatError, load_frames, read_pgm,
                           save_frames, separate_background, synthetic_sequence, write_pgm)
from frpcag.matrixio import CorruptionSpec, corrupt
from frpcag.solver import SolverConfig
from memtrace import traced_peak


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.random((9, 13))
    path = tmp_path / "a.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.shape == (9, 13)
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-12  # quantization only


def test_pgm_comments_and_clamping(tmp_path):
    path = tmp_path / "c.pgm"
    raster = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + raster)
    img = read_pgm(path)
    assert img.shape == (2, 3)
    assert img[0, 0] == 0.0 and abs(img[1, 2] - 5 / 255) < 1e-12
    out = tmp_path / "d.pgm"
    write_pgm(out, np.array([[-1.0, 2.0]]))
    clamped = read_pgm(out)
    assert clamped[0, 0] == 0.0 and clamped[0, 1] == 1.0


def test_pgm_errors(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P2\n2 2\n255\n1 2 3 4")
    with pytest.raises(FrameFormatError):
        read_pgm(bad)
    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(FrameFormatError):
        read_pgm(short)
    for img in (np.zeros(4), np.zeros((2, 2, 1))):
        with pytest.raises(ValueError, match="image must be 2-d"):
            write_pgm(tmp_path / "n.pgm", img)
    assert not (tmp_path / "n.pgm").exists()


@pytest.mark.parametrize("header", [
    b"P5 2_0 2 255\n",        # int() reads 2_0 as 20
    b"P5 \xd9\xa2 2 255\n",  # an Arabic-Indic 2
    b"P5 +2 2 255\n", b"P5 2 2 2\xd9\xa5\xd9\xa5\n", b"P5#c\n2 2 255\n", b"P6 2 2 255\n",
    b"P5 2 2 255",            # no whitespace byte before the raster
    # a comment must run to its line end: otherwise each '#' or space in it
    # doubles the ways a failing match splits it, and the match hangs
    b"P5\n" + b"#" * 64 + b"\n2_0 2 255\n", b"#" * 64 + b"\nP5 2 2 x\n",
    b"P5 2\n" + b"# " * 64 + b"\n2 \xd9\xa5\n",
])
def test_pgm_header_outside_ascii_digits_is_refused(tmp_path, header):
    path = tmp_path / "h.pgm"
    path.write_bytes(header + bytes(40))
    with pytest.raises(FrameFormatError, match="h.pgm: bad PGM header"):
        read_pgm(path)


def test_pgm_value_above_maxval(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5 5 4 100\n" + bytes([100] * 19) + bytes([250]))
    with pytest.raises(FrameFormatError, match="m.pgm: raster value 250 above maxval 100"):
        read_pgm(path)
    path.write_bytes(b"P5 5 4 100\n" + bytes([100] * 20))
    assert (read_pgm(path) == 1.0).all()


def test_load_frames_sorted_and_consistent(tmp_path):
    rng = np.random.default_rng(1)
    imgs = rng.random((3, 5, 7))
    for i, img in enumerate(imgs):
        write_pgm(tmp_path / f"f{i}.pgm", img)
    frames, names = load_frames(tmp_path)
    assert names == ["f0.pgm", "f1.pgm", "f2.pgm"]
    assert frames.shape == (3, 5, 7)


def test_load_frames_dimension_mismatch(tmp_path):
    write_pgm(tmp_path / "a.pgm", np.zeros((4, 4)))
    write_pgm(tmp_path / "b.pgm", np.zeros((5, 4)))
    with pytest.raises(FrameDimensionError):
        load_frames(tmp_path)


def test_load_frames_empty_dir(tmp_path):
    with pytest.raises(FrameFormatError):
        load_frames(tmp_path)


def test_to_matrix_vectorization(monkeypatch):
    # the p x T matrix separate_background hands the solver: frames
    # vectorized row by row into its columns
    frames = np.arange(24, dtype=np.float64).reshape(2, 3, 4) / 24
    solved = []
    solve = frpcag.frames.fista_solve
    monkeypatch.setattr(frpcag.frames, "fista_solve",
                        lambda X, *args: solved.append(X) or solve(X, *args))
    separate_background(frames, SolverConfig(max_iters=2), K=1)
    X, = solved
    assert X.feature_count == 12 and X.sample_count == 2
    assert np.array_equal(X.values[:, 0], frames[0].ravel())
    # the frame shape is the image_dims of a block occlusion, row by row
    _, mask = corrupt(X, CorruptionSpec("block", 0.75, image_dims=frames.shape[1:]))
    block = mask[:, 0].reshape(frames.shape[1:])
    assert block.sum() == 9 and block.all(axis=0).sum() == 3  # 3 x 3 in a 3 x 4 frame


def test_separate_background_refuses_other_than_three_dimensions():
    for frames in (np.zeros((4, 9)), np.zeros((2, 3, 3, 1))):
        with pytest.raises(ValueError, match=r"frames must be a \(T, h, w\) array"):
            separate_background(frames, SolverConfig())


def quantized_sequence(tmp_path, **shape):
    """C-ordered synthetic frames on the 8-bit grid, and the same frames
    written to PGM files and read back."""
    frames, _, _ = synthetic_sequence(**shape)
    frames = np.rint(frames * 255) / 255
    save_frames(tmp_path, frames, [f"f{t:03d}.pgm" for t in range(len(frames))])
    return frames, load_frames(tmp_path)[0]


def test_loaded_frames_are_a_view_of_a_c_ordered_matrix(tmp_path):
    frames, back = quantized_sequence(tmp_path, count=5, h=8, w=9, square=2)
    X = back.reshape(5, 8 * 9).T  # separate_background's vectorization
    assert X.flags.c_contiguous and np.shares_memory(X, back)
    assert back.base.shape == (8 * 9, 5) and back.base.flags.c_contiguous
    assert np.array_equal(back, frames)
    assert np.array_equal(X, frames.reshape(5, 8 * 9).T)


def test_separate_background_is_the_same_on_loaded_frames(tmp_path):
    frames, back = quantized_sequence(tmp_path, count=24, h=12, w=10, square=3, seed=6)
    cfg = SolverConfig(epsilon=1e-8)
    for a, b in zip(separate_background(frames, cfg, K=6),
                    separate_background(back, cfg, K=6)):
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b)
        else:
            assert np.array_equal(a.U.values, b.U.values)
            assert a.objective_trace == b.objective_trace


def test_separate_background_memory_on_loaded_frames(tmp_path):
    # the background workload's shape: 104 frames of 64 x 64; the solve is
    # the peak, with four p x n buffers beside frames it does not copy
    _, back = quantized_sequence(tmp_path, count=104, h=64, w=64)
    cfg = SolverConfig(max_iters=10)
    _, peak = traced_peak(lambda: separate_background(back, cfg, K=10))
    assert peak <= 5.5 * back.nbytes


def test_synthetic_sequence_ground_truth():
    frames, background, mask = synthetic_sequence(count=20, h=16, w=16, square=4, seed=2)
    assert frames.shape == (20, 16, 16)
    assert mask.sum(axis=(1, 2)).tolist() == [16] * 20
    off = ~mask
    assert np.abs(frames[off] - np.broadcast_to(background, frames.shape)[off]).max() == 0.0
    assert np.all(frames[mask] == 1.0)
    assert frames.min() >= 0.0 and frames.max() <= 1.0


def test_separate_background_recovers_truth():
    frames, background, mask = synthetic_sequence(count=30, h=20, w=20, square=5, seed=3)
    bg, fg, result = separate_background(frames, SolverConfig(epsilon=1e-8), K=8)
    never = ~mask.any(axis=0)
    mae = np.abs(bg[:, never] - background[never][None]).mean()
    assert mae <= 0.02
    S = frames - result.U.values.T.reshape(30, 20, 20)
    energy = (S ** 2).sum()
    assert (S[mask] ** 2).sum() >= 0.9 * energy


def test_separate_background_static_sequence():
    rng = np.random.default_rng(4)
    still = np.clip(rng.random((10, 12, 12)), 0.05, 0.95)
    still[:] = still[0]
    bg, fg, result = separate_background(still, SolverConfig(epsilon=1e-8), K=5)
    X = still.reshape(10, 12 * 12).T
    assert np.abs(X - result.U.values).sum() <= 0.01 * np.abs(X).sum()


def test_save_frames_roundtrip(tmp_path):
    frames, _, _ = synthetic_sequence(count=4, h=8, w=8, square=2, seed=5)
    names = [f"x{i}.pgm" for i in range(4)]
    save_frames(tmp_path, frames, names)
    back, got_names = load_frames(tmp_path)
    assert got_names == names
    assert np.abs(back - frames).max() <= 0.5 / 255 + 1e-12
