import numpy as np
import pytest

from frpcag.frames import (FrameDimensionError, FrameFormatError, FrameSequence,
                           load_frames, read_pgm, save_frames,
                           separate_background, synthetic_sequence, write_pgm)
from frpcag.matrixio import CorruptionSpec, corrupt
from frpcag.solver import SolverConfig


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
    seq, names = load_frames(tmp_path)
    assert names == ["f0.pgm", "f1.pgm", "f2.pgm"]
    assert seq.count == 3 and seq.shape == (5, 7)


def test_load_frames_dimension_mismatch(tmp_path):
    write_pgm(tmp_path / "a.pgm", np.zeros((4, 4)))
    write_pgm(tmp_path / "b.pgm", np.zeros((5, 4)))
    with pytest.raises(FrameDimensionError):
        load_frames(tmp_path)


def test_load_frames_empty_dir(tmp_path):
    with pytest.raises(FrameFormatError):
        load_frames(tmp_path)


def test_to_matrix_vectorization():
    frames = np.arange(24, dtype=np.float64).reshape(2, 3, 4) / 24
    seq = FrameSequence(frames)
    X = seq.to_matrix()
    assert X.feature_count == 12 and X.sample_count == 2
    assert np.array_equal(X.values[:, 0], frames[0].ravel())
    # the frame shape is the image_dims of a block occlusion, row by row
    _, mask = corrupt(X, CorruptionSpec("block", 0.75, image_dims=seq.shape))
    block = mask[:, 0].reshape(seq.shape)
    assert block.sum() == 9 and block.all(axis=0).sum() == 3  # 3 x 3 in a 3 x 4 frame


def test_synthetic_sequence_ground_truth():
    seq, background, mask = synthetic_sequence(count=20, h=16, w=16, square=4, seed=2)
    assert seq.count == 20
    assert mask.sum(axis=(1, 2)).tolist() == [16] * 20
    off = ~mask
    assert np.abs(seq.frames[off] - np.broadcast_to(background, seq.frames.shape)[off]).max() == 0.0
    assert np.all(seq.frames[mask] == 1.0)
    assert seq.frames.min() >= 0.0 and seq.frames.max() <= 1.0


def test_separate_background_recovers_truth():
    seq, background, mask = synthetic_sequence(count=30, h=20, w=20, square=5, seed=3)
    bg, fg, result = separate_background(seq, SolverConfig(epsilon=1e-8), K=8)
    never = ~mask.any(axis=0)
    mae = np.abs(bg.frames[:, never] - background[never][None]).mean()
    assert mae <= 0.02
    S = result.S.values.T.reshape(seq.count, 20, 20)
    energy = (S ** 2).sum()
    assert (S[mask] ** 2).sum() >= 0.9 * energy


def test_separate_background_static_sequence():
    rng = np.random.default_rng(4)
    still = np.clip(rng.random((10, 12, 12)), 0.05, 0.95)
    still[:] = still[0]
    seq = FrameSequence(still)
    bg, fg, result = separate_background(seq, SolverConfig(epsilon=1e-8), K=5)
    X = seq.to_matrix().values
    assert np.abs(result.S.values).sum() <= 0.01 * np.abs(X).sum()


def test_save_frames_roundtrip(tmp_path):
    seq, _, _ = synthetic_sequence(count=4, h=8, w=8, square=2, seed=5)
    names = [f"x{i}.pgm" for i in range(4)]
    save_frames(tmp_path, seq, names)
    back, got_names = load_frames(tmp_path)
    assert got_names == names
    assert np.abs(back.frames - seq.frames).max() <= 0.5 / 255 + 1e-12
