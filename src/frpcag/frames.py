"""Grayscale frame sequences (PGM P5), synthetic video fixtures, and
low-rank background separation."""

import os
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .graph import build_graph, knn_exact
from .matrixio import DataMatrix
from .solver import SolverConfig, fista_solve


class FrameFormatError(ValueError):
    """Raised when a PGM file is malformed."""


class FrameDimensionError(ValueError):
    """Raised when frames in a sequence disagree on their dimensions."""


@dataclass(frozen=True)
class FrameSequence:
    """T grayscale frames of identical size, intensities in [0, 1]."""

    frames: np.ndarray  # (T, h, w)

    def __post_init__(self):
        if self.frames.ndim != 3:
            raise ValueError("frames must be a (T, h, w) array")

    @property
    def count(self) -> int:
        return self.frames.shape[0]

    @property
    def shape(self) -> Tuple[int, int]:
        return self.frames.shape[1], self.frames.shape[2]

    def to_matrix(self) -> DataMatrix:
        """Vectorize frames (row-major) into columns of a p x T matrix."""
        T, h, w = self.frames.shape
        return DataMatrix(self.frames.reshape(T, h * w).T)


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5, maxval <= 255, no raster byte above maxval) into
    floats in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = []
    pos = 0
    while len(tokens) < 4 and pos < len(data):
        ch = data[pos:pos + 1]
        if ch == b"#":  # comment runs to end of line
            while pos < len(data) and data[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(data) and not data[pos:pos + 1].isspace():
                pos += 1
            tokens.append(data[start:pos])
    if len(tokens) < 4 or tokens[0] != b"P5":
        raise FrameFormatError(f"{path}: not a binary PGM (P5) file")
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise FrameFormatError(f"{path}: bad PGM header") from exc
    if not (w > 0 and h > 0 and 0 < maxval < 256):
        raise FrameFormatError(f"{path}: unsupported PGM header {w}x{h} maxval={maxval}")
    pos += 1  # single whitespace byte after maxval
    raster = data[pos:pos + h * w]
    if len(raster) != h * w:
        raise FrameFormatError(f"{path}: truncated raster")
    img = np.frombuffer(raster, dtype=np.uint8).reshape(h, w)
    if img.max() > maxval:
        raise FrameFormatError(f"{path}: raster value {img.max()} above maxval {maxval}")
    return img.astype(np.float64) / maxval


def write_pgm(path, img: np.ndarray) -> None:
    """Write floats in [0, 1] as an 8-bit binary PGM; values are clamped first."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("image must be 2-d")
    quantized = np.rint(np.clip(img, 0.0, 1.0) * 255).astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quantized.tobytes())


def load_frames(directory) -> Tuple[FrameSequence, list]:
    """Read all .pgm files in a directory, sorted by name.

    Returns the sequence and the sorted file names. Raises
    FrameDimensionError when frames disagree on size and FrameFormatError /
    OSError for unreadable files.
    """
    names = sorted(f for f in os.listdir(directory) if f.lower().endswith(".pgm"))
    if not names:
        raise FrameFormatError(f"{directory}: no .pgm frames found")
    frames = []
    for name in names:
        img = read_pgm(os.path.join(directory, name))
        if frames and img.shape != frames[0].shape:
            raise FrameDimensionError(
                f"{name} is {img.shape[1]}x{img.shape[0]}, "
                f"expected {frames[0].shape[1]}x{frames[0].shape[0]}")
        frames.append(img)
    return FrameSequence(np.stack(frames)), names


def save_frames(directory, seq: FrameSequence, names) -> None:
    for name, frame in zip(names, seq.frames):
        write_pgm(os.path.join(directory, name), frame)


def separate_background(seq: FrameSequence, cfg: SolverConfig, K: int = 10,
                        sigma2="auto"):
    """Split a frame sequence into a static background and sparse foreground.

    Builds one graph over frames and one over pixels, solves the dual-graph
    objective that cfg sets on the vectorized sequence, and returns
    (background frames, |S| foreground-magnitude frames, LowRankResult).
    Frames stay in the [0, 1] intensity scale throughout.
    """
    X = seq.to_matrix()
    h, w = seq.shape
    G1 = build_graph(knn_exact(X.values, K), sigma2)       # frames
    G2 = build_graph(knn_exact(X.values.T, K), sigma2)     # pixels
    result = fista_solve(X, G1, G2, cfg)
    T = seq.count
    background = np.clip(result.U.values.T.reshape(T, h, w), 0.0, 1.0)
    foreground = np.clip(np.abs(result.S.values.T.reshape(T, h, w)), 0.0, 1.0)
    return FrameSequence(background), FrameSequence(foreground), result


def synthetic_sequence(count: int = 100, h: int = 32, w: int = 32,
                       square: int = 6, seed: int = 0):
    """Fixed smooth background plus one bright square sweeping the frame.

    Returns (FrameSequence, background image, (T, h, w) occlusion mask).
    Ground truth for background-separation tests: the background is static,
    the square has intensity 1 and moves every frame.
    """
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    background = 0.25 + 0.35 * (xx + yy) / (h + w - 2)
    for _ in range(3):  # a few smooth bumps so the background is not a pure ramp
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        background += 0.12 * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (0.15 * h * w))
    background = np.clip(background, 0.0, 0.85)

    frames = np.empty((count, h, w))
    mask = np.zeros((count, h, w), dtype=bool)
    for t in range(count):
        top = int((t * 2) % (h - square))
        left = int((t * 3) % (w - square))
        frame = background.copy()
        frame[top:top + square, left:left + square] = 1.0
        mask[t, top:top + square, left:left + square] = True
        frames[t] = frame
    return FrameSequence(frames), background, mask
