"""Grayscale frame sequences (PGM P5), synthetic video fixtures, and
low-rank background separation."""

import os
import re
from typing import Tuple

import numpy as np

from .graph import build_graph, knn_exact
from .matrixio import DataMatrix
from .solver import SolverConfig, fista_solve


# P5, then width, height and maxval in ASCII digits (\d in a bytes pattern),
# at most 18 after leading zeros, each after whitespace and '#' comments; then
# the one whitespace byte before the raster. A comment runs to the end of its
# line, never to a '#' or space inside it, so a header that fails to match
# fails in linear time
_SKIP = rb"(?:\s|#[^\r\n]*(?![^\r\n]))*"
_PGM_HEADER = re.compile(_SKIP + rb"P5" + 3 * (rb"\s" + _SKIP + rb"0*(\d{1,18})") + rb"\s")


class FrameFormatError(ValueError):
    """Raised when a PGM file is malformed."""


class FrameDimensionError(ValueError):
    """Raised when frames in a sequence disagree on their dimensions."""


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5, maxval <= 255, no raster byte above maxval) into
    floats in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = _PGM_HEADER.match(data)
    if header is None:
        raise FrameFormatError(f"{path}: bad PGM header: expected P5, then width, height "
                               "and maxval in ASCII digits")
    w, h, maxval = map(int, header.groups())
    if not (w > 0 and h > 0 and 0 < maxval < 256):
        raise FrameFormatError(f"{path}: unsupported PGM header {w}x{h} maxval={maxval}")
    raster = data[header.end():header.end() + h * w]
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


def load_frames(directory) -> Tuple[np.ndarray, list]:
    """Read all .pgm files in a directory, sorted by name.

    Returns the (T, h, w) frames, intensities in [0, 1], and the sorted file
    names. The frames are a view of the C-ordered p x T matrix, one
    vectorized frame per column, that separate_background hands the solver
    without a copy. Raises FrameDimensionError when frames disagree on size
    and FrameFormatError / OSError for unreadable files.
    """
    names = sorted(f for f in os.listdir(directory) if f.lower().endswith(".pgm"))
    if not names:
        raise FrameFormatError(f"{directory}: no .pgm frames found")
    for t, name in enumerate(names):
        img = read_pgm(os.path.join(directory, name))
        if t == 0:
            h, w = img.shape
            X = np.empty((h * w, len(names)))
        elif img.shape != (h, w):
            raise FrameDimensionError(
                f"{name} is {img.shape[1]}x{img.shape[0]}, expected {w}x{h}")
        X[:, t] = img.ravel()
    return X.T.reshape(len(names), h, w), names


def save_frames(directory, frames: np.ndarray, names) -> None:
    for name, frame in zip(names, frames):
        write_pgm(os.path.join(directory, name), frame)


def separate_background(frames: np.ndarray, cfg: SolverConfig, K: int = 10,
                        sigma2="auto"):
    """Split (T, h, w) frames into a static background and sparse foreground.

    Vectorizes each frame (row-major) into a column of a p x T matrix X,
    builds one graph over frames and one over pixels, solves the dual-graph
    objective that cfg sets on X, and returns (background, |X - U|
    foreground magnitude, LowRankResult), the first two as (T, h, w) arrays.
    Frames stay in the [0, 1] intensity scale throughout. Raises ValueError
    unless frames has 3 dimensions.
    """
    if frames.ndim != 3:
        raise ValueError("frames must be a (T, h, w) array")
    T, h, w = frames.shape
    X = DataMatrix(frames.reshape(T, h * w).T)
    G1 = build_graph(knn_exact(X.values, K), sigma2)       # frames
    G2 = build_graph(knn_exact(X.values.T, K), sigma2)     # pixels
    result = fista_solve(X, G1, G2, cfg)
    background = np.clip(result.U.values.T.reshape(T, h, w), 0.0, 1.0)
    foreground = np.subtract(X.values, result.U.values)  # one buffer, then in place
    np.abs(foreground, out=foreground)
    np.clip(foreground, 0.0, 1.0, out=foreground)
    return background, foreground.T.reshape(T, h, w), result


def synthetic_sequence(count: int = 100, h: int = 32, w: int = 32,
                       square: int = 6, seed: int = 0):
    """Fixed smooth background plus one bright square sweeping the frame.

    Returns ((T, h, w) frames, background image, (T, h, w) occlusion mask).
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
    return frames, background, mask
