"""Readers and reference computations that share no code with frpcag.

Every check in the benchmark compares the program's output against these, so
no check trusts the parser or the algorithm it is checking.
"""

import re
import struct

import numpy as np
import scipy.sparse as sp

_PGM_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s")


def read_frpm(path) -> np.ndarray:
    """FRPM binary matrix: magic, little-endian u64 p and n, column-major f64."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"FRPM" or len(data) < 20:
        raise ValueError(f"{path}: no FRPM header")
    p, n = struct.unpack_from("<QQ", data, 4)
    if len(data) != 20 + 8 * p * n:
        raise ValueError(f"{path}: {len(data) - 20} payload bytes for {p} x {n}")
    return np.frombuffer(data, dtype="<f8", offset=20).reshape((p, n), order="F")


def write_frpm(path, values: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(b"FRPM" + struct.pack("<QQ", *values.shape))
        fh.write(np.asarray(values, dtype="<f8").tobytes(order="F"))


def read_coo(path):
    """'i j weight' text triplets -> (rows, cols, weights) arrays."""
    rows, cols, weights = [], [], []
    with open(path) as fh:
        for line in fh:
            i, j, w = line.split()
            rows.append(int(i))
            cols.append(int(j))
            weights.append(float(w))
    return np.array(rows), np.array(cols), np.array(weights)


def read_pgm(path) -> np.ndarray:
    """Binary PGM (P5) with maxval 255 -> (h, w) uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    match = _PGM_HEADER.match(data)
    if not match or int(match.group(3)) != 255:
        raise ValueError(f"{path}: not an 8-bit P5 file")
    w, h = int(match.group(1)), int(match.group(2))
    raster = data[match.end():]
    if len(raster) != w * h:
        raise ValueError(f"{path}: raster holds {len(raster)} bytes, expected {w * h}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w)


def write_pgm(path, img: np.ndarray) -> None:
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(np.asarray(img, dtype=np.uint8).tobytes())


def knn_all(points: np.ndarray, K: int) -> np.ndarray:
    """Brute-force K nearest neighbours of every column of points, (n, K).

    Squared distances come from norms and one matrix product per block of
    rows; ties go to the lower index and a point is never its own neighbour.
    """
    cols = np.ascontiguousarray(points.T)
    n = cols.shape[0]
    norms = (cols * cols).sum(axis=1)
    out = np.empty((n, K), dtype=np.int64)
    for start in range(0, n, 512):
        stop = min(start + 512, n)
        d2 = norms[start:stop, None] + norms[None, :] - 2.0 * cols[start:stop] @ cols.T
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        for row, dist in enumerate(d2):
            out[start + row] = np.lexsort((np.arange(n), dist))[:K]
    return out


def normalized_laplacian(rows, cols, weights, n) -> sp.csr_matrix:
    """I - D^-1/2 A D^-1/2 of the adjacency given as triplets."""
    A = sp.csr_matrix((weights, (rows, cols)), shape=(n, n))
    degree = np.asarray(A.sum(axis=1)).ravel()
    scale = np.zeros(n)
    scale[degree > 0] = 1.0 / np.sqrt(degree[degree > 0])
    D = sp.diags(scale)
    return (sp.identity(n, format="csr") - D @ A @ D).tocsr()


def l1_objective(U, X, L1, L2, gamma1, gamma2) -> float:
    """||U - X||_1 + gamma1 tr(U L1 U^T) + gamma2 tr(U^T L2 U)."""
    smooth_samples = float(np.sum(U.T * (L1 @ U.T)))
    smooth_features = float(np.sum(U * (L2 @ U)))
    return float(np.abs(U - X).sum()) + gamma1 * smooth_samples + gamma2 * smooth_features
