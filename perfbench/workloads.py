"""Seeded inputs, CLI commands and output checks for the three workloads.

Each workload writes its inputs into a work directory, names the CLI
commands of one pass, and checks the outputs of a pass against the
generator's ground truth and the reference computations in reference.py.
"""

import json
import os
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

import reference as ref

KNN_K = 10


@dataclass
class Case:
    commands: List[List[str]]          # argv of each CLI command in one pass
    fingerprint: Callable[[list], bytes]   # stdouts of a pass -> its deterministic outputs
    check: Callable[[list], List[str]]     # stdouts of a pass -> problems found


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _stdout_field(text: str, key: str) -> str:
    """Value of 'key=value' in the last line of a command's stdout."""
    fields = dict(item.split("=", 1) for item in text.strip().splitlines()[-1].split())
    return fields[key]


# ---------------------------------------------------------------- sweep

SWEEP_SIDE = 16
SWEEP_CLASSES = 10
SWEEP_SAMPLES = 400
SWEEP_FRACTION = 0.2
SWEEP_GAMMAS = (1.0, 3.0, 10.0, 30.0)


def _sweep_images(rng, n):
    """Ten classes of 16x16 images with pixel noise, intensities in [0, 1].

    Each class prototype lights a random half of a 4x4 grid of 4x4-pixel
    cells at 0.65 over a 0.3 ground. The contrast is low next to a block
    occlusion (which sets pixels to 1), so the occlusion hurts k-means on raw
    X and the recovered U can do better. The prototypes are the same for
    every seed; the seed draws the samples, their order and their noise.
    """
    cells = SWEEP_SIDE // 4
    fixed = np.random.default_rng(0)
    prototypes = np.array([
        0.3 + 0.35 * np.kron(fixed.random((cells, cells)) < 0.5, np.ones((4, 4))).ravel()
        for _ in range(SWEEP_CLASSES)])
    labels = rng.permutation(np.arange(n) % SWEEP_CLASSES)
    values = prototypes[labels].T + 0.05 * rng.standard_normal((SWEEP_SIDE * SWEEP_SIDE, n))
    return np.clip(values, 0.0, 1.0), labels


def sweep(work: str, seed: int) -> Case:
    rng = np.random.default_rng([seed, 1])
    values, labels = _sweep_images(rng, SWEEP_SAMPLES)
    ref.write_frpm(os.path.join(work, "images.bin"), values)
    np.savetxt(os.path.join(work, "labels.txt"), labels, fmt="%d")
    config = "\n".join([
        "dataset = images.bin",
        "format = binary-f64",
        "labels = labels.txt",
        f"image_height = {SWEEP_SIDE}",
        f"image_width = {SWEEP_SIDE}",
        "corruption = block",
        f"fraction = {SWEEP_FRACTION}",
        f"corruption_seed = {seed}",
        f"knn_k = {KNN_K}",
        "sigma2 = auto",
        "gamma = " + ", ".join(f"{g:g}" for g in SWEEP_GAMMAS),
        "epsilon = 1e-6",
        "max_iters = 1000",
        f"seed = {seed}",
        "output = records.jsonl",
    ])
    with open(os.path.join(work, "sweep.conf"), "w") as fh:
        fh.write(config + "\n")
    side = min(int(round(np.sqrt(SWEEP_FRACTION * SWEEP_SIDE * SWEEP_SIDE))), SWEEP_SIDE)
    expected_entries = SWEEP_SAMPLES * side * side

    def records():
        with open(os.path.join(work, "records.jsonl")) as fh:
            return [json.loads(line) for line in fh]

    def fingerprint(stdouts):
        stable = [{k: v for k, v in r.items() if k != "timings_ms"} for r in records()]
        return json.dumps(stable, sort_keys=True).encode()

    def check(stdouts):
        problems = []
        recs = records()
        gammas = [r["solver"]["gamma1"] for r in recs]
        if gammas != list(SWEEP_GAMMAS):
            return [f"sweep: records for gammas {gammas}, expected {list(SWEEP_GAMMAS)}"]
        entries = [r["corruption"]["entries"] for r in recs]
        if any(e != expected_entries for e in entries):
            problems.append(f"sweep: corrupted entries {entries}, expected {expected_entries}")
        ranks = [r["rank"] for r in recs]
        if any(b > a for a, b in zip(ranks, ranks[1:])):
            problems.append(f"sweep: rank estimate rises with gamma: {ranks}")
        best = min(r["error"] for r in recs)
        raw = recs[0]["error_raw"]
        if best > raw:
            problems.append(f"sweep: best clustering error {best} exceeds raw-X error {raw}")
        return problems

    return Case([["experiment", "--config", "sweep.conf"]], fingerprint, check)


# ---------------------------------------------------------------- solve

SOLVE_FEATURES = 100
SOLVE_SAMPLES = 2000
SOLVE_RANK = 5
SOLVE_CLUSTERS = 10
SOLVE_OUTLIERS = 0.05
SOLVE_GAMMA = 3.0
# A tolerance no run meets, so every seed runs the same iterations: `solve`
# measures the cost of an iteration; `sweep` and `background` stop on
# convergence and show changes in the iteration count.
SOLVE_EPSILON = 1e-15
SOLVE_ITERATIONS = 250
SOLVE_CHECKED_VERTICES = 200


def _solve_matrix(rng):
    """Clustered low-rank matrix with smooth feature loadings, plus gross errors.

    The loadings and cluster centres are the same for every seed, so every
    seed poses a problem of the same difficulty; the seed draws the samples
    and the errors.
    """
    p, n = SOLVE_FEATURES, SOLVE_SAMPLES
    fixed = np.random.default_rng(0)
    basis = np.cumsum(fixed.standard_normal((p, SOLVE_RANK)), axis=0)
    basis *= np.sqrt(p) / np.linalg.norm(basis, axis=0)
    centers = fixed.standard_normal((SOLVE_RANK, SOLVE_CLUSTERS))
    labels = rng.integers(0, SOLVE_CLUSTERS, n)
    coef = centers[:, labels] + 0.15 * rng.standard_normal((SOLVE_RANK, n))
    clean = basis @ coef / np.sqrt(SOLVE_RANK)
    hit = rng.random((p, n)) < SOLVE_OUTLIERS
    errors = np.zeros((p, n))
    errors[hit] = rng.choice([-1.0, 1.0], hit.sum()) * rng.uniform(3, 6, hit.sum()) * clean.std()
    return clean, clean + errors


def _check_graph(path, points, sigma2, rng, name):
    """Sampled vertices' neighbours and weights in a COO file against brute force."""
    problems = []
    rows, cols, weights = ref.read_coo(path)
    listed = ref.knn_all(points, KNN_K)
    n = points.shape[1]
    for q in rng.choice(n, size=min(SOLVE_CHECKED_VERTICES, n), replace=False):
        edge = rows == q
        found = cols[edge]
        # union rule: j is a neighbour of q iff either lists the other
        expected = set(listed[q]) | set(np.nonzero((listed == q).any(axis=1))[0])
        if set(found) != expected:
            problems.append(f"{name}: vertex {q} has neighbours {sorted(found)}, "
                            f"brute force gives {sorted(expected)}")
        else:
            d2 = ((points[:, found] - points[:, q:q + 1]) ** 2).sum(axis=0)
            if not np.allclose(weights[edge], np.exp(-d2 / sigma2), rtol=1e-9, atol=0.0):
                problems.append(f"{name}: vertex {q} weights differ from exp(-d^2/sigma2)")
        if len(problems) >= 3:
            break
    return problems


def solve(work: str, seed: int) -> Case:
    rng = np.random.default_rng([seed, 2])
    clean, X = _solve_matrix(rng)
    np.savetxt(os.path.join(work, "x.csv"), X, fmt="%.17g", delimiter=",")
    gamma = f"{SOLVE_GAMMA:g}"
    commands = [
        ["graph", "--input", "x.csv", "--k", str(KNN_K), "--sigma2", "auto",
         "--output", "g1.coo"],
        ["graph", "--input", "x.csv", "--axis", "features", "--k", str(KNN_K),
         "--sigma2", "auto", "--output", "g2.coo"],
        ["solve", "--input", "x.csv", "--graph1", "g1.coo", "--graph2", "g2.coo",
         "--loss", "l1", "--gamma1", gamma, "--gamma2", gamma,
         "--epsilon", f"{SOLVE_EPSILON:g}", "--max-iters", str(SOLVE_ITERATIONS),
         "--output-u", "u.bin", "--output-trace", "trace.csv"],
    ]
    outputs = ["g1.coo", "g2.coo", "u.bin", "trace.csv"]

    def fingerprint(stdouts):
        return "".join(stdouts).encode() + b"".join(_read(os.path.join(work, f)) for f in outputs)

    def check(stdouts):
        problems = []
        check_rng = np.random.default_rng([seed, 3])
        for stdout, path, points, name in ((stdouts[0], "g1.coo", X, "sample graph"),
                                           (stdouts[1], "g2.coo", X.T, "feature graph")):
            sigma2 = float(_stdout_field(stdout, "sigma2"))
            problems += _check_graph(os.path.join(work, path), points, sigma2, check_rng, name)
        U = ref.read_frpm(os.path.join(work, "u.bin"))
        laplacians = []
        for path, n in (("g1.coo", X.shape[1]), ("g2.coo", X.shape[0])):
            laplacians.append(ref.normalized_laplacian(*ref.read_coo(os.path.join(work, path)), n))
        printed = float(_stdout_field(stdouts[2], "objective"))
        recomputed = ref.l1_objective(U, X, *laplacians, SOLVE_GAMMA, SOLVE_GAMMA)
        if abs(printed - recomputed) > 1e-9 * abs(recomputed):
            problems.append(f"solve: printed objective {printed!r}, recomputed {recomputed!r}")
        at_x = ref.l1_objective(X, X, *laplacians, SOLVE_GAMMA, SOLVE_GAMMA)
        if recomputed > at_x:
            problems.append(f"solve: objective {recomputed} above its value at X ({at_x})")
        err_u, err_x = np.linalg.norm(U - clean), np.linalg.norm(X - clean)
        if not err_u < err_x:
            problems.append(f"solve: ||U - L*|| = {err_u} is not below ||X - L*|| = {err_x}")
        return problems

    return Case(commands, fingerprint, check)


# ---------------------------------------------------------------- background

FRAME_COUNT = 104
FRAME_SIDE = 64
SQUARE_SIDE = 12
SQUARE_STEP = (2, 3)  # pixels per frame, down and right, wrapping around
BACKGROUND_GAMMAS = ("10", "1")


def _frames(rng):
    """Smooth static background with one bright square moving across it.

    The background is the same for every seed; the seed draws where the
    square starts. Returns the 8-bit frames, the background in [0, 1] and
    the (T, h, w) mask of pixels the square covers.
    """
    h = w = FRAME_SIDE
    yy, xx = np.mgrid[0:h, 0:w]
    fixed = np.random.default_rng(0)
    background = 0.25 + 0.35 * (xx + yy) / (h + w - 2)
    for _ in range(3):
        cy, cx = fixed.uniform(0, h), fixed.uniform(0, w)
        background += 0.12 * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (0.15 * h * w))
    background = np.clip(background, 0.0, 0.85)
    top0, left0 = rng.integers(0, h - SQUARE_SIDE, 2)
    frames = np.repeat(background[None], FRAME_COUNT, axis=0)
    mask = np.zeros(frames.shape, dtype=bool)
    for t in range(FRAME_COUNT):
        top = (top0 + t * SQUARE_STEP[0]) % (h - SQUARE_SIDE)
        left = (left0 + t * SQUARE_STEP[1]) % (w - SQUARE_SIDE)
        mask[t, top:top + SQUARE_SIDE, left:left + SQUARE_SIDE] = True
    frames[mask] = 1.0
    return np.rint(frames * 255).astype(np.uint8), background, mask


def background(work: str, seed: int) -> Case:
    rng = np.random.default_rng([seed, 4])
    frames, truth, mask = _frames(rng)
    frame_dir = os.path.join(work, "frames")
    os.makedirs(frame_dir)
    names = [f"f{t:04d}.pgm" for t in range(FRAME_COUNT)]
    for name, frame in zip(names, frames):
        ref.write_pgm(os.path.join(frame_dir, name), frame)
    out_dir = os.path.join(work, "out")
    g1, g2 = BACKGROUND_GAMMAS
    command = ["background", "--frames-dir", "frames", "--out-dir", "out",
               "--k", str(KNN_K), "--gamma1", g1, "--gamma2", g2]

    def fingerprint(stdouts):
        return stdouts[0].encode() + b"".join(
            _read(os.path.join(out_dir, f)) for f in sorted(os.listdir(out_dir)))

    def check(stdouts):
        problems = []
        written = sorted(os.listdir(out_dir))
        expected = sorted([f"bg_{n}" for n in names] + [f"fg_{n}" for n in names])
        if written != expected:
            return [f"background: wrote {len(written)} frames, expected {len(expected)}"]
        bg = np.array([ref.read_pgm(os.path.join(out_dir, f"bg_{n}")) for n in names]) / 255.0
        error = np.abs(bg - truth[None])
        never = ~mask.any(axis=0)
        clear = error[:, never].mean()
        if clear > 0.02:
            problems.append(f"background: error {clear:.4f} on never-occluded pixels exceeds 0.02")
        occluded = error[mask].mean()
        input_error = np.abs(frames / 255.0 - truth[None])[mask].mean()
        if occluded > 0.5 * input_error:
            problems.append(f"background: error {occluded:.4f} on occluded pixels exceeds "
                            f"half the input's {input_error:.4f}")
        if _stdout_field(stdouts[0], "converged") != "true":
            problems.append("background: solver did not converge")
        return problems

    return Case([command], fingerprint, check)


WORKLOADS = {"sweep": sweep, "solve": solve, "background": background}
