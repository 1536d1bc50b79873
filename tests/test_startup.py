"""What a launch imports: each CLI command loads only the modules it runs,
and none loads a module of scipy: `graph` loads numpy alone, and solve,
background and experiment load numpy and scipy's compiled CSR kernel from
its file, which the import system does not see.

Each check starts a fresh interpreter with `-X importtime`, which lists every
module the process imports, so modules the test process holds do not count.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import frpcag
from frpcag.frames import save_frames, synthetic_sequence
from frpcag.graph import build_graph, knn_exact, save_graph_coo
from frpcag.matrixio import save_matrix

HEAVY = ("scipy.linalg", "scipy.optimize", "scipy.spatial", "scipy.sparse.linalg")


def loaded_modules(*args, cwd=None):
    import_root = os.path.dirname(os.path.dirname(frpcag.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [import_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def numeric(modules):
    return sorted(m for m in modules if m.split(".")[0] in ("numpy", "scipy"))


def scipy_modules(modules):
    return sorted(m for m in modules if m.split(".")[0] == "scipy")


COMMANDS = ("graph", "solve", "background", "experiment")


@pytest.mark.parametrize("args", [["-c", "import frpcag"],
                                  *(["-m", "frpcag.cli", c, "--help"] for c in COMMANDS)],
                         ids=["import", *(f"{c}-help" for c in COMMANDS)])
def test_import_and_help_load_no_numpy_or_scipy(args):
    assert numeric(loaded_modules(*args)) == []


def test_graph_loads_numpy_alone(tmp_path):
    save_matrix(tmp_path / "x.csv", np.random.default_rng(0).standard_normal((6, 12)), fmt="csv")
    for axis in ("samples", "features"):
        modules = loaded_modules("-m", "frpcag.cli", "graph", "--input", "x.csv", "--axis", axis,
                                 "--k", "3", "--sigma2", "auto", "--output", "g.coo",
                                 cwd=tmp_path)
        assert "numpy" in modules
        assert scipy_modules(modules) == [], axis


def test_commands_but_experiment_load_numpy_and_no_scipy(tmp_path):
    # the graph files are written in process: test_graph_loads_numpy_alone launches graph
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, 12))
    save_matrix(tmp_path / "x.csv", X, fmt="csv")
    save_graph_coo(build_graph(knn_exact(X, 3), "auto"), tmp_path / "g1.coo")
    save_graph_coo(build_graph(knn_exact(X.T, 3), "auto"), tmp_path / "g2.coo")
    (tmp_path / "frames").mkdir()
    frames, _, _ = synthetic_sequence(count=6, h=4, w=5, square=2)
    save_frames(tmp_path / "frames", frames, [f"f{i}.pgm" for i in range(6)])
    for argv in (["solve", "--input", "x.csv", "--graph1", "g1.coo", "--graph2", "g2.coo",
                  "--max-iters", "5", "--output-u", "u.bin"],
                 ["background", "--frames-dir", "frames", "--out-dir", "out", "--k", "2",
                  "--max-iters", "5"]):
        modules = loaded_modules("-m", "frpcag.cli", *argv, cwd=tmp_path)
        assert "numpy" in modules
        assert scipy_modules(modules) == [], argv[0]
        assert [m for m in HEAVY if m in modules] == [], argv[0]


def test_experiment_loads_numpy_and_no_scipy(tmp_path):
    (tmp_path / "exp.conf").write_text("n = 30\np = 8\nknn_k = 4\ngamma = 1, 3\n"
                                       "max_iters = 20\nrestarts = 2\n")
    modules = loaded_modules("-m", "frpcag.cli", "experiment", "--config", "exp.conf",
                             cwd=tmp_path)
    assert "numpy" in modules
    assert scipy_modules(modules) == []
    assert [m for m in (*HEAVY, "scipy.sparse.csgraph") if m in modules] == []


SOLVERS = ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph")


@pytest.mark.parametrize("module", ["frpcag.analysis", "frpcag.evalcluster", "frpcag.graph"])
def test_spectral_and_clustering_modules_load_no_scipy_solvers(module):
    modules = loaded_modules("-c", f"import {module}")
    assert [m for m in SOLVERS if m in modules] == []


def test_partial_eigs_of_a_few_pairs_loads_no_scipy_solvers():
    modules = loaded_modules("-c", "import numpy as np\n"
                             "from frpcag.graph import build_graph, knn_exact, partial_eigs\n"
                             "points = np.random.default_rng(0).standard_normal((8, 500))\n"
                             "partial_eigs(build_graph(knn_exact(points, 8), 'auto'), 5)\n")
    assert [m for m in SOLVERS if m in modules] == []
