"""End-to-end benchmark of the frpcag CLI on seeded inputs.

    python3 perfbench/run.py --workload sweep|solve|background --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout: the program is imported from
./src and each CLI command runs in a fresh process, timed from launch to
exit. Whole passes of the workload's commands repeat for S seconds and
wall_s is the median pass; the outputs are checked after the timed
interval. The last line of stdout is one JSON object with the end-to-end
metrics (--trace 0) or the per-layer metrics of a traced run (--trace 1).
"""

import os

# One BLAS thread, in this process and in every child, before numpy loads:
# the benchmark measures the program, not how the machine schedules threads.
BLAS_CAP = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_CAP)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_LAUNCHES = 9  # --help launches per run, in at least three rounds


class Runner:
    """Launches CLI commands in fresh processes and keeps the tallies."""

    def __init__(self, root: str, work: str):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **BLAS_CAP)
        self.env.pop("FRPCAG_THREADS", None)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.peak_rss_kb = 0

    def launch(self, argv, log: str):
        """Run one command; returns (wall seconds, stdout, exit status, max RSS in KiB)."""
        out_path = os.path.join(self.work, log + ".out")
        err_path = os.path.join(self.work, log + ".err")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.attempted += 1
        if proc.returncode != 0:
            self.failed += 1
            with open(err_path) as fh:
                tail = fh.read().strip().splitlines()[-1:] or [""]
            self.errors.append(f"{log} exited {proc.returncode}: {tail[0]}")
        with open(out_path) as fh:
            return wall, fh.read(), proc.returncode, usage.ru_maxrss

    def cli(self, args, log: str):
        return self.launch([sys.executable, "-m", "frpcag.cli", *args], log)

    def run_pass(self, case, traced: bool = False):
        """One pass of the workload's commands; returns (wall, stdouts, span files)."""
        wall, stdouts, spans = 0.0, [], []
        for i, args in enumerate(case.commands):
            if traced:
                span_file = os.path.join(self.work, f"spans{i}.json")
                argv = [sys.executable, os.path.join(HERE, "tracing.py"), span_file, *args]
                seconds, stdout, _, _ = self.launch(argv, f"traced{i}")
                spans.append(span_file)
            else:
                seconds, stdout, _, rss = self.cli(args, f"cmd{i}")
                self.peak_rss_kb = max(self.peak_rss_kb, rss)
            wall += seconds
            stdouts.append(stdout)
        return wall, stdouts, spans


def setup_seconds(runner: Runner, case) -> float:
    """Median over rounds of the summed `<command> --help` start-up times."""
    rounds = []
    for r in range(max(3, SETUP_LAUNCHES // len(case.commands))):
        rounds.append(sum(runner.cli([args[0], "--help"], f"help{r}_{i}")[0]
                          for i, args in enumerate(case.commands)))
    return statistics.median(rounds)


def environment(root: str) -> dict:
    """What a result depends on besides the code: machine, toolchain, commit."""
    import numpy
    import scipy

    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):  # never look above the checkout
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": BLAS_CAP["OPENBLAS_NUM_THREADS"], "commit": commit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "frpcag", "cli.py")):
        print(f"error: no frpcag sources under {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    case = WORKLOADS[args.workload](work, args.seed)
    runner = Runner(root, work)

    setup_s = setup_seconds(runner, case)
    walls, traced_walls, traces, fingerprints, rounds = [], [], [], [], []
    start = time.perf_counter()
    # start a round only when it should end inside the interval
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= args.seconds:
        round_start = time.perf_counter()
        wall, stdouts, _ = runner.run_pass(case)
        walls.append(wall)
        fingerprints.append(case.fingerprint(stdouts))
        if args.trace:
            wall, stdouts, span_files = runner.run_pass(case, traced=True)
            traced_walls.append(wall)
            traces.append(tracing.layer_report(span_files))
            fingerprints.append(case.fingerprint(stdouts))
        rounds.append(time.perf_counter() - round_start)

    problems = [] if runner.failed else case.check(stdouts)
    if any(f != fingerprints[0] for f in fingerprints):
        problems.append("outputs differ between passes")
    if problems:
        runner.failed = runner.attempted
    for line in runner.errors + problems:
        print(f"FAIL {line}", file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "environment": environment(root), "walls": walls, "setup_s": setup_s}
    if args.trace:
        metrics = tracing.summary(traces, statistics.median(traced_walls) - statistics.median(walls))
        record.update(traced_walls=traced_walls, layers=metrics, passes=traces)
        print(tracing.render(traces[-1], metrics, len(traces)))
        metrics = {name: metrics[name] for name in tracing.BENCHMARK_LAYERS}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": runner.peak_rss_kb / 1024.0, "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    record["result"] = result
    results = os.path.join(root, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"environment: {json.dumps(record['environment'])}")
    print(f"passes={len(walls)} walls=" + ",".join(f"{w:.3f}" for w in walls))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
