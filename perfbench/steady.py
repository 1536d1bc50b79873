"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py [--runs 10] [--workloads sweep,solve,background]

Run it from the root of a source checkout. It makes two sets of runs of
perfbench/run.py, interleaved run by run (set A and set B alternate, and the
one that goes first alternates too), each run with its own seed. For every
end-to-end metric of BENCHMARK.json on every workload it prints each set's
median and quartiles, the quartile spread as a share of the median, and
whether the sets agree: both spreads within the metric's bound (setup_s
excepted) and set B's median no worse than set A's by more than the bound.
The share of failed operations must be the same in both sets. Exits 1 when
any pair disagrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SEED_BASE = {"A": 1, "B": 101}


def one_run(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    results = {(w, s): [] for w in workloads for s in SEED_BASE}
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in workloads:
            for s in order:
                result = one_run(w, SEED_BASE[s] + i, args.seconds)
                results[w, s].append(result)
                values = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
                print(f"run {i + 1}/{args.runs} {w:10s} set {s}: {values} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)

    agree_all = True
    print(f"\n{'workload':10s} {'metric':12s} {'set':3s} {'q1':>9s} {'median':>9s} "
          f"{'q3':>9s} {'spread':>7s} {'bound':>6s} {'shift':>7s} agree")
    for w in workloads:
        shares = {s: sum(r["failed"] for r in results[w, s]) /
                  sum(r["attempted"] for r in results[w, s]) for s in SEED_BASE}
        if shares["A"] != shares["B"]:
            agree_all = False
            print(f"{w}: failed share differs: A {shares['A']:.6f}, B {shares['B']:.6f}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {}
            for s in SEED_BASE:
                values = [r["metrics"][name]["value"] for r in results[w, s]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                stats[s] = (q1, med, q3, (q3 - q1) / med)
            worse = stats["B"][1] - stats["A"][1]
            if metric["better"] == "higher":
                worse = -worse
            shift = worse / stats["A"][1]
            spreads_ok = name == "setup_s" or all(st[3] <= bound for st in stats.values())
            agree = spreads_ok and shift <= bound
            agree_all &= agree
            for s in SEED_BASE:
                q1, med, q3, spread = stats[s]
                tail = f"{shift:+7.3f} {'yes' if agree else 'NO'}" if s == "B" else ""
                print(f"{w:10s} {name:12s} {s:3s} {q1:9.4f} {med:9.4f} {q3:9.4f} "
                      f"{spread:7.3f} {bound:6.2f} {tail}")
    print("failed shares: " + ", ".join(
        f"{w} {sum(r['failed'] for s in SEED_BASE for r in results[w, s])}/"
        f"{sum(r['attempted'] for s in SEED_BASE for r in results[w, s])}" for w in workloads))
    os.makedirs(".perfbench", exist_ok=True)
    with open(os.path.join(".perfbench", "steady.json"), "w") as fh:
        json.dump({f"{w}/{s}": r for (w, s), r in results.items()}, fh, indent=1)
    return 0 if agree_all else 1


if __name__ == "__main__":
    sys.exit(main())
