"""Per-layer tracing of one frpcag CLI command, and the report built from it.

As a script, `python3 perfbench/tracing.py SPANS_JSON <cli args...>` times
the import of frpcag.cli, wraps every public function of the traced modules
in a timing span (in every frpcag namespace that binds it), runs
frpcag.cli.main on the arguments in process and writes the spans to
SPANS_JSON. Imported, it turns span files into per-layer metrics.
"""

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

MODULES = ("cli", "matrixio", "graph", "solver", "analysis", "evalcluster", "frames")

# Layer metric -> the span whose total time it reports.
TIMED = {
    "matrixio.load_matrix_s": "matrixio.load_matrix",
    "matrixio.save_matrix_s": "matrixio.save_matrix",
    "matrixio.corrupt_s": "matrixio.corrupt",
    "matrixio.standardize_s": "matrixio.standardize",
    "graph.knn_exact_s": "graph.knn_exact",
    "graph.build_graph_s": "graph.build_graph",
    "graph.save_graph_coo_s": "graph.save_graph_coo",
    "graph.load_graph_coo_s": "graph.load_graph_coo",
    "graph.partial_eigs_s": "graph.partial_eigs",
    "solver.fista_solve_s": "solver.fista_solve",
    "solver.gradient_s": "solver.gradient_smooth",
    "solver.prox_s": "solver.prox_fidelity",
    "solver.objective_s": "solver.objective",
    "solver.save_trace_csv_s": "solver.save_trace_csv",
    "analysis.economic_svd_s": "analysis.economic_svd",
    "analysis.alignment_ratio_s": "analysis.alignment_ratio",
    "evalcluster.run_experiment_s": "evalcluster.run_experiment",
    "evalcluster.kmeans_s": "evalcluster.kmeans",
    "frames.load_frames_s": "frames.load_frames",
    "frames.save_frames_s": "frames.save_frames",
    "frames.separate_background_s": "frames.separate_background",
}
COUNTED = {
    "graph.knn_exact_calls": "graph.knn_exact",
    "graph.partial_eigs_calls": "graph.partial_eigs",
    "solver.gradient_calls": "solver.gradient_smooth",
    "solver.objective_calls": "solver.objective",
    "evalcluster.kmeans_calls": "evalcluster.kmeans",
}
SELF = {"solver.self_s": "solver.fista_solve", "evalcluster.self_s": "evalcluster.run_experiment"}

# The layers reported to BENCHMARK.json: every count, and the times that every
# workload enters. A time that reads 0 on every run of a workload (frames on
# `solve`, say) is printed in the trace report only.
BENCHMARK_LAYERS = (
    "cli.import_s", "cli.command_s", "graph.knn_exact_s", "graph.knn_exact_calls",
    "graph.build_graph_s", "graph.edges", "graph.partial_eigs_calls",
    "solver.fista_solve_s", "solver.iterations", "solver.ms_per_iter",
    "solver.gradient_s", "solver.gradient_calls", "solver.prox_s",
    "solver.objective_s", "solver.objective_calls", "solver.self_s",
    "evalcluster.kmeans_calls",
)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ms" if name.endswith("ms_per_iter") else "count"


# ------------------------------------------------------------ traced child

class Recorder:
    """Keeps spans in memory as [name, parent index, start, end, extra]."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.stack[-1] if self.stack else None, time.perf_counter(), None, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
            if name == "solver.fista_solve":
                span[4] = result.iterations
            elif name == "graph.build_graph":
                span[4] = result.adjacency.nnz // 2
            return result
        return traced

    def install(self):
        """Replace each public function of MODULES wherever frpcag binds it."""
        namespaces = [importlib.import_module(name)
                      for name in ("frpcag", *(f"frpcag.{m}" for m in MODULES))]
        wrappers = {}
        for module in namespaces[1:]:
            short = module.__name__.split(".")[-1]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self.wrap(obj, f"{short}.{attr}")
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])


def _child(span_path: str, argv) -> int:
    start = time.perf_counter()
    import frpcag.cli  # the import every CLI command pays
    import_s = time.perf_counter() - start
    recorder = Recorder()
    recorder.install()
    try:
        status = frpcag.cli.main(argv)
    finally:
        with open(span_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": recorder.spans}, fh)
    return status


# ------------------------------------------------------------ report

def layer_report(span_files) -> dict:
    """Per-layer metrics and the aggregated span tree of one traced pass."""
    import_s = 0.0
    totals, counts, selfs, extra = {}, {}, {}, {}
    tree = {}
    for path in span_files:
        with open(path) as fh:
            data = json.load(fh)
        import_s += data["import_s"]
        spans = data["spans"]
        child_time = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, parent, start, end, value) in enumerate(spans):
            path_names, ancestor = [name], parent
            while ancestor is not None:
                path_names.append(spans[ancestor][0])
                ancestor = spans[ancestor][1]
            duration = end - start
            node = tree.setdefault(tuple(reversed(path_names)), [0, 0.0, 0.0])
            node[0] += 1
            node[1] += duration
            node[2] += duration - child_time[i]
            counts[name] = counts.get(name, 0) + 1
            selfs[name] = selfs.get(name, 0.0) + duration - child_time[i]
            if name not in path_names[1:]:  # outermost call of a recursive name only
                totals[name] = totals.get(name, 0.0) + duration
            if value is not None:
                extra[name] = extra.get(name, 0) + value

    metrics = {"cli.import_s": import_s,
               "cli.command_s": sum(t for n, t in totals.items() if n.startswith("cli.cmd_"))}
    metrics.update({m: totals.get(span, 0.0) for m, span in TIMED.items()})
    metrics.update({m: counts.get(span, 0) for m, span in COUNTED.items()})
    metrics.update({m: selfs.get(span, 0.0) for m, span in SELF.items()})
    metrics["graph.edges"] = extra.get("graph.build_graph", 0)
    iterations = extra.get("solver.fista_solve", 0)
    metrics["solver.iterations"] = iterations
    metrics["solver.ms_per_iter"] = (1e3 * metrics["solver.fista_solve_s"] / iterations
                                     if iterations else 0.0)
    return {"metrics": metrics,
            "tree": [[list(k), *v] for k, v in sorted(tree.items(), key=lambda kv: kv[0])]}


def summary(passes, overhead_s: float) -> dict:
    """Median of each layer metric over the traced passes, plus the overhead."""
    metrics = {}
    for name in passes[0]["metrics"]:
        unit = _unit(name)
        middle = statistics.median_low if unit == "count" else statistics.median
        metrics[name] = {"value": middle(p["metrics"][name] for p in passes), "unit": unit}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return metrics


def render(trace: dict, metrics: dict, passes: int) -> str:
    lines = [f"per-layer metrics (median of {passes} traced passes):"]
    for name in sorted(metrics):
        lines.append(f"  {name:32s} {metrics[name]['value']:14.6g} {metrics[name]['unit']}")
    lines.append("span tree of the last traced pass (calls, total s, self s):")
    for path, calls, total, own in trace["tree"]:
        lines.append(f"  {'  ' * (len(path) - 1)}{path[-1]:{40 - 2 * len(path)}s} "
                     f"{calls:6d} {total:10.4f} {own:10.4f}")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1], sys.argv[2:]))
