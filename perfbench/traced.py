"""Run the chsa CLI in this process with a span around each layer call.

    python3 perfbench/traced.py SPANS.json -- stratify --input c.csv -o out ...

The benchmark's own wrappers replace the module attributes through which
the CLI and `stratify.run_chsa` reach each layer (reader, scaling, kNN,
QP assembly, interior-point solve, ranking, writers, PCA, plot, oracle),
so spans follow the order the CLI makes its calls.  kNN and QP assembly
also run under `tracemalloc` for their peak allocation.  Spans stay in
memory and are written to SPANS.json when the CLI returns.  Worker
processes of a process pool inherit the wrappers but record nothing, so
`run.py` traces only runs with `--threads 1`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import tracemalloc

SPANS = []          # (name, seconds, attrs)
_PID = os.getpid()

# (module, attribute, span name, tracemalloc?)
LAYERS = (
    ("pointcloud", "read_csv", "pointcloud.read", False),
    ("pointcloud", "scale_unit", "pointcloud.scale", False),
    ("stratify", "run_chsa", "stratify.run", False),
    ("stratify", "knn_all", "neighbors.knn", True),
    ("stratify", "assemble_raw", "qp.assemble", True),
    ("stratify", "solve", "ipm.solve", False),
    ("stratify", "rank_by_norm", "stratify.rank", False),
    ("stratify", "write_report_json", "stratify.json", False),
    ("stratify", "write_report_csv", "stratify.csv", False),
    ("analysis", "pca_2d", "analysis.pca", False),
    ("svgplot", "write_scatter", "svgplot.render", False),
    ("analysis", "lp_vertex_oracle", "analysis.oracle", False),
)


def _attrs(name, args, result):
    if name == "ipm.solve":
        return {"iterations": int(result.iterations),
                "converged": bool(result.converged)}
    if name == "stratify.json":
        return {"bytes": os.path.getsize(args[1])}
    if name == "analysis.oracle":
        return {"index": int(args[1]), "vertex": bool(result)}
    return {}


def _wrap(fn, name, trace_memory):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if os.getpid() != _PID:
            return fn(*args, **kwargs)
        if trace_memory:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            peak = tracemalloc.get_traced_memory()[1] if trace_memory else None
            if trace_memory:
                tracemalloc.stop()
        attrs = _attrs(name, args, result)
        if peak is not None:
            attrs["peak_bytes"] = peak
        SPANS.append((name, end - start, attrs))
        return result
    return traced


def install() -> list:
    """Wrap every layer entry point the program still has; return misses."""
    missing = []
    for mod_name, attr, span, mem in LAYERS:
        mod = importlib.import_module(f"chsa.{mod_name}")
        fn = getattr(mod, attr, None)
        if fn is None:
            missing.append(f"chsa.{mod_name}.{attr}")
            continue
        setattr(mod, attr, _wrap(fn, span, mem))
    return missing


def main() -> int:
    spans_path = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: traced.py SPANS.json -- CLI-ARGS...")
    import chsa.cli
    missing = install()
    code = chsa.cli.main(sys.argv[3:])
    with open(spans_path, "w") as f:
        json.dump({"missing": missing, "spans": SPANS}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
