"""chsa benchmark: run one workload through the CLI, check, and report.

    python3 perfbench/run.py --workload simplex-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --quick            # every workload, tiny inputs

A run first times seven set-up probes (a fresh process that imports
`chsa.cli`, reads and scales the input), then runs the CLI in a fresh
process, back to back (closed loop, one client), until `--seconds` have
passed; each round's outputs are checked by `checks.py`.  With
`--trace 1` every round runs the plain CLI and then the CLI under
`traced.py`; the per-layer metrics come from the traced runs and the
difference in wall time is the tracing overhead.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`).
The line before it records the machine and the BLAS thread settings.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from inputs import WORKLOADS, make_cloud, write_csv  # noqa: E402

SETUP_PROBES = 7
HARD_LIMIT_S = 170.0   # a run ends well inside 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The run cannot produce a result."""


def _env() -> dict:
    env = dict(os.environ)  # BLAS/OMP thread variables stay as found
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_process(argv, log_path, deadline) -> tuple:
    """Run argv to completion; return (wall s, cpu s, peak rss MB).

    CPU time and peak RSS come from wait4, so they include every worker
    process the run started and waited for; peak RSS is the largest of
    any one of those processes.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before a run could start")
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        with open(log_path) as f:
            tail = f.read()[-2000:]
        raise BenchError(f"{' '.join(argv[:4])} ... exited {code}:\n{tail}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


class Case:
    """One workload at one seed: its input, truth and CLI arguments."""

    def __init__(self, name: str, seed: int, workdir: Path, quick=False):
        self.w = WORKLOADS[name]
        self.cloud = make_cloud(self.w, seed, quick)
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.csv = workdir / "input.csv"
        write_csv(self.cloud.points, str(self.csv))
        self.points = checks.scale_unit(self.cloud.points)
        self.p = self.points.shape[0]
        argv = list(self.w.quick_argv if quick else self.w.argv)
        self.command = argv[0]
        self.threads = int(argv[argv.index("--threads") + 1]) \
            if "--threads" in argv else 1
        self.cli_args = argv[:1] + ["--input", str(self.csv)] + argv[1:]
        self.truth = set()
        if self.w.kind == "cube":
            self.truth = checks.qhull_vertices(self.points)
            if self.truth != set(self.cloud.vertices):
                raise BenchError("Qhull disagrees with the generator's corners")
        # point solves per run; verify solves each point once
        self.n_points = self.p * max(1, len(self.w.lambdas))

    def cli(self, outdir: Path) -> list:
        return [sys.executable, "-m", "chsa.cli"] + self.cli_args \
            + ["-o", str(outdir)]

    def check(self, outdir: Path) -> checks.Tally:
        tally = checks.Tally()
        if self.command == "verify":
            with open(outdir / "verify_summary.json") as f:
                summary = json.load(f)
            tally.merge(checks.check_verify(summary, self.truth, self.p))
            return tally
        sweep = len(self.w.lambdas) > 1
        reports = []
        for lam in self.w.lambdas:
            tag = f"_lambda{lam:g}" if sweep else ""
            rep = checks.load_report(str(outdir / f"report{tag}.json"))
            reports.append(rep)
            if self.w.kind == "cube":
                must = self.truth
            else:  # the simplex vertices, at the smallest lambda
                must = self.cloud.vertices if lam == min(self.w.lambdas) else ()
            tally.merge(checks.check_report(self.points, rep, sorted(must)))
            tally.errors += checks.check_report_csv(
                str(outdir / f"report{tag}.csv"), rep)
            tally.errors += checks.check_svg(str(outdir / f"figure{tag}.svg"),
                                             rep)
        if sweep:
            tally.errors += checks.check_sweep_counts(
                str(outdir / "sweep_counts.csv"), self.w.lambdas, reports)
        return tally


def _median(values):
    return float(statistics.median(values))


def _pct(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


def setup_probes(case: Case, deadline) -> list:
    times = []
    log = case.workdir / "probe.log"
    for _ in range(SETUP_PROBES):
        wall, _, _ = run_process(
            [sys.executable, str(HERE / "probe.py"), str(case.csv)],
            log, deadline)
        times.append(wall)
    with open(log) as f:
        used = f.read().strip()
    if not used.startswith(str(SRC)):
        raise BenchError(f"imported {used}, not the checkout's {SRC}")
    return times


def layer_metrics(traces, case: Case) -> dict:
    """Per-layer metrics from the span files of the traced rounds."""
    per_run = {}      # name -> list of per-run totals
    calls = {}        # name -> list of span records over all runs
    for tr in traces:
        totals = {}
        for name, seconds, attrs in tr["spans"]:
            totals[name] = totals.get(name, 0.0) + seconds
            calls.setdefault(name, []).append((seconds, attrs))
        for name, total in totals.items():
            per_run.setdefault(name, []).append(total)

    def run_total(name, scale=1.0):
        vals = per_run.get(name)
        return _median(vals) * scale if vals else 0.0

    def call_pct(name, q, scale=1.0):
        vals = [d for d, _ in calls.get(name, [])]
        return _pct(vals, q) * scale if vals else 0.0

    solves = calls.get("ipm.solve", [])
    iters = [a["iterations"] for _, a in solves]
    solve_time = sum(d for d, _ in solves)
    runs = len(traces)
    per_point = sum(d for d, _ in calls.get("qp.assemble", [])) + solve_time
    run_s = sum(per_run.get("stratify.run", []))
    json_bytes = sum(a["bytes"] for _, a in calls.get("stratify.json", []))
    oracle = calls.get("analysis.oracle", [])
    disagree = sum(a["vertex"] != (a["index"] in case.truth) for _, a in oracle)
    return {
        "pointcloud.read_s": run_total("pointcloud.read"),
        "pointcloud.scale_s": run_total("pointcloud.scale"),
        "neighbors.knn_s": run_total("neighbors.knn"),
        "neighbors.knn_peak_mb": max((a["peak_bytes"] for _, a in
                                      calls.get("neighbors.knn", [])),
                                     default=0) / 2**20,
        "qp.assemble_ms_p50": call_pct("qp.assemble", 50, 1e3),
        "qp.assemble_peak_kb": max((a["peak_bytes"] for _, a in
                                    calls.get("qp.assemble", [])),
                                   default=0) / 1024,
        "ipm.solve_ms_p50": call_pct("ipm.solve", 50, 1e3),
        "ipm.solve_ms_p99": call_pct("ipm.solve", 99, 1e3),
        "ipm.iters_mean": float(np.mean(iters)) if iters else 0.0,
        "ipm.iters_max": max(iters, default=0),
        "ipm.iter_us": solve_time / sum(iters) * 1e6 if sum(iters) else 0.0,
        "ipm.nonconverged": sum(not a["converged"] for _, a in solves) / runs,
        "stratify.run_s": run_total("stratify.run"),
        "stratify.pool_efficiency":
            per_point / (case.threads * run_s) if run_s else 0.0,
        "stratify.rank_ms": run_total("stratify.rank", 1e3),
        "stratify.json_s": run_total("stratify.json"),
        "stratify.json_mb": json_bytes / runs / 2**20,
        "stratify.csv_s": run_total("stratify.csv"),
        "svgplot.render_s": run_total("svgplot.render"),
        "analysis.pca_s": run_total("analysis.pca"),
        "analysis.oracle_ms_p50": call_pct("analysis.oracle", 50, 1e3),
        "analysis.oracle_ms_p99": call_pct("analysis.oracle", 99, 1e3),
        "analysis.oracle_disagreements": disagree / runs,
    }


def bench(args) -> dict:
    t0 = time.monotonic()
    deadline = t0 + HARD_LIMIT_S
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    case = Case(args.workload, args.seed, work)
    if args.trace and case.threads > 1:
        # pool workers record no spans: every per-point metric would read 0
        raise BenchError("--trace 1 needs a workload run with --threads 1")
    setup = setup_probes(case, deadline)
    tally = checks.Tally()
    walls, cpus, rss, traced_walls, traces = [], [], [], [], []
    rounds = 0
    while rounds == 0 or time.monotonic() - t0 < args.seconds:
        rounds += 1
        out = work / "out"
        shutil.rmtree(out, ignore_errors=True)
        wall, cpu, mb = run_process(case.cli(out), work / "cli.log", deadline)
        walls.append(wall)
        cpus.append(cpu)
        rss.append(mb)
        tally.merge(case.check(out))
        if args.trace:
            out_t = work / "out_traced"
            shutil.rmtree(out_t, ignore_errors=True)
            spans = work / f"spans{rounds}.json"
            wall_t, _, _ = run_process(
                [sys.executable, str(HERE / "traced.py"), str(spans), "--"]
                + case.cli_args + ["-o", str(out_t)],
                work / "traced.log", deadline)
            traced_walls.append(wall_t)
            tally.merge(case.check(out_t))
            with open(spans) as f:
                traces.append(json.load(f))
    setup_s = _median(setup)
    rates = [case.n_points / max(w - setup_s, 1e-9) for w in walls]
    if args.trace:
        metrics = layer_metrics(traces, case)
        metrics["trace.overhead_pct"] = \
            (_median(traced_walls) / _median(walls) - 1.0) * 100.0
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": _median(walls),
            "points_per_s": _median(rates),
            "cpu_s": _median(cpus),
            "peak_rss_mb": _median(rss),
        }
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "points": case.p, "point_solves_per_run": case.n_points,
        "rounds": rounds, "setup_samples": setup, "wall_samples": walls,
        "failed_by_check": dict(tally.by_check), "errors": tally.errors,
        "untraced_layers": traces[0]["missing"] if traces else [],
    }
    with open(OUT / f"result-{work.name}.json", "w") as f:
        json.dump({"info": info, "metrics": metrics, "traces": traces}, f)
    shutil.rmtree(work, ignore_errors=True)
    return {"info": info, "correct": not tally.errors,
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def quick(names) -> int:
    """Run every workload once on tiny inputs and report its checks."""
    bad = 0
    deadline = time.monotonic() + 600
    for name in names:
        work = OUT / f"quick-{name}-{os.getpid()}"
        case = Case(name, 0, work, quick=True)
        out = work / "out"
        wall, _, _ = run_process(case.cli(out), work / "cli.log", deadline)
        tally = case.check(out)
        unexpected = {k: v for k, v in tally.by_check.items()
                      if v and k != "oracle_vs_qhull"}
        ok = not tally.errors and not unexpected
        bad += not ok
        print(f"{name}: {'ok' if ok else 'FAILED'} in {wall:.1f} s, "
              f"{tally.attempted} ops, {tally.failed} failed "
              f"{dict(tally.by_check)} {tally.errors}")
        shutil.rmtree(work, ignore_errors=True)
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="chsa benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="check every workload (or --workload) once on "
                             "tiny inputs")
    args = parser.parse_args()
    if not (SRC / "chsa" / "cli.py").is_file():
        print(f"no chsa sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.quick:
        return quick([args.workload] if args.workload else list(WORKLOADS))
    if args.workload is None:
        parser.error("--workload is required")
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    try:
        result = bench(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": result["metrics"][m["name"]],
                           "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"info": result["info"]}))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
