"""Command-line front end: generate data, run stratification, verify
against hull oracles.  All outputs land in a run directory together with
a copy of the effective configuration so runs reproduce from disk alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

# One BLAS/OpenMP thread per process unless the caller sets the variables:
# no chsa kernel is large enough to gain from a BLAS thread pool, and the
# `--threads` worker threads would otherwise compete with it for the
# cores.  This must run before the first import that loads numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import analysis, datagen, pointcloud, stratify, svgplot  # noqa: E402
from .errors import ChsaError  # noqa: E402
from .ipm import SolverConfig  # noqa: E402
from .qp import ChsaParams  # noqa: E402

EXIT_BAD_SPEC = 2
EXIT_IO = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, default=None,
                        help="neighbor count (default: p-1)")
    parser.add_argument("--lambda", dest="lam", type=float, default=1e-3,
                        help="convexity weight")
    parser.add_argument("--gamma", type=float, default=1e-6,
                        help="uniformity weight")
    parser.add_argument("--tol-gap", type=float, default=1e-9)
    parser.add_argument("--tol-feas", type=float, default=1e-8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1,
                        help="worker thread count")
    parser.add_argument("--scale", choices=["unit", "none"], default="unit",
                        help="rescale input into [0,1] per dimension")
    parser.add_argument("--global-scale", action="store_true",
                        help="use one min/max over all dimensions instead of "
                             "per-dimension ranges")
    parser.add_argument("--log-transform", action="store_true",
                        help="apply coordinate-wise log before scaling")
    parser.add_argument("--input", help="CSV cloud to read")
    parser.add_argument("--generate", dest="genspec",
                        help="generator spec JSON to run instead of --input")
    parser.add_argument("-o", "--output-dir", default=".",
                        help="directory for reports and figures")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chsa",
        description="Stratify a point cloud by proximity to its convex hull "
                    "boundary via per-point quadratic programs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic cloud to CSV")
    p_gen.add_argument("spec", help="generator spec JSON")
    p_gen.add_argument("-o", "--output", default="cloud.csv")

    p_strat = sub.add_parser("stratify", help="run the stratification")
    _add_common(p_strat)
    p_strat.add_argument("--color-by", choices=["negativity", "norm-rank"],
                         default="negativity")
    p_strat.add_argument("--sweep-lambda",
                         help="comma list of lambda values; one report each")
    p_strat.add_argument("--no-plot", action="store_true",
                         help="skip SVG output")

    p_ver = sub.add_parser("verify",
                           help="compare flagged points against a hull oracle")
    _add_common(p_ver)
    p_ver.add_argument("--oracle", choices=["2d", "lp"], default="2d")
    return parser


def _fail(message: str):
    """Bad input: one line on stderr, then exit with EXIT_BAD_SPEC."""
    print(message, file=sys.stderr)
    sys.exit(EXIT_BAD_SPEC)


def _load_cloud(args) -> pointcloud.PointCloud:
    if (args.input is None) == (args.genspec is None):
        _fail("exactly one of --input / --generate is required")
    if args.genspec is not None:
        try:
            spec = datagen.GenSpec.from_json(args.genspec)
            return datagen.gen(spec)
        except (OSError, ValueError, TypeError, ChsaError) as exc:
            _fail(f"bad generator spec: {exc}")
    try:
        return pointcloud.read_csv(args.input)
    except ChsaError as exc:
        _fail(f"bad input: {exc}")
    except (OSError, ValueError) as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        sys.exit(EXIT_IO)


def _preprocess(cloud, args):
    if args.log_transform:
        try:
            cloud = pointcloud.log_transform(cloud)
        except ChsaError as exc:
            _fail(f"--log-transform: {exc}")
    if args.scale == "unit":
        if args.global_scale:
            lo = cloud.points.min()
            rng = cloud.points.max() - lo
            pts = (cloud.points - lo) / (rng if rng > 0 else 1.0)
            cloud = cloud.with_points(pts)
        else:
            cloud = pointcloud.scale_unit(cloud)
    return cloud


def _sweep_lambdas(text: str) -> list:
    try:
        lams = [float(v) for v in text.split(",")]
    except ValueError:
        lams = []
    if not lams or not all(math.isfinite(v) and v >= 0 for v in lams):
        _fail(f"--sweep-lambda needs comma-separated numbers >= 0, got {text!r}")
    return lams


def _dump_config(args, outdir: str) -> None:
    cfg = {k: v for k, v in vars(args).items() if k != "command"}
    cfg["command"] = args.command
    with open(os.path.join(outdir, "run_config.json"), "w") as f:
        json.dump(cfg, f, indent=1, sort_keys=True)


def cmd_generate(args) -> int:
    try:
        spec = datagen.GenSpec.from_json(args.spec)
        cloud = datagen.gen(spec)
    except (OSError, ValueError, TypeError, ChsaError) as exc:
        print(f"bad generator spec: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    pointcloud.write_csv(cloud, args.output)
    print(f"wrote {cloud.size} points to {args.output}")
    return 0


def _prepare(args):
    """Check and load the input; return (cloud, k, params, solver, run
    options)."""
    if args.threads < 1:
        _fail(f"--threads must be at least 1, got {args.threads}")
    try:
        params = ChsaParams(gamma=args.gamma, lam=args.lam)
    except ValueError as exc:
        _fail(f"--gamma/--lambda: {exc}")
    try:
        solver = SolverConfig(tol_gap=args.tol_gap, tol_feas=args.tol_feas)
    except ValueError as exc:
        _fail(f"--tol-gap/--tol-feas: {exc}")
    cloud = _preprocess(_load_cloud(args), args)
    k = cloud.size - 1 if args.k is None else args.k
    if not 1 <= k <= cloud.size - 1:
        _fail(f"--k must lie in [1, p-1] = [1, {cloud.size - 1}], got {k}")
    os.makedirs(args.output_dir, exist_ok=True)
    _dump_config(args, args.output_dir)
    run_args = dict(workers=args.threads, seed=args.seed,
                    allow_unscaled=(args.scale == "none"))
    return cloud, k, params, solver, run_args


def cmd_stratify(args) -> int:
    lams = _sweep_lambdas(args.sweep_lambda) if args.sweep_lambda else None
    cloud, k, params, solver, run_args = _prepare(args)
    if lams is not None:
        reports = stratify.negativity_sweep(
            cloud, k, [ChsaParams(gamma=params.gamma, lam=lam) for lam in lams],
            solver, **run_args)
        outputs = [(f"_lambda{lam:g}", rep) for lam, rep in zip(lams, reports)]
    else:
        report = stratify.run_chsa(cloud, k, params, solver, **run_args)
        outputs = [("", report)]

    coords = None if args.no_plot else (
        cloud.points if cloud.dim == 2 else analysis.pca_2d(cloud))
    outdir = args.output_dir
    for tag, report in outputs:
        stratify.write_report_json(report,
                                   os.path.join(outdir, f"report{tag}.json"))
        stratify.write_report_csv(report,
                                  os.path.join(outdir, f"report{tag}.csv"))
        if coords is not None:
            svgplot.write_scatter(os.path.join(outdir, f"figure{tag}.svg"),
                                  coords, report, color_by=args.color_by)

    if lams is None:
        print(f"{len(report.flagged_indices)} of {cloud.size} points flagged")
        return 0
    with open(os.path.join(outdir, "sweep_counts.csv"), "w") as f:
        f.write("lambda,flagged_count\n")
        f.writelines(f"{lam:g},{len(rep.flagged_indices)}\n"
                     for lam, rep in zip(lams, reports))
    for lam, rep in zip(lams, reports):
        print(f"lambda={lam:g}: {len(rep.flagged_indices)} flagged")
    return 0


def cmd_verify(args) -> int:
    cloud, k, params, solver, run_args = _prepare(args)
    report = stratify.run_chsa(cloud, k, params, solver, **run_args)
    flagged = set(report.flagged_indices)

    if args.oracle == "2d":
        if cloud.dim != 2:
            print("2d oracle needs planar data; use --oracle lp",
                  file=sys.stderr)
            return EXIT_BAD_SPEC
        truth = set(analysis.hull_2d(cloud).vertex_indices)
    else:
        truth = {i for i in range(cloud.size)
                 if analysis.lp_vertex_oracle(cloud, i)}

    tp = len(flagged & truth)
    precision = tp / len(flagged) if flagged else float("nan")
    recall = tp / len(truth) if truth else float("nan")
    summary = {
        "flagged": sorted(flagged),
        "oracle_vertices": sorted(truth),
        "precision": precision,
        "recall": recall,
    }
    with open(os.path.join(args.output_dir, "verify_summary.json"), "w") as f:
        json.dump(summary, f, indent=1)
    print(f"precision={precision:.4f} recall={recall:.4f} "
          f"({len(flagged)} flagged, {len(truth)} oracle vertices)")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"generate": cmd_generate, "stratify": cmd_stratify,
               "verify": cmd_verify}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
