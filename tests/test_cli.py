import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from chsa.cli import main
from chsa.datagen import GenSpec, gen
from chsa.pointcloud import read_csv, write_csv


def write_spec(tmp_path, **kwargs):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(kwargs))
    return str(path)


def test_generate_cube_csv(tmp_path):
    spec = write_spec(tmp_path, kind="cube-with-vertices", seed=3)
    out = tmp_path / "cloud.csv"
    assert main(["generate", spec, "-o", str(out)]) == 0
    cloud = read_csv(str(out))
    assert cloud.size == 2008
    assert len(cloud.indices_with_label("inserted-vertex")) == 8


def test_generate_same_seed_byte_identical(tmp_path):
    spec = write_spec(tmp_path, kind="square-with-boundary", seed=12)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["generate", spec, "-o", str(a)])
    main(["generate", spec, "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_generate_missing_spec_exits_2(tmp_path):
    assert main(["generate", str(tmp_path / "nope.json"),
                 "-o", str(tmp_path / "x.csv")]) == 2


def test_stratify_missing_input_exits_3(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stratify", "--input", str(tmp_path / "nope.csv"),
              "-o", str(tmp_path)])
    assert exc.value.code == 3


def test_stratify_empty_input_exits_3(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(SystemExit) as exc:
        main(["stratify", "--input", str(empty), "-o", str(tmp_path)])
    assert exc.value.code == 3


def test_stratify_writes_reports_and_svg(tmp_path):
    spec = write_spec(tmp_path, kind="corners-plus-cluster", seed=4)
    outdir = tmp_path / "run"
    assert main(["stratify", "--generate", spec, "-o", str(outdir),
                 "--k", "20", "--lambda", "1e-3", "--gamma", "1e-6"]) == 0
    report = json.loads((outdir / "report.json").read_text())
    assert report["schema"] == 1
    assert len(report["records"]) == 54
    assert (outdir / "report.csv").exists()
    assert (outdir / "run_config.json").exists()
    # SVG is valid XML with one marker per point (plus background rect)
    svg = ET.parse(outdir / "figure.svg").getroot()
    circles = [e for e in svg.iter() if e.tag.endswith("circle")]
    assert len(circles) == 54


def test_stratify_flags_hull_vertices_cyan(tmp_path):
    spec = write_spec(tmp_path, kind="corners-plus-cluster", seed=4)
    outdir = tmp_path / "run"
    main(["stratify", "--generate", spec, "-o", str(outdir)])  # K = p-1
    report = json.loads((outdir / "report.json").read_text())
    flagged = [r["index"] for r in report["records"] if r["has_negative"]]
    assert flagged == [0, 1, 2, 3]
    svg = (outdir / "figure.svg").read_text()
    assert svg.count("#00c8c8") == 4


def test_sweep_lambda_reports(tmp_path):
    spec = write_spec(tmp_path, kind="corners-plus-cluster", seed=4,
                      n_random=30)
    outdir = tmp_path / "sweep"
    assert main(["stratify", "--generate", spec, "-o", str(outdir),
                 "--sweep-lambda", "1e-5,1e-3"]) == 0
    counts = (outdir / "sweep_counts.csv").read_text().strip().splitlines()
    assert counts[0] == "lambda,flagged_count"
    assert len(counts) == 3
    assert (outdir / "report_lambda1e-05.json").exists()
    assert (outdir / "report_lambda0.001.json").exists()


def test_verify_corners(tmp_path, capsys):
    spec = write_spec(tmp_path, kind="corners-plus-cluster", seed=4)
    outdir = tmp_path / "verify"
    assert main(["verify", "--generate", spec, "-o", str(outdir)]) == 0
    summary = json.loads((outdir / "verify_summary.json").read_text())
    assert summary["precision"] == 1.0
    assert summary["recall"] == 1.0
    assert summary["flagged"] == [0, 1, 2, 3]


def test_verify_lp_oracle(tmp_path):
    cloud = gen(GenSpec(kind="corners-plus-cluster", seed=8, n_random=12))
    path = tmp_path / "c.csv"
    write_csv(cloud, str(path))
    outdir = tmp_path / "verify"
    assert main(["verify", "--input", str(path), "-o", str(outdir),
                 "--oracle", "lp"]) == 0
    summary = json.loads((outdir / "verify_summary.json").read_text())
    assert summary["recall"] == 1.0


def test_verify_logistic_raw_recall_below_one_is_recorded(tmp_path):
    """Raw heavy-tailed data misses small-magnitude vertices; the command
    still exits 0 and records the recall."""
    outdir = tmp_path / "logistic"
    spec = write_spec(tmp_path, kind="logistic-plane", seed=21)
    assert main(["verify", "--generate", spec, "-o", str(outdir),
                 "--scale", "none"]) == 0
    summary = json.loads((outdir / "verify_summary.json").read_text())
    assert 0.0 < summary["recall"] <= 1.0


def test_log_transform_flag_recovers_vertices(tmp_path):
    outdir = tmp_path / "log"
    spec = write_spec(tmp_path, kind="logistic-plane", seed=21)
    assert main(["verify", "--generate", spec, "-o", str(outdir),
                 "--log-transform"]) == 0
    summary = json.loads((outdir / "verify_summary.json").read_text())
    assert summary["recall"] == 1.0


def _exits_bad_spec(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    return err


def test_k_out_of_range_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, kind="corners-plus-cluster", seed=4)
    for k in ("0", "54"):  # the cloud has p = 54 points
        err = _exits_bad_spec(["stratify", "--generate", spec, "--k", k,
                               "-o", str(tmp_path / "run")], capsys)
        assert "--k" in err


def test_non_numeric_sweep_lambda_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, kind="corners-plus-cluster", seed=4)
    err = _exits_bad_spec(["stratify", "--generate", spec, "--sweep-lambda",
                           "1e-3,abc", "-o", str(tmp_path / "run")], capsys)
    assert "--sweep-lambda" in err


def test_zero_threads_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, kind="corners-plus-cluster", seed=4)
    err = _exits_bad_spec(["stratify", "--generate", spec, "--threads", "0",
                           "-o", str(tmp_path / "run")], capsys)
    assert "--threads" in err


def test_log_transform_non_positive_exits_2(tmp_path, capsys):
    path = tmp_path / "c.csv"
    path.write_text("1.0,2.0\n0.5,0.0\n3.0,4.0\n")
    err = _exits_bad_spec(["stratify", "--input", str(path),
                           "--log-transform", "-o", str(tmp_path / "run")],
                          capsys)
    assert "--log-transform" in err


def test_nan_in_csv_exits_2(tmp_path, capsys):
    path = tmp_path / "c.csv"
    path.write_text("0.1,0.2\n0.5,nan\n0.3,0.4\n")
    err = _exits_bad_spec(["stratify", "--input", str(path),
                           "-o", str(tmp_path / "run")], capsys)
    assert "point 1" in err


def test_bad_lambda_or_gamma_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, kind="corners-plus-cluster", seed=4)
    for flag in ("--lambda", "--gamma"):
        for value in ("-1e-3", "inf", "nan"):
            err = _exits_bad_spec(["verify", "--generate", spec,
                                   f"{flag}={value}",
                                   "-o", str(tmp_path / "run")], capsys)
            assert "--gamma/--lambda" in err


def test_non_positive_tolerance_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, kind="corners-plus-cluster", seed=4)
    for flag, value in (("--tol-gap", "0"), ("--tol-feas", "-1e-8"),
                        ("--tol-gap", "nan")):
        err = _exits_bad_spec(["stratify", "--generate", spec,
                               f"{flag}={value}", "-o", str(tmp_path / "run")],
                              capsys)
        assert "--tol-gap/--tol-feas" in err


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env(threads=None) -> dict:
    """This environment with the checkout's sources first on PYTHONPATH and
    every BLAS/OpenMP thread variable unset, or set to `threads`."""
    env = dict(os.environ)
    for var in BLAS_VARS:
        env.pop(var, None)
        if threads is not None:
            env[var] = threads
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _python(code: str, env: dict) -> str:
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60).stdout


def test_import_chsa_loads_no_numpy():
    out = _python("import sys, chsa\n"
                  "print('numpy' in sys.modules)\n"
                  "from chsa import ChsaParams, PointCloud, hull_2d, run_chsa\n"
                  "print('numpy' in sys.modules)\n", _env())
    assert out.split() == ["False", "True"]


def test_every_export_resolves():
    """Each name in chsa.__all__ resolves through the lazy export table."""
    import chsa
    for name in chsa.__all__:
        assert getattr(chsa, name).__name__ == name


def test_cli_defaults_to_one_blas_thread():
    code = ("import os, chsa.cli\n"
            f"print(*[os.environ[v] for v in {BLAS_VARS!r}])\n")
    assert _python(code, _env()).split() == ["1", "1", "1"]
    assert _python(code, _env("2")).split() == ["2", "2", "2"]


def test_report_independent_of_blas_threads(tmp_path):
    """report.json is byte-identical with the BLAS/OpenMP thread variables
    set to two threads and to one.  At p = 403, D = 20 the kNN product has
    p^2 D > 262144 multiply-adds, above OpenBLAS's threshold for threading
    a gemm."""
    rng = np.random.default_rng(403)
    path = tmp_path / "cloud.csv"
    np.savetxt(path, rng.random((403, 20)), delimiter=",", fmt="%.17g")
    reports = []
    for threads in ("2", "1"):
        outdir = tmp_path / f"blas{threads}"
        subprocess.run(
            [sys.executable, "-m", "chsa.cli", "stratify", "--input", str(path),
             "-o", str(outdir), "--k", "50", "--gamma", "1e-6",
             "--lambda", "1e-3", "--no-plot"],
            env=_env(threads), check=True, capture_output=True, timeout=600)
        reports.append((outdir / "report.json").read_bytes())
    assert reports[0] == reports[1]
