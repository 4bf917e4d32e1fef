"""Seeded inputs for the benchmark workloads.

The clouds come from this file's own generators, not from
`chsa.datagen`, so a change to the program's generators cannot move the
benchmark's inputs.  Every draw comes from a PCG64 stream keyed by
(seed, workload name); the program receives only the CSV written here.

Regenerate every input of one seed:

    python3 perfbench/inputs.py --seed 0 --out .perfbench_out/inputs
"""

from __future__ import annotations

import argparse
import itertools
import os
import zlib
from dataclasses import dataclass

import numpy as np

# verify-lp keeps a known-failing oracle in the loop, so its input is
# fixed: the failing verdicts must be the same share of every run.
VERIFY_LP_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # "cube" | "simplex"
    n_random: int      # uniform cube points / simplex mixtures
    argv: tuple        # CLI arguments after the input and output options
    fixed_seed: bool = False
    dim: int = 3
    quick_n: int = 24  # tiny size used by run.py --quick and the self-tests
    quick_k: str = ""  # --k of the quick mode, if it differs from argv's

    @property
    def lambdas(self) -> tuple:
        """The lambda values solved per point; empty for `verify`."""
        for flag in ("--lambda", "--sweep-lambda"):
            if flag in self.argv:
                value = self.argv[self.argv.index(flag) + 1]
                return tuple(float(v) for v in value.split(","))
        return ()

    @property
    def quick_argv(self) -> tuple:
        if not self.quick_k:
            return self.argv
        argv = list(self.argv)
        argv[argv.index("--k") + 1] = self.quick_k
        return tuple(argv)


WORKLOADS = {
    w.name: w for w in (
        Workload("cube-k200", "cube", 250,
                 ("stratify", "--k", "200", "--gamma", "1e-5",
                  "--lambda", "0.025", "--threads", "1"),
                 quick_k="20"),
        Workload("simplex-sweep", "simplex", 400,
                 ("stratify", "--k", "50", "--gamma", "1e-6",
                  "--sweep-lambda", "1e-7,1e-5,1e-4,1e-3", "--threads", "1"),
                 dim=20, quick_n=40, quick_k="20"),
        Workload("cube-wide-k10", "cube", 3000,
                 ("stratify", "--k", "10", "--lambda", "1e-3",
                  "--threads", "1"),
                 quick_n=60),
        Workload("verify-lp", "cube", 120,
                 ("verify", "--oracle", "lp"),
                 fixed_seed=True, quick_n=16),
    )
}


@dataclass(frozen=True)
class Cloud:
    points: np.ndarray   # raw coordinates as written to the CSV
    vertices: tuple      # indices of the generator's own extreme points


def _rng(seed: int, name: str) -> np.random.Generator:
    key = zlib.crc32(name.encode())
    return np.random.Generator(np.random.PCG64([seed, key]))


def cube_cloud(n_random: int, seed: int, name: str) -> Cloud:
    """Uniform points in the unit cube followed by its 8 corners."""
    rng = _rng(seed, name)
    interior = rng.random((n_random, 3))
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=3)))
    pts = np.vstack([interior, corners])
    return Cloud(pts, tuple(range(n_random, n_random + 8)))


def simplex_cloud(n_random: int, dim: int, seed: int, name: str) -> Cloud:
    """Three vertices in [0,1]^dim, then mixtures uniform on their simplex.

    The vertices are pulled toward their centroid (side ~0.6 at dim 20),
    the make-up of the paper's spectral-mixture experiment.
    """
    rng = _rng(seed, name)
    raw = rng.random((3, dim))
    centroid = raw.mean(axis=0)
    verts = centroid + 0.35 * (raw - centroid)
    expo = rng.exponential(1.0, size=(n_random, 3))
    mixtures = (expo / expo.sum(axis=1, keepdims=True)) @ verts
    return Cloud(np.vstack([verts, mixtures]), (0, 1, 2))


def make_cloud(workload: Workload, seed: int, quick: bool = False) -> Cloud:
    if workload.fixed_seed:
        seed = VERIFY_LP_SEED
    n = workload.quick_n if quick else workload.n_random
    if workload.kind == "cube":
        return cube_cloud(n, seed, workload.name)
    return simplex_cloud(n, workload.dim, seed, workload.name)


def write_csv(points: np.ndarray, path: str) -> None:
    """One point per row; 17 significant digits round-trip exactly."""
    np.savetxt(path, points, delimiter=",", fmt="%.17g")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=".perfbench_out/inputs")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    for w in WORKLOADS.values():
        cloud = make_cloud(w, args.seed)
        path = os.path.join(args.out, f"{w.name}.csv")
        write_csv(cloud.points, path)
        print(f"{path}: {cloud.points.shape[0]} points, "
              f"D = {cloud.points.shape[1]}, vertices {list(cloud.vertices)}")


if __name__ == "__main__":
    main()
