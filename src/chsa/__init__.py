"""Convex hull stratification: rank points by proximity to the hull
boundary via per-point quadratic programs over nearest neighbors.

The public names below are re-exported lazily (PEP 562): `import chsa`
loads no numpy, so `chsa.cli` can fix the BLAS thread count before the
first module that loads it.
"""

import importlib

_EXPORTS = {
    "analysis": ("hull_2d", "lp_vertex_oracle", "pca_2d"),
    "datagen": ("GenSpec", "SimplexMixtureSpec", "gen", "gen_simplex_mixture"),
    "ipm": ("SolverConfig", "SolverSolution", "solve_batch"),
    "neighbors": ("knn_all",),
    "pointcloud": ("PointCloud", "log_transform", "scale_unit"),
    "qp": ("ChsaParams",),
    "stratify": ("StratificationReport", "WeightRecord", "negativity_sweep",
                 "rank_by_norm", "run_chsa"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:        # a submodule, as `chsa.stratify`
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__),
                    name)
    globals()[name] = value
    return value
