"""Convex hull stratification: rank points by proximity to the hull
boundary via per-point quadratic programs over nearest neighbors."""

from .analysis import cube_boundary_distance, hull_2d, lp_vertex_oracle, pca_2d
from .datagen import GenSpec, SimplexMixtureSpec, gen, gen_simplex_mixture
from .ipm import SolverConfig, SolverSolution, solve, solve_batch
from .neighbors import NeighborSet, knn_all
from .pointcloud import (PointCloud, ScalingRecord, log_transform, scale_unit,
                         uniform_scale)
from .qp import ChsaParams, QpProblem, assemble, recover_weights
from .stratify import (StratificationReport, WeightRecord, negativity_sweep,
                       rank_by_norm, run_chsa)

__version__ = "0.1.0"
