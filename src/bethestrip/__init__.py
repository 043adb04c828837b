"""Random Schrodinger operators on the Bethe strip.

Matrix Green's functions via tree recursions (closed forms, deterministic
fixed-point solves, population dynamics, exact diagonalization cross-checks),
density-of-states and bounded-moment indicators, and the explicit spectrum of
the linearized transfer operator -- plus a reproducible command-line driver.

The names below are the documented surface (README and ``demos/``); every
other function is imported from its module, e.g. ``bethestrip.recursion``.
"""

__version__ = "0.4.0"

from .errors import (
    BetheStripError,
    ConfigError,
    EigenvalueLawError,
    OutOfBandError,
    SingularMatrixError,
    SizeOverflowError,
    TruncationOverflowError,
    UnsupportedEnsembleError,
)
from .linalg import SpectralPoint
from .model import GOE, BetheStripModel, PointMass, band_intersection
from .free import a_e_matrix, free_dos, free_forward_green, free_full_green
from .recursion import (ac_indicator, eta_continuation, sample_tree,
                        sample_tree_given)
from .fixedpoint import continuation_to_boundary, solve_forward
from .ed import (build_tree, draw_site_potentials, root_green_block,
                 tree_site_count)
from .linearization import build_ce_matrix, enumerate_indices, gap_kce, lambda_j

__all__ = [
    "__version__",
    # errors
    "BetheStripError",
    "ConfigError",
    "EigenvalueLawError",
    "OutOfBandError",
    "SingularMatrixError",
    "SizeOverflowError",
    "TruncationOverflowError",
    "UnsupportedEnsembleError",
    # linalg
    "SpectralPoint",
    # model
    "GOE",
    "BetheStripModel",
    "PointMass",
    "band_intersection",
    # free
    "a_e_matrix",
    "free_dos",
    "free_forward_green",
    "free_full_green",
    # recursion
    "ac_indicator",
    "eta_continuation",
    "sample_tree",
    "sample_tree_given",
    # fixedpoint
    "continuation_to_boundary",
    "solve_forward",
    # ed
    "build_tree",
    "draw_site_potentials",
    "root_green_block",
    "tree_site_count",
    # linearization
    "build_ce_matrix",
    "enumerate_indices",
    "gap_kce",
    "lambda_j",
]
