"""Numerical laboratory for anticipated backward doubly stochastic
differential equations: a regression/exact-tree backward solver with
anticipated coefficients, the frozen-anticipation contraction mapping,
interval segmentation, comparison and duality harnesses, and an exact
enumeration oracle.
"""

from .comparison import check_monotone_chain, ChainReport, ComparisonReport, run_comparison
from .condexp import condexp, ExactTreeBackend, RegressionBackend, RegressionBasis
from .delays import (affine_delay, constant_delay, DelayForm, DelaySpec,
                     GridOffsets, Segmentation, segment_interval,
                     to_grid_offsets, validate_delay)
from .duality import (duality_check, duality_rhs, LinearDualityCoeffs,
                      measurability_check, solve_delayed_dsde)
from .generators import (audit_lipschitz, builtin_generator, check_feasible,
                         evaluate, GeneratorSpec, LipschitzData, with_lipschitz)
from .grids import make_grid, TimeGrid
from .paths import (backward_integral, forward_integral, PathEnsemble,
                    sample_paths)
from .scenario import Scenario
from .solver import (constant_initial, ContractionParams, contraction_params,
                     default_initial, picard_iterate, SolutionProcess,
                     solve_backward_sweep, weighted_distance, weighted_norm)
from .terminal import constant_terminal, TerminalData, TerminalSpec
from .tree import build_tree, oracle_solve, tree_for_grid, TreeModel
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
