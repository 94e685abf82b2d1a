"""Nonlinear diffusion coupled to embedded 1D tube networks.

A finite-volume solver for mixed-dimensional problems where a bulk
diffusion equation with solution-dependent coefficient exchanges mass
with slender tubes through kernel-distributed sources. Interface values
at tube walls are reconstructed from the regularized field via the
Kirchhoff transform, which keeps the source accurate on grids much
coarser than the tube radius.
"""

from .analytic import (AnalyticSolveError, MultiTubeSolution,
                       SingleTubeSolution, TubeSpec, solve_multi_tube)
from .coupling import (SegmentCoupling, build_coupling,
                       build_segment_coupling, mean_distance,
                       point_segment_distance)
from .grid import BulkGrid, bulk_l2_error, observed_orders, source_l2_error
from .laws import (ConstantLaw, DiffusionLaw, ExponentialLaw, TabulatedLaw,
                   TransformDomainError, TransformTable, VanGenuchtenLaw)
from .network import (NetworkFormatError, NetworkMesh, Segment, SegmentCell,
                      TubeNetwork, discretize_network, kernel_value,
                      parse_network, synthetic_root_network, write_network)
from .quadrature import QuadratureError, tanh_sinh
from .reconstruction import (ReconstructionError, ReconstructionInput,
                             interface_derivatives, kernel_profile_f,
                             reconstruct_interface)
from .scenarios import (ConfigError, ErrorReport, ScenarioConfig,
                        parse_config, run_scenario, write_config)
from .solver import (CoupledProblem, CoupledState, NonconvergenceError,
                     newton_solve)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
