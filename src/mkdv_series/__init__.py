"""Tree-indexed power-series solver for the modified mKdV equation in
truncated Fourier space, with an independent classical ODE oracle and the
bound/convergence diagnostics that certify the expansion."""

from .spectral import (
    CoeffSeq,
    NormIndex,
    bracket,
    gauge_shift,
    l2_mass,
    truncate_modes,
    weighted_norm,
)
from .trees import (
    TernaryTree,
    enumerate_trees,
    fuss_catalan,
    graft,
    node_level,
    odd_even_partition,
    split_subtrees,
)
from .exppoly import ExpPoly, ep_eval, ep_integrate, ep_mul
from .indexer import (
    IndexAssignment,
    build_assignment,
    expansion_coefficient,
    sigma,
)
from .ops import (
    apply_tree_operator,
    integral_bound,
    integral_exact,
    kernel_norm_scan,
    kernel_value,
    majorant_apply,
    majorant_tree,
    parity_bound,
)
from .oracle import (
    OracleConfig,
    Trajectory,
    cumulative_simpson,
    invariant_drift,
    oracle_rhs,
    oracle_rhs_grid,
    oracle_solve,
    oracle_solve_increment,
    picard_iterate,
)
from .series import (
    SeriesConfig,
    SeriesSolution,
    lipschitz_envelope,
    ode_residual,
    radius_certificate,
    solve_mkdv_gauged,
    solve_series,
)

__version__ = "0.1.0"
