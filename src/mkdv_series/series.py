"""Assembly of the power-series solution: initial data plus every tree
term up to a depth cap, with a geometric-convergence certificate and an
integral-equation residual diagnostic.

Each tree term is built once as a table of exponential-polynomial rows
(mode, power, frequency, coefficient) by folding one trilinear node step
up the tree; the table does not depend on time, so one solve evaluates the
whole time grid at the cost of one pass over the rows per time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .oracle import cumulative_simpson, oracle_rhs_grid, uniform_spacing
from .spectral import CoeffSeq, NormIndex, gauge_shift, l2_mass, weighted_norm
from .trees import enumerate_trees
from .ops import evaluate_term_table, tree_term_table

__all__ = [
    "SeriesConfig",
    "SeriesSolution",
    "radius_certificate",
    "solve_series",
    "solve_mkdv_gauged",
    "ode_residual",
    "lipschitz_envelope",
]

# The plain flow is recovered from the mean-subtracted one by translating
# with the conserved mass; on coefficients that is the phase e^{-inct}.
_GAUGE_SIGN = -1.0


@dataclass(frozen=True)
class SeriesConfig:
    """Run parameters: mode cutoff N, tree depth cap K, evaluation times,
    norm used for certificates, internal-mode projection, and the constant
    in the geometric envelope."""

    N: int
    K: int
    t_grid: tuple
    norm: NormIndex = NormIndex(0.5, 2.0)
    project_internal: bool = False
    C_bound: float = 16.0

    def __post_init__(self):
        if self.N < 0 or self.K < 0:
            raise ValueError("N and K must be nonnegative")
        ts = tuple(float(t) for t in self.t_grid)
        if any(not (0.0 <= t <= 1.0) for t in ts):
            raise ValueError("times must lie in [0, 1]")
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise ValueError("times must be nondecreasing")
        if self.C_bound <= 0:
            raise ValueError("C_bound must be positive")
        object.__setattr__(self, "t_grid", ts)


@dataclass(frozen=True)
class SeriesSolution:
    """Series values on the time grid plus per-depth diagnostics."""

    config: SeriesConfig
    equation: str
    times: np.ndarray
    coeffs: list                  # CoeffSeq per time
    depth_norms: np.ndarray       # [n_times, K+1], norm of each depth's term
    t_max: float                  # certificate radius for the initial data
    beyond_certificate: np.ndarray  # bool per time
    warnings: tuple = field(default_factory=tuple)
    depth_values: np.ndarray | None = None  # [K+1, n_times, 2N+1]

    @property
    def final(self) -> CoeffSeq:
        return self.coeffs[-1]

    def increment_at(self, i: int) -> CoeffSeq:
        """The solution minus the initial data, summed directly over the
        depth >= 1 terms so the small increment is never computed as a
        difference of order-one values."""
        if self.depth_values is None:
            raise ValueError("per-depth values were not retained")
        vals = self.depth_values[1:, i, :].sum(axis=0)
        return CoeffSeq(self.config.N, vals)

    def to_json_dict(self) -> dict:
        p = self.config.norm.p
        return {
            "equation": self.equation,
            "config": {
                "N": self.config.N,
                "K": self.config.K,
                "t_grid": list(self.config.t_grid),
                "norm": {"s": self.config.norm.s, "p": "inf" if math.isinf(p) else p},
                "project_internal": self.config.project_internal,
                "C_bound": self.config.C_bound,
            },
            "times": self.times.tolist(),
            "coeffs": [c.to_json_dict() for c in self.coeffs],
            "depth_norms": self.depth_norms.tolist(),
            "certificate": {
                "t_max": self.t_max,
                "within_radius": (~self.beyond_certificate).tolist(),
            },
            "warnings": list(self.warnings),
        }


def radius_certificate(norm0: float, C: float) -> float:
    """Largest time with a clean geometric tail: sqrt(C t) * norm0^2 <= 1/2,
    capped at 1.  Zero data certifies the whole unit interval."""
    if norm0 < 0 or C <= 0:
        raise ValueError("need norm0 >= 0 and C > 0")
    if norm0 == 0.0:
        return 1.0
    return min(1.0, 1.0 / (4.0 * C * norm0**4))


def lipschitz_envelope(R: float, C: float, t: float, K: int | None = None) -> float:
    """Series Lipschitz bound sum_k (2k+1) (Ct)^{k/2} R^{2k} on the ball of
    radius R; infinite sum when K is None (requires sqrt(Ct) R^2 < 1)."""
    q = math.sqrt(C * t) * R * R
    if K is None:
        if q >= 1.0:
            raise ValueError("outside the contraction regime")
        # sum (2k+1) q^k = 2q/(1-q)^2 + 1/(1-q)
        return 2.0 * q / (1.0 - q) ** 2 + 1.0 / (1.0 - q)
    return sum((2 * k + 1) * q**k for k in range(K + 1))


def solve_series(a0: CoeffSeq, cfg: SeriesConfig) -> SeriesSolution:
    """Sum the tree expansion up to depth K on the configured time grid.

    Depth zero is the initial data itself; each deeper level adds every
    tree with that many internal nodes applied to the initial data on all
    leaves.  Per-depth term norms and the certificate radius are recorded.
    """
    if a0.cutoff != cfg.N:
        raise ValueError("initial data cutoff must equal the configured N")
    times = np.asarray(cfg.t_grid, dtype=float)
    T = len(times)
    width = 2 * cfg.N + 1

    depth_vals = np.zeros((cfg.K + 1, T, width), dtype=np.complex128)
    depth_vals[0] = np.tile(a0.values, (T, 1))
    for k in range(1, cfg.K + 1):
        for tree in enumerate_trees(k):
            table = tree_term_table(
                tree, [a0] * len(tree.leaves), cfg.N, cfg.project_internal
            )
            depth_vals[k] += evaluate_term_table(table, times)

    totals = depth_vals.sum(axis=0)
    coeffs = [CoeffSeq(cfg.N, totals[i].copy()) for i in range(T)]
    depth_norms = np.array(
        [
            [weighted_norm(CoeffSeq(cfg.N, depth_vals[k, i]), cfg.norm) for k in range(cfg.K + 1)]
            for i in range(T)
        ]
    )

    norm0 = weighted_norm(a0, cfg.norm)
    t_max = radius_certificate(norm0, cfg.C_bound)
    beyond = times > t_max
    warnings = ()
    if np.any(beyond):
        warnings = (
            f"{int(np.sum(beyond))} evaluation time(s) exceed the certificate "
            f"radius {t_max:.6g}; the truncated sum is still returned",
        )
    return SeriesSolution(
        cfg,
        "modified_mkdv",
        times,
        coeffs,
        depth_norms,
        t_max,
        beyond,
        warnings,
        depth_values=depth_vals,
    )


def solve_mkdv_gauged(a0: CoeffSeq, cfg: SeriesConfig) -> SeriesSolution:
    """Solve the mean-subtracted flow, then translate by the conserved mass
    to obtain the plain-flow trajectory.  Requires real-field data, since
    the translation speed is the mass of a real field."""
    if not a0.is_real_field():
        raise ValueError("gauged solve requires real-field (Hermitian) data")
    sol = solve_series(a0, cfg)
    c = l2_mass(a0)
    coeffs = [
        gauge_shift(seq, _GAUGE_SIGN * c, t) for seq, t in zip(sol.coeffs, sol.times)
    ]
    return SeriesSolution(
        cfg,
        "mkdv",
        sol.times,
        coeffs,
        sol.depth_norms,
        sol.t_max,
        sol.beyond_certificate,
        sol.warnings,
    )


def ode_residual(
    sol: SeriesSolution,
    a0: CoeffSeq,
    cfg: SeriesConfig,
    equation: str | None = None,
) -> float:
    """Largest defect |a(n,t) - a(n,0) - int_0^t RHS ds| over the grid.

    The right-hand side is evaluated on the computed trajectory and
    integrated with the cumulative Simpson rule, so the value measures how
    well the truncated series satisfies its own integral equation.  The
    grid must be uniform with at least 9 points starting at 0.  ``cfg`` is
    not read (the solution carries its own); it stays in the signature for
    callers that pass it positionally.
    """
    times = sol.times
    if len(times) < 9:
        raise ValueError("grid too coarse for the residual: need >= 9 points")
    if times[0] != 0.0:
        raise ValueError("residual grid must start at t = 0")
    dx = uniform_spacing(times)
    states = np.stack([c.values for c in sol.coeffs])
    integral = cumulative_simpson(oracle_rhs_grid(states, times, equation or sol.equation), dx)
    defect = states - a0.values[None, :] - integral
    return float(np.max(np.abs(defect)))
