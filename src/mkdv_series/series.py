"""Assembly of the power-series solution: initial data plus every tree
term up to a depth cap, with a geometric-convergence certificate and an
integral-equation residual diagnostic.

The terms are summed depth by depth, not tree by tree.  Depth k's sum is
one table of exponential-polynomial rows (mode, power, frequency,
coefficient), folded once from the lower depths' tables as two bilinear
products (Christ's recursion: the trilinear node on every triple of lower
depths whose depths add to k-1; see ``ops.depth_term_tables``).  A table
does not depend on time, so one solve evaluates the whole time grid at
the cost of one pass over each depth's rows per time.

A solve records the per-depth terms.  The depth norms, the certificate
radius and its warnings are derived from them when read, not recorded;
the totals are the initial data plus the increment, and the increment's
phase (``_increments``) carries the plain flow's gauge.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .oracle import duhamel_integral
from .spectral import CoeffSeq, NormIndex, is_integral, l2_mass, weighted_norm
from .ops import depth_term_tables, evaluate_term_table

__all__ = [
    "SeriesConfig",
    "SeriesSolution",
    "radius_certificate",
    "solve_series",
    "solve_mkdv_gauged",
    "ode_residual",
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
        if not (is_integral(self.N) and is_integral(self.K)):
            raise ValueError(f"N and K must be integers, got N={self.N!r}, K={self.K!r}")
        if self.N < 0 or self.K < 0:
            raise ValueError("N and K must be nonnegative")
        ts = tuple(float(t) for t in self.t_grid)
        if not ts or any(not (0.0 <= t <= 1.0) for t in ts):
            raise ValueError("t_grid needs at least one time, all in [0, 1]")
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise ValueError("times must be nondecreasing")
        if not 0.0 < self.C_bound < math.inf:
            raise ValueError(f"C_bound must be finite and positive, got {self.C_bound!r}")
        object.__setattr__(self, "t_grid", ts)


@dataclass(frozen=True)
class SeriesSolution:
    """The per-depth terms of a solve on its time grid, their totals, and
    what follows from them.

    The record holds the terms (``depth_values``), the totals (``coeffs``)
    and the rows of each depth's table.  The time grid, the depth norms,
    the certificate radius and its warnings are read from ``config`` and
    ``depth_values`` when asked for; none of them is stored.
    ``depth_rows`` also counts rows that are zero in exact arithmetic but
    cancel only to rounding, so it depends on summation order."""

    config: SeriesConfig
    equation: str
    coeffs: list                  # CoeffSeq per time
    depth_values: np.ndarray      # [K+1, n_times, 2N+1]
    gauge_mass: float             # c of a plain-flow solution's phase e^{-inct}
    depth_rows: tuple             # rows of each depth's table, depths 0..K

    @property
    def times(self) -> np.ndarray:
        return np.asarray(self.config.t_grid)

    @property
    def final(self) -> CoeffSeq:
        return self.coeffs[-1]

    @property
    def depth_norms(self) -> np.ndarray:
        """[n_times, K+1]: the norm of each depth's term at each time."""
        return weighted_norm(self.depth_values, self.config.norm).T

    @property
    def t_max(self) -> float:
        """Certificate radius of the initial data (depth 0)."""
        norm0 = weighted_norm(self.depth_values[0, 0], self.config.norm)
        return radius_certificate(norm0, self.config.C_bound)

    @property
    def beyond_certificate(self) -> np.ndarray:
        return self.times > self.t_max

    @property
    def warnings(self) -> tuple:
        beyond = int(np.sum(self.beyond_certificate))
        if not beyond:
            return ()
        return (
            f"{beyond} evaluation time(s) exceed the certificate radius "
            f"{self.t_max:.6g}; the truncated sum is still returned",
        )

    def increment_at(self, i: int) -> CoeffSeq:
        """The solution minus the initial data at time ``times[i]``
        (``_increments``)."""
        inc = _increments(self.depth_values[:, i : i + 1], self.gauge_mass, self.times[i : i + 1])
        return CoeffSeq(self.config.N, inc[0])

    def to_json_dict(self) -> dict:
        config = asdict(self.config)
        config["t_grid"] = list(self.config.t_grid)
        if math.isinf(self.config.norm.p):
            config["norm"]["p"] = "inf"
        return {
            "equation": self.equation,
            "config": config,
            "times": self.times.tolist(),
            "coeffs": [c.to_json_dict() for c in self.coeffs],
            "depth_norms": self.depth_norms.tolist(),
            "certificate": {
                "t_max": self.t_max,
                "within_radius": (~self.beyond_certificate).tolist(),
            },
            "warnings": list(self.warnings),
            "depth_rows": list(self.depth_rows),
        }


def _increments(depth_values: np.ndarray, c: float, times: np.ndarray) -> np.ndarray:
    """[n_times, 2N+1]: the solution minus the initial data, summed
    directly over the depth >= 1 terms so the small increment is never
    computed as a difference of order-one values.

    A plain-flow solution is e^{i theta} times the mean-subtracted one,
    theta = -nct, so its increment is (e^{i theta} - 1) a0 + e^{i theta}
    times the depth sum; the first factor is formed as
    2i sin(theta/2) e^{i theta/2} so that it does not cancel either.
    For the mean-subtracted flow (c = 0) the depth sum comes back
    unchanged."""
    N = (depth_values.shape[-1] - 1) // 2
    theta = np.arange(-N, N + 1) * (_GAUGE_SIGN * c * times[:, None])
    half = np.exp(0.5j * theta)
    return half * (2j * np.sin(0.5 * theta) * depth_values[0] + half * depth_values[1:].sum(axis=0))


def radius_certificate(norm0: float, C: float) -> float:
    """Largest time with a clean geometric tail: sqrt(C t) * norm0^2 <= 1/2,
    capped at 1.  Zero data certifies the whole unit interval; a norm0^4
    past the float range gives the underflowed radius, 0."""
    if not (norm0 >= 0 and C > 0):
        raise ValueError("need norm0 >= 0 and C > 0")
    if norm0 == 0.0:
        return 1.0
    try:
        q = norm0**4
    except OverflowError:
        return 0.0
    return min(1.0, 1.0 / (4.0 * C * q))


def solve_series(a0: CoeffSeq, cfg: SeriesConfig) -> SeriesSolution:
    """Sum the tree expansion up to depth K on the configured time grid.

    Depth zero is the initial data itself; depth k is every tree with k
    internal nodes applied to the initial data on all leaves.  Each depth
    is one table, folded once from the lower depths' tables
    (``depth_term_tables``) and evaluated once on the whole grid.
    """
    return _solve(a0, cfg, "modified_mkdv", 0.0)


def solve_mkdv_gauged(a0: CoeffSeq, cfg: SeriesConfig) -> SeriesSolution:
    """Solve the mean-subtracted flow, then translate by the conserved mass
    to obtain the plain-flow trajectory.  Requires real-field data, since
    the translation speed is the mass of a real field."""
    if not np.all(np.isfinite(a0.values)):  # first: is_real_field forms inf - inf
        raise ValueError("data must be finite")
    if not a0.is_real_field():
        raise ValueError("gauged solve requires real-field (Hermitian) data")
    return _solve(a0, cfg, "mkdv", l2_mass(a0))


def _solve(a0: CoeffSeq, cfg: SeriesConfig, equation: str, c: float) -> SeriesSolution:
    """The mean-subtracted depth terms, and totals a0 plus the increment
    of the flow whose phase is e^{-inct}."""
    if a0.cutoff != cfg.N:
        raise ValueError("initial data cutoff must equal the configured N")
    times = np.asarray(cfg.t_grid)
    tables = depth_term_tables(a0, cfg.K, cfg.project_internal)
    depth_vals = np.zeros((cfg.K + 1, len(times), 2 * cfg.N + 1), dtype=np.complex128)
    depth_vals[0] = a0.values
    for k in range(1, cfg.K + 1):
        depth_vals[k] = evaluate_term_table(tables[k], times)
    coeffs = [CoeffSeq(cfg.N, a0.values + inc) for inc in _increments(depth_vals, c, times)]
    return SeriesSolution(
        cfg, equation, coeffs, depth_vals, c, tuple(int(t.weights.size) for t in tables)
    )


def ode_residual(sol: SeriesSolution, a0: CoeffSeq, cfg: SeriesConfig) -> float:
    """Largest defect |a(n,t) - a(n,0) - int_0^t RHS ds| over the grid.

    The right-hand side is that of the solution's own equation
    (``sol.equation``), evaluated on the computed trajectory and
    integrated with the cumulative Simpson rule (``duhamel_integral``), so
    the value measures how well the truncated series satisfies its own
    integral equation.  The grid must be uniform with at least 9 points
    starting at 0.  ``cfg`` is not read (the solution carries its own); it
    stays in the signature for callers that pass it positionally.
    """
    states = np.stack([c.values for c in sol.coeffs])
    defect = states - a0.values[None, :] - duhamel_integral(states, sol.times, sol.equation)
    return float(np.max(np.abs(defect)))
