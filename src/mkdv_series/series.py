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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .oracle import duhamel_integral
from .spectral import CoeffSeq, NormIndex, gauge_shift, l2_mass, weighted_norm
from .ops import depth_term_tables, evaluate_term_table

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
        if not ts or any(not (0.0 <= t <= 1.0) for t in ts):
            raise ValueError("t_grid needs at least one time, all in [0, 1]")
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise ValueError("times must be nondecreasing")
        if self.C_bound <= 0:
            raise ValueError("C_bound must be positive")
        object.__setattr__(self, "t_grid", ts)


@dataclass(frozen=True)
class SeriesSolution:
    """Series values on the time grid plus per-depth diagnostics.
    ``depth_rows`` also counts rows that are zero in exact arithmetic but
    cancel only to rounding, so it depends on summation order."""

    config: SeriesConfig
    equation: str
    times: np.ndarray
    coeffs: list                  # CoeffSeq per time
    depth_norms: np.ndarray       # [n_times, K+1], norm of each depth's term
    t_max: float                  # certificate radius for the initial data
    beyond_certificate: np.ndarray  # bool per time
    depth_values: np.ndarray      # [K+1, n_times, 2N+1]
    warnings: tuple = field(default_factory=tuple)
    gauge_mass: float = 0.0       # c of a plain-flow solution's phase e^{-inct}
    depth_rows: tuple = ()        # rows of each depth's table, depths 0..K

    @property
    def final(self) -> CoeffSeq:
        return self.coeffs[-1]

    def increment_at(self, i: int) -> CoeffSeq:
        """The solution minus the initial data, summed directly over the
        depth >= 1 terms so the small increment is never computed as a
        difference of order-one values.

        A plain-flow solution is e^{i theta} times the mean-subtracted one,
        theta = -nct, so its increment is (e^{i theta} - 1) a0 + e^{i theta}
        times the depth sum; the first factor is formed as
        2i sin(theta/2) e^{i theta/2} so that it does not cancel either.
        For the mean-subtracted flow (c = 0) the depth sum comes back
        unchanged."""
        vals = self.depth_values[1:, i, :].sum(axis=0)
        a0 = CoeffSeq(self.config.N, self.depth_values[0, i])
        theta = a0.modes * (_GAUGE_SIGN * self.gauge_mass * self.times[i])
        half = np.exp(0.5j * theta)
        return a0.with_values(half * (2j * np.sin(0.5 * theta) * a0.values + half * vals))

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
            "depth_rows": list(self.depth_rows),
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

    Depth zero is the initial data itself; depth k is every tree with k
    internal nodes applied to the initial data on all leaves.  Each depth
    is one table, folded once from the lower depths' tables
    (``depth_term_tables``) and evaluated once on the whole grid.
    Per-depth term norms, table rows and the certificate radius are
    recorded.
    """
    if a0.cutoff != cfg.N:
        raise ValueError("initial data cutoff must equal the configured N")
    times = np.asarray(cfg.t_grid, dtype=float)
    T = len(times)
    width = 2 * cfg.N + 1

    tables = depth_term_tables(a0, cfg.K, cfg.project_internal)
    depth_vals = np.zeros((cfg.K + 1, T, width), dtype=np.complex128)
    depth_vals[0] = np.tile(a0.values, (T, 1))
    for k in range(1, cfg.K + 1):
        depth_vals[k] = evaluate_term_table(tables[k], times)

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
        depth_vals,
        warnings,
        depth_rows=tuple(int(t.weights.size) for t in tables),
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
    return replace(sol, equation="mkdv", coeffs=coeffs, gauge_mass=c)


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
