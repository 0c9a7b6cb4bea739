"""The benchmark's three workloads: input generation, one operation, and an
independent check of that operation's output.

Each workload draws a small pool of inputs from the run's seed; the timed
loop cycles through the pool.  Public functions of ``mkdv_series`` are
looked up through their modules at call time (``series.solve_series``,
``oracle.oracle_solve``), so the traced run can wrap them there.

Check tolerances are fixed constants.  Each sits between the error the
correct program makes and the error of a known wrong result (see
``selftest.py``), with at least a factor of five to spare on both sides
over the seeds and amplitudes the generators can produce.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from mkdv_series import oracle, series
from mkdv_series.spectral import CoeffSeq, NormIndex, gauge_shift, l2_mass, random_real_field

POOL_SIZE = 4
NORM = NormIndex(0.5, 2.0)


def _sup(x) -> float:
    return float(np.max(np.abs(x)))


def _mass_drift(states: np.ndarray) -> float:
    mass = np.sum(np.abs(states) ** 2, axis=1)
    return float(np.max(np.abs(mass - mass[0])))


@dataclasses.dataclass(frozen=True)
class Check:
    """Outcome of one operation's check: pass/fail and the measured errors."""

    ok: bool
    errors: dict


class DenseK3:
    """``solve_series`` on dense real-field data, N = 3, K = 3, unprojected."""

    name = "dense-k3"
    N, K, R = 3, 3, 1.0
    t_check = 1e-3
    # the unprojected depth-K series is exact, to O(t^(K+1)), for the flow
    # truncated at (2K-1)N: no subtree below the root reaches a higher mode
    ref_cutoff = (2 * K - 1) * N
    ref_dt = 5e-5
    inc_tol = 1e-10      # correct: <= 2e-12; projected solve: >= 3e-9
    ratio_max = 0.5

    def __init__(self):
        t_max = series.radius_certificate(self.R, 16.0)
        self.cfg = series.SeriesConfig(N=self.N, K=self.K, t_grid=(self.t_check, t_max))

    def inputs(self, rng):
        return [random_real_field(self.N, NORM, self.R, rng) for _ in range(POOL_SIZE)]

    def reference(self, a0):
        M = self.ref_cutoff
        padded = np.zeros(2 * M + 1, dtype=np.complex128)
        padded[M - self.N : M + self.N + 1] = a0.values
        steps = int(round(self.t_check / self.ref_dt))
        cfg = oracle.OracleConfig(M, self.ref_dt, "modified_mkdv", steps)
        y = oracle.oracle_solve_increment(CoeffSeq(M, padded), cfg, self.t_check).values[-1]
        return y[M - self.N : M + self.N + 1]

    def run(self, a0):
        return series.solve_series(a0, self.cfg)

    def check(self, a0, ref, sol) -> Check:
        inc_gap = _sup(sol.increment_at(0).values - ref)
        # the convergence experiment's envelope and ratio checks at t_max
        C, t = sol.config.C_bound, sol.times[1]
        dn = sol.depth_norms[1]
        env_excess = max(dn[k] / ((C * t) ** (k / 2.0) * self.R ** (2 * k + 1)) for k in range(1, self.K + 1))
        ratio = max(dn[k] / dn[k - 1] for k in range(1, self.K + 1))
        ok = inc_gap <= self.inc_tol and env_excess <= 1.0 and ratio <= self.ratio_max
        return Check(ok, {"increment_gap": inc_gap, "envelope_ratio": env_excess, "depth_ratio": ratio})


@dataclasses.dataclass(frozen=True)
class SparseResult:
    solution: object
    residual: float
    rk4_increment: np.ndarray


class SparseGrid:
    """Two-mode data, N = 6, K = 4, projected, on 65 times; then the
    integral-equation residual and an RK4 increment at the last time."""

    name = "sparse-grid"
    N, K, t_end, points = 6, 4, 0.02, 65
    dt, steps = 1e-5, 2000
    residual_tol = 1e-13   # correct: <= 6e-15
    gap_rel_tol = 2e-13    # gap / sup|increment|: correct <= 2e-14; depth K dropped >= 1e-12

    def __init__(self):
        grid = tuple(np.linspace(0.0, self.t_end, self.points))
        self.cfg = series.SeriesConfig(N=self.N, K=self.K, t_grid=grid, project_internal=True)
        self.ocfg = oracle.OracleConfig(self.N, self.dt, "modified_mkdv", self.steps)

    def inputs(self, rng):
        pool = []
        for _ in range(POOL_SIZE):
            z = rng.uniform(0.05, 0.1) * np.exp(2j * np.pi * rng.random())
            v = np.zeros(2 * self.N + 1, dtype=np.complex128)
            v[self.N + 1], v[self.N - 1] = z, np.conj(z)
            pool.append(CoeffSeq(self.N, v))
        return pool

    def reference(self, a0):
        return None

    def run(self, a0):
        sol = series.solve_series(a0, self.cfg)
        res = series.ode_residual(sol, a0, self.cfg)
        y = oracle.oracle_solve_increment(a0, self.ocfg, self.t_end).values[-1]
        return SparseResult(sol, res, y)

    def check(self, a0, ref, out) -> Check:
        gap = _sup(out.solution.increment_at(self.points - 1).values - out.rk4_increment)
        rel = gap / _sup(out.rk4_increment)
        ok = out.residual <= self.residual_tol and rel <= self.gap_rel_tol
        return Check(ok, {"residual": out.residual, "increment_gap_rel": rel})


@dataclasses.dataclass(frozen=True)
class FlowPair:
    modified: np.ndarray   # full states a0 + y, [steps + 1, 2N + 1]
    plain: np.ndarray
    t: float


class OracleRK4:
    """RK4 at N = 256: the modified flow by ``oracle_solve_increment``,
    then the plain flow by ``oracle_solve``."""

    name = "oracle-rk4"
    N, R, dt, steps = 256, 0.5, 2.5e-8, 200
    gauge_tol = 1e-12      # correct: ~1e-17; plain flow left unshifted: ~5e-8
    drift_tol = 1e-12      # correct: ~3e-17

    def inputs(self, rng):
        return [random_real_field(self.N, NORM, self.R, rng) for _ in range(POOL_SIZE)]

    def reference(self, a0):
        return None

    def run(self, a0):
        t = self.steps * self.dt
        y = oracle.oracle_solve_increment(
            a0, oracle.OracleConfig(self.N, self.dt, "modified_mkdv", self.steps), t
        ).values
        plain = oracle.oracle_solve(a0, oracle.OracleConfig(self.N, self.dt, "mkdv", self.steps), t)
        return FlowPair(a0.values[None, :] + y, plain.values, t)

    def check(self, a0, ref, out) -> Check:
        # gauge-check: translating the modified flow by the conserved mass
        # gives the plain flow
        shifted = gauge_shift(CoeffSeq(self.N, out.modified[-1]), -l2_mass(a0), out.t)
        gap = _sup(shifted.values - out.plain[-1])
        drift = max(_mass_drift(out.modified), _mass_drift(out.plain))
        ok = gap <= self.gauge_tol and drift <= self.drift_tol
        return Check(ok, {"gauge_gap": gap, "mass_drift": drift})


WORKLOADS = {w.name: w for w in (DenseK3, SparseGrid, OracleRK4)}
