"""Classical integrator: right-hand side, conservation, convergence order,
and the quadrature-based successive-substitution oracle."""

import numpy as np
import pytest

from mkdv_series import (
    CoeffSeq,
    OracleConfig,
    cumulative_simpson,
    invariant_drift,
    l2_mass,
    oracle_rhs,
    oracle_rhs_grid,
    oracle_solve,
    oracle_solve_increment,
    picard_iterate,
)
from mkdv_series import oracle
from mkdv_series.spectral import NormIndex, random_real_field


def brute_rhs(vals, t, N, equation):
    modes = np.arange(-N, N + 1)
    ph = np.exp(-1j * modes.astype(float) ** 3 * t)
    b = ph * vals
    out = np.zeros_like(vals)
    for i, n in enumerate(modes):
        acc = 0j
        for n1 in modes:
            for n2 in modes:
                n3 = n - n1 - n2
                if abs(n3) > N:
                    continue
                if equation == "mkdv":
                    acc += b[n1 + N] * b[n2 + N] * n3 * b[n3 + N]
                elif n1 != n and n2 != n and n3 != n:
                    acc += b[n1 + N] * b[n2 + N] * b[n3 + N]
        if equation == "mkdv":
            out[i] = -1j * np.conj(ph[i]) * acc
        else:
            out[i] = (-1j * n / 3.0) * np.conj(ph[i]) * acc + 1j * n * vals[i] * vals[2 * N - i] * vals[i]
    return out


def test_rhs_zero_data():
    z = CoeffSeq.zeros(4)
    for eq in ("modified_mkdv", "mkdv"):
        assert np.max(np.abs(oracle_rhs(z, eq, 0.3).values)) == 0.0


def test_rhs_matches_triple_loop():
    rng = np.random.default_rng(0)
    N = 4
    vals = rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1)
    a = CoeffSeq(N, vals)
    for eq in ("modified_mkdv", "mkdv"):
        fast = oracle_rhs(a, eq, 0.37).values
        slow = brute_rhs(vals, 0.37, N, eq)
        assert np.max(np.abs(fast - slow)) < 1e-13 * np.max(np.abs(slow))


def test_modified_equals_plain_plus_mean_term():
    rng = np.random.default_rng(1)
    N = 5
    vals = rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1)
    a = CoeffSeq(N, vals)
    modes = np.arange(-N, N + 1)
    pair_mass = np.sum(vals * vals[::-1])
    lhs = oracle_rhs(a, "modified_mkdv", 0.2).values
    rhs = oracle_rhs(a, "mkdv", 0.2).values + 1j * modes * pair_mass * vals
    assert np.max(np.abs(lhs - rhs)) < 1e-13 * np.max(np.abs(lhs))


def test_rhs_single_mode_probe_vanishes():
    # complex non-real-field probe at cutoff 1: no triple fits inside the box
    d = CoeffSeq.delta(1, 1, 1e-3 + 5e-4j)
    out = oracle_rhs(d, "modified_mkdv", 0.0)
    assert np.max(np.abs(out.values)) == 0.0


@pytest.mark.parametrize("N", [oracle._FFT_MIN_N, 101])
def test_fft_route_matches_direct(N, monkeypatch):
    # 4N+1 is itself 5-smooth at both cutoffs (225 = 3^2 5^2, 405 = 3^4 5),
    # so the padding is the least alias-free length and nothing hides an
    # off-by-one in it
    assert oracle._fft_length(4 * N + 1) == 4 * N + 1
    assert oracle.rhs_route(N)["rhs_route"] == "fft"
    rng = np.random.default_rng(N)
    a = CoeffSeq(N, rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1))
    for eq in ("modified_mkdv", "mkdv"):
        fft = oracle_rhs(a, eq, 0.37).values
        with monkeypatch.context() as m:
            m.setattr(oracle, "_FFT_MIN_N", 10**9)
            direct = oracle_rhs(a, eq, 0.37).values
        assert np.max(np.abs(fft - direct)) <= 1e-13 * np.max(np.abs(direct))


@pytest.mark.parametrize("N", [6, 64])
def test_rhs_grid_matches_rowwise(N):
    rng = np.random.default_rng(N)
    times = np.linspace(0.0, 0.3, 5)
    stack = rng.normal(size=(5, 2 * N + 1)) + 1j * rng.normal(size=(5, 2 * N + 1))
    for eq in ("modified_mkdv", "mkdv"):
        grid = oracle_rhs_grid(stack, times, eq)
        rows = np.stack([oracle_rhs(CoeffSeq(N, v), eq, t).values for v, t in zip(stack, times)])
        assert np.max(np.abs(grid - rows)) <= 1e-14 * np.max(np.abs(rows))


def test_rhs_cosine_hand_value():
    eps = 0.2
    c = CoeffSeq.cosine(4, eps)
    r = oracle_rhs(c, "modified_mkdv", 0.0)
    assert r[3] == pytest.approx(-1j * eps**3 / 8)
    assert r[1] == pytest.approx(1j * (eps / 2) ** 3)


def test_zero_data_trajectory():
    cfg = OracleConfig(4, 1e-3, "modified_mkdv", 50)
    traj = oracle_solve(CoeffSeq.zeros(4), cfg, 0.05)
    assert np.max(np.abs(traj.values)) == 0.0
    assert invariant_drift(traj) == 0.0


def test_linear_regime_constant():
    a0 = CoeffSeq.cosine(8, 1e-6)
    traj = oracle_solve(a0, OracleConfig(8, 5e-4, "modified_mkdv", 200), 0.1)
    assert np.max(np.abs(traj.final.values - a0.values)) < 1e-18


def test_fourth_order_convergence():
    N, t = 4, 0.5
    a0 = CoeffSeq.cosine(N, 1.0)
    ref = oracle_solve(a0, OracleConfig(N, t / 3200, "modified_mkdv", 3200), t).final.values
    errs = []
    for steps in (100, 200):
        got = oracle_solve(a0, OracleConfig(N, t / steps, "modified_mkdv", steps), t).final.values
        errs.append(np.max(np.abs(got - ref)))
    ratio = errs[0] / errs[1]
    assert 10.0 < ratio < 25.0


def test_single_step_drift_tiny():
    a0 = CoeffSeq.cosine(6, 0.5)
    traj = oracle_solve(a0, OracleConfig(6, 1e-3, "modified_mkdv", 1), 1e-3)
    assert invariant_drift(traj) < 1e-14


def test_mass_conserved_and_hermitian():
    a0 = CoeffSeq.cosine(8, 0.4)
    traj = oracle_solve(a0, OracleConfig(8, 5e-4, "modified_mkdv", 1000), 0.5)
    assert invariant_drift(traj) < 1e-12
    final = traj.final.values
    assert np.max(np.abs(final - np.conj(final[::-1]))) < 1e-12


def test_stability_guard():
    a0 = CoeffSeq.zeros(8)
    with pytest.raises(ValueError):
        oracle_solve(a0, OracleConfig(8, 1e-3, "modified_mkdv", 10), 0.01)
    with pytest.raises(ValueError):
        oracle_solve(a0, OracleConfig(8, 1e-4, "modified_mkdv", 10), 0.5)
    with pytest.raises(ValueError):
        OracleConfig(8, 1e-4, "kdv5", 10)


def test_increment_solver_consistent():
    N, t = 6, 0.02
    a0 = CoeffSeq.cosine(N, 0.3)
    cfg = OracleConfig(N, 1e-4, "modified_mkdv", 200)
    full = oracle_solve(a0, cfg, t).final.values
    inc = oracle_solve_increment(a0, cfg, t).values[-1]
    assert np.max(np.abs((a0.values + inc) - full)) < 1e-15


def test_solvers_above_fft_crossover(monkeypatch):
    N, dt, steps = 64, 1e-6, 100
    assert oracle.rhs_route(N)["rhs_route"] == "fft"
    a0 = random_real_field(N, NormIndex(0.5, 2.0), 1.0, np.random.default_rng(3))
    cfg = OracleConfig(N, dt, "modified_mkdv", steps)
    traj = oracle_solve(a0, cfg, steps * dt)
    inc = oracle_solve_increment(a0, cfg, steps * dt).values
    with monkeypatch.context() as m:
        m.setattr(oracle, "_FFT_MIN_N", 10**9)
        direct = oracle_solve_increment(a0, cfg, steps * dt).values
    assert np.max(np.abs(inc - direct)) <= 1e-12 * np.max(np.abs(direct))
    assert np.max(np.abs((a0.values + inc) - traj.values)) <= 1e-15
    assert invariant_drift(traj) <= 1e-12
    final = traj.final.values
    assert np.max(np.abs(final - np.conj(final[::-1]))) <= 1e-12


def test_cumulative_simpson_fourth_order():
    f = lambda s: np.exp(1.3j * s) * (1.0 + s**2)
    F = lambda s: np.array([0.0]) if s == 0 else None
    errs = []
    for T in (33, 65):
        s = np.linspace(0.0, 1.0, T)
        got = cumulative_simpson(f(s), s[1] - s[0])
        # reference by fine trapezoid-free quadrature
        from scipy.integrate import quad

        ref = np.array(
            [
                quad(lambda u: f(u).real, 0, x)[0] + 1j * quad(lambda u: f(u).imag, 0, x)[0]
                for x in s
            ]
        )
        errs.append(np.max(np.abs(got - ref)))
    assert errs[0] / errs[1] > 10.0


def test_picard_zero_data():
    grid = np.linspace(0.0, 0.02, 17)
    traj = picard_iterate(CoeffSeq.zeros(4), grid, 3)
    assert np.max(np.abs(traj.values)) == 0.0


def test_picard_requires_uniform_grid_from_zero():
    a0 = CoeffSeq.cosine(4, 0.1)
    with pytest.raises(ValueError):
        picard_iterate(a0, np.linspace(0.01, 0.02, 17), 2)
    with pytest.raises(ValueError):
        picard_iterate(a0, np.array([0.0, 0.1, 0.15]), 2)
