"""Series assembly: depth structure, certificates, residuals, gauge."""

import json
import math

import numpy as np
import pytest

from mkdv_series import (
    CoeffSeq,
    NormIndex,
    OracleConfig,
    SeriesConfig,
    l2_mass,
    lipschitz_envelope,
    ode_residual,
    oracle_solve,
    picard_iterate,
    radius_certificate,
    solve_mkdv_gauged,
    solve_series,
    enumerate_trees,
    weighted_norm,
)
from mkdv_series.ops import apply_tree_operator_reference
from mkdv_series.spectral import gauge_shift, random_real_field


def cosine_data(N=6, eps=0.1):
    return CoeffSeq.cosine(N, eps)


def test_depth_zero_identity():
    a0 = cosine_data()
    cfg = SeriesConfig(N=6, K=0, t_grid=(0.0, 0.3, 0.9))
    sol = solve_series(a0, cfg)
    for c in sol.coeffs:
        assert np.array_equal(c.values, a0.values)


def test_zero_data_zero_solution():
    cfg = SeriesConfig(N=5, K=3, t_grid=(0.2, 0.8))
    sol = solve_series(CoeffSeq.zeros(5), cfg)
    for c in sol.coeffs:
        assert np.max(np.abs(c.values)) == 0.0
    assert np.max(sol.depth_norms[:, 1:]) == 0.0
    assert sol.t_max == 1.0


def test_initial_time_is_initial_data():
    a0 = cosine_data()
    cfg = SeriesConfig(N=6, K=2, t_grid=(0.0, 0.05))
    sol = solve_series(a0, cfg)
    assert np.array_equal(sol.coeffs[0].values, a0.values)


def test_hermitian_symmetry_propagates():
    a0 = cosine_data(eps=0.4)
    cfg = SeriesConfig(N=6, K=3, t_grid=(0.02, 0.05))
    sol = solve_series(a0, cfg)
    for c in sol.coeffs:
        v = c.values
        scale = np.max(np.abs(v))
        assert np.max(np.abs(v - np.conj(v[::-1]))) <= 1e-12 * scale


def test_depth_norms_scale_multilinearly():
    idx = NormIndex(0.5, 2.0)
    a0 = cosine_data(N=4, eps=0.2)
    lam = 0.37
    cfg = SeriesConfig(N=4, K=3, t_grid=(0.05,), norm=idx)
    n1 = solve_series(a0, cfg).depth_norms[0]
    n2 = solve_series(a0.with_values(lam * a0.values), cfg).depth_norms[0]
    for k in range(4):
        assert n2[k] == pytest.approx(lam ** (2 * k + 1) * n1[k], rel=1e-12)


def test_each_depth_is_the_reference_summed_over_trees():
    # depth k sums every tree with k internal nodes; the scalar reference
    # sums each tree assignment by assignment, one symbolic integral each
    N, K, ts = 3, 3, (0.05, 0.3)
    rng = np.random.default_rng(21)
    v = np.zeros(2 * N + 1, dtype=np.complex128)
    for n in (-2, 1, 3):
        v[n + N] = rng.normal() + 1j * rng.normal()
    a0 = CoeffSeq(N, v)
    for project in (False, True):
        sol = solve_series(a0, SeriesConfig(N=N, K=K, t_grid=ts, project_internal=project))
        for k in range(1, K + 1):
            for i, t in enumerate(ts):
                ref = sum(
                    apply_tree_operator_reference(tree, [a0] * len(tree.leaves), t, N, project).values
                    for tree in enumerate_trees(k)
                )
                scale = np.max(np.abs(ref))
                assert scale > 0.0
                assert np.max(np.abs(sol.depth_values[k, i] - ref)) <= 1e-13 * scale


def test_picard_equivalence():
    # K sweeps of the integral-equation map from the constant trajectory
    # agree with the depth-K series when internal modes are projected
    N, t = 6, 0.02
    a0 = cosine_data(N)
    grid = np.linspace(0.0, t, 65)
    for K in (1, 2, 3):
        cfg = SeriesConfig(N=N, K=K, t_grid=(t,), project_internal=True)
        sol = solve_series(a0, cfg)
        pic = picard_iterate(a0, grid, K)
        assert np.max(np.abs(sol.final.values - pic.values[-1])) < 1e-10


def test_radius_certificate_examples():
    assert radius_certificate(0.0, 16.0) == 1.0
    assert radius_certificate(1.0, 16.0) == pytest.approx(1.0 / 64.0)
    with pytest.raises(ValueError):
        radius_certificate(-1.0, 16.0)
    # the chosen margin: sqrt(C t) norm^2 = 1/2 at the certified time
    for R in (0.5, 1.0, 2.0):
        t = radius_certificate(R, 16.0)
        if t < 1.0:
            assert math.sqrt(16.0 * t) * R * R == pytest.approx(0.5)


def test_depth_norms_below_geometric_envelope():
    idx = NormIndex(0.5, 2.0)
    R, C = 1.0, 16.0
    a0 = random_real_field(4, idx, R, np.random.default_rng(0))
    t = radius_certificate(R, C)
    cfg = SeriesConfig(N=4, K=3, t_grid=(t,), norm=idx, C_bound=C)
    sol = solve_series(a0, cfg)
    dn = sol.depth_norms[0]
    total = 0.0
    for k in range(4):
        env = (C * t) ** (k / 2.0) * R ** (2 * k + 1)
        assert dn[k] <= env + 1e-12
        total += env
    assert total <= 2.0 * R + 1e-12  # geometric tail bound at the margin


def test_warning_beyond_certificate():
    a0 = cosine_data(N=4, eps=2.0)
    cfg = SeriesConfig(N=4, K=1, t_grid=(0.9,), norm=NormIndex(0.5, 2.0))
    sol = solve_series(a0, cfg)
    assert sol.beyond_certificate[0]
    assert sol.warnings


def test_residual_zero_data():
    grid = tuple(np.linspace(0.0, 0.05, 17))
    cfg = SeriesConfig(N=4, K=2, t_grid=grid)
    sol = solve_series(CoeffSeq.zeros(4), cfg)
    assert ode_residual(sol, CoeffSeq.zeros(4), cfg) == 0.0


def test_residual_decays_with_depth():
    # a 65-point grid keeps the quadrature floor below the depth-3 tail
    N, t = 6, 0.05
    a0 = cosine_data(N)
    grid = tuple(np.linspace(0.0, t, 65))
    res = []
    for K in (1, 2, 3):
        cfg = SeriesConfig(N=N, K=K, t_grid=grid, project_internal=True)
        sol = solve_series(a0, cfg)
        res.append(ode_residual(sol, a0, cfg))
    assert res[0] > res[1] > res[2]
    assert res[1] < 0.1 * res[0]


def test_residual_requires_fine_uniform_grid():
    a0 = cosine_data(N=4)
    cfg = SeriesConfig(N=4, K=1, t_grid=tuple(np.linspace(0.0, 0.05, 5)))
    sol = solve_series(a0, cfg)
    with pytest.raises(ValueError):
        ode_residual(sol, a0, cfg)


def test_gauged_solve_identities():
    a0 = cosine_data(N=4, eps=0.2)
    cfg = SeriesConfig(N=4, K=2, t_grid=(0.0, 0.03))
    sol = solve_mkdv_gauged(a0, cfg)
    assert sol.equation == "mkdv"
    assert np.max(np.abs(sol.coeffs[0].values - a0.values)) == 0.0

    zero = CoeffSeq.zeros(4)
    zsol = solve_mkdv_gauged(zero, SeriesConfig(N=4, K=2, t_grid=(0.4,)))
    assert np.max(np.abs(zsol.final.values)) == 0.0

    with pytest.raises(ValueError):
        solve_mkdv_gauged(CoeffSeq.delta(4, 1, 1.0), cfg)


def test_gauged_series_satisfies_plain_flow_residual():
    N, t = 6, 0.04
    a0 = cosine_data(N)
    grid = tuple(np.linspace(0.0, t, 33))
    cfg = SeriesConfig(N=N, K=3, t_grid=grid, project_internal=True)
    plain = solve_mkdv_gauged(a0, cfg)
    r = ode_residual(plain, a0, cfg, equation="mkdv")
    modified = solve_series(a0, cfg)
    r_mod = ode_residual(modified, a0, cfg)
    assert r < 50 * max(r_mod, 1e-15) + 1e-12


def test_gauge_matches_oracle_flows():
    # series-free check that the translation direction is right
    N, t = 6, 0.1
    a0 = cosine_data(N, 0.5)
    steps = 500
    mod = oracle_solve(a0, OracleConfig(N, t / steps, "modified_mkdv", steps), t).final
    plain = oracle_solve(a0, OracleConfig(N, t / steps, "mkdv", steps), t).final
    c = l2_mass(a0)
    shifted = gauge_shift(mod, -c, t)
    assert np.max(np.abs(shifted.values - plain.values)) < 1e-12


def test_uniform_continuity_on_certified_ball():
    idx = NormIndex(0.5, 2.0)
    rng = np.random.default_rng(3)
    delta = 1e-3
    C = 16.0
    t_max = radius_certificate(1.0, C)
    L = lipschitz_envelope(1.0, C, t_max)
    for _ in range(5):
        base = random_real_field(4, idx, 1.0 - 2 * delta, rng)
        bump = random_real_field(4, idx, delta, rng)
        close = base.with_values(base.values + bump.values)
        cfg = SeriesConfig(N=4, K=2, t_grid=(t_max / 2, t_max), norm=idx, C_bound=C)
        s1, s2 = solve_series(base, cfg), solve_series(close, cfg)
        for i in range(2):
            diff = weighted_norm(
                CoeffSeq(4, s1.coeffs[i].values - s2.coeffs[i].values), idx
            )
            assert diff <= L * delta


def test_solution_json_round_trip():
    a0 = cosine_data(N=3, eps=0.1)
    cfg = SeriesConfig(N=3, K=1, t_grid=(0.02,), norm=NormIndex(0.5, 2.0))
    sol = solve_series(a0, cfg)
    d = json.loads(json.dumps(sol.to_json_dict()))
    assert d["config"]["N"] == 3
    assert len(d["coeffs"]) == 1
    back = CoeffSeq.from_json_dict(d["coeffs"][0])
    assert np.max(np.abs(back.values - sol.final.values)) == 0.0


def test_increments_consistent_with_totals():
    a0 = cosine_data(N=5, eps=0.3)
    cfg = SeriesConfig(N=5, K=3, t_grid=(0.03,))
    sol = solve_series(a0, cfg)
    inc = sol.increment_at(0).values
    assert np.max(np.abs((a0.values + inc) - sol.final.values)) < 1e-15


def test_config_validation():
    with pytest.raises(ValueError):
        SeriesConfig(N=4, K=-1, t_grid=(0.1,))
    with pytest.raises(ValueError):
        SeriesConfig(N=4, K=1, t_grid=(0.5, 0.2))
    with pytest.raises(ValueError):
        SeriesConfig(N=4, K=1, t_grid=(1.5,))
    with pytest.raises(ValueError):
        solve_series(CoeffSeq.zeros(3), SeriesConfig(N=4, K=1, t_grid=(0.1,)))
