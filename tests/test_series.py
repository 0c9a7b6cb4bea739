"""Series assembly: depth structure, certificates, residuals, gauge."""

import itertools
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
    oracle_solve_increment,
    picard_iterate,
    radius_certificate,
    solve_mkdv_gauged,
    solve_series,
    enumerate_trees,
    weighted_norm,
)
from mkdv_series import ops
from mkdv_series.ops import apply_tree_operator_reference, depth_term_tables, evaluate_term_table
from mkdv_series.spectral import gauge_shift, is_hermitian, random_real_field

from exact_fold import exact_depth_sums, exact_values, table_keys


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


def _complex_data(N, rng):
    # complex data with zeros at modes -N, -1 and 2: not Hermitian
    v = rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1)
    v[[0, N - 1, N + 2]] = 0.0
    return CoeffSeq(N, v)


def test_each_depth_is_the_reference_summed_over_trees(monkeypatch):
    # depth k sums every tree with k internal nodes; the scalar reference
    # sums each tree assignment by assignment, one symbolic integral each.
    # Support {-2, 1, 3} has no +-j pair, so every triple is star; {-1, 1, 2}
    # forms sigma = 0 triples, resonant (j, -j, j) and excluded ones alike.
    # Real-field data on {-1, 0, 1} takes the mirrored route of the fold;
    # the complex data take the full one.  With _BLOCK = 64, _sum merges
    # its parts into the running table within a product; with _BLOCK = 5 a
    # left row's partner run is longer than a block.  At each size some
    # blocks cut across the table pairs of a sum.
    N, K, ts = 3, 3, (0.05, 0.3)
    rng = np.random.default_rng(21)
    inputs = []
    for support in ((-2, 1, 3), (-1, 1, 2)):
        v = np.zeros(2 * N + 1, dtype=np.complex128)
        for n in support:
            v[n + N] = rng.normal() + 1j * rng.normal()
        inputs.append(CoeffSeq(N, v))
    inputs.append(random_real_field(1, NormIndex(0.5, 2.0), 1.0, rng))
    blocks = (ops._BLOCK, 64, 5)
    for a0, project in itertools.product(inputs, (False, True)):
        refs = {
            (k, i): sum(
                apply_tree_operator_reference(tree, [a0] * (2 * k + 1), t, project).values
                for tree in enumerate_trees(k)
            )
            for k, (i, t) in itertools.product(range(1, K + 1), enumerate(ts))
        }
        cfg = SeriesConfig(N=a0.cutoff, K=K, t_grid=ts, project_internal=project)
        for block in blocks:
            monkeypatch.setattr(ops, "_BLOCK", block)
            sol = solve_series(a0, cfg)
            for (k, i), ref in refs.items():
                scale = np.max(np.abs(ref))
                assert scale > 0.0
                assert np.max(np.abs(sol.depth_values[k, i] - ref)) <= 1e-13 * scale


_RNG = np.random.default_rng(8)
_REAL = random_real_field(3, NormIndex(0.5, 2.0), 1.0, _RNG)
_DYADIC = CoeffSeq(3, (_RNG.integers(-8, 9, 7) + 1j * _RNG.integers(-8, 9, 7)) / 8)


@pytest.mark.parametrize(
    "a0, K, project",
    [(_REAL, 4, True), (_REAL, 3, False), (_DYADIC, 4, True), (_DYADIC, 3, False)],
    ids=["real-K4-projected", "real-K3", "dyadic-K4-projected", "dyadic-K3"],
)
def test_depths_match_the_exact_fold(monkeypatch, a0, K, project):
    # the float fold against the same recursion in Gaussian rationals
    # (exact_fold), in rows and in values: every exact row is a float row,
    # and the float fold may keep only round-off rows besides, which the
    # exact fold cancels to zero.  Dense real data take the mirrored route
    # and, with the gate forced shut, the full one; dyadic complex data
    # take the full one.  With _BLOCK = 64, _sum merges its parts into the
    # running table within a product; with _BLOCK = 5 a left row's partner
    # run is longer than a block.  At each size some blocks cut across the
    # table pairs of a sum.
    N, t = a0.cutoff, 0.3
    exact = exact_depth_sums(a0.values.tolist(), N, K, project)
    keys = [table_keys(rows, N) for rows in exact]
    values = [np.array([complex(v) for v in exact_values(rows, N, t)]) for rows in exact]
    routes = [False]
    if is_hermitian(a0.values):
        routes.append(True)
    for forced_full, block in itertools.product(routes, (ops._BLOCK, 64, 5)):
        monkeypatch.setattr(ops, "_BLOCK", block)
        if forced_full:
            monkeypatch.setattr(ops, "is_hermitian", lambda values: False)
        tables = depth_term_tables(a0, K, project)
        for k in range(1, K + 1):
            g = tables[k]
            rows = list(zip(g.root_idx.tolist(), g.powers.tolist(), g.freqs.tolist()))
            assert keys[k] <= set(rows)
            extra = np.array([row not in keys[k] for row in rows], dtype=bool)
            assert np.all(np.abs(g.weights[extra]) <= 1e-15 * np.max(np.abs(g.weights)))
            scale = np.max(np.abs(values[k]))
            assert scale > 0.0
            gap = np.max(np.abs(evaluate_term_table(g, [t])[0] - values[k]))
            assert gap <= 1e-14 * scale


def test_graded_depth_table_does_not_depend_on_K(monkeypatch):
    # without projection, K = 4 lets depth 3 keep |n| <= 3N for the depth
    # above it, while K = 3 keeps |n| <= N at depth 3; the rows left at
    # the cutoff must be the same either way, also when _BLOCK = 64 makes
    # _sum merge its parts into the running table within a product, and
    # on the mirrored route of real-field data
    N, K = 3, 4
    rng = np.random.default_rng(8)
    inputs = (_complex_data(N, rng), random_real_field(N, NormIndex(0.5, 2.0), 1.0, rng))
    for a0, block, project in itertools.product(inputs, (ops._BLOCK, 64), (False, True)):
        monkeypatch.setattr(ops, "_BLOCK", block)
        deep = depth_term_tables(a0, K, project)
        for k in range(K):
            got, own = deep[k], depth_term_tables(a0, k, project)[k]
            assert own.weights.size > 0
            for name in ("root_idx", "powers", "freqs"):
                assert np.array_equal(getattr(got, name), getattr(own, name))
            scale = np.max(np.abs(own.weights))
            assert np.max(np.abs(got.weights - own.weights)) <= 1e-14 * scale


def test_graded_projection_on_with_delta_at_cutoff_is_empty():
    # every triple of the one mode N leaves the cutoff, so each depth's
    # table is empty and the solve adds nothing to the data
    N, K = 3, 4
    a0 = CoeffSeq.delta(N, N, 0.7)
    sol = solve_series(a0, SeriesConfig(N=N, K=K, t_grid=(0.1, 0.5), project_internal=True))
    assert sol.depth_rows == (1, 0, 0, 0, 0)
    assert np.max(np.abs(sol.depth_values[1:])) == 0.0
    for c in sol.coeffs:
        assert np.array_equal(c.values, a0.values)


def test_graded_depth_zero_is_the_data_alone():
    a0 = cosine_data(N=4)
    (table,) = depth_term_tables(a0, 0)
    assert np.array_equal(table.root_idx, np.nonzero(a0.values)[0])
    assert np.array_equal(table.weights, a0.values[table.root_idx])
    sol = solve_series(a0, SeriesConfig(N=4, K=0, t_grid=(0.2,)))
    assert sol.depth_rows == (2,)
    assert np.array_equal(sol.final.values, a0.values)


def _mirror_symmetric(table):
    # bit for bit: every row (n, m, w, c) has the row (-n, m, -w, conj c)
    modes = (table.root_idx - table.cutoff).tolist()
    rows = dict(zip(zip(modes, table.powers.tolist(), table.freqs.tolist()), table.weights.tolist()))
    return all(rows.get((-n, m, -w)) == c.conjugate() for (n, m, w), c in rows.items())


def test_mirrored_route_needs_exactly_hermitian_data():
    # data Hermitian to 1e-13 pass is_real_field's tolerance, but a mirror
    # would drop their non-Hermitian part, so they take the full route
    a0 = random_real_field(3, NormIndex(0.5, 2.0), 1.0, np.random.default_rng(5))
    assert all(_mirror_symmetric(t) for t in depth_term_tables(a0, 3))
    near = a0.with_values(a0.values + 1e-13j * (a0.modes == 1))
    assert near.is_real_field()
    assert not _mirror_symmetric(depth_term_tables(near, 1)[1])


@pytest.mark.parametrize(
    "a0, rows",
    [
        (CoeffSeq.zeros(3), (0, 0, 0, 0)),
        (CoeffSeq.delta(3, 0, 0.7), (1, 0, 0, 0)),
        (CoeffSeq.cosine(3, 0.4), None),
    ],
    ids=["zero", "mode-0", "cosine"],
)
def test_edge_data_take_both_routes_alike(monkeypatch, a0, rows):
    # each input is exactly Hermitian; with the gate forced shut the same
    # data run through the full products and must give the same tables
    K, ts = 3, (0.05, 0.3)
    mirrored = [depth_term_tables(a0, K, project) for project in (False, True)]
    monkeypatch.setattr(ops, "is_hermitian", lambda values: False)
    full = [depth_term_tables(a0, K, project) for project in (False, True)]
    for m, f in zip(itertools.chain(*mirrored), itertools.chain(*full)):
        assert _mirror_symmetric(m)
        assert set(zip(m.root_idx, m.powers, m.freqs)) == set(zip(f.root_idx, f.powers, f.freqs))
        scale = np.max(np.abs(f.weights), initial=0.0)
        gap = np.max(np.abs(evaluate_term_table(m, ts) - evaluate_term_table(f, ts)))
        assert gap <= 1e-14 * scale
    if rows is not None:
        assert all(tuple(t.weights.size for t in tables) == rows for tables in mirrored + full)


def _no_product(*args):
    raise AssertionError("a product was formed before the fold's input checks")


def test_graded_mode_range_guard_before_any_node_step(monkeypatch):
    # a delta at mode N = 6553: its rows reach |n| = 10 N by depth 5, and
    # their (mode, power, frequency) keys would overflow int64
    monkeypatch.setattr(ops, "_product", _no_product)
    a0 = CoeffSeq.delta(6553, 6553, 1.0)
    with pytest.raises(ValueError, match="mode range"):
        solve_series(a0, SeriesConfig(N=6553, K=5, t_grid=(0.01,)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.nan])
def test_non_finite_data_refused_before_any_product(monkeypatch, bad):
    # a NaN coefficient would give a NaN record whose certificate reads 1.0
    monkeypatch.setattr(ops, "_product", _no_product)
    values = np.array([0.0, 0.5, 0.2, 0.5, 0.0], dtype=complex)
    values[2] += bad
    with pytest.raises(ValueError, match="finite"):
        solve_series(CoeffSeq(2, values), SeriesConfig(N=2, K=1, t_grid=(0.5,)))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_gauged_solve_refuses_non_finite_data_without_a_warning(monkeypatch, bad):
    # the real-field test would form inf - inf (a RuntimeWarning, an error
    # under the suite's filterwarnings) and refuse the data as not real
    monkeypatch.setattr(ops, "_product", _no_product)
    values = np.array([0.0, 0.5, bad, 0.5, 0.0], dtype=complex)
    with pytest.raises(ValueError, match="data must be finite"):
        solve_mkdv_gauged(CoeffSeq(2, values), SeriesConfig(N=2, K=1, t_grid=(0.5,)))


def test_depth_rows_reported_and_carried_by_the_gauge():
    a0 = cosine_data(N=4, eps=0.2)
    cfg = SeriesConfig(N=4, K=2, t_grid=(0.03,))
    sol = solve_series(a0, cfg)
    assert len(sol.depth_rows) == 3 and all(r > 0 for r in sol.depth_rows)
    d = json.loads(json.dumps(sol.to_json_dict()))
    assert d["depth_rows"] == list(sol.depth_rows)
    assert solve_mkdv_gauged(a0, cfg).depth_rows == sol.depth_rows


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
    for norm0 in (-1.0, math.nan):
        with pytest.raises(ValueError):
            radius_certificate(norm0, 16.0)
    # the chosen margin: sqrt(C t) norm^2 = 1/2 at the certified time
    for R in (0.5, 1.0, 2.0):
        t = radius_certificate(R, 16.0)
        if t < 1.0:
            assert math.sqrt(16.0 * t) * R * R == pytest.approx(0.5)


def test_radius_certificate_past_float_range():
    # norm0^4 overflows a float from norm0 ~ 1.2e77 on; the radius is its
    # underflowed value, and the record's views that read it still work
    assert radius_certificate(1e80, 16.0) == 0.0
    assert radius_certificate(1e76, 16.0) == 1.0 / (4.0 * 16.0 * 1e76**4)
    sol = solve_series(CoeffSeq.cosine(2, 1e120), SeriesConfig(N=2, K=0, t_grid=(0.1,)))
    assert sol.t_max == 0.0 and sol.beyond_certificate[0] and sol.warnings
    assert sol.to_json_dict()["certificate"]["t_max"] == 0.0


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

    # the plain flow is the mean-subtracted one translated by the mass
    modified = solve_series(a0, cfg)
    c = l2_mass(a0)
    for got, mod, t in zip(sol.coeffs, modified.coeffs, cfg.t_grid):
        shifted = gauge_shift(mod, -c, t).values
        assert np.max(np.abs(got.values - shifted)) <= 2e-16 * np.max(np.abs(shifted))

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
    r = ode_residual(plain, a0, cfg)
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


def test_gauged_increment_matches_plain_oracle():
    # the plain flow's increment from the gauged series against RK4 on the
    # plain flow itself; measured gap 8.5e-15 relative (the depth-5
    # truncation), 4e-11 with depth 4 dropped
    N, K, t, steps = 3, 4, 1e-3, 100
    a0 = random_real_field(N, NormIndex(0.5, 2.0), 1.0, np.random.default_rng(0))
    sol = solve_mkdv_gauged(a0, SeriesConfig(N=N, K=K, t_grid=(t,), project_internal=True))
    inc = sol.increment_at(0).values
    ref = oracle_solve_increment(a0, OracleConfig(N, t / steps, "mkdv", steps), t).values[-1]
    assert np.max(np.abs(inc - ref)) <= 5e-14 * np.max(np.abs(ref))
    assert np.max(np.abs((a0.values + inc) - sol.final.values)) < 1e-15


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
    with pytest.raises(ValueError, match="at least one time"):
        SeriesConfig(N=4, K=1, t_grid=())
    for C in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="C_bound must be finite and positive"):
            SeriesConfig(N=4, K=1, t_grid=(0.1,), C_bound=C)
    for N, K in ((4, 1.5), (4, 2.0), (1.0, 1), (4, True)):
        with pytest.raises(ValueError, match="must be integers"):
            SeriesConfig(N=N, K=K, t_grid=(0.1,))
    assert SeriesConfig(N=np.int64(4), K=np.int64(2), t_grid=(0.1,)).K == 2
    with pytest.raises(ValueError):
        solve_series(CoeffSeq.zeros(3), SeriesConfig(N=4, K=1, t_grid=(0.1,)))
