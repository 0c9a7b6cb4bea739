"""Classical integrator: right-hand side, conservation, convergence order,
and the quadrature-based successive-substitution oracle."""

import itertools
import math

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
from mkdv_series.experiments import _oracle_config
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


@pytest.mark.parametrize("N", [0, 1, 2, 4, 7])
def test_rhs_matches_triple_loop_across_cutoffs(N):
    rng = np.random.default_rng(100 + N)
    times = np.array([0.0, 0.37, 1.3])
    stack = rng.normal(size=(3, 2 * N + 1)) + 1j * rng.normal(size=(3, 2 * N + 1))
    for eq in ("modified_mkdv", "mkdv"):
        slow = np.stack([brute_rhs(v, t, N, eq) for v, t in zip(stack, times)])
        rows = np.stack([oracle_rhs(CoeffSeq(N, v), eq, t).values for v, t in zip(stack, times)])
        grid = oracle_rhs_grid(stack, times, eq)
        for fast in (rows, grid):
            assert np.max(np.abs(fast - slow)) <= 1e-13 * np.max(np.abs(slow))


def test_rk4_matches_textbook_steps_on_triple_loop():
    # classical RK4 written out on the triple-loop right-hand side pins the
    # stage times, phases and weights of the increment loop, over two full
    # phase blocks and a partial third
    N, dt, steps = 3, 0.01, 2 * oracle._PHASE_BLOCK + 5
    rng = np.random.default_rng(7)
    vals = 0.5 * (rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1))
    for eq in ("modified_mkdv", "mkdv"):
        f = lambda t, a: brute_rhs(a, t, N, eq)
        a, ref = vals.copy(), [np.zeros_like(vals)]
        for m in range(steps):
            t = m * dt
            k1 = f(t, a)
            k2 = f(t + dt / 2, a + dt / 2 * k1)
            k3 = f(t + dt / 2, a + dt / 2 * k2)
            k4 = f(t + dt, a + dt * k3)
            a = a + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            ref.append(a - vals)
        ref = np.array(ref)
        got = oracle_solve_increment(CoeffSeq(N, vals), OracleConfig(N, dt, eq, steps), steps * dt).values
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("N", [3, oracle._FFT_MIN_N])
def test_rk4_rows_do_not_depend_on_the_phase_blocks(N):
    # a longer run repeats a shorter one bit for bit, across a block
    # boundary, on the direct or half route and the full one; zero steps
    # give the data alone
    B, dt = oracle._PHASE_BLOCK, 0.5 / (1 + N**3)
    rng = np.random.default_rng(N)
    real = random_real_field(N, NormIndex(0.5, 2.0), 1.0, rng)
    cplx = CoeffSeq(N, 0.5 * (rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1)) / np.sqrt(N))
    for a0, eq in itertools.product((real, cplx), ("modified_mkdv", "mkdv")):
        for solve in (oracle_solve, oracle_solve_increment):
            run = lambda steps: solve(a0, OracleConfig(N, dt, eq, steps), steps * dt)
            short, long = run(B + 1), run(2 * B + 3)
            assert short.values.tobytes() == long.values[: B + 2].tobytes()
            assert short.times.tobytes() == long.times[: B + 2].tobytes()
            empty = run(0)
            assert empty.times.tolist() == [0.0]
            assert empty.values.tobytes() == long.values[:1].tobytes()


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


@pytest.mark.parametrize("N", [0, 1, 5, 55])
def test_direct_cube_is_bitwise_np_convolve(N):
    # the one-row direct cube calls numpy's correlate kernel without the
    # np.convolve wrapper; pin it to the public call on both flows' factors
    assert N < oracle._FFT_MIN_N
    rng = np.random.default_rng(N)
    b = rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1)
    for c in (b, np.arange(-N, N + 1) * b):
        got = oracle._cubic_conv(b, None if c is b else c)
        assert got.tobytes() == np.convolve(np.convolve(b, b), c, "valid").tobytes()


@pytest.mark.parametrize("N", [oracle._FFT_MIN_N, 64, 101, 256])
def test_raw_transforms_are_bitwise_np_fft(N):
    # the FFT routes call pocketfft's ufuncs without np.fft's wrappers; pin
    # each to the public call, on one row and a 2-row stack, at odd
    # (225, 405) and even (270, 1080) lengths
    L = oracle._fft_length(4 * N + 1)
    rng = np.random.default_rng(N)
    cplx = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for rows in ((), (2,)):
        b, full, spectrum = cplx(*rows, N + 1), cplx(*rows, 2 * N + 1), cplx(*rows, L)
        u = rng.normal(size=rows + (L,))
        pairs = (
            (oracle._irfft(b, L), np.fft.irfft(b, L, norm="forward")),
            (oracle._rfft(u), np.fft.rfft(u, norm="forward")),
            (oracle._fft(full, L), np.fft.fft(full, L)),
            (oracle._ifft(spectrum), np.fft.ifft(spectrum)),
        )
        for got, want in pairs:
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes()


def public_flow(N, equation, lo=0):
    # oracle._flow without the plain half route's own factors: n and the
    # weighted conjugate on every route
    modes = np.arange(lo - N, N + 1).astype(complex)
    exponents = -1j * modes.real**3
    weight = (-1j / 3.0) * modes if equation == "modified_mkdv" else -1j

    def phases(t):
        ph = np.exp(exponents * t)
        return ph, weight * ph.conj()

    return modes, phases


def public_rhs_half(values, ph, wphc, modes, equation):
    # oracle._rhs_half by np.fft's public calls, one inverse transform at a
    # time, on public_flow's factors
    N = values.shape[-1] - 1
    L = oracle._fft_length(4 * N + 1)
    b = ph * values
    u = np.fft.irfft(b, L, norm="forward")
    if equation == "mkdv":
        ux = np.fft.irfft(1j * modes * b, L, norm="forward")
        return (-1j * wphc) * np.fft.rfft(u * u * ux, norm="forward")[: N + 1]
    S = 2.0 * np.vdot(values, values).real - abs(values[0]) ** 2
    return wphc * np.fft.rfft(u * u * u, norm="forward")[: N + 1] + (1j * S) * (modes * values)


@pytest.mark.parametrize("N", [oracle._FFT_MIN_N, 256])
def test_half_route_is_bitwise_the_public_fft_form(N, monkeypatch):
    # guards the batched plain-flow inverse and the factors folded into the
    # phase table, over two full phase blocks and a partial third
    a = random_real_field(N, NormIndex(0.5, 2.0), 1.0, np.random.default_rng(N))
    assert oracle.rhs_route(a)["rhs_route"] == "fft-real"
    steps, dt = 2 * oracle._PHASE_BLOCK + 3, 0.5 / (1 + N**3)

    def rhs_and_increment():
        for eq in ("modified_mkdv", "mkdv"):
            for t in (0.0, 0.37):
                yield oracle_rhs(a, eq, t).values
            yield oracle_solve_increment(a, OracleConfig(N, dt, eq, steps), steps * dt).values

    lean = list(rhs_and_increment())
    monkeypatch.setattr(oracle, "_flow", public_flow)
    monkeypatch.setattr(oracle, "_rhs_half", public_rhs_half)
    for got, want in zip(lean, rhs_and_increment(), strict=True):
        assert got.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("N", [oracle._FFT_MIN_N, 101, 256])
def test_half_route_matches_full_route(N, monkeypatch):
    # the same exactly Hermitian data, once on the modes 0..N by real
    # transforms and once forced onto the full complex FFT route
    a = random_real_field(N, NormIndex(0.5, 2.0), 1.0, np.random.default_rng(N))
    assert oracle.rhs_route(a)["rhs_route"] == "fft-real"
    steps, dt = 20, 0.5 / (1 + N**3)

    def rhs_and_increment():
        for eq in ("modified_mkdv", "mkdv"):
            yield oracle_rhs(a, eq, 0.37).values
            yield oracle_solve_increment(a, OracleConfig(N, dt, eq, steps), steps * dt).values

    half = list(rhs_and_increment())
    monkeypatch.setattr(oracle, "is_hermitian", lambda values: False)
    for h, full in zip(half, rhs_and_increment(), strict=True):
        assert np.max(np.abs(h - full)) <= 1e-13 * np.max(np.abs(full))


def test_half_route_trajectories_hermitian_bit_for_bit():
    N, dt, steps = 64, 1e-6, 10
    a0 = random_real_field(N, NormIndex(0.5, 2.0), 1.0, np.random.default_rng(4))
    for eq in ("modified_mkdv", "mkdv"):
        cfg = OracleConfig(N, dt, eq, steps)
        for traj in (oracle_solve(a0, cfg, steps * dt), oracle_solve_increment(a0, cfg, steps * dt)):
            assert np.array_equal(traj.values[:, :N], np.conj(traj.values[:, :N:-1]))


@pytest.mark.parametrize("N", [oracle._FFT_MIN_N, 101])
def test_one_ulp_off_hermitian_takes_full_route(N, monkeypatch):
    a = random_real_field(N, NormIndex(0.5, 2.0), 1.0, np.random.default_rng(N))
    vals = a.values.copy()
    vals[N + 3] = np.nextafter(vals[N + 3].real, np.inf) + 1j * vals[N + 3].imag
    a = a.with_values(vals)
    assert oracle.rhs_route(a)["rhs_route"] == "fft"

    def half_route(*args):
        raise AssertionError("data off Hermitian took the half route")

    monkeypatch.setattr(oracle, "_rhs_half", half_route)
    for eq in ("modified_mkdv", "mkdv"):
        fft = oracle_rhs(a, eq, 0.37).values
        oracle_solve_increment(a, OracleConfig(N, 1e-7, eq, 2), 2e-7)
        with monkeypatch.context() as m:
            m.setattr(oracle, "_FFT_MIN_N", 10**9)
            direct = oracle_rhs(a, eq, 0.37).values
        assert np.max(np.abs(fft - direct)) <= 1e-13 * np.max(np.abs(direct))


@pytest.mark.parametrize(
    "shape, times",
    [
        ((3, 5), np.array(0.1)),                  # 0-d times
        ((3, 5), np.zeros((3, 1))),               # a column of times
        ((3, 5), np.zeros(2)),                    # one time short
        ((3, 4), np.zeros(3)),                    # even row length
        ((5,), np.zeros(5)),                      # one row, not a stack
    ],
)
def test_rhs_grid_rejects_a_bad_stack(shape, times):
    with pytest.raises(ValueError, match=r"\[len\(times\), 2N\+1\] stack"):
        oracle_rhs_grid(np.zeros(shape, dtype=complex), times)


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


def test_oracle_config_validation():
    for N, steps in ((3.0, 10), (3, 2.5), (True, 10), (3, True), (3, False), ("3", 10)):
        with pytest.raises(ValueError, match="must be integers"):
            OracleConfig(N, 1e-3, "modified_mkdv", steps)
    for dt in (math.nan, math.inf, -math.inf, 0.0, -1e-3):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            OracleConfig(3, dt)
    with pytest.raises(ValueError, match="nonnegative"):
        OracleConfig(-1, 1e-3)
    with pytest.raises(ValueError, match="nonnegative"):
        OracleConfig(3, 1e-3, steps=-1)
    assert OracleConfig(np.int64(3), np.float64(1e-3), steps=np.int64(2)).steps == 2
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        _oracle_config(3, math.nan, "mkdv", 0.05)
    cfg = _oracle_config(3, 1e-3, "mkdv", 0.05)
    assert (cfg.N, cfg.dt, cfg.equation, cfg.steps) == (3, 1e-3, "mkdv", 50)


def test_increment_solver_consistent():
    N, t = 6, 0.02
    a0 = CoeffSeq.cosine(N, 0.3)
    cfg = OracleConfig(N, 1e-4, "modified_mkdv", 200)
    full = oracle_solve(a0, cfg, t).final.values
    inc = oracle_solve_increment(a0, cfg, t).values[-1]
    assert np.max(np.abs((a0.values + inc) - full)) < 1e-15


def test_solvers_above_fft_crossover(monkeypatch):
    # the half route on exactly Hermitian data and the complex FFT route on
    # complex data, each held against the direct route over 100 steps
    N, dt, steps = 64, 1e-6, 100
    rng = np.random.default_rng(3)
    real = random_real_field(N, NormIndex(0.5, 2.0), 1.0, rng)
    cplx = CoeffSeq(N, 0.5 * (rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1)) / np.sqrt(N))
    for a0, route in ((real, "fft-real"), (cplx, "fft")):
        assert oracle.rhs_route(a0)["rhs_route"] == route
        for eq in ("modified_mkdv", "mkdv"):
            cfg = OracleConfig(N, dt, eq, steps)
            traj = oracle_solve(a0, cfg, steps * dt)
            inc = oracle_solve_increment(a0, cfg, steps * dt).values
            with monkeypatch.context() as m:
                m.setattr(oracle, "_FFT_MIN_N", 10**9)
                direct = oracle_solve_increment(a0, cfg, steps * dt).values
            assert np.max(np.abs(inc - direct)) <= 1e-12 * np.max(np.abs(direct))
            assert np.max(np.abs((a0.values + inc) - traj.values)) <= 1e-15
            if a0 is real:
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
