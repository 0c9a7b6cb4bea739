"""Independent ground truth: classical time integration of the truncated
Fourier ODE system.

In the rotating frame a(n,t) = e^{in^3 t} u_hat(n,t) the mean-subtracted
flow reads

    da(n)/dt = -(in/3) sum*_{n1+n2+n3=n} e^{i sigma t} a(n1) a(n2) a(n3)
               + i n a(n) a(-n) a(n),

with the star excluding triples where some n_j equals n, while the plain
equation drops the mean subtraction and keeps the full derivative-weighted
convolution.  All convolution sums are restricted to modes in [-N, N]
(inputs and outputs), which is exactly the system the power series with
projected internal modes expands; series-versus-oracle comparisons
therefore have no modeling gap.

The oscillatory phase e^{i sigma t} factors into per-mode cubic phases,
b(n) = e^{-in^3 t} a(n), so each right-hand side is one cubic convolution
of b (with n b as third factor in the plain flow) instead of a triple loop;
the triple loop survives in the tests as the oracle's own oracle.  Below
the cutoff ``_FFT_MIN_N`` = 56 the cubic convolution is two dense
``np.convolve`` calls, O(N^2); at and above it, one zero-padded FFT of b
(and one of n b) is cubed or multiplied and inverted, O(N log N).  The
crossover is where the two routes cost the same per right-hand side on a
2-core Xeon with numpy 2.4: at N = 56 the FFT is ~10% faster for the
modified flow and ~5% slower for the plain one, at N = 256 ~4.5x faster
for both.  The padded length L is the smallest 5-smooth integer
>= 4N + 1.  The linear convolution of three length-(2N+1) sequences has
indices 0..6N and the kept modes |n| <= N sit at indices 2N..4N; a
circular convolution of length L folds index j >= L onto j - L <= 6N - L,
which stays below 2N, and so off the kept modes, exactly when L >= 4N + 1.
A stack of T rows (``oracle_rhs_grid``: the residual and the Picard sweeps)
always takes the FFT route, as one batched transform: at 9 and 65 rows,
N from 1 to 55 and either flow it was never slower than a direct
convolution per row, and up to ~6x faster at 65 rows (same machine).  The
crossover above is for the one-row right-hand side of RK4.

Time stepping is classical RK4 on the rotating-frame increment
y(t) = a(t) - a(0), with the phases evaluated from absolute time (no
per-step phase accumulation) once per distinct stage time, and the
increment update is compensated to keep round-off from random-walking
across long runs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .spectral import CoeffSeq

__all__ = [
    "OracleConfig",
    "Trajectory",
    "oracle_rhs",
    "oracle_rhs_grid",
    "rhs_route",
    "oracle_solve",
    "oracle_solve_increment",
    "invariant_drift",
    "picard_iterate",
    "cumulative_simpson",
    "uniform_spacing",
]

_EQUATIONS = ("modified_mkdv", "mkdv")
# cutoff at and above which the cubic convolution goes through the FFT
_FFT_MIN_N = 56


@dataclass(frozen=True)
class OracleConfig:
    """Time-integration parameters for the truncated system."""

    N: int
    dt: float
    equation: str = "modified_mkdv"
    steps: int = 0

    def __post_init__(self):
        if self.equation not in _EQUATIONS:
            raise ValueError(f"equation must be one of {_EQUATIONS}")
        if self.N < 0 or self.dt <= 0 or self.steps < 0:
            raise ValueError("bad oracle configuration")

    @property
    def dt_limit(self) -> float:
        """Step-size guard 0.5 / (1 + N^3) for the nonlinear phases."""
        return 0.5 / (1.0 + self.N**3)

    def check_run(self, t: float) -> None:
        """Raise ValueError unless dt is within the stability guard and
        t = steps * dt."""
        if self.dt > self.dt_limit:
            raise ValueError(f"dt {self.dt} exceeds the stability guard {self.dt_limit:.3e}")
        if not np.isclose(self.steps * self.dt, t, rtol=1e-12, atol=1e-15):
            raise ValueError(f"t {t} must equal steps * dt = {self.steps} * {self.dt}")


@dataclass(frozen=True)
class Trajectory:
    """Rotating-frame coefficients at successive times; values[i] is the
    state at times[i], modes ordered -N..N."""

    cutoff: int
    times: np.ndarray
    values: np.ndarray

    def at(self, i: int) -> CoeffSeq:
        return CoeffSeq(self.cutoff, self.values[i].copy())

    @property
    def final(self) -> CoeffSeq:
        return self.at(len(self.times) - 1)


@functools.lru_cache(maxsize=64)
def _fft_length(n: int) -> int:
    """Smallest 5-smooth integer >= n."""
    L = n
    while True:
        m = L
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return L
        L += 1


def _cubic_conv(b: np.ndarray, c: np.ndarray | None = None) -> np.ndarray:
    """sum_{n1+n2+n3=n} b(n1) b(n2) c(n3) for the kept modes |n| <= N,
    along the last axis; c defaults to b (the plain cube).  One row below
    the crossover convolves directly; a stack of rows always goes through
    the FFT."""
    N = (b.shape[-1] - 1) // 2
    if b.ndim == 1 and N < _FFT_MIN_N:
        return np.convolve(np.convolve(b, b), b if c is None else c)[2 * N : 4 * N + 1]
    L = _fft_length(4 * N + 1)
    fb = np.fft.fft(b, L)
    fc = fb if c is None else np.fft.fft(c, L)
    return np.fft.ifft(fb * fb * fc)[..., 2 * N : 4 * N + 1]


def _rhs(values: np.ndarray, ph: np.ndarray, modes: np.ndarray, equation: str) -> np.ndarray:
    """Right-hand side along the last axis, given the phases e^{-in^3 t}."""
    phc = np.conj(ph)
    b = ph * values                        # frame-unrotated coefficients
    if equation == "mkdv":
        return -1j * phc * _cubic_conv(b, modes * b)
    # mean-subtracted flow: the star sum drops the triples with some n_j = n
    # by inclusion-exclusion, 3 b(n) sum_k b(k) b(-k) less the 3 b(n)^2 b(-n)
    # counted twice; the triple overlap b(0)^3 at n = 0 is left in because
    # the weight -in/3 vanishes there.  Plus the resonant diagonal.
    rev = b[..., ::-1]
    pair = b * rev                         # b(k) b(-k)
    star = _cubic_conv(b) - 3.0 * b * (pair.sum(axis=-1, keepdims=True) - pair)
    resonant = 1j * modes * values * values[..., ::-1] * values
    return (-1j / 3.0) * modes * phc * star + resonant


def _modes(N: int) -> tuple[np.ndarray, np.ndarray]:
    modes = np.arange(-N, N + 1)
    return modes, modes.astype(float) ** 3


def _check_equation(equation: str) -> None:
    if equation not in _EQUATIONS:
        raise ValueError(f"equation must be one of {_EQUATIONS}")


def oracle_rhs(a: CoeffSeq, equation: str = "modified_mkdv", t: float = 0.0) -> CoeffSeq:
    """Right-hand side of the rotating-frame system at absolute time t."""
    _check_equation(equation)
    modes, cubes = _modes(a.cutoff)
    return a.with_values(_rhs(a.values, np.exp(-1j * cubes * t), modes, equation))


def oracle_rhs_grid(values: np.ndarray, times: np.ndarray, equation: str = "modified_mkdv") -> np.ndarray:
    """Right-hand side of every row of a [T, 2N+1] stack: row i holds the
    rotating-frame coefficients (modes -N..N) at absolute time times[i]."""
    _check_equation(equation)
    values = np.asarray(values, dtype=np.complex128)
    times = np.asarray(times, dtype=float)
    if values.ndim != 2 or values.shape[0] != times.shape[0] or values.shape[1] % 2 == 0:
        raise ValueError("values must be a [len(times), 2N+1] stack")
    modes, cubes = _modes(values.shape[1] // 2)
    return _rhs(values, np.exp(-1j * np.outer(times, cubes)), modes, equation)


def rhs_route(N: int) -> dict:
    """Manifest record: the cutoff N, which cubic convolution the
    right-hand side uses there, and the crossover cutoff at which it
    switches from direct to FFT."""
    return {"cutoff": N, "rhs_route": "fft" if N >= _FFT_MIN_N else "direct", "fft_min_n": _FFT_MIN_N}


def _rk4_increment(a0: CoeffSeq, cfg: OracleConfig, t: float) -> Trajectory:
    """Compensated RK4 for the increment y(t) = a(t) - a(0)."""
    if a0.cutoff != cfg.N:
        raise ValueError("initial data cutoff must match the configuration")
    cfg.check_run(t)
    N, dt, eq = cfg.N, cfg.dt, cfg.equation
    modes, cubes = _modes(N)
    base = a0.values
    out = np.empty((cfg.steps + 1, 2 * N + 1), dtype=np.complex128)
    times = np.arange(cfg.steps + 1) * dt
    y = np.zeros_like(base)
    comp = np.zeros_like(base)             # Kahan carry for the increment sum
    out[0] = y
    # phases at the three stage times; the end phase of step m is the start
    # phase of step m + 1
    ph_start = np.ones_like(base)
    for m in range(cfg.steps):
        ph_mid = np.exp(-1j * cubes * (times[m] + 0.5 * dt))
        ph_end = np.exp(-1j * cubes * times[m + 1])
        k1 = _rhs(base + y, ph_start, modes, eq)
        k2 = _rhs(base + (y + 0.5 * dt * k1), ph_mid, modes, eq)
        k3 = _rhs(base + (y + 0.5 * dt * k2), ph_mid, modes, eq)
        k4 = _rhs(base + (y + dt * k3), ph_end, modes, eq)
        incr = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        yy = incr - comp
        s = y + yy
        comp = (s - y) - yy
        y = s
        out[m + 1] = y
        ph_start = ph_end
    return Trajectory(N, times, out)


def oracle_solve(a0: CoeffSeq, cfg: OracleConfig, t: float) -> Trajectory:
    """Integrate the truncated system with classical RK4 over cfg.steps
    fixed steps; requires t = steps * dt and dt below the stability guard.
    Returns the states a0 + y of :func:`oracle_solve_increment`."""
    traj = _rk4_increment(a0, cfg, t)
    traj.values[:] += a0.values
    return traj


def oracle_solve_increment(a0: CoeffSeq, cfg: OracleConfig, t: float) -> Trajectory:
    """Like :func:`oracle_solve`, but returns the increment
    y(t) = a(t) - a(0) itself.

    The increment stays on its own (small) scale instead of being quantized
    at the scale of the initial data, which matters when comparing two
    solvers whose difference sits near one ulp of the solution values.
    """
    return _rk4_increment(a0, cfg, t)


def invariant_drift(traj: Trajectory) -> float:
    """Largest deviation of sum |a(n)|^2 from its initial value."""
    if len(traj.times) == 0:
        raise ValueError("empty trajectory")
    mass = np.sum(np.abs(traj.values) ** 2, axis=1)
    return float(np.max(np.abs(mass - mass[0])))


# ---------------------------------------------------------------------------
# quadrature-based Picard iteration of the integral equation
# ---------------------------------------------------------------------------


def cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative integral of samples on a uniform grid.

    Even endpoints use composite Simpson; odd endpoints add the integral of
    the quadratic through the last three points.  Matches the classical
    cumulative-Simpson construction to O(dx^4).  Integrates along axis 0.
    """
    T = y.shape[0]
    if T < 3:
        raise ValueError("need at least 3 samples")
    out = np.zeros_like(y)
    out[1] = dx * (5.0 * y[0] + 8.0 * y[1] - y[2]) / 12.0
    for j in range(2, T, 2):
        out[j] = out[j - 2] + dx * (y[j - 2] + 4.0 * y[j - 1] + y[j]) / 3.0
    for j in range(3, T, 2):
        out[j] = out[j - 1] + dx * (-y[j - 2] + 8.0 * y[j - 1] + 5.0 * y[j]) / 12.0
    return out


def uniform_spacing(times: np.ndarray) -> float:
    """Step of a uniform time grid; raises ValueError if the grid is not
    uniform."""
    diffs = np.diff(times)
    if diffs.size == 0 or np.max(np.abs(diffs - diffs[0])) > 1e-12 * max(diffs[0], 1e-30):
        raise ValueError("a uniform time grid is required")
    return float(diffs[0])


def picard_iterate(a0: CoeffSeq, times: np.ndarray, iterations: int,
                   equation: str = "modified_mkdv") -> Trajectory:
    """Successive substitution of the integral equation, starting from the
    constant-in-time trajectory.

    Each sweep evaluates the right-hand side on the whole grid and applies
    the cumulative Simpson rule, so the result is independent of the tree
    machinery; it is the anti-drift oracle for the series pipeline.
    """
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0:
        raise ValueError("the grid must start at t = 0")
    if len(times) < 9:
        raise ValueError("grid too coarse: need at least 9 points")
    dx = uniform_spacing(times)
    traj = np.tile(a0.values, (len(times), 1))
    for _ in range(iterations):
        traj = a0.values[None, :] + cumulative_simpson(oracle_rhs_grid(traj, times, equation), dx)
    return Trajectory(a0.cutoff, times, traj)
