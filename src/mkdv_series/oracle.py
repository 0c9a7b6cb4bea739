"""Independent ground truth: classical time integration of the truncated
Fourier ODE system.

In the rotating frame a(n,t) = e^{in^3 t} u_hat(n,t), with the phases
ph(n) = e^{-in^3 t} and b = ph a, the mean-subtracted flow reads

    da(n)/dt = -(in/3) conj(ph(n)) sum*_{n1+n2+n3=n} b(n1) b(n2) b(n3)
               + i n a(n) a(-n) a(n),

with the star excluding triples where some n_j equals n (the resonance
phase e^{i sigma t}, sigma = n^3 - n1^3 - n2^3 - n3^3, splits into the
per-mode phases); the plain flow drops the mean subtraction and keeps the
full derivative-weighted convolution -i conj(ph(n)) sum b(n1) b(n2) n3 b(n3).
All sums are restricted to modes in [-N, N] (inputs and outputs), exactly
the system the power series with projected internal modes expands, so
series-versus-oracle comparisons have no modeling gap.

The mean-subtracted right-hand side is computed in the gauge form
-(in/3) conj(ph(n)) sum_{n1+n2+n3=n} b(n1) b(n2) b(n3) + i n S a(n), with
S = sum_k a(k) a(-k).  It is exact: by inclusion-exclusion the star drops
3 b(n) sum_k b(k) b(-k) - 3 b(n)^2 b(-n) (and b(0)^3 at n = 0, where -in/3
vanishes); the cubes are odd, so ph(-k) = conj(ph(k)) and
b(k) b(-k) = a(k) a(-k), hence the first part gives i n S a(n) and the
second, -i n a(n)^2 a(-n), cancels the resonant diagonal.  The plain flow
keeps its own convolution, not modified - i n S a, so that the gauge check
between the flows (``gauge-check``, the benchmark's oracle-rk4 check)
compares two differently written convolutions.  The triple loop survives
in the tests as the oracle's own oracle.

Below ``_FFT_MIN_N`` = 56 a one-row cubic convolution is two dense
convolutions, O(N^2), by the correlate kernel ``np.convolve`` calls, called
without its wrapper (same bits, ~0.7 us less per convolution); at and above
it, and for any stack of rows (``oracle_rhs_grid``), one FFT of b (and of
n b), zero-padded to the least 5-smooth L >= 4N + 1, is cubed or
multiplied and inverted, O(N log N).  The kept modes sit at indices
2N..4N of the linear convolution (0..6N), and length L folds j >= L onto
j - L <= 6N - L < 2N exactly when L >= 4N + 1.  Every transform calls the
pocketfft ufunc behind ``np.fft``'s wrapper, with the wrapper's scale
factor and output array: the same kernel and bits, ~2-4 us less per
transform.

From the cutoff on, one row of exactly Hermitian data (a(-n) == conj a(n)
bit for bit, ``spectral.is_hermitian``) steps its modes 0..N alone: its
field u is real, so u = irfft(b[0..N], L) and rfft(u^3)[0..N] (norm
"forward") give the cube's kept modes, with the same L >= 4N + 1 alias
argument, and the modes -N..-1 are mirrored as conjugates once per
right-hand side or trajectory.  irfft reads only Re b(0) = a(0), which such
data keep real (the n = 0 right-hand sides are 0 and -mean(u^2 u_x)).  S is
|a(0)|^2 + 2 sum_{n>=1} |a(n)|^2.  The plain flow forms u^2 u_x from a
second irfft, of i n b: (n/3) conv3(b) is exact too, but would leave the
gauge check comparing one convolution with itself.  Both inverse
transforms are one call on the 2-row stack (b, i n b), each row with the
arithmetic of a call of its own, and the factors i n and -i wphc are formed
with the flow and its phase tables.

On a 2-core Xeon with numpy 2.4 (right-hand sides as the RK4 loop calls
them, medians of 15 interleaved rounds; N = 48-96 measured twice, 16-52
once) the one-row FFT routes are faster than the direct route at every
N >= 56: at N = 56 the half route takes 0.61-0.62x (modified flow) and
0.72-0.76x (plain) of the direct time and the complex FFT 0.72-0.73x and
0.89-0.93x; at N = 96 0.37-0.38x, 0.41x, 0.46-0.48x and 0.56-0.61x.  They
break even near N = 24 (half, modified), 32 (complex, modified), 40
(half, plain) and 50-54 (complex, plain).  At N = 256 a right-hand side
takes 24 us (modified) and 27 us (plain) on the half route, 33 and 40 us
by the complex FFT and 196 and 192 us direct.  Stacks of 9 and 65 rows,
N = 1..55, were never slower by FFT than row by row direct, and up to ~6x
faster at 65 rows, when the transforms still went through the wrappers.

Classical RK4 steps the increment y(t) = a(t) - a(0) with a compensated
update.  The phase factors are formed from absolute time once per block of
``_PHASE_BLOCK`` = 32 steps, as one table over the block's stage times
t_m and t_m + dt/2 (rows 2j, 2j + 1 and 2j + 2 are step j's start,
midpoint and end); exp, conj and the products are elementwise, so each
row holds the bits a call at that one stage time would form.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy._core.multiarray import correlate as _correlate
from numpy.fft import _pocketfft_umath as _pfu   # the ufuncs np.fft's wrappers call, new in numpy 2.0

from .spectral import CoeffSeq, is_hermitian

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
    "duhamel_integral",
    "cumulative_simpson",
]

_EQUATIONS = ("modified_mkdv", "mkdv")
# cutoff at and above which the cubic convolution goes through the FFT
_FFT_MIN_N = 56
# RK4 steps whose stage phases are formed in one table
_PHASE_BLOCK = 32


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
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in (self.N, self.steps)):
            raise ValueError(f"N and steps must be integers, got N={self.N!r}, steps={self.steps!r}")
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and positive, got {self.dt!r}")
        if self.N < 0 or self.steps < 0:
            raise ValueError("N and steps must be nonnegative")

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


# np.fft's transforms by the pocketfft ufuncs its wrappers call, with the
# scale factor and output array the wrappers pass: 1, or 1/L for the
# inverse complex and the norm="forward" forward real transform.  A
# ufunc's default core axis is the last one, as axis=-1 gives, and each
# row of a stack is transformed with the arithmetic of a one-row call.


def _fft(x: np.ndarray, L: int) -> np.ndarray:
    """np.fft.fft(x, L) along the last axis."""
    return _pfu.fft(x, 1.0, out=np.empty(x.shape[:-1] + (L,), np.complex128))


def _ifft(x: np.ndarray) -> np.ndarray:
    """np.fft.ifft(x) along the last axis."""
    return _pfu.ifft(x, 1 / x.shape[-1], out=np.empty(x.shape, np.complex128))


def _irfft(x: np.ndarray, L: int) -> np.ndarray:
    """np.fft.irfft(x, L, norm="forward") along the last axis."""
    return _pfu.irfft(x, 1.0, out=np.empty(x.shape[:-1] + (L,)))


def _rfft(x: np.ndarray) -> np.ndarray:
    """np.fft.rfft(x, norm="forward") along the last axis."""
    L = x.shape[-1]
    rfft = _pfu.rfft_n_odd if L % 2 else _pfu.rfft_n_even
    return rfft(x, 1 / L, out=np.empty(x.shape[:-1] + (L // 2 + 1,), np.complex128))


def _cubic_conv(b: np.ndarray, c: np.ndarray | None = None) -> np.ndarray:
    """sum_{n1+n2+n3=n} b(n1) b(n2) c(n3) for the kept modes |n| <= N,
    along the last axis; c defaults to b (the plain cube).  One row below
    the cutoff convolves directly; a stack of rows always goes through
    the FFT."""
    N = (b.shape[-1] - 1) // 2
    if b.ndim == 1 and N < _FFT_MIN_N:
        # np.convolve(np.convolve(b, b), c, "valid") by the kernel it calls,
        # a correlation with the reversed second factor; "valid" keeps
        # exactly the full convolution's indices 2N..4N
        c = b if c is None else c
        return _correlate(_correlate(b, b[::-1], "full"), c[::-1], "valid")
    L = _fft_length(4 * N + 1)
    fb = _fft(b, L)
    fc = fb if c is None else _fft(c, L)
    return _ifft(fb * fb * fc)[..., 2 * N : 4 * N + 1]


def _rhs(values: np.ndarray, ph: np.ndarray, wphc: np.ndarray, modes: np.ndarray, equation: str) -> np.ndarray:
    """Right-hand side along the last axis, given the phases ph = e^{-in^3 t}
    and the flow's weight times their conjugate (see :func:`_flow`)."""
    b = ph * values                        # frame-unrotated coefficients
    if equation == "mkdv":
        return wphc * _cubic_conv(b, modes * b)
    rev = values[..., ::-1]                # gauge form; S = sum_k a(k) a(-k)
    S = values @ rev if values.ndim == 1 else np.sum(values * rev, axis=-1, keepdims=True)
    return wphc * _cubic_conv(b) + (1j * S) * (modes * values)


def _rhs_half(values: np.ndarray, ph: np.ndarray, wphc: np.ndarray, modes: np.ndarray, equation: str) -> np.ndarray:
    """:func:`_rhs` of one exactly Hermitian row held as its modes 0..N:
    the field u is real, so real transforms of length L >= 4N + 1 carry it.
    The plain flow takes the factors of :func:`_flow`'s half route: i n for
    modes and -i times its weighted conjugate for wphc."""
    N = values.shape[-1] - 1
    L = _fft_length(4 * N + 1)
    if equation == "mkdv":                 # u^2 u_x has coefficients i conv(b, b, n b)
        b = np.empty((2, N + 1), np.complex128)
        np.multiply(ph, values, out=b[0])
        np.multiply(modes, b[0], out=b[1])  # i n b
        u, ux = _irfft(b, L)                # both inverse transforms in one call
        return wphc * _rfft(u * u * ux)[: N + 1]
    u = _irfft(ph * values, L)
    S = 2.0 * np.vdot(values, values).real - abs(values[0]) ** 2
    return wphc * _rfft(u * u * u)[: N + 1] + (1j * S) * (modes * values)


def _route(values: np.ndarray):
    """(first stepped index, right-hand side) of one row: from N on, the
    modes 0..N of exactly Hermitian data by :func:`_rhs_half`."""
    N = values.shape[-1] // 2
    return (N, _rhs_half) if N >= _FFT_MIN_N and is_hermitian(values) else (0, _rhs)


def _mirror(out: np.ndarray) -> np.ndarray:
    """Fill modes -N..-1 of rows (last axis) from modes 1..N, in place."""
    N = out.shape[-1] // 2
    np.conjugate(out[..., :N:-1], out=out[..., :N])
    return out


def _flow(N: int, equation: str, lo: int = 0):
    """Modes lo-N..N, as the complex n + 0j every product with complex
    data casts them to, and t -> (phases e^{-in^3 t}, their conjugate times
    the flow's weight), the weight being -in/3 (mean-subtracted) or -i.
    On the half route (lo = N) the plain flow's factors are those
    :func:`_rhs_half` multiplies by, formed once: i n, and -i times the
    weighted conjugate (each elementwise, so the bits a call would form)."""
    if equation not in _EQUATIONS:
        raise ValueError(f"equation must be one of {_EQUATIONS}")
    modes = np.arange(lo - N, N + 1).astype(complex)
    exponents = -1j * modes.real ** 3
    weight = (-1j / 3.0) * modes if equation == "modified_mkdv" else -1j
    plain_half = lo > 0 and equation == "mkdv"

    def phases(t):
        ph = np.exp(exponents * t)
        wphc = weight * ph.conj()
        return ph, (-1j * wphc if plain_half else wphc)

    return (1j * modes if plain_half else modes), phases


def oracle_rhs(a: CoeffSeq, equation: str = "modified_mkdv", t: float = 0.0) -> CoeffSeq:
    """Right-hand side of the rotating-frame system at absolute time t."""
    lo, rhs = _route(a.values)
    modes, phases = _flow(a.cutoff, equation, lo)
    out = np.empty_like(a.values)
    out[lo:] = rhs(a.values[lo:], *phases(t), modes, equation)
    return a.with_values(_mirror(out) if lo else out)


def oracle_rhs_grid(values: np.ndarray, times: np.ndarray, equation: str = "modified_mkdv") -> np.ndarray:
    """Right-hand side of every row of a [T, 2N+1] stack: row i holds the
    rotating-frame coefficients (modes -N..N) at absolute time times[i].
    Raises ValueError unless times is one-dimensional and the stack has
    one odd-length row per time."""
    values = np.asarray(values, dtype=np.complex128)
    times = np.asarray(times, dtype=float)
    if values.ndim != 2 or times.ndim != 1 or values.shape[0] != times.shape[0] or values.shape[1] % 2 == 0:
        raise ValueError("values must be a [len(times), 2N+1] stack")
    modes, phases = _flow(values.shape[1] // 2, equation)
    return _rhs(values, *phases(times[:, None]), modes, equation)


def rhs_route(a) -> dict:
    """Manifest record: the cutoff N, which cubic convolution the
    right-hand side uses there, and the cutoff at which it switches from
    direct to FFT; ``a`` is the data, or a cutoff N read as complex data."""
    N = a.cutoff if isinstance(a, CoeffSeq) else a
    route = "fft-real" if isinstance(a, CoeffSeq) and _route(a.values)[0] else "fft"
    return {"cutoff": N, "rhs_route": route if N >= _FFT_MIN_N else "direct", "fft_min_n": _FFT_MIN_N}


def _rk4_increment(a0: CoeffSeq, cfg: OracleConfig, t: float) -> Trajectory:
    """Compensated RK4 for the increment y(t) = a(t) - a(0)."""
    if a0.cutoff != cfg.N:
        raise ValueError("initial data cutoff must match the configuration")
    cfg.check_run(t)
    N, dt, eq = cfg.N, cfg.dt, cfg.equation
    lo, rhs = _route(a0.values)            # a half route mirrors at the end
    modes, phases = _flow(N, eq, lo)
    half = 0.5 * dt
    # the stage weights as 0-d complex arrays: they multiply as the floats
    # do (each cast to x + 0j), at about half a Python float's call cost
    c_half, c_dt, c_sixth = (np.array(complex(x)) for x in (half, dt, dt / 6.0))
    base = a0.values[lo:]
    out = np.empty((cfg.steps + 1, 2 * N + 1), dtype=np.complex128)
    rows = out[:, lo:]
    times = np.arange(cfg.steps + 1) * dt
    y = np.zeros_like(base)
    comp = np.zeros_like(base)             # Kahan carry for the increment sum
    rows[0] = y
    for m0 in range(0, cfg.steps, _PHASE_BLOCK):
        # phases at the block's stage times: rows 2j, 2j + 1 and 2j + 2
        # are step m0 + j's start, midpoint and end
        m1 = min(m0 + _PHASE_BLOCK, cfg.steps)
        stage = np.empty(2 * (m1 - m0) + 1)
        stage[0::2] = times[m0 : m1 + 1]
        stage[1::2] = times[m0:m1] + half
        ph, wphc = map(list, phases(stage[:, None]))
        for j in range(m1 - m0):
            i = 2 * j
            k1 = rhs(base + y, ph[i], wphc[i], modes, eq)
            k2 = rhs(base + (y + c_half * k1), ph[i + 1], wphc[i + 1], modes, eq)
            k3 = rhs(base + (y + c_half * k2), ph[i + 1], wphc[i + 1], modes, eq)
            k4 = rhs(base + (y + c_dt * k3), ph[i + 2], wphc[i + 2], modes, eq)
            incr = c_sixth * (k1 + (k2 + k2) + (k3 + k3) + k4)   # k + k is 2k exactly
            yy = incr - comp
            s = y + yy
            comp = (s - y) - yy
            y = s
            rows[m0 + j + 1] = y
    return Trajectory(N, times, _mirror(out) if lo else out)


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


def _grid_step(times: np.ndarray) -> float:
    """Step of a time grid the cumulative Simpson rule can integrate from
    0; raises ValueError unless the grid is uniform, has at least 9
    points and starts at t = 0."""
    if len(times) < 9:
        raise ValueError("grid too coarse: need at least 9 points")
    if times[0] != 0.0:
        raise ValueError("the grid must start at t = 0")
    diffs = np.diff(times)
    if np.max(np.abs(diffs - diffs[0])) > 1e-12 * max(diffs[0], 1e-30):
        raise ValueError("a uniform time grid is required")
    return float(diffs[0])


def duhamel_integral(states: np.ndarray, times, equation: str = "modified_mkdv") -> np.ndarray:
    """int_0^t RHS(a(s), s) ds at each grid time, for the [T, 2N+1] stack
    of states a(t) on the grid: the right-hand side of every row, summed
    by the cumulative Simpson rule.  The grid must be uniform with at
    least 9 points starting at t = 0."""
    times = np.asarray(times, dtype=float)
    return cumulative_simpson(oracle_rhs_grid(states, times, equation), _grid_step(times))


def picard_iterate(a0: CoeffSeq, times: np.ndarray, iterations: int) -> Trajectory:
    """Successive substitution of the mean-subtracted flow's integral
    equation, starting from the constant-in-time trajectory.

    Each sweep takes the Duhamel integral of the whole grid's trajectory
    (:func:`duhamel_integral`), so the result is independent of the tree
    machinery; it is the anti-drift oracle for the series pipeline.
    """
    times = np.asarray(times, dtype=float)
    _grid_step(times)
    traj = np.tile(a0.values, (len(times), 1))
    for _ in range(iterations):
        traj = a0.values[None, :] + duhamel_integral(traj, times)
    return Trajectory(a0.cutoff, times, traj)
