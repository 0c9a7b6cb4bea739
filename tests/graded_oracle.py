"""Per-depth reference from RK4 alone: the amplitude-graded oracle.

The truncated flow is a cubic polynomial vector field with no complex
conjugates (the gauge term S = sum_k a(k) a(-k) included), so its solution
is holomorphic in the data, and the series' depth k is homogeneous of
degree 2k + 1 in it.  With internal modes projected to |n| <= N the depth
terms are the amplitude expansion of the Galerkin flow at cutoff N:

    a(t; z a0) - z a0 = sum_{k>=1} z^{2k+1} D_k(t).

RK4 increments at L points z_l = r e^{2 pi i l / L} of a circle, put
through a length-L FFT over l and divided by r^p, give the coefficient of
z^p (Cauchy's formula by the trapezoid rule).  The coefficient of z^{p+L}
aliases onto it, ~ (r^2 rho)^{L/2} of D_k for a depth ratio rho, and
rounding costs ~ eps max|y| / r^{2k+1}; r = 0.35 rho^{-1/2}, rho read from
a small-amplitude run as |D_1| / |a0|, keeps both far below RK4's own error.
Each RK4 run is a polynomial in z, so the extracted coefficient is RK4's
approximation of D_k, with its O(dt^4) error; one RK4 step is a degree-4
polynomial in t and cannot hold depth >= 5, so use ~100 steps or more.

Without projection, a depth-K term at |n| <= N has subtrees of depth at
most K - 1 under its root, whose modes stay within (2K - 1)N; the
Galerkin flow at M = (2K - 1)N has the same depth terms there, so the data
are padded to M and the modes |n| <= N read back.
"""

import numpy as np

from mkdv_series import CoeffSeq, OracleConfig, oracle_solve_increment

L = 48   # amplitudes on the circle


def graded_oracle(a0: CoeffSeq, K: int, t: float, project_internal: bool, steps: int) -> np.ndarray:
    """[K+1, 2N+1]: row k is D_k(t) of the mean-subtracted flow (row 0 the
    data), from L + 1 RK4 runs of ``steps`` steps each."""
    if not 2 * K + 1 < L:
        raise ValueError(f"K = {K} needs powers up to 2K + 1 >= L = {L}")
    N = a0.cutoff
    M = N if project_internal else max(N, (2 * K - 1) * N)
    padded = np.zeros(2 * M + 1, dtype=np.complex128)
    padded[M - N : M + N + 1] = a0.values
    cfg = OracleConfig(M, t / steps, "modified_mkdv", steps)

    def increment(z):
        y = oracle_solve_increment(CoeffSeq(M, z * padded), cfg, t).values[-1]
        return y[M - N : M + N + 1]

    delta = 1e-3                                     # D_1 to a relative delta^2 rho
    peak = np.max(np.abs(a0.values))
    rho = np.max(np.abs(increment(delta))) / delta**3 / peak if peak else 0.0
    r = 0.35 / np.sqrt(rho) if rho else 1.0
    z = r * np.exp(2j * np.pi * np.arange(L) / L)
    scaled = np.fft.fft(np.stack([increment(zl) for zl in z]), axis=0) / L   # row p: r^p times z^p's coefficient
    p = 2 * np.arange(K + 1) + 1
    out = scaled[p] / r ** p[:, None]
    out[0] = a0.values
    return out
