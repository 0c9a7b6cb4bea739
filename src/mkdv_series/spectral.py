"""Fourier coefficient sequences on the torus and weighted sequence norms.

A field u on the torus is represented by its coefficients on the modes
n = -N..N under the convention

    u(x) = sum_n  a(n) e^{inx},      a(n) = (1/2pi) int_T u(x) e^{-inx} dx,

so that pointwise products of fields become plain convolutions of
coefficient sequences and Parseval reads (1/2pi) int u^2 = sum_n a(n)a(-n).
Everything here is a pure function of its inputs; sequences are never
mutated in place.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CoeffSeq",
    "NormIndex",
    "bracket",
    "weighted_norm",
    "truncate_modes",
    "l2_mass",
    "gauge_shift",
    "random_real_field",
    "is_hermitian",
]


def is_hermitian(values) -> bool:
    """``CoeffSeq.is_real_field(tol=0.0)`` on raw values: a route that keeps
    only the modes n >= 0 would drop any non-Hermitian part a tolerance lets in."""
    return np.array_equal(values, np.conj(values[..., ::-1]))


def bracket(n):
    """Smoothed absolute value <n> = (1 + n^2)^(1/2); accepts arrays."""
    return np.sqrt(1.0 + np.asarray(n, dtype=float) ** 2)


@dataclass(frozen=True)
class CoeffSeq:
    """Complex Fourier coefficients for the modes n = -cutoff .. cutoff.

    ``values[i]`` holds the coefficient of mode ``i - cutoff``.  Use
    indexing by mode number (``seq[n]``) rather than by array position.
    """

    cutoff: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError(f"cutoff must be >= 0, got {self.cutoff}")
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (2 * self.cutoff + 1,):
            raise ValueError(
                f"expected {2 * self.cutoff + 1} values for cutoff "
                f"{self.cutoff}, got shape {vals.shape}"
            )
        object.__setattr__(self, "values", vals)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, cutoff: int) -> "CoeffSeq":
        return cls(cutoff, np.zeros(2 * cutoff + 1, dtype=np.complex128))

    @classmethod
    def delta(cls, cutoff: int, n: int, amplitude: complex = 1.0) -> "CoeffSeq":
        """Single excited mode n with the given amplitude."""
        seq = np.zeros(2 * cutoff + 1, dtype=np.complex128)
        if abs(n) > cutoff:
            raise ValueError(f"mode {n} outside cutoff {cutoff}")
        seq[n + cutoff] = amplitude
        return cls(cutoff, seq)

    @classmethod
    def cosine(cls, cutoff: int, eps: float) -> "CoeffSeq":
        """Coefficients of eps*cos(x): amplitude eps/2 at modes +-1."""
        if cutoff < 1:
            raise ValueError("cosine data needs cutoff >= 1")
        seq = np.zeros(2 * cutoff + 1, dtype=np.complex128)
        seq[cutoff - 1] = eps / 2.0
        seq[cutoff + 1] = eps / 2.0
        return cls(cutoff, seq)

    # -- access ----------------------------------------------------------

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.cutoff, self.cutoff + 1)

    def __getitem__(self, n: int) -> complex:
        if abs(n) > self.cutoff:
            return 0.0 + 0.0j
        return complex(self.values[n + self.cutoff])

    def with_values(self, values: np.ndarray) -> "CoeffSeq":
        return CoeffSeq(self.cutoff, values)

    def is_real_field(self, tol: float = 1e-12) -> bool:
        """True when a(-n) = conj(a(n)) for all n, i.e. the field is real."""
        return bool(
            np.max(np.abs(self.values - np.conj(self.values[::-1]))) <= tol
        )

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "cutoff": self.cutoff,
            "re": self.values.real.tolist(),
            "im": self.values.imag.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d: dict) -> "CoeffSeq":
        re = np.asarray(d["re"], dtype=float)
        im = np.asarray(d["im"], dtype=float)
        return cls(int(d["cutoff"]), re + 1j * im)

    @classmethod
    def from_json(cls, text: str) -> "CoeffSeq":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class NormIndex:
    """Weighted little-Lebesgue norm indices (s, p), with p in [1, inf]."""

    s: float
    p: float

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise ValueError(f"p must satisfy 1 <= p <= inf, got {self.p}")

    @property
    def p_conj(self) -> float:
        """Conjugate index p' = p/(p-1); inf when p = 1, 1 when p = inf."""
        if self.p == 1.0:
            return math.inf
        if math.isinf(self.p):
            return 1.0
        return self.p / (self.p - 1.0)

    @property
    def theorem_hypothesis(self) -> bool:
        """Whether s >= 1/2 and p'(s + 1/4) > 1 (not enforced anywhere)."""
        if self.s < 0.5:
            return False
        pc = self.p_conj
        if math.isinf(pc):
            return self.s + 0.25 > 0.0
        return pc * (self.s + 0.25) > 1.0


def weighted_norm(a, idx: NormIndex):
    """Weighted norm ( sum_n <n>^{sp} |a(n)|^p )^{1/p}.

    For p = inf this is sup_n <n>^s |a(n)|.  The zero sequence gives 0.
    ``a`` is a ``CoeffSeq`` or an array of rows with the modes -N..N on
    its last axis; a stack of rows gives the array of their norms.
    """
    vals = a.values if isinstance(a, CoeffSeq) else np.asarray(a)
    N = (vals.shape[-1] - 1) // 2
    w = bracket(np.arange(-N, N + 1)) ** idx.s * np.abs(vals)
    if math.isinf(idx.p):
        norm = np.max(w, axis=-1)
    elif idx.p == 1.0:
        norm = np.sum(w, axis=-1)
    else:
        norm = np.sum(w ** idx.p, axis=-1) ** (1.0 / idx.p)
    return float(norm) if norm.ndim == 0 else norm


def truncate_modes(a: CoeffSeq, M: int) -> CoeffSeq:
    """Keep the modes |n| <= min(M, cutoff); the result has that cutoff."""
    if M < 0:
        raise ValueError(f"M must be >= 0, got {M}")
    m = min(M, a.cutoff)
    lo = a.cutoff - m
    return CoeffSeq(m, a.values[lo : lo + 2 * m + 1].copy())


def l2_mass(a: CoeffSeq) -> float:
    """sum_n |a(n)|^2, equal to (1/2pi) int u^2 dx for a real field u."""
    return float(np.sum(np.abs(a.values) ** 2))


def random_real_field(
    cutoff: int,
    idx: NormIndex,
    radius: float,
    rng: np.random.Generator,
) -> CoeffSeq:
    """Random real-field data with weighted norm exactly ``radius``.

    Mode magnitudes decay like <n>^(-s - 1/p - 0.01) (a profile just inside
    the norm's summability), phases are uniform with the conjugate symmetry
    a(-n) = conj(a(n)), and the result is rescaled so the norm is exact.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    inv_p = 0.0 if math.isinf(idx.p) else 1.0 / idx.p
    modes = np.arange(-cutoff, cutoff + 1)
    weights = bracket(modes) ** (-idx.s - inv_p - 0.01)
    vals = np.zeros(2 * cutoff + 1, dtype=np.complex128)
    vals[cutoff] = weights[cutoff] * rng.choice([-1.0, 1.0])
    for n in range(1, cutoff + 1):
        phase = np.exp(2j * np.pi * rng.random())
        vals[cutoff + n] = weights[cutoff + n] * phase
        vals[cutoff - n] = np.conj(vals[cutoff + n])
    seq = CoeffSeq(cutoff, vals)
    if radius == 0.0:
        return CoeffSeq.zeros(cutoff)
    return seq.with_values(vals * (radius / weighted_norm(seq, idx)))


def gauge_shift(a: CoeffSeq, c: float, t: float) -> CoeffSeq:
    """Spatial translation by c*t in coefficient space: a(n) -> e^{inct} a(n).

    With c equal to the conserved mass of the initial data this is the
    change of frame relating the plain and the mean-subtracted mKdV flows.
    Exactly norm- and mass-preserving.
    """
    phase = np.exp(1j * a.modes * (c * t))
    return a.with_values(a.values * phase)
