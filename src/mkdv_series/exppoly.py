"""Exact calculus for exponential polynomials  f(s) = sum c * s^m * e^{i w s}.

The frequencies w are integers (they are always resonance values and sums
thereof), so testing w == 0 is exact and the resonant branch of the
antiderivative never suffers from near-zero division.  Coefficients are
double-precision complex; "exact" therefore means exact modulo rounding.

The class is the scalar reference used to evaluate nested oscillatory
integrals over tree-ordered time simplices; the solver's fold in ops.py
carries the same (coeff, power, freq) terms as arrays of rows, one
exponential polynomial per mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ExpPoly", "ep_mul", "ep_integrate", "ep_eval"]

_PRUNE = 0.0  # coefficients exactly zero are dropped; no epsilon pruning


@dataclass(frozen=True)
class ExpPoly:
    """Normalized term list: a tuple of (coeff, power, freq) with at most
    one term per (power, freq) pair and no zero coefficients."""

    terms: tuple

    @classmethod
    def from_terms(cls, terms) -> "ExpPoly":
        acc = {}
        for c, m, w in terms:
            if m < 0 or int(m) != m:
                raise ValueError(f"power must be a nonnegative integer: {m}")
            if int(w) != w:
                raise ValueError(f"frequency must be an integer: {w}")
            key = (int(m), int(w))
            acc[key] = acc.get(key, 0.0 + 0.0j) + complex(c)
        kept = tuple(
            (c, m, w) for (m, w), c in sorted(acc.items(), key=lambda kv: (kv[0][1], kv[0][0]))
            if c != _PRUNE
        )
        return cls(kept)

    @classmethod
    def zero(cls) -> "ExpPoly":
        return cls(())

    @classmethod
    def one(cls) -> "ExpPoly":
        return cls(((1.0 + 0.0j, 0, 0),))

    @classmethod
    def exponential(cls, w: int, coeff: complex = 1.0) -> "ExpPoly":
        """The single term coeff * e^{iws}."""
        return cls.from_terms([(coeff, 0, w)])

    @property
    def term_count(self) -> int:
        return len(self.terms)


def ep_mul(f: ExpPoly, g: ExpPoly) -> ExpPoly:
    """Distributive product: powers add, frequencies add."""
    out = []
    for c1, m1, w1 in f.terms:
        for c2, m2, w2 in g.terms:
            out.append((c1 * c2, m1 + m2, w1 + w2))
    return ExpPoly.from_terms(out)


def _integrate_term(c, m, w):
    """Terms of int_0^x c s^m e^{iws} ds, exact in (power, freq)."""
    if w == 0:
        return [(c / (m + 1), m + 1, 0)]
    # integration by parts: x^m e^{iwx}/(iw) - (m/(iw)) * int x^{m-1} e^{iwx}
    iw = 1j * w
    if m == 0:
        return [(c / iw, 0, w), (-c / iw, 0, 0)]
    out = [(c / iw, m, w)]
    out.extend(_integrate_term(-c * m / iw, m - 1, w))
    return out


def ep_integrate(f: ExpPoly) -> ExpPoly:
    """The antiderivative F(x) = int_0^x f(s) ds, with F(0) = 0 exactly."""
    out = []
    for c, m, w in f.terms:
        out.extend(_integrate_term(c, m, w))
    return ExpPoly.from_terms(out)


def ep_eval(f: ExpPoly, s: float) -> complex:
    """Numerical value of f at the point s."""
    total = 0.0 + 0.0j
    for c, m, w in f.terms:
        total += c * (s ** m if m else 1.0) * np.exp(1j * w * s)
    return complex(total)
