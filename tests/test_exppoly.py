"""Exact exponential-polynomial calculus against quadrature oracles."""

import numpy as np
import pytest
from scipy.integrate import quad

from mkdv_series import ExpPoly, ep_eval, ep_integrate, ep_mul


def quad_complex(f, a, b):
    re = quad(lambda s: f(s).real, a, b, epsabs=1e-14, limit=200)[0]
    im = quad(lambda s: f(s).imag, a, b, epsabs=1e-14, limit=200)[0]
    return re + 1j * im


def test_add_identities():
    f = ExpPoly.exponential(1)
    zero = ExpPoly.zero()
    assert ExpPoly.from_terms(f.terms + zero.terms).terms == f.terms
    double = ExpPoly.from_terms(f.terms + f.terms)
    assert double.terms == ((2.0 + 0.0j, 0, 1),)
    cancel = ExpPoly.from_terms(f.terms + ExpPoly.exponential(1, -1.0).terms)
    assert cancel.terms == ()


def test_mul_examples():
    s_eis = ExpPoly.from_terms([(1.0, 1, 1)])
    e2is = ExpPoly.exponential(2)
    prod = ep_mul(s_eis, e2is)
    assert prod.terms == ((1.0 + 0.0j, 1, 3),)
    f = ExpPoly.from_terms([(2.0, 1, 0), (1j, 0, -1)])
    assert ep_mul(f, ExpPoly.one()).terms == f.terms
    # (e^{is} - 1)(e^{-is} - 1) = 2 - e^{is} - e^{-is}
    a = ExpPoly.from_terms([(1.0, 0, 1), (-1.0, 0, 0)])
    b = ExpPoly.from_terms([(1.0, 0, -1), (-1.0, 0, 0)])
    prod = ep_mul(a, b)
    expect = ExpPoly.from_terms([(2.0, 0, 0), (-1.0, 0, 1), (-1.0, 0, -1)])
    assert prod.terms == expect.terms


def test_integrate_oscillatory():
    sigma = 7
    F = ep_integrate(ExpPoly.exponential(sigma))
    for x in (0.2, 0.9):
        expect = (np.exp(1j * sigma * x) - 1.0) / (1j * sigma)
        assert abs(ep_eval(F, x) - expect) < 1e-15


def test_integrate_resonant():
    F = ep_integrate(ExpPoly.one())
    assert F.terms == ((1.0 + 0.0j, 1, 0),)


def test_integrate_mixed_vs_quadrature():
    f = ExpPoly.from_terms([(1.0, 1, 1)])  # s e^{is}
    F = ep_integrate(f)
    for x in (0.3, 0.7, 1.0):
        expect = quad_complex(lambda s: s * np.exp(1j * s), 0.0, x)
        assert abs(ep_eval(F, x) - expect) < 1e-12


def test_eval_examples():
    assert ep_eval(ExpPoly.zero(), 0.4) == 0.0
    assert ep_eval(ExpPoly.exponential(7), 0.0) == pytest.approx(1.0)
    F = ep_integrate(ExpPoly.exponential(180))
    expect = quad_complex(lambda s: np.exp(180j * s), 0.0, 0.01)
    assert abs(ep_eval(F, 0.01) - expect) < 1e-12


def test_antiderivative_vanishes_at_zero():
    rng = np.random.default_rng(0)
    for _ in range(20):
        terms = [
            (rng.normal() + 1j * rng.normal(), int(rng.integers(0, 3)), int(rng.integers(-5, 6)))
            for _ in range(4)
        ]
        F = ep_integrate(ExpPoly.from_terms(terms))
        assert abs(ep_eval(F, 0.0)) < 1e-14


def test_derivative_of_antiderivative():
    rng = np.random.default_rng(1)
    f = ExpPoly.from_terms(
        [(rng.normal() + 1j * rng.normal(), m, w) for m, w in ((0, 3), (1, -2), (2, 0), (0, 0))]
    )
    F = ep_integrate(f)
    h = 1e-6
    for _ in range(10):
        x = rng.uniform(0.0, 1.0)
        fd = (ep_eval(F, x + h) - ep_eval(F, x)) / h
        exact = ep_eval(f, x + h / 2)  # midpoint kills the O(h) error
        assert abs(fd - exact) <= 1e-5 * max(1.0, abs(exact))


def test_integration_linear():
    rng = np.random.default_rng(2)
    f = ExpPoly.from_terms([(1.2 - 0.3j, 1, 2), (0.5j, 0, -1)])
    g = ExpPoly.from_terms([(0.7, 0, 2), (2.0, 2, 0)])
    al, be = 1.5 - 0.5j, -2.0 + 1.0j
    lhs = ep_integrate(
        ExpPoly.from_terms(
            [(al * c, m, w) for c, m, w in f.terms] + [(be * c, m, w) for c, m, w in g.terms]
        )
    )
    rhs = ExpPoly.from_terms(
        [(al * c, m, w) for c, m, w in ep_integrate(f).terms]
        + [(be * c, m, w) for c, m, w in ep_integrate(g).terms]
    )
    assert lhs.terms == rhs.terms


def test_normalization_rules():
    with pytest.raises(ValueError):
        ExpPoly.from_terms([(1.0, -1, 0)])
    with pytest.raises(ValueError):
        ExpPoly.from_terms([(1.0, 0, 0.5)])
    f = ExpPoly.from_terms([(1.0, 0, 2), (1.0, 0, 2), (0.0, 1, 1)])
    assert f.terms == ((2.0 + 0.0j, 0, 2),)
    # terms are sorted by (freq, power)
    g = ExpPoly.from_terms([(1.0, 0, 5), (2.0, 1, -3), (3.0, 0, -3)])
    assert [(w, m) for _, m, w in g.terms] == [(-3, 0), (-3, 1), (5, 0)]
