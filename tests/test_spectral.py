"""Coefficient sequences, weighted norms, truncation, mass, gauge phases."""

import json
import math

import numpy as np
import pytest

from mkdv_series import (
    CoeffSeq,
    NormIndex,
    gauge_shift,
    l2_mass,
    truncate_modes,
    weighted_norm,
)
from mkdv_series.spectral import is_hermitian, random_real_field


def test_norm_delta_at_zero():
    a = CoeffSeq.delta(4, 0, 1.0)
    for s, p in ((0.0, 2.0), (1.5, 1.0), (2.0, math.inf)):
        assert weighted_norm(a, NormIndex(s, p)) == pytest.approx(1.0)


def test_norm_delta_weighted_sup():
    a = CoeffSeq.delta(5, 3, 1.0)
    assert weighted_norm(a, NormIndex(1.0, math.inf)) == pytest.approx(math.sqrt(10))


def test_norm_flat_l2():
    a = CoeffSeq(2, np.ones(5, dtype=complex))
    assert weighted_norm(a, NormIndex(0.0, 2.0)) == pytest.approx(math.sqrt(5))


def test_norm_homogeneous():
    rng = np.random.default_rng(0)
    a = CoeffSeq(6, rng.normal(size=13) + 1j * rng.normal(size=13))
    lam = -0.7 + 1.3j
    scaled = a.with_values(lam * a.values)
    for p in (1.0, 2.0, 4.0, math.inf):
        idx = NormIndex(0.75, p)
        assert weighted_norm(scaled, idx) == pytest.approx(abs(lam) * weighted_norm(a, idx))


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_norm_of_a_stack_is_each_rows_norm(p):
    # rows with the modes on the last axis, stacked [3, 4, 2N+1]
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(3, 4, 11)) + 1j * rng.normal(size=(3, 4, 11))
    idx = NormIndex(0.5, p)
    got = weighted_norm(rows, idx)
    assert got.shape == (3, 4)
    for k, i in np.ndindex(3, 4):
        ref = weighted_norm(CoeffSeq(5, rows[k, i]), idx)
        assert got[k, i] == pytest.approx(ref, rel=1e-15, abs=0.0)


def test_truncation_identity_and_drop():
    a = CoeffSeq(8, np.arange(17, dtype=float) + 0j)
    same = truncate_modes(a, 8)
    assert same.cutoff == 8 and np.array_equal(same.values, a.values)

    d = CoeffSeq.delta(8, 5, 1.0)
    cut = truncate_modes(d, 3)
    assert cut.cutoff == 3 and np.all(cut.values == 0)

    decay = CoeffSeq(4, 1.0 / np.sqrt(1.0 + np.arange(-4, 5.0) ** 2) + 0j)
    cut = truncate_modes(decay, 2)
    assert cut.cutoff == 2
    assert np.array_equal(cut.values, decay.values[2:7])


def test_truncation_never_increases_norm():
    rng = np.random.default_rng(1)
    a = CoeffSeq(7, rng.normal(size=15) + 1j * rng.normal(size=15))
    idx = NormIndex(0.5, 2.0)
    full = weighted_norm(a, idx)
    for M in range(8):
        assert weighted_norm(truncate_modes(a, M), idx) <= full + 1e-15


def test_l2_mass_examples():
    cos = CoeffSeq.cosine(3, 1.0)  # amplitudes 1/2 at modes +-1
    assert l2_mass(cos) == pytest.approx(0.5)
    assert l2_mass(CoeffSeq.zeros(5)) == 0.0
    flat = CoeffSeq(6, np.ones(13, dtype=complex))
    assert l2_mass(flat) == pytest.approx(13.0)


def test_gauge_shift_identities():
    rng = np.random.default_rng(2)
    a = CoeffSeq(5, rng.normal(size=11) + 1j * rng.normal(size=11))
    assert np.array_equal(gauge_shift(a, 1.3, 0.0).values, a.values)
    assert np.array_equal(gauge_shift(a, 0.0, 0.7).values, a.values)
    d = gauge_shift(CoeffSeq.delta(3, 2, 1.0), math.pi, 1.0)
    assert d[2] == pytest.approx(1.0)  # e^{2 pi i}


def test_gauge_preserves_norm_mass_and_inverts():
    rng = np.random.default_rng(3)
    a = CoeffSeq(6, rng.normal(size=13) + 1j * rng.normal(size=13))
    idx = NormIndex(0.5, 2.0)
    g = gauge_shift(a, 2.2, 0.4)
    assert weighted_norm(g, idx) == pytest.approx(weighted_norm(a, idx))
    assert l2_mass(g) == pytest.approx(l2_mass(a))
    back = gauge_shift(g, -2.2, 0.4)
    assert np.max(np.abs(back.values - a.values)) < 1e-14


def test_real_field_flag():
    assert CoeffSeq.cosine(4, 0.3).is_real_field()
    assert not CoeffSeq.delta(4, 1, 1.0).is_real_field()


def test_exact_hermitian_predicate_is_real_field_at_zero_tolerance():
    a = random_real_field(8, NormIndex(0.5, 2.0), 1.0, np.random.default_rng(2))
    off = a.values.copy()
    off[9] = np.nextafter(off[9].real, np.inf) + 1j * off[9].imag
    for v in (a.values, off, CoeffSeq.cosine(4, 0.3).values, CoeffSeq.delta(4, 1, 1.0).values):
        assert is_hermitian(v) == CoeffSeq(len(v) // 2, v).is_real_field(tol=0.0)
    assert is_hermitian(a.values) and not is_hermitian(off)


def test_json_round_trip():
    rng = np.random.default_rng(4)
    a = CoeffSeq(3, rng.normal(size=7) + 1j * rng.normal(size=7))
    d = json.loads(a.to_json())
    assert d["cutoff"] == 3 and len(d["re"]) == 7
    b = CoeffSeq.from_json(a.to_json())
    assert np.array_equal(a.values, b.values)


def test_norm_index_conjugate_and_hypothesis():
    assert NormIndex(0.5, 2.0).p_conj == pytest.approx(2.0)
    assert NormIndex(0.5, 1.0).p_conj == math.inf
    assert NormIndex(0.5, math.inf).p_conj == 1.0
    assert NormIndex(0.5, 2.0).theorem_hypothesis
    assert NormIndex(0.5, 1.0).theorem_hypothesis  # p' = inf
    assert not NormIndex(0.2, math.inf).theorem_hypothesis
    assert not NormIndex(0.75, math.inf).theorem_hypothesis  # p'(s+1/4) = 1
    with pytest.raises(ValueError):
        NormIndex(0.5, 0.5)


def test_random_real_field_norm_exact():
    idx = NormIndex(0.5, 2.0)
    a = random_real_field(8, idx, 1.0, np.random.default_rng(1))
    assert weighted_norm(a, idx) == pytest.approx(1.0, abs=1e-12)
    assert a.is_real_field()


def test_cutoff_must_be_an_integer():
    # 2 * 1.5 + 1 == 4 and 2 * True + 1 == 3: the shape check alone passes both
    for cutoff in (1.5, True):
        with pytest.raises(ValueError, match="must be an integer"):
            CoeffSeq(cutoff, np.ones(int(2 * cutoff + 1)))
    assert CoeffSeq(np.int64(1), np.ones(3)).modes.tolist() == [-1, 0, 1]


def test_bad_construction_rejected():
    with pytest.raises(ValueError):
        CoeffSeq(2, np.zeros(4, dtype=complex))
    with pytest.raises(ValueError):
        CoeffSeq.delta(2, 5, 1.0)
    with pytest.raises(ValueError):
        truncate_modes(CoeffSeq.zeros(2), -1)
