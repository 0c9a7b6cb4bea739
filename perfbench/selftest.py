"""Self-tests of the benchmark: each workload's check passes the program's
result and flags a deliberately wrong one, and the traced run's wrappers
put every module attribute back.

    python3 -m pytest -q perfbench/selftest.py
"""

import dataclasses
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mkdv_series import oracle, series  # noqa: E402
from mkdv_series.spectral import CoeffSeq  # noqa: E402
from tracing import TARGETS, Tracer, layer_totals, patched  # noqa: E402
from workloads import DenseK3, OracleRK4, SparseGrid  # noqa: E402


def test_dense_check_flags_projected_solve():
    wl = DenseK3()
    a0 = wl.inputs(np.random.default_rng(0))[0]
    ref = wl.reference(a0)
    assert wl.check(a0, ref, wl.run(a0)).ok
    projected = dataclasses.replace(wl.cfg, project_internal=True)
    bad = wl.check(a0, ref, series.solve_series(a0, projected))
    assert not bad.ok
    assert bad.errors["increment_gap"] > wl.inc_tol


def _two_mode(wl, amplitude):
    v = np.zeros(2 * wl.N + 1, dtype=np.complex128)
    v[wl.N + 1] = v[wl.N - 1] = amplitude
    return CoeffSeq(wl.N, v)


@pytest.mark.parametrize("amplitude", [0.05, 0.1])
def test_sparse_check_flags_dropped_depth(amplitude):
    # 0.05 is the smallest amplitude the generator draws, so the depth-K
    # term is smallest there; 0.1 gives the largest truncation error
    wl = SparseGrid()
    a0 = _two_mode(wl, amplitude)
    out = wl.run(a0)
    assert wl.check(a0, None, out).ok
    depth = out.solution.depth_values.copy()
    depth[wl.K] = 0.0
    coeffs = [CoeffSeq(wl.N, depth[:, i].sum(axis=0)) for i in range(wl.points)]
    sol = dataclasses.replace(out.solution, coeffs=coeffs, depth_values=depth)
    bad = dataclasses.replace(
        out, solution=sol, residual=series.ode_residual(sol, a0, wl.cfg)
    )
    assert not wl.check(a0, None, bad).ok


def test_oracle_check_flags_plain_flow_without_gauge_shift():
    wl = OracleRK4()
    a0 = wl.inputs(np.random.default_rng(0))[0]
    out = wl.run(a0)
    assert wl.check(a0, None, out).ok
    unshifted = dataclasses.replace(out, plain=out.modified)
    bad = wl.check(a0, None, unshifted)
    assert not bad.ok
    assert bad.errors["gauge_gap"] > wl.gauge_tol


def _current():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, *_ in TARGETS}


def test_wrappers_restore_every_attribute():
    before = _current()
    with patched(Tracer()):
        during = _current()
        assert all(during[key] is not fn for key, fn in before.items())
    assert all(_current()[key] is fn for key, fn in before.items())
    with pytest.raises(RuntimeError):
        with patched(Tracer(), allocations=True):
            raise RuntimeError("operation failed")
    assert all(_current()[key] is fn for key, fn in before.items())


def test_missing_target_reads_zero_calls():
    tracer = Tracer()
    targets = TARGETS + (
        ("mkdv_series.series", "removed_function", "ops.removed", None, False),
        ("mkdv_series.removed_module", "f", "removed.f", None, False),
    )
    with patched(tracer, targets=targets):
        a0 = CoeffSeq.cosine(2, 0.1)
        series.solve_series(a0, series.SeriesConfig(N=2, K=1, t_grid=(0.01,)))
    totals = layer_totals(tracer.spans)
    assert totals["ops.removed"]["calls"] == 0
    assert totals["ops.tree_term_table"]["calls"] == 1
    assert not hasattr(series, "removed_function")


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "parent": None, "name": "a", "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "name": "b", "start": 1.0, "end": 4.0, "rows": 5},
        {"id": 2, "parent": 0, "name": "b", "start": 5.0, "end": 6.0, "rows": 7},
    ]
    totals = layer_totals(spans)
    assert totals["a"]["self_s"] == 6.0 and totals["a"]["span_s"] == 10.0
    assert totals["b"]["calls"] == 2 and totals["b"]["self_s"] == 4.0
    assert totals["b"]["rows"] == 12


def test_span_records_parent_and_counts():
    tracer = Tracer()
    with patched(tracer, allocations=True):
        a0 = CoeffSeq.cosine(2, 0.1)
        cfg = oracle.OracleConfig(2, 1e-3, "modified_mkdv", 4)
        oracle.oracle_solve_increment(a0, cfg, 4e-3)
        series.solve_series(a0, series.SeriesConfig(N=2, K=1, t_grid=(0.01,)))
    by_name = {s["name"]: s for s in tracer.spans}
    solve = by_name["series.solve_series"]
    table = by_name["ops.tree_term_table"]
    assert table["parent"] == solve["id"] and solve["parent"] is None
    assert table["rows"] == 2**3 and table["peak_mb"] > 0
    assert by_name["oracle.oracle_solve_increment"]["steps"] == 4
