"""Experiment driver: data loading, exit codes, manifests, determinism."""

import json
import math

import numpy as np
import pytest

from mkdv_series import NormIndex, oracle, weighted_norm
from mkdv_series.experiments import (
    EXIT_ASSERTION,
    EXIT_BAD_SPEC,
    EXIT_IO,
    EXIT_OK,
    ExperimentError,
    ExperimentSpec,
    load_initial_data,
    main,
    run_experiment,
)


# -- initial data -----------------------------------------------------------


def test_builtin_cosine():
    a = load_initial_data("cosine(0.1)", 6)
    assert a[1] == pytest.approx(0.05) and a[-1] == pytest.approx(0.05)
    assert a[0] == 0.0 and a.cutoff == 6


def test_builtin_delta():
    a = load_initial_data("delta(3, 1)", 6)
    assert a[3] == 1.0 and np.sum(np.abs(a.values)) == 1.0


def test_builtin_random_fl_norm():
    a = load_initial_data("random_fl(0.5, 2, 1.0, seed=1)", 8)
    assert weighted_norm(a, NormIndex(0.5, 2.0)) == pytest.approx(1.0, abs=1e-12)
    b = load_initial_data("random_fl(0.5, 2, 1.0, seed=1)", 8)
    assert np.array_equal(a.values, b.values)


def test_file_round_trip(tmp_path):
    a = load_initial_data("cosine(0.2)", 5)
    path = tmp_path / "data.json"
    path.write_text(a.to_json())
    b = load_initial_data(str(path), 5)
    assert np.array_equal(a.values, b.values)
    c = load_initial_data(str(path), 3)
    assert c.cutoff == 3


def test_file_parse_error_has_line_info(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"cutoff": 2,\n "re": [oops]}')
    with pytest.raises(ExperimentError) as err:
        load_initial_data(str(path), 2)
    assert "broken.json:2" in str(err.value)


def test_bad_builtin_rejected():
    with pytest.raises(ExperimentError):
        load_initial_data("random_fl(0.5)", 4)


# -- experiment runs --------------------------------------------------------


def test_unknown_kind_is_bad_spec(tmp_path):
    rc = run_experiment(ExperimentSpec("nonsense", {}), str(tmp_path))
    assert rc == EXIT_BAD_SPEC


def test_unknown_param_is_bad_spec(tmp_path):
    spec = ExperimentSpec("lemma-bound", {"K": 1, "samples": 5, "bogus_key": 1})
    rc = run_experiment(spec, str(tmp_path))
    assert rc == EXIT_BAD_SPEC


def test_lemma_bound_passes_and_writes_outputs(tmp_path):
    spec = ExperimentSpec("lemma-bound", {"K": 2, "samples": 50})
    rc = run_experiment(spec, str(tmp_path), seed=7)
    assert rc == EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["pass"] is True
    assert all(a["passed"] for a in manifest["assertions"])
    assert "wall_time_s" in manifest and "version" in manifest
    rows = (tmp_path / "lemma_bound.csv").read_text().strip().split("\n")
    assert rows[0].startswith("tree,")
    # 1 + 3 trees, 50 samples, 3 times each
    assert len(rows) == 1 + 4 * 50 * 3


def test_broken_tolerance_fails_with_exit_3(tmp_path):
    # deliberately impossible bounds: lemma ratios must exceed 1 with this
    # constant, and the kernel norm grows by 1.287 from n = 4 to n = 8
    specs = [
        ExperimentSpec("lemma-bound", {"K": 1, "samples": 20, "C": 1e-9}),
        ExperimentSpec("kernel-norms", {"n": [4, 8], "M_factor": 5, "growth_max": 1.0}),
    ]
    for i, spec in enumerate(specs):
        out = tmp_path / str(i)
        rc = run_experiment(spec, str(out), seed=1)
        assert rc == EXIT_ASSERTION
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["pass"] is False
        assert any(not a["passed"] for a in manifest["assertions"])


def test_io_failure_exit_code(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    rc = run_experiment(ExperimentSpec("lemma-bound", {"K": 1, "samples": 2}), str(blocker / "sub"))
    assert rc == EXIT_IO


def test_oracle_compare_zero_data(tmp_path):
    spec = ExperimentSpec(
        "oracle-compare",
        {"data": "delta(0, 0)", "N": 4, "K": 2, "t": 0.01, "dt": 1e-4, "halving": False},
    )
    rc = run_experiment(spec, str(tmp_path))
    assert rc == EXIT_OK
    rows = (tmp_path / "oracle_compare.csv").read_text().strip().split("\n")
    assert float(rows[1].split(",")[1]) == 0.0


def test_oracle_compare_default_spec_measures_halving_order(tmp_path):
    # the default spec also solves at t/2 and asserts the error ratio
    rc = run_experiment(ExperimentSpec("oracle-compare", {}), str(tmp_path))
    assert rc == EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    names = [a["name"] for a in manifest["assertions"]]
    assert names == ["sup-mode error <= tol", "halving ratio >= ratio_min"]
    assert all(a["passed"] for a in manifest["assertions"])
    order = json.loads((tmp_path / "order.json").read_text())
    assert order["measured_order"] >= 3.5
    rows = (tmp_path / "oracle_compare.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + 2


def test_oracle_compare_picard_mode(tmp_path):
    spec = ExperimentSpec(
        "oracle-compare",
        {"oracle": "picard", "N": 4, "K": 2, "t": 0.02, "halving": False, "tol": 1e-8},
    )
    rc = run_experiment(spec, str(tmp_path))
    assert rc == EXIT_OK


def test_kernel_norm_csv_schema(tmp_path):
    spec = ExperimentSpec(
        "kernel-norms", {"n": [4, 8], "M_factor": 5, "growth_max": 10, "growth_min": 0.1}
    )
    rc = run_experiment(spec, str(tmp_path))
    assert rc == EXIT_OK
    rows = (tmp_path / "kernel_norms.csv").read_text().strip().split("\n")
    assert rows[0] == "n,s,p,pair,M,norm"
    assert len(rows) == 1 + 2 * 3
    # the growth over the scan is 1.287, inside both limits
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    checks = {a["name"]: a for a in manifest["assertions"]}
    assert set(checks) == {"norm growth over scan <= growth_max", "norm growth over scan >= growth_min"}
    assert all(a["passed"] for a in checks.values())
    assert checks["norm growth over scan <= growth_max"]["value"] == pytest.approx(1.287, abs=1e-3)


def test_jobs_do_not_change_results(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    spec = ExperimentSpec("lemma-bound", {"K": 2, "samples": 25})
    assert run_experiment(spec, str(a_dir), jobs=1, seed=3) == EXIT_OK
    assert run_experiment(spec, str(b_dir), jobs=3, seed=3) == EXIT_OK
    assert (a_dir / "lemma_bound.csv").read_bytes() == (b_dir / "lemma_bound.csv").read_bytes()


def test_rerun_byte_identical(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    spec = ExperimentSpec("convergence", {"N": 3, "K": 2, "R": [0.5]})
    assert run_experiment(spec, str(a_dir), seed=5) == EXIT_OK
    assert run_experiment(spec, str(b_dir), seed=5) == EXIT_OK
    assert (a_dir / "convergence.csv").read_bytes() == (b_dir / "convergence.csv").read_bytes()
    ma = json.loads((a_dir / "manifest.json").read_text())
    mb = json.loads((b_dir / "manifest.json").read_text())
    ma.pop("wall_time_s"), mb.pop("wall_time_s")
    assert ma == mb


def test_cli_main_exit_codes(tmp_path):
    out = str(tmp_path / "run")
    rc = main(
        [
            "--experiment",
            "residual",
            "--param",
            "N=4",
            "--param",
            "K=1",
            "--param",
            "t=0.02",
            "--param",
            "grid_points=17",
            "--param",
            "tol=1e-3",
            "--out",
            out,
            "--seed",
            "1",
        ]
    )
    assert rc == EXIT_OK
    assert main(["--experiment", "residual", "--param", "badkey=1", "--out", out]) == EXIT_BAD_SPEC
    assert main(["--experiment", "residual", "--param", "notkeyvalue", "--out", out]) == EXIT_BAD_SPEC


def test_residual_of_the_plain_flow(tmp_path):
    # the plain flow's residual is taken on the gauged series; on the
    # mean-subtracted one it stalls near 1.25e-5 for every K
    assert main(["--experiment", "residual", "--param", 'equation="mkdv"', "--out", str(tmp_path / "a")]) == EXIT_OK
    rows = (tmp_path / "a" / "residual.csv").read_text().strip().split("\n")[1:]
    res = [float(r.split(",")[1]) for r in rows]
    assert len(res) == 3 and res[0] > res[1] > res[2]
    bogus = ["--experiment", "residual", "--param", 'equation="kdv"', "--out", str(tmp_path / "b")]
    assert main(bogus) == EXIT_BAD_SPEC


def test_gauge_check_small(tmp_path):
    spec = ExperimentSpec("gauge-check", {"N": 6, "eps": 0.2, "t": 0.05, "dt": 1e-3, "tol": 1e-8})
    rc = run_experiment(spec, str(tmp_path))
    assert rc == EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    value = [a for a in manifest["assertions"] if "gauge" in a["name"]][0]["value"]
    assert value < 1e-10  # recorded measured value, far below tolerance


@pytest.mark.parametrize(
    "kind, params, route",
    [
        ("oracle-compare", {"data": "delta(0, 0)", "N": 4, "K": 2, "t": 0.01, "dt": 1e-4, "halving": False}, "direct"),
        ("gauge-check", {"N": oracle._FFT_MIN_N, "eps": 0.2, "t": 2e-5, "dt": 2e-6}, "fft-real"),
    ],
)
def test_manifest_records_rhs_route(tmp_path, kind, params, route):
    assert run_experiment(ExperimentSpec(kind, params), str(tmp_path)) == EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["oracle"] == {"cutoff": params["N"], "rhs_route": route, "fft_min_n": oracle._FFT_MIN_N}


@pytest.mark.parametrize(
    "argv",
    [
        # dt over the stability guard 0.5 / (1 + 64^3) ~ 1.9e-6
        ["--experiment", "gauge-check", "--param", "N=64", "--param", "t=2e-5", "--param", "dt=2e-6"],
        # t = 0.01 is not a whole number of steps of 3e-4
        ["--experiment", "oracle-compare", "--param", "N=4", "--param", "K=1", "--param", "t=0.01", "--param", "dt=3e-4"],
        # t = 0.01 is 5 steps of 2e-3, but the halved time 0.005 is 2.5
        ["--experiment", "oracle-compare", "--param", "N=4", "--param", "K=1", "--param", "t=0.01", "--param", "dt=2e-3"],
    ],
)
def test_oracle_spec_rejected_with_exit_2(tmp_path, argv):
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == EXIT_BAD_SPEC
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        # p < 1 is no norm index, for the series norm or a kernel's p'
        ["--experiment", "convergence", "--param", "p=0.5"],
        ["--experiment", "kernel-norms", "--param", "p=0.5"],
        # the residual's Simpson rule needs at least 9 grid points
        ["--experiment", "residual", "--param", "grid_points=3"],
        # the integral bounds hold for t in [0, 1]
        ["--experiment", "lemma-bound", "--param", "t=[2.0]"],
        # the growth ratio divides by the first norm, and the m1 kernel's
        # norm at n = 0 is exactly 0
        ["--experiment", "kernel-norms", "--param", "n=[0,4]", "--param", "growth_max=10"],
        # a scalar where a list is expected
        ["--experiment", "convergence", "--param", "R=1.0"],
        ["--experiment", "kernel-norms", "--param", "n=4"],
        ["--experiment", "lemma-bound", "--param", "t=0.5"],
        # a flag that is not a JSON boolean; bool("False") is True
        ["--experiment", "oracle-compare", "--param", "project_internal=False"],
        ["--experiment", "oracle-compare", "--param", "halving=False"],
        ["--experiment", "residual", "--param", "project_internal=0"],
    ],
)
def test_refused_param_rejected_with_exit_2(tmp_path, argv):
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == EXIT_BAD_SPEC
    assert not (out / "manifest.json").exists()


def test_json_boolean_flags_are_read(tmp_path):
    # false turns the projection and the halving row off
    argv = ["--experiment", "oracle-compare", "--param", "N=2", "--param", "K=1", "--param", "t=0.01"]
    argv += ["--param", "dt=1e-3", "--param", "project_internal=false", "--param", "halving=false"]
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert [a["name"] for a in manifest["assertions"]] == ["sup-mode error <= tol"]
    assert json.loads((tmp_path / "solution.json").read_text())["config"]["project_internal"] is False


@pytest.mark.parametrize("data", ["NaN", "Infinity", "-Infinity", "cosine(nan)", "delta(1, inf)"])
def test_non_finite_data_rejected_with_exit_2(tmp_path, data):
    # json reads NaN and Infinity, and float() reads nan and inf in a
    # builtin's arguments; such data are a bad spec
    if "(" not in data:
        path = tmp_path / "data.json"
        path.write_text(f'{{"cutoff": 2, "re": [0, {data}, 0, 0.5, 0], "im": [0, 0, 0, 0, 0]}}')
        data = str(path)
    out = tmp_path / "run"
    argv = ["--experiment", "oracle-compare", "--param", f'data="{data}"', "--param", "N=2", "--param", "K=1"]
    assert main(argv + ["--out", str(out)]) == EXIT_BAD_SPEC
    assert not (out / "manifest.json").exists()


def test_non_finite_errors_fail_the_halving_row(tmp_path):
    # amplitude 1e120 overflows the series and the oracle to NaN: neither
    # the error row nor the halving ratio between two NaN errors may pass
    argv = ["--experiment", "oracle-compare", "--param", 'data="cosine(1e120)"', "--param", "N=2", "--param", "K=1"]
    with np.errstate(all="ignore"):
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_ASSERTION
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert [a["name"] for a in manifest["assertions"]] == ["sup-mode error <= tol", "halving ratio >= ratio_min"]
    assert not any(a["passed"] for a in manifest["assertions"])


@pytest.mark.parametrize(
    "kind, params, csv_name",
    [
        ("convergence", {"N": 3, "K": 2, "R": [0.5, 1.0]}, "convergence.csv"),
        ("gauge-check", {"N": 4, "t": 0.01, "dt": 1e-3, "tol": 1e-8}, "gauge_check.csv"),
    ],
)
def test_csv_cells_are_plain_numbers(tmp_path, kind, params, csv_name):
    # numpy scalars must not reach the CSV as "np.float64(...)"
    assert run_experiment(ExperimentSpec(kind, params), str(tmp_path)) == EXIT_OK
    lines = (tmp_path / csv_name).read_text().splitlines()
    assert len(lines) > 1
    for line in lines[1:]:
        for cell in line.split(","):
            float(cell)
