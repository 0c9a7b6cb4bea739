"""Batch experiment driver.

Each experiment kind reproduces one family of checkable claims: series
convergence envelopes, oscillatory-integral bound sweeps, kernel-norm
scans, series-versus-oracle comparisons, gauge equivalence of the two
flows, and integral-equation residuals.  Runs are deterministic for a
fixed seed, emit plot-ready CSV plus a JSON manifest with explicit
pass/fail per assertion, and exit with a distinct status per failure
class.

Command line::

    mkdv-series --experiment lemma-bound --param K=3 --param samples=1000 \
                --out results/ --seed 7 --jobs 4

Exit codes: 0 ok, 2 bad experiment spec, 3 assertion failure, 4 I/O error.
The environment variable SERIES_LOG in {error, info, debug} controls
verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import re
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .indexer import build_assignment
from .oracle import OracleConfig, invariant_drift, oracle_solve, oracle_solve_increment, picard_iterate, rhs_route
from .ops import integral_bound, integral_exact, kernel_norm_scan, parity_bound
from .series import SeriesConfig, ode_residual, radius_certificate, solve_mkdv_gauged, solve_series
from .spectral import CoeffSeq, NormIndex, gauge_shift, l2_mass, random_real_field, truncate_modes, weighted_norm
from .trees import enumerate_trees

__all__ = ["ExperimentSpec", "ExperimentError", "load_initial_data", "run_experiment", "main"]

EXIT_OK = 0
EXIT_BAD_SPEC = 2
EXIT_ASSERTION = 3
EXIT_IO = 4

logger = logging.getLogger("mkdv_series")


class ExperimentError(ValueError):
    """Invalid experiment specification."""


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    params: dict


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

_BUILTIN_RE = re.compile(r"^(\w+)\((.*)\)$")


def load_initial_data(source: str, N: int) -> CoeffSeq:
    """Initial data from a builtin constructor or a JSON file.

    Builtins: ``cosine(eps)``, ``delta(n, amp)``, and
    ``random_fl(s, p, R, seed=...)`` which draws real-field data with the
    requested weighted norm.  Anything else is treated as a path to a JSON
    file with the sequence schema {"cutoff": N, "re": [...], "im": [...]}.
    Data with a NaN or infinite coefficient are rejected.
    """
    seq = _read_initial_data(source, N)
    if not np.all(np.isfinite(seq.values)):
        raise ExperimentError(f"{source}: non-finite coefficient (NaN or Infinity)")
    return seq


def _exact_int(name, x: float) -> int:
    """A builtin's argument, parsed as a float, as the integer it equals."""
    if not x.is_integer():
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return int(x)


def _read_initial_data(source: str, N: int) -> CoeffSeq:
    m = _BUILTIN_RE.match(source.strip())
    if m and m.group(1) in ("cosine", "delta", "random_fl"):
        name = m.group(1)
        args, kwargs = [], {}
        body = m.group(2).strip()
        if body:
            for piece in body.split(","):
                piece = piece.strip()
                if "=" in piece:
                    k, v = piece.split("=", 1)
                    kwargs[k.strip()] = float(v)
                else:
                    args.append(float(piece))
        try:
            if name == "cosine":
                return CoeffSeq.cosine(N, *args, **kwargs)
            if name == "delta":
                return CoeffSeq.delta(N, _exact_int("mode", args[0]), *args[1:], **kwargs)
            seed = _exact_int("seed", kwargs.pop("seed", 0.0))
            if kwargs:
                raise ValueError(f"unknown keyword(s) {', '.join(sorted(kwargs))}")
            s, p, radius = args
            rng = np.random.default_rng(seed)
            return random_real_field(N, NormIndex(s, p), radius, rng)
        except (TypeError, ValueError, IndexError) as exc:
            raise ExperimentError(f"bad builtin data {source!r}: {exc}") from exc
    try:
        with open(source) as fh:
            seq = CoeffSeq.from_json(fh.read())
    except json.JSONDecodeError as exc:
        raise ExperimentError(
            f"{source}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})"
        ) from exc
    except (KeyError, ValueError) as exc:
        raise ExperimentError(f"{source}: bad sequence data ({exc})") from exc
    if seq.cutoff < N:
        raise ExperimentError(
            f"{source}: cutoff {seq.cutoff} below the requested N={N}"
        )
    return truncate_modes(seq, N)


# ---------------------------------------------------------------------------
# experiment implementations
#
# Each pops its parameters from ``params`` and returns the leftover
# parameters, its assertion rows and any extra manifest fields.
# ---------------------------------------------------------------------------


def _checked(key, value, kind):
    # a JSON true or false is a bool, never an int, though Python's bool is one
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ExperimentError(f"{key} expects a JSON {kind.__name__}, got {value!r}")
    return value


def _pop(params, key, default, kind):
    return _checked(key, params.pop(key, default), kind)


def _assert_row(name, value, threshold, passed):
    return {"name": name, "value": value, "threshold": threshold, "passed": bool(passed)}


def _fmt(x) -> str:
    if isinstance(x, np.generic):  # numpy scalars print as np.float64(...)
        x = x.item()
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _map(fn, tasks, jobs):
    """fn over the tasks, in a pool of ``jobs`` processes when jobs > 1."""
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _exp_convergence(params, out, seed, jobs):
    N = _pop(params, "N", 5, int)
    K = _pop(params, "K", 3, int)
    s = float(params.pop("s", 0.5))
    p = float(params.pop("p", 2.0))
    radii = [float(v) for v in _pop(params, "R", [0.5, 1.0, 2.0], list)]
    C = float(params.pop("C", 16.0))
    ratio_max = float(params.pop("ratio_max", 0.5))
    idx = NormIndex(s, p)
    rows, assertions = [], []
    for i, R in enumerate(radii):
        rng = np.random.default_rng(seed + i)
        a0 = random_real_field(N, idx, R, rng)
        t = radius_certificate(R, C)
        cfg = SeriesConfig(N=N, K=K, t_grid=(t,), norm=idx, C_bound=C)
        sol = solve_series(a0, cfg)
        dn = sol.depth_norms[0]
        for k in range(1, K + 1):
            env = (C * t) ** (k / 2.0) * R ** (2 * k + 1)
            ratio = dn[k] / dn[k - 1]
            rows.append((R, k, t, dn[k], env, ratio))
            assertions.append(
                _assert_row(f"R={R} depth {k} norm within envelope", dn[k], env, dn[k] <= env)
            )
            assertions.append(
                _assert_row(f"R={R} depth {k} ratio", ratio, ratio_max, ratio <= ratio_max)
            )
        (out / f"solution_R{R}.json").write_text(json.dumps(sol.to_json_dict(), sort_keys=True))
    _csv(out / "convergence.csv", ["R", "k", "t", "term_norm", "envelope", "ratio"], rows)
    return params, assertions, {}


def _lemma_tree_task(args):
    tree, samples, leaf_range, times, C, seed = args
    rng = np.random.default_rng(seed)
    L = len(tree.leaves)
    rows = []
    got = 0
    while got < samples:
        lm = rng.integers(-leaf_range, leaf_range + 1, size=L)
        a = build_assignment(tree, lm.tolist())
        if a is None:
            continue
        got += 1
        for t in times:
            I = abs(integral_exact(a, t))
            bound = integral_bound(a, t, C)
            par = parity_bound(a, t)
            rows.append(
                (
                    tree.preorder,
                    got,
                    ";".join(str(x) for x in a.sigmas),
                    t,
                    I,
                    bound,
                    I / bound,
                    I / par,
                )
            )
    return rows


def _exp_lemma_bound(params, out, seed, jobs):
    K = _pop(params, "K", 3, int)
    samples = _pop(params, "samples", 1000, int)
    leaf_range = _pop(params, "leaf_range", 16, int)
    times = [float(v) for v in _pop(params, "t", [0.01, 0.1, 1.0], list)]
    C = float(params.pop("C", 16.0))
    tasks = []
    i = 0
    for k in range(1, K + 1):
        for tree in enumerate_trees(k):
            tasks.append((tree, samples, leaf_range, tuple(times), C, seed + i))
            i += 1
    rows = [r for chunk in _map(_lemma_tree_task, tasks, jobs) for r in chunk]
    worst = max(r[6] for r in rows)
    worst_parity = max(r[7] for r in rows)
    _csv(
        out / "lemma_bound.csv",
        ["tree", "sample", "sigma_profile", "t", "abs_integral", "bound", "ratio", "parity_ratio"],
        rows,
    )
    assertions = [
        _assert_row("all integral/bound ratios <= 1", worst, 1.0, worst <= 1.0),
        _assert_row("all integral/parity-bound ratios <= 1", worst_parity, 1.0, worst_parity <= 1.0),
    ]
    return params, assertions, {}


def _kernel_task(args):
    n, s, p, pair, M, which = args
    return (n, s, p, pair, M, kernel_norm_scan(n, s, p, pair, M, which))


def _exp_kernel_norms(params, out, seed, jobs):
    s = float(params.pop("s", 0.5))
    p = float(params.pop("p", 2.0))
    which = str(params.pop("which", "m1"))
    n_list = [_checked("n", v, int) for v in _pop(params, "n", [4, 16, 64, 256], list)]
    M_factor = _pop(params, "M_factor", 10, int)
    limits = [(key, params.pop(key, None), op) for key, op in (("growth_max", "<="), ("growth_min", ">="))]
    pairs = ((1, 2), (1, 3), (2, 3))
    tasks = [(n, s, p, pair, M_factor * n, which) for n in n_list for pair in pairs]
    results = _map(_kernel_task, tasks, jobs)
    rows = [(n, s, p, f"{i}-{j}", M, v) for (n, s, p, (i, j), M, v) in results]
    _csv(out / "kernel_norms.csv", ["n", "s", "p", "pair", "M", "norm"], rows)
    by_n = {}
    for n, _, _, _, _, v in rows:
        by_n.setdefault(n, []).append(v)
    scan = [min(by_n[n]) for n in n_list]
    assertions = []
    for key, bound, op in limits:
        if bound is not None:
            if scan[0] == 0.0:
                raise ExperimentError(f"{key} needs a nonzero norm at the first n, got 0 at n = {n_list[0]}")
            g, b = max(scan) / scan[0], float(bound)
            ok = g <= b if op == "<=" else g >= b
            assertions.append(_assert_row(f"norm growth over scan {op} {key}", g, b, ok))
    return params, assertions, {}


def _oracle_config(N, dt, equation, t):
    """RK4 oracle configuration for a run to time t; a step size the oracle
    would refuse raises ValueError, a bad spec, before any work is done."""
    cfg = OracleConfig(N, dt, equation)  # rejects a dt not finite and positive before t / dt
    cfg = replace(cfg, steps=int(round(t / dt)))
    cfg.check_run(t)
    return cfg


def _exp_oracle_compare(params, out, seed, jobs):
    N = _pop(params, "N", 6, int)
    K = _pop(params, "K", 3, int)
    t = float(params.pop("t", 0.02))
    dt = float(params.pop("dt", 1e-5))
    data = str(params.pop("data", "cosine(0.1)"))
    project = _pop(params, "project_internal", True, bool)
    tol = float(params.pop("tol", 1e-6))
    oracle_kind = str(params.pop("oracle", "rk4"))
    grid_points = _pop(params, "grid_points", 65, int)
    halving = _pop(params, "halving", True, bool)
    ratio_min = float(params.pop("ratio_min", 2.0**3.5))
    a0 = load_initial_data(data, N)
    if oracle_kind not in ("rk4", "picard"):
        raise ExperimentError(f"unknown oracle {oracle_kind!r}")
    times = (t, t / 2) if halving else (t,)
    rk4 = {tt: _oracle_config(N, dt, "modified_mkdv", tt) for tt in times} if oracle_kind == "rk4" else {}

    def one(tt):
        cfg = SeriesConfig(N=N, K=K, t_grid=(tt,), project_internal=project)
        sol = solve_series(a0, cfg)
        if oracle_kind == "picard":
            grid = np.linspace(0.0, tt, grid_points)
            ref = picard_iterate(a0, grid, K)
            diff = sol.final.values - ref.values[-1]
        else:
            ref = oracle_solve_increment(a0, rk4[tt], tt)
            diff = sol.increment_at(0).values - ref.values[-1]
        return sol, float(np.max(np.abs(diff)))

    sol, err = one(t)
    rows = [(t, err)]
    assertions = [_assert_row("sup-mode error <= tol", err, tol, err <= tol)]
    if halving:
        _, err_half = one(t / 2)
        rows.append((t / 2, err_half))
        ratio = err / err_half if err_half > 0 else math.inf
        order = math.log2(ratio) if 0 < ratio < math.inf else math.inf
        finite = math.isfinite(err) and math.isfinite(err_half)
        assertions.append(_assert_row("halving ratio >= ratio_min", ratio, ratio_min, finite and ratio >= ratio_min))
        (out / "order.json").write_text(
            json.dumps({"ratio": ratio, "measured_order": order}, sort_keys=True)
        )
    _csv(out / "oracle_compare.csv", ["t", "sup_mode_error"], rows)
    (out / "solution.json").write_text(json.dumps(sol.to_json_dict(), sort_keys=True))
    return params, assertions, {"oracle": rhs_route(a0)}


def _exp_gauge_check(params, out, seed, jobs):
    N = _pop(params, "N", 16, int)
    eps = float(params.pop("eps", 0.1))
    t = float(params.pop("t", 0.5))
    dt = float(params.pop("dt", 1e-4))
    tol = float(params.pop("tol", 1e-6))
    mod_cfg = _oracle_config(N, dt, "modified_mkdv", t)
    plain_cfg = replace(mod_cfg, equation="mkdv")
    a0 = CoeffSeq.cosine(N, eps)
    steps = mod_cfg.steps
    mod = oracle_solve(a0, mod_cfg, t)
    plain = oracle_solve(a0, plain_cfg, t)
    c = l2_mass(a0)
    rows = []
    stride = max(1, steps // 50)
    for i in range(0, steps + 1, stride):
        ti = mod.times[i]
        shifted = gauge_shift(mod.at(i), -c, ti)
        rows.append((ti, float(np.max(np.abs(shifted.values - plain.values[i])))))
    final = gauge_shift(mod.final, -c, t)
    err = float(np.max(np.abs(final.values - plain.values[-1])))
    _csv(out / "gauge_check.csv", ["t", "sup_mode_error"], rows)
    drift = max(invariant_drift(mod), invariant_drift(plain))
    assertions = [
        _assert_row("gauge-equivalence sup-mode error <= tol", err, tol, err <= tol),
        _assert_row("mass drift both flows <= 1e-8", drift, 1e-8, drift <= 1e-8),
    ]
    return params, assertions, {"oracle": rhs_route(a0)}


def _exp_residual(params, out, seed, jobs):
    N = _pop(params, "N", 8, int)
    K = _pop(params, "K", 3, int)
    t = float(params.pop("t", 0.05))
    grid_points = _pop(params, "grid_points", 65, int)
    data = str(params.pop("data", "cosine(0.1)"))
    project = _pop(params, "project_internal", True, bool)
    tol = float(params.pop("tol", 1e-6))
    equation = str(params.pop("equation", "modified_mkdv"))
    # the plain flow is the mean-subtracted series translated by the mass
    solvers = {"modified_mkdv": solve_series, "mkdv": solve_mkdv_gauged}
    if equation not in solvers:
        raise ExperimentError(f"unknown equation {equation!r}; expected one of {sorted(solvers)}")
    a0 = load_initial_data(data, N)
    grid = tuple(np.linspace(0.0, t, grid_points))
    rows = []
    final_res = None
    for KK in range(1, K + 1):
        cfg = SeriesConfig(N=N, K=KK, t_grid=grid, project_internal=project)
        sol = solvers[equation](a0, cfg)
        r = ode_residual(sol, a0, cfg)
        rows.append((KK, r))
        final_res = r
    _csv(out / "residual.csv", ["K", "residual"], rows)
    decreasing = all(b < a for (_, a), (_, b) in zip(rows, rows[1:]))
    assertions = [
        _assert_row(f"residual at K={K} <= tol", final_res, tol, final_res <= tol),
        _assert_row("residual decreases with K", float(decreasing), 1.0, decreasing),
    ]
    return params, assertions, {}


_EXPERIMENTS = {
    "convergence": _exp_convergence,
    "lemma-bound": _exp_lemma_bound,
    "kernel-norms": _exp_kernel_norms,
    "oracle-compare": _exp_oracle_compare,
    "gauge-check": _exp_gauge_check,
    "residual": _exp_residual,
}


def _version_string() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return f"mkdv-series-{__version__}"


def run_experiment(spec: ExperimentSpec, out_dir: str, jobs: int = 1, seed: int = 0) -> int:
    """Run one experiment, write its CSV outputs and manifest, and return
    the exit status (0 ok, 2 bad spec, 3 assertion failure, 4 I/O)."""
    from pathlib import Path

    if spec.kind not in _EXPERIMENTS:
        logger.error("unknown experiment kind %r", spec.kind)
        return EXIT_BAD_SPEC
    try:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        logger.error("cannot create output directory: %s", exc)
        return EXIT_IO

    params = dict(spec.params)
    start = time.time()
    try:
        leftover, assertions, fields = _EXPERIMENTS[spec.kind](params, out, seed, jobs)
    except ValueError as exc:  # ExperimentError, or a parameter a solver refuses
        logger.error("bad experiment spec: %s", exc)
        return EXIT_BAD_SPEC
    except OSError as exc:
        logger.error("I/O failure: %s", exc)
        return EXIT_IO
    if leftover:
        logger.error("unknown parameter(s): %s", ", ".join(sorted(leftover)))
        return EXIT_BAD_SPEC

    ok = all(a["passed"] for a in assertions)
    manifest = {
        "experiment": spec.kind,
        "params": {k: v for k, v in spec.params.items()},
        "seed": seed,
        "jobs": jobs,
        "version": _version_string(),
        "wall_time_s": time.time() - start,
        "assertions": assertions,
        "pass": ok,
        **fields,
    }
    try:
        (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2))
    except OSError as exc:
        logger.error("cannot write manifest: %s", exc)
        return EXIT_IO
    for a in assertions:
        logger.info(
            "%s: %s (value %s, threshold %s)",
            "PASS" if a["passed"] else "FAIL",
            a["name"],
            a["value"],
            a["threshold"],
        )
    return EXIT_OK if ok else EXIT_ASSERTION


def _parse_param(text: str):
    if "=" not in text:
        raise ExperimentError(f"--param expects key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def main(argv=None) -> int:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("SERIES_LOG", "info").lower(), logging.INFO
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")

    parser = argparse.ArgumentParser(
        prog="mkdv-series",
        description="Run one verification experiment and write CSV/JSON results.",
    )
    parser.add_argument(
        "--experiment",
        required=True,
        choices=sorted(_EXPERIMENTS),
        help="experiment kind",
    )
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="experiment parameter override (repeatable); values parse as JSON",
    )
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--jobs", type=int, default=1, help="worker cap for parallel sweeps")
    parser.add_argument("--seed", type=int, default=0, help="random seed (u64)")
    args = parser.parse_args(argv)

    try:
        params = dict(_parse_param(p) for p in args.param)
    except ExperimentError as exc:
        logger.error("%s", exc)
        return EXIT_BAD_SPEC
    spec = ExperimentSpec(args.experiment, params)
    return run_experiment(spec, args.out, jobs=max(1, args.jobs), seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
