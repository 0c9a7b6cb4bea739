"""Smoke test of the benchmark's workloads (perfbench/workloads.py): each
workload's call and check still run against the package and pass on one
seed-0 input, so a change that breaks them fails here first."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_its_check_on_one_input(name):
    workload = WORKLOADS[name]()
    a0 = workload.inputs(np.random.default_rng(0))[0]
    check = workload.check(a0, workload.reference(a0), workload.run(a0))
    assert check.ok, check.errors
