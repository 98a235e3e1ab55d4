"""The benchmark's workloads call rirkit's public functions by name, with the
arguments the subcommands use. Run each one once, shrunk, through the calls
the benchmark makes (synthesize, setup, run_chunk, check_chunk), so a change
that breaks one of those calls fails here, not first in a benchmark run."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


class SmallAugment(workloads.Augment):
    CLEAN_FILES, MANIFEST_ROWS, CHUNK, RIRS, NOISES = 2, 4, 4, 2, 2


@pytest.mark.parametrize("workload", [
    workloads.TrainD4(),
    workloads.Generate("smoke", d=1, refs=16, n=1),
    SmallAugment(),
], ids=lambda wl: wl.name)
def test_one_chunk_runs_and_checks_clean(tmp_path, workload):
    seed, indir, outdir = 2, tmp_path / "in", tmp_path / "out"
    workload.synthesize(seed, indir)
    state = workload.setup(seed, indir)
    result = workload.run_chunk(state, 0, outdir, tracer=SimpleNamespace(active=False))
    check = workload.check_chunk(state, {}, 0, result, outdir)
    assert check.problems == []
    assert check.failed == 0 and check.attempted > 0
