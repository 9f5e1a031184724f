"""Seeded end-to-end output of the benchmark's workloads stays byte-identical.

perfbench/workloads.py defines the benchmark's fixed calls into the public
sampling API.  Rounds 0-1 at seed 0 run every sampler path the benchmark
times (the lattice search, the gradient loop's fallback, both kernels and
novelty mode), so a change to any of them that moves a single emitted
token moves the digest.
"""

import hashlib
import importlib.util
import os
import sys

import pytest

import projdiff

WORKLOADS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "workloads.py"
)

# sha256 of bytes(seq.ids) over every sequence of rounds 0-1, seed 0, in
# call order; the first 16 hex digits.
DIGESTS = {
    "linear": "66944f8d04255a31",
    "token": "712bf34d90fd1f9b",
    "unconstrained": "9aa10d8bfcbe8a84",
    "novelty": "6376fbce6295f87d",
}

# How often the workload's exact denoisers fell back to their prior over
# the same calls, summed over its corpora.
FALLBACKS = {
    "linear": 1225,
    "token": 1111,
    "unconstrained": 8133,
    "novelty": 1787,
}


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_seeded_workload_output(name):
    module = load_workloads()
    workload = module.WORKLOADS[name]
    program = module.Program(projdiff, workload)
    digest = hashlib.sha256()
    for round_index in range(2):
        for index, seed in enumerate(workload.call_seeds(0, round_index)):
            seqs, _ = program.run_call(index, seed)
            for seq in seqs:
                digest.update(bytes(seq.ids))
    assert digest.hexdigest()[:16] == DIGESTS[name]
    assert sum(d.fallback_count for d in program.denoisers.values()) == FALLBACKS[name]
