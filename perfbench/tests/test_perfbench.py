"""Tests of the benchmark itself: its checks, its counting and its command.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import projdiff as pd  # noqa: E402
from checks import Bigram, constraint_violations  # noqa: E402
from run import Pass  # noqa: E402
from workloads import WORKLOADS, Program  # noqa: E402

CONSTRAINED = [(w, i) for w in ("linear", "token") for i in range(len(WORKLOADS[w].calls))]


def _seqs(ids: np.ndarray) -> list:
    return [pd.Sequence(tuple(int(v) for v in row)) for row in ids]


def _failed_after_one_round(workload: str, outputs) -> tuple[int, int]:
    """Feed `outputs(index)` through one round of the real counting path."""
    program = Program(pd, WORKLOADS[workload])

    def fake_call(index, rng_seed):
        result = outputs(index)
        if isinstance(result, Exception):
            raise result
        return result

    program.run_call = fake_call
    run = Pass(pd, program, seed=0)
    run.run_round()
    return run.failed, run.attempted


def test_corpora_match_the_acceptance_helper():
    spec = importlib.util.spec_from_file_location("acceptance_conftest", ROOT / "tests" / "conftest.py")
    helper = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(helper)
    for workload in WORKLOADS.values():
        for corpus_spec in workload.corpora.values():
            vocab = helper.make_vocab(corpus_spec.n_data, with_mask=corpus_spec.with_mask)
            ref = helper.make_corpus(vocab, corpus_spec.length, corpus_spec.n_entries, seed=corpus_spec.seed)
            ours = pd.Corpus(vocab, [(pd.Sequence(ids), w) for ids, w in corpus_spec.entries()])
            assert ours.entries == ref.entries


@pytest.mark.parametrize("workload,index", CONSTRAINED)
def test_evaluator_agrees_with_constraint_set(workload, index):
    program = Program(pd, WORKLOADS[workload])
    call = program.workload.calls[index]
    cs = program.constraint_sets[index]
    n = program.workload.corpora[call.corpus].vocab_size
    ids = np.random.default_rng(index).integers(0, n, size=(400, 10))
    # Rows that satisfy each spec, so both outcomes are compared.
    ids[:100] = 0
    ids[:100, 1] = 1
    ids[:100, 3] = 1
    ids[:100, 0] = 2
    ours = constraint_violations(call.constraints, program.workload.linear_weights(call.corpus), ids)
    ref = np.stack([cs.hard_violations(s) for s in _seqs(ids)])
    np.testing.assert_allclose(ours, ref, rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(ours <= 0.0, ref <= 0.0)


def test_perplexity_agrees_with_projdiff():
    for workload in WORKLOADS.values():
        for key, spec in workload.corpora.items():
            program = Program(pd, workload)
            ids = np.random.default_rng(3).integers(0, spec.vocab_size, size=(200, spec.length))
            ours = Bigram(spec.entries(), spec.vocab_size).perplexities(ids)
            model = pd.BigramModel.fit(program.corpora[key])
            ref = np.array([pd.perplexity(s, model) for s in _seqs(ids)])
            np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=0.0)


def _feasible_linear_rows(k: int) -> np.ndarray:
    workload = WORKLOADS["linear"]
    weights = workload.linear_weights("c01")[:12]
    return np.full((k, 10), int(np.argmin(weights)))


def test_violating_and_masked_samples_fail():
    rows = _feasible_linear_rows(16)
    assert _failed_after_one_round("linear", lambda i: (_seqs(rows), None)) == (0, 48)

    weights = WORKLOADS["linear"].linear_weights("c01")[:12]
    bad = rows.copy()
    bad[:2] = int(np.argmax(weights))  # two samples over every tau
    bad[5, 4] = 12  # one MASK id
    assert _failed_after_one_round("linear", lambda i: (_seqs(bad), None)) == (9, 48)


def test_raising_call_and_short_output_fail_all_their_samples():
    rows = _feasible_linear_rows(16)

    def outputs(index):
        if index == 0:
            return pd.InfeasibleSampleError("chain 3 still infeasible")
        if index == 1:
            return _seqs(rows[:15]), None
        return _seqs(rows), None

    assert _failed_after_one_round("linear", outputs) == (32, 48)


def _novel_rows(k: int) -> np.ndarray:
    corpus = {ids for ids, _ in WORKLOADS["novelty"].corpora["c02"].entries()}
    rng = np.random.default_rng(5)
    rows: dict[tuple, None] = {}
    while len(rows) < k:
        row = tuple(int(v) for v in rng.integers(0, 6, size=6))
        if row not in corpus:
            rows[row] = None
    return np.array(list(rows))


def test_novelty_duplicates_and_corpus_members_fail():
    rows = _novel_rows(500)
    assert _failed_after_one_round("novelty", lambda i: (_seqs(rows), None)) == (0, 500)

    bad = rows.copy()
    bad[1] = bad[0]  # a repeat: both copies fail
    bad[7] = WORKLOADS["novelty"].corpora["c02"].entries()[0][0]  # a corpus member
    bad[9, 2] = 6  # a MASK id
    assert _failed_after_one_round("novelty", lambda i: (_seqs(bad), None)) == (4, 500)


def _law_rows(key: str, k: int) -> np.ndarray:
    entries = WORKLOADS["unconstrained"].corpora[key].entries()
    total = sum(w for _, w in entries)
    counts = [int(round(k * w / total)) for _, w in entries]
    counts[0] += k - sum(counts)
    return np.concatenate([np.tile(ids, (c, 1)) for (ids, _), c in zip(entries, counts)])


def test_skewed_unconstrained_histogram_fails_the_whole_call():
    calls = WORKLOADS["unconstrained"].calls
    exact = [_law_rows(c.corpus, c.num_samples) for c in calls]
    assert _failed_after_one_round("unconstrained", lambda i: (_seqs(exact[i]), None)) == (0, 32768)

    skewed = exact[1].copy()
    # Move 8% of the mass from the last entries onto the first: TV 0.08 > 0.05.
    skewed[-int(0.08 * len(skewed)) :] = exact[1][0]
    outputs = [exact[0], skewed]
    assert _failed_after_one_round("unconstrained", lambda i: (_seqs(outputs[i]), None)) == (16384, 32768)


def _run(cwd: Path, workload: str, trace: int, seed: int = 0) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "0.1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_small_run_through_the_command(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert workload in {w["name"] for w in spec["workloads"]}
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == WORKLOADS[workload].samples_per_round
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(tmp_path, "novelty", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
