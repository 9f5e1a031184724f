"""Command-line harness: config-driven sampling runs and reports.

Four subcommands share one JSON config file:

  sample        run the constrained sampler; write samples.txt,
                trace.csv, metrics.json
  oracle-check  compare the fast paths against brute-force oracles;
                print a pass/fail table
  ablate        sweep projection scheduling parameters; write ablation.csv
  eval          recompute metrics.json for an existing samples file

Exit codes: 0 success, 1 usage/parse/I-O error, 2 feasibility failure.
Paths inside the config resolve relative to the config file's directory,
except eval.samples, which resolves relative to the output directory;
--seed overrides the sampling seed and --out the output directory.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import metrics as metrics_mod
from .constraints import (
    ConstraintSet,
    Forbidden,
    LinearScore,
    Position,
    TokenCount,
    load_constraint_file,
)
from .core import Corpus, Sequence, SeqDist, Vocabulary, check_counts, decode, read_sequences, write_sequences
from .denoiser import ExactBayesDenoiser, exact_posterior
from .noise import NoiseKernel
from .oracle import enumerate_cheapest_pattern, enumerate_novelty, enumerate_posterior, grid_kl_project
from .projection import NoveltyDb, alm_project, novelty_project, position_project
from .sampler import InfeasibleSampleError, SampleConfig, check_settings, sample_constrained

TRACE_COLUMNS = (
    "sample",
    "step",
    "projected",
    "pre_violation",
    "post_violation",
    "kl_moved",
    "outer_iters",
)


class CliError(Exception):
    """Configuration or I/O problem; maps to exit code 1."""


def _resolve(base: str, path: str) -> str:
    return path if os.path.isabs(path) else os.path.join(base, path)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"config {path} is not valid JSON: {exc}") from None


def _section(raw: dict, name: str) -> dict:
    value = raw.get(name, {})
    if not isinstance(value, dict):
        raise CliError(f"bad {name} settings: must be a JSON object, got {value!r}")
    return value


class Run:
    """Everything a subcommand needs, built from one config file."""

    def __init__(self, raw: dict, base: str, seed: int | None, out: str | None):
        self.raw = raw
        try:
            vocab_path = _resolve(base, raw["vocab"])
            corpus_path = _resolve(base, raw["corpus"])
        except KeyError as exc:
            raise CliError(f"config is missing required key {exc}") from None
        try:
            self.vocab = Vocabulary.from_file(vocab_path)
            self.corpus = Corpus.from_file(corpus_path, self.vocab)
        except OSError as exc:
            raise CliError(str(exc)) from None
        except ValueError as exc:
            raise CliError(f"bad corpus/vocab: {exc}") from None

        self.cs: ConstraintSet | None = None
        if raw.get("constraints"):
            try:
                self.cs = load_constraint_file(_resolve(base, raw["constraints"]), self.vocab)
                self.cs.check_fits(self.vocab.size, self.corpus.length)
            except OSError as exc:
                raise CliError(str(exc)) from None
            except (ValueError, KeyError) as exc:
                raise CliError(f"bad constraint file: {exc}") from None

        if "alm" in raw:
            # The projection picks its pattern exactly and runs no solver
            # that could read these settings.
            raise CliError("bad sample/alm settings: the alm section is not read; remove it")
        try:
            sample_raw = dict(raw.get("sample", {}))
            sample_raw.setdefault("length", self.corpus.length)
            if seed is not None:
                sample_raw["rng_seed"] = seed
            self.cfg = SampleConfig(**sample_raw)
            check_settings(self.corpus, self.cs, self.cfg)
        except (TypeError, ValueError) as exc:
            raise CliError(f"bad sample/alm settings: {exc}") from None
        kappa = _section(raw, "metrics").get("kappa", 1.0)
        # Negated, so that NaN fails it too.
        if isinstance(kappa, bool) or not isinstance(kappa, (int, float)) or not 0 <= kappa < math.inf:
            raise CliError(f"bad metrics settings: kappa must be a nonnegative finite number, got {kappa!r}")
        self.kappa = float(kappa)
        self.cases = _section(raw, "oracle").get("cases", 50)
        try:
            check_counts(self, cases=1)
        except ValueError as exc:
            raise CliError(f"bad oracle settings: {exc}") from None

        out_dir = out if out is not None else raw.get("out_dir", ".")
        self.out_dir = out_dir if out is not None else _resolve(base, out_dir)
        try:
            os.makedirs(self.out_dir, exist_ok=True)
        except OSError as exc:
            raise CliError(f"cannot create output dir {self.out_dir}: {exc}") from None
        self.seed = seed

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)


def _write_trace(path: str, records) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for rec in records:
            writer.writerow(
                [
                    rec.sample_index,
                    rec.step,
                    int(rec.projected),
                    repr(rec.pre_violation),
                    repr(rec.post_violation),
                    repr(rec.kl_moved),
                    rec.outer_iters,
                ]
            )


def _emitted_infeasible(run: Run, seqs) -> int:
    """Count emitted sequences that miss the run's feasibility target.

    A constrained sample misses it when some constraint is violated,
    the rule the sampler and metrics.json's violation_rate both use.
    """
    mode = run.cfg.projection_mode
    if mode == "novelty":
        db = NoveltyDb.from_corpus(run.corpus)
        return sum(1 for s in seqs if s in db) + (len(seqs) - len(set(seqs)))
    if mode == "none":
        return 0
    return metrics_mod.violation_count(seqs, run.cs)


def cmd_sample(run: Run) -> int:
    denoiser = ExactBayesDenoiser(run.corpus)
    try:
        seqs, traces = sample_constrained(run.corpus, run.cs, run.cfg, denoiser=denoiser)
    except InfeasibleSampleError as exc:
        print(f"sampling failed: {exc}", file=sys.stderr)
        return 2
    write_sequences(run.path("samples.txt"), seqs, run.vocab)
    _write_trace(run.path("trace.csv"), traces)
    summary = metrics_mod.summarize(
        seqs,
        run.corpus,
        cs=run.cs,
        db=NoveltyDb.from_corpus(run.corpus),
        kappa=run.kappa,
    )
    summary["denoiser_fallbacks"] = denoiser.fallback_count
    metrics_mod.write_metrics(run.path("metrics.json"), summary)
    bad = _emitted_infeasible(run, seqs)
    if bad:
        print(f"{bad} emitted sample(s) infeasible", file=sys.stderr)
        return 2
    return 0


def cmd_eval(run: Run) -> int:
    samples_path = _section(run.raw, "eval").get("samples")
    if samples_path is None:
        samples_path = run.path("samples.txt")
    else:
        samples_path = _resolve(run.out_dir, samples_path)
    try:
        seqs = read_sequences(samples_path, run.vocab)
    except OSError as exc:
        raise CliError(str(exc)) from None
    except ValueError as exc:
        raise CliError(f"bad samples file: {exc}") from None
    summary = metrics_mod.summarize(
        seqs,
        run.corpus,
        cs=run.cs,
        db=NoveltyDb.from_corpus(run.corpus),
        kappa=run.kappa,
    )
    metrics_mod.write_metrics(run.path("metrics.json"), summary)
    print(metrics_mod.metrics_json(summary))
    return 0


def _check_denoiser(run: Run, rng, cases: int, corrupt: bool) -> bool:
    corpus = run.corpus
    vocab = run.vocab
    kernels = []
    if vocab.mask_id is not None:
        kernels.append(NoiseKernel.masked(vocab))
    kernels.append(NoiseKernel.uniform(vocab.size))
    seq_arr = corpus.sequences()
    worst = 0.0
    for case in range(cases):
        kernel = kernels[case % len(kernels)]
        a_t = float(rng.uniform(0.05, 0.95))
        entry = seq_arr[rng.integers(0, seq_arr.shape[0])]
        if kernel.kind == "masked":
            keep = rng.random(corpus.length) < 0.5
            ids = np.where(keep, entry, kernel.mask_id)
        else:
            resample = rng.random(corpus.length) < 0.5
            noise = rng.integers(0, vocab.size, size=corpus.length)
            ids = np.where(resample, noise, entry)
        state = Sequence(tuple(int(v) for v in ids))
        fast = exact_posterior(corpus, kernel, state, a_t).rows
        if corrupt:
            fast = fast + 1e-6
            fast = fast / fast.sum(axis=1, keepdims=True)
        slow = enumerate_posterior(corpus, kernel, state, a_t).rows
        worst = max(worst, float(np.abs(fast - slow).max()))
    print(f"  denoiser: worst |fast - oracle| = {worst:.3e} over {cases} cases")
    return worst <= 1e-12


def _random_constraint(rng, n: int):
    kind = rng.choice(["le", "ge", "eq", "forbid", "pos", "lin"])
    tok = int(rng.integers(0, n))
    if kind == "forbid":
        return Forbidden(token=tok)
    if kind == "pos":
        return Position(position=0, token=tok)
    if kind == "lin":
        w = rng.uniform(0.0, 1.0, size=n)
        lo, hi = float(w.min()), float(w.max())
        tau = float(rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)))
        return LinearScore(weights=w, tau=tau)
    k = int(rng.integers(0, 3))
    if kind == "ge" and k == 0:
        k = 1
    return TokenCount(token=tok, op=kind, k=k)


def _check_projection(run: Run, rng, cases: int) -> bool:
    worst_alm = 0.0
    worst_grid = 0.0
    done = 0
    while done < cases:
        seq_len = int(rng.integers(1, 4))
        n = int(rng.integers(2, 5))
        rows = rng.dirichlet(np.ones(n), size=seq_len)
        cs = ConstraintSet([_random_constraint(rng, n)])
        try:
            _, opt = enumerate_cheapest_pattern(rows, cs)
        except ValueError:  # no feasible pattern
            continue
        done += 1
        res = alm_project(SeqDist(rows), cs)
        if not res.feasible:
            print(f"  projection: solver infeasible on a feasible instance ({list(cs)[0].name})")
            return False
        worst_alm = max(worst_alm, res.kl_moved - opt)
        n_grid = int(rng.integers(2, 4))
        row = rng.dirichlet(np.ones(n_grid))
        target = int(rng.integers(0, n_grid))
        pp_row = position_project(SeqDist(row[None, :]), 0, target).rows[0]
        keep = row > 0
        pp_kl = float(np.sum(row[keep] * np.log(row[keep] / pp_row[keep])))
        _, grid_kl = grid_kl_project(row, Position(position=0, token=target))
        worst_grid = max(worst_grid, abs(pp_kl - grid_kl))
    print(f"  projection: worst ALM excess = {worst_alm:.3e}, worst grid gap = {worst_grid:.3e}")
    return worst_alm <= 1e-2 and worst_grid <= 1e-2


def _check_novelty(run: Run, rng, cases: int) -> bool:
    n = run.vocab.size
    seq_len = run.corpus.length
    if n**seq_len > 4096:
        raise CliError(f"novelty oracle needs N^L <= 4096, got {n}^{seq_len}")
    db = NoveltyDb.from_corpus(run.corpus)
    for _ in range(cases):
        rows = rng.dirichlet(np.ones(n), size=seq_len)
        expected, _cost = enumerate_novelty(SeqDist(rows), db)
        got = decode(novelty_project(SeqDist(rows), db).rows)
        if got != expected:
            print(f"  novelty: picked {got.ids}, oracle says {expected.ids}")
            return False
    print(f"  novelty: {cases} selections matched the exhaustive scan")
    return True


def cmd_oracle_check(run: Run) -> int:
    cases = run.cases
    corrupt = bool(_section(run.raw, "oracle").get("corrupt_denoiser", False))
    seed = run.seed if run.seed is not None else run.cfg.rng_seed
    results: list[tuple[str, bool]] = []
    checks = (
        ("denoiser", lambda r: _check_denoiser(run, r, cases, corrupt)),
        ("projection", lambda r: _check_projection(run, r, max(10, cases // 2))),
        ("novelty", lambda r: _check_novelty(run, r, max(5, cases // 4))),
    )
    for name, fn in checks:
        rng = np.random.default_rng(seed)
        ok = fn(rng)
        results.append((name, ok))
    width = max(len(name) for name, _ in results)
    for name, ok in results:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}")
    return 0 if all(ok for _, ok in results) else 1


ABLATE_PARAMS = ("project_every", "project_start")


def cmd_ablate(run: Run) -> int:
    grid_raw = run.raw.get("ablate", {})
    if not isinstance(grid_raw, dict):
        raise CliError("ablate grid must be a JSON object")
    names = [k for k in grid_raw if k in ABLATE_PARAMS]
    unknown = [k for k in grid_raw if k not in names]
    if unknown:
        raise CliError(f"unknown ablate parameter(s): {', '.join(sorted(unknown))}")
    bad = [k for k in names if not isinstance(grid_raw[k], list)]
    if bad:
        raise CliError(f"ablate parameter(s) {', '.join(bad)} must be lists of values")
    if not names or any(not grid_raw[k] for k in names):
        raise CliError("ablate grid is empty")
    # Every cell is checked before any is sampled, so a bad value late in
    # the grid fails the run before it spends time or writes a file.
    cells = []
    for combo in itertools.product(*(grid_raw[k] for k in names)):
        params = dict(zip(names, combo))
        try:
            cfg = replace(run.cfg, trace=False, **params)
        except (TypeError, ValueError) as exc:
            raise CliError(f"bad ablation cell {params}: {exc}") from None
        cells.append((params, cfg))
    rows = []
    for params, cfg in cells:
        start = time.perf_counter()
        try:
            seqs, _ = sample_constrained(run.corpus, run.cs, cfg)
        except InfeasibleSampleError as exc:
            print(f"ablation cell {params} failed: {exc}", file=sys.stderr)
            return 2
        runtime = time.perf_counter() - start
        summary = metrics_mod.summarize(seqs, run.corpus, cs=run.cs, kappa=run.kappa)
        rows.append(
            [params[k] for k in names]
            + [
                repr(summary["violation_rate"]),
                repr(summary["mean_perplexity"]),
                repr(summary["median_perplexity"]),
                f"{runtime:.6f}",
            ]
        )
    with open(run.path("ablation.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + ["violation_rate", "mean_perplexity", "median_perplexity", "runtime_s"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} ablation rows to {run.path('ablation.csv')}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="projdiff",
        description="Constrained discrete-diffusion sampling harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("sample", cmd_sample),
        ("oracle-check", cmd_oracle_check),
        ("ablate", cmd_ablate),
        ("eval", cmd_eval),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override sampling seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.set_defaults(fn=fn)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        raw = _load_json(args.config)
        if not isinstance(raw, dict):
            raise CliError("config root must be a JSON object")
        base = os.path.dirname(os.path.abspath(args.config))
        run = Run(raw, base, args.seed, args.out)
        return args.fn(run)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
