"""Seeded workload definitions and the program-side set-up.

A workload is a fixed list of calls into the public sampling API.  One
round makes every call once; a run repeats rounds, each with fresh
sampler seeds drawn from the workload seed, until its time is up.  The
corpora, weights and constraints are the acceptance-test shapes (c01,
c02, c04) and do not depend on the seed; the seed picks the sampler
streams, so two seeds give two different sets of chains over the same
inputs.

Everything a check needs (corpus law, constraint parameters) is kept
here as plain numbers, so the checks never read it back from the
program's own objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CorpusSpec:
    """Random distinct sequences over `n_data` tokens with weights 1-3.

    The same draw as the acceptance tests' `make_corpus` helper, so the
    workloads sample the corpora those tests use.
    """

    n_data: int
    with_mask: bool
    length: int
    n_entries: int
    seed: int

    @property
    def vocab_size(self) -> int:
        return self.n_data + (1 if self.with_mask else 0)

    @property
    def mask_id(self) -> int | None:
        return self.n_data if self.with_mask else None

    def entries(self) -> list[tuple[tuple[int, ...], float]]:
        rng = np.random.default_rng(self.seed)
        seen: set[tuple[int, ...]] = set()
        out = []
        while len(out) < self.n_entries:
            ids = tuple(int(v) for v in rng.integers(0, self.n_data, size=self.length))
            if ids in seen:
                continue
            seen.add(ids)
            out.append((ids, float(rng.integers(1, 4))))
        return out


# Constraint specs: ("linear", tau), ("count", token, op, k),
# ("position", position, token), ("forbidden", token).  Linear weights
# are shared by every linear spec of a workload.
LINEAR_WEIGHT_SEED = 0


@dataclass(frozen=True)
class CallSpec:
    """One call of a round: a sampler configuration plus its constraints."""

    label: str
    corpus: str
    mode: str  # "alm", "novelty" or "none"
    num_samples: int
    steps: int
    kernel: str = "masked"
    constraints: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    corpora: dict
    calls: tuple

    def linear_weights(self, corpus: str) -> np.ndarray:
        size = self.corpora[corpus].vocab_size
        return np.random.default_rng(LINEAR_WEIGHT_SEED).uniform(0.0, 1.0, size=size)

    def call_seeds(self, seed: int, round_index: int) -> list[int]:
        """Sampler seeds of one round; the same (seed, round) gives the same seeds."""
        state = np.random.SeedSequence([seed, round_index]).generate_state(len(self.calls))
        return [int(s) for s in state]

    @property
    def samples_per_round(self) -> int:
        return sum(c.num_samples for c in self.calls)


C01 = {"c01": CorpusSpec(n_data=12, with_mask=True, length=10, n_entries=16, seed=11)}
C01_BATCH = 16

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "linear",
            C01,
            tuple(
                CallSpec(f"linear_tau{tau}", "c01", "alm", C01_BATCH, 16, constraints=(("linear", tau),))
                for tau in (0.25, 0.5, 0.75)
            ),
        ),
        Workload(
            "token",
            C01,
            (
                CallSpec("count_le", "c01", "alm", C01_BATCH, 16, constraints=(("count", 0, "le", 2),)),
                CallSpec("count_eq", "c01", "alm", C01_BATCH, 16, constraints=(("count", 1, "eq", 2),)),
                CallSpec(
                    "position", "c01", "alm", C01_BATCH, 16, constraints=(("position", 0, 2), ("position", 5, 0))
                ),
                CallSpec("forbidden", "c01", "alm", C01_BATCH, 16, constraints=(("forbidden", 3),)),
            ),
        ),
        Workload(
            "unconstrained",
            {
                "masked": CorpusSpec(n_data=3, with_mask=True, length=3, n_entries=6, seed=5),
                "uniform": CorpusSpec(n_data=4, with_mask=False, length=3, n_entries=6, seed=7),
            },
            (
                CallSpec("masked", "masked", "none", 16384, 32, kernel="masked"),
                CallSpec("uniform", "uniform", "none", 16384, 32, kernel="uniform"),
            ),
        ),
        Workload(
            "novelty",
            {"c02": CorpusSpec(n_data=6, with_mask=True, length=6, n_entries=10, seed=23)},
            (CallSpec("novelty", "c02", "novelty", 500, 12),),
        ),
    )
}


class Program:
    """The program-side objects one process needs before sampling starts.

    Built through the public API only: vocabulary, corpus, constraint
    sets, an exact denoiser per corpus with its one-hot table warmed by
    one posterior call, and the program's bigram model.
    """

    def __init__(self, pd, workload: Workload):
        self.pd = pd
        self.workload = workload
        self.corpora = {}
        self.denoisers = {}
        self.bigrams = {}
        for key, spec in workload.corpora.items():
            letters = tuple("abcdefghijklmnop"[: spec.n_data])
            vocab = pd.Vocabulary(letters + (("[MASK]",) if spec.with_mask else ()), mask_id=spec.mask_id)
            corpus = pd.Corpus(vocab, [(pd.Sequence(ids), w) for ids, w in spec.entries()])
            denoiser = pd.ExactBayesDenoiser(corpus)
            kernel_kind = "masked" if spec.with_mask else "uniform"
            kernel = pd.NoiseKernel.for_vocab(kernel_kind, vocab)
            probe = np.full((1, spec.length), spec.mask_id if spec.with_mask else 0, dtype=np.int64)
            denoiser.posterior_batch(probe, 0.5, kernel)
            self.corpora[key] = corpus
            self.denoisers[key] = denoiser
            # Every CLI run fits this model, so set-up pays for it; the
            # checks score perplexity with a model of their own.
            self.bigrams[key] = pd.BigramModel.fit(corpus)
        self.constraint_sets = [self._constraint_set(call) for call in workload.calls]

    def _constraint_set(self, call: CallSpec):
        pd = self.pd
        if not call.constraints:
            return None
        out = []
        for spec in call.constraints:
            kind = spec[0]
            if kind == "linear":
                out.append(pd.LinearScore(weights=self.workload.linear_weights(call.corpus), tau=spec[1]))
            elif kind == "count":
                out.append(pd.TokenCount(token=spec[1], op=spec[2], k=spec[3]))
            elif kind == "position":
                out.append(pd.Position(position=spec[1], token=spec[2]))
            elif kind == "forbidden":
                out.append(pd.Forbidden(token=spec[1]))
            else:
                raise ValueError(f"unknown constraint spec {spec!r}")
        return pd.ConstraintSet(tuple(out))

    def config(self, call: CallSpec, rng_seed: int):
        spec = self.workload.corpora[call.corpus]
        return self.pd.SampleConfig(
            steps=call.steps,
            length=spec.length,
            kernel=call.kernel,
            num_samples=call.num_samples,
            rng_seed=rng_seed,
            projection_mode=call.mode,
            trace=False,
        )

    def run_call(self, index: int, rng_seed: int):
        """Make call `index` of a round; returns (sequences, database or None)."""
        call = self.workload.calls[index]
        corpus = self.corpora[call.corpus]
        denoiser = self.denoisers[call.corpus]
        cfg = self.config(call, rng_seed)
        if call.mode == "none":
            return self.pd.sample_unconstrained(corpus, cfg, denoiser=denoiser), None
        if call.mode == "novelty":
            db = self.pd.NoveltyDb.from_corpus(corpus)
            seqs, _ = self.pd.sample_constrained(corpus, None, cfg, denoiser=denoiser, novelty_db=db)
            return seqs, db
        seqs, _ = self.pd.sample_constrained(corpus, self.constraint_sets[index], cfg, denoiser=denoiser)
        return seqs, None
