"""Sample quality metrics: bigram perplexity, token entropy, violation
rate, and novelty counting.

The bigram model is fit on the weighted corpus with add-kappa smoothing
and explicit BOS/EOS boundary states, so every sequence has L + 1
scored transitions and perplexity is always finite and >= 1.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .constraints import ConstraintSet
from .core import Corpus, Sequence
from .projection import NoveltyDb


class BigramModel:
    """Add-kappa smoothed first-order model with boundary states.

    Rows index the conditioning state (BOS or a token id); columns index
    the outcome (a token id or EOS).  Each row is a distribution over
    N + 1 outcomes.
    """

    def __init__(self, probs: np.ndarray):
        if probs.ndim != 2 or probs.shape[0] != probs.shape[1]:
            raise ValueError("expected a square (N+1, N+1) transition table")
        self.probs = probs
        self.n = probs.shape[0] - 1

    @property
    def bos(self) -> int:
        return self.n

    @property
    def eos(self) -> int:
        return self.n

    @classmethod
    def fit(cls, corpus: Corpus, kappa: float = 1.0) -> "BigramModel":
        if kappa < 0:
            raise ValueError("kappa must be nonnegative")
        n = corpus.vocab.size
        counts = np.zeros((n + 1, n + 1))
        for seq, w in corpus.entries:
            prev = n
            for v in seq:
                counts[prev, v] += w
                prev = v
            counts[prev, n] += w
        smoothed = counts + kappa
        return cls(smoothed / smoothed.sum(axis=1, keepdims=True))

    def log_likelihood(self, seq: Sequence) -> float:
        total = 0.0
        prev = self.bos
        for v in seq:
            if v >= self.n:
                raise ValueError(f"token id {v} outside the model vocabulary")
            total += math.log(self.probs[prev, v])
            prev = v
        total += math.log(self.probs[prev, self.eos])
        return total


def perplexity(seq: Sequence, model: BigramModel) -> float:
    """exp of the mean negative log-likelihood over the L + 1 transitions."""
    return math.exp(-model.log_likelihood(seq) / (len(seq) + 1))


def entropy(seq: Sequence) -> float:
    """Empirical token entropy of one sequence, in nats.

    Uses the within-sequence token frequencies; ranges from 0 (constant
    sequence) to ln(#distinct tokens).
    """
    counts: dict[int, int] = {}
    for v in seq:
        counts[v] = counts.get(v, 0) + 1
    total = len(seq)
    return -sum((c / total) * math.log(c / total) for c in counts.values())


def violation_count(seqs: list[Sequence], cs: ConstraintSet | None) -> int:
    """Number of sequences violating at least one constraint.

    The sequences of each length are scored in one batch.
    """
    if cs is None:
        return 0
    by_length: dict[int, list[tuple[int, ...]]] = {}
    for s in seqs:
        by_length.setdefault(len(s), []).append(s.ids)
    return sum(
        int((~np.all(cs.hard_violations_batch(group) <= 0.0, axis=1)).sum())
        for group in by_length.values()
    )


def violation_rate(seqs: list[Sequence], cs: ConstraintSet | None) -> float:
    """Fraction of sequences violating at least one constraint."""
    if not seqs:
        return 0.0
    return violation_count(seqs, cs) / len(seqs)


def novelty_count(seqs: list[Sequence], db: NoveltyDb | None) -> int:
    """Number of distinct sequences not present in db."""
    fresh = {s for s in seqs if db is None or s not in db}
    return len(fresh)


def summarize(
    seqs: list[Sequence],
    corpus: Corpus,
    cs: ConstraintSet | None = None,
    db: NoveltyDb | None = None,
    kappa: float = 1.0,
) -> dict:
    """Standard metrics dictionary for a sample batch."""
    model = BigramModel.fit(corpus, kappa)
    ppls = [perplexity(s, model) for s in seqs]
    ents = [entropy(s) for s in seqs]
    return {
        "violation_rate": violation_rate(seqs, cs),
        "mean_perplexity": float(np.mean(ppls)) if ppls else float("nan"),
        "median_perplexity": float(np.median(ppls)) if ppls else float("nan"),
        "mean_entropy": float(np.mean(ents)) if ents else float("nan"),
        "novelty_count": novelty_count(seqs, db),
        "n_samples": len(seqs),
    }


def metrics_json(metrics: dict) -> str:
    """Strict JSON text of a metrics dictionary: a statistic that is not a
    finite number, such as the mean of no samples, is written as null."""
    strict = {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in metrics.items()}
    return json.dumps(strict, indent=2, sort_keys=True, allow_nan=False)


def write_metrics(path, metrics: dict) -> None:
    with open(path, "w") as fh:
        fh.write(metrics_json(metrics) + "\n")
