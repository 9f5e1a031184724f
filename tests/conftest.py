"""Shared fixtures: deterministic toy vocabularies and corpora."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from projdiff.constraints import ConstraintSet, Forbidden, LinearScore, Position, TokenCount
from projdiff.core import Corpus, Sequence, Vocabulary


def make_vocab(n_data: int, with_mask: bool = True) -> Vocabulary:
    """Single-letter data tokens, optionally followed by a MASK token."""
    letters = "abcdefghijklmnop"
    tokens = tuple(letters[:n_data]) + (("[MASK]",) if with_mask else ())
    return Vocabulary(tokens, mask_id=n_data if with_mask else None)


def make_corpus(
    vocab: Vocabulary,
    length: int,
    n_entries: int,
    seed: int = 0,
    weights: bool = True,
) -> Corpus:
    """Random distinct data-token sequences with integer weights."""
    rng = np.random.default_rng(seed)
    n_data = vocab.size - (1 if vocab.mask_id is not None else 0)
    seen: set[tuple[int, ...]] = set()
    entries = []
    while len(entries) < n_entries:
        ids = tuple(int(v) for v in rng.integers(0, n_data, size=length))
        if ids in seen:
            continue
        seen.add(ids)
        w = float(rng.integers(1, 4)) if weights else 1.0
        entries.append((Sequence(ids), w))
    return Corpus(vocab, entries)


def compatible_sets(corpus, ids):
    """Each row's set of masked-kernel compatible entries, written out."""
    mask = corpus.vocab.mask_id
    entries = corpus.sequences().tolist()
    return [
        frozenset(m for m, entry in enumerate(entries) if all(v in (mask, e) for v, e in zip(row, entry)))
        for row in ids.tolist()
    ]


def make_constraint_set(rng, n, length):
    """One to three constraints of random families over n tokens and length positions."""
    out = []
    for j in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(0, 5))
        tau = float(rng.choice([0.0, rng.uniform(0.0, 1.0)]))
        if kind == 0:
            out.append(LinearScore(weights=rng.uniform(0.0, 1.0, size=n), tau=tau, name=f"linear{j}"))
        elif kind == 1:
            op = str(rng.choice(["le", "ge", "eq"]))
            out.append(TokenCount(int(rng.integers(0, n)), op, int(rng.integers(0, length + 1)), tau, f"count{j}"))
        elif kind == 2:
            out.append(Forbidden(int(rng.integers(0, n)), tau=tau, name=f"forbidden{j}"))
        elif kind == 3:
            out.append(Position(int(rng.integers(0, length)), int(rng.integers(0, n)), tau, f"position{j}"))
        else:
            weights = rng.integers(0, 4, size=n) / 4.0  # ties and exact values
            out.append(LinearScore(weights=weights, tau=tau, name=f"linear{j}"))
    return ConstraintSet(tuple(out))


def raise_taus(cs: ConstraintSet, delta: float) -> ConstraintSet:
    """cs with every constraint's tau raised by delta: in exact
    arithmetic its feasible patterns are those that violate no
    constraint of cs by more than delta."""
    out = []
    for c in cs:
        c = copy.copy(c)
        c.tau += delta
        out.append(c)
    return ConstraintSet(tuple(out))


@pytest.fixture
def toy_vocab() -> Vocabulary:
    return make_vocab(4)


@pytest.fixture
def toy_corpus(toy_vocab) -> Corpus:
    return make_corpus(toy_vocab, length=5, n_entries=8, seed=11)


@pytest.fixture
def tiny_corpus() -> Corpus:
    """Two entries over {a, b, MASK}; small enough to verify by hand."""
    vocab = Vocabulary(("a", "b", "[MASK]"), mask_id=2)
    return Corpus(vocab, [(Sequence((0, 1)), 2.0), (Sequence((1, 1)), 1.0)])
