"""Sample quality metrics: entropy, bigram perplexity, rates."""

import json
import math

import numpy as np
import pytest

from projdiff.constraints import ConstraintSet, Forbidden, LinearScore, Position
from projdiff.core import Corpus, Sequence, Vocabulary
from projdiff.metrics import (
    BigramModel,
    entropy,
    novelty_count,
    perplexity,
    summarize,
    violation_count,
    violation_rate,
    write_metrics,
)
from projdiff.projection import NoveltyDb


class TestEntropy:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
    def test_uniform_k_token_sequence_is_ln_k(self, k):
        seq = Sequence(tuple(range(k)) * 3)
        assert abs(entropy(seq) - math.log(k)) <= 1e-12

    def test_constant_sequence_is_zero(self):
        assert entropy(Sequence((5, 5, 5, 5))) == 0.0

    def test_hand_value(self):
        # Frequencies (3/4, 1/4).
        seq = Sequence((0, 0, 0, 1))
        expect = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert entropy(seq) == pytest.approx(expect, abs=1e-15)


class TestBigramModel:
    @pytest.fixture
    def corpus(self):
        vocab = Vocabulary(("a", "b"))
        return Corpus(vocab, [(Sequence((0, 1)), 3.0), (Sequence((1, 1)), 1.0)])

    def test_rows_are_distributions(self, corpus):
        model = BigramModel.fit(corpus, kappa=1.0)
        assert model.probs.shape == (3, 3)
        assert np.allclose(model.probs.sum(axis=1), 1.0)

    def test_counts_by_hand(self, corpus):
        # Weighted transitions: BOS->a 0.75, BOS->b 0.25, a->b 0.75,
        # b->b 0.25, b->EOS 1.0.  With kappa=1 each row adds one per cell.
        model = BigramModel.fit(corpus, kappa=1.0)
        bos = model.bos
        assert model.probs[bos, 0] == pytest.approx((0.75 + 1) / (1.0 + 3))
        assert model.probs[0, 1] == pytest.approx((0.75 + 1) / (0.75 + 3))
        assert model.probs[1, bos] == pytest.approx((1.0 + 1) / (1.25 + 3))

    def test_unsmoothed_likelihood(self, corpus):
        model = BigramModel.fit(corpus, kappa=0.0)
        # Weighted transitions out of b: b->b 0.25, b->EOS 1.0, so
        # P(ab) = P(a|BOS) P(b|a) P(EOS|b) = 0.75 * 1 * 0.8.
        ll = model.log_likelihood(Sequence((0, 1)))
        assert ll == pytest.approx(math.log(0.6), abs=1e-12)

    def test_perplexity_normalization(self, corpus):
        model = BigramModel.fit(corpus, kappa=0.0)
        # Three transitions score the length-2 sequence.
        assert perplexity(Sequence((0, 1)), model) == pytest.approx(0.6 ** (-1 / 3))
        assert perplexity(Sequence((0, 1)), model) >= 1.0

    def test_out_of_vocab_token_rejected(self, corpus):
        model = BigramModel.fit(corpus)
        with pytest.raises(ValueError):
            model.log_likelihood(Sequence((0, 7)))

    def test_negative_kappa_rejected(self, corpus):
        with pytest.raises(ValueError):
            BigramModel.fit(corpus, kappa=-0.1)


class TestRates:
    def test_violation_rate(self):
        cs = ConstraintSet([Forbidden(0)])
        seqs = [Sequence((1, 1)), Sequence((0, 1)), Sequence((1, 0)), Sequence((2, 2))]
        assert violation_rate(seqs, cs) == pytest.approx(0.5)
        assert violation_rate(seqs, None) == 0.0
        assert violation_rate([], cs) == 0.0

    def test_violation_count_matches_per_sequence_check(self):
        cs = ConstraintSet([LinearScore(weights=np.array([0.0, 0.5, 1.0]), tau=0.5), Position(0, 1)])
        rng = np.random.default_rng(0)
        seqs = [Sequence(tuple(int(v) for v in rng.integers(0, 3, size=4))) for _ in range(200)]
        assert violation_count(seqs, cs) == sum(1 for s in seqs if not cs.satisfied(s))
        assert violation_count(seqs, None) == 0
        assert violation_count([], cs) == 0

    def test_violation_count_mixed_lengths(self):
        cs = ConstraintSet([Forbidden(0)])
        seqs = [Sequence((1,)), Sequence((0, 1)), Sequence((1, 1, 0)), Sequence((2, 2, 2))]
        assert violation_count(seqs, cs) == 2

    def test_violation_count_above_tau(self):
        seqs = [Sequence((1, 1)), Sequence((0, 1)), Sequence((0, 0))]
        # score: occurrences of token 0
        counts = [violation_count(seqs, ConstraintSet([Forbidden(0, tau=tau)])) for tau in (0.0, 1.0, 2.0)]
        assert counts == [2, 1, 0]

    def test_novelty_count_distinct_absent(self):
        db = NoveltyDb([Sequence((0, 0))])
        seqs = [Sequence((0, 0)), Sequence((0, 1)), Sequence((0, 1)), Sequence((1, 1))]
        assert novelty_count(seqs, db) == 2
        assert novelty_count(seqs, None) == 3


class TestSummarize:
    def test_keys_and_consistency(self, tiny_corpus):
        seqs = [Sequence((0, 1)), Sequence((1, 0))]
        out = summarize(seqs, tiny_corpus, db=NoveltyDb.from_corpus(tiny_corpus))
        assert set(out) == {
            "violation_rate",
            "mean_perplexity",
            "median_perplexity",
            "mean_entropy",
            "novelty_count",
            "n_samples",
        }
        assert out["n_samples"] == 2
        assert out["novelty_count"] == 1  # (1, 0) is not a corpus entry
        assert out["violation_rate"] == 0.0
        assert out["mean_perplexity"] >= 1.0

    def test_write_metrics_format(self, tmp_path):
        path = tmp_path / "metrics.json"
        write_metrics(path, {"b": 1, "a": 2.5})
        text = path.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"a": 2.5, "b": 1}

    def test_write_metrics_writes_null_for_non_finite_values(self, tmp_path):
        path = tmp_path / "metrics.json"
        write_metrics(path, {"nan": float("nan"), "inf": float("inf"), "x": 1.5, "n": 0})
        text = path.read_text()
        assert "NaN" not in text and "Infinity" not in text
        assert json.loads(text) == {"nan": None, "inf": None, "x": 1.5, "n": 0}
