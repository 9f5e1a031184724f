"""Exact corpus-posterior denoising against hand calculations and the
brute-force enumeration oracle."""

import itertools

import numpy as np
import pytest

from projdiff import denoiser as denoiser_module
from projdiff.core import Sequence, _distinct_rows
from projdiff.denoiser import ExactBayesDenoiser, IncompatibleEvidenceError, exact_posterior
from projdiff.noise import NoiseKernel
from projdiff.oracle import enumerate_posterior

from conftest import compatible_sets, make_corpus, make_vocab


# Hand-checkable fixture: corpus {ab: 2/3, bb: 1/3} over {a, b, MASK}.


class TestMaskedPosteriorByHand:
    def test_revealed_position_filters_entries(self, tiny_corpus):
        kernel = NoiseKernel.masked(tiny_corpus.vocab)
        # Observing (a, MASK): only entry "ab" is compatible.
        post = exact_posterior(tiny_corpus, kernel, Sequence((0, 2)), 0.5)
        assert post.rows[0] == pytest.approx([1.0, 0.0, 0.0])
        assert post.rows[1] == pytest.approx([0.0, 1.0, 0.0])

    def test_all_masked_recovers_prior(self, tiny_corpus):
        kernel = NoiseKernel.masked(tiny_corpus.vocab)
        post = exact_posterior(tiny_corpus, kernel, Sequence((2, 2)), 0.5)
        assert post.rows[0] == pytest.approx([2 / 3, 1 / 3, 0.0])
        assert post.rows[1] == pytest.approx([0.0, 1.0, 0.0])

    def test_likelihood_level_cancels(self, tiny_corpus):
        kernel = NoiseKernel.masked(tiny_corpus.vocab)
        lo = exact_posterior(tiny_corpus, kernel, Sequence((2, 1)), 0.1)
        hi = exact_posterior(tiny_corpus, kernel, Sequence((2, 1)), 0.9)
        assert np.allclose(lo.rows, hi.rows)

    def test_incompatible_observation_raises(self, tiny_corpus):
        kernel = NoiseKernel.masked(tiny_corpus.vocab)
        # No entry starts with b and ends with a.
        with pytest.raises(IncompatibleEvidenceError):
            exact_posterior(tiny_corpus, kernel, Sequence((1, 0)), 0.5)


class TestUniformPosteriorByHand:
    def test_match_count_weighting(self, tiny_corpus):
        kernel = NoiseKernel.uniform(3)
        # Observing (a, b) at a_t = 0.5: per-match factor 1 + aN/(1-a) = 4,
        # so posterior over entries is (2/3 * 16, 1/3 * 4) -> (8/9, 1/9).
        post = exact_posterior(tiny_corpus, kernel, Sequence((0, 1)), 0.5)
        assert post.rows[0] == pytest.approx([8 / 9, 1 / 9, 0.0])
        assert post.rows[1] == pytest.approx([0.0, 1.0, 0.0])

    def test_zero_signal_recovers_prior(self, tiny_corpus):
        kernel = NoiseKernel.uniform(3)
        post = exact_posterior(tiny_corpus, kernel, Sequence((1, 0)), 0.0)
        assert post.rows[0] == pytest.approx([2 / 3, 1 / 3, 0.0])

    def test_full_signal_is_exact_match(self, tiny_corpus):
        kernel = NoiseKernel.uniform(3)
        post = exact_posterior(tiny_corpus, kernel, Sequence((1, 1)), 1.0)
        assert post.rows[0] == pytest.approx([0.0, 1.0, 0.0])


class TestOracleAgreement:
    @pytest.mark.parametrize("kind", ["masked", "uniform"])
    def test_random_cases_match_enumeration(self, kind):
        vocab = make_vocab(4)
        corpus = make_corpus(vocab, length=5, n_entries=7, seed=2)
        kernel = NoiseKernel.for_vocab(kind, vocab)
        rng = np.random.default_rng(7)
        entries = corpus.sequences()
        for _ in range(40):
            a_t = float(rng.uniform(0.05, 0.95))
            x0 = entries[rng.integers(0, entries.shape[0])]
            if kind == "masked":
                keep = rng.random(corpus.length) < 0.5
                ids = np.where(keep, x0, kernel.mask_id)
            else:
                hit = rng.random(corpus.length) < 0.5
                ids = np.where(hit, rng.integers(0, vocab.size, corpus.length), x0)
            state = Sequence(tuple(int(v) for v in ids))
            fast = exact_posterior(corpus, kernel, state, a_t)
            slow = enumerate_posterior(corpus, kernel, state, a_t)
            assert np.abs(fast.rows - slow.rows).max() <= 1e-12


class TestExactBayesDenoiser:
    def test_one_row_batch_matches_function(self, tiny_corpus):
        kernel = NoiseKernel.masked(tiny_corpus.vocab)
        den = ExactBayesDenoiser(tiny_corpus)
        _, rows, _ = den.posterior_batch(np.array([[0, 2]]), 0.5, kernel)
        expect = exact_posterior(tiny_corpus, kernel, Sequence((0, 2)), 0.5)
        assert np.allclose(rows[0], expect.rows)
        assert den.fallback_count == 0

    @pytest.mark.parametrize("kind", ["masked", "uniform"])
    @pytest.mark.parametrize("state", [(0, 3), (3, 0), (-1, 0), (0, -1)])
    def test_out_of_range_id_raises(self, tiny_corpus, kind, state):
        # Under the masked kernel id 3 at position 0 would read the
        # table's row of token 0 at position 1, and -1 that of MASK.
        kernel = NoiseKernel.for_vocab(kind, tiny_corpus.vocab)
        den = ExactBayesDenoiser(tiny_corpus)
        for method in (den.posterior_batch, den.posterior_loo_batch):
            with pytest.raises(ValueError, match="token ids"):
                method(np.array([state, (0, 1)]), 0.5, kernel)
        if min(state) >= 0:
            with pytest.raises(ValueError, match="token ids"):
                exact_posterior(tiny_corpus, kernel, Sequence(state), 0.5)

    @pytest.mark.parametrize("state", [(4, 4, 4, 4), (0, 3, 3, 3)], ids=["no entry", "compatible"])
    def test_masked_kernel_over_another_vocabulary_size_raises(self, state):
        # A 5-token masked kernel, MASK at id 3, on a 4-token vocabulary:
        # the state no entry matches took numpy's shape error from the
        # prior's 4-wide rows, and a compatible one came back 5 wide.
        corpus = make_corpus(make_vocab(3), length=4, n_entries=6, seed=5)
        kernel = NoiseKernel("masked", np.eye(5)[3])
        den = ExactBayesDenoiser(corpus)
        state = np.array([state])
        for method in (den.posterior_batch, den.posterior_loo_batch):
            with pytest.raises(ValueError, match="masked kernel has 5 tokens, the corpus vocabulary 4"):
                method(state, 0.5, kernel)
        with pytest.raises(ValueError, match="masked kernel has 5 tokens, the corpus vocabulary 4"):
            exact_posterior(corpus, kernel, Sequence(tuple(state[0].tolist())), 0.5)

    def test_fallback_to_prior_on_incompatible(self, tiny_corpus):
        kernel = NoiseKernel.masked(tiny_corpus.vocab)
        den = ExactBayesDenoiser(tiny_corpus)
        _, rows, _ = den.posterior_batch(np.array([[1, 0]]), 0.5, kernel)
        assert den.fallback_count == 1
        assert rows[0, 0] == pytest.approx([2 / 3, 1 / 3, 0.0])

    def test_posterior_batch_matches_single(self, toy_corpus):
        kernel = NoiseKernel.masked(toy_corpus.vocab)
        den = ExactBayesDenoiser(toy_corpus)
        states = [Sequence((0, 4, 4, 2, 4)), Sequence((4, 4, 4, 4, 4))]
        ids = np.stack([s.as_array() for s in states])
        _, rows, inverse = den.posterior_batch(ids, 0.4, kernel)
        batch = rows[inverse]
        for b, state in enumerate(states):
            single = exact_posterior(toy_corpus, kernel, state, 0.4)
            assert np.allclose(batch[b], single.rows, atol=1e-14)

    def test_loo_batch_divides_out_own_evidence(self, tiny_corpus):
        kernel = NoiseKernel.uniform(3)
        den = ExactBayesDenoiser(tiny_corpus)
        a_t = 0.5
        ids = np.array([[0, 1]])
        _, rows, inverse = den.posterior_loo_batch(ids, a_t, kernel)
        loo = rows[inverse]
        # Independent check: posterior over entries recomputed with the
        # likelihood factor of one position removed.
        ratio = 1.0 + a_t * 3 / (1.0 - a_t)
        w_ab = (2 / 3) * ratio**2
        w_bb = (1 / 3) * ratio**1
        # Position 0: divide out its own factor (ab matched there, bb did not).
        w0 = np.array([w_ab / ratio, w_bb])
        w0 /= w0.sum()
        expect0 = np.array([w0[0], w0[1], 0.0])
        assert loo[0, 0] == pytest.approx(expect0, rel=1e-12)

    def test_loo_masked_equals_full(self, tiny_corpus):
        kernel = NoiseKernel.masked(tiny_corpus.vocab)
        den = ExactBayesDenoiser(tiny_corpus)
        ids = np.array([[2, 1], [0, 2]])
        for loo, full in zip(den.posterior_loo_batch(ids, 0.3, kernel), den.posterior_batch(ids, 0.3, kernel)):
            assert np.array_equal(loo, full)


def noisy_state(rng, corpus, kernel):
    """An entry with about half its positions masked (masked kernel) or
    redrawn (uniform kernel), as the c03 criterion builds its cases."""
    entries = corpus.sequences()
    x0 = entries[rng.integers(0, len(entries))]
    hit = rng.random(corpus.length) < 0.5
    if kernel.kind == "masked":
        return np.where(hit, kernel.mask_id, x0)
    return np.where(hit, rng.integers(0, kernel.vocab_size, corpus.length), x0)


def random_case(rng, with_mask):
    """A random corpus over N in 2-6 data tokens and length L in 2-5."""
    n_data, length = int(rng.integers(2, 7)), int(rng.integers(2, 6))
    vocab = make_vocab(n_data, with_mask=with_mask)
    n_entries = int(rng.integers(2, min(8, n_data**length) + 1))
    return make_corpus(vocab, length, n_entries, seed=int(rng.integers(1 << 30)))


def loo_by_enumeration(corpus, state, a_t, n):
    """Leave-one-out marginals under the uniform kernel, written out: for
    each position i, Bayes over the entries with every position's
    likelihood factor but i's own."""
    length = len(state)
    out = np.zeros((length, n))
    for i in range(length):
        weights = []
        for seq, prior in corpus.entries:
            lik = 1.0
            for j in range(length):
                if j != i:
                    lik *= a_t * (state[j] == seq.ids[j]) + (1.0 - a_t) / n
            weights.append(prior * lik)
        total = sum(weights)
        for (seq, _), w in zip(corpus.entries, weights):
            out[i, seq.ids[i]] += w / total
    return out


class TestOnePosteriorPath:
    """exact_posterior, the denoiser's call and both batch methods share
    one computation and one range check."""

    @pytest.mark.parametrize("kind", ["masked", "uniform"])
    def test_exact_posterior_equals_batch_rows(self, kind):
        rng = np.random.default_rng(17)
        for _ in range(60):
            corpus = random_case(rng, with_mask=(kind == "masked"))
            kernel = NoiseKernel.for_vocab(kind, corpus.vocab)
            a_t = float(rng.uniform(0.05, 0.95))
            pool = np.stack([noisy_state(rng, corpus, kernel) for _ in range(6)])
            ids = pool[rng.integers(0, len(pool), 80)]  # deduplicated
            _, rows, inverse = ExactBayesDenoiser(corpus).posterior_batch(ids, a_t, kernel)
            for k in range(len(pool)):
                single = exact_posterior(corpus, kernel, Sequence(tuple(int(v) for v in ids[k])), a_t)
                assert np.array_equal(single.rows, rows[inverse[k]])

    def test_loo_batch_matches_enumeration(self):
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(200):
            corpus = random_case(rng, with_mask=False)
            kernel = NoiseKernel.uniform(corpus.vocab.size)
            a_t = float(rng.uniform(0.05, 0.95))
            state = noisy_state(rng, corpus, kernel)
            _, rows, inverse = ExactBayesDenoiser(corpus).posterior_loo_batch(state[None, :], a_t, kernel)
            slow = loo_by_enumeration(corpus, state, a_t, kernel.vocab_size)
            worst = max(worst, float(np.abs(rows[inverse[0]] - slow).max()))
        assert worst <= 1e-12  # 3.3e-16 measured

    @pytest.mark.parametrize("kind", ["masked", "uniform"])
    @pytest.mark.parametrize("a_t", [-0.1, 1.5])
    @pytest.mark.parametrize("caller", ["exact_posterior", "posterior_batch", "posterior_loo_batch"])
    def test_signal_level_outside_unit_interval_raises(self, tiny_corpus, kind, a_t, caller):
        kernel = NoiseKernel.for_vocab(kind, tiny_corpus.vocab)
        den = ExactBayesDenoiser(tiny_corpus)
        state = Sequence((0, 1))  # compatible with entry "ab"
        with pytest.raises(ValueError):
            if caller == "exact_posterior":
                exact_posterior(tiny_corpus, kernel, state, a_t)
            else:
                getattr(den, caller)(state.as_array()[None, :], a_t, kernel)


def block_count(corpus, kernel, ids):
    """How many blocks the batch methods give ids: one per distinct
    compatible set under the masked kernel, and under the uniform one the
    batch itself below 64 rows, then one per distinct state."""
    if kernel.kind == "masked":
        return len(set(compatible_sets(corpus, ids)))
    return len(ids) if len(ids) < 64 else len(np.unique(ids, axis=0))


class TestDistinctStates:
    """The batch methods compute each block once, a distinct state or
    under the masked kernel a distinct compatible set; repeats must not
    show in the rows or in fallback_count."""

    @staticmethod
    def repeated_batch(corpus, kernel, rng, distinct=12, size=96):
        """size rows drawn with repeats from `distinct` states; under the
        masked kernel a third of the states match no corpus entry."""
        entries = corpus.sequences()
        n_data = corpus.vocab.size - (kernel.kind == "masked")
        x0 = entries[rng.integers(0, len(entries), distinct)]
        if kernel.kind == "masked":
            states = np.where(rng.random(x0.shape) < 0.5, x0, kernel.mask_id)
            states[::3] = rng.integers(0, n_data, (len(states[::3]), corpus.length))
        else:
            states = np.where(rng.random(x0.shape) < 0.5, x0, rng.integers(0, n_data, x0.shape))
        return states[rng.integers(0, distinct, size)]

    @pytest.mark.parametrize("kind", ["masked", "uniform"])
    @pytest.mark.parametrize("shape", [(4, 5, 7), (12, 10, 16)], ids=["toy", "c01"])
    def test_batch_rows_equal_row_by_row(self, kind, shape):
        n_data, length, n_entries = shape
        vocab = make_vocab(n_data, with_mask=(kind == "masked"))
        corpus = make_corpus(vocab, length=length, n_entries=n_entries, seed=11)
        kernel = NoiseKernel.for_vocab(kind, vocab)
        ids = self.repeated_batch(corpus, kernel, np.random.default_rng(3))
        assert len(np.unique(ids, axis=0)) < len(ids)
        den = ExactBayesDenoiser(corpus)
        for method in (den.posterior_batch, den.posterior_loo_batch):
            _, rows, inverse = method(ids, 0.4, kernel)
            batch = rows[inverse]
            assert batch.shape == (len(ids), length, vocab.size)
            for b in range(len(ids)):
                assert np.array_equal(batch[b], method(ids[b : b + 1], 0.4, kernel)[1][0])
        assert (den.fallback_count > 0) == (kind == "masked")

    @pytest.mark.parametrize("kind", ["masked", "uniform"])
    @pytest.mark.parametrize("size", [40, 96])
    def test_ungathered_rows_gather_to_the_batch(self, kind, size):
        # Under the uniform kernel 40 rows are below the deduplication
        # size: the batch itself and the identity index come back.  Under
        # the masked kernel each block's state holds the compatible set of
        # every chain the index sends to it.
        vocab = make_vocab(4, with_mask=(kind == "masked"))
        corpus = make_corpus(vocab, length=5, n_entries=7, seed=11)
        kernel = NoiseKernel.for_vocab(kind, vocab)
        ids = self.repeated_batch(corpus, kernel, np.random.default_rng(5), size=size)
        for method in ("posterior_batch", "posterior_loo_batch"):
            batched, single = ExactBayesDenoiser(corpus), ExactBayesDenoiser(corpus)
            states, block_rows, inverse = getattr(batched, method)(ids, 0.4, kernel)
            if kind == "masked":
                assert compatible_sets(corpus, states[inverse]) == compatible_sets(corpus, ids)
            else:
                assert np.array_equal(states[inverse], ids)
            assert len(states) == block_count(corpus, kernel, ids)
            rows = np.concatenate([getattr(single, method)(ids[b : b + 1], 0.4, kernel)[1] for b in range(size)])
            assert np.array_equal(block_rows[inverse], rows)
            assert batched.fallback_count == single.fallback_count

    @pytest.mark.parametrize("kind", ["masked", "uniform"])
    @pytest.mark.parametrize("size", [40, 96])
    def test_each_block_computed_once(self, monkeypatch, kind, size):
        # Under the masked kernel the marginals are built from one row of
        # entry weights per distinct compatible set, once for as long as
        # the denoiser lives, so the second call builds none; under the
        # uniform kernel the weights are computed once per distinct state
        # and call.
        vocab = make_vocab(4, with_mask=(kind == "masked"))
        corpus = make_corpus(vocab, length=5, n_entries=7, seed=11)
        kernel = NoiseKernel.for_vocab(kind, vocab)
        ids = self.repeated_batch(corpus, kernel, np.random.default_rng(4), size=size)
        sizes = []
        # Both take the (U, ...) batch they work on as their third argument.
        name = "_weighted_marginals" if kind == "masked" else "_posterior_weights"
        real = getattr(denoiser_module, name)

        def spy(*args):
            sizes.append(len(args[2]))
            return real(*args)

        monkeypatch.setattr(denoiser_module, name, spy)
        den = ExactBayesDenoiser(corpus)
        den.posterior_batch(ids, 0.4, kernel)
        den.posterior_loo_batch(ids, 0.4, kernel)
        blocks = block_count(corpus, kernel, ids)
        if kind == "masked":
            assert blocks < len(np.unique(ids, axis=0))
        assert sizes == [blocks] * (1 if kind == "masked" else 2)

    def test_repeated_incompatible_rows_each_fall_back(self, tiny_corpus):
        kernel = NoiseKernel.masked(tiny_corpus.vocab)
        den = ExactBayesDenoiser(tiny_corpus)
        # (b, a) matches no entry; it fills three rows in five, (a, MASK)
        # the other two, over a batch large enough to be deduplicated.
        ids = np.tile([[1, 0], [0, 2], [1, 0], [1, 0], [0, 2]], (13, 1))
        _, rows, inverse = den.posterior_batch(ids, 0.5, kernel)
        rows = rows[inverse]
        assert den.fallback_count == 39
        assert np.array_equal(rows[ids[:, 0] == 1], np.stack([den._prior()] * 39))
        den.posterior_loo_batch(ids, 0.5, kernel)
        assert den.fallback_count == 78

    @pytest.mark.parametrize(
        "low, high, length, extra",
        [
            (0, 4, 3, []),
            (0, 13, 20, []),
            (-3, 4, 6, []),
            (2**63 - 2**59, 2**63 - 2**59 + 2**20, 3, [[2**63 - 2**59] * 3, [2**63 - 2**59 + 2**20 - 1] * 3]),
            (0, 3, 3, [[1, 0, 1], [0, 2, 0], [2**32, 0, 0]]),
            (0, 3, 3, [[1, 0, 1], [2**57, 0, 0]]),
        ],
        ids=["n4-L3", "n13-L20", "negative", "offset", "wide-radix", "too-wide"],
    )
    def test_fold_agrees_with_unique(self, low, high, length, extra):
        # 4**3 codes fit a rank table; 13**20 > 2**63, so the fold must
        # rank partial codes.  Folding the "offset" ids without shifting
        # them to 0 wraps codes past the sign bit.  With radix 2**32 + 1
        # a plain int64 fold gives (1, 0, 1) and (0, 2, 0) one code.  With
        # radix 2**57 + 1, 100 rows leave no room even for ranked codes,
        # so np.unique decides.
        rng = np.random.default_rng(length)
        pool = np.concatenate([rng.integers(low, high, (9, length)), np.array(extra, dtype=np.int64).reshape(-1, length)])
        ids = pool[rng.integers(0, len(pool), 100)]
        assert set(map(tuple, extra)) <= set(map(tuple, ids.tolist()))
        states, inverse = _distinct_rows(ids)
        expect, expect_inverse = np.unique(ids, axis=0, return_inverse=True)
        assert np.array_equal(states, expect)
        assert np.array_equal(inverse, expect_inverse.reshape(-1))

    def test_no_repeats_returns_the_batch(self):
        ids = np.array(list(itertools.product(range(4), repeat=3)))
        states, inverse = _distinct_rows(ids)
        assert states is ids and inverse is None
