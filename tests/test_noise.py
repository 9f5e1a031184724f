"""Forward corruption kernels and reverse-step transitions."""

import numpy as np
import pytest

from projdiff import backend
from projdiff.core import SeqDist, Sequence, Vocabulary
from projdiff.denoiser import ExactBayesDenoiser
from projdiff.noise import (
    NoiseKernel,
    forward_marginal,
    forward_sample,
    reverse_mixture_rows,
)
from projdiff.sampler import SampleConfig, _Engine, sample_unconstrained

from conftest import make_corpus, make_vocab


@pytest.fixture
def masked_kernel():
    return NoiseKernel.masked(make_vocab(3))


@pytest.fixture
def uniform_kernel():
    return NoiseKernel.uniform(4)


class TestKernelConstruction:
    def test_cached_mask_id_keeps_equality_hash_and_repr(self):
        kernels = (NoiseKernel.masked(make_vocab(3)), NoiseKernel.uniform(4))

        def observed(kernel):
            # A kernel's equality and hash come from its fields; ref is an
            # array, so equality with a separate kernel of the same kind
            # cannot be decided and hashing fails.
            try:
                twin = kernel == NoiseKernel(kernel.kind, kernel.ref)
            except ValueError as exc:
                twin = type(exc)
            try:
                hashed = hash(kernel)
            except TypeError as exc:
                hashed = type(exc)
            other = kernels[1] if kernel is kernels[0] else kernels[0]
            return repr(kernel), kernel == kernel, kernel == other, twin, hashed

        before = [observed(k) for k in kernels]
        assert [k.mask_id for k in kernels] == [3, None]
        assert type(kernels[0].mask_id) is int
        assert [observed(k) for k in kernels] == before
        assert before[0][0] == "NoiseKernel(kind='masked')"

    def test_masked_reference_is_point_mass(self, masked_kernel):
        assert masked_kernel.mask_id == 3
        assert masked_kernel.ref[3] == 1.0
        assert masked_kernel.ref.sum() == 1.0

    def test_uniform_reference(self, uniform_kernel):
        assert uniform_kernel.mask_id is None
        assert np.allclose(uniform_kernel.ref, 0.25)

    def test_masked_requires_mask_token(self):
        with pytest.raises(ValueError):
            NoiseKernel.masked(Vocabulary(("a", "b")))

    def test_for_vocab_dispatch(self):
        v = make_vocab(2)
        assert NoiseKernel.for_vocab("masked", v).kind == "masked"
        assert NoiseKernel.for_vocab("uniform", v).kind == "uniform"
        with pytest.raises(ValueError):
            NoiseKernel.for_vocab("gaussian", v)

    def test_immutable_reference(self, uniform_kernel):
        with pytest.raises(ValueError):
            uniform_kernel.ref[0] = 0.9


class TestForwardMarginal:
    def test_interpolation(self, masked_kernel):
        marg = forward_marginal(masked_kernel, Sequence((0, 2)), 0.7)
        assert marg.rows[0] == pytest.approx([0.7, 0.0, 0.0, 0.3])
        assert marg.rows[1] == pytest.approx([0.0, 0.0, 0.7, 0.3])

    def test_uniform_interpolation(self, uniform_kernel):
        marg = forward_marginal(uniform_kernel, Sequence((1,)), 0.6)
        assert marg.rows[0] == pytest.approx([0.1, 0.7, 0.1, 0.1])

    def test_endpoints(self, masked_kernel):
        x0 = Sequence((1, 0))
        clean = forward_marginal(masked_kernel, x0, 1.0)
        assert np.array_equal(clean.rows, SeqDist.one_hot(x0, 4).rows)
        noise = forward_marginal(masked_kernel, x0, 0.0)
        assert np.array_equal(noise.rows, np.tile(masked_kernel.ref, (2, 1)))

    def test_level_range_checked(self, masked_kernel):
        with pytest.raises(ValueError):
            forward_marginal(masked_kernel, Sequence((0,)), 1.5)

    def test_token_range_checked(self, uniform_kernel):
        with pytest.raises(ValueError):
            forward_marginal(uniform_kernel, Sequence((9,)), 0.5)


class TestForwardSample:
    @pytest.mark.parametrize("kind", ["masked", "uniform"])
    def test_matches_marginal_within_3_sigma(self, kind):
        vocab = make_vocab(3)
        kernel = NoiseKernel.for_vocab(kind, vocab)
        x0 = Sequence((0, 1, 2))
        a_t = 0.35
        n_draws = 20000
        rng = np.random.default_rng(5)
        counts = np.zeros((3, kernel.vocab_size))
        for _ in range(n_draws):
            for i, v in enumerate(forward_sample(kernel, x0, a_t, rng)):
                counts[i, v] += 1
        expect = forward_marginal(kernel, x0, a_t).rows
        emp = counts / n_draws
        sigma = np.sqrt(expect * (1.0 - expect) / n_draws)
        exact = sigma == 0.0
        assert np.array_equal(emp[exact], expect[exact])
        assert np.all(np.abs(emp - expect)[~exact] <= 3.0 * sigma[~exact])

    def test_deterministic_given_rng(self, masked_kernel):
        x0 = Sequence((0, 1, 2, 0))
        a = forward_sample(masked_kernel, x0, 0.5, np.random.default_rng(9))
        b = forward_sample(masked_kernel, x0, 0.5, np.random.default_rng(9))
        assert a == b

    @pytest.mark.parametrize("kind", ["masked", "uniform"])
    def test_draws_match_the_seqdist_path(self, kind):
        # The path forward_sample took before it built its rows as one
        # array: a tiled reference row, a per-position loop, a SeqDist.
        def reference_rows(kernel, x0, a_t):
            rows = np.tile((1.0 - a_t) * kernel.ref, (len(x0), 1))
            for i, v in enumerate(x0):
                rows[i, v] += a_t
            return SeqDist(rows).rows

        def reference(kernel, x0, a_t, rng):
            u = rng.random(len(x0))
            ids = backend.ops.sample_rows(reference_rows(kernel, x0, a_t), u)
            return Sequence(tuple(int(i) for i in ids))

        kernel = NoiseKernel.for_vocab(kind, make_vocab(5))
        seeds = np.random.default_rng(3)
        new, old = np.random.default_rng(17), np.random.default_rng(17)
        for _ in range(500):
            x0 = Sequence(tuple(int(v) for v in seeds.integers(0, 5, size=int(seeds.integers(1, 9)))))
            a_t = float(seeds.choice([0.0, 1.0, seeds.random()]))
            assert np.array_equal(forward_marginal(kernel, x0, a_t).rows, reference_rows(kernel, x0, a_t))
            assert forward_sample(kernel, x0, a_t, new) == reference(kernel, x0, a_t, old)
        assert new.random() == old.random()

    def test_token_range_checked(self, uniform_kernel):
        with pytest.raises(ValueError):
            forward_sample(uniform_kernel, Sequence((1, 9)), 0.5, np.random.default_rng(0))


class TestReverseMixture:
    def test_masked_mixture_formula(self, masked_kernel):
        denoised = np.array([[0.6, 0.3, 0.1, 0.0]])
        a_t, a_s = 0.2, 0.5
        mix = reverse_mixture_rows(masked_kernel, denoised, a_t, a_s)
        expect = ((1 - a_s) * masked_kernel.ref + (a_s - a_t) * denoised[0]) / (1 - a_t)
        assert mix[0] == pytest.approx(expect, rel=1e-12)
        assert mix.sum() == pytest.approx(1.0)

    def test_uniform_mixture_is_bayes_combination(self, uniform_kernel):
        denoised = np.array([[0.5, 0.25, 0.125, 0.125]])
        a_t, a_s = 0.25, 0.75
        cur = np.array([2])
        mix = reverse_mixture_rows(uniform_kernel, denoised, a_t, a_s, cur)
        n = 4
        r = a_t / a_s
        lik = np.full(n, (1 - r) / n)
        lik[2] += r
        expect = lik * (a_s * denoised[0] + (1 - a_s) / n)
        expect /= expect.sum()
        assert mix[0] == pytest.approx(expect, rel=1e-12)

    def test_uniform_requires_current_ids(self, uniform_kernel):
        with pytest.raises(ValueError):
            reverse_mixture_rows(uniform_kernel, np.full((1, 4), 0.25), 0.2, 0.5)

    def test_level_ordering_enforced(self, masked_kernel):
        with pytest.raises(ValueError):
            reverse_mixture_rows(masked_kernel, np.full((1, 4), 0.25), 0.6, 0.4)


class TestReverseStep:
    """The sampler's draw from the reverse mixture rows."""

    def test_masked_settled_positions_pass_through(self):
        corpus = make_corpus(make_vocab(3), length=4, n_entries=6, seed=2)
        mask = corpus.vocab.mask_id

        class Recording(ExactBayesDenoiser):
            def posterior_batch(self, ids, a_t, kernel, **kwargs):
                seen.append(ids.copy())
                return super().posterior_batch(ids, a_t, kernel, **kwargs)

        # 10 chains are denoised as they are, 100 once per distinct state.
        for num_samples in (10, 100):
            seen = []
            config = SampleConfig(steps=8, length=4, num_samples=num_samples, rng_seed=0)
            seqs = sample_unconstrained(corpus, config, denoiser=Recording(corpus))
            states = seen + [np.array([s.ids for s in seqs])]
            assert len(states) == 9
            for before, after in zip(states, states[1:]):
                settled = before != mask
                assert np.array_equal(after[settled], before[settled])
            assert any(np.any((a == mask) & (b != mask)) for a, b in zip(states, states[1:]))
            assert not np.any(states[-1] == mask)

    def test_consumes_fixed_randomness(self):
        # Runs differing in how many positions each step draws must leave
        # the generator in the same position afterward: one uniform per
        # chain and position for the start and for each step.
        b, length, steps, seed = 100, 3, 6, 123
        expect = np.random.default_rng(seed).random((steps + 1) * b * length + 1)[-1]
        for kind, schedule in (("masked", "linear"), ("masked", "loglinear"), ("uniform", "linear")):
            corpus = make_corpus(make_vocab(3, with_mask=kind == "masked"), length=length, n_entries=5, seed=4)
            config = SampleConfig(
                steps=steps, length=length, kernel=kind, schedule=schedule, num_samples=b,
                rng_seed=seed, projection_mode="none", trace=False,
            )
            engine = _Engine(corpus, None, config, ExactBayesDenoiser(corpus), None)
            engine.run()
            assert engine.rng.random() == expect
