"""Sanity checks for the brute-force reference implementations."""

import itertools
import math

import numpy as np
import pytest

from projdiff.constraints import ConstraintSet, Forbidden, Position, TokenCount
from projdiff.core import SeqDist, Sequence
from projdiff.noise import NoiseKernel
from projdiff.oracle import (
    MAX_FLIP_SPACE,
    MAX_GRID_N,
    MAX_NOVELTY_SPACE,
    enumerate_cheapest_pattern,
    enumerate_fewest_flips,
    enumerate_novelty,
    enumerate_posterior,
    grid_kl_project,
    pooled_flip_cost,
)
from projdiff.projection import NoveltyDb, _row_flip_costs


class TestEnumeratePosterior:
    def test_masked_hand_case(self, tiny_corpus):
        kernel = NoiseKernel.masked(tiny_corpus.vocab)
        post = enumerate_posterior(tiny_corpus, kernel, Sequence((2, 2)), 0.4)
        assert post.rows[0] == pytest.approx([2 / 3, 1 / 3, 0.0])

    def test_uniform_hand_case(self, tiny_corpus):
        kernel = NoiseKernel.uniform(3)
        post = enumerate_posterior(tiny_corpus, kernel, Sequence((0, 1)), 0.5)
        assert post.rows[0] == pytest.approx([8 / 9, 1 / 9, 0.0])

    def test_incompatible_raises(self, tiny_corpus):
        kernel = NoiseKernel.masked(tiny_corpus.vocab)
        with pytest.raises(ValueError):
            enumerate_posterior(tiny_corpus, kernel, Sequence((1, 0)), 0.5)


class TestGridKlProject:
    def test_two_token_forced_flip(self):
        row = np.array([0.9, 0.1])
        q, kl = grid_kl_project(row, Forbidden(0))
        assert np.argmax(q) == 1
        # Ties decode to the lowest id, so (0.5, 0.5) itself is not in
        # the feasible region; the best grid point sits one step inside.
        assert q == pytest.approx([0.499, 0.501])
        boundary = 0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5)
        assert boundary <= kl <= boundary + 2e-3

    def test_already_feasible_costs_next_to_nothing(self):
        row = np.array([0.25, 0.75])
        _, kl = grid_kl_project(row, Position(position=0, token=1))
        assert 0.0 <= kl < 1e-5

    def test_feasible_argmax_selected(self):
        row = np.array([0.6, 0.3, 0.1])
        q, _ = grid_kl_project(row, Forbidden(0))
        assert np.argmax(q) in (1, 2)

    def test_size_caps(self):
        with pytest.raises(ValueError):
            grid_kl_project(np.full(MAX_GRID_N + 1, 1.0 / (MAX_GRID_N + 1)), Forbidden(0))
        with pytest.raises(ValueError):
            grid_kl_project(np.array([0.5, 0.5]), Forbidden(0), grid_step=1e-2)

    def test_no_feasible_token_raises(self):
        with pytest.raises(ValueError):
            grid_kl_project(np.array([1.0]), Forbidden(0))


class TestEnumerateNovelty:
    def test_passes_through_novel_decode(self):
        rows = np.array([[0.8, 0.2], [0.3, 0.7]])
        seq, cost = enumerate_novelty(SeqDist(rows), NoveltyDb())
        assert seq == Sequence((0, 1))
        assert cost == 0.0

    def test_picks_cheapest_escape(self):
        rows = np.array([[0.8, 0.2], [0.55, 0.45]])
        seq, cost = enumerate_novelty(SeqDist(rows), NoveltyDb([Sequence((0, 0))]))
        assert seq == Sequence((0, 1))
        assert cost == pytest.approx(0.55 - 0.45)

    def test_lexicographic_ties(self):
        rows = np.full((2, 2), 0.5)
        seq, cost = enumerate_novelty(SeqDist(rows), NoveltyDb([Sequence((0, 0))]))
        assert seq == Sequence((0, 1))
        assert cost == 0.0

    def test_exhausted_db_raises(self):
        db = NoveltyDb(Sequence(ids) for ids in itertools.product(range(2), repeat=2))
        with pytest.raises(ValueError):
            enumerate_novelty(SeqDist(np.full((2, 2), 0.5)), db)

    def test_space_cap(self):
        rows = np.full((13, 2), 0.5)  # 2^13 > 4096
        assert 2**13 > MAX_NOVELTY_SPACE
        with pytest.raises(ValueError):
            enumerate_novelty(SeqDist(rows), NoveltyDb())


class TestEnumerateFewestFlips:
    def test_feasible_input_costs_nothing(self):
        rows = SeqDist.one_hot(Sequence((0, 1)), 2).rows
        assert enumerate_fewest_flips(rows, ConstraintSet([Forbidden(2)])) == (Sequence((0, 1)), 0.0)

    def test_fewest_flips_lowest_ids_first(self):
        # Two of the three 0s must go; every two-flip repair ties, and
        # (0, 1, 1) is the lexicographically smallest.
        rows = SeqDist.one_hot(Sequence((0, 0, 0)), 3).rows
        seq, cost = enumerate_fewest_flips(rows, ConstraintSet([TokenCount(token=0, op="le", k=1)]))
        assert seq == Sequence((0, 1, 1))
        assert cost == 2 * math.log(2.0)

    def test_tau_slack(self):
        rows = SeqDist.one_hot(Sequence((0, 0)), 2).rows
        cs = ConstraintSet([TokenCount(token=0, op="le", k=1, tau=1.0)])
        assert enumerate_fewest_flips(rows, cs) == (Sequence((0, 0)), 0.0)

    def test_rejects_soft_rows_and_unsatisfiable_sets(self):
        with pytest.raises(ValueError):
            enumerate_fewest_flips(np.array([[0.6, 0.4]]), ConstraintSet([Forbidden(0)]))
        with pytest.raises(ValueError):
            enumerate_fewest_flips(np.eye(2), ConstraintSet([TokenCount(token=0, op="ge", k=3)]))

    def test_space_cap(self):
        rows = np.eye(2)[np.zeros(13, dtype=int)]  # 2^13 > 4096
        assert 2**13 > MAX_FLIP_SPACE
        with pytest.raises(ValueError):
            enumerate_fewest_flips(rows, ConstraintSet([Forbidden(0)]))


class TestPooledFlipCost:
    def test_matches_closed_form_table(self):
        rng = np.random.default_rng(19)
        for n in range(2, 6):
            for _ in range(20):
                rows = rng.dirichlet(np.full(n, 0.7), size=3)
                oracle = [[pooled_flip_cost(row, v) for v in range(n)] for row in rows]
                np.testing.assert_allclose(oracle, _row_flip_costs(rows), rtol=0.0, atol=1e-12)

    def test_hand_case(self):
        # Token 1 pools with token 0 at 0.4 each; token 2 at 0.2 stays out.
        assert pooled_flip_cost([0.5, 0.3, 0.2], 1) == pytest.approx(0.5 * math.log(1.25) + 0.3 * math.log(0.75))
        assert pooled_flip_cost([0.5, 0.3, 0.2], 0) == 0.0


class TestEnumerateCheapestPattern:
    def test_soft_rows_hand_case(self):
        rows = np.array([[0.9, 0.1], [0.6, 0.4]])
        seq, cost = enumerate_cheapest_pattern(rows, ConstraintSet([TokenCount(token=0, op="le", k=1)]))
        assert seq == Sequence((0, 1))
        assert cost == pytest.approx(pooled_flip_cost(rows[1], 1))

    def test_one_hot_rows_agree_with_fewest_flips(self):
        rows = SeqDist.one_hot(Sequence((0, 0, 0)), 3).rows
        cs = ConstraintSet([TokenCount(token=0, op="le", k=1)])
        seq, cost = enumerate_cheapest_pattern(rows, cs)
        assert (seq, cost) == (enumerate_fewest_flips(rows, cs)[0], pytest.approx(2 * math.log(2.0)))

    def test_rejects_unsatisfiable_sets_and_large_spaces(self):
        with pytest.raises(ValueError):
            enumerate_cheapest_pattern(np.eye(2), ConstraintSet([TokenCount(token=0, op="ge", k=3)]))
        with pytest.raises(ValueError):
            enumerate_cheapest_pattern(np.full((13, 2), 0.5), ConstraintSet([Forbidden(0)]))
