"""Vocabulary, sequences, distributions, schedules, corpus I/O."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projdiff.core import (
    ROW_SUM_TOL,
    Corpus,
    Schedule,
    SeqDist,
    Sequence,
    Vocabulary,
    decode,
    kl_divergence,
    read_sequences,
    write_sequences,
)

from conftest import make_corpus, make_vocab


def random_rows(rng, length, n):
    return rng.dirichlet(np.ones(n), size=length)


class TestVocabulary:
    def test_basic(self):
        v = Vocabulary(("a", "b", "c"))
        assert v.size == 3
        assert v.id_of("b") == 1
        assert v.token_of(2) == "c"
        assert v.mask_id is None

    def test_mask(self):
        v = make_vocab(3)
        assert v.mask_id == 3
        assert v.token_of(3) == "[MASK]"

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(("a", "a"))

    def test_unknown_token(self):
        with pytest.raises(ValueError):
            Vocabulary(("a",)).id_of("z")

    def test_file_round_trip(self, tmp_path):
        v = make_vocab(4)
        path = tmp_path / "vocab.txt"
        v.to_file(path)
        assert Vocabulary.from_file(path) == v

    def test_mask_header_must_name_member(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("#mask zz\na\nb\n")
        with pytest.raises(ValueError):
            Vocabulary.from_file(path)


class TestSequence:
    def test_hashable_and_indexable(self):
        s = Sequence((1, 0, 2))
        assert len(s) == 3
        assert s[1] == 0
        assert s == Sequence((1, 0, 2))
        assert hash(s) == hash(Sequence((1, 0, 2)))

    @pytest.mark.parametrize("weight", [0.0, -1.0, float("nan"), float("inf")])
    def test_weight_outside_positive_finite_rejected(self, weight):
        v = Vocabulary(("a", "b"))
        with pytest.raises(ValueError, match="positive and finite"):
            Corpus(v, [(Sequence((0, 1)), 1.0), (Sequence((1, 1)), weight)])

    def test_weights_summing_past_the_largest_float_rejected(self):
        # Each weight is finite, but the total is not, and every weight
        # would normalize to zero.
        v = Vocabulary(("a", "b"))
        with pytest.raises(ValueError, match="largest float"):
            Corpus(v, [(Sequence((0, 1)), 1e308), (Sequence((1, 1)), 1e308)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Sequence(())

    def test_unchecked_equals_checked(self):
        s = Sequence.unchecked((1, 0, 2))
        assert type(s) is Sequence and s.ids == (1, 0, 2)
        assert s == Sequence((1, 0, 2)) and hash(s) == hash(Sequence((1, 0, 2)))
        assert {s: 1}[Sequence((1, 0, 2))] == 1

    def test_from_tokens(self):
        v = Vocabulary(("a", "b"))
        assert Sequence.from_tokens(["b", "a"], v) == Sequence((1, 0))

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.intp])
    def test_from_id_array_matches_constructor(self, dtype):
        ids = np.random.default_rng(0).integers(0, 7, size=(50, 4)).astype(dtype)
        ids[1] = ids[0]
        got = Sequence.from_id_array(ids)
        want = [Sequence(tuple(int(v) for v in row)) for row in ids]
        assert got == want
        assert [hash(s) for s in got] == [hash(s) for s in want]
        assert all(type(v) is int for s in got for v in s.ids)
        assert len(set(got)) == len(set(want)) and got[0] is got[1]
        with pytest.raises(AttributeError):
            got[0].ids = (0,)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.intp])
    @pytest.mark.parametrize("repeats", [True, False], ids=["c04-repeats", "repeat-free"])
    def test_from_id_array_above_the_dedupe_size(self, dtype, repeats):
        # 16,384 rows drawn from 29 distinct ones, as a c04 chunk ends, or
        # the 4**5 distinct rows over 5 positions, shuffled.
        rng = np.random.default_rng(1)
        if repeats:
            ids = rng.integers(0, 4, size=(29, 3))[rng.integers(0, 29, 16384)]
        else:
            ids = rng.permutation(np.array(list(itertools.product(range(4), repeat=5))))
        ids = ids.astype(dtype)
        got = Sequence.from_id_array(ids)
        want = [Sequence(tuple(int(v) for v in row)) for row in ids]
        assert got == want
        assert [hash(s) for s in got] == [hash(s) for s in want]
        assert all(type(v) is int for s in got for v in s.ids)
        # Equal rows share one object, and only equal rows do.
        assert len({id(s) for s in got}) == len(set(want))
        if repeats:
            first = {}
            for seq in got:
                assert first.setdefault(seq, seq) is seq

    def test_from_id_array_checks_a_large_array(self):
        negative = np.zeros((100, 3), dtype=np.int64)
        negative[83, 1] = -1
        cases = [
            (np.zeros((100, 0), dtype=np.int64), "empty sequence"),
            (negative, "negative token id"),
            (np.zeros(100, dtype=np.int64), "expected a 2-d id array"),
        ]
        for bad, message in cases:
            with pytest.raises(ValueError, match=message):
                Sequence.from_id_array(bad)

    def test_from_id_array_checks_the_array(self):
        assert Sequence.from_id_array(np.zeros((0, 3), dtype=np.int64)) == []
        for bad in (np.zeros((2, 0), dtype=np.int64), np.array([[0, 1], [2, -1]]), np.zeros(3, dtype=np.int64)):
            with pytest.raises(ValueError):
                Sequence.from_id_array(bad)


class TestSeqDist:
    def test_valid_rows(self):
        d = SeqDist(np.array([[0.5, 0.5], [1.0, 0.0]]))
        assert d.length == 2
        assert d.vocab_size == 2
        assert not d.rows.flags.writeable

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError):
            SeqDist(np.array([[0.6, 0.6]]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SeqDist(np.array([[1.2, -0.2]]))

    def test_normalized(self):
        d = SeqDist.normalized(np.array([[2.0, 2.0], [3.0, 1.0]]))
        assert np.allclose(d.rows, [[0.5, 0.5], [0.75, 0.25]])

    def test_nan_rejected(self):
        # NaN fails every comparison, so a check written as "any entry
        # below zero" would let it through, and decode would read it as
        # token 0.
        for rows in ([[np.nan, 1.0], [0.5, 0.5]], [[np.nan, np.nan]], [[0.5, 0.5], [1.0, np.nan]]):
            with pytest.raises(ValueError, match="NaN"):
                SeqDist(np.array(rows))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_rejected(self, bad):
        with pytest.raises(ValueError):
            SeqDist(np.array([[bad, 0.0], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            SeqDist(np.array([[bad, 1.0]]))

    def test_nan_in_last_entry_rejected(self):
        rows = np.full((3, 4), 0.25)
        rows[-1, -1] = np.nan
        with pytest.raises(ValueError, match=r"^negative or NaN probability$"):
            SeqDist(rows)

    def test_infinite_entries_rejected_with_their_messages(self):
        with pytest.raises(ValueError, match=r"^negative or NaN probability$"):
            SeqDist(np.array([[0.5, 0.5], [-np.inf, 1.0]]))
        with pytest.raises(ValueError, match=r"^row sums deviate from 1 by inf$"):
            SeqDist(np.array([[0.5, 0.5], [0.0, np.inf]]))

    def test_row_sum_just_over_tolerance_rejected(self):
        # The first float whose distance from 1 exceeds the tolerance
        # fails; the float before it passes.
        x = 1.0 + ROW_SUM_TOL
        while abs(x - 1.0) <= ROW_SUM_TOL:
            x = np.nextafter(x, 2.0)
        SeqDist(np.array([[0.5, 0.5], [np.nextafter(x, 0.0), 0.0]]))
        message = f"row sums deviate from 1 by {abs(x - 1.0):.3e}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            SeqDist(np.array([[0.5, 0.5], [x, 0.0]]))
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            SeqDist(np.array([[0.5, 0.5], [0.0, 2.0 - x]]))

    def test_negative_zero_accepted(self):
        d = SeqDist(np.array([[-0.0, 1.0], [0.5, 0.5]]))
        assert d.rows[0, 0] == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_normalized_rejects_non_finite_rows(self, bad):
        with pytest.raises(ValueError, match="cannot normalize"):
            SeqDist.normalized(np.array([[bad, 1.0], [3.0, 1.0]]))

    def test_normalized_rejects_zero_row(self):
        with pytest.raises(ValueError, match="cannot normalize"):
            SeqDist.normalized(np.array([[0.0, 0.0], [3.0, 1.0]]))

    def test_normalized_passes_negative_entries_to_the_check(self):
        with pytest.raises(ValueError, match="negative"):
            SeqDist.normalized(np.array([[2.0, -1.0]]))

    def test_one_hot(self):
        d = SeqDist.one_hot(Sequence((1, 0)), 3)
        assert np.array_equal(d.rows, [[0, 1, 0], [1, 0, 0]])

    def test_decode_ties_to_lowest_id(self):
        assert decode(SeqDist(np.array([[0.5, 0.5]]))) == Sequence((0,))


class TestKlDivergence:
    def test_zero_on_equal(self):
        rng = np.random.default_rng(0)
        rows = random_rows(rng, 4, 5)
        assert kl_divergence(rows, rows) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        p = np.array([[0.9, 0.1]])
        q = np.array([[0.5, 0.5]])
        expect = 0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5)
        assert kl_divergence(p, q) == pytest.approx(expect, rel=1e-12)

    def test_infinite_off_support(self):
        assert kl_divergence(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])) == math.inf

    def test_zero_p_coordinate_ignored(self):
        val = kl_divergence(np.array([[0.0, 1.0]]), np.array([[0.5, 0.5]]))
        assert val == pytest.approx(math.log(2.0), rel=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        p = random_rows(rng, 3, 4)
        q = random_rows(rng, 3, 4)
        assert kl_divergence(p, q) >= -1e-12


class TestSchedule:
    @pytest.mark.parametrize("kind", ["linear", "loglinear"])
    def test_endpoints_and_monotone(self, kind):
        sched = Schedule(kind, 16)
        assert sched.alpha(0) == pytest.approx(1.0)
        assert sched.alpha(16) <= 1e-4 * (1 + 1e-12)
        values = [sched.alpha(t) for t in range(17)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_range_checked(self):
        with pytest.raises(ValueError):
            Schedule("linear", 4).alpha(5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Schedule("cosine", 4)


class TestCorpus:
    def test_merge_and_normalize(self):
        v = Vocabulary(("a", "b"))
        c = Corpus(v, [(Sequence((0, 1)), 1.0), (Sequence((0, 1)), 1.0), (Sequence((1, 1)), 2.0)])
        assert c.size == 2
        assert c.weight_of(Sequence((0, 1))) == pytest.approx(0.5)
        assert np.sum(c.weights()) == pytest.approx(1.0)

    def test_mask_in_data_rejected(self):
        v = Vocabulary(("a", "m"), mask_id=1)
        with pytest.raises(ValueError):
            Corpus(v, [(Sequence((0, 1)), 1.0)])

    def test_mixed_lengths_rejected(self):
        v = Vocabulary(("a", "b"))
        with pytest.raises(ValueError):
            Corpus(v, [(Sequence((0,)), 1.0), (Sequence((0, 1)), 1.0)])

    @pytest.mark.parametrize("weight", [0.0, -1.0, float("nan"), float("inf")])
    def test_weight_outside_positive_finite_rejected(self, weight):
        v = Vocabulary(("a", "b"))
        with pytest.raises(ValueError, match="positive and finite"):
            Corpus(v, [(Sequence((0, 1)), 1.0), (Sequence((1, 1)), weight)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Corpus(Vocabulary(("a",)), [])

    def test_prior_marginals(self, tiny_corpus):
        marg = tiny_corpus.prior_marginals()
        assert marg[0] == pytest.approx([2 / 3, 1 / 3, 0.0])
        assert marg[1] == pytest.approx([0.0, 1.0, 0.0])

    def test_file_round_trip(self, tmp_path):
        vocab = make_vocab(4)
        corpus = make_corpus(vocab, length=5, n_entries=6, seed=3)
        path = tmp_path / "corpus.txt"
        corpus.to_file(path)
        back = Corpus.from_file(path, vocab)
        assert back.entries == corpus.entries

    def test_bad_weight_reported_with_line(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("a b\tnotanumber\n")
        with pytest.raises(ValueError, match="bad weight"):
            Corpus.from_file(path, make_vocab(2))

    @pytest.mark.parametrize("tail", ["nan", "0", "-1", "inf"])
    def test_refused_weight_reported_with_line(self, tmp_path, tail):
        # A weight that parses but that Corpus refuses names its line too.
        path = tmp_path / "corpus.txt"
        path.write_text(f"a b\t{tail}\nb a\t1\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:1: corpus weight must be positive and finite"):
            Corpus.from_file(path, make_vocab(2))


def test_sequence_file_round_trip(tmp_path):
    vocab = make_vocab(3)
    seqs = [Sequence((0, 1, 2, 0)), Sequence((2, 2, 1, 0))]
    path = tmp_path / "seqs.txt"
    write_sequences(path, seqs, vocab)
    assert read_sequences(path, vocab) == seqs
