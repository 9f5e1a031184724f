"""Constraint families: hard scores, relaxed scores, gradients, parsing."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projdiff.constraints import (
    Constraint,
    ConstraintSet,
    Forbidden,
    LinearScore,
    Position,
    TokenCount,
    load_constraint_file,
    parse_constraint_spec,
)
from projdiff.core import SeqDist, Sequence
from projdiff.metrics import violation_count
from projdiff.oracle import _feasible_patterns
from projdiff.projection import _tolerance
from projdiff.sampler import SampleConfig, _Engine

from conftest import make_constraint_set, make_corpus, make_vocab, raise_taus


def one_hot_rows(seq, n):
    return SeqDist.one_hot(Sequence(seq), n).rows


class TestLinearScore:
    def test_hard_score_is_mean_weight(self):
        c = LinearScore(weights=np.array([0.0, 0.5, 1.0]), tau=0.4)
        assert c.hard_score(Sequence((0, 1, 2))) == pytest.approx(0.5)
        assert c.hard_violation(Sequence((0, 1, 2))) == pytest.approx(0.1)
        assert c.hard_violation(Sequence((0, 0, 1))) == 0.0

    def test_hard_scores_bit_equal_to_mean(self):
        # On C-ordered ids, as hard_violations_batch passes them,
        # hard_scores sums and divides as np.mean does, so every digest
        # recorded with the mean still holds.
        rng = np.random.default_rng(5)
        for _ in range(300):
            n, k, length = rng.integers(1, 40), rng.integers(0, 70), rng.integers(1, 40)
            weights = rng.random(n) * 10.0 ** rng.integers(-3, 4)
            ids = rng.integers(0, n, (k, length))
            got = LinearScore(weights=weights, tau=1.0).hard_scores(ids)
            assert got.tobytes() == weights[ids].mean(axis=1).tobytes()

    def test_relaxed_matches_hard_on_one_hot(self):
        c = LinearScore(weights=np.array([0.1, 0.9]), tau=0.5)
        seq = (0, 1, 1)
        assert c.relaxed_score(one_hot_rows(seq, 2)) == pytest.approx(c.hard_score(Sequence(seq)))

    def test_weights_file(self, tmp_path):
        vocab = make_vocab(3, with_mask=False)
        path = tmp_path / "w.tsv"
        path.write_text("a\t0.2\nc\t0.8\n")
        c = LinearScore.from_weights_file(path, vocab, tau=0.5)
        assert c.weights == pytest.approx([0.2, 0.0, 0.8])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, tmp_path, bad):
        with pytest.raises(ValueError, match="finite"):
            LinearScore(weights=np.array([0.1, bad, 0.5]), tau=0.5)
        path = tmp_path / "w.tsv"
        path.write_text(f"a\t{bad}\n")
        with pytest.raises(ValueError, match="finite"):
            LinearScore.from_weights_file(path, make_vocab(3, with_mask=False), tau=0.5)


@pytest.mark.parametrize(
    "family",
    [
        lambda tau: LinearScore(weights=np.array([0.1, 0.9]), tau=tau),
        lambda tau: TokenCount(token=0, op="le", k=1, tau=tau),
        lambda tau: Forbidden(token=0, tau=tau),
        lambda tau: Position(position=0, token=1, tau=tau),
    ],
    ids=["linear_score", "token_count", "forbidden", "position"],
)
def test_nan_or_negative_tau_rejected(family):
    # A NaN tau would make every violation NaN, so no state could pass.
    for bad in (np.nan, -0.5):
        with pytest.raises(ValueError, match="tau"):
            family(bad)
    assert family(0.0).tau == 0.0


class TestTokenCount:
    def test_le(self):
        c = TokenCount(token=1, op="le", k=2)
        assert c.hard_violation(Sequence((1, 1, 0))) == 0.0
        assert c.hard_violation(Sequence((1, 1, 1))) == 1.0

    def test_ge(self):
        c = TokenCount(token=0, op="ge", k=2)
        assert c.hard_violation(Sequence((0, 1, 1))) == 1.0
        assert c.hard_violation(Sequence((0, 0, 1))) == 0.0

    def test_eq(self):
        c = TokenCount(token=0, op="eq", k=1)
        assert c.hard_violation(Sequence((0, 1))) == 0.0
        assert c.hard_violation(Sequence((1, 1))) == 1.0
        assert c.hard_violation(Sequence((0, 0))) == 1.0

    def test_relaxed_uses_probability_mass(self):
        c = TokenCount(token=0, op="le", k=1)
        rows = np.array([[0.7, 0.3], [0.6, 0.4]])
        assert c.relaxed_score(rows) == pytest.approx(0.3)

    def test_bad_op_rejected(self):
        with pytest.raises(ValueError):
            TokenCount(token=0, op="lt", k=1)

    @pytest.mark.parametrize("bad", [np.nan, -1])
    def test_nan_or_negative_k_rejected(self, bad):
        with pytest.raises(ValueError, match="k must be"):
            TokenCount(token=0, op="le", k=bad)

    def test_auto_name(self):
        assert TokenCount(token=2, op="eq", k=3).name == "count[2]==3"


class TestIntegerFields:
    """token, k and position index tables and count occurrences, so each
    must be an integer (numpy's too), never a float or a bool."""

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: TokenCount(token=1.5, op="le", k=1), "token"),
            (lambda: TokenCount(token=True, op="le", k=1), "token"),
            (lambda: TokenCount(token=0, op="eq", k=1.5), "k"),
            (lambda: TokenCount(token=0, op="le", k=2.0), "k"),
            (lambda: TokenCount(token=0, op="ge", k=True), "k"),
            (lambda: TokenCount(token=0, op="le", k="3"), "k"),
            (lambda: Forbidden(2.0), "token"),
            (lambda: Position(position=1.5, token=0), "position"),
            (lambda: Position(position=False, token=0), "position"),
            (lambda: Position(position=1, token=0.0), "token"),
        ],
    )
    def test_non_integer_field_rejected(self, make, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            make()

    def test_numpy_integers_accepted(self):
        c = TokenCount(token=np.int64(1), op="eq", k=np.int32(2))
        assert c.hard_violation(Sequence((1, 1, 0))) == 0.0
        assert Position(position=np.int64(1), token=np.int8(2)).hard_violation(Sequence((0, 2))) == 0.0
        assert Forbidden(np.int16(0)).hard_violation(Sequence((1,))) == 0.0

    def test_negative_position_rejected(self):
        with pytest.raises(ValueError, match="position must be >= 0"):
            Position(position=-1, token=0)


class TestForbidden:
    def test_zero_count_semantics(self):
        c = Forbidden(token=2)
        assert c.hard_violation(Sequence((0, 1))) == 0.0
        assert c.hard_violation(Sequence((2, 1))) == 1.0
        assert c.name == "forbidden[2]"


class TestPosition:
    def test_hard_is_token_equality(self):
        c = Position(position=1, token=0)
        assert c.hard_violation(Sequence((1, 0))) == 0.0
        assert c.hard_violation(Sequence((0, 1))) == 1.0

    def test_relaxed_margin_sign(self):
        c = Position(position=0, token=0)
        winning = np.array([[0.6, 0.3, 0.1]])
        losing = np.array([[0.2, 0.5, 0.3]])
        assert c.relaxed_score(winning) < 0
        assert c.relaxed_score(losing) == pytest.approx(0.3)

    def test_too_short_sequence(self):
        with pytest.raises(ValueError):
            Position(position=3, token=0).hard_score(Sequence((0, 1)))


@pytest.mark.parametrize(
    "constraint",
    [
        LinearScore(weights=np.array([0.2, 0.5, 0.9, 0.1]), tau=0.4),
        TokenCount(token=1, op="le", k=1),
        TokenCount(token=2, op="ge", k=2),
        TokenCount(token=0, op="eq", k=1),
        Forbidden(token=3),
        Position(position=1, token=2),
    ],
)
def test_hard_and_relaxed_coincide_on_one_hot(constraint):
    rng = np.random.default_rng(0)
    for _ in range(30):
        seq = tuple(int(v) for v in rng.integers(0, 4, size=3))
        hard = constraint.hard_score(Sequence(seq))
        relaxed = constraint.relaxed_score(one_hot_rows(seq, 4))
        if isinstance(constraint, Position):
            # On one-hot rows the margin is in {-1, +1}, matching the
            # hard score exactly.
            assert relaxed == hard
        else:
            assert relaxed == pytest.approx(hard, abs=1e-12)


@pytest.mark.parametrize(
    "constraint",
    [
        LinearScore(weights=np.array([0.2, 0.5, 0.9, 0.1]), tau=0.4),
        TokenCount(token=1, op="le", k=1),
        TokenCount(token=2, op="ge", k=2),
        TokenCount(token=0, op="eq", k=1),
        Forbidden(token=3),
        Position(position=1, token=2),
    ],
)
def test_relaxed_grad_matches_finite_differences(constraint):
    rng = np.random.default_rng(3)
    h = 1e-6
    checked = 0
    while checked < 10:
        rows = rng.dirichlet(np.ones(4), size=3)
        # Stay clear of the kinks: eq sign changes and argmax rival swaps.
        if isinstance(constraint, TokenCount) and constraint.op == "eq":
            if abs(rows[:, constraint.token].sum() - constraint.k) < 0.05:
                continue
        if isinstance(constraint, Position):
            row = rows[constraint.position]
            rivals = np.delete(row, constraint.token)
            if np.sort(rivals)[-1] - np.sort(rivals)[-2] < 0.05:
                continue
        grad = constraint.relaxed_grad(rows)
        for i in range(3):
            for v in range(4):
                up = rows.copy()
                dn = rows.copy()
                up[i, v] += h
                dn[i, v] -= h
                fd = (constraint.relaxed_score(up) - constraint.relaxed_score(dn)) / (2 * h)
                assert grad[i, v] == pytest.approx(fd, abs=1e-6)
        checked += 1


class TestConstraintSet:
    def test_iteration_and_names(self):
        cs = ConstraintSet((Forbidden(0), Position(0, 1)))
        assert len(cs) == 2
        assert cs.names == ["forbidden[0]", "position[0]=1"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSet((Forbidden(0), Forbidden(0)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSet(())

    def test_vector_evaluations(self):
        cs = ConstraintSet((Forbidden(0), TokenCount(token=1, op="ge", k=2)))
        seq = Sequence((0, 1, 2))
        assert cs.hard_violations(seq) == pytest.approx([1.0, 1.0])
        assert not cs.satisfied(seq)
        assert cs.satisfied(Sequence((1, 1, 2)))


class NanOnLeadingZero(Constraint):
    """Scores NaN on sequences that start with token 0, and -1 on the rest."""

    name, tau = "nan_on_leading_zero", 0.0

    def hard_scores(self, ids):
        return np.where(ids[:, 0] == 0, np.nan, -1.0)

    def check_fits(self, n, length):
        pass


def _sampler_passes(cs, ids, n):
    corpus = make_corpus(make_vocab(n, with_mask=False), length=ids.shape[1], n_entries=4)
    config = SampleConfig(steps=2, length=ids.shape[1], kernel="uniform", projection_mode="alm")
    return _Engine(corpus, cs, config, None, None)._passes(ids, 2)


# Every reader of the feasibility rule, as a map from a (K, L) stack of
# ids to which rows it counts as feasible.
FEASIBILITY_READERS = {
    "satisfied": lambda cs, ids, n: np.array([cs.satisfied(Sequence(tuple(row))) for row in ids.tolist()]),
    "violation_count": lambda cs, ids, n: np.array(
        [violation_count([Sequence(tuple(row))], cs) == 0 for row in ids.tolist()]
    ),
    "feasible_patterns": lambda cs, ids, n: _feasible_patterns(ids.shape[1], n, cs)[1],
    "sampler_passes": _sampler_passes,
}


class TestOneFeasibilityRule:
    """A constraint holds when its score is at most its tau; a slack is
    written as a raised tau."""

    @pytest.mark.parametrize("reader", sorted(FEASIBILITY_READERS))
    def test_nan_score_is_a_violation(self, reader):
        n, length = 3, 2
        ids = np.asarray(list(itertools.product(range(n), repeat=length)))  # the order _feasible_patterns uses
        cs = ConstraintSet((NanOnLeadingZero(), Forbidden(2, tau=2.0)))
        got = FEASIBILITY_READERS[reader](cs, ids, n)
        assert np.array_equal(got, ids[:, 0] != 0)

    @pytest.mark.parametrize("family", ["count", "forbidden", "position", "linear"])
    def test_raised_tau_forgives_exactly_the_slack(self, family):
        n, length = 3, 4
        c = {
            "count": TokenCount(token=0, op="le", k=1),
            "forbidden": Forbidden(1),
            "position": Position(position=2, token=1),
            "linear": LinearScore(weights=np.array([0.0, 0.25, 1.0]), tau=0.0),
        }[family]
        cs = ConstraintSet((c,))
        ids = np.asarray(list(itertools.product(range(n), repeat=length)))
        base = cs.hard_violations_batch(ids)[:, 0]
        # Quarter weights over four positions: every score and slack is exact.
        slacks = (0.0, 0.25, 0.5) if family == "linear" else (0.0, 1.0, 2.0)
        for d in slacks:
            raised = raise_taus(cs, d)
            assert np.array_equal(raised.hard_violations_batch(ids)[:, 0], np.maximum(base - d, 0.0))
            got = [raised.satisfied(Sequence(tuple(row))) for row in ids.tolist()]
            assert got == (base <= d).tolist()
        assert np.any((base > 0) & (base <= slacks[1]))  # some row needs the slack
        assert c.tau == 0.0  # raise_taus leaves cs as it was


def reference_hard_score(c, seq):
    """Each family's hard score written out one sequence at a time."""
    if isinstance(c, LinearScore):
        return float(np.mean([c.weights[v] for v in seq]))
    if isinstance(c, TokenCount):
        return c._score(float(sum(1 for v in seq if v == c.token)))
    return -1.0 if seq[c.position] == c.token else 1.0


class TestHardViolationsBatch:
    """The batch must equal the one-sequence evaluation bit for bit, at
    every stack height: numpy reductions along an axis can group their
    additions by shape and memory order."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 16, 1000]))
    @settings(max_examples=60, deadline=None)
    def test_equals_stacked_scalar(self, seed, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 17))
        length = int(rng.integers(1, 20))
        cs = make_constraint_set(rng, n, length)
        ids = rng.integers(0, n, size=(k, length))
        batch = cs.hard_violations_batch(ids)
        assert batch.shape == (k, len(cs))
        rows = ids[: min(k, 40)]
        scalar = np.stack([cs.hard_violations(Sequence(tuple(int(v) for v in r))) for r in rows])
        assert np.array_equal(batch[: rows.shape[0]], scalar)
        for j, c in enumerate(cs):
            ref = [max(0.0, reference_hard_score(c, tuple(r)) - c.tau) for r in rows]
            assert np.array_equal(batch[: rows.shape[0], j], ref)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_memory_order_of_input_does_not_matter(self, seed):
        rng = np.random.default_rng(seed)
        n, length = 13, 10
        cs = make_constraint_set(rng, n, length)
        ids = rng.integers(0, n, size=(64, length))
        expected = cs.hard_violations_batch(ids)
        assert np.array_equal(cs.hard_violations_batch(np.asfortranarray(ids)), expected)
        assert np.array_equal(cs.hard_violations_batch(ids[::-1])[::-1], expected)
        assert np.array_equal(cs.hard_violations_batch(ids.tolist()), expected)

    def test_hard_scores_per_family(self):
        ids = np.array([[0, 1, 2], [1, 1, 1], [2, 0, 0]])
        lin = LinearScore(weights=np.array([0.0, 0.5, 1.0]), tau=0.4)
        assert lin.hard_scores(ids).tolist() == [0.5, 0.5, 1.0 / 3.0]
        assert TokenCount(token=1, op="le", k=1).hard_scores(ids).tolist() == [0.0, 2.0, -1.0]
        assert TokenCount(token=1, op="ge", k=1).hard_scores(ids).tolist() == [0.0, -2.0, 1.0]
        assert TokenCount(token=1, op="eq", k=1).hard_scores(ids).tolist() == [0.0, 2.0, 1.0]
        assert Position(position=0, token=2).hard_scores(ids).tolist() == [1.0, 1.0, -1.0]

    def test_position_past_the_end_raises(self):
        cs = ConstraintSet((Position(position=3, token=0),))
        with pytest.raises(ValueError, match="too short"):
            cs.hard_violations_batch(np.zeros((4, 3), dtype=np.int64))
        with pytest.raises(ValueError, match="too short"):
            cs.hard_violations(Sequence((0, 0, 0)))


def phi_of_table_sum(terms, ids):
    """A constraint's PositionTerms evaluated on (K, L) ids: phi of the
    summed table entries, left to right."""
    sums = terms.table[np.arange(ids.shape[1]), ids].sum(axis=1)
    score = terms.scale * sums + terms.offset
    return np.abs(score) if terms.absolute else score


class TestPositionTerms:
    """Each family's per-position table and phi against its hard scores."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_count_and_position_terms_are_exact(self, seed):
        rng = np.random.default_rng(seed)
        n, length = int(rng.integers(1, 14)), int(rng.integers(1, 12))
        ids = rng.integers(0, n, size=(int(rng.integers(1, 50)), length))
        token = int(rng.integers(0, n))
        k = int(rng.integers(0, length + 2))
        family = [TokenCount(token, op, k) for op in ("le", "ge", "eq")]
        family += [Forbidden(token), Position(int(rng.integers(0, length)), token)]
        for c in family:
            terms = c.position_terms(length, n)
            assert terms.table.shape == (length, n)
            assert np.issubdtype(terms.table.dtype, np.integer) and terms.exact
            assert np.array_equal(phi_of_table_sum(terms, ids), c.hard_scores(ids)), c.name

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_linear_terms_within_the_search_tolerance(self, seed):
        rng = np.random.default_rng(seed)
        n, length = int(rng.integers(1, 14)), int(rng.integers(1, 30))
        base = rng.choice(np.array([0.1, 0.2, 0.3, 0.7, 1e-3, 123.456]), size=n)
        weights = np.nextafter(base, np.where(rng.random(n) < 0.5, np.inf, -np.inf))
        if rng.random() < 0.3:
            weights = -weights
        c = LinearScore(weights=weights, tau=0.5)
        terms = c.position_terms(length, n)
        assert terms.table.shape == (length, n) and terms.scale == 1.0 / length and terms.offset == 0.0
        assert not terms.exact
        ids = rng.integers(0, n, size=(200, length))
        got, want = phi_of_table_sum(terms, ids), c.hard_scores(ids)
        tol = _tolerance(terms.scale * terms.table, terms.offset)
        assert np.all(np.abs(got - want) <= tol)
        # The tolerance is a few thousand ulps, not a loose fraction.
        assert tol <= 1e-12 * max(1.0, float(np.abs(weights).max()))

    def test_base_class_has_no_terms(self):
        class Anything(Constraint):
            name, tau = "anything", 0.0

            def hard_scores(self, ids):
                return np.zeros(ids.shape[0])

        assert Anything().position_terms(3, 4) is None

    def test_position_past_the_end_raises(self):
        with pytest.raises(ValueError, match="too short"):
            Position(position=3, token=0).position_terms(3, 2)


class TestParsing:
    def test_parse_all_types(self, tmp_path):
        vocab = make_vocab(3)
        (tmp_path / "w.tsv").write_text("a\t0.1\nb\t0.9\n")
        spec = [
            {"type": "token_count", "token": "a", "op": "le", "k": 2},
            {"type": "forbidden", "token": "c"},
            {"type": "position", "position": 1, "token": "b"},
            {"type": "linear_score", "weights_file": "w.tsv", "tau": 0.5},
        ]
        cs = parse_constraint_spec(spec, vocab, base_dir=str(tmp_path))
        assert len(cs) == 4
        kinds = [type(c).__name__ for c in cs]
        assert kinds == ["TokenCount", "Forbidden", "Position", "LinearScore"]

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            parse_constraint_spec([{"type": "regex"}], make_vocab(2))

    @pytest.mark.parametrize(
        "obj, field",
        [
            ({"type": "token_count", "token": "a", "op": "le", "k": 2.5}, "k"),
            ({"type": "token_count", "token": "a", "op": "ge", "k": True}, "k"),
            ({"type": "token_count", "token": "a", "op": "eq", "k": "3"}, "k"),
            ({"type": "position", "position": 1.5, "token": "a"}, "position"),
            ({"type": "position", "position": True, "token": "a"}, "position"),
            ({"type": "position", "position": "1", "token": "a"}, "position"),
        ],
    )
    def test_non_integer_file_value_rejected(self, obj, field):
        # Read back from JSON, as a constraints file would give it.
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            parse_constraint_spec(json.loads(json.dumps([obj])), make_vocab(3))

    @pytest.mark.parametrize("tau", [True, False, "0.5", None])
    @pytest.mark.parametrize(
        "obj",
        [
            {"type": "token_count", "token": "a", "op": "le", "k": 1},
            {"type": "forbidden", "token": "a"},
            {"type": "position", "position": 0, "token": "a"},
        ],
        ids=["token_count", "forbidden", "position"],
    )
    def test_non_number_tau_rejected(self, obj, tau):
        # Not converted: true would otherwise read as a tau of 1.0.
        with pytest.raises(ValueError, match="tau must be a number"):
            parse_constraint_spec(json.loads(json.dumps([dict(obj, tau=tau)])), make_vocab(3))

    def test_linear_score_non_number_tau_rejected(self, tmp_path):
        (tmp_path / "w.tsv").write_text("a\t0.5\n")
        spec = [{"type": "linear_score", "weights_file": "w.tsv", "tau": "0.25"}]
        with pytest.raises(ValueError, match="tau must be a number"):
            parse_constraint_spec(spec, make_vocab(3), base_dir=str(tmp_path))

    def test_integer_tau_accepted(self):
        cs = parse_constraint_spec([{"type": "forbidden", "token": "a", "tau": 1}], make_vocab(3))
        (c,) = cs
        assert c.tau == 1.0 and isinstance(c.tau, float)

    def test_non_array_rejected(self):
        with pytest.raises(ValueError):
            parse_constraint_spec({"type": "forbidden"}, make_vocab(2))

    def test_load_resolves_relative_weights(self, tmp_path):
        vocab = make_vocab(2)
        (tmp_path / "w.tsv").write_text("b\t1.0\n")
        path = tmp_path / "cs.json"
        path.write_text(json.dumps([{"type": "linear_score", "weights_file": "w.tsv", "tau": 0.3}]))
        cs = load_constraint_file(path, vocab)
        assert list(cs)[0].weights == pytest.approx([0.0, 1.0, 0.0])
