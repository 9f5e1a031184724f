"""KL projection operators: closed-form row pooling, the augmented-
Lagrangian solver, and novelty redirection."""

import collections
import gc
import hashlib
import heapq
import itertools
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from projdiff import backend, projection
from projdiff.constraints import (
    Constraint,
    ConstraintSet,
    Forbidden,
    LinearScore,
    Position,
    PositionTerms,
    TokenCount,
)
from projdiff.core import SeqDist, Sequence, decode, kl_divergence
from projdiff.oracle import MAX_FLIP_SPACE, enumerate_cheapest_pattern, enumerate_fewest_flips, enumerate_novelty
from projdiff.projection import (
    DP_CHUNK_CELLS,
    AlmConfig,
    NoveltyDb,
    NoveltySaturationError,
    SearchTerms,
    _cheapest_patterns,
    _decode_search,
    _fewest_flips,
    _FlipDP,
    _force_argmax_row,
    _row_flip_costs,
    _ShellWalk,
    alm_project,
    flip_kl,
    novelty_project,
    novelty_project_ids,
    position_project,
    project_ids,
)

from conftest import NoTerms, make_constraint_set, make_corpus, make_vocab, raise_taus

# The SLSQP reference solver clips bound violations internally and says
# so; that chatter is not a property under test.
pytestmark = pytest.mark.filterwarnings(
    "ignore:Values in x were outside bounds:RuntimeWarning"
)


def row_kl(p, q):
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def scipy_forced_argmax_kl(row, token):
    """Reference minimum of KL(row || q) subject to argmax(q) = token."""
    n = row.shape[0]

    def objective(q):
        qc = np.clip(q, 1e-12, None)
        return row_kl(row, qc / qc.sum())

    cons = [{"type": "eq", "fun": lambda q: q.sum() - 1.0}]
    for j in range(n):
        if j != token:
            cons.append({"type": "ineq", "fun": lambda q, j=j: q[token] - q[j]})
    x0 = np.full(n, 1.0 / n)
    res = minimize(objective, x0, method="SLSQP", constraints=cons, bounds=[(1e-9, 1.0)] * n)
    assert res.success
    return res.fun


class TestPositionProject:
    def test_two_token_pooling_value(self):
        # Forcing the minority token pools both coordinates at 1/2; the
        # KL cost is KL((0.9, 0.1) || (0.5, 0.5)).
        x = SeqDist(np.array([[0.9, 0.1]]))
        out = position_project(x, 0, 1)
        assert decode(out) == Sequence((1,))
        expect = 0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5)
        assert kl_divergence(x.rows, out.rows) == pytest.approx(expect, abs=1e-4)
        assert out.rows[0] == pytest.approx([0.5, 0.5], abs=1e-5)

    def test_identity_when_already_decoding(self):
        x = SeqDist(np.array([[0.7, 0.3], [0.2, 0.8]]))
        assert position_project(x, 1, 1) is x

    def test_only_target_row_changes(self):
        rng = np.random.default_rng(0)
        rows = rng.dirichlet(np.ones(4), size=3)
        out = position_project(SeqDist(rows), 1, int(np.argmin(rows[1])))
        assert np.array_equal(out.rows[0], rows[0])
        assert np.array_equal(out.rows[2], rows[2])

    def test_pool_only_dominating_competitors(self):
        # Forcing token 2 on (0.5, 0.3, 0.2) pools tokens 0 and 2 at
        # 0.35 but leaves 0.3 alone, since 0.3 < 0.35.
        x = SeqDist(np.array([[0.5, 0.3, 0.2]]))
        out = position_project(x, 0, 2)
        assert decode(out) == Sequence((2,))
        assert out.rows[0, 1] == pytest.approx(0.3)
        assert out.rows[0, 0] == pytest.approx(0.35, abs=1e-5)
        assert out.rows[0, 2] == pytest.approx(0.35, abs=1e-5)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_nonlinear_solver(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        row = rng.dirichlet(np.ones(n))
        token = int(rng.integers(0, n))
        out = position_project(SeqDist(row[None, :]), 0, token)
        got = row_kl(row, out.rows[0])
        ref = scipy_forced_argmax_kl(row, token)
        assert got <= ref + 1e-5

    def test_range_checks(self):
        x = SeqDist(np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            position_project(x, 2, 0)
        with pytest.raises(ValueError):
            position_project(x, 0, 5)


class TestAlmProject:
    def test_identity_on_feasible_input(self):
        rows = np.array([[0.8, 0.2], [0.3, 0.7]])
        cs = ConstraintSet([TokenCount(token=0, op="le", k=1)])
        res = alm_project(SeqDist(rows), cs)
        assert res.feasible
        assert res.outer_iters == 0
        assert res.kl_moved == 0.0
        assert np.array_equal(res.projected.rows, rows)

    def test_one_hot_pair_flips_single_row(self):
        # Two identical one-hot rows on token 0 with "at most one 0":
        # the cheapest repair flips exactly one row, costing ln 2.
        rows = np.array([[1.0, 0.0], [1.0, 0.0]])
        cs = ConstraintSet([TokenCount(token=0, op="le", k=1)])
        res = alm_project(SeqDist(rows), cs)
        assert res.feasible
        dec = decode(res.projected)
        assert sorted(dec.ids) == [0, 1]
        assert res.kl_moved == pytest.approx(math.log(2.0), abs=1e-3)

    def test_flips_smallest_margin_row(self):
        # All rows decode to 0 but only two may keep it; the optimal flip
        # is the row with the least mass to give up.
        rows = np.array([[0.96, 0.04], [0.90, 0.10], [0.97, 0.03]])
        cs = ConstraintSet([TokenCount(token=0, op="le", k=2)])
        res = alm_project(SeqDist(rows), cs)
        assert res.feasible
        assert decode(res.projected) == Sequence((0, 1, 0))
        expect = row_kl(rows[1], np.array([0.5, 0.5]))
        assert res.kl_moved == pytest.approx(expect, abs=1e-4)

    def test_multi_constraint_repair(self):
        cs = ConstraintSet([TokenCount(token=0, op="le", k=1), Forbidden(3)])
        rows = SeqDist.one_hot(Sequence((0, 0, 3)), 4).rows
        res = alm_project(SeqDist(rows), cs)
        assert res.feasible
        dec = decode(res.projected)
        assert cs.satisfied(dec)
        # Three one-hot flips at ln 2 each would overshoot; only two rows
        # actually need to move.
        assert res.kl_moved == pytest.approx(2 * math.log(2.0), abs=1e-3)

    def test_position_constraint(self):
        rows = np.array([[0.1, 0.6, 0.3], [0.5, 0.2, 0.3]])
        cs = ConstraintSet([Position(position=0, token=2)])
        res = alm_project(SeqDist(rows), cs)
        assert res.feasible
        assert decode(res.projected)[0] == 2

    def test_one_hot_input_decided_by_search(self):
        # The sampler's one-hot states: no outer iteration runs.
        cs = ConstraintSet([TokenCount(token=0, op="le", k=1)])
        rows = SeqDist.one_hot(Sequence((0, 0, 0)), 2).rows
        res = alm_project(SeqDist(rows), cs)
        assert res.feasible
        assert res.outer_iters == 0
        assert decode(res.projected) == Sequence((0, 1, 1))

    def test_one_hot_set_without_terms_takes_the_fewest_flips(self):
        # From (1, 1, 1, 0), (0, 0, 1, 0) makes three zeros with position
        # 3 still wrong.  The dynamic program, and with NoTerms in the set
        # the best-first search, reach (0, 0, 0, 1) with no outer
        # iteration.
        cs = ConstraintSet([TokenCount(token=0, op="ge", k=3), Position(position=3, token=1)])
        rows = SeqDist.one_hot(Sequence((1, 1, 1, 0)), 2).rows
        for constraints in (cs, ConstraintSet(tuple(cs) + (NoTerms(),))):
            res = alm_project(SeqDist(rows), constraints)
            assert (decode(res.projected), res.feasible, res.outer_iters) == (Sequence((0, 0, 0, 1)), True, 0)

    def test_unsatisfiable_reports_infeasible(self):
        cs = ConstraintSet([TokenCount(token=0, op="ge", k=4)])
        rows = np.full((2, 3), 1.0 / 3)
        res = alm_project(SeqDist(rows), cs, AlmConfig(max_outer_iter=40))
        assert not res.feasible
        assert res.final_violation.max() > 0

    def test_set_that_does_not_fit_the_rows_raises_naming_the_constraint(self):
        # A token outside the rows' vocabulary, and weights for more or
        # fewer tokens than the rows hold: check_fits' error, not one
        # from numpy, and never a verdict.
        cases = [
            (TokenCount(7, "ge", 1, name="count7"), (2, 3)),
            (LinearScore(np.full(3, 0.5), 0.5, "three_weights"), (3, 2)),
            (LinearScore(np.full(2, 0.5), 0.5, "two_weights"), (2, 3)),
        ]
        for c, shape in cases:
            with pytest.raises(ValueError, match=f"^{c.name}: "):
                alm_project(SeqDist(np.full(shape, 1.0 / shape[1])), ConstraintSet([c]))

    def test_tau_slack_accepts_near_feasible(self):
        cs = ConstraintSet([TokenCount(token=0, op="le", k=0, tau=1.0)])
        rows = SeqDist.one_hot(Sequence((0, 1)), 2).rows
        res = alm_project(SeqDist(rows), cs)
        assert res.feasible
        assert res.kl_moved == 0.0

    def test_kl_moved_consistent_with_output(self):
        rng = np.random.default_rng(4)
        rows = rng.dirichlet(np.ones(3), size=3)
        cs = ConstraintSet([Forbidden(int(decode(SeqDist(rows))[0]))])
        res = alm_project(SeqDist(rows), cs)
        assert res.kl_moved == pytest.approx(kl_divergence(rows, res.projected.rows), abs=1e-12)

    @pytest.mark.parametrize("seed", range(25))
    def test_near_optimal_on_random_instances(self, seed):
        rng = np.random.default_rng(100 + seed)
        length = int(rng.integers(1, 4))
        n = int(rng.integers(2, 5))
        rows = rng.dirichlet(np.ones(n), size=length)
        tok = int(rng.integers(0, n))
        kind = ["le", "ge", "eq", "forbid", "pos"][int(rng.integers(0, 5))]
        if kind == "forbid":
            c = Forbidden(tok)
        elif kind == "pos":
            c = Position(position=0, token=tok)
        else:
            k = int(rng.integers(0 if kind != "ge" else 1, length + 1))
            c = TokenCount(token=tok, op=kind, k=k)
        cs = ConstraintSet([c])

        best = None
        for ids in itertools.product(range(n), repeat=length):
            if not cs.satisfied(Sequence(ids)):
                continue
            cost = 0.0
            for i, v in enumerate(ids):
                if int(np.argmax(rows[i])) != v:
                    cost += scipy_forced_argmax_kl(rows[i], v)
            if best is None or cost < best:
                best = cost
        if best is None:
            pytest.skip("constraint unsatisfiable for this draw")

        res = alm_project(SeqDist(rows), cs)
        assert res.feasible
        assert cs.satisfied(decode(res.projected))
        assert res.kl_moved <= best + 1e-2

    def test_search_terms_kept_on_the_set(self, monkeypatch):
        # An infeasible input builds the set's SearchTerms once, for
        # project_ids on one-hot rows and for the search on soft rows; the
        # set keeps them, so a second call builds none, and both return
        # the same result, with no outer iteration, on inputs made
        # feasible and on those no pattern satisfies.
        built = [0]
        real_init = SearchTerms.__init__

        def init(self, *args):
            built[0] += 1
            real_init(self, *args)

        monkeypatch.setattr(SearchTerms, "__init__", init)
        rng = np.random.default_rng(77)
        config = AlmConfig(max_outer_iter=8)
        seen = collections.Counter()
        for i in range(60):
            seq_len, n = int(rng.integers(1, 6)), int(rng.integers(2, 6))
            rows = random_rows(rng, ("dirichlet", "one_hot")[i % 2], seq_len, n)
            cs = make_constraint_set(rng, n, seq_len)
            built[0] = 0
            want = alm_project(SeqDist(rows), cs, config)
            feasible_input = cs.satisfied(decode(SeqDist(rows)))
            assert built[0] == (0 if feasible_input else 1)
            built[0] = 0
            got = alm_project(SeqDist(rows), cs, config)
            assert built[0] == 0
            assert np.array_equal(got.projected.rows, want.projected.rows)
            assert (got.feasible, got.outer_iters, got.kl_moved) == (want.feasible, want.outer_iters, want.kl_moved)
            assert np.array_equal(got.final_violation, want.final_violation)
            assert want.outer_iters == 0
            seen["feasible input" if feasible_input else "projected" if want.feasible else "infeasible"] += 1
        assert min(seen.values()) >= 5 and len(seen) == 3, seen

    @pytest.mark.parametrize("temp", [0.0, -0.5, float("nan")], ids=["zero", "negative", "nan"])
    def test_objective_and_gradient_reject_bad_temperature(self, temp):
        # A NaN temperature would make every relaxed score NaN, so no
        # penalty would be active and nothing would fail.
        cs = ConstraintSet([TokenCount(token=0, op="le", k=0)])
        x_rows = np.array([[0.9, 0.1], [0.6, 0.4]])
        z, lam, mu = np.log(x_rows), np.zeros(1), np.ones(1)
        with pytest.raises(ValueError, match="temperature must be positive"):
            projection.alm_objective(z, x_rows, cs, lam, mu, temp)
        with pytest.raises(ValueError, match="temperature must be positive"):
            projection.alm_gradient(z, x_rows, cs, lam, mu, temp)


class TestOneHotAgainstOracle:
    """alm_project on one-hot rows against enumeration of every pattern."""

    def test_fewest_flips(self):
        singles = set()
        closed = programmed = searched = 0
        for seed in range(600):
            rng = np.random.default_rng(seed)
            length = int(rng.integers(1, 7))
            n = int(rng.integers(2, min(int(round(MAX_FLIP_SPACE ** (1 / length))), 8) + 1))
            rows = np.eye(n)[rng.integers(0, n, size=length)]
            cs = make_constraint_set(rng, n, length)
            try:
                pattern, best = enumerate_fewest_flips(rows, cs)
            except ValueError:
                continue  # no pattern satisfies this draw
            res = alm_project(SeqDist(rows), cs)
            terms = SearchTerms(cs, length, n)
            closed += terms.fewest_flips is not None
            # The closed form, the dynamic program or the search picks the
            # oracle's pattern for every set some pattern satisfies, with
            # no outer iteration.
            programmed += terms.dp is not None
            searched += terms.fewest_flips is None and terms.dp is None
            assert (decode(res.projected), res.feasible, res.outer_iters) == (pattern, True, 0), seed
            if len(cs) == 1:
                singles.add(cs.names[0].rstrip("0"))
                # Each flip pools at 1/2 and then tilts by ARGMAX_EPS,
                # adding about 2e-6 nats to its ln 2.
                assert res.kl_moved == pytest.approx(best, rel=1e-5), seed
        assert singles == {"linear", "count", "forbidden", "position"}
        assert closed >= 100 and programmed >= 100 and searched >= 10  # measured 120, 199 and 19

    def test_lone_linear_score_takes_the_fewest_flips(self):
        # Float weights, and no pattern's mean within 1e-9 of tau, so that
        # rounding decides no pick: a state qualifies exactly when some
        # pattern does, at as many flips as the oracle's pattern makes.
        rng = np.random.default_rng(5)
        checked = collections.Counter()
        while checked["states"] < 2000:
            length, n = int(rng.integers(1, 6)), int(rng.integers(2, 6))
            cs = ConstraintSet((LinearScore(rng.uniform(0.0, 1.0, size=n), tau=float(rng.uniform(0.0, 0.8))),))
            patterns = np.array(list(itertools.product(range(n), repeat=length)))
            if (np.abs(cs.constraints[0].hard_scores(patterns) - cs.constraints[0].tau) < 1e-9).any():
                continue
            states = rng.integers(0, n, size=(4, length))
            ids, feasible = project_ids(states, n, cs)
            for state, got, ok in zip(states, ids, feasible):
                checked["states"] += 1
                try:
                    _, cost = enumerate_fewest_flips(np.eye(n)[state], cs)
                except ValueError:  # no pattern satisfies the set
                    checked["infeasible"] += 1
                    assert not ok
                    continue
                assert ok and cs.satisfied(Sequence(tuple(got.tolist())))
                flips = int((got != state).sum())
                assert flips == round(cost / math.log(2.0))
                checked["two or more flips"] += flips >= 2
        assert min(checked.values()) >= 100, checked


class TestNoveltyDb:
    def test_membership_and_add(self):
        db = NoveltyDb([Sequence((0, 1))])
        assert Sequence((0, 1)) in db
        assert Sequence((1, 0)) not in db
        db.add(Sequence((1, 0)))
        assert len(db) == 2

    def test_claim_adds_only_an_absent_sequence(self):
        db = NoveltyDb([Sequence((0, 1))], mask_id=2)
        assert not db.claim(Sequence.unchecked((0, 1)))
        assert len(db) == 1
        assert db.claim(Sequence.unchecked((1, 0)))
        assert Sequence((1, 0)) in db and len(db) == 2
        assert not db.claim(Sequence((1, 0)))
        assert len(db) == 2

    def test_from_corpus(self, tiny_corpus):
        db = NoveltyDb.from_corpus(tiny_corpus)
        assert Sequence((0, 1)) in db
        assert Sequence((1, 1)) in db
        assert len(db) == 2

    def test_from_corpus_bans_mask(self, tiny_corpus):
        db = NoveltyDb.from_corpus(tiny_corpus)
        assert Sequence((0, 2)) in db
        assert Sequence((2, 2)) in db
        assert Sequence((1, 0)) not in db
        assert len(db) == 2

    def test_novelty_pick_skips_mask(self, tiny_corpus):
        # MASK is the argmax at both positions; the cheapest decode free
        # of it and of the corpus is (0, 0).
        rows = np.array([[0.3, 0.1, 0.6], [0.2, 0.1, 0.7]])
        db = NoveltyDb.from_corpus(tiny_corpus)
        assert enumerate_novelty(SeqDist(rows), db)[0] == Sequence((0, 0))
        assert decode(novelty_project(SeqDist(rows), db)) == Sequence((0, 0))
        assert len(db) == 3


class TestNoveltyProject:
    def test_pass_through_when_novel(self):
        rows = np.array([[0.8, 0.2], [0.3, 0.7]])
        db = NoveltyDb()
        out = novelty_project(SeqDist(rows), db)
        assert decode(out) == Sequence((0, 1))
        assert np.array_equal(out.rows, rows)
        assert Sequence((0, 1)) in db

    def test_redirects_to_cheapest_absent(self):
        rows = np.array([[0.8, 0.2], [0.55, 0.45]])
        db = NoveltyDb([Sequence((0, 0))])
        out = novelty_project(SeqDist(rows), db)
        # Cheapest escape flips the closer row (cost 0.10 vs 0.60).
        assert decode(out) == Sequence((0, 1))

    def test_lexicographic_tie_break(self):
        rows = np.array([[0.5, 0.5], [0.5, 0.5]])
        out = novelty_project(SeqDist(rows), NoveltyDb([Sequence((0, 0))]))
        assert decode(out) == Sequence((0, 1))

    def test_successive_calls_never_repeat_until_saturation(self):
        rng = np.random.default_rng(2)
        db = NoveltyDb()
        seen = set()
        for _ in range(8):
            rows = rng.dirichlet(np.ones(2), size=3)
            seq = decode(novelty_project(SeqDist(rows), db))
            assert seq not in seen
            seen.add(seq)
        assert len(seen) == 8
        with pytest.raises(NoveltySaturationError):
            novelty_project(SeqDist(np.full((3, 2), 0.5)), db)

    @pytest.mark.parametrize("length, n", [(2, 3), (3, 4), (4, 3)])
    def test_mask_banned_picks_match_enumeration(self, length, n):
        # MASK (the last token) is often the argmax and the database bans
        # it: every pick matches the enumeration oracle, call after call
        # as claims accumulate, until no MASK-free sequence is left.
        rng = np.random.default_rng(length * 10 + n)
        mask = n - 1
        db = NoveltyDb([Sequence(tuple(int(v) for v in rng.integers(0, mask, length))) for _ in range(2)], mask_id=mask)
        free = mask**length - len(db)
        for _ in range(free):
            rows = rng.dirichlet(np.ones(n), size=length)
            rows[:, mask] += rng.random(length) < 0.7
            rows /= rows.sum(axis=1, keepdims=True)
            expect, _ = enumerate_novelty(rows, db)
            assert decode(novelty_project(SeqDist(rows), db)) == expect
        assert len(db) == mask**length
        rows = np.full((length, n), 1.0 / n)
        with pytest.raises(ValueError):
            enumerate_novelty(rows, db)
        with pytest.raises(NoveltySaturationError):
            novelty_project(SeqDist(rows), db)

    def test_saturation_raises(self):
        db = NoveltyDb(Sequence(ids) for ids in itertools.product(range(2), repeat=2))
        with pytest.raises(NoveltySaturationError):
            novelty_project(SeqDist(np.full((2, 2), 0.5)), db)

    def test_calls_on_fresh_rows_keep_no_search(self):
        # Each call builds its own search, so a stream of fresh c02-shaped
        # rows (6 tokens and MASK, L = 6) leaves the database's cursors
        # empty however long it runs.
        rng = np.random.default_rng(5)
        db = NoveltyDb(mask_id=6)
        for _ in range(2000):
            novelty_project(SeqDist(rng.dirichlet(np.ones(7), size=6)), db)
        assert db.cursors == {}
        assert len(db) == 2000



def claim_until_saturated(rows, db, before_call=lambda db: None):
    """Claim picks for rows until db saturates, checking each against the
    scan; before_call(db) runs ahead of every call and may add to db.
    Returns the number of picks."""
    picks = 0
    while True:
        before_call(db)
        try:
            expect, _ = enumerate_novelty(rows, db)
        except ValueError:
            break
        out = novelty_project(SeqDist(rows), db)
        assert decode(out) == expect
        # Only positions whose argmax moves are forced; the rest pass through.
        forced = np.stack([_force_argmax_row(rows[i], v) for i, v in enumerate(expect)])
        assert np.array_equal(out.rows, forced)
        picks += 1
    for _ in range(2):
        with pytest.raises(NoveltySaturationError):
            novelty_project(SeqDist(rows), db)
    return picks


def near_tie_rows(rng, length, n):
    """Rows whose entries tie exactly or differ by a few ulps, so that sums
    of their gaps tie after rounding although the gaps differ."""
    rows = rng.choice([1.0, 2.0, 3.0], size=(length, n))
    rows /= rows.sum(axis=1, keepdims=True)
    return rows + rng.integers(-2, 3, size=rows.shape) * np.spacing(rows)


class TestNoveltyResume:
    """Every pick of novelty_project must be the scan's, call after call
    on one database, with no search kept in it between calls."""

    @staticmethod
    def case_rows(case, rng, length, n):
        if case == "dirichlet":
            return rng.dirichlet(np.ones(n), size=length)
        if case == "tied":
            rows = rng.integers(1, 3, size=(length, n)).astype(float)
            return rows / rows.sum(axis=1, keepdims=True)
        if case == "mask_argmax":
            rows = rng.dirichlet(np.ones(n), size=length)
            rows[:, n - 1] += 1.0
            return rows / rows.sum(axis=1, keepdims=True)
        return np.eye(n)[rng.integers(0, n, size=length)]  # one-hot, as the sampler passes

    @pytest.mark.parametrize("case", ["dirichlet", "tied", "mask_argmax", "one_hot"])
    @pytest.mark.parametrize("mask", [False, True])
    def test_repeated_rows_match_scan_until_saturated(self, case, mask):
        length, n = 3, 4
        rng = np.random.default_rng(len(case) * 2 + mask)
        rows = self.case_rows(case, rng, length, n)
        mask_id = n - 1 if mask else None
        db = NoveltyDb([Sequence((0, 1, 2)), Sequence((2, 2, 0))], mask_id=mask_id)
        free = (n - 1 if mask else n) ** length - 2
        assert claim_until_saturated(rows, db) == free
        assert db.cursors == {}

    def test_database_growing_between_calls(self):
        # Sequences added behind the cursor's back, among them the very
        # pick it would make next, are skipped.
        length, n = 3, 3
        rng = np.random.default_rng(7)
        rows = rng.dirichlet(np.ones(n), size=length)
        db = NoveltyDb()
        calls = iter(range(10**6))

        def before_call(db):
            k = next(calls)
            if k % 3 == 0:
                db.add(Sequence(tuple(int(v) for v in rng.integers(0, n, size=length))))
            elif k % 3 == 1 and len(db) < n**length:
                db.add(enumerate_novelty(rows, db)[0])

        assert 0 < claim_until_saturated(rows, db, before_call) < n**length
        assert len(db) == n**length

    @pytest.mark.parametrize("seed", range(12))
    def test_near_tied_gaps_keep_lexicographic_order(self, seed):
        # Gap sums that round to equal floats must still resolve to the
        # lexicographically smallest sequence, as the scan does, even when
        # the smaller sequence takes a token with a slightly larger gap.
        rng = np.random.default_rng(seed)
        for _ in range(3):
            db = NoveltyDb()
            assert claim_until_saturated(near_tie_rows(rng, 3, 3), db) == 27


class TestCheapestDecodes:
    """The rows search is a best-first search over prefixes whose bound
    adds each later position's least allowed gap."""

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_absorbed_later_gap_keeps_scan_order(self, order):
        # MASK (token 3) is the argmax of the first two rows, so every
        # decode pays at least 1.7 there.  The last row's token 0 sits
        # 2^-54 below its argmax, a gap that a sum above 1 (spacing 2^-52)
        # absorbs: (a, b, 0) and (a, b, 1) then cost the same float, and
        # the lex-smaller one, which takes the positive gap, comes first.
        tiny = 2.0**-54
        rows = np.array(
            [
                [0.05, 0.03, 0.02, 0.9],
                [0.03, 0.05, 0.02, 0.9],
                [0.375 - tiny, 0.375, 0.25, tiny],
            ]
        )
        low = rows.max(axis=1) - rows[:, 0]
        assert low[2] == tiny and (low[0] + low[1]) + tiny == low[0] + low[1]
        rows = rows[list(order)]
        db = NoveltyDb(mask_id=3)
        assert claim_until_saturated(rows, db) == 27

    def test_first_claim_expands_only_its_own_path(self, monkeypatch):
        # With MASK the argmax at three positions, the least-gap bound of
        # the cheapest prefix already counts their forced cost, so the
        # first claim pops just its own prefixes: one per position, each
        # pushing its N - 1 MASK-free children.
        length, n, mask_id = 10, 13, 12
        rng = np.random.default_rng(4)
        rows = rng.dirichlet(np.ones(n), size=length)
        rows[[1, 4, 8], mask_id] += 1.0
        rows /= rows.sum(axis=1, keepdims=True)
        assert (rows.argmax(axis=1) == mask_id).sum() == 3
        pushes = []

        def heappush(heap, item):
            pushes.append(item)
            heapq.heappush(heap, item)

        monkeypatch.setattr(projection, "heapq", types.SimpleNamespace(heappush=heappush, heappop=heapq.heappop))
        db = NoveltyDb(mask_id=mask_id)
        out = novelty_project(SeqDist(rows), db)
        assert len(pushes) == length * (n - 1) == 120
        # With an empty database the claim takes each position's best
        # token but MASK.
        assert decode(out) == Sequence(tuple(rows[:, :mask_id].argmax(axis=1).tolist()))


class TestNoveltyProjectIds:
    """novelty_project_ids is novelty_project on the one-hot rows of an id
    row, with its search walked over the ids alone."""

    @staticmethod
    def rows_cursor(state, n, mask_id):
        """novelty_project's search over the one-hot rows of state, whose
        gaps are 0.0 at each position's token, 1.0 elsewhere and inf at
        MASK."""
        rows = backend.ops.one_hot_rows(state, n)
        gaps = rows.max(axis=1, keepdims=True) - rows
        gaps[:, np.arange(n) == mask_id] = math.inf
        return _cheapest_patterns(gaps.tolist(), [], False)

    @staticmethod
    def claim_both(state, n, by_ids, by_rows, cursor):
        """One claim on each side: the shell walk through novelty_project_ids
        and the rows cursor, or None for a side that saturated."""
        try:
            got = novelty_project_ids(state, n, by_ids)
        except NoveltySaturationError:
            got = None
        want = next((seq for seq in cursor if by_rows.claim(Sequence(seq))), None)
        return got, want

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("length", [1, 2, 3])
    @pytest.mark.parametrize("mask", [False, True])
    def test_shell_walk_claims_equal_rows_cursor(self, n, length, mask):
        # Every id row's full claim order, until saturation, is the rows
        # cursor's on its one-hot rows.
        mask_id = n - 1 if mask else None
        free = (n - 1 if mask else n) ** length
        for ids in itertools.product(range(n), repeat=length):
            state = np.array(ids)
            by_ids, by_rows = NoveltyDb(mask_id=mask_id), NoveltyDb(mask_id=mask_id)
            cursor = self.rows_cursor(state, n, mask_id)
            claims = []
            while True:
                got, want = self.claim_both(state, n, by_ids, by_rows, cursor)
                assert got == want, (ids, len(claims))
                if got is None:
                    break
                claims.append(got)
            assert len(claims) == len(set(claims)) == free, ids
            # On an empty database the walk yields the claims and nothing else.
            assert list(_ShellWalk(ids, n, mask_id)) == claims, ids

    @pytest.mark.parametrize("seed", range(3))
    def test_shell_walk_claims_equal_rows_cursor_on_c02_states(self, seed):
        # c02-shaped states (6 tokens and MASK, L = 6), some holding MASK,
        # against a database that also grows behind both searches' backs:
        # the first 300 claims of each state agree.
        n, length, mask_id = 7, 6, 6
        rng = np.random.default_rng(seed)
        for _ in range(4):
            state = rng.integers(0, mask_id, size=length)
            state[rng.random(length) < 0.2] = mask_id
            start = [Sequence(tuple(rng.integers(0, mask_id, size=length).tolist())) for _ in range(10)]
            by_ids, by_rows = NoveltyDb(start, mask_id=mask_id), NoveltyDb(start, mask_id=mask_id)
            cursor = self.rows_cursor(state, n, mask_id)
            for call in range(300):
                if call % 7 == 0:  # a near neighbour another chain claimed
                    extra = state.copy()
                    extra[rng.integers(0, length, size=2)] = rng.integers(0, mask_id, size=2)
                    for db in (by_ids, by_rows):
                        db.add(Sequence(tuple(extra.tolist())))
                got, want = self.claim_both(state, n, by_ids, by_rows, cursor)
                assert got == want and got is not None, (state, call)
            assert len(by_ids) == len(by_rows)

    @pytest.mark.parametrize("mask", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_picks_equal_rows_api_until_saturated(self, mask, seed):
        # Twin databases fed one seeded stream of repeated one-hot states.
        n, length = 3, 3
        rng = np.random.default_rng(seed)
        mask_id = n - 1 if mask else None
        pool = rng.integers(0, n, size=(4, length))
        start = [Sequence(tuple(int(v) for v in rng.integers(0, n, size=length))) for _ in range(3)]
        by_ids, by_rows = NoveltyDb(start, mask_id=mask_id), NoveltyDb(start, mask_id=mask_id)
        used = set()
        for call in range(n**length + 1):
            state = pool[rng.integers(0, len(pool))]
            used.add(state.tobytes())
            try:
                got = novelty_project_ids(state, n, by_ids)
            except NoveltySaturationError:
                with pytest.raises(NoveltySaturationError):
                    novelty_project(SeqDist(backend.ops.one_hot_rows(state, n)), by_rows)
                break
            want = decode(novelty_project(SeqDist(backend.ops.one_hot_rows(state, n)), by_rows))
            assert Sequence(got) == want, call
        else:
            pytest.fail("the stream never saturated the database")
        assert len(by_ids) == len(by_rows)
        assert len(by_ids.cursors) == len(used) and by_rows.cursors == {}

    def test_dropped_walks_leave_no_garbage_cycles(self):
        # A walk's generators refer to it and not back, so clearing the
        # database's walks, some deep in shell 2, frees them at once.
        rng = np.random.default_rng(0)
        pool = rng.integers(0, 6, size=(4, 6))
        db = NoveltyDb(mask_id=6)
        gc.collect()
        gc.disable()
        try:
            for state in pool[rng.integers(0, len(pool), size=300)]:
                novelty_project_ids(state, 7, db)
            db.cursors.clear()
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_ids_and_rows_keep_separate_cursors(self):
        # One state handed to both entry points: the ids walk is kept,
        # keyed by (n, ids), and the rows search is not.
        db = NoveltyDb()
        state = np.array([1, 0])
        first = novelty_project_ids(state, 2, db)
        second = decode(novelty_project(SeqDist(backend.ops.one_hot_rows(state, 2)), db))
        assert first == (1, 0) and second == Sequence((0, 0))
        assert list(db.cursors) == [(2, (1, 0))]

    def test_out_of_range_ids_rejected(self):
        with pytest.raises(ValueError, match="state ids"):
            novelty_project_ids(np.array([0, 3]), 3, NoveltyDb())


def reference_force_argmax_row(row, token, eps=projection.ARGMAX_EPS):
    """_force_argmax_row written with numpy sorts and masks."""
    if int(np.argmax(row)) == token:
        return row
    order = np.argsort(-row, kind="stable")
    order = order[order != token]
    acc = float(row[token])
    k = 0
    while k < order.shape[0]:
        level = (acc + float(row[order[k]])) / (k + 2)
        acc += float(row[order[k]])
        k += 1
        if k == order.shape[0] or float(row[order[k]]) <= level:
            break
    level = acc / (k + 1)
    eps = min(eps, level / 2)
    out = row.copy()
    out[order[:k]] = level - eps
    out[token] = level + k * eps
    return out


def pooling_rows(rng, count):
    """count seeded rows of 1-13 tokens: Dirichlet, one-hot, tied maxima,
    rows with zeros, and rows moved a few ulps off exact ties."""
    rows = []
    for i in range(count):
        n = int(rng.integers(1, 14))
        kind = i % 5
        if kind == 0:
            row = rng.dirichlet(np.full(n, rng.uniform(0.1, 2.0)))
        elif kind == 1:
            row = np.eye(n)[rng.integers(0, n)]
        elif kind == 2:
            row = rng.integers(1, 4, size=n).astype(float)
            row[rng.integers(0, n, size=2)] = 4.0
            row /= row.sum()
        elif kind == 3:
            row = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.5)
            row[rng.integers(0, n)] += 0.5
            row /= row.sum()
        else:
            row = rng.choice([1.0, 2.0, 3.0], size=n)
            row /= row.sum()
            row = row + rng.integers(-2, 3, size=n) * np.spacing(row)
        rows.append(row)
    return rows


class TestForceArgmaxRow:
    def test_bit_equal_to_numpy_reference(self):
        rng = np.random.default_rng(41)
        rows = pooling_rows(rng, 20000)
        kept = 0
        for row in rows:
            token = int(rng.integers(0, row.shape[0]))
            for eps in (0.0, projection.ARGMAX_EPS):
                got = _force_argmax_row(row, token, eps)
                want = reference_force_argmax_row(row, token, eps)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (row, token, eps)
                assert (got is row) == (want is row)
                kept += got is row
        assert 0 < kept < 2 * len(rows)

    def test_row_that_already_decodes_is_returned_as_is(self):
        rng = np.random.default_rng(43)
        for row in pooling_rows(rng, 500):
            token = int(np.argmax(row))
            assert _force_argmax_row(row, token) is row
            assert _force_argmax_row(row, token, eps=0.0) is row
        # Ties decode to the lowest id, so the later tied token is forced.
        row = np.array([0.4, 0.4, 0.2])
        assert _force_argmax_row(row, 0) is row
        assert _force_argmax_row(row, 1) is not row


def pooled_kl(state, pick, n):
    """KL from the one-hot rows of state to those rows pooled row by row
    to decode to pick, renormalised (what alm_project returns)."""
    x = backend.ops.one_hot_rows(state, n)
    pooled = SeqDist.normalized(np.stack([_force_argmax_row(x[i], pick[i]) for i in range(len(x))]))
    return backend.ops.kl_rows(x, pooled.rows)


def forced_kl(state, pick, n):
    """KL from the one-hot rows of state to those rows with each moved
    row forced to its pick, not renormalised (what novelty_project
    returns)."""
    x = backend.ops.one_hot_rows(state, n)
    forced = x.copy()
    for i, (a, v) in enumerate(zip(state.tolist(), pick.tolist())):
        if a != v:
            forced[i] = _force_argmax_row(x[i], v)
    return backend.ops.kl_rows(x, forced)


def moved_picks(rng, states, n, rate):
    """states with each position moved to another token with probability
    rate; rate 0 moves none."""
    picks = states.copy()
    moved = rng.random(states.shape) < rate
    picks[moved] = (states[moved] + rng.integers(1, n, size=moved.sum())) % n
    return picks


class TestFlipKl:
    """flip_kl equals kl_rows on the pooled and forced rows bit for bit."""

    @pytest.mark.parametrize("length, n", [(1, 2), (3, 4), (5, 7), (12, 11), (40, 20), (7, 19), (33, 5)])
    def test_equals_kl_of_pooled_and_forced_rows(self, length, n):
        # Shapes with L * N below and above numpy's 8-wide unrolled and
        # 128-wide pairwise summation blocks; the last id is MASK, held
        # by some states and picked by some moves.
        rng = np.random.default_rng(length * 100 + n)
        states = rng.integers(0, n, size=(120, length))
        states[rng.random(states.shape) < 0.2] = n - 1
        picks = np.concatenate([moved_picks(rng, states[:100], n, rng.random()), states[100:]])
        got = flip_kl(states, picks, n)
        assert got.shape == (120,) and got.dtype == np.float64
        for k in range(len(states)):
            want_pooled = pooled_kl(states[k], picks[k], n)
            want_forced = forced_kl(states[k], picks[k], n)
            assert got[k].tobytes() == np.float64(want_pooled).tobytes() == np.float64(want_forced).tobytes(), k
        # The states with no move cost exactly 0.0.
        assert got[100:].tolist() == [0.0] * 20

    def test_random_shapes_against_both_references(self):
        rng = np.random.default_rng(33)
        for _ in range(150):
            length, n = int(rng.integers(1, 41)), int(rng.integers(2, 21))
            states = rng.integers(0, n, size=(4, length))
            picks = moved_picks(rng, states, n, rng.random())
            got = flip_kl(states, picks, n).tolist()
            assert got == [pooled_kl(s, p, n) for s, p in zip(states, picks)]
            assert got == [forced_kl(s, p, n) for s, p in zip(states, picks)]

    def test_one_flip_costs_flip_kl(self):
        assert flip_kl(np.array([[0]]), np.array([[1]]), 2).tolist() == [projection.FLIP_KL]
        assert projection.FLIP_KL == pooled_kl(np.array([0]), np.array([1]), 2)
        assert flip_kl(np.zeros((0, 3), np.int64), np.zeros((0, 3), np.int64), 4).shape == (0,)

    def test_batched_equals_one_state_calls(self):
        rng = np.random.default_rng(8)
        length, n = 30, 9
        states = rng.integers(0, n, size=(64, length))
        picks = moved_picks(rng, states, n, 0.3)
        single = [flip_kl(states[k : k + 1], picks[k : k + 1], n)[0] for k in range(len(states))]
        assert flip_kl(states, picks, n).tolist() == single


def reference_flip_costs(rows):
    """Flip-cost table entry by entry: pool each (row, target) pair and
    take the KL over the row's support."""
    seq_len, n = rows.shape
    table = np.zeros((seq_len, n))
    for i in range(seq_len):
        row = rows[i]
        mask = row > 0
        amax = int(np.argmax(row))
        for v in range(n):
            if v == amax:
                continue
            out = _force_argmax_row(row, v, eps=0.0)
            table[i, v] = float(np.sum(row[mask] * np.log(row[mask] / out[mask])))
    return table


ROW_KINDS = ("dirichlet", "one_hot", "mixed", "zeros", "tied", "pooled")


def random_rows(rng, kind, seq_len, n):
    """Probability rows of one kind: soft, one-hot, one-hot and soft
    interleaved, with exact zeros, with tied maxima, or already pooled
    by a projection."""
    if kind == "dirichlet":
        return rng.dirichlet(np.ones(n), size=seq_len)
    if kind == "one_hot":
        return np.eye(n)[rng.integers(0, n, size=seq_len)]
    if kind == "mixed":
        rows = rng.dirichlet(np.ones(n), size=seq_len)
        hard = rng.random(seq_len) < 0.5
        rows[hard] = np.eye(n)[rng.integers(0, n, size=int(hard.sum()))]
        return rows
    if kind == "zeros":
        rows = rng.dirichlet(np.full(n, 0.5), size=seq_len)
        rows[rng.random((seq_len, n)) < 0.4] = 0.0
        rows[np.arange(seq_len), rng.integers(0, n, size=seq_len)] += 0.1
        return rows / rows.sum(axis=1, keepdims=True)
    if kind == "tied":
        rows = rng.integers(0, 3, size=(seq_len, n)).astype(np.float64)
        rows[:, :2] = 3.0
        rows = rows[:, rng.permutation(n)]
        return rows / rows.sum(axis=1, keepdims=True)
    rows = rng.dirichlet(np.ones(n), size=seq_len)
    return np.stack([_force_argmax_row(r, int(rng.integers(0, n))) for r in rows])


class TestRowFlipCosts:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(ROW_KINDS))
    @settings(max_examples=150, deadline=None)
    def test_bit_equal_to_per_entry_pooling(self, seed, kind):
        rng = np.random.default_rng(seed)
        rows = random_rows(rng, kind, int(rng.integers(1, 12)), int(rng.integers(2, 17)))
        assert np.array_equal(_row_flip_costs(rows), reference_flip_costs(rows))

    def test_one_hot_entries(self):
        table = _row_flip_costs(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        assert table[0].tolist() == [0.0, math.log(2.0), math.log(2.0)]
        assert table[1].tolist() == [math.log(2.0), math.log(2.0), 0.0]

    def test_single_token_vocabulary(self):
        assert _row_flip_costs(np.ones((3, 1))).tolist() == [[0.0], [0.0], [0.0]]

    @pytest.mark.parametrize("n", [1, 2, 13])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_one_hot_rows_bit_equal_to_pooling(self, n, order):
        rng = np.random.default_rng(n)
        rows = np.asarray(np.eye(n)[rng.integers(0, n, size=9)], order=order)
        table = _row_flip_costs(rows)
        assert np.array_equal(table, reference_flip_costs(rows))


def near_tie_weights(rng, n):
    """Weights over n tokens from 0.1, 0.2 and 0.3, each moved a few ulps:
    their float sums depend on the order of the additions."""
    weights = rng.choice(np.array([0.1, 0.2, 0.3]), size=n)
    for _ in range(int(rng.integers(0, 4))):
        weights = np.nextafter(weights, np.where(rng.random(n) < 0.5, np.inf, -np.inf))
    return weights


def near_tie_set(rng, n, seq_len):
    """One or two LinearScores of near-tied weights, each tau a pattern's
    own score or a few ulps from it, plus at times a count constraint."""
    out = []
    for j in range(int(rng.integers(1, 3))):
        c = LinearScore(weights=near_tie_weights(rng, n), tau=0.0, name=f"linear{j}")
        tau = float(c.hard_scores(rng.integers(0, n, size=(1, seq_len)))[0])
        for _ in range(int(rng.integers(0, 3))):
            tau = float(np.nextafter(tau, rng.choice([np.inf, -np.inf])))
        c.tau = max(tau, 0.0)
        out.append(c)
    if rng.random() < 0.3:
        out.append(TokenCount(int(rng.integers(0, n)), "le", int(rng.integers(0, seq_len + 1)), name="count"))
    return ConstraintSet(tuple(out))


class DistinctTokens(Constraint):
    """A user constraint with hard scores only: at least k distinct
    tokens, g = k - (number of distinct tokens)."""

    def __init__(self, k, tau=0.0, name="distinct"):
        self.k, self.tau, self.name = k, tau, name

    def hard_scores(self, ids):
        ordered = np.sort(ids, axis=1)
        return self.k - (1.0 + (ordered[:, 1:] != ordered[:, :-1]).sum(axis=1))


def search_expansions(monkeypatch, cs, states, n):
    """Per state of the (K, L) states, (found, expansions) of one
    _decode_search call: the pops of prefixes shorter than L, which
    counts one more than the budget when the search runs out of it."""
    length = states.shape[1]
    popped = []

    def heappop(heap):
        item = heapq.heappop(heap)
        popped.append(len(item[1]) < length)
        return item

    monkeypatch.setattr(projection, "heapq", types.SimpleNamespace(heappush=heapq.heappush, heappop=heappop))
    terms = SearchTerms.of(cs, length, n)
    runs = []
    for state in states:
        popped.clear()
        ids, found = _decode_search(cs, terms, state[None])
        assert found[0] or np.array_equal(ids[0], state)
        runs.append((bool(found[0]), sum(popped)))
    return runs


def assert_oracle_picks(states, n, cs, ids, feasible):
    """The (ids, feasible) of a search over the one-hot states are
    enumerate_fewest_flips's pick for every state, and a state no pattern
    satisfies keeps its ids."""
    for state, got, ok in zip(states, ids, feasible):
        try:
            want, _ = enumerate_fewest_flips(np.eye(n)[state], cs)
        except ValueError:  # no pattern satisfies the set
            assert not ok and np.array_equal(got, state)
            continue
        assert ok and tuple(got.tolist()) == want.ids


class TestBestFirstLoop:
    """_best_first, the heap loop of _cheapest_patterns, on items keyed by
    the summed costs of a table."""

    def test_whole_prefixes_in_cost_then_lex_order(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            length, n = int(rng.integers(0, 5)), int(rng.integers(1, 4))
            table = rng.integers(0, 3, size=(length, n)).tolist()

            def expand(item):
                key, prefix = item
                for v, cost in enumerate(table[len(prefix)]):
                    yield key + cost, prefix + (v,)

            def cost(pattern):
                return sum(table[i][v] for i, v in enumerate(pattern))

            want = sorted(itertools.product(range(n), repeat=length), key=lambda p: (cost(p), p))
            assert list(projection._best_first((0, ()), expand, length)) == want

    @pytest.mark.parametrize("budget", [0, 1, 4])
    def test_stops_after_budget_expansions(self, budget):
        # Binary patterns of length 3 costing their sum: each expansion is
        # counted, and what comes out before the stop is the start of the
        # whole order.
        expanded = []

        def expand(item):
            expanded.append(item[1])
            for v in range(2):
                yield item[0] + v, item[1] + (v,)

        got = list(projection._best_first((0, ()), expand, 3, budget))
        want = sorted(itertools.product(range(2), repeat=3), key=lambda p: (sum(p), p))
        assert len(expanded) == budget
        assert got == want[: len(got)]
        assert len(got) == {0: 0, 1: 0, 4: 3}[budget]


class TestBestFirstSearch:
    """_decode_search, the exact search of project_ids and alm_project,
    against enumeration, and its expansions at the c01 shape."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from(ROW_KINDS), st.sampled_from([0.0, 0.0, 0.1, 0.5]))
    @settings(max_examples=120, deadline=None)
    def test_rows_of_every_kind_take_the_cheapest_pattern(self, seed, kind, delta):
        # The search over the flip costs of rows of every kind, ties and
        # exact zeros included, picks enumerate_cheapest_pattern's
        # pattern, and reports none where no pattern qualifies.
        rng = np.random.default_rng(seed)
        length, n = int(rng.integers(1, 6)), int(rng.integers(2, 6))
        rows = random_rows(rng, kind, length, n)
        cs = raise_taus(make_constraint_set(rng, n, length), delta)
        base = np.argmax(rows, axis=1)[None]
        ids, found = _decode_search(cs, SearchTerms(cs, length, n), base, _row_flip_costs(rows)[None])
        try:
            pattern, _ = enumerate_cheapest_pattern(rows, cs)
        except ValueError:  # no pattern satisfies the set
            assert not found[0] and np.array_equal(ids, base)
            return
        assert found[0] and tuple(ids[0].tolist()) == pattern.ids

    @pytest.mark.parametrize("kind", ["flips", "soft", "integer"])
    def test_stack_picks_what_each_state_picks_alone(self, monkeypatch, kind):
        # The bounds' suffix tables of a stack are built three states at a
        # time; each state's pick and verdict are those of the state
        # searched alone, with one-hot flips, soft rows' flip costs, or
        # integer costs.
        rng = np.random.default_rng(30 + len(kind))
        split = 0
        for _ in range(25):
            k, length, n = int(rng.integers(2, 12)), int(rng.integers(1, 6)), int(rng.integers(2, 6))
            cs = raise_taus(make_constraint_set(rng, n, length), float(rng.choice([0.0, 0.5])))
            cs = ConstraintSet(tuple(cs) + (NoTerms(),))
            states, costs = rng.integers(0, n, size=(k, length)), None
            if kind == "soft":
                rows = [random_rows(rng, str(rng.choice(ROW_KINDS)), length, n) for _ in range(k)]
                states = np.stack([np.argmax(r, axis=1) for r in rows])
                costs = np.stack([_row_flip_costs(r) for r in rows])
            elif kind == "integer":
                costs = rng.integers(0, 4, size=(k, length, n)).astype(np.float64)
            terms = SearchTerms(cs, length, n)
            for dp in terms.bounds:
                monkeypatch.setattr(dp, "chunk", 3)
            split += bool(terms.bounds) and k > 3
            ids, found = _decode_search(cs, terms, states, costs)
            for j in range(k):
                alone = _decode_search(cs, terms, states[j : j + 1], None if costs is None else costs[j : j + 1])
                assert np.array_equal(alone[0][0], ids[j]) and alone[1][0] == found[j], j
        assert split >= 10

    @pytest.mark.parametrize("tau", [0.25, 0.5, 0.75])
    def test_c01_shape_search_picks_what_the_program_picks(self, tau):
        # At the c01 shape, too large to enumerate, the two exact routes
        # agree: the set alone goes through the dynamic program, and with
        # NoTerms added through the search.
        cs = [LinearScore(C01_WEIGHTS, tau), TokenCount(1, "eq", 2)]
        states = c01_start_states(50)
        assert SearchTerms(ConstraintSet(cs), 10, 13).dp is not None
        by_program = project_ids(states, 13, ConstraintSet(cs))
        by_search = project_ids(states, 13, ConstraintSet(cs + [NoTerms()]))
        assert by_program[1].all() and (by_program[0] != states).any()
        assert all(np.array_equal(a, b) for a, b in zip(by_search, by_program))

    def test_bounds_one_program_together_else_one_for_each(self):
        # Constraints the program takes together share one program; two
        # LinearScores, which it cannot take together, and a count take
        # one each; a set without position terms has none.
        w = C01_WEIGHTS[:5]
        count = TokenCount(1, "le", 2)
        assert len(SearchTerms(ConstraintSet([LinearScore(w, 0.5), count, NoTerms()]), 6, 5).bounds) == 1
        apart = ConstraintSet([LinearScore(w, 0.5, "w"), LinearScore(1 - w, 0.5, "1 - w"), count])
        assert len(SearchTerms(apart, 6, 5).bounds) == 3
        assert SearchTerms(ConstraintSet([NoTerms()]), 6, 5).bounds == []

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_alm_project_pools_one_hot_rows_to_the_search_pick(self, delta):
        # On one-hot rows under a set only the search takes, alm_project
        # pools each row to project_ids' pick with no outer iteration,
        # moving flip_kl; a state no pattern satisfies comes back as it
        # is, infeasible.
        rng = np.random.default_rng(8)
        seen = collections.Counter()
        for _ in range(60):
            length = int(rng.integers(1, 6))
            n = int(rng.integers(2, 6))
            cs = ConstraintSet(tuple(raise_taus(make_constraint_set(rng, n, length), delta)) + (NoTerms(),))
            states = rng.integers(0, n, size=(3, length))
            ids, feasible = project_ids(states, n, cs)
            for state, pick, ok in zip(states, ids, feasible):
                rows = np.eye(n)[state]
                res = alm_project(SeqDist(rows), cs, AlmConfig(max_outer_iter=5))
                assert res.feasible == ok and res.outer_iters == 0
                if ok:
                    assert decode(res.projected).ids == tuple(pick.tolist())
                    assert res.kl_moved == pytest.approx(flip_kl(state[None], pick[None], n)[0], abs=1e-12)
                else:
                    assert np.array_equal(res.projected.rows, rows) and res.kl_moved == 0.0
                seen["moved" if (pick != state).any() else "feasible as it was" if ok else "no pattern"] += 1
        assert min(seen.values()) >= 3, seen

    def test_one_hot_picks_match_the_oracle(self):
        # 3,000 seeded states on enumerable spaces, a fifth of their sets
        # with NoTerms added: project_ids picks as enumerate_fewest_flips
        # does, and reports no pattern where it finds none.
        seen = collections.Counter()
        seed = 0
        while seen["states"] < 3000:
            rng = np.random.default_rng(seed)
            seed += 1
            length = int(rng.integers(1, 7))
            n = int(rng.integers(1, min(int(round(MAX_FLIP_SPACE ** (1 / length))), 8) + 1))
            cs = make_constraint_set(rng, n, length)
            if rng.random() < 0.2:
                cs = ConstraintSet(tuple(cs) + (NoTerms(),))
            states = rng.integers(0, n, size=(3, length))
            ids, feasible = project_ids(states, n, cs)
            assert_oracle_picks(states, n, cs, ids, feasible)
            linear = sum(isinstance(c, LinearScore) for c in cs)
            seen["states"] += 3
            seen["no pattern"] += int((~feasible).sum())
            seen["with NoTerms"] += 3 * isinstance(cs.constraints[-1], NoTerms)
            seen["two LinearScores"] += 3 * (linear == 2)
            seen["three LinearScores"] += 3 * (linear == 3)
        assert min(seen.values()) >= 60, seen

    def test_soft_rows_take_the_cheapest_pattern(self):
        # 1,500 solvable seeded instances of Dirichlet rows (L 1-5, N
        # 2-5): alm_project's search over the flip costs finds
        # enumerate_cheapest_pattern's pattern, and no gradient loop runs.
        solved = seed = 0
        while solved < 1500:
            rng = np.random.default_rng(seed)
            seed += 1
            length, n = int(rng.integers(1, 6)), int(rng.integers(2, 6))
            rows = rng.dirichlet(np.ones(n), size=length)
            cs = make_constraint_set(rng, n, length)
            try:
                pattern, cost = enumerate_cheapest_pattern(rows, cs)
            except ValueError:  # no pattern satisfies the set
                continue
            solved += 1
            res = alm_project(SeqDist(rows), cs)
            assert (decode(res.projected), res.feasible, res.outer_iters) == (pattern, True, 0), seed
            assert res.kl_moved == pytest.approx(cost, abs=1e-4), seed

    def test_c01_retries_set_feasible_for_every_state(self, monkeypatch):
        # The constraints with position terms take one program together,
        # whose suffix table counts the flips exactly, so each search
        # expands little more than its pick's own path.
        cs = ConstraintSet([Position(6, 7, tau=0.5), TokenCount(9, "ge", 3), Position(1, 6), NoTerms()])
        runs = search_expansions(monkeypatch, cs, c01_start_states(200), 13)
        assert all(found for found, _ in runs)
        assert max(count for _, count in runs) <= 20  # measured 10 for every state

    def test_c01_unsatisfiable_count_dropped_at_the_root(self, monkeypatch):
        # Eleven zeros in ten positions: no cell of the count's program
        # holds, so the search drops each root.
        runs = search_expansions(monkeypatch, ConstraintSet([TokenCount(0, "ge", 11)]), c01_start_states(200), 13)
        assert runs == [(False, 0)] * 200  # measured 0 expansions

    def test_c01_linear_scores_that_cannot_hold_together(self, monkeypatch):
        # Means of w and of 1 - w both at most 0.2: each holds alone, so
        # the programs, one per LinearScore, drop no root, but every
        # prefix at last, within the budget.
        cs = ConstraintSet([LinearScore(C01_WEIGHTS, 0.2, "w"), LinearScore(1 - C01_WEIGHTS, 0.2, "1 - w")])
        runs = search_expansions(monkeypatch, cs, c01_start_states(200), 13)
        assert not any(found for found, _ in runs)
        assert max(count for _, count in runs) <= 1000  # measured 930 for every state
        assert 1000 < projection.SEARCH_EXPANSIONS

    def test_budget_run_out_reported_infeasible(self, monkeypatch):
        # A search whose pick needs more expansions than the budget
        # leaves its state as it was, reported infeasible; alm_project
        # then returns its input as it is, on one-hot rows and on soft
        # ones.
        cs = ConstraintSet([Position(6, 7), TokenCount(9, "ge", 3), NoTerms()])
        states = c01_start_states(5)
        want = project_ids(states, 13, cs)
        assert want[1].all()
        monkeypatch.setattr(projection, "SEARCH_EXPANSIONS", 9)
        ids, feasible = project_ids(states, 13, cs)
        assert np.array_equal(ids, states) and not feasible.any()
        rows = np.eye(13)[states[0]]
        config = AlmConfig(max_outer_iter=3)
        for x in (rows, 0.9 * rows + 0.1 / 13):
            res = alm_project(SeqDist(x), cs, config)
            assert (res.feasible, res.outer_iters, res.kl_moved) == (False, 0, 0.0)
            assert np.array_equal(res.projected.rows, x)
        monkeypatch.setattr(projection, "SEARCH_EXPANSIONS", 10)
        assert all(np.array_equal(a, b) for a, b in zip(project_ids(states, 13, cs), want))

    def test_one_hot_search_equals_the_flip_cost_search(self):
        # On one-hot rows each flip costs ln 2 and a kept token 0, and sums
        # of equal counts of ln 2 round alike: the search over those
        # costs, with no flip bound, picks what the flip-count search
        # picks.
        rng = np.random.default_rng(8)
        for _ in range(40):
            k, length, n = int(rng.integers(1, 9)), int(rng.integers(1, 6)), int(rng.integers(2, 6))
            cs = raise_taus(make_constraint_set(rng, n, length), float(rng.choice([0.0, 0.5])))
            cs = ConstraintSet(tuple(cs) + (NoTerms(),))
            terms = SearchTerms(cs, length, n)
            states = rng.integers(0, n, size=(k, length))
            tables = np.stack([_row_flip_costs(np.eye(n)[s]) for s in states])
            want = _decode_search(cs, terms, states)
            got = _decode_search(cs, terms, states, tables)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            assert_oracle_picks(states, n, cs, *want)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_near_tied_linear_weights_match_the_oracle(self, seed):
        # Sums of near-tied weights at tau, or a few ulps from it, where
        # the program's pick may be refused and two LinearScores go to
        # the search: the hard check decides, for the oracle too.
        rng = np.random.default_rng(seed)
        length = int(rng.integers(1, 7))
        n = int(rng.integers(2, min(int(round(MAX_FLIP_SPACE ** (1 / length))), 6) + 1))
        cs = raise_taus(near_tie_set(rng, n, length), float(rng.choice([0.0, 0.0, 1e-17, 0.05])))
        states = rng.integers(0, n, size=(int(rng.integers(1, 9)), length))
        assert_oracle_picks(states, n, cs, *project_ids(states, n, cs))

    def test_constraint_without_terms_matches_the_oracle(self):
        seen = collections.Counter()
        rng = np.random.default_rng(41)
        for _ in range(60):
            length = int(rng.integers(1, 7))
            n = int(rng.integers(2, min(int(round(MAX_FLIP_SPACE ** (1 / length))), 7) + 1))
            extra = list(make_constraint_set(rng, n, length)) if rng.random() < 0.5 else []
            distinct = DistinctTokens(int(rng.integers(1, min(n, length) + 1)))
            assert distinct.position_terms(length, n) is None
            cs = raise_taus(ConstraintSet(tuple([distinct] + extra)), float(rng.choice([0.0, 0.5])))
            states = rng.integers(0, n, size=(int(rng.integers(1, 9)), length))
            ids, feasible = project_ids(states, n, cs)
            assert_oracle_picks(states, n, cs, ids, feasible)
            seen["moved"] += int((ids != states).any(axis=1).sum())
            seen["no pattern"] += int((~feasible).sum())
        assert min(seen.values()) >= 10, seen

    def test_project_ids_on_one_token_states(self):
        # With one token there is no move: each state comes back as it is,
        # feasible exactly when its own pattern qualifies.
        states = np.zeros((3, 4), dtype=np.int64)
        at_most_three = ConstraintSet([TokenCount(token=0, op="le", k=3)])
        for cs, ok in [
            (ConstraintSet([Position(position=2, token=0)]), True),
            (at_most_three, False),
            (raise_taus(at_most_three, 1.0), True),
        ]:
            ids, feasible = project_ids(states, 1, cs)
            assert np.array_equal(ids, states)
            assert feasible.tolist() == [ok] * 3


def exact_constraint_set(rng, n, length):
    """One to three constraints whose scores are exact on integers:
    TokenCount of every op, Position and Forbidden."""
    out = []
    for j in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(0, 3))
        tau = float(rng.choice([0.0, 0.0, 0.5, 1.0]))
        if kind == 0:
            op = str(rng.choice(["le", "ge", "eq"]))
            out.append(TokenCount(int(rng.integers(0, n)), op, int(rng.integers(0, length + 1)), tau, f"count{j}"))
        elif kind == 1:
            out.append(Position(int(rng.integers(0, length)), int(rng.integers(0, n)), tau, f"position{j}"))
        else:
            out.append(Forbidden(int(rng.integers(0, n)), tau=tau, name=f"forbidden{j}"))
    return ConstraintSet(tuple(out))


class TestIntegerCostSearch:
    """Searches on integer cost tables, which sum exactly and tie often,
    against a scan of every pattern; and the terms project_ids keeps."""

    @pytest.mark.parametrize("family", ["exact", "mixed"])
    def test_integer_costs_take_the_least_cost_then_the_smallest_ids(self, family):
        rng = np.random.default_rng(50 + (family == "exact"))
        make = exact_constraint_set if family == "exact" else make_constraint_set
        seen = collections.Counter()
        for _ in range(150):
            length, n = int(rng.integers(1, 6)), int(rng.integers(2, 6))
            cs = raise_taus(make(rng, n, length), float(rng.choice([0.0, 0.0, 0.5])))
            if rng.random() < 0.2:
                cs = ConstraintSet(tuple(cs) + (NoTerms(),))
            bases = rng.integers(0, n, size=(4, length))
            costs = rng.integers(0, 4, size=(4, length, n)).astype(np.float64)
            ids, found = _decode_search(cs, SearchTerms(cs, length, n), bases, costs)
            patterns = np.array(list(itertools.product(range(n), repeat=length)))
            accepted = (cs.hard_violations_batch(patterns) <= 0.0).all(axis=1)
            for k in range(4):
                if not accepted.any():
                    assert not found[k] and np.array_equal(ids[k], bases[k])
                    seen["no pattern"] += 1
                    continue
                total = np.where(accepted, costs[k][np.arange(length), patterns].sum(axis=1), np.inf)
                least = np.flatnonzero(total == total.min())
                assert found[k] and ids[k].tolist() == patterns[least[0]].tolist()
                seen["tied"] += len(least) > 1
                seen["no zero cost at some position"] += bool((costs[k].min(axis=1) > 0).any())
        assert min(seen.values()) >= 20, seen

    def test_kept_search_terms_give_a_fresh_sets_result(self, monkeypatch):
        # project_ids keeps the set's SearchTerms on the set: a second
        # call at one length reads them, a call at another length builds
        # its own, and each gives the result of an equal set seen afresh.
        rng = np.random.default_rng(4)
        weights = rng.uniform(0, 1, 6)
        built, real_init = [], SearchTerms.__init__

        def init(self, cs, *shape):
            built.append((cs, shape))
            real_init(self, cs, *shape)

        def make():
            return ConstraintSet((TokenCount(1, "eq", 2), Position(3, 0), LinearScore(weights.copy(), tau=0.4)))

        monkeypatch.setattr(SearchTerms, "__init__", init)
        cs = make()
        for length in (7, 7, 8):
            states = rng.integers(0, 6, size=(20, length))
            got = project_ids(states, 6, cs)
            want = project_ids(states, 6, make())
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert [shape for owner, shape in built if owner is cs] == [(7, 6), (8, 6)]


class TableCount(Constraint):
    """A user constraint scored through a 0/1 table, several ones to a
    row allowed: g = phi(sum_i table[i, ids[i]])."""

    def __init__(self, table, scale, offset, absolute=False, tau=0.0, name="table"):
        self.table, self.scale, self.offset, self.absolute = table, scale, offset, absolute
        self.tau, self.name = tau, name

    def hard_scores(self, ids):
        score = self.scale * self.table[np.arange(ids.shape[1]), ids].sum(axis=1) + self.offset
        return (np.abs(score) if self.absolute else score).astype(np.float64)

    def position_terms(self, length, n):
        return PositionTerms(self.table, self.scale, self.offset, self.absolute)


def closed_form_set(rng, n, length):
    """A set _fewest_flips answers: one TokenCount of any op, one
    Forbidden, pins on distinct positions, one TableCount, or two
    TableCounts on disjoint rows."""
    kind = int(rng.integers(0, 5))
    if kind == 0:
        op = str(rng.choice(["le", "ge", "eq"]))
        return ConstraintSet((TokenCount(int(rng.integers(0, n)), op, int(rng.integers(0, length + 1))),))
    if kind == 1:
        return ConstraintSet((Forbidden(int(rng.integers(0, n))),))
    if kind == 2:
        pins = rng.choice(length, size=int(rng.integers(1, min(length, 3) + 1)), replace=False)
        return ConstraintSet(tuple(Position(int(p), int(rng.integers(0, n)), name=f"pin{p}") for p in pins))
    owner = rng.integers(0, 2 if kind == 3 else 3, size=length)
    out = []
    for j in range(1 if kind == 3 else 2):
        table = (rng.random((length, n)) < rng.uniform(0.2, 0.8)).astype(np.int64)
        table[owner != j] = 0
        scale, offset = int(rng.choice([-2, -1, 1, 2])), int(rng.integers(-length, length + 1))
        out.append(TableCount(table, scale, offset, bool(rng.random() < 0.4), name=f"table{j}"))
    return ConstraintSet(tuple(out))


def closed_form_states(rng, shape, n, length):
    """A (K, L) stack of states: for shape "c01" mostly MASK (the last
    id), as at t = T, else uniform ids."""
    k = int(rng.integers(1, 40))
    states = rng.integers(0, n, size=(k, length))
    if shape == "c01":
        return np.where(rng.random((k, length)) < rng.uniform(0.6, 1.0, size=(k, 1)), n - 1, states)
    return states


def search_ids(states, n, cs):
    """_decode_search's picks for the one-hot states."""
    return _decode_search(cs, SearchTerms(cs, states.shape[1], n), states)


class TestFewestFlipsClosedForm:
    """project_ids answers count, forbidden and position sets, and user
    sets of 0/1 tables on rows of their own, in closed form; the result
    is the best-first search's."""

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["c01", "n2", "l1", "any"]),
        st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_search(self, seed, shape, delta):
        rng = np.random.default_rng(seed)
        length, n = {
            "c01": (10, 13),
            "n2": (int(rng.integers(1, 9)), 2),
            "l1": (1, int(rng.integers(1, 8))),
            "any": (int(rng.integers(1, 9)), int(rng.integers(1, 8))),
        }[shape]
        cs = raise_taus(closed_form_set(rng, n, length), delta)
        terms = SearchTerms(cs, length, n)
        states = closed_form_states(rng, shape, n, length)
        ids, feasible = project_ids(states, n, cs)
        want, want_feasible = search_ids(states, n, cs)
        assert np.array_equal(ids, want) and np.array_equal(feasible, want_feasible)
        assert ids.dtype == np.int64 and feasible.dtype == bool
        # A set keeps the search only when no pattern satisfies it, and
        # then no state qualifies.
        assert feasible.all() if terms.fewest_flips is not None else not feasible.any()

    def test_cases_met(self):
        # Draws like test_matches_the_search's meet each case many times.
        rng = np.random.default_rng(7)
        seen = collections.Counter()
        for _ in range(300):
            length, n = int(rng.integers(1, 9)), int(rng.integers(1, 8))
            cs = raise_taus(closed_form_set(rng, n, length), float(rng.choice([0.0, 0.5])))
            terms = SearchTerms(cs, length, n)
            states = closed_form_states(rng, str(rng.choice(["c01", "any"])), n, length)
            ids, feasible = project_ids(states, n, cs)
            want, want_feasible = search_ids(states, n, cs)
            assert np.array_equal(ids, want) and np.array_equal(feasible, want_feasible)
            if terms.fewest_flips is None:
                seen["no pattern satisfies the set"] += 1
                seen["one token"] += int(n == 1)
                continue
            moved = (ids != states).sum(axis=1)
            seen["two or more flips"] += int((moved >= 2).any())
            seen["two tables"] += int(len(cs) == 2 and moved.any())
            tables = [c.table for c in cs if isinstance(c, TableCount)]
            seen["several ones to a row"] += int(any((t.sum(axis=1) >= 2).any() for t in tables) and moved.any())
            # A flip to a larger token: the flips then come from the right.
            seen["larger new token"] += int(bool(((ids > states) & (moved[:, None] > 0)).any()))
        assert len(seen) == 6 and min(seen.values()) >= 5, seen

    @pytest.mark.parametrize(
        "cs, closed",
        [
            ([TokenCount(1, "ge", 2)], True),
            ([TokenCount(1, "eq", 2, tau=0.5)], True),
            ([Forbidden(0)], True),
            ([Position(0, 2), Position(3, 1)], True),
            ([Position(0, 2), Position(0, 1)], False),  # one shared position
            ([TokenCount(1, "le", 2), Position(0, 1)], False),  # mixed families
            ([TokenCount(1, "le", 2), Forbidden(3)], False),  # two tables on every row
            ([LinearScore(np.full(4, 0.5), tau=0.25)], False),
            ([DistinctTokens(2)], False),  # no terms
            ([TokenCount(1, "ge", 6)], False),  # six in five positions: no pattern
        ],
    )
    def test_eligibility(self, cs, closed):
        terms = SearchTerms(ConstraintSet(tuple(cs)), 5, 4)
        assert (terms.fewest_flips is not None) == closed

    def test_closed_sets_make_no_search(self, monkeypatch):
        calls = []
        real = projection._decode_search

        def spy(cs, terms, bases, *args):
            calls.append(bases.tolist())
            return real(cs, terms, bases, *args)

        monkeypatch.setattr(projection, "_decode_search", spy)
        states = c01_start_states(200)
        for name in ("count_le", "count_eq", "position", "forbidden"):
            project_ids(states, 13, ConstraintSet(tuple(PROJECT_IDS_SETS[name])))
        assert calls == []
        # No state of one token can move, and one token 0 per position is
        # four too many for Forbidden(0): the dynamic program finds no
        # pattern, and every state goes on to the search.
        ids, feasible = project_ids(np.zeros((2, 4), dtype=np.int64), 1, ConstraintSet((Forbidden(0),)))
        assert calls == [[[0, 0, 0, 0], [0, 0, 0, 0]]] and feasible.tolist() == [False, False]
        # Every state of a LinearScore set takes the dynamic program, and
        # the search sees none of them, on float weights.
        programmed = []
        real_pick = _FlipDP.pick

        def pick(self, states):
            programmed.append(states.tolist())
            return real_pick(self, states)

        monkeypatch.setattr(_FlipDP, "pick", pick)
        project_ids(states[:3], 13, ConstraintSet(tuple(PROJECT_IDS_SETS["linear0.5"])))
        assert programmed == [states[:3].tolist()] and calls[1:] == []

    def test_smaller_new_tokens_from_the_left_then_larger_from_the_right(self):
        # At most two 2s in (2, 0, 2, 1, 2, 2): the 2s move to 0, smaller,
        # so from the left.  At most one 0 in (1, 0, 2, 0, 0): the 0s move
        # to 1, larger, so from the right.
        down, _ = project_ids(np.array([[2, 0, 2, 1, 2, 2]]), 3, ConstraintSet((TokenCount(2, "le", 2),)))
        assert down.tolist() == [[0, 0, 0, 1, 2, 2]]
        up, _ = project_ids(np.array([[1, 0, 2, 0, 0]]), 3, ConstraintSet((TokenCount(0, "le", 1),)))
        assert up.tolist() == [[1, 0, 2, 1, 1]]
        # At least three 1s: the 2 moves down to 1 first, then the 0s up,
        # from the right.
        mixed, _ = project_ids(np.array([[0, 2, 0, 0]]), 3, ConstraintSet((TokenCount(1, "ge", 3),)))
        assert mixed.tolist() == [[0, 1, 1, 1]]


def flip_dp(cs, length, n):
    """cs's _FlipDP on (length, n) tables, built whether or not the set
    has a closed form."""
    return _FlipDP.of(cs, [c.position_terms(length, n) for c in cs], length, n)


def near_tau(cs, length, n):
    """Whether some pattern's LinearScore mean lies within 1e-9 of tau,
    where rounding may decide the verdict."""
    patterns = np.array(list(itertools.product(range(n), repeat=length)))
    return any(isinstance(c, LinearScore) and (np.abs(c.hard_scores(patterns) - c.tau) < 1e-9).any() for c in cs)


class TestFlipDP:
    """The dynamic program against enumeration and the closed form, and
    the routes of project_ids around it."""

    def test_matches_the_oracle(self):
        # Random sets of 1-3 constraints of every family, at most one
        # LinearScore, on enumerable spaces: the pick is
        # enumerate_fewest_flips's, tie rule included, it is found
        # whenever some pattern qualifies, and project_ids returns it.
        seen = collections.Counter()
        for seed in range(800):
            rng = np.random.default_rng(seed)
            length = int(rng.integers(1, 7))
            n = int(rng.integers(1, min(int(round(MAX_FLIP_SPACE ** (1 / length))), 8) + 1))
            cs = make_constraint_set(rng, n, length)
            if sum(isinstance(c, LinearScore) for c in cs) > 1 or near_tau(cs, length, n):
                continue
            states = rng.integers(0, n, size=(6, length))
            ids, feasible = flip_dp(cs, length, n).pick(states)
            got, got_feasible = project_ids(states, n, cs)
            for state, pick, ok, by_route, route_ok in zip(states, ids, feasible, got, got_feasible):
                try:
                    pattern, cost = enumerate_fewest_flips(np.eye(n)[state], cs)
                except ValueError:  # no pattern satisfies the set
                    assert not ok and not route_ok, seed
                    seen["no pattern"] += 1
                    continue
                assert ok and route_ok, seed
                assert tuple(pick.tolist()) == tuple(by_route.tolist()) == pattern.ids, seed
                seen["picked"] += 1
                seen["two or more flips"] += round(cost / math.log(2.0)) >= 2
                seen["with a LinearScore"] += any(isinstance(c, LinearScore) for c in cs)
                seen["mixed families"] += len({type(c) for c in cs}) > 1
        assert min(seen.values()) >= 100, seen

    def test_suffix_root_counts_the_fewest_flips(self):
        # The least r whose entry at position 0 and the start cell is
        # within the budget is the flip count of enumerate_fewest_flips's
        # pick, and no r is where no pattern qualifies.
        seen = collections.Counter()
        for seed in range(300):
            rng = np.random.default_rng(seed)
            length = int(rng.integers(1, 7))
            n = int(rng.integers(1, min(int(round(MAX_FLIP_SPACE ** (1 / length))), 8) + 1))
            cs = make_constraint_set(rng, n, length)
            if sum(isinstance(c, LinearScore) for c in cs) > 1 or near_tau(cs, length, n):
                continue
            dp = flip_dp(cs, length, n)
            states = rng.integers(0, n, size=(4, length))
            within = dp.suffix(states)[:, 0, 0, 1:] <= dp.budget
            for state, ok in zip(states, within):
                try:
                    _, cost = enumerate_fewest_flips(np.eye(n)[state], cs)
                except ValueError:  # no pattern satisfies the set
                    assert not ok.any(), seed
                    seen["no pattern"] += 1
                    continue
                assert ok.any() and int(ok.argmax()) == round(cost / math.log(2.0)), seed
                seen["two or more flips" if ok.argmax() >= 2 else "fewer flips"] += 1
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("tau", [0.3, 0.6, 0.7])
    def test_exact_fractions_match_the_oracle(self, tau):
        # 0/1 weights cap the fraction of flagged tokens.  Their sums are
        # exact, and hard_scores accepts the sum 10 tau, while tau / (1 /
        # 10) rounds below it: the program keeps that sum all the same,
        # and picks as the oracle does on every seventh state of L = 10,
        # N = 2.
        cs = ConstraintSet((LinearScore(np.array([0.0, 1.0]), tau),))
        states = np.array(list(itertools.product(range(2), repeat=10)))[::7]
        assert SearchTerms(cs, 10, 2).dp.budget >= 10 * tau
        ids, feasible = SearchTerms(cs, 10, 2).dp.pick(states)
        assert feasible.all()
        assert not cs.hard_violations_batch(ids).any()
        for state, pick in zip(states, ids):
            pattern, _ = enumerate_fewest_flips(np.eye(2)[state], cs)
            assert tuple(pick.tolist()) == pattern.ids

    def test_quarter_weights_at_tau_match_the_oracle(self):
        # Quarter weights sum exactly, and tau is the mean of some
        # pattern, so patterns sit right at tau; with up to two count,
        # forbidden or position constraints beside.  The pick is the
        # oracle's, and found whenever some pattern qualifies.
        seen = collections.Counter()
        for seed in range(150):
            rng = np.random.default_rng(seed)
            length = int(rng.integers(1, 7))
            n = int(rng.integers(2, min(int(round(MAX_FLIP_SPACE ** (1 / length))), 6) + 1))
            weights = rng.integers(0, 5, size=n) / 4.0
            tau = float(weights.take(rng.integers(0, n, size=(1, length))).sum() / length)
            others = [c for c in make_constraint_set(rng, n, length) if not isinstance(c, LinearScore)]
            cs = ConstraintSet((LinearScore(weights, tau), *others[:2]))
            states = rng.integers(0, n, size=(4, length))
            ids, feasible = project_ids(states, n, cs)
            for state, pick, ok in zip(states, ids, feasible):
                try:
                    pattern, _ = enumerate_fewest_flips(np.eye(n)[state], cs)
                except ValueError:  # no pattern satisfies the set
                    assert not ok, seed
                    continue
                assert ok and tuple(pick.tolist()) == pattern.ids, seed
                seen["picked"] += 1
                moved = bool((pick != state).any())
                seen["moved to tau"] += moved and cs.constraints[0].hard_scores(pick[None])[0] == tau
                seen["moved with others"] += moved and len(cs) > 1
        assert min(seen.values()) >= 100, seen

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["c01", "n2", "l1", "any"]),
        st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_closed_form_sets_match_fewest_flips(self, seed, shape, delta):
        rng = np.random.default_rng(seed)
        length, n = {
            "c01": (10, 13),
            "n2": (int(rng.integers(1, 9)), 2),
            "l1": (1, int(rng.integers(1, 8))),
            "any": (int(rng.integers(1, 9)), int(rng.integers(1, 8))),
        }[shape]
        cs = raise_taus(closed_form_set(rng, n, length), delta)
        parts = SearchTerms(cs, length, n).fewest_flips
        states = closed_form_states(rng, shape, n, length)
        ids, feasible = flip_dp(cs, length, n).pick(states)
        if parts is None:  # no pattern satisfies the set
            assert not feasible.any()
        else:
            assert feasible.all() and ids.tobytes() == _fewest_flips(states, n, parts).tobytes()

    @pytest.mark.parametrize(
        "cs, route",
        [
            ([TokenCount(1, "ge", 2)], "closed form"),
            ([TokenCount(1, "le", 2), Forbidden(3)], "program"),
            ([Position(0, 2), Position(0, 1)], "program"),
            ([LinearScore(np.full(4, 0.5), tau=0.25)], "program"),
            ([LinearScore(np.full(4, 0.5), tau=0.25), TokenCount(1, "eq", 2), Position(2, 3)], "program"),
            ([TokenCount(1, "ge", 6)], "program"),  # six in five positions: no pattern
            ([LinearScore(np.full(4, 0.5), tau=np.inf), TokenCount(1, "eq", 2)], "search"),
            ([LinearScore(np.full(4, 0.5), 0.25, "a"), LinearScore(np.full(4, 0.2), 0.25, "b")], "search"),
            ([DistinctTokens(2)], "search"),
            ([TokenCount(1, "le", 2), NoTerms()], "search"),
        ],
    )
    def test_routes(self, cs, route):
        terms = SearchTerms(ConstraintSet(tuple(cs)), 5, 4)
        got = "closed form" if terms.fewest_flips is not None else "program" if terms.dp is not None else "search"
        assert got == route

    def test_pick_the_hard_check_refuses_goes_to_the_search(self, monkeypatch):
        # The pattern 0 1 4 4 0 2 4 has mean 1/3 = tau in exact arithmetic,
        # and the program's sums keep it, two flips from the state and the
        # least in lex order.  hard_scores rounds its mean above tau, so
        # project_ids hands the state to the search, which takes the next
        # pattern in (flips, lex) order that the check accepts, 2 1 4 4 0
        # 0 4, as a scan of all 5^7 patterns finds.  The second state's
        # one flip, to mean 2/7, stands.
        searched = []
        real = projection._decode_search

        def search(cs, terms, bases, *args):
            searched.append(bases.tolist())
            return real(cs, terms, bases, *args)

        monkeypatch.setattr(projection, "_decode_search", search)
        cs = ConstraintSet((LinearScore(np.array([0.0, 1 / 3, 1.0, 1.0, 1 / 3]), tau=1 / 3),))
        state = np.array([[2, 1, 4, 4, 3, 2, 4], [2, 2, 2, 0, 0, 0, 0]])
        picked, feasible = SearchTerms(cs, 7, 5).dp.pick(state)
        assert picked[0].tolist() == [0, 1, 4, 4, 0, 2, 4] and feasible.all()
        violations = cs.hard_violations_batch(picked)[:, 0]
        assert violations[0] > 0.0 and violations[1] == 0.0
        ids, feasible = project_ids(state, 5, cs)
        assert ids.tolist() == [[2, 1, 4, 4, 0, 0, 4], [0, 2, 2, 0, 0, 0, 0]] and feasible.all()
        assert searched == [state[:1].tolist()]
        patterns = np.array(list(itertools.product(range(5), repeat=7)))
        flips = np.where((cs.hard_violations_batch(patterns) <= 0.0).all(axis=1), (patterns != state[0]).sum(axis=1), 8)
        assert patterns[np.argmin(flips)].tolist() == ids[0].tolist()

    def test_chunks_bound_memory(self):
        # Three TokenCounts and a LinearScore on the 2,000 c01 states: the
        # tables of all the states at once would take about 100 MB; the
        # program takes them in chunks of at most DP_CHUNK_CELLS cells,
        # and chunking changes no pick.
        cs = ConstraintSet(
            (TokenCount(0, "le", 2), TokenCount(1, "ge", 1), TokenCount(2, "eq", 1), LinearScore(C01_WEIGHTS, 0.5))
        )
        states = c01_start_states()
        dp = SearchTerms(cs, 10, 13).dp
        assert 1 < dp.chunk < states.shape[0] // 4
        tracemalloc.start()
        try:
            ids, feasible = dp.pick(states)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert feasible.all() and peak < 2 * 8 * DP_CHUNK_CELLS
        for k in range(0, states.shape[0], 97):
            one, ok = dp.pick(states[k : k + 1])
            assert ok.all() and one.tobytes() == ids[k : k + 1].tobytes()
        assert not cs.hard_violations_batch(ids).any()


def c01_start_states(count=2000, seed=2026):
    """Seeded c01-shaped states (L=10, 12 tokens + MASK as id 12), mostly
    MASK as at t = T: each state masks each position with its own
    probability in [0.6, 1)."""
    rng = np.random.default_rng(seed)
    p_mask = rng.uniform(0.6, 1.0, size=(count, 1))
    return np.where(rng.random((count, 10)) < p_mask, 12, rng.integers(0, 12, size=(count, 10)))


C01_WEIGHTS = np.random.default_rng(0).uniform(0.0, 1.0, size=13)  # perfbench's linear weights

PROJECT_IDS_SETS = {
    "linear0.25": [LinearScore(weights=C01_WEIGHTS, tau=0.25)],
    "linear0.5": [LinearScore(weights=C01_WEIGHTS, tau=0.5)],
    "linear0.75": [LinearScore(weights=C01_WEIGHTS, tau=0.75)],
    "count_le": [TokenCount(token=0, op="le", k=2)],
    "count_eq": [TokenCount(token=1, op="eq", k=2)],
    "position": [Position(0, 2), Position(5, 0)],
    "forbidden": [Forbidden(3)],
}


class TestProjectIdsDigest:
    """project_ids on 2,000 seeded c01-shaped states per constraint set of
    the linear and token workloads: pins the tie-breaking beyond the
    sampler digests.  The token sets' digests were recorded before the
    sweep pruned its moves, and the closed form gives them still; the
    linear sets' were recorded when the dynamic program took them."""

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("linear0.25", "94ac5558d33c2ed44b7e307080f768aaa3fae62257ab78104c7ecb8dde9251c9"),
            ("linear0.5", "664caddd53a8781697cb9449dccd3c9874b96d7bd84f01952348641d3bc82a45"),
            ("linear0.75", "fe134e1e117a0a0c6d9a45ebb41c451c69a791798bbbbb7507cb960767c637b1"),
            ("count_le", "f52f7c8121c9dfd769ede95bade7b95b5fe387e93b2ba34b3ebe7cfd150d04c8"),
            ("count_eq", "3dcb16aa52b78fc6b4a78f02ff689396029fbb8d6c0fcc989d26a47c87f5d229"),
            ("position", "27a8218fb61997bc8ff837dbb0de6a635181fd9c3a92d664a49651e336fcb82e"),
            ("forbidden", "e57c6a74aaf8bb0717209f994ea50c1cbbb519302769a0cba3c45e98d15de5b5"),
        ],
    )
    def test_seeded_start_states_match_recorded_digest(self, name, digest):
        states = c01_start_states()
        ids, feasible = project_ids(states, 13, ConstraintSet(tuple(PROJECT_IDS_SETS[name])))
        assert feasible.all()
        got = hashlib.sha256(ids.astype(np.uint8).tobytes() + feasible.tobytes()).hexdigest()
        assert got == digest


class TestAlmProjectDigest:
    """alm_project end to end on 300 seeded instances of Dirichlet, mixed
    and one-hot rows: pins the search's picks and the pooled result, and
    that an instance no pattern satisfies comes back as it is.  Recorded
    when the gradient loop was removed; every instance some pattern
    satisfies kept the ids, verdict and kl_moved of the digest before."""

    DIGEST = "c6d156b525655eec597521da56032ad92b64e52b35f4462415adcc7c220ae54b"

    def test_seeded_instances_match_recorded_digest(self):
        rng = np.random.default_rng(2025)
        config = AlmConfig(max_outer_iter=8)
        h = hashlib.sha256()
        infeasible = collections.Counter()
        for i in range(300):
            kind = ("dirichlet", "mixed", "one_hot")[i % 3]
            seq_len, n = int(rng.integers(1, 6)), int(rng.integers(2, 6))
            rows = random_rows(rng, kind, seq_len, n)
            cs = make_constraint_set(rng, n, seq_len)
            res = alm_project(SeqDist(rows), cs, config)
            ids = tuple(int(v) for v in np.argmax(res.projected.rows, axis=1))
            h.update(repr((ids, res.feasible, res.outer_iters, repr(res.kl_moved))).encode())
            assert res.outer_iters == 0
            if not res.feasible:
                # Only where no pattern satisfies the set, with the input
                # returned as it is.
                with pytest.raises(ValueError, match="no pattern satisfies"):
                    enumerate_cheapest_pattern(rows, cs)
                assert np.array_equal(res.projected.rows, rows) and res.kl_moved == 0.0
                infeasible[kind] += 1
        # measured 48 dirichlet, 45 mixed and 43 one-hot instances
        assert min(infeasible[kind] for kind in ("dirichlet", "mixed", "one_hot")) >= 20, infeasible
        assert h.hexdigest() == self.DIGEST
