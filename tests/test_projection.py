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
from projdiff.oracle import MAX_FLIP_SPACE, enumerate_fewest_flips, enumerate_novelty
from projdiff.projection import (
    DP_CHUNK_CELLS,
    AlmConfig,
    NoveltyDb,
    NoveltySaturationError,
    SearchTerms,
    _cheapest_decodes,
    _decode_search,
    _fewest_flips,
    _first_min,
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

    def test_one_hot_falls_back_to_loop_when_search_stops_short(self):
        # From (1, 1, 1, 0) the search alone stops at (0, 0, 1, 0): three
        # zeros, but position 3 still wrong, and every single or paired
        # move from there raises the excess.  The dynamic program reaches
        # (0, 0, 0, 1) with no outer iteration.  With NoTerms in the set
        # only the search projects the state, and the gradient loop and
        # its closing search reach (0, 0, 0, 1).
        cs = ConstraintSet([TokenCount(token=0, op="ge", k=3), Position(position=3, token=1)])
        rows = SeqDist.one_hot(Sequence((1, 1, 1, 0)), 2).rows
        base = (1, 1, 1, 0)
        assert search_one(rows, cs, base, base) == ((0, 0, 1, 0), 1.0)
        res = alm_project(SeqDist(rows), cs)
        assert (decode(res.projected), res.feasible, res.outer_iters) == (Sequence((0, 0, 0, 1)), True, 0)
        res = alm_project(SeqDist(rows), ConstraintSet(tuple(cs) + (NoTerms(),)))
        assert res.feasible
        assert decode(res.projected) == Sequence((0, 0, 0, 1))
        assert res.outer_iters > 0

    def test_unsatisfiable_reports_infeasible(self):
        cs = ConstraintSet([TokenCount(token=0, op="ge", k=4)])
        rows = np.full((2, 3), 1.0 / 3)
        res = alm_project(SeqDist(rows), cs, AlmConfig(max_outer_iter=40))
        assert not res.feasible
        assert res.final_violation.max() > 0

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
        # An infeasible one-hot input builds the set's SearchTerms once,
        # for project_ids, and soft rows build none; the set keeps them,
        # so a second call builds none, and both return the same result.
        built = [0]
        real_init = SearchTerms.__init__

        def init(self, *args):
            built[0] += 1
            real_init(self, *args)

        monkeypatch.setattr(SearchTerms, "__init__", init)
        rng = np.random.default_rng(77)
        config = AlmConfig(max_outer_iter=8)
        loops = 0
        for i in range(60):
            seq_len, n = int(rng.integers(1, 6)), int(rng.integers(2, 6))
            rows = random_rows(rng, ("dirichlet", "one_hot")[i % 2], seq_len, n)
            cs = make_constraint_set(rng, n, seq_len)
            built[0] = 0
            want = alm_project(SeqDist(rows), cs, config)
            feasible_input = cs.satisfied(decode(SeqDist(rows)))
            assert built[0] == (0 if feasible_input or i % 2 == 0 else 1)
            built[0] = 0
            got = alm_project(SeqDist(rows), cs, config)
            assert built[0] == 0
            assert np.array_equal(got.projected.rows, want.projected.rows)
            assert (got.feasible, got.outer_iters, got.kl_moved) == (want.feasible, want.outer_iters, want.kl_moved)
            assert np.array_equal(got.final_violation, want.final_violation)
            loops += want.outer_iters > 0
        assert loops > 0

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
        closed = programmed = 0
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
            if terms.fewest_flips is not None:
                # The closed form's pick: the fewest flips, then the
                # smallest ids.
                closed += 1
                assert decode(res.projected) == pattern, seed
            flips = int(np.count_nonzero(np.asarray(decode(res.projected).ids) != rows.argmax(axis=1)))
            if sum(isinstance(c, LinearScore) for c in cs) <= 1:
                # The closed form or the dynamic program projects every
                # such set that some pattern satisfies, with no outer
                # iteration.
                programmed += terms.dp is not None
                assert res.feasible, seed
                assert res.outer_iters == 0, seed
            if len(cs) == 1:
                singles.add(cs.names[0].rstrip("0"))
                # Each flip pools at 1/2 and then tilts by ARGMAX_EPS,
                # adding about 2e-6 nats to its ln 2.
                assert res.kl_moved == pytest.approx(best, rel=1e-5), seed
            if res.feasible:
                assert cs.satisfied(decode(res.projected)), seed
                assert flips * math.log(2.0) == best, seed
        assert singles == {"linear", "count", "forbidden", "position"}
        assert closed >= 100 and programmed >= 100

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
            cursor = _cheapest_decodes(backend.ops.one_hot_rows(state, n), mask_id)
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
            cursor = _cheapest_decodes(backend.ops.one_hot_rows(state, n), mask_id)
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


def reference_decode_search(x_rows, cs, start_ids, base_ids, max_sweeps=None, moves=None, costs=None):
    """The lattice search scoring one candidate pattern at a time.

    When moves is a list, the number of moves the search took is
    appended to it.  costs, when given, is the (L, N) cost table searched
    in place of x_rows' flip costs."""
    table = reference_flip_costs(x_rows) if costs is None else costs
    seq_len, n = x_rows.shape
    if max_sweeps is None:
        max_sweeps = seq_len + 8

    def cost(ids):
        return float(sum(table[i, ids[i]] for i in range(seq_len)))

    def excess(ids):
        return float(np.asarray([c.hard_violation(Sequence(ids)) for c in cs]).sum())

    def key(ids):
        return (excess(ids), cost(ids), ids)

    cur = tuple(int(t) for t in start_ids)
    base = tuple(int(t) for t in base_ids)
    cur_key = min(key(cur), key(base))
    cur = cur_key[2]
    taken = 0

    for _ in range(max_sweeps):
        best = None

        def consider(ids):
            nonlocal best
            if cur_key[0] == 0.0 and cost(ids) >= cur_key[1]:
                return
            k = key(ids)
            if k < cur_key and (best is None or k < best):
                best = k

        for i in range(seq_len):
            for v in range(n):
                if v != cur[i]:
                    consider(cur[:i] + (v,) + cur[i + 1 :])
        for j in range(seq_len):
            if cur[j] == base[j]:
                continue
            rev = cur[:j] + (base[j],) + cur[j + 1 :]
            for i in range(seq_len):
                if i == j:
                    continue
                for v in range(n):
                    if v != rev[i]:
                        consider(rev[:i] + (v,) + rev[i + 1 :])
        if best is None:
            break
        cur_key = best
        cur = cur_key[2]
        taken += 1
    if moves is not None:
        moves.append(taken)
    return cur, cur_key[0]


def search_one(rows, cs, start, base, max_sweeps=None):
    """_decode_search on one state with its flip-cost table, as (ids, residual)."""
    ids, residual = _decode_search(_row_flip_costs(rows)[None], cs, np.asarray([start]), np.asarray([base]), max_sweeps)
    assert ids.shape == (1, rows.shape[0]) and ids.dtype == np.int64
    assert residual.shape == (1,) and residual.dtype == np.float64
    return tuple(ids[0].tolist()), float(residual[0])


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


class TestDecodeSearch:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(ROW_KINDS), st.sampled_from([0.0, 0.0, 0.1, 0.5]))
    @settings(max_examples=120, deadline=None)
    def test_matches_one_at_a_time_search(self, seed, kind, delta):
        rng = np.random.default_rng(seed)
        seq_len, n = int(rng.integers(1, 8)), int(rng.integers(2, 8))
        rows = random_rows(rng, kind, seq_len, n)
        cs = raise_taus(make_constraint_set(rng, n, seq_len), delta)
        base = tuple(int(v) for v in np.argmax(rows, axis=1))
        start = base if rng.random() < 0.25 else tuple(int(v) for v in rng.integers(0, n, size=seq_len))
        assert search_one(rows, cs, start, base) == reference_decode_search(rows, cs, start, base)

    def test_c01_shape(self):
        rng = np.random.default_rng(7)
        weights = rng.uniform(0.0, 1.0, size=13)
        for tau in (0.25, 0.5, 0.75):
            cs = ConstraintSet([LinearScore(weights=weights, tau=tau), TokenCount(token=1, op="eq", k=2)])
            rows = random_rows(rng, "one_hot", 10, 13)
            base = tuple(int(v) for v in np.argmax(rows, axis=1))
            start = tuple(int(v) for v in rng.integers(0, 13, size=10))
            got = search_one(rows, cs, start, base)
            assert got == reference_decode_search(rows, cs, start, base)
            assert got[1] == 0.0

    def test_max_sweeps_limits_moves(self):
        rows = np.full((4, 2), 0.5)
        rows[:, 0] += 0.1
        rows[:, 1] -= 0.1
        cs = ConstraintSet([TokenCount(token=1, op="ge", k=4)])
        base = (0, 0, 0, 0)
        one = search_one(rows, cs, base, base, max_sweeps=1)
        assert one == reference_decode_search(rows, cs, base, base, max_sweeps=1)
        assert one[0].count(1) == 1
        assert one[1] == 3.0


def random_stack(rng):
    """K in 1..16 states of one (L, N) shape for one search: each state's
    rows of a random kind (one-hot or soft), its start and base ids, and
    a set of one to three constraints shared by all."""
    k, seq_len, n = int(rng.integers(1, 17)), int(rng.integers(1, 7)), int(rng.integers(2, 7))
    rows = [random_rows(rng, str(rng.choice(ROW_KINDS)), seq_len, n) for _ in range(k)]
    bases = np.stack([np.argmax(r, axis=1) for r in rows])
    starts = bases.copy()
    moved = rng.random(k) < 0.6
    starts[moved] = rng.integers(0, n, size=(int(moved.sum()), seq_len))
    return rows, make_constraint_set(rng, n, seq_len), starts, bases


class TestBatchedDecodeSearch:
    """The search of K states at once against the one-at-a-time reference,
    run state by state."""

    @pytest.mark.parametrize("max_sweeps", [None, 1, 3])
    def test_matches_reference_state_by_state(self, max_sweeps):
        rng = np.random.default_rng(30 + (max_sweeps or 0))
        stopped_apart = 0
        for _ in range(12):
            rows, cs, starts, bases = random_stack(rng)
            cs = raise_taus(cs, float(rng.choice([0.0, 0.0, 0.1, 0.5])))
            tables = np.stack([_row_flip_costs(r) for r in rows])
            ids, residual = _decode_search(tables, cs, starts, bases, max_sweeps)
            moves = []
            for k, r in enumerate(rows):
                want = reference_decode_search(r, cs, starts[k], bases[k], max_sweeps, moves)
                assert (tuple(ids[k].tolist()), float(residual[k])) == want, k
            stopped_apart += len(set(moves)) > 1
        assert stopped_apart >= 3  # states of one stack stopped in different sweeps

    def test_integer_costs_match_one_hot_flip_costs(self):
        # Integer tables, such as the 0/1 ones project_ids builds, sum
        # exactly; from starts away from the base, most moves pair a flip
        # with a revert.
        rng = np.random.default_rng(12)
        for _ in range(60):
            k, seq_len, n = int(rng.integers(1, 17)), int(rng.integers(1, 9)), int(rng.integers(2, 9))
            bases = rng.integers(0, n, size=(k, seq_len))
            starts = np.where(rng.random((k, seq_len)) < 0.5, rng.integers(0, n, size=(k, seq_len)), bases)
            cs = raise_taus(make_constraint_set(rng, n, seq_len), float(rng.choice([0.0, 0.5])))
            flips = (np.arange(n) != bases[:, :, None]).astype(np.int8)
            tables = np.stack([_row_flip_costs(np.eye(n)[b]) for b in bases])
            got = _decode_search(flips, cs, starts, bases)
            want = _decode_search(tables, cs, starts, bases)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            # Any small integer costs, the base tokens' too, sum exactly as floats.
            costs = rng.integers(0, 4, size=(k, seq_len, n)).astype(np.int8)
            got = _decode_search(costs, cs, starts, bases)
            want = _decode_search(costs.astype(np.float64), cs, starts, bases)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_project_ids_ranks_one_hot_patterns_by_distance(self, delta):
        # On one-hot rows every flip costs ln 2, so ranking patterns by
        # their Hamming distance to the state picks what the flip-cost
        # tables pick.  NoTerms sends every set to the search.
        rng = np.random.default_rng(8)
        for _ in range(30):
            k, seq_len, n = int(rng.integers(1, 17)), int(rng.integers(1, 9)), int(rng.integers(2, 9))
            states = rng.integers(0, n, size=(k, seq_len))
            cs = ConstraintSet(tuple(raise_taus(make_constraint_set(rng, n, seq_len), delta)) + (NoTerms(),))
            ids, feasible = project_ids(states, n, cs)
            tables = np.stack([_row_flip_costs(np.eye(n)[s]) for s in states])
            want, residual = _decode_search(tables, cs, states, states)
            assert np.array_equal(ids, want)
            assert np.array_equal(feasible, residual == 0.0)
            for s, got, ok in zip(states, ids, feasible):
                if ok:
                    assert cs.satisfied(Sequence(tuple(got.tolist())))
                else:
                    # alm_project goes on to its gradient loop.
                    res = alm_project(SeqDist(np.eye(n)[s]), cs, AlmConfig(max_outer_iter=5))
                    assert res.outer_iters > 0

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


class TestPrunedSweeps:
    """Sweeps against the one-at-a-time reference on float sums that tie
    or split by an ulp, and on a constraint without position terms."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_near_tied_linear_weights_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        k, seq_len, n = int(rng.integers(1, 9)), int(rng.integers(1, 8)), int(rng.integers(2, 7))
        cs = raise_taus(near_tie_set(rng, n, seq_len), float(rng.choice([0.0, 0.0, 1e-17, 0.05])))
        rows = [random_rows(rng, str(rng.choice(["one_hot", "dirichlet", "tied"])), seq_len, n) for _ in range(k)]
        bases = np.stack([np.argmax(r, axis=1) for r in rows])
        starts = np.where(rng.random((k, seq_len)) < 0.5, rng.integers(0, n, size=(k, seq_len)), bases)
        ids, residual = _decode_search(np.stack([_row_flip_costs(r) for r in rows]), cs, starts, bases)
        for j, r in enumerate(rows):
            want = reference_decode_search(r, cs, starts[j], bases[j])
            assert (tuple(ids[j].tolist()), float(residual[j])) == want, j
        # The 0/1 path from the states themselves, as project_ids runs it.
        got, feasible = search_ids(bases, n, cs)
        tables = np.stack([_row_flip_costs(np.eye(n)[b]) for b in bases])
        want, want_residual = _decode_search(tables, cs, bases, bases)
        assert np.array_equal(got, want) and np.array_equal(feasible, want_residual == 0.0)
        for j, b in enumerate(bases):
            ref = reference_decode_search(np.eye(n)[b], cs, b, b)
            assert tuple(want[j].tolist()) == ref[0]

    def test_constraint_without_terms_matches_reference(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            k, seq_len, n = int(rng.integers(1, 9)), int(rng.integers(1, 7)), int(rng.integers(2, 7))
            extra = list(make_constraint_set(rng, n, seq_len)) if rng.random() < 0.5 else []
            distinct = DistinctTokens(int(rng.integers(1, min(n, seq_len) + 1)))
            assert distinct.position_terms(seq_len, n) is None
            cs = raise_taus(ConstraintSet(tuple([distinct] + extra)), float(rng.choice([0.0, 0.5])))
            rows = [random_rows(rng, str(rng.choice(ROW_KINDS)), seq_len, n) for _ in range(k)]
            bases = np.stack([np.argmax(r, axis=1) for r in rows])
            starts = np.where(rng.random((k, seq_len)) < 0.5, rng.integers(0, n, size=(k, seq_len)), bases)
            ids, residual = _decode_search(np.stack([_row_flip_costs(r) for r in rows]), cs, starts, bases)
            for j, r in enumerate(rows):
                want = reference_decode_search(r, cs, starts[j], bases[j])
                assert (tuple(ids[j].tolist()), float(residual[j])) == want, j
            got, _ = project_ids(bases, n, cs)
            for j, b in enumerate(bases):
                assert tuple(got[j].tolist()) == reference_decode_search(np.eye(n)[b], cs, b, b)[0]

    @pytest.mark.parametrize("cells", [1, 3 * 294, 50 * 294 + 293])
    def test_chunks_of_groups_give_the_whole_sweeps_result(self, monkeypatch, cells):
        # A sweep scores SEARCH_CHUNK_CELLS candidate ids at a time: here
        # whole groups of 7 * 6 candidates of 7 ids, 294 ids each, or one
        # group when a chunk is smaller than a group.
        rng = np.random.default_rng(9)
        states = rng.integers(0, 6, size=(40, 7))
        cs = ConstraintSet((TokenCount(1, "eq", 2), LinearScore(rng.uniform(0, 1, 6), tau=0.4), NoTerms()))
        rows = [random_rows(rng, str(rng.choice(ROW_KINDS)), 7, 6) for _ in range(40)]
        tables = np.stack([_row_flip_costs(r) for r in rows])
        whole_ids, whole_feasible = project_ids(states, 6, cs)
        whole = _decode_search(tables, cs, states, np.argmax(rows, axis=2))
        monkeypatch.setattr(projection, "SEARCH_CHUNK_CELLS", cells)
        ids, feasible = project_ids(states, 6, cs)
        assert ids.tobytes() == whole_ids.tobytes() and feasible.tobytes() == whole_feasible.tobytes()
        assert (ids != states).any()
        got = _decode_search(tables, cs, states, np.argmax(rows, axis=2))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, whole))

    def test_start_scored_once_when_it_is_the_base(self, monkeypatch):
        # project_ids passes its states as both starts and bases.
        rng = np.random.default_rng(3)
        states = rng.integers(0, 13, size=(5, 10))
        cs = ConstraintSet((LinearScore(weights=rng.uniform(0.0, 1.0, 13), tau=0.3),))
        flips = (np.arange(13) != states[:, :, None]).astype(np.int8)
        calls = []
        real = ConstraintSet.hard_violations_batch

        def spy(self, ids):
            calls.append(len(ids))
            return real(self, ids)

        monkeypatch.setattr(ConstraintSet, "hard_violations_batch", spy)
        once = _decode_search(flips, cs, states, states)
        scored_once = len(calls)
        twice = _decode_search(flips, cs, states, states.copy())
        assert len(calls) - scored_once == scored_once + 1
        assert calls[scored_once : scored_once + 2] == [5, 5]
        assert all(np.array_equal(a, b) for a, b in zip(once, twice))

def exact_constraint_set(rng, n, length):
    """One to three constraints the search scores exactly from integer
    tables: TokenCount of every op, Position and Forbidden."""
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
    """Searches on integer cost tables, which sum exactly, against the
    one-at-a-time reference."""

    @pytest.mark.parametrize("family", ["exact", "mixed"])
    def test_integer_costs_match_reference(self, family):
        rng = np.random.default_rng(50 + (family == "exact"))
        make = exact_constraint_set if family == "exact" else make_constraint_set
        seen = collections.Counter()
        for _ in range(60):
            k, seq_len, n = int(rng.integers(2, 13)), int(rng.integers(1, 8)), int(rng.integers(2, 7))
            cs = raise_taus(make(rng, n, seq_len), float(rng.choice([0.0, 0.0, 0.5])))
            bases = rng.integers(0, n, size=(k, seq_len))
            costs = rng.integers(1, 4, size=(k, seq_len, n))
            if rng.random() < 0.5:
                np.put_along_axis(costs, bases[:, :, None], 0, axis=2)
            costs[rng.random(costs.shape) < 0.25] = 0  # free tokens off the base
            if rng.random() < 0.5:
                starts = bases
            else:
                starts = np.where(rng.random((k, seq_len)) < 0.5, rng.integers(0, n, size=(k, seq_len)), bases)
            ids, residual = _decode_search(costs, cs, starts, bases)
            for j in range(k):
                want = reference_decode_search(np.eye(n)[bases[j]], cs, starts[j], bases[j], costs=costs[j])
                assert (tuple(ids[j].tolist()), float(residual[j])) == want, j
            outcomes = set()
            for j in range(k):
                base = tuple(bases[j].tolist())
                base_ok = reference_decode_search(np.eye(n)[bases[j]], cs, base, base, max_sweeps=0)[1] == 0.0
                seen["base qualifies" if base_ok else "base fails"] += 1
                # The least cost a qualifying pattern can have: a pattern
                # that differs from a failing base somewhere pays its
                # cheapest change.
                table = costs[j].tolist()
                floor = sum(min(row) for row in table)
                if not base_ok:
                    floor += min(min(r[:b] + r[b + 1 :]) - min(r) for r, b in zip(table, base))
                cost = sum(row[v] for row, v in zip(table, ids[j].tolist()))
                outcomes.add("infeasible" if residual[j] > 0.0 else "at floor" if cost == floor else "above floor")
            seen.update(outcomes)
            seen["mixed outcomes"] += int(len(outcomes) > 1)
        # Every case met many times.
        assert len(seen) == 6 and min(seen.values()) >= 5, seen

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
    """_decode_search from the states themselves, as project_ids runs it."""
    flips = (np.arange(n) != states[:, :, None]).astype(np.int8)
    ids, residual = _decode_search(flips, cs, states, states)
    return ids, residual == 0.0


class TestFewestFlipsClosedForm:
    """project_ids answers count, forbidden and position sets, and user
    sets of 0/1 tables on rows of their own, in closed form; the result
    is the lattice search's."""

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

        def spy(tables, cs, starts, bases, *args):
            calls.append(starts.tolist())
            return real(tables, cs, starts, bases, *args)

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
        # project_ids hands the state to the search, which pairs moves to
        # 2 1 4 4 0 0 4.  The second state's one flip, to mean 2/7, stands.
        searched = []
        real = projection._decode_search

        def search(tables, cs, starts, bases, *args):
            searched.append(starts.tolist())
            return real(tables, cs, starts, bases, *args)

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


def planted_stack(rng):
    """A (K, L) candidate stack with excess and cost, ties planted in each key."""
    k, seq_len, n = int(rng.integers(1, 40)), int(rng.integers(1, 8)), int(rng.integers(1, 5))
    cands = rng.integers(0, n, size=(k, seq_len))
    shared = rng.random(k) < 0.5
    cut = int(rng.integers(0, seq_len + 1))
    cands[shared, :cut] = cands[int(rng.integers(0, k)), :cut]  # shared id prefixes
    copies = rng.integers(0, k, size=k // 3)
    cands[rng.integers(0, k, size=copies.shape[0])] = cands[copies]  # fully duplicated rows
    excess = rng.choice(np.array([0.0, -0.0, 0.5, 1.0]), size=k)
    cost = rng.choice(np.array([0.0, math.log(2), 2 * math.log(2), rng.uniform(0.0, 3.0)]), size=k)
    return cands, cost, excess


def lexsort_first(cands, cost, excess):
    """The first row of the stable sort by (excess, cost, ids)."""
    return int(np.lexsort(tuple(cands[:, ::-1].T) + (cost, excess))[0])


class TestFirstMin:
    """The sweep's move selection against the lexsort it replaced."""

    def test_matches_lexsort(self):
        rng = np.random.default_rng(0)
        signed_zero_ties = full_ties = prefix_ties = 0
        for _ in range(3000):
            cands, cost, excess = planted_stack(rng)
            want = lexsort_first(cands, cost, excess)
            assert _first_min(cands, cost, excess, np.zeros(cands.shape[0], dtype=np.intp)).tolist() == [want]
            at_min = excess == excess[want]
            signed_zero_ties += int(excess[want] == 0.0 and len(set(np.signbit(excess[at_min]).tolist())) == 2)
            tied = cands[at_min & (cost == cost[want])]
            same = np.all(tied == cands[want], axis=1)
            full_ties += int(same.sum() > 1)
            # A rival equal to the winner in its first column, decided later.
            prefix_ties += int(np.any(~same & (tied[:, 0] == cands[want, 0])))
        # Every planted kind of tie was met many times.
        assert min(signed_zero_ties, full_ties, prefix_ties) > 100

    def test_segments_match_lexsort_per_segment(self):
        # One planted stack cut into segments, so that every kind of tie
        # also runs across segments: each segment's pick is the sort's on
        # that segment alone.
        rng = np.random.default_rng(1)
        cross_ties = full_ties = 0
        for _ in range(2000):
            cands, cost, excess = planted_stack(rng)
            k = cands.shape[0]
            cuts = np.sort(rng.choice(np.arange(1, k), size=min(k - 1, int(rng.integers(0, 6))), replace=False))
            bounds = np.concatenate([[0], cuts, [k]])
            segment = np.repeat(np.arange(bounds.shape[0] - 1), np.diff(bounds)) * 3  # labels need not be 0..S-1
            want = [lo + lexsort_first(cands[lo:hi], cost[lo:hi], excess[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
            assert _first_min(cands, cost, excess, segment).tolist() == want
            keys = [(float(excess[w]), float(cost[w]), tuple(cands[w].tolist())) for w in want]
            cross_ties += int(len(set(keys)) < len(keys))
            for w in want:
                seg = segment == segment[w]
                same = seg & (excess == excess[w]) & (cost == cost[w]) & np.all(cands == cands[w], axis=1)
                full_ties += int(same.sum() > 1)
        assert min(cross_ties, full_ties) > 100

    def test_signed_zero_excess_ties(self):
        cands = np.array([[2, 0], [1, 0], [1, 0]])
        cost = np.array([0.5, 0.5, 0.5])
        one = np.zeros(3, dtype=np.intp)
        assert _first_min(cands, cost, np.array([-0.0, 0.0, -0.0]), one).tolist() == [1]
        assert _first_min(cands, cost, np.array([0.0, -0.0, 0.0]), one).tolist() == [1]

    def test_full_tie_keeps_each_segments_lowest_index(self):
        cands = np.array([[2, 0], [1, 0], [1, 0], [1, 0], [0, 5], [0, 5]])
        cost = np.full(6, 0.5)
        excess = np.array([0.0, -0.0, 0.0, -0.0, 0.0, -0.0])
        assert _first_min(cands, cost, excess, np.array([0, 0, 0, 1, 1, 1])).tolist() == [1, 4]


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
    and one-hot rows, recorded when the dynamic program took the one-hot
    instances of sets with at most one LinearScore: pins the gradient
    loop, the closing search over the table and the pooled result. A
    short outer budget keeps the infeasible instances cheap."""

    DIGEST = "eef7667319674110459de5323a3b2c676ad2c4f4ccba77cea75f94fe131cdf57"

    def test_seeded_instances_match_recorded_digest(self):
        rng = np.random.default_rng(2025)
        config = AlmConfig(max_outer_iter=8)
        h = hashlib.sha256()
        one_hot_loops = 0
        for i in range(300):
            kind = ("dirichlet", "mixed", "one_hot")[i % 3]
            seq_len, n = int(rng.integers(1, 6)), int(rng.integers(2, 6))
            rows = random_rows(rng, kind, seq_len, n)
            res = alm_project(SeqDist(rows), make_constraint_set(rng, n, seq_len), config)
            ids = tuple(int(v) for v in np.argmax(res.projected.rows, axis=1))
            h.update(repr((ids, res.feasible, res.outer_iters, repr(res.kl_moved))).encode())
            one_hot_loops += kind == "one_hot" and res.outer_iters > 0
        # One-hot states that project_ids leaves infeasible run the loop
        # and its closing search.
        assert one_hot_loops >= 20
        assert h.hexdigest() == self.DIGEST
