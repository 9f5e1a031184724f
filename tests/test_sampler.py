"""Reverse-chain sampling engine: determinism, scheduling, policies."""

import collections
import hashlib
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from projdiff import backend
from projdiff import projection as projection_module
from projdiff import sampler as sampler_module
from projdiff.constraints import ConstraintSet, Forbidden, LinearScore, Position, TokenCount
from projdiff.core import Corpus, SeqDist, Sequence, Vocabulary
from projdiff.denoiser import ExactBayesDenoiser
from projdiff.noise import reverse_mixture_rows
from projdiff.oracle import enumerate_novelty
from projdiff.projection import MU_MAX, AlmConfig, NoveltyDb, SearchTerms
from projdiff.sampler import (
    InfeasibleSampleError,
    SampleConfig,
    sample_constrained,
    sample_unconstrained,
    violation_contraction,
)

from conftest import compatible_sets, make_corpus, make_vocab


def simple_cs():
    return ConstraintSet([TokenCount(token=0, op="le", k=2)])


def cfg(**kw):
    base = dict(steps=10, length=5, num_samples=8, rng_seed=3)
    base.update(kw)
    return SampleConfig(**base)


def c01_digest(cs):
    """sha256 of 8 seeded samples on the c01 shape (L=10, 12 tokens +
    MASK, corpus seed 11), 16 steps, seed 0."""
    corpus = make_corpus(make_vocab(12), length=10, n_entries=16, seed=11)
    seqs, _ = sample_constrained(corpus, cs, SampleConfig(steps=16, length=10, num_samples=8, rng_seed=0))
    return hashlib.sha256(b"".join(bytes(s.ids) for s in seqs)).hexdigest()


def c01_trace_digest(cs, **kw):
    """sha256 of the samples and of every TraceRecord field but wall_time
    (floats by repr) on the c01 shape, 8 chains, 16 steps, seed 0 unless
    kw sets rng_seed."""
    corpus = make_corpus(make_vocab(12), length=10, n_entries=16, seed=11)
    config = SampleConfig(**{**dict(steps=16, length=10, num_samples=8, rng_seed=0), **kw})
    return trace_digest(*sample_constrained(corpus, cs, config))


def trace_digest(seqs, traces):
    """sha256 of the samples and of every TraceRecord field but wall_time
    (floats by repr)."""
    h = hashlib.sha256(b"".join(bytes(s.ids) for s in seqs))
    for r in traces:
        fields = (r.sample_index, r.step, r.projected, r.pre_violation, r.post_violation, r.kl_moved, r.outer_iters)
        h.update(repr(fields).encode())
    return h.hexdigest()


def spy_failing_states(monkeypatch):
    """Record the id rows that fail the screen at each projected step.

    Returns (failing, current): failing maps each projected step t to the
    bytes of its failing chains' id rows, in chain order, and current[0]
    is the step being projected.
    """
    failing, current = {}, [None]
    real = sampler_module._Engine._passes

    def passes(self, ids, t):
        passed = real(self, ids, t)
        failing[t] = [row.tobytes() for row in ids[~passed]]
        current[0] = t
        return passed

    monkeypatch.setattr(sampler_module._Engine, "_passes", passes)
    return failing, current


def state_bytes(x_in):
    """The id row bytes of a one-hot projector input."""
    return x_in.rows.argmax(axis=1).astype(np.int64).tobytes()


def id_bytes(ids):
    """The bytes of an id row, as the sampler's int64 rows hold them."""
    return np.asarray(ids, dtype=np.int64).tobytes()


class TestConfigValidation:
    def test_mode_and_policy_checked(self):
        with pytest.raises(ValueError):
            cfg(projection_mode="magic")
        with pytest.raises(ValueError):
            cfg(infeasible_policy="ignore")

    def test_schedule_bounds(self):
        with pytest.raises(ValueError):
            cfg(project_every=11)
        with pytest.raises(ValueError):
            cfg(project_start=10)

    @pytest.mark.parametrize(
        "field", ["steps", "length", "num_samples", "rng_seed", "project_every", "project_start", "max_retries"]
    )
    @pytest.mark.parametrize("value", [1.5, 2.0, True, "2", None])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            cfg(**{field: value})

    def test_negative_seed_rejected_and_numpy_integers_accepted(self):
        with pytest.raises(ValueError, match="rng_seed"):
            cfg(rng_seed=-1)
        c = cfg(steps=np.int64(10), num_samples=np.int32(0), rng_seed=np.uint8(3))
        assert c.steps == 10

    @pytest.mark.parametrize("field", ["max_inner_iter", "max_outer_iter"])
    @pytest.mark.parametrize("value", [1.5, True, 0])
    def test_alm_iteration_limits_must_be_positive_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            AlmConfig(**{field: value})

    def test_alm_mu_init_is_capped_and_nan_settings_rejected(self):
        assert AlmConfig(mu_init=MU_MAX).mu_init == MU_MAX
        for bad in (2 * MU_MAX, 0.0, float("nan")):
            with pytest.raises(ValueError, match="mu_init"):
                AlmConfig(mu_init=bad)
        with pytest.raises(ValueError, match="eta"):
            AlmConfig(eta=float("nan"))

    def test_alm_config_holds_only_the_settings_callers_change(self):
        names = [f.name for f in fields(AlmConfig)]
        assert names == ["mu_init", "eta", "max_inner_iter", "max_outer_iter"]
        for removed in ("mu_max", "delta"):
            with pytest.raises(TypeError):
                AlmConfig(**{removed: 0.0})

    def test_length_must_match_corpus(self, toy_corpus):
        with pytest.raises(ValueError):
            sample_constrained(toy_corpus, simple_cs(), cfg(length=4))

    def test_alm_mode_requires_constraints(self, toy_corpus):
        with pytest.raises(ValueError):
            sample_constrained(toy_corpus, None, cfg())

    def test_novelty_mode_rejects_constraints(self, toy_corpus):
        with pytest.raises(ValueError):
            sample_constrained(toy_corpus, simple_cs(), cfg(projection_mode="novelty"))

    def test_positional_mode_requires_position_constraints(self, toy_corpus):
        # Position sets project in alm mode: "positional" is not a mode,
        # and two Positions on one position cannot be met, so the chain
        # exhausts its retries instead of failing validation.
        with pytest.raises(ValueError):
            cfg(projection_mode="positional")
        dup = ConstraintSet([Position(0, 1, name="p0"), Position(0, 2, name="p0b")])
        with pytest.raises(InfeasibleSampleError, match="retries"):
            sample_constrained(toy_corpus, dup, cfg(max_retries=2, num_samples=1))

    @pytest.mark.parametrize(
        "constraint",
        [
            pytest.param(Position(0, 9), id="position-token"),
            pytest.param(Position(5, 0), id="position-index"),
            pytest.param(TokenCount(9, "ge", 1), id="count-token"),
            pytest.param(Forbidden(-1), id="forbidden-negative-token"),
            pytest.param(LinearScore(weights=np.full(4, 0.5), tau=0.5), id="weights-short"),
            pytest.param(LinearScore(weights=np.full(6, 0.5), tau=0.5), id="weights-long"),
        ],
    )
    def test_constraint_must_fit_vocab_and_length(self, toy_corpus, constraint):
        # The toy corpus has 4 tokens plus MASK (N = 5) and length 5.
        def denoiser(state, a_t, kernel):
            raise AssertionError("sampling started")

        with pytest.raises(ValueError, match=re.escape(constraint.name)):
            sample_constrained(toy_corpus, ConstraintSet([constraint]), cfg(), denoiser=denoiser)


class TestDeterminism:
    @pytest.mark.parametrize("kernel", ["masked", "uniform"])
    def test_same_seed_same_output(self, toy_corpus, kernel):
        a_seqs, a_tr = sample_constrained(toy_corpus, simple_cs(), cfg(kernel=kernel))
        b_seqs, b_tr = sample_constrained(toy_corpus, simple_cs(), cfg(kernel=kernel))
        assert a_seqs == b_seqs
        assert [(r.step, r.kl_moved) for r in a_tr] == [(r.step, r.kl_moved) for r in b_tr]

    @pytest.mark.parametrize(
        "case, kernel, schedule",
        [
            pytest.param(case, kernel, schedule, id=f"{case}-{kernel}" + ("-every3" if schedule else ""))
            for schedule in ({}, dict(project_every=3, project_start=2))
            for case in ("alm", "positional", "novelty")
            for kernel in ("masked", "uniform")
        ],
    )
    def test_tracing_does_not_change_samples(self, toy_corpus, case, kernel, schedule):
        mode, cs = {
            "alm": ("alm", ConstraintSet([TokenCount(token=0, op="le", k=1), Forbidden(3)])),
            "positional": ("alm", ConstraintSet([Position(1, 3), Position(3, 0)])),
            "novelty": ("novelty", None),
        }[case]
        c = cfg(kernel=kernel, projection_mode=mode, num_samples=24, **schedule)
        traced, records = sample_constrained(toy_corpus, cs, c)
        untraced, none = sample_constrained(toy_corpus, cs, replace(c, trace=False))
        assert traced == untraced
        assert len(records) == 24 * 10 and none == []

    def test_seed_changes_output(self, toy_corpus):
        a, _ = sample_constrained(toy_corpus, simple_cs(), cfg(num_samples=16))
        b, _ = sample_constrained(toy_corpus, simple_cs(), cfg(num_samples=16, rng_seed=4))
        assert a != b

    def test_unconstrained_helper_matches_none_mode(self, toy_corpus):
        direct, _ = sample_constrained(toy_corpus, None, cfg(projection_mode="none", trace=False))
        helper = sample_unconstrained(toy_corpus, cfg())
        assert direct == helper

    def test_traced_none_mode_without_constraints_reads_zero_violations(self, toy_corpus):
        _, records = sample_constrained(toy_corpus, None, cfg(projection_mode="none", num_samples=6))
        assert len(records) == 6 * 10
        assert not any(r.projected for r in records)
        assert {r.pre_violation for r in records} == {r.post_violation for r in records} == {0.0}

    def test_seeded_c01_samples_match_recorded_digest(self):
        """A fixed seed keeps giving the same samples.  The digest was
        recorded before the lattice search and the constraint scores were
        batched; a change to either that alters any pattern choice or
        tie-break changes it."""
        weights = np.random.default_rng(0).uniform(0.0, 1.0, size=13)
        cs = ConstraintSet([LinearScore(weights=weights, tau=0.25), TokenCount(token=1, op="eq", k=2)])
        assert c01_digest(cs) == "6ce9cd0dec4297933c769cfd7e8685685501bf51290a23d5c0607a98ffa0e1ae"

    @pytest.mark.parametrize(
        "family, digest",
        [
            ("linear", "883cddfef609958e22a28447952c6546f5a6811240192bfd4a6435bdcafbb4f8"),
            ("count", "2ab0373ed811ddc7f6bda17d6538e195dfa837412ca1e79673802b654a615b61"),
        ],
    )
    def test_seeded_single_constraint_samples_match_recorded_digest(self, family, digest):
        """Single-constraint c01 sets, digests recorded while the ALM loop
        still ran on every one-hot projection: deciding those projections
        by the lattice search alone must not change a sample."""
        if family == "linear":
            c = LinearScore(weights=np.random.default_rng(0).uniform(0.0, 1.0, size=13), tau=0.5)
        else:
            c = TokenCount(token=1, op="eq", k=2)
        assert c01_digest(ConstraintSet([c])) == digest

    @pytest.mark.parametrize(
        "kernel, family, digest",
        [
            ("masked", "alm", "c7e3556fc3f31bfd1927062c5361fd7e1ddce509a003d0a3c11cbff1bfee9714"),
            ("uniform", "alm", "c16842ac2bfb91b38fad0db94ef9de79e0d406d30b052efd43c9533aefbfc152"),
            ("masked", "positional", "fd548eaa32948e2b3c5d18fbc6156fc63c004f14807a2535a7a2e88bf29cf81e"),
        ],
    )
    def test_seeded_c01_trace_matches_recorded_digest(self, kernel, family, digest):
        """Samples and trace records (violations, KL moved, outer
        iterations) of projected and unprojected steps, recorded while
        every projected chain still went through its projector.  The
        "positional" case projects its Position-only set in alm mode,
        which gives the digest that set's own positional mode recorded."""
        if family == "alm":
            weights = np.random.default_rng(0).uniform(0.0, 1.0, size=13)
            cs = ConstraintSet([LinearScore(weights=weights, tau=0.25), TokenCount(token=1, op="eq", k=2)])
            kw = dict(project_every=3, project_start=2)
        else:
            cs = ConstraintSet([Position(0, 2), Position(5, 0)])
            kw = {}
        assert c01_trace_digest(cs, kernel=kernel, **kw) == digest

    def test_seeded_c01_trace_with_retries_matches_recorded_digest(self, monkeypatch):
        """Samples and trace records of a uniform-kernel c01 run whose
        chains redraw after infeasible projections and share states within
        a step, an infeasible state among them.  Recorded while every
        failing chain still went through its projector: reusing a step's
        result for a repeated state, and redrawing in chain order, must
        leave the rng stream as it was."""
        cs = ConstraintSet([Position(6, 7, tau=0.5), TokenCount(token=9, op="ge", k=3), Position(1, 6)])
        failing, current = spy_failing_states(monkeypatch)
        infeasible, redraws = set(), [0]
        real_project, real_sample_rows = sampler_module.alm_project, backend.ops.sample_rows

        def project(x_in, *args, **kwargs):
            res = real_project(x_in, *args, **kwargs)
            if not res.feasible:
                infeasible.add((current[0], state_bytes(x_in)))
            return res

        def sample_rows(rows, u, index=None):
            if rows.shape[0] == 10:  # one chain's rows; batch draws hold 8 * 10
                redraws[0] += 1
            return real_sample_rows(rows, u, index)

        monkeypatch.setattr(sampler_module, "alm_project", project)
        monkeypatch.setattr(backend.ops, "sample_rows", sample_rows)
        digest = c01_trace_digest(cs, kernel="uniform", rng_seed=22)
        assert redraws[0] > 0
        assert any(failing[t].count(row) > 1 for t, row in infeasible)
        assert digest == "a75fb256bd42d608ed3463afa50c4d1a193e51e15cd4a7af62e94849e53018e8"

    @pytest.mark.parametrize(
        "kernel, fallbacks, digest",
        [
            ("masked", 401, "bcd6eb2e932a6d2279c023d279981a8e0843f6b753cfb681f0b84e96bcd6d002"),
            ("uniform", 0, "8831a337e4cc40a34be90ec27e3269d95b8630661384f9e9edc14d3fb1940e58"),
        ],
    )
    def test_seeded_unconstrained_samples_match_recorded_digest(self, kernel, fallbacks, digest):
        """The c04 shapes of the unconstrained benchmark (L=3, 6 entries),
        32 steps, 2000 samples, seed 0, recorded while the exact denoiser
        still computed every chain's posterior on its own.  The fallback
        count covers every chain-step, repeated states included."""
        if kernel == "masked":
            corpus = make_corpus(make_vocab(3), length=3, n_entries=6, seed=5)
        else:
            corpus = make_corpus(make_vocab(4, with_mask=False), length=3, n_entries=6, seed=7)
        den = ExactBayesDenoiser(corpus)
        config = SampleConfig(steps=32, length=3, kernel=kernel, num_samples=2000, rng_seed=0)
        seqs = sample_unconstrained(corpus, config, denoiser=den)
        assert hashlib.sha256(b"".join(bytes(s.ids) for s in seqs)).hexdigest() == digest
        assert den.fallback_count == fallbacks

    def test_seeded_novelty_samples_match_recorded_digest(self):
        """Novelty mode on the c02 shape (6 tokens + MASK, L=6, 10
        entries), 12 steps, 500 samples, seed 0, recorded while the
        novelty search still expanded MASK children and the exact
        denoiser computed every chain on its own."""
        corpus = make_corpus(make_vocab(6), length=6, n_entries=10, seed=23)
        config = SampleConfig(steps=12, length=6, num_samples=500, rng_seed=0, projection_mode="novelty", trace=False)
        seqs, _ = sample_constrained(corpus, None, config)
        digest = hashlib.sha256(b"".join(bytes(s.ids) for s in seqs)).hexdigest()
        assert digest == "77a71564214151349c48d7a00df040ebc11aade1182b0c16be3dda03af3abc7a"

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "9b845841dccd9f1fd499833bd7f466066c7e7d65f474021a58ddb6b96eb3dd21"),
            (1, "f69f5a6f301cc86d1b7ba6f7c0b8fdc675f1c60931f561e3bf8387d938f5cc9d"),
        ],
    )
    def test_seeded_novelty_trace_matches_recorded_digest(self, seed, digest):
        """Traced novelty mode on the c02 shape, 200 chains: the digest
        covers kl_moved, which depends on the bits of the forced rows.
        Recorded while each chain still built its own one-hot rows and
        the search's gap table was rebuilt on every call."""
        corpus = make_corpus(make_vocab(6), length=6, n_entries=10, seed=23)
        config = SampleConfig(steps=12, length=6, num_samples=200, rng_seed=seed, projection_mode="novelty")
        assert trace_digest(*sample_constrained(corpus, None, config)) == digest


class TestTraceShape:
    def test_record_count_is_steps_times_samples(self, toy_corpus):
        c = cfg(steps=12, num_samples=5)
        _, traces = sample_constrained(toy_corpus, simple_cs(), c)
        assert len(traces) == 12 * 5

    def test_trace_disabled_is_empty(self, toy_corpus):
        _, traces = sample_constrained(toy_corpus, simple_cs(), cfg(trace=False))
        assert traces == []

    def test_projection_schedule_flags(self, toy_corpus):
        c = cfg(steps=9, num_samples=2, project_every=3, project_start=2)
        _, traces = sample_constrained(toy_corpus, simple_cs(), c)
        projected_steps = {r.step for r in traces if r.projected}
        assert projected_steps == {7, 4, 1}

    def test_num_samples_zero(self, toy_corpus):
        seqs, traces = sample_constrained(toy_corpus, simple_cs(), cfg(num_samples=0))
        assert seqs == [] and traces == []

    @pytest.mark.parametrize("chains", [16, 64])
    def test_tracing_adds_at_most_two_violation_calls_per_step(self, monkeypatch, chains):
        # The trace scores each step's chains with one batched call before
        # projection and one after it, however many chains run and fail.
        corpus = make_corpus(make_vocab(12), length=10, n_entries=16, seed=11)
        cs = ConstraintSet([TokenCount(1, "eq", 2)])
        calls = [0]
        real = ConstraintSet.hard_violations_batch

        def spy(self, ids):
            calls[0] += 1
            return real(self, ids)

        monkeypatch.setattr(ConstraintSet, "hard_violations_batch", spy)
        counts, outputs = [], []
        for trace in (False, True):
            calls[0] = 0
            config = SampleConfig(steps=16, length=10, num_samples=chains, rng_seed=0, trace=trace)
            seqs, _ = sample_constrained(corpus, cs, config)
            counts.append(calls[0])
            outputs.append(seqs)
        assert outputs[0] == outputs[1]
        assert counts[1] - counts[0] <= 2 * 16

    def test_novelty_pre_violation_is_membership_at_each_chains_turn(self, monkeypatch):
        # At t = 1 each chain reads the database after the claims of the
        # chains before it, so a draw an earlier chain claimed reads 1.0.
        corpus = make_corpus(make_vocab(6), length=6, n_entries=10, seed=23)
        claims = []
        real = sampler_module.novelty_project_ids

        def spy(state, n, db):
            before = id_bytes(state)
            out = real(state, n, db)
            claims.append((before, id_bytes(out)))
            return out

        monkeypatch.setattr(sampler_module, "novelty_project_ids", spy)
        config = SampleConfig(steps=12, length=6, num_samples=64, rng_seed=0, projection_mode="novelty")
        _, traces = sample_constrained(corpus, None, config)
        final = [r for r in traces if r.step == 1]
        assert len(claims) == len(final) == 64
        held = {np.asarray(s.ids, dtype=np.int64).tobytes() for s, _ in corpus.entries}
        expected = []
        for state, claimed in claims:
            expected.append(1.0 if state in held else 0.0)
            held.add(claimed)
        assert [r.pre_violation for r in final] == expected
        assert {r.pre_violation for r in final} == {0.0, 1.0}
        assert all(r.post_violation == 0.0 for r in final)


class TestConstrainedFeasibility:
    @pytest.mark.parametrize("kernel", ["masked", "uniform"])
    def test_all_emitted_feasible(self, toy_corpus, kernel):
        cs = ConstraintSet([TokenCount(token=0, op="le", k=2), Forbidden(3)])
        seqs, _ = sample_constrained(toy_corpus, cs, cfg(kernel=kernel, num_samples=40))
        assert len(seqs) == 40
        assert all(cs.satisfied(s) for s in seqs)

    def test_no_mask_token_emitted(self, toy_corpus):
        cs = ConstraintSet([Position(0, 2)])
        seqs, _ = sample_constrained(toy_corpus, cs, cfg(num_samples=40))
        mask = toy_corpus.vocab.mask_id
        assert all(mask not in s.ids for s in seqs)

    @pytest.mark.parametrize("mode", ["alm"])
    def test_no_mask_emitted_when_the_last_draw_holds_mask(self, toy_corpus, mode):
        # A denoiser that keeps mass on MASK lets the t = 1 draw itself
        # hold MASK, on chains that already satisfy the constraints.
        mask = toy_corpus.vocab.mask_id
        exact = ExactBayesDenoiser(toy_corpus)

        def denoiser(state, a_t, kernel):
            rows = 0.8 * exact(state, a_t, kernel).rows
            rows[:, mask] += 0.2
            return SeqDist(rows)

        cs = ConstraintSet([Position(1, 3)])
        seqs, traces = sample_constrained(
            toy_corpus, cs, cfg(projection_mode=mode, num_samples=40, max_retries=50), denoiser=denoiser
        )
        assert any(r.step == 1 and r.pre_violation == 0.0 and r.wall_time > 0.0 for r in traces)
        assert all(mask not in s.ids for s in seqs)

    def test_positional_mode(self, toy_corpus):
        cs = ConstraintSet([Position(1, 3), Position(3, 0)])
        seqs, _ = sample_constrained(toy_corpus, cs, cfg(num_samples=25))
        assert all(s[1] == 3 and s[3] == 0 for s in seqs)


class TestNoveltyMode:
    def test_emitted_absent_and_distinct(self, toy_corpus):
        db = NoveltyDb.from_corpus(toy_corpus)
        snapshot = NoveltyDb.from_corpus(toy_corpus)
        seqs, _ = sample_constrained(
            toy_corpus, None, cfg(projection_mode="novelty", num_samples=30), novelty_db=db
        )
        assert len(set(seqs)) == 30
        assert all(s not in snapshot for s in seqs)
        # The shared database accumulated every claim.
        assert all(s in db for s in seqs)

    def test_search_cursors_dropped_after_run(self, toy_corpus):
        db = NoveltyDb.from_corpus(toy_corpus)
        sample_constrained(toy_corpus, None, cfg(projection_mode="novelty", num_samples=30), novelty_db=db)
        assert db.cursors == {}

    def test_reused_database_picks_match_scan(self, toy_corpus, monkeypatch):
        # A second run on the first run's database starts fresh cursors on
        # a database that has grown; every pick of both runs is the scan's.
        real = sampler_module.novelty_project_ids
        checked = []

        def checked_project(state, n, db):
            expected, _cost = enumerate_novelty(backend.ops.one_hot_rows(state, n), db)
            out = real(state, n, db)
            checked.append((Sequence(out), expected))
            return out

        monkeypatch.setattr(sampler_module, "novelty_project_ids", checked_project)
        db = NoveltyDb.from_corpus(toy_corpus)
        emitted = []
        for seed in (3, 4):
            config = cfg(projection_mode="novelty", num_samples=60, rng_seed=seed, trace=False)
            seqs, _ = sample_constrained(toy_corpus, None, config, novelty_db=db)
            emitted.extend(seqs)
            assert db.cursors == {}
        assert len(checked) == 120
        assert all(got == expected for got, expected in checked)
        assert len(set(emitted)) == 120

    def test_trace_records_kl_moved(self, toy_corpus):
        # Chains whose draw the database already holds are redirected, and
        # the t = 1 record carries the KL the redirection moved.
        _, traces = sample_constrained(toy_corpus, None, cfg(projection_mode="novelty", num_samples=30))
        final = [r for r in traces if r.step == 1]
        assert len(final) == 30
        assert any(r.kl_moved > 0.0 for r in final)
        assert all(r.kl_moved >= 0.0 for r in final)

    def test_db_defaults_to_corpus(self, toy_corpus):
        seqs, _ = sample_constrained(toy_corpus, None, cfg(projection_mode="novelty", num_samples=10))
        present = {s for s, _ in toy_corpus.entries}
        assert all(s not in present for s in seqs)

    def test_database_keeps_only_emitted_claims(self):
        # The c02 shape, run long enough that claiming MASK picks the
        # sampler then rejects would exhaust its retries.
        corpus = make_corpus(make_vocab(6), length=6, n_entries=10, seed=23)
        db = NoveltyDb.from_corpus(corpus)
        config = SampleConfig(
            steps=12, length=6, num_samples=2000, rng_seed=0, projection_mode="novelty", trace=False
        )
        seqs, _ = sample_constrained(corpus, None, config, novelty_db=db)
        assert len(set(seqs)) == 2000
        assert len(db) == 10 + 2000

    def test_traced_and_untraced_runs_claim_alike(self):
        # Tracing only reads each chain's membership, wall time and KL
        # around its claim: on the c02 shape both modes emit the same
        # sequences and leave equal databases.
        corpus = make_corpus(make_vocab(6), length=6, n_entries=10, seed=23)
        runs = []
        for trace in (False, True):
            db = NoveltyDb.from_corpus(corpus)
            config = SampleConfig(
                steps=12, length=6, num_samples=300, rng_seed=2, projection_mode="novelty", trace=trace
            )
            seqs, traces = sample_constrained(corpus, None, config, novelty_db=db)
            assert len(traces) == (12 * 300 if trace else 0)
            runs.append((seqs, db._seen, db.cursors))
        (seqs_a, seen_a, cursors_a), (seqs_b, seen_b, cursors_b) = runs
        assert seqs_a == seqs_b
        assert seen_a == seen_b and len(seen_a) == 10 + 300
        assert cursors_a == cursors_b == {}

    def test_database_without_mask_id_cannot_emit_mask(self):
        # The database holds every MASK-free sequence and bans no MASK, so
        # each pick would hold MASK: the masked kernel refuses such a
        # database before any chain runs, naming both ids.
        corpus = make_corpus(make_vocab(2), length=2, n_entries=4)
        db = NoveltyDb(s for s, _ in corpus.entries)
        config = SampleConfig(
            steps=4, length=2, rng_seed=0, projection_mode="novelty", infeasible_policy="abort", trace=False
        )
        with pytest.raises(ValueError, match=r"mask_id None .* MASK id 2"):
            sample_constrained(corpus, None, config, novelty_db=db)
        assert len(db) == 4 and db.cursors == {}

    def test_database_in_alm_mode_keeps_mask_scan(self, toy_corpus, monkeypatch):
        # A projection whose decode is all MASK must be refused at t = 1,
        # whatever database is passed alongside alm mode.
        def mask_ids(states, n, cs):
            return np.full_like(states, n - 1), np.ones(len(states), dtype=bool)

        monkeypatch.setattr(sampler_module, "project_ids", mask_ids)
        cs = ConstraintSet([TokenCount(token=0, op="ge", k=6)])
        config = cfg(infeasible_policy="abort", trace=False)
        with pytest.raises(InfeasibleSampleError, match="step 1"):
            sample_constrained(toy_corpus, cs, config, novelty_db=NoveltyDb.from_corpus(toy_corpus))


class TestInfeasiblePolicies:
    def impossible(self):
        # Length-5 sequences cannot contain six of any token.
        return ConstraintSet([TokenCount(token=0, op="ge", k=6)])

    def test_retry_exhausts_and_raises(self, toy_corpus):
        with pytest.raises(InfeasibleSampleError, match="retries"):
            sample_constrained(toy_corpus, self.impossible(), cfg(max_retries=2, num_samples=1))

    def test_abort_raises_immediately(self, toy_corpus):
        with pytest.raises(InfeasibleSampleError):
            sample_constrained(
                toy_corpus, self.impossible(), cfg(infeasible_policy="abort", num_samples=1)
            )

    def test_continue_emits_best_effort(self, toy_corpus):
        cs = self.impossible()
        seqs, traces = sample_constrained(
            toy_corpus, cs, cfg(infeasible_policy="continue", num_samples=3)
        )
        assert len(seqs) == 3
        assert all(not cs.satisfied(s) for s in seqs)
        final = [r for r in traces if r.step == 1]
        assert all(r.post_violation > 0 for r in final)

    @pytest.mark.parametrize("kernel", ["masked", "uniform"])
    @pytest.mark.parametrize("policy", ["retry", "abort", "continue"])
    def test_projector_receives_one_hot_rows_of_ids(self, monkeypatch, kernel, policy):
        # A chain's state is its id row: whatever the previous projection
        # returned, even an infeasible soft iterate kept under "continue",
        # the next projection starts from the one-hot rows of its ids.
        corpus = make_corpus(make_vocab(12), length=10, n_entries=16, seed=11)
        if policy == "continue":
            cs = ConstraintSet([TokenCount(token=0, op="ge", k=11)])
        else:
            cs = ConstraintSet([TokenCount(token=1, op="le", k=1), Forbidden(3)])
        n = corpus.vocab.size
        inputs, fallbacks = [], []
        failing, _ = spy_failing_states(monkeypatch)

        def spy_ids(states, *args, **kwargs):
            inputs.extend(np.array(states))
            return real_ids(states, *args, **kwargs)

        def spy_alm(x_in, *args, **kwargs):
            fallbacks.append(np.array(x_in.rows))
            return real_alm(x_in, *args, **kwargs)

        real_ids, real_alm = sampler_module.project_ids, sampler_module.alm_project
        monkeypatch.setattr(sampler_module, "project_ids", spy_ids)
        monkeypatch.setattr(sampler_module, "alm_project", spy_alm)
        config = SampleConfig(
            steps=16, length=10, kernel=kernel, num_samples=4, rng_seed=0, infeasible_policy=policy, trace=False
        )
        sample_constrained(corpus, cs, config)
        if policy == "continue":
            # No chain-step passes the screen and none redraws, so each
            # distinct (step, id row) pair is projected once, and, being
            # infeasible, goes on to the gradient loop.
            assert sum(len(rows) for rows in failing.values()) == 16 * 4
            assert len(inputs) == len(fallbacks) == sum(len(set(rows)) for rows in failing.values())
        else:
            assert 0 < len(inputs) < 16 * 4  # the screen passes feasible chains
        for ids in inputs:
            assert ids.dtype == np.int64 and ids.shape == (10,)
            assert np.all((ids >= 0) & (ids < n))
        states = {ids.tobytes() for ids in inputs}
        for rows in fallbacks:
            ids = rows.argmax(axis=1)
            assert ids.tobytes() in states
            assert np.array_equal(rows, np.eye(n)[ids])


class TestProjectionMemo:
    @pytest.mark.parametrize("kernel", ["masked", "uniform"])
    def test_each_distinct_failing_state_projected_once(self, monkeypatch, kernel):
        # On the c01 shape many chains share a state, most of all at t = T
        # under the masked kernel; a projection is a function of its
        # state, so each step makes one project_ids call holding each of
        # its distinct failing states once.
        corpus = make_corpus(make_vocab(12), length=10, n_entries=16, seed=11)
        cs = ConstraintSet([LinearScore(weights=np.random.default_rng(0).uniform(0.0, 1.0, size=13), tau=0.25)])
        failing, current = spy_failing_states(monkeypatch)
        projected, calls = [], collections.Counter()
        real = sampler_module.project_ids

        def spy(states, *args, **kwargs):
            calls[current[0]] += 1
            projected.extend((current[0], row.tobytes()) for row in states)
            return real(states, *args, **kwargs)

        monkeypatch.setattr(sampler_module, "project_ids", spy)
        config = SampleConfig(steps=16, length=10, kernel=kernel, num_samples=16, rng_seed=0, trace=False)
        sample_constrained(corpus, cs, config)
        assert sum(len(rows) - len(set(rows)) for rows in failing.values()) > 0
        assert sorted(projected) == sorted({(t, row) for t, rows in failing.items() for row in rows})
        assert set(calls.values()) == {1}

    def test_alm_fallbacks_use_the_runs_search_terms(self, monkeypatch):
        # No c01 state holds eleven zeros in ten positions, so project_ids
        # leaves every failing state infeasible and each goes on to
        # alm_project, which takes the run's SearchTerms and builds none.
        corpus = make_corpus(make_vocab(12), length=10, n_entries=16, seed=11)
        cs = ConstraintSet([TokenCount(token=0, op="ge", k=11)])
        built, calls = [0], [0]
        real_init, real_project = SearchTerms.__init__, sampler_module.alm_project

        def init(self, *args):
            built[0] += 1
            real_init(self, *args)

        def project(*args, **kwargs):
            calls[0] += 1
            return real_project(*args, **kwargs)

        monkeypatch.setattr(SearchTerms, "__init__", init)
        monkeypatch.setattr(sampler_module, "alm_project", project)
        config = SampleConfig(steps=16, length=10, num_samples=4, rng_seed=0, infeasible_policy="continue")
        sample_constrained(corpus, cs, config)
        assert calls[0] > 0
        assert built[0] == 1

    def test_batched_projection_then_chain_order_retries(self, monkeypatch):
        # The uniform-kernel c01 run with retries: each projected step
        # makes one call for its distinct failing states, in order of
        # first appearance, and a chain that redraws has its new state
        # projected on its own, right after the redraw, unless the step
        # has projected that state already.  The samples and records stay
        # those of the recorded digest.
        cs = ConstraintSet([Position(6, 7, tau=0.5), TokenCount(token=9, op="ge", k=3), Position(1, 6)])
        events = []
        real_passes, real_redraw = sampler_module._Engine._passes, sampler_module._Engine._redraw
        real_ids = sampler_module.project_ids

        def passes(self, ids, t):
            passed = real_passes(self, ids, t)
            events.append(("screen", [row.tobytes() for row in ids[~passed]]))
            return passed

        def redraw(self, ci, step):
            new = real_redraw(self, ci, step)
            events.append(("redraw", new.tobytes()))
            return new

        def project(states, *args, **kwargs):
            events.append(("project", [row.tobytes() for row in states]))
            return real_ids(states, *args, **kwargs)

        monkeypatch.setattr(sampler_module._Engine, "_passes", passes)
        monkeypatch.setattr(sampler_module._Engine, "_redraw", redraw)
        monkeypatch.setattr(sampler_module, "project_ids", project)
        digest = c01_trace_digest(cs, kernel="uniform", rng_seed=22)
        assert digest == "a75fb256bd42d608ed3463afa50c4d1a193e51e15cd4a7af62e94849e53018e8"

        expected, seen, redraws, reused = [], set(), 0, 0
        for kind, rows in events:
            if kind == "screen":
                seen = set(rows)
                if rows:
                    expected.append(("project", list(dict.fromkeys(rows))))
            elif kind == "redraw":
                redraws += 1
                reused += rows in seen
                if rows not in seen:
                    seen.add(rows)
                    expected.append(("project", [rows]))
        assert [e for e in events if e[0] == "project"] == expected
        # Each projection comes right after the screen or redraw it serves.
        for i, event in enumerate(events):
            if event[0] == "project":
                assert events[i - 1][0] in ("screen", "redraw")
        assert redraws > 0 and reused > 0
        assert any(len(rows) > 1 for kind, rows in expected)

    def test_novelty_projects_every_failing_chain(self, monkeypatch):
        # Each novelty_project_ids call claims a sequence, so every chain
        # fails the novelty step, and chains holding the same state still
        # get one call each, in chain order.
        corpus = make_corpus(make_vocab(6), length=6, n_entries=10, seed=23)
        stepped = []  # the id rows handed to each novelty step
        real_claim = sampler_module._Engine._claim_novel

        def claim(self, ids, trace):
            stepped.append([row.tobytes() for row in ids])
            return real_claim(self, ids, trace)

        monkeypatch.setattr(sampler_module._Engine, "_claim_novel", claim)
        projected = []
        real = sampler_module.novelty_project_ids

        def spy(state, *args, **kwargs):
            projected.append(id_bytes(state))
            return real(state, *args, **kwargs)

        monkeypatch.setattr(sampler_module, "novelty_project_ids", spy)
        config = SampleConfig(steps=12, length=6, num_samples=64, rng_seed=0, projection_mode="novelty", trace=False)
        sample_constrained(corpus, None, config)
        assert len(stepped) == 1
        assert len(set(stepped[0])) < len(stepped[0]) == 64
        assert projected == stepped[0]

    def test_novelty_step_builds_each_states_rows_once(self, monkeypatch):
        # The database holds one search cursor per distinct state until
        # the step ends, however many chains share the state.
        corpus = make_corpus(make_vocab(6), length=6, n_entries=10, seed=23)
        calls = []
        real = sampler_module.novelty_project_ids

        def spy(state, n, db):
            before = id_bytes(state)
            out = real(state, n, db)
            calls.append((before, len(db.cursors)))
            return out

        monkeypatch.setattr(sampler_module, "novelty_project_ids", spy)
        db = NoveltyDb.from_corpus(corpus)
        config = SampleConfig(steps=12, length=6, num_samples=64, rng_seed=0, projection_mode="novelty", trace=False)
        sample_constrained(corpus, None, config, novelty_db=db)
        assert len(calls) == 64
        assert len({state for state, _ in calls}) < 64
        # Each call adds a cursor exactly when its state is new.
        seen = set()
        for state, cursors in calls:
            seen.add(state)
            assert cursors == len(seen)
        assert db.cursors == {}


class TestSearchOnlyWhereNeeded:
    @pytest.mark.parametrize(
        "constraints, descends",
        [
            ([TokenCount(token=0, op="le", k=2)], False),
            ([TokenCount(token=1, op="eq", k=2)], False),
            ([Position(0, 2), Position(5, 0)], False),
            ([Forbidden(3)], False),
            ([LinearScore(weights=np.random.default_rng(0).uniform(0.0, 1.0, size=13), tau=0.25)], True),
        ],
        ids=["count_le", "count_eq", "position", "forbidden", "linear"],
    )
    def test_token_sets_never_search(self, monkeypatch, constraints, descends):
        # The token workload's sets on the c01 shape take project_ids'
        # closed form for every failing state; a LinearScore set with float
        # weights takes the single-move descent for every one, which hands
        # none of them to the search.
        corpus = make_corpus(make_vocab(12), length=10, n_entries=16, seed=11)
        calls, projected, descended = [0], [0], [0]
        real_search, real_ids = projection_module._decode_search, sampler_module.project_ids
        real_descent = projection_module._linear_descent

        def search(*args, **kwargs):
            calls[0] += 1
            return real_search(*args, **kwargs)

        def ids(states, *args):
            projected[0] += len(states)
            return real_ids(states, *args)

        def descent(states, terms):
            descended[0] += len(states)
            return real_descent(states, terms)

        monkeypatch.setattr(projection_module, "_decode_search", search)
        monkeypatch.setattr(projection_module, "_linear_descent", descent)
        monkeypatch.setattr(sampler_module, "project_ids", ids)
        config = SampleConfig(steps=16, length=10, num_samples=16, rng_seed=0, trace=False)
        seqs, _ = sample_constrained(corpus, ConstraintSet(constraints), config)
        assert projected[0] > 0
        assert calls[0] == 0
        assert descended[0] == (projected[0] if descends else 0)
        assert all(ConstraintSet(constraints).satisfied(s) for s in seqs)


class TestSearchTermsPerRun:
    def test_built_once_per_run(self, monkeypatch):
        # Every project_ids call of a run gets the one SearchTerms the run
        # built from its constraint set.
        corpus = make_corpus(make_vocab(12), length=10, n_entries=16, seed=11)
        cs = ConstraintSet([TokenCount(token=1, op="le", k=1), Position(2, 4), Forbidden(3)])
        built, passed = [], []
        real_terms, real_ids = sampler_module.SearchTerms, sampler_module.project_ids

        def terms(*args):
            built.append(real_terms(*args))
            return built[-1]

        def spy(states, n, search):
            passed.append(search)
            return real_ids(states, n, search)

        monkeypatch.setattr(sampler_module, "SearchTerms", terms)
        monkeypatch.setattr(sampler_module, "project_ids", spy)
        config = SampleConfig(steps=16, length=10, num_samples=16, rng_seed=0, trace=False)
        for _ in range(2):
            sample_constrained(corpus, cs, config)
        assert len(built) == 2 and all(b.cs is cs for b in built)
        assert len(passed) > 4 and {id(p) for p in passed} == {id(b) for b in built}

    def test_second_run_honours_changed_tau(self):
        # Constraints are mutable: a tau changed between two runs that
        # share one ConstraintSet holds the second run, whose samples are
        # those of a run on a set built with the new value.
        corpus = make_corpus(make_vocab(12), length=10, n_entries=16, seed=11)
        count = TokenCount(token=0, op="le", k=0, tau=3.0)
        cs = ConstraintSet((count, Position(2, 4)))
        config = SampleConfig(steps=16, length=10, num_samples=32, rng_seed=0, trace=False)
        first, _ = sample_constrained(corpus, cs, config)
        assert max(s.ids.count(0) for s in first) > 0
        count.tau = 0.0
        second, _ = sample_constrained(corpus, cs, config)
        assert all(s.ids.count(0) == 0 and s.ids[2] == 4 for s in second)
        fresh = ConstraintSet((TokenCount(token=0, op="le", k=0), Position(2, 4)))
        assert second == sample_constrained(corpus, fresh, config)[0]


def full_row_draw(rows, u):
    """The CDF inversion of every row of rows at u, written out."""
    return np.minimum((np.cumsum(rows, axis=1) < u[:, None]).sum(axis=1), rows.shape[1] - 1)


class TestPerStateDraw:
    """The reverse step built once per block, against the path it
    replaced: the denoiser's rows gathered to every chain, then
    reverse_mixture_rows and the draw on each chain's own rows, with
    settled positions put back under the masked kernel."""

    @pytest.mark.parametrize("kernel", ["masked", "uniform"])
    @pytest.mark.parametrize("b", [20, 300], ids=["no-dedup", "dedup"])
    @pytest.mark.parametrize("denoiser", ["exact", "generic"])
    def test_bit_identical_to_full_rows(self, kernel, b, denoiser):
        vocab = make_vocab(3, with_mask=(kernel == "masked"))
        corpus = make_corpus(vocab, length=3, n_entries=6, seed=5)
        n, length, mask = vocab.size, 3, vocab.mask_id
        exact = ExactBayesDenoiser(corpus)
        den = ExactBayesDenoiser(corpus) if denoiser == "exact" else (lambda x, a, k: exact(x, a, k))
        config = SampleConfig(steps=6, length=length, kernel=kernel, num_samples=b, rng_seed=9, projection_mode="none")
        engine = sampler_module._Engine(corpus, None, config, den, None)
        twin = np.random.default_rng(9)
        rng = np.random.default_rng(2)
        ids = rng.integers(0, n, (8, length))[rng.integers(0, 8, b)]  # MASK included
        for t in (6, 3, 1):
            a_t, a_s = engine.schedule.alpha(t), engine.schedule.alpha(t - 1)
            if denoiser == "generic":
                marg = np.stack([exact(SeqDist(np.eye(n)[row]), a_t, engine.kernel).rows for row in ids])
            else:
                batch = exact.posterior_loo_batch if kernel == "uniform" else exact.posterior_batch
                _, block_marg, index = batch(ids, a_t, engine.kernel)
                marg = block_marg[index]
            step = engine._reverse_mixture(ids, t)
            prev, mix, index = step
            assert prev is ids
            # One block per chain for a generic denoiser; per distinct
            # state under the uniform kernel from 64 chains on; per
            # distinct compatible set under the masked kernel.
            if denoiser == "generic":
                blocks = b
            elif kernel == "uniform":
                blocks = b if b < 64 else len(np.unique(ids, axis=0))
            else:
                blocks = len(set(compatible_sets(corpus, ids)))
            assert len(mix) == blocks * length
            assert (index is None) == (blocks == b)
            got = engine._draw(ids, mix, index, engine.rng.random((b, length)))

            u = twin.random((b, length))
            want = np.empty_like(ids)
            chain_rows = []
            for i in range(b):
                rows = reverse_mixture_rows(engine.kernel, marg[i], a_t, a_s, ids[i])
                block = i if index is None else index[i]
                assert np.array_equal(mix.reshape(blocks, length, n)[block], rows)
                drawn = full_row_draw(rows, u[i])
                want[i] = np.where(ids[i] != mask, ids[i], drawn) if kernel == "masked" else drawn
                chain_rows.append(rows)
            assert np.array_equal(got, want)

            for ci in (0, b // 2, b - 1):  # a retry redraws from its block's rows
                drawn = full_row_draw(chain_rows[ci], twin.random(length))
                expect = np.where(ids[ci] != mask, ids[ci], drawn) if kernel == "masked" else drawn
                assert np.array_equal(engine._redraw(ci, step), expect)
            ids = got
        assert engine.rng.random() == twin.random()


def per_state_step(corpus, kernel, ids, a_t, a_s):
    """The masked reverse step built once per distinct state, as it was
    before blocks were sets: each state's entry weights from counting its
    matching positions through the entries' one-hot rows, the prior's
    rows for a state no entry is compatible with, and every chain's
    mixture rows.  Returns the (B, L, N) mixture rows and how many chains
    fell back to the prior."""
    n, length = kernel.vocab_size, corpus.length
    entries, prior = corpus.sequences(), corpus.weights()
    states, inverse = np.unique(ids, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    onehots = np.eye(n)[entries]  # (M, L, N)
    matches = np.eye(n)[states].reshape(len(states), -1) @ onehots.reshape(len(entries), -1).T
    weights = prior * (matches == (states != kernel.mask_id).sum(axis=1, keepdims=True))
    totals = weights.sum(axis=1, keepdims=True)
    empty = totals[:, 0] <= 0.0
    totals[empty] = 1.0
    rows = np.einsum("um,mln->uln", weights / totals, onehots)
    fallback = corpus.prior_marginals()
    rows[empty] = fallback / fallback.sum(axis=1, keepdims=True)
    mix = reverse_mixture_rows(kernel, rows.reshape(-1, n), a_t, a_s).reshape(len(states), length, n)
    return mix[inverse], int(np.count_nonzero(empty[inverse]))


def mask_first_corpus(n_data, length, n_entries, seed):
    """A corpus over a vocabulary whose MASK is id 0, before the data tokens."""
    vocab = Vocabulary(("[MASK]",) + tuple("abcdefghijklmnop"[:n_data]), mask_id=0)
    shifted = make_corpus(make_vocab(n_data, with_mask=False), length, n_entries, seed=seed)
    return Corpus(vocab, [(Sequence(tuple(v + 1 for v in seq.ids)), w) for seq, w in shifted.entries])


class TestPerSetStep:
    """Under the masked kernel the step is built once per distinct set of
    compatible entries; it must give every chain the mixture rows, draws,
    redraws and fallbacks of the step built once per distinct state."""

    CASES = {
        "c01-16": (lambda: make_corpus(make_vocab(12), length=10, n_entries=16, seed=11), 16, 0.5),
        "c01-300": (lambda: make_corpus(make_vocab(12), length=10, n_entries=16, seed=11), 300, 0.5),
        "no-match-16": (lambda: make_corpus(make_vocab(6), length=6, n_entries=10, seed=23), 16, 0.0),
        "no-match-300": (lambda: make_corpus(make_vocab(6), length=6, n_entries=10, seed=23), 300, 0.05),
        "m100-40": (lambda: make_corpus(make_vocab(3), length=6, n_entries=100, seed=3), 40, 0.6),
        "m100-500": (lambda: make_corpus(make_vocab(3), length=6, n_entries=100, seed=3), 500, 0.6),
        "mask-first-20": (lambda: mask_first_corpus(4, 4, 12, seed=8), 20, 0.6),
        "mask-first-200": (lambda: mask_first_corpus(4, 4, 12, seed=8), 200, 0.6),
    }

    @staticmethod
    def start_states(rng, corpus, b, matching):
        """b states: a share `matching` of them are entries with about half
        their positions masked, and the rest random data tokens with
        about a third masked, which mostly match no entry."""
        vocab, length = corpus.vocab, corpus.length
        data = np.array([v for v in range(vocab.size) if v != vocab.mask_id])
        entries = corpus.sequences()
        noisy = np.where(rng.random((b, length)) < 0.5, vocab.mask_id, entries[rng.integers(0, len(entries), b)])
        other = np.where(rng.random((b, length)) < 1 / 3, vocab.mask_id, data[rng.integers(0, len(data), (b, length))])
        return np.where((rng.random(b) < matching)[:, None], noisy, other)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_per_state_step(self, case):
        build, b, matching = self.CASES[case]
        corpus = build()
        length, n, mask = corpus.length, corpus.vocab.size, corpus.vocab.mask_id
        steps = 8
        config = SampleConfig(steps=steps, length=length, num_samples=b, rng_seed=4, projection_mode="none")
        engine = sampler_module._Engine(corpus, None, config, ExactBayesDenoiser(corpus), None)
        twin = np.random.default_rng(4)
        ids = self.start_states(np.random.default_rng(1), corpus, b, matching)
        shared = fallbacks = 0
        for t in range(steps, 0, -1):
            a_t, a_s = engine.schedule.alpha(t), engine.schedule.alpha(t - 1)
            want_mix, fell_back = per_state_step(corpus, engine.kernel, ids, a_t, a_s)
            before = engine.denoiser.fallback_count
            step = engine._reverse_mixture(ids, t)
            _, mix, index = step
            assert engine.denoiser.fallback_count - before == fell_back
            blocks = mix.reshape(-1, length, n)
            assert np.array_equal(blocks if index is None else blocks[index], want_mix)
            shared += len(blocks) < len(np.unique(ids, axis=0))
            fallbacks += fell_back

            got = engine._draw(ids, mix, index, engine.rng.random((b, length)))
            u = twin.random((b, length))
            drawn = np.stack([full_row_draw(want_mix[i], u[i]) for i in range(b)])
            assert np.array_equal(got, np.where(ids == mask, drawn, ids))
            for ci in (0, b // 3, b - 1):
                drawn = full_row_draw(want_mix[ci], twin.random(length))
                assert np.array_equal(engine._redraw(ci, step), np.where(ids[ci] == mask, drawn, ids[ci]))
            ids = got
        assert engine.rng.random() == twin.random()
        # Chains in different states shared a block, and some fell back.
        assert shared > 0 and fallbacks > 0


class TestDistributionRecovery:
    @pytest.mark.parametrize("kernel", ["masked", "uniform"])
    def test_unconstrained_tv_small(self, kernel):
        vocab = make_vocab(3, with_mask=(kernel == "masked"))
        corpus = make_corpus(vocab, length=3, n_entries=5, seed=8)
        c = SampleConfig(steps=24, length=3, kernel=kernel, num_samples=4000,
                         rng_seed=1, projection_mode="none", trace=False)
        seqs, _ = sample_constrained(corpus, None, c)
        counts = collections.Counter(seqs)
        emp = {s: n / len(seqs) for s, n in counts.items()}
        support = set(emp) | {s for s, _ in corpus.entries}
        tv = 0.5 * sum(abs(emp.get(s, 0.0) - corpus.weight_of(s)) for s in support)
        assert tv < 0.08


class TestViolationContraction:
    def test_perfect_on_monotone_run(self, toy_corpus):
        _, traces = sample_constrained(
            toy_corpus, simple_cs(), cfg(num_samples=30, project_every=1)
        )
        assert 0.9 <= violation_contraction(traces) <= 1.0

    def test_degenerate_inputs(self):
        assert violation_contraction([]) == 1.0
