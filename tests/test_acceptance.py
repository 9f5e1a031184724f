"""Acceptance gate: one test per release criterion.

Each test states its tolerance and wall-clock budget inline and prints
as a single pass/fail line under `pytest -v`.  Everything is seeded, so
a pass is reproducible bit for bit on one core.
"""

from __future__ import annotations

import itertools
import math
import time
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import make_corpus, make_vocab
from projdiff import backend
from projdiff.constraints import (
    ConstraintSet,
    Forbidden,
    LinearScore,
    Position,
    TokenCount,
)
from projdiff.core import Corpus, SeqDist, Sequence, decode
from projdiff.denoiser import exact_posterior
from projdiff.metrics import entropy, violation_rate
from projdiff.noise import NoiseKernel, forward_marginal, forward_sample
from projdiff.oracle import enumerate_novelty, enumerate_posterior, grid_kl_project
from projdiff.projection import (
    AlmConfig,
    NoveltyDb,
    alm_gradient,
    alm_objective,
    alm_project,
    novelty_project,
    position_project,
)
from projdiff import sampler as sampler_mod
from projdiff.sampler import SampleConfig, sample_constrained, sample_unconstrained, violation_contraction

pytestmark = pytest.mark.filterwarnings(
    # The scipy reference solver used to certify projection optimality
    # clips its own iterates and says so; that chatter is not under test.
    "ignore:Values in x were outside bounds:RuntimeWarning"
)


def _distribution(corpus: Corpus) -> dict[Sequence, float]:
    total = sum(w for _, w in corpus.entries)
    return {seq: w / total for seq, w in corpus.entries}


def _total_variation(seqs: list[Sequence], target: dict[Sequence, float]) -> float:
    counts = Counter(seqs)
    n = len(seqs)
    support = set(counts) | set(target)
    return 0.5 * sum(abs(counts.get(s, 0) / n - target.get(s, 0.0)) for s in support)


def _scipy_pool_kl(row: np.ndarray, v: int) -> float:
    """Reference minimum of KL(row || q) over rows whose argmax is v."""
    n = len(row)
    start = np.full(n, 1.0 / n)
    cons = [{"type": "eq", "fun": lambda q: q.sum() - 1.0}]
    for j in range(n):
        if j != v:
            cons.append({"type": "ineq", "fun": lambda q, j=j: q[v] - q[j]})
    keep = row > 0

    def objective(q):
        qc = np.clip(q, 1e-12, None)
        return float(np.sum(row[keep] * np.log(row[keep] / qc[keep])))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = minimize(
            objective,
            start,
            method="SLSQP",
            bounds=[(1e-9, 1.0)] * n,
            constraints=cons,
        )
    return float(res.fun)


def _random_single_constraint(rng, n: int):
    kind = rng.choice(["le", "ge", "eq", "forbid", "pos", "lin"])
    tok = int(rng.integers(0, n))
    if kind == "forbid":
        return Forbidden(token=tok)
    if kind == "pos":
        return Position(position=0, token=tok)
    if kind == "lin":
        w = rng.uniform(0.0, 1.0, size=n)
        lo, hi = float(w.min()), float(w.max())
        tau = float(rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)))
        return LinearScore(weights=w, tau=tau)
    k = int(rng.integers(0, 3))
    if kind == "ge" and k == 0:
        k = 1
    return TokenCount(token=tok, op=kind, k=k)


def test_c01_zero_violation_per_constraint_family():
    """1000 constrained samples per family decode with violation_rate 0.0."""
    vocab = make_vocab(12)  # 12 data tokens + mask = 13 <= 16
    corpus = make_corpus(vocab, length=10, n_entries=16, seed=11)
    rng = np.random.default_rng(0)
    weights = rng.uniform(0.0, 1.0, size=vocab.size)
    families = {
        "linear_score": [
            ConstraintSet([LinearScore(weights=weights, tau=tau)])
            for tau in (0.25, 0.5, 0.75)
        ],
        "token_count": [
            ConstraintSet([TokenCount(token=0, op="le", k=2)]),
            ConstraintSet([TokenCount(token=1, op="eq", k=2)]),
        ],
        "position": [
            ConstraintSet([Position(position=0, token=2), Position(position=5, token=0)])
        ],
        "forbidden": [ConstraintSet([Forbidden(token=3)])],
    }
    for family, variants in families.items():
        start = time.perf_counter()
        for cs in variants:
            cfg = SampleConfig(steps=16, length=10, num_samples=1000, rng_seed=4, trace=False)
            seqs, _ = sample_constrained(corpus, cs, cfg)
            assert len(seqs) == 1000
            rate = violation_rate(seqs, cs)
            assert rate == 0.0, f"{family} ({cs.names}): violation_rate {rate}"
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"{family} took {elapsed:.1f}s (budget 300s)"


def test_c02_novelty_projection(monkeypatch):
    """Novelty samples avoid the database; small instances match the scan."""
    start = time.perf_counter()

    # 500 samples in a space large enough that novel picks always exist.
    vocab = make_vocab(6)
    corpus = make_corpus(vocab, length=6, n_entries=10, seed=23)
    cfg = SampleConfig(
        steps=12, length=6, num_samples=500, rng_seed=5, projection_mode="novelty", trace=False
    )
    seqs, _ = sample_constrained(corpus, None, cfg)
    db0 = NoveltyDb.from_corpus(corpus)
    assert len(seqs) == 500
    assert all(s not in db0 for s in seqs), "a sample collided with the database"
    assert len(set(seqs)) == 500, "emitted duplicates"

    # Enumerable space (5^5 = 3125 <= 4096): every selection the sampler
    # makes must equal the exhaustive minimum-cost novel sequence.
    small_vocab = make_vocab(4)
    small_corpus = make_corpus(small_vocab, length=5, n_entries=10, seed=29)
    real_ids = sampler_mod.novelty_project_ids
    checked = []

    def checked_project(state, n, db):
        expected, _cost = enumerate_novelty(backend.ops.one_hot_rows(state, n), db)
        got = Sequence(real_ids(state, n, db))
        checked.append((got, expected))
        assert got == expected, f"picked {got.ids}, scan says {expected.ids}"
        return got.ids

    monkeypatch.setattr(sampler_mod, "novelty_project_ids", checked_project)
    small_cfg = SampleConfig(
        steps=10, length=5, num_samples=80, rng_seed=17, projection_mode="novelty", trace=False
    )
    small_seqs, _ = sample_constrained(small_corpus, None, small_cfg)
    monkeypatch.setattr(sampler_mod, "novelty_project_ids", real_ids)
    assert len(small_seqs) == 80
    assert len(checked) >= 80

    # Direct instances on random rows against the same scan.
    rng = np.random.default_rng(31)
    db = NoveltyDb.from_corpus(small_corpus)
    for _ in range(40):
        rows = rng.dirichlet(np.ones(small_vocab.size), size=5)
        expected, _cost = enumerate_novelty(SeqDist(rows), db)
        got = decode(novelty_project(SeqDist(rows), db).rows)
        assert got == expected

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"novelty criterion took {elapsed:.1f}s (budget 120s)"


def test_c03_denoiser_matches_enumeration():
    """Fast posterior equals brute-force Bayes to 1e-12 on 200 cases."""
    start = time.perf_counter()
    rng = np.random.default_rng(41)
    worst = 0.0
    for case in range(200):
        n_data = int(rng.integers(2, 7))
        length = int(rng.integers(2, 6))
        vocab = make_vocab(n_data)
        max_entries = min(8, n_data**length)
        n_entries = int(rng.integers(2, max_entries + 1))
        corpus = make_corpus(vocab, length, n_entries, seed=int(rng.integers(1 << 30)))
        if case % 2 == 0:
            kernel = NoiseKernel.masked(vocab)
        else:
            kernel = NoiseKernel.uniform(vocab.size)
        a_t = float(rng.uniform(0.05, 0.95))
        entry = corpus.entries[int(rng.integers(len(corpus.entries)))][0]
        if kernel.kind == "masked":
            keep = rng.random(length) < 0.5
            ids = tuple(
                entry[i] if keep[i] else kernel.mask_id for i in range(length)
            )
        else:
            resample = rng.random(length) < 0.5
            noise = rng.integers(0, vocab.size, size=length)
            ids = tuple(
                int(noise[i]) if resample[i] else entry[i] for i in range(length)
            )
        state = Sequence(ids)
        fast = exact_posterior(corpus, kernel, state, a_t).rows
        slow = enumerate_posterior(corpus, kernel, state, a_t).rows
        worst = max(worst, float(np.abs(fast - slow).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12, f"worst |fast - enumeration| = {worst:.3e}"
    assert elapsed < 30.0, f"denoiser criterion took {elapsed:.1f}s (budget 30s)"


def test_c04_unconstrained_matches_corpus_distribution():
    """Projection off, exact denoiser: 1e5 samples hit the corpus law within TV 0.05."""
    start = time.perf_counter()

    masked_vocab = make_vocab(3)  # 27 emitted outcomes
    masked_corpus = make_corpus(masked_vocab, length=3, n_entries=6, seed=5)
    cfg = SampleConfig(
        steps=32, length=3, num_samples=100000, rng_seed=2, projection_mode="none", trace=False
    )
    tv_masked = _total_variation(sample_unconstrained(masked_corpus, cfg), _distribution(masked_corpus))

    uniform_vocab = make_vocab(4, with_mask=False)  # 64 outcomes
    uniform_corpus = make_corpus(uniform_vocab, length=3, n_entries=6, seed=7)
    cfg_u = replace(cfg, kernel="uniform", rng_seed=3)
    tv_uniform = _total_variation(sample_unconstrained(uniform_corpus, cfg_u), _distribution(uniform_corpus))

    elapsed = time.perf_counter() - start
    assert tv_masked <= 0.05, f"masked kernel TV = {tv_masked:.4f}"
    assert tv_uniform <= 0.05, f"uniform kernel TV = {tv_uniform:.4f}"
    assert elapsed < 180.0, f"unconstrained criterion took {elapsed:.1f}s (budget 180s)"


def test_c05_projection_near_optimality():
    """alm_project lands within 1e-2 nats of the brute-force optimum."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_excess = -math.inf
    done = 0
    while done < 50:
        length = int(rng.integers(1, 4))
        n = int(rng.integers(2, 5))
        rows = rng.dirichlet(np.ones(n), size=length)
        cs = ConstraintSet([_random_single_constraint(rng, n)])
        # Oracle: rows are independent once an argmax pattern is fixed, so
        # the optimum is the cheapest feasible pattern under per-row
        # reference projections computed by scipy.
        cost = np.array(
            [[_scipy_pool_kl(rows[i], v) for v in range(n)] for i in range(length)]
        )
        opt = None
        for ids in itertools.product(range(n), repeat=length):
            if not cs.satisfied(Sequence(ids)):
                continue
            c = float(sum(cost[i, ids[i]] for i in range(length)))
            if opt is None or c < opt:
                opt = c
        if opt is None:
            continue  # constraint unsatisfiable on this instance
        done += 1
        res = alm_project(SeqDist(rows), cs, AlmConfig())
        assert res.feasible, f"solver infeasible on feasible instance {cs.names}"
        worst_excess = max(worst_excess, res.kl_moved - opt)
    assert worst_excess <= 1e-2, f"worst excess over optimum = {worst_excess:.3e} nats"

    # Single-row pooling against the exhaustive simplex grid (step 1e-3).
    # The closed form can only be better than the best grid point, and the
    # grid can lag by at most its resolution.
    rng2 = np.random.default_rng(7)
    for n in (2, 2, 2, 3, 3, 3, 3, 2, 4, 4):
        row = rng2.dirichlet(np.ones(n))
        target = int(rng2.integers(0, n))
        pp_row = position_project(SeqDist(row[None, :]), 0, target).rows[0]
        keep = row > 0
        pp_kl = float(np.sum(row[keep] * np.log(row[keep] / pp_row[keep])))
        _, grid_kl = grid_kl_project(row, Position(position=0, token=target))
        assert pp_kl <= grid_kl + 1e-6, f"n={n}: closed form above grid by {pp_kl - grid_kl:.2e}"
        assert grid_kl - pp_kl <= 1e-2, f"n={n}: grid gap {grid_kl - pp_kl:.2e} exceeds resolution"

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"projection criterion took {elapsed:.1f}s (budget 120s)"


def _fd_rows_grad(fn, rows: np.ndarray, h: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(rows)
    for i in range(rows.shape[0]):
        for v in range(rows.shape[1]):
            plus = rows.copy()
            plus[i, v] += h
            minus = rows.copy()
            minus[i, v] -= h
            g[i, v] = (fn(plus) - fn(minus)) / (2 * h)
    return g


def test_c06_gradient_fidelity():
    """Solver gradients match central finite differences to 1e-4 relative."""
    start = time.perf_counter()
    rng = np.random.default_rng(97)
    kinds = ["lin", "le", "ge", "eq", "pos", "forbid"]
    margin = 0.05
    checked = 0
    attempts = 0
    while checked < 100:
        attempts += 1
        assert attempts < 2000, "could not find enough interior points"
        length = int(rng.integers(2, 5))
        n = int(rng.integers(3, 6))
        kind = kinds[checked % len(kinds)]
        tok = int(rng.integers(0, n))
        if kind == "lin":
            c = LinearScore(weights=rng.uniform(0.0, 1.0, size=n), tau=0.0)
        elif kind == "pos":
            c = Position(position=int(rng.integers(0, length)), token=tok)
        elif kind == "forbid":
            c = Forbidden(token=tok)
        else:
            c = TokenCount(token=tok, op=kind, k=int(rng.integers(0, 3)))

        z = rng.normal(size=(length, n))
        x_rows = rng.dirichlet(np.ones(n), size=length)
        lam = rng.uniform(0.0, 2.0, size=1)
        mu = rng.uniform(0.5, 3.0, size=1)
        temp = float(rng.choice([0.5, 1.0]))

        y = backend.ops.row_softmax(z)
        phi = backend.ops.relax_forward(y, temp)
        score = c.relaxed_score(phi)

        # Interior-point filters: stay away from the scores' kinks so the
        # difference window sees a smooth function.
        if isinstance(c, TokenCount) and c.op == "eq":
            if abs(float(phi[:, c.token].sum()) - c.k) < margin:
                continue
        if isinstance(c, Position):
            row = phi[c.position]
            others = np.delete(row, c.token)
            top_two = np.sort(others)[-2:]
            if len(others) >= 2 and top_two[1] - top_two[0] < margin:
                continue
        # Alternate between an active and an inactive penalty term, with a
        # margin so activity cannot flip inside the difference window.
        if checked % 3 == 0:
            tau = score + 2 * margin
        else:
            tau = score - 2 * margin
        if tau < 0.0:
            tau = 0.0
        if abs(score - tau) < margin:
            continue
        c = replace_tau(c, tau)
        cs = ConstraintSet([c])

        ana, _ = alm_gradient(z, x_rows, cs, lam, mu, temp)
        h = 1e-6
        fd = np.zeros_like(z)
        for i in range(length):
            for v in range(n):
                zp = z.copy()
                zp[i, v] += h
                zm = z.copy()
                zm[i, v] -= h
                fd[i, v] = (
                    alm_objective(zp, x_rows, cs, lam, mu, temp)
                    - alm_objective(zm, x_rows, cs, lam, mu, temp)
                ) / (2 * h)
        scale = max(1.0, float(np.abs(ana).max()))
        rel = float(np.abs(ana - fd).max()) / scale
        assert rel <= 1e-4, f"objective gradient off by {rel:.2e} ({c.name})"

        score_ana = c.relaxed_grad(phi)
        score_fd = _fd_rows_grad(c.relaxed_score, np.array(phi))
        s_scale = max(1.0, float(np.abs(score_ana).max()))
        s_rel = float(np.abs(score_ana - score_fd).max()) / s_scale
        assert s_rel <= 1e-4, f"relaxed score gradient off by {s_rel:.2e} ({c.name})"
        checked += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"gradient criterion took {elapsed:.1f}s (budget 30s)"


def replace_tau(c, tau: float):
    if isinstance(c, Forbidden):
        return Forbidden(token=c.token, tau=tau)
    if isinstance(c, TokenCount):
        return TokenCount(token=c.token, op=c.op, k=c.k, tau=tau)
    if isinstance(c, Position):
        return Position(position=c.position, token=c.token, tau=tau)
    return LinearScore(weights=c.weights, tau=tau)


def test_c07_forward_statistics():
    """1e5 forward draws per kernel match the closed-form marginals within 3 sigma."""
    start = time.perf_counter()
    draws = 100000
    vocab = make_vocab(5)
    x0 = Sequence((0, 3, 1, 4, 2, 0))
    rng = np.random.default_rng(55)
    for kernel, a_t in (
        (NoiseKernel.masked(vocab), 0.4),
        (NoiseKernel.uniform(vocab.size), 0.65),
    ):
        expected = forward_marginal(kernel, x0, a_t).rows
        counts = np.zeros_like(expected)
        for _ in range(draws):
            ids = forward_sample(kernel, x0, a_t, rng)
            for i, v in enumerate(ids):
                counts[i, v] += 1
        for i in range(expected.shape[0]):
            for v in range(expected.shape[1]):
                p = expected[i, v]
                sigma = math.sqrt(draws * p * (1.0 - p))
                diff = abs(counts[i, v] - draws * p)
                assert diff <= 3.0 * sigma + 1e-9, (
                    f"{kernel.kind} cell ({i},{v}): count {counts[i, v]:.0f}, "
                    f"expected {draws * p:.1f} +- {sigma:.1f}"
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"forward statistics took {elapsed:.1f}s (budget 60s)"


def test_c08_violation_contraction():
    """With projection every step, median pre-projection violation shrinks."""
    start = time.perf_counter()
    vocab = make_vocab(8)
    corpus = make_corpus(vocab, length=8, n_entries=12, seed=3)
    cs = ConstraintSet([TokenCount(token=0, op="le", k=2), Forbidden(token=3)])
    cfg = SampleConfig(
        steps=16, length=8, num_samples=100, rng_seed=21, project_every=1, trace=True
    )
    seqs, traces = sample_constrained(corpus, cs, cfg)
    assert len(seqs) == 100
    frac = violation_contraction(traces)
    elapsed = time.perf_counter() - start
    assert frac >= 0.9, f"non-increasing fraction = {frac:.3f}"
    assert elapsed < 180.0, f"contraction criterion took {elapsed:.1f}s (budget 180s)"


def test_c09_ablation_grid_all_feasible():
    """Every solver-parameter cell keeps violation_rate at exactly 0.0."""
    start = time.perf_counter()
    vocab = make_vocab(8)
    corpus = make_corpus(vocab, length=8, n_entries=12, seed=3)
    rng = np.random.default_rng(2)
    weights = rng.uniform(0.0, 1.0, size=vocab.size)
    cs = ConstraintSet([LinearScore(weights=weights, tau=0.5)])
    cells = list(itertools.product((0.2, 0.4, 0.8), (1.0, 5.0, 10.0), (10, 25, 50)))
    assert len(cells) == 27
    for eta, mu_init, inner in cells:
        alm = AlmConfig(eta=eta, mu_init=mu_init, max_inner_iter=inner)
        cfg = SampleConfig(
            steps=12, length=8, num_samples=150, rng_seed=31, alm=alm, trace=False
        )
        seqs, _ = sample_constrained(corpus, cs, cfg)
        rate = violation_rate(seqs, cs)
        assert rate == 0.0, f"cell eta={eta} mu={mu_init} inner={inner}: rate {rate}"
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0, f"ablation grid took {elapsed:.1f}s (budget 900s)"


def test_c10_entropy_identities():
    """Uniform histogram gives ln K; a constant sequence gives zero."""
    for k in (1, 2, 3, 5, 7):
        seq = Sequence(tuple(range(k)) * 3)
        assert abs(entropy(seq) - math.log(k)) <= 1e-12
    for v in (0, 2):
        assert entropy(Sequence((v,) * 9)) == 0.0
