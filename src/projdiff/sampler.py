"""Reverse-diffusion sampling with constraint projection inside the loop.

The sampler runs the reverse chain on the integer grid t = T..1.  Each
step denoises the current state, draws the ancestral transition to level
t-1, and then, on scheduled steps, projects the new state so that its
decode is feasible.  Chains are advanced in lockstep as a batch; all
randomness comes from one generator stream so runs are reproducible.

The model is any object with a posterior_loo_batch(ids, a_t, kernel)
method that returns (states, rows, inverse) for a (B, L) batch of id
rows: the (K, L) states of K blocks, their (K, L, N) leave-one-out
denoised rows, and the (B,) block of each chain.  A model that shares no
rows between chains returns ids itself, its (B, L, N) rows and
arange(B).  The default, ExactBayesDenoiser, shares rows as described
below.  The sampler hands a model nothing but the batch, so any cache a
model keeps is its own.

The reverse step works per block of chains that share their denoised
rows, and so their reverse mixture.  Under the uniform kernel a block is
a distinct state.  Under the masked kernel it is a distinct set of
compatible corpus entries, since the exact posterior is the prior
restricted to that set: chains in different states share a block, and
most chains of a constrained run match no entry and share the prior's.
A set's denoised rows depend on neither the state nor the signal level,
so the exact denoiser keeps them and builds each set's rows once, at the
first step of any run that meets it.
The mixture is built once per block and step, and each chain inverts
its own uniforms against its block of L CDF rows, only at the positions
that can change.  Under the masked kernel those are the
MASK positions, each drawn against its own row; under the uniform
kernel every position changes, and each chain's block is gathered once,
by the chain's block index.  When no two chains share a block the
mixture holds one block per chain, and a position's flat index is its
row.  A retry redraws from the chain's own pre-draw ids and its block.
Every step draws one uniform per chain and position however many are
used, so the stream does not depend on which chains share a block.

A chain's state is its row of token ids.  On a projected step in alm
mode one batched screen passes the chains the operator would leave
unchanged.  The distinct states among the rest then go through one
batched call of projection.project_ids, which works on the ids alone
and reads the set's projection tables itself;
a state it leaves infeasible goes on to alm_project's gradient loop
from its one-hot rows.  The results fill the step's memo, keyed by the
id row.  Chains are then handled in chain order: each takes its state's
result, and a chain whose result is infeasible, or holds MASK at t = 1,
redraws at its own turn and has its new state projected on its own, so
the rng stream does not depend on the batching.

The novelty step is one loop over the chains, in chain order: each
chain claims a sequence with one projection.novelty_project_ids call,
which takes and returns the chain's ids and builds no rows.  A claim is
always accepted: under the masked kernel the database must ban the
vocabulary's MASK, so no claim holds it, and nothing is redrawn.
Chains that share a state resume one search in the database; the
sampler drops the database's searches when its novelty step ends, so
they hold at most one step's distinct states.

When tracing, each step appends one TraceRecord per chain, in chain
order.  The step scores the violations once, as arrays: one batched call
before projection, and in alm mode one after it for the chains the
screen failed; every other chain keeps its pre value.  kl_moved comes
from the ids, with no rows built: one projection.flip_kl call for the
distinct failing states, one for the novelty claims.  The per-chain
code only looks results up, claims novel sequences and redraws; in the
novelty step tracing adds only each chain's pre value, read at its
turn, and its wall time.  An untraced run builds none of these arrays.

Projection scheduling: step t projects when t <= T - project_start and
T - project_start - t is a multiple of project_every, and the final
step t = 1 always projects so emitted sequences are feasible.  Novelty
mode is the exception: it projects only at the final step, because each
projection permanently claims a sequence in the database and
intermediate states would exhaust it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import backend
from .constraints import ConstraintSet
from .core import Corpus, Schedule, SeqDist, Sequence, check_counts
from .denoiser import ExactBayesDenoiser
from .noise import NoiseKernel, reverse_mixture_rows
# novelty_project and position_project are not called here:
# perfbench/tracer.py patches them on this module.
from .projection import (  # noqa: F401
    AlmConfig,
    NoveltyDb,
    alm_project,
    flip_kl,
    novelty_project,
    novelty_project_ids,
    position_project,
    project_ids,
)

CHUNK_SIZE = 16384

MODES = ("alm", "novelty", "none")
POLICIES = ("continue", "retry", "abort")


class InfeasibleSampleError(RuntimeError):
    """Projection could not reach feasibility under the configured policy."""


@dataclass(frozen=True)
class SampleConfig:
    """Settings for one sampling run."""

    steps: int
    length: int
    kernel: str = "masked"
    schedule: str = "linear"
    num_samples: int = 1
    rng_seed: int = 0
    projection_mode: str = "alm"
    project_every: int = 1
    project_start: int = 0
    infeasible_policy: str = "retry"
    max_retries: int = 5
    alm: AlmConfig = field(default_factory=AlmConfig)
    trace: bool = True

    def __post_init__(self):
        check_counts(
            self, steps=1, length=1, num_samples=0, rng_seed=0, project_every=1, project_start=0, max_retries=1
        )
        if self.kernel not in NoiseKernel.KINDS:
            raise ValueError(f"kernel must be one of {NoiseKernel.KINDS}")
        if self.schedule not in Schedule.KINDS:
            raise ValueError(f"schedule must be one of {Schedule.KINDS}")
        if self.projection_mode not in MODES:
            raise ValueError(f"projection_mode must be one of {MODES}")
        if self.infeasible_policy not in POLICIES:
            raise ValueError(f"infeasible_policy must be one of {POLICIES}")
        if self.project_every > self.steps:
            raise ValueError("need 1 <= project_every <= steps")
        if self.project_start >= self.steps:
            raise ValueError("need 0 <= project_start < steps")


@dataclass
class TraceRecord:
    """One reverse step of one chain.

    pre_violation and post_violation are the worst decoded constraint
    violations before and after projection (equal when the step did not
    project the chain).  In novelty mode they are database membership:
    pre is read at the chain's turn, after the claims of earlier chains,
    and post is 0.0 for a projected chain.  wall_time is the seconds spent
    projecting the chain, retries included, and 0.0 for a chain the step
    did not project.  In alm mode a chain whose state the step's batched
    projection (or an earlier chain's retry) already projected spends it
    on a memo lookup, not a projector call.
    """

    sample_index: int
    step: int
    projected: bool
    pre_violation: float
    post_violation: float
    kl_moved: float
    outer_iters: int
    wall_time: float


def check_settings(corpus: Corpus, cs: ConstraintSet | None, cfg: SampleConfig, db: NoveltyDb | None = None):
    """Raise ValueError unless cfg can run on corpus, cs and db."""
    if cfg.length != corpus.length:
        raise ValueError(f"config length {cfg.length} != corpus length {corpus.length}")
    if cfg.projection_mode == "alm" and cs is None:
        raise ValueError("projection_mode='alm' requires constraints")
    if cfg.projection_mode == "novelty" and cs is not None:
        raise ValueError("novelty mode does not take a constraint set")
    mask_id = corpus.vocab.mask_id
    if cfg.kernel == "masked" and mask_id is None:
        raise ValueError("the masked kernel needs a vocabulary with a MASK token")
    # A database that bans the vocabulary's MASK never hands out a claim
    # holding it, so no claim needs checking before it is emitted.
    if cfg.projection_mode == "novelty" and cfg.kernel == "masked" and db is not None and db.mask_id != mask_id:
        raise ValueError(f"novelty database mask_id {db.mask_id} is not the vocabulary's MASK id {mask_id}")
    if cs is not None:
        cs.check_fits(corpus.vocab.size, corpus.length)


def sample_constrained(
    corpus: Corpus,
    cs: ConstraintSet | None,
    cfg: SampleConfig,
    denoiser=None,
    novelty_db: NoveltyDb | None = None,
) -> tuple[list[Sequence], list[TraceRecord]]:
    """Generate num_samples sequences; returns (sequences, trace records).

    The denoiser is the model: the exact corpus posterior by default, or
    any object whose posterior_loo_batch(ids, a_t, kernel) returns
    (states, rows, inverse) as the module docstring states.  One without
    it raises TypeError, after validation and before any draw.  In
    novelty mode the database defaults to one seeded with the corpus
    itself, and the caller's database object is updated in place as
    sequences are claimed.
    """
    check_settings(corpus, cs, cfg, novelty_db)
    if denoiser is None:
        denoiser = ExactBayesDenoiser(corpus)
    elif not callable(getattr(denoiser, "posterior_loo_batch", None)):
        raise TypeError(f"denoiser {type(denoiser).__name__} has no posterior_loo_batch method")
    if cfg.projection_mode == "novelty" and novelty_db is None:
        novelty_db = NoveltyDb.from_corpus(corpus)
    engine = _Engine(corpus, cs, cfg, denoiser, novelty_db)
    return engine.run()


def sample_unconstrained(corpus: Corpus, cfg: SampleConfig, denoiser=None) -> list[Sequence]:
    """Plain reverse-diffusion sampling, no projection, no tracing."""
    bare = replace(cfg, projection_mode="none", trace=False)
    seqs, _ = sample_constrained(corpus, None, bare, denoiser=denoiser)
    return seqs


class _Engine:
    def __init__(self, corpus, cs, cfg, denoiser, db):
        self.corpus = corpus
        self.cs = cs
        self.cfg = cfg
        self.denoiser = denoiser
        self.db = db
        self.vocab = corpus.vocab
        self.n = self.vocab.size
        self.kernel = NoiseKernel.for_vocab(cfg.kernel, self.vocab)
        self.schedule = Schedule(cfg.schedule, cfg.steps)
        self.rng = np.random.default_rng(cfg.rng_seed)

    def run(self) -> tuple[list[Sequence], list[TraceRecord]]:
        seqs: list[Sequence] = []
        traces: list[TraceRecord] = []
        remaining = self.cfg.num_samples
        offset = 0
        while remaining > 0:
            b = min(remaining, CHUNK_SIZE)
            ids = self._run_chunk(b, offset, traces)
            seqs.extend(Sequence.from_id_array(ids))
            remaining -= b
            offset += b
        return seqs, traces

    def _projects_at(self, t: int) -> bool:
        if self.cfg.projection_mode == "none":
            return False
        if self.cfg.projection_mode == "novelty":
            return t == 1
        last = self.cfg.steps - self.cfg.project_start
        return t == 1 or (t <= last and (last - t) % self.cfg.project_every == 0)

    def _violations(self, ids: np.ndarray) -> np.ndarray:
        """(B,) worst decoded violation of each (L,) id row of ids.

        Constraint violations of all rows come from one batched call; in
        novelty mode a row scores 1.0 when the database holds it.
        """
        if self.cfg.projection_mode == "novelty":
            return np.array([Sequence(tuple(row)) in self.db for row in ids.tolist()], dtype=float)
        if self.cs is None:
            return np.zeros(len(ids))
        return self.cs.hard_violations_batch(ids).max(axis=1)

    def _passes(self, ids: np.ndarray, t: int) -> np.ndarray:
        """Which chains of ids alm_project would return unchanged at step t;
        at t = 1 the masked kernel passes no chain holding MASK."""
        passed = self._violations(ids) <= 0.0
        if self.kernel.kind == "masked" and t == 1:
            passed &= ~np.any(ids == self.kernel.mask_id, axis=1)
        return passed

    def _run_chunk(self, b: int, offset: int, traces: list[TraceRecord]) -> np.ndarray:
        """Run b chains from t = T down to 1; returns their (b, L) ids."""
        cfg = self.cfg
        length = cfg.length
        novelty = cfg.projection_mode == "novelty"

        # Every position starts as one draw from the reference row.
        u0 = self.rng.random((b, length))
        ids = backend.ops.sample_rows(self.kernel.ref[None], u0.ravel(), np.zeros(b * length, np.intp))
        ids = ids.reshape(b, length)

        for t in range(cfg.steps, 0, -1):
            step = self._reverse_mixture(ids, t)
            ids = self._draw(ids, step[1], step[2], self.rng.random((b, length)))

            projected = self._projects_at(t)
            if cfg.trace:
                # Novelty reads each chain's membership at its own turn,
                # after the claims of the chains before it.
                pre = np.zeros(b) if projected and novelty else self._violations(ids)
                kl, outer, wall = [0.0] * b, [0] * b, [0.0] * b
            if projected and novelty:
                self._claim_novel(ids, (pre, kl, wall) if cfg.trace else None)
            elif projected:
                failed = ~self._passes(ids, t)
                # This step's alm results, keyed by the state's id bytes.
                memo: dict[bytes, tuple] = {}
                self._project_states(ids[failed], memo)
                for ci in np.flatnonzero(failed).tolist():
                    if not cfg.trace:
                        self._project_chain(ci, offset + ci, t, ids, step, memo)
                    else:
                        start = time.perf_counter()
                        kl[ci], outer[ci] = self._project_chain(ci, offset + ci, t, ids, step, memo)
                        wall[ci] = time.perf_counter() - start
            if cfg.trace:
                post = np.zeros(b) if projected and novelty else pre.copy()
                if projected and not novelty and failed.any():
                    post[failed] = self._violations(ids[failed])
                columns = zip(pre.tolist(), post.tolist(), kl, outer, wall)
                traces.extend(TraceRecord(offset + ci, t, projected, *rec) for ci, rec in enumerate(columns))
        return ids

    def _reverse_mixture(self, ids: np.ndarray, t: int):
        """(ids, mix, index) of the step from level t to t - 1.

        ids is the step's (B, L) batch itself, not a copy: the draw
        writes a new array, so ids keeps each chain's pre-draw ids for its
        redraws.  mix holds the (K * L, N) reverse mixture rows of the K
        blocks the model gives, row k * L + j for position j of block k;
        index is the (B,) block of each chain, or None when block i is
        chain i.
        """
        a_t = self.schedule.alpha(t)
        a_s = self.schedule.alpha(t - 1)
        states, denoised, inverse = self.denoiser.posterior_loo_batch(ids, a_t, self.kernel)
        mix = reverse_mixture_rows(self.kernel, denoised.reshape(-1, self.n), a_t, a_s, states.reshape(-1))
        return ids, mix, None if states is ids else inverse

    def _draw(self, prev: np.ndarray, mix: np.ndarray, index: np.ndarray | None, u: np.ndarray) -> np.ndarray:
        """Next ids of the (k, L) chains prev, one uniform of u per position.

        Position j of chain i inverts u[i, j] against row j of its L-row
        block of the mixture rows mix: block index[i], or block i when
        index is None (each chain its own block), so that then the flat
        position i * L + j is the row index itself.  Only positions that
        can change are drawn: the MASK positions under the masked kernel,
        where a settled position keeps its token, and every position under
        the uniform kernel, which with index given gathers each chain's
        block once.
        """
        length = prev.shape[1]
        if self.kernel.kind == "uniform":
            if index is None:
                return backend.ops.sample_rows(mix, u.ravel()).reshape(prev.shape)
            return backend.ops.sample_rows(mix.reshape(-1, length, mix.shape[1]), u, index)
        flat = prev.ravel()
        pos = (flat == self.kernel.mask_id).nonzero()[0]
        rows = pos if index is None else index.take(pos // length) * length + pos % length
        out = flat.copy()
        out[pos] = backend.ops.sample_rows(mix, u.ravel().take(pos), rows)
        return out.reshape(prev.shape)

    def _redraw(self, ci: int, step) -> np.ndarray:
        """Chain ci's transition drawn again from its block's mixture rows.

        step is the (ids, mix, index) of this step's draw: chain ci's
        pre-draw ids and the (L, N) rows of its block go to one
        sample_rows call of their own.
        """
        prev, mix, index = step
        length = self.cfg.length
        k = (ci if index is None else index[ci]) * length
        u = self.rng.random((1, length))
        return self._draw(prev[ci][None], mix[k : k + length], None, u)[0]

    def _project_states(self, failing: np.ndarray, memo: dict) -> None:
        """Project the distinct id rows of failing into memo (alm mode).

        One project_ids call decides every distinct state; each state it
        leaves infeasible goes through alm_project from its one-hot rows.
        A memo entry is (decode, feasible, outer, kl); kl, which only
        trace records read, is computed only when tracing, by one flip_kl
        call; alm_project's kl_moved replaces it where project_ids fails.
        """
        distinct: dict[bytes, np.ndarray] = {}
        for row in failing:
            distinct.setdefault(row.tobytes(), row)
        if not distinct:
            return
        ops = backend.ops
        states = np.stack(list(distinct.values()))
        new_ids, feasible = project_ids(states, self.n, self.cs)
        kl = flip_kl(states, new_ids, self.n).tolist() if self.cfg.trace else [0.0] * len(states)
        for key, state, new, ok, kl_moved in zip(distinct, states, new_ids, feasible.tolist(), kl):
            if ok:
                memo[key] = (new, True, 0, kl_moved)
            else:
                res = alm_project(SeqDist(ops.one_hot_rows(state, self.n)), self.cs, self.cfg.alm)
                memo[key] = (ops.argmax_rows(res.projected.rows), res.feasible, res.outer_iters, res.kl_moved)

    def _claim_novel(self, ids: np.ndarray, trace: tuple | None) -> None:
        """Replace each chain's ids by the sequence it claims, in chain order.

        Each chain makes one novelty_project_ids call on its id row.  trace
        is None, or the step's (pre, kl, wall) to fill in: pre is the
        chain's membership in the database at its turn, after the claims
        of the chains before it, and wall the seconds of its claim; kl
        comes from one flip_kl call once all have claimed, when the
        database's walks are dropped.
        """
        n, db = self.n, self.db
        if trace:
            pre, kl, wall = trace
        claims = []
        for ci, state in enumerate(ids):
            if trace:
                pre[ci] = Sequence(tuple(state.tolist())) in db
                start = time.perf_counter()
            claims.append(novelty_project_ids(state, n, db))
            if trace:
                wall[ci] = time.perf_counter() - start
        if trace:
            kl[:] = flip_kl(ids, np.array(claims), n).tolist()
        # No chain's claim reads another chain's row, so all are written at once.
        ids[:] = claims
        db.cursors.clear()

    def _project_chain(self, ci, sample_index, t, ids, step, memo) -> tuple[float, int]:
        """Project chain ci's ids in place (alm mode); returns its
        (kl_moved, outer_iters).

        The result is a function of the state alone and is read from memo;
        a state the step's batch did not hold (a retry's redraw) is
        projected on its own into memo first.  step is the
        (ids, mix, index) of this step's draw, which a retry draws from
        again.
        """
        cfg = self.cfg
        attempts = 0
        while True:
            key = ids[ci].tobytes()
            if key not in memo:
                self._project_states(ids[ci][None], memo)
            new_dec, ok, outer, kl_moved = memo[key]
            # An emitted sequence must not contain the mask token; inside
            # the chain a mask decode just re-opens that position.
            if ok and self.kernel.kind == "masked" and t == 1 and self.kernel.mask_id in new_dec:
                ok = False
            if ok or cfg.infeasible_policy == "continue":
                break
            if cfg.infeasible_policy == "abort":
                raise InfeasibleSampleError(f"chain {sample_index} infeasible at step {t}")
            attempts += 1
            if attempts > cfg.max_retries:
                raise InfeasibleSampleError(
                    f"chain {sample_index} still infeasible at step {t} after {cfg.max_retries} retries"
                )
            # Re-draw this chain's transition and try again.
            ids[ci] = self._redraw(ci, step)
        ids[ci] = new_dec
        return kl_moved, outer


def violation_contraction(traces: list[TraceRecord], tol: float = 1e-12) -> float:
    """Fraction of adjacent projected steps whose median pre-projection
    violation does not increase as denoising proceeds.

    Aggregates all chains: for each projected step t the median of
    pre_violation is taken across records, the medians are ordered from
    t = T down to t = 1, and adjacent pairs are counted as non-increasing
    when the later median exceeds the earlier by at most tol.
    """
    by_step: dict[int, list[float]] = {}
    for rec in traces:
        if rec.projected:
            by_step.setdefault(rec.step, []).append(rec.pre_violation)
    steps = sorted(by_step, reverse=True)
    if len(steps) < 2:
        return 1.0
    medians = [float(np.median(by_step[t])) for t in steps]
    good = sum(1 for a, b in zip(medians, medians[1:]) if b <= a + tol)
    return good / (len(medians) - 1)
