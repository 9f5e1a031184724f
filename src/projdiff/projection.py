"""Projection operators that force decoded feasibility on probability rows.

Three operators cover the three constraint regimes:

  alm_project       KL projection for any constraint mix: a lattice
                    search over argmax patterns on one-hot rows, else
                    an iterative augmented-Lagrangian solve over the
                    differentiable constraint surrogates
  position_project  closed-form KL projection for "position p decodes to
                    token v"
  novelty_project   best-first search for the cheapest decode not yet in
                    a database, then closed-form row edits to force it

All three take a stack of probability rows x and return a nearby stack y
whose decoded sequence is feasible, keeping KL(x || y) small.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from . import backend
from ._ops_numpy import PROB_FLOOR
from .constraints import ConstraintSet
from .core import Corpus, SeqDist, Sequence, decode
from .relax import RelaxConfig


@dataclass(frozen=True)
class AlmConfig:
    """Augmented-Lagrangian solver settings.

    The objective on candidate rows y is

        KL(x || y) + sum_i lam_i * d_i + (mu_i / 2) * d_i^2

    where d_i = max(0, g_i(phi(y)) - tau_i) uses the relaxed constraint
    scores.  Inner iterations take eta-sized gradient steps in logit
    coordinates; outer iterations raise lam by mu * d (measured on the
    decoded iterate) and scale mu by alpha_scale up to mu_max.  The loop
    stops as soon as every decoded violation is <= delta.
    """

    lambda_init: float = 0.0
    mu_init: float = 1.0
    eta: float = 0.2
    max_inner_iter: int = 10
    max_outer_iter: int = 1000
    mu_max: float = 1000.0
    alpha_scale: float = 2.0
    delta: float = 0.0
    relax: RelaxConfig = field(default_factory=RelaxConfig)

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.max_inner_iter < 1 or self.max_outer_iter < 1:
            raise ValueError("iteration limits must be >= 1")
        if self.mu_init <= 0 or self.mu_init > self.mu_max:
            raise ValueError("need 0 < mu_init <= mu_max")
        if self.alpha_scale <= 1:
            raise ValueError("alpha_scale must exceed 1")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")


@dataclass
class AlmResult:
    """Outcome of one augmented-Lagrangian projection."""

    projected: SeqDist
    feasible: bool
    outer_iters: int
    final_violation: np.ndarray
    kl_moved: float
    multipliers: tuple[np.ndarray, np.ndarray]


# Logit-coordinate starting point.  A one-hot input has no exact logit
# preimage, and seeding its zero coordinates at the relaxation floor
# (1e-12) leaves the constraint gradient too saturated to ever move
# them; 1e-3 keeps the start within ~(N-1)e-3 nats of the input while
# preserving usable curvature.
Z_INIT_FLOOR = 1e-3

# Outer iterations tolerated without any change in the decoded pattern
# before the loop defers to the closing lattice search.  Slow marches
# toward a flip change the decode well within this window (a full
# one-hot flip under default multipliers takes about 18 rounds).
STALL_PATIENCE = 30


def alm_objective(
    z: np.ndarray,
    x_rows: np.ndarray,
    cs: ConstraintSet,
    lam: np.ndarray,
    mu: np.ndarray,
    xi: np.ndarray | None,
    temp: float,
) -> float:
    """Augmented-Lagrangian objective at logits z for anchor rows x_rows.

    Value is KL(x || softmax(z)) plus, per constraint, lam * d plus
    (mu / 2) * d^2 with d = max(0, relaxed_score(phi) - tau) evaluated
    on the relaxed rows phi.  The solver itself only ever consumes the
    gradient; this scalar exists so the gradient can be checked against
    finite differences of an independently coded value.
    """
    ops = backend.ops
    y = ops.row_softmax(z)
    phi = ops.relax_forward(y, xi, temp)
    val = ops.kl_rows(x_rows, y)
    for i, c in enumerate(cs):
        d = max(0.0, c.relaxed_score(phi) - c.tau)
        val += float(lam[i]) * d + 0.5 * float(mu[i]) * d * d
    return float(val)


def alm_gradient(
    z: np.ndarray,
    x_rows: np.ndarray,
    cs: ConstraintSet,
    lam: np.ndarray,
    mu: np.ndarray,
    xi: np.ndarray | None,
    temp: float,
) -> tuple[np.ndarray, bool]:
    """Gradient of alm_objective in logit coordinates.

    Returns (dz, any_active) where any_active reports whether any
    penalty term had positive slack excess at z.  This is the exact
    inner-loop step direction used by alm_project.
    """
    ops = backend.ops
    y = ops.row_softmax(z)
    phi = ops.relax_forward(y, xi, temp)
    scores = np.asarray([c.relaxed_score(phi) for c in cs])
    taus = np.asarray([c.tau for c in cs])
    active = scores > taus
    dz = y - x_rows
    if np.any(active):
        dphi = np.zeros_like(phi)
        for i, c in enumerate(cs):
            if active[i]:
                coef = lam[i] + mu[i] * (scores[i] - taus[i])
                dphi += coef * c.relaxed_grad(phi)
        dy = ops.relax_vjp(phi, y, temp, dphi)
        dz = dz + ops.row_softmax_vjp(y, dy)
    return dz, bool(np.any(active))


def alm_project(
    x_in: SeqDist,
    cs: ConstraintSet,
    config: AlmConfig = AlmConfig(),
    multipliers: tuple[np.ndarray, np.ndarray] | None = None,
) -> AlmResult:
    """Project rows x_in to a nearby stack whose decode satisfies cs.

    An already-feasible input is returned unchanged with zero outer
    iterations.  An input of one-hot rows (the sampler's states) is
    decided by the lattice search from its own pattern, also with zero
    outer iterations and the multipliers unchanged; the gradient loop
    runs only when that search leaves a violation, and on soft rows.
    When the iteration budget runs out the best iterate
    found (smallest worst-case decoded violation) is returned with
    feasible=False.  The multipliers argument seeds (lam, mu) to
    continue a previous call's dual state.
    """
    ops = backend.ops
    x_rows = x_in.rows
    m = len(cs)
    if multipliers is not None:
        lam = np.array(multipliers[0], dtype=np.float64, copy=True)
        mu = np.array(multipliers[1], dtype=np.float64, copy=True)
        if lam.shape != (m,) or mu.shape != (m,):
            raise ValueError("multiplier shapes do not match the constraint set")
    else:
        lam = np.full(m, config.lambda_init, dtype=np.float64)
        mu = np.full(m, config.mu_init, dtype=np.float64)

    base = decode(x_rows).ids
    hard = cs.hard_violations(Sequence(base))
    if float(hard.max()) <= config.delta:
        return AlmResult(
            projected=x_in,
            feasible=True,
            outer_iters=0,
            final_violation=hard,
            kl_moved=0.0,
            multipliers=(lam, mu),
        )

    if _one_hot_mask(x_rows).all():
        # On one-hot rows every flip costs ln 2, and the loop only hands
        # its pattern to the closing search; the search alone decides
        # whenever it reaches a qualifying pattern from the input's own.
        ids, residual = _decode_search(x_rows, cs, config.delta, base, base)
        if residual == 0.0:
            return _pooled_result(x_rows, cs, ids, True, 0, (lam, mu))

    xi = config.relax.noise(x_rows.shape)
    temp = config.relax.temperature

    z = np.log(np.maximum(x_rows, Z_INIT_FLOOR))
    y = ops.row_softmax(z)
    hard = cs.hard_violations(decode(y))
    best_rows, best_hard = y, hard
    outer = 0
    stalled = 0
    prev_decode = decode(y).ids

    while float(hard.max()) > config.delta and outer < config.max_outer_iter:
        outer += 1
        z_before = z.copy()
        outer_any_active = False
        for _ in range(config.max_inner_iter):
            dz, any_active = alm_gradient(z, x_rows, cs, lam, mu, xi, temp)
            outer_any_active = outer_any_active or any_active
            z = z - config.eta * dz
        y = ops.row_softmax(z)
        dec = decode(y)
        hard = cs.hard_violations(dec)
        if float(hard.max()) < float(best_hard.max()):
            best_rows, best_hard = y, hard
        if float(hard.max()) > config.delta:
            lam = lam + mu * hard
            mu = np.minimum(mu * config.alpha_scale, config.mu_max)
            if not outer_any_active or np.array_equal(z, z_before):
                # The relaxed scores sat at or below their thresholds for
                # the whole outer iteration while the decoded check still
                # fails: the multiplier term is gated off by max(0, .), so
                # raising lam or mu cannot move the iterate.  Stop early.
                break
            if dec.ids == prev_decode:
                stalled += 1
                if stalled >= STALL_PATIENCE:
                    # The decoded pattern has not moved for many outer
                    # rounds; hand the pattern choice to the lattice
                    # search below rather than grind out the budget.
                    break
            else:
                stalled = 0
                prev_decode = dec.ids

    if float(hard.max()) <= config.delta:
        out_rows, out_hard, feasible = y, hard, True
    else:
        out_rows, out_hard, feasible = best_rows, best_hard, False
    # The loop's job is to pick which argmax pattern to decode to; for a
    # fixed pattern the minimum-KL rows have a closed form (per-row
    # pooling).  A short lattice search around the iterate's pattern then
    # lands on the cheapest nearby qualifying pattern instead of wherever
    # the penalty dynamics overshot, and can also repair patterns the
    # gated multiplier term cannot reach.
    ids, residual = _decode_search(x_rows, cs, config.delta, decode(out_rows).ids, base)
    loop_excess = float(np.maximum(out_hard - config.delta, 0.0).sum())
    if residual == 0.0 or residual < loop_excess:
        return _pooled_result(x_rows, cs, ids, residual == 0.0, outer, (lam, mu))
    projected = SeqDist.normalized(out_rows)
    return AlmResult(
        projected=projected,
        feasible=feasible,
        outer_iters=outer,
        final_violation=out_hard,
        kl_moved=ops.kl_rows(x_rows, projected.rows),
        multipliers=(lam, mu),
    )


def _pooled_result(x_rows, cs, ids, feasible, outer, multipliers) -> AlmResult:
    """AlmResult for the minimum-KL rows of x_rows that decode to ids."""
    out_rows = np.stack([_force_argmax_row(x_rows[i], ids[i]) for i in range(x_rows.shape[0])])
    projected = SeqDist.normalized(out_rows)
    return AlmResult(
        projected=projected,
        feasible=feasible,
        outer_iters=outer,
        final_violation=cs.hard_violations(Sequence(ids)),
        kl_moved=backend.ops.kl_rows(x_rows, projected.rows),
        multipliers=multipliers,
    )


def _one_hot_mask(rows: np.ndarray) -> np.ndarray:
    """Which rows hold exactly one nonzero entry, equal to 1.0."""
    return (np.count_nonzero(rows, axis=1) == 1) & (rows.max(axis=1) == 1.0)


ARGMAX_EPS = 1e-6


def _force_argmax_row(row: np.ndarray, token: int, eps: float = ARGMAX_EPS) -> np.ndarray:
    """Exact KL projection of one row onto {argmax = token}, tilted by eps.

    The minimizer pools the target with every competitor whose mass
    exceeds the pooled level s = (r_token + sum_A r_u) / (|A| + 1); all
    other coordinates are untouched.  A small eps then moves the target
    strictly above the pool so that decoding is unambiguous.
    """
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


def _row_flip_costs(rows: np.ndarray) -> np.ndarray:
    """Exact KL cost of making each token the argmax of each row.

    Entry (i, v) is kl(rows[i], pooled rows[i] with argmax v); zero when
    v already decodes.  A one-hot row pools 1 and 0 at 1/2, so its
    entries are log(2) off the argmax, bit-equal to the pooled KL
    1.0 * log(1.0 / 0.5), and are filled in directly; every other row
    goes through _pooled_flip_costs.
    """
    seq_len, n = rows.shape
    table = np.zeros((seq_len, n))
    if n == 1:
        return table
    one_hot = _one_hot_mask(rows)
    table[one_hot] = np.log(2.0)
    table[one_hot, np.argmax(rows[one_hot], axis=1)] = 0.0
    for i in np.flatnonzero(~one_hot):
        table[i] = _pooled_flip_costs(rows[i])
    return table


def _pooled_flip_costs(row: np.ndarray) -> np.ndarray:
    """Flip costs of one row of n >= 2 entries by pooling every target.

    The pooled levels of all targets come from one sort: for target v
    the competitors are the row's descending order without v, the
    running sums r_v + r_(1) + ... + r_(k) are accumulated left to right
    as _force_argmax_row does, and the pool stops at the first k whose
    next competitor is at or below the level sum / (k + 1).  Each entry
    is then the sum of the pooled KL terms over the row's support,
    summed along C-ordered rows of exactly the support columns so that
    it is bit-equal to the 1-D sum over row[row > 0]: numpy's pairwise
    summation groups the additions by position, so extra zero columns
    or a Fortran-ordered array change the last bit.
    """
    n = row.shape[0]
    targets = np.arange(n)
    slots = np.arange(n - 1)
    order = np.argsort(-row, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[order] = targets
    # comp[v, j]: the j-th largest competitor of target v.
    comp = order[slots + (slots >= rank[:, None])]
    vals = row[comp]
    sums = np.cumsum(np.concatenate([row[:, None], vals], axis=1), axis=1)[:, 1:]
    levels = sums / (slots + 2)
    stop = np.ones((n, n - 1), dtype=bool)
    stop[:, :-1] = vals[:, 1:] <= levels[:, :-1]
    k = np.argmax(stop, axis=1)
    level = levels[targets, k]
    out = np.broadcast_to(row, (n, n)).copy()
    pooled = slots <= k[:, None]
    out[np.nonzero(pooled)[0], comp[pooled]] = np.repeat(level, k + 1)
    out[targets, targets] = level
    mask = row > 0
    support = row[mask]
    # Boolean column indexing returns a Fortran-ordered array; a row
    # sum over that layout groups the additions differently.
    pooled_out = np.ascontiguousarray(out[:, mask])
    costs = (support * np.log(support / pooled_out)).sum(axis=1)
    costs[order[0]] = 0.0
    return costs


def _first_min(cands: np.ndarray, cost: np.ndarray, excess: np.ndarray) -> int:
    """Index of the first row of cands at the least (excess, cost, ids) key.

    The same row as np.lexsort(tuple(cands[:, ::-1].T) + (cost, excess))[0],
    found without sorting: keep the rows at the least excess, then those
    at the least cost, then take the least id row among them compared as
    Python lists (lexicographic and exact); min keeps the first of equal
    rows, so a full tie keeps the lowest index, as the stable sort does.
    """
    rows = np.flatnonzero(excess == excess.min())
    if rows.shape[0] > 1:
        tied = cost[rows]
        rows = rows[tied == tied.min()]
        if rows.shape[0] > 1:
            ids = cands[rows].tolist()
            return int(rows[min(range(len(ids)), key=ids.__getitem__)])
    return int(rows[0])


def _decode_search(
    x_rows: np.ndarray,
    cs: ConstraintSet,
    delta: float,
    start_ids: tuple[int, ...],
    base_ids: tuple[int, ...],
    max_sweeps: int | None = None,
) -> tuple[tuple[int, ...], float]:
    """Steepest descent over argmax patterns near start_ids.

    Patterns are ordered by (total hard violation beyond delta, summed
    per-row pooling cost from x_rows, the ids themselves): descent first
    repairs violations one flip per sweep, then minimizes cost among
    qualifying patterns; the ids component keeps ties deterministic.
    Violations are totalled rather than maxed so that multi-constraint
    repairs always have a downhill flip available.
    Moves are single-position changes plus pairs that revert one
    already-changed position back to base_ids while changing another,
    which lets a misplaced flip migrate to a cheaper row.  The search
    starts from the better of start_ids and base_ids.

    Each sweep scores all of its moves at once: the candidates are
    stacked into one (K, L) id array, their violations come from one
    ConstraintSet.hard_violations_batch call and their costs from one
    gather of the flip-cost table, summed left to right.  Once the
    current pattern qualifies, only strictly cheaper moves are
    considered.  The sweep moves to the lexicographic minimum of the
    remaining (excess, cost, ids) keys if it is below the current key,
    so the result equals that of scoring the moves one by one.  That
    minimum is found in stages rather than by sorting (_first_min): the
    moves at the least excess, of those the ones at the least cost, then
    the least ids among those, and the first move on a full tie.
    """
    table = _row_flip_costs(x_rows)
    seq_len, n = x_rows.shape
    if max_sweeps is None:
        max_sweeps = seq_len + 8
    positions = np.arange(seq_len)

    def best_of(cands: np.ndarray, prune_at: float | None = None):
        violations = cs.hard_violations_batch(cands)
        excess = np.maximum(violations - delta, 0.0).sum(axis=1)
        cost = np.cumsum(table[positions, cands], axis=1)[:, -1]
        if prune_at is not None:
            keep = cost < prune_at
            cands, excess, cost = cands[keep], excess[keep], cost[keep]
            if cands.shape[0] == 0:
                return None
        k = _first_min(cands, cost, excess)
        return (float(excess[k]), float(cost[k]), tuple(cands[k].tolist()))

    # Every single-position move as a (position, token) pair.
    move_pos = np.repeat(positions, n)
    move_tok = np.tile(np.arange(n), seq_len)
    base = np.asarray(base_ids, dtype=np.int64)
    cur_key = best_of(np.asarray([start_ids, base_ids], dtype=np.int64))

    for _ in range(max_sweeps):
        cur = np.asarray(cur_key[2], dtype=np.int64)
        single = move_tok != cur[move_pos]
        # Each move once as is (revert -1), then once after each changed
        # position j is reverted to base, for moves elsewhere than j.
        reverts = np.concatenate([[-1], np.nonzero(cur != base)[0]])
        revert = np.repeat(reverts, np.count_nonzero(single))
        pos = np.tile(move_pos[single], reverts.shape[0])
        tok = np.tile(move_tok[single], reverts.shape[0])
        keep = pos != revert
        revert, pos, tok = revert[keep], pos[keep], tok[keep]
        cands = np.tile(cur, (pos.shape[0], 1))
        rows = np.arange(pos.shape[0])
        paired = revert >= 0
        cands[rows[paired], revert[paired]] = base[revert[paired]]
        cands[rows, pos] = tok
        best = best_of(cands, cur_key[1] if cur_key[0] == 0.0 else None)
        if best is None or not best < cur_key:
            break
        cur_key = best
    return cur_key[2], cur_key[0]


def position_project(x_in: SeqDist, position: int, token: int, eps: float = ARGMAX_EPS) -> SeqDist:
    """Closed-form projection forcing position to decode to token.

    Rows other than the targeted one are untouched; an input that
    already decodes correctly is returned unchanged.
    """
    rows = x_in.rows
    if not 0 <= position < rows.shape[0]:
        raise ValueError(f"position {position} out of range")
    if not 0 <= token < rows.shape[1]:
        raise ValueError(f"token {token} out of range")
    row = rows[position]
    new_row = _force_argmax_row(row, token, eps)
    if new_row is row:
        return x_in
    out = rows.copy()
    out[position] = new_row
    return SeqDist(out)


class NoveltySaturationError(RuntimeError):
    """Every decodable sequence is already present in the database."""


class NoveltyDb:
    """Set of sequences already emitted (or banned).

    With a mask_id, every sequence that holds it also counts as present,
    so a novelty pick is never an unfinished decode the sampler would
    have to reject.  len() counts only the stored sequences.
    """

    def __init__(self, seqs=(), mask_id: int | None = None):
        self._seen: set[Sequence] = set(seqs)
        self.mask_id = mask_id

    def __contains__(self, seq: Sequence) -> bool:
        return seq in self._seen or (self.mask_id is not None and self.mask_id in seq.ids)

    def __len__(self) -> int:
        return len(self._seen)

    def add(self, seq: Sequence) -> None:
        self._seen.add(seq)

    @classmethod
    def from_corpus(cls, corpus: Corpus) -> "NoveltyDb":
        return cls((s for s, _ in corpus.entries), mask_id=corpus.vocab.mask_id)


def novelty_project(x_in: SeqDist, db: NoveltyDb, eps: float = ARGMAX_EPS) -> SeqDist:
    """Force the decode to the cheapest sequence absent from db.

    Candidate cost is the argmax probability given up position by
    position, sum_i (max_v x[i, v] - x[i, sigma_i]); a best-first search
    over prefixes finds the minimum, breaking ties toward the
    lexicographically smallest sequence.  The selected sequence is added
    to db, and rows that already decode to it pass through unchanged.

    Raises NoveltySaturationError when db covers all N^L sequences.
    """
    rows = x_in.rows
    length, n = rows.shape
    gaps = (rows.max(axis=1, keepdims=True) - rows).tolist()  # flip cost per position/token
    # Every completion of a prefix holding a banned MASK is in db already.
    tokens = [v for v in range(n) if v != db.mask_id]
    heap: list[tuple[float, tuple[int, ...]]] = [(0.0, ())]
    selected: Sequence | None = None
    while heap:
        cost, prefix = heapq.heappop(heap)
        if len(prefix) == length:
            seq = Sequence(prefix)
            if seq not in db:
                selected = seq
                break
            continue
        row = gaps[len(prefix)]
        for v in tokens:
            heapq.heappush(heap, (cost + row[v], prefix + (v,)))
    if selected is None:
        raise NoveltySaturationError("database already contains every sequence")
    db.add(selected)
    out = rows.copy()
    for i, v in enumerate(selected):
        out[i] = _force_argmax_row(out[i], v, eps)
    return SeqDist(out)
