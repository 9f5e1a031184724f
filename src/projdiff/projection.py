"""Projection operators that force decoded feasibility on probability rows.

Three operators cover the three constraint regimes:

  alm_project       KL projection for any constraint mix: the cheapest
                    qualifying argmax pattern, by project_ids on one-hot
                    rows and by the best-first search (_decode_search)
                    over exact flip costs on other rows, with the rows
                    pooled to decode to it; an input for which neither
                    finds a pattern comes back as it is, reported
                    infeasible
  position_project  closed-form KL projection for "position p decodes to
                    token v"
  novelty_project   the cheapest decode not yet in a database, found in
                    whole-sequence cost order by the same best-first
                    search over prefixes (_cheapest_patterns), run with
                    no bounds and started afresh on each call, then
                    closed-form row edits to force it

All three take a stack of probability rows x and return a nearby stack y
whose decoded sequence is feasible, keeping KL(x || y) small.

  novelty_project_ids  novelty_project's pick for the one-hot rows of an
                    (L,) id row, given and returned as token ids, with
                    no rows built: there a decode's cost is its Hamming
                    distance from the ids, so the search is a resumable
                    walk over Hamming shells in lex order (_ShellWalk)
                    with no heap; the sampler's novelty step calls it

  project_ids       the qualifying pattern with the fewest flips, then the
                    smallest ids, for each of a (K, L) stack of one-hot
                    states, given and returned as token ids, with no rows
                    built: in closed form (_fewest_flips) for one
                    TokenCount or Forbidden, Position pins on distinct
                    positions, and user sets of exact 0/1 tables on rows
                    of their own; by an exact dynamic program over
                    positions (_FlipDP) for every other set whose
                    constraints all have position terms, at most one with
                    a float table (a LinearScore); and by an exact
                    best-first search over prefixes (_decode_search) for
                    the other sets and for the states the program cannot
                    settle; flip_kl gives the KL of its picks from the
                    ids alone

_cheapest_patterns yields one state's patterns in (cost, lex) order from
its cost table, dropping the prefixes its bounds rule out; its heap loop
is _best_first.  _decode_search keeps the first pattern
ConstraintSet.hard_violations_batch accepts, bounding keys and dropping
prefixes by the dynamic program's suffix tables, so it takes any set, up
to SEARCH_EXPANSIONS expansions per state; novelty_project keeps the
first one its database claims.  The closed form, the dynamic program and
the search's bounds read the constraints' per-position tables
(Constraint.position_terms), which SearchTerms reads; project_ids and
alm_project get them from SearchTerms.of on every call, which keeps a
set's tables on the set from call to call while its built-in constraints
keep their fields, and builds them afresh for a set holding a user-type
constraint.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import backend
from .constraints import ConstraintSet, Forbidden, LinearScore, Position, TokenCount
from .core import Corpus, SeqDist, Sequence, check_counts, decode


@dataclass(frozen=True)
class AlmConfig:
    """Settings of an augmented-Lagrangian solve of the KL projection.

    The solve's objective on candidate rows y is alm_objective,

        KL(x || y) + sum_i lam_i * d_i + (mu_i / 2) * d_i^2

    with d_i = max(0, g_i(phi(y)) - tau_i) on the relaxed constraint
    scores, mu starting at mu_init and eta-sized gradient steps
    (alm_gradient) in logit coordinates.  alm_project picks its pattern
    exactly and runs no such solve, so nothing reads these values; they
    are still checked, so a SampleConfig holding them stays valid.
    """

    mu_init: float = 1.0
    eta: float = 0.2
    max_inner_iter: int = 10
    max_outer_iter: int = 1000

    def __post_init__(self):
        if not 0 < self.eta < np.inf:  # NaN fails these comparisons too
            raise ValueError("eta must be positive and finite")
        check_counts(self, max_inner_iter=1, max_outer_iter=1)
        if not 0 < self.mu_init <= MU_MAX:
            raise ValueError(f"need 0 < mu_init <= {MU_MAX}")


@dataclass
class AlmResult:
    """Outcome of one projection by alm_project; outer_iters is always 0,
    as no iterative solve runs."""

    projected: SeqDist
    feasible: bool
    outer_iters: int
    final_violation: np.ndarray
    kl_moved: float


# The largest penalty weight AlmConfig takes as mu_init.
MU_MAX = 1000.0


def _check_temperature(temp: float) -> None:
    # Negated, so that NaN fails it too: a NaN temperature makes every
    # relaxed score NaN, and no penalty active.
    if not temp > 0:
        raise ValueError("temperature must be positive")


def alm_objective(
    z: np.ndarray,
    x_rows: np.ndarray,
    cs: ConstraintSet,
    lam: np.ndarray,
    mu: np.ndarray,
    temp: float,
) -> float:
    """Augmented-Lagrangian objective at logits z for anchor rows x_rows.

    Value is KL(x || softmax(z)) plus, per constraint, lam * d plus
    (mu / 2) * d^2 with d = max(0, relaxed_score(phi) - tau) evaluated
    on the relaxed rows phi.  A gradient solve would only consume the
    gradient; this scalar exists so the gradient can be checked against
    finite differences of an independently coded value.  Raises
    ValueError unless temp is positive.
    """
    _check_temperature(temp)
    ops = backend.ops
    y = ops.row_softmax(z)
    phi = ops.relax_forward(y, temp)
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
    temp: float,
) -> tuple[np.ndarray, bool]:
    """Gradient of alm_objective in logit coordinates.

    Returns (dz, any_active) where any_active reports whether any
    penalty term had a relaxed score above its tau at z.  This is the
    step direction of a gradient solve of alm_objective; alm_project
    runs none.  Raises ValueError unless temp is positive.
    """
    _check_temperature(temp)
    ops = backend.ops
    y = ops.row_softmax(z)
    phi = ops.relax_forward(y, temp)
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


def alm_project(x_in: SeqDist, cs: ConstraintSet, config: AlmConfig = AlmConfig()) -> AlmResult:
    """Project rows x_in to a nearby stack whose decode satisfies cs.

    Raises ValueError, naming the constraint, unless every constraint of
    cs fits the rows' length and vocabulary (ConstraintSet.check_fits).
    An already-feasible input is returned unchanged.  Otherwise the
    cheapest pattern cs accepts is picked, and the rows are pooled row
    by row to decode to it: on one-hot rows (the sampler's states) by
    project_ids, the fewest flips and then the smallest ids; on other
    rows by _decode_search over the exact flip costs (_row_flip_costs),
    the least summed cost and then the smallest ids.  Both read the
    set's SearchTerms.  When they find no pattern (none is accepted, or
    the search ran out of expansions) the input is returned as it is,
    with feasible=False and kl_moved 0.0, as project_ids leaves such a
    state its ids.  config is not read (see AlmConfig); outer_iters is
    always 0.
    """
    x_rows = x_in.rows
    cs.check_fits(x_rows.shape[1], x_rows.shape[0])
    base = decode(x_rows).ids
    hard = cs.hard_violations(Sequence(base))
    if float(hard.max()) <= 0.0:
        return AlmResult(projected=x_in, feasible=True, outer_iters=0, final_violation=hard, kl_moved=0.0)

    states = np.asarray([base])
    if _one_hot_mask(x_rows).all():
        ids, feasible = project_ids(states, x_rows.shape[1], cs)
    else:
        terms = SearchTerms.of(cs, *x_rows.shape)
        ids, feasible = _decode_search(cs, terms, states, _row_flip_costs(x_rows)[None])
    if not feasible[0]:
        return AlmResult(projected=x_in, feasible=False, outer_iters=0, final_violation=hard, kl_moved=0.0)
    pick = tuple(ids[0].tolist())
    projected = SeqDist.normalized(np.stack([_force_argmax_row(row, v) for row, v in zip(x_rows, pick)]))
    return AlmResult(
        projected=projected,
        feasible=True,
        outer_iters=0,
        final_violation=cs.hard_violations(Sequence(pick)),
        kl_moved=backend.ops.kl_rows(x_rows, projected.rows),
    )


def project_ids(states: np.ndarray, n: int, cs: ConstraintSet) -> tuple[np.ndarray, np.ndarray]:
    """Decode targets of a (K, L) stack of one-hot states, by their ids.

    Row k holds the ids of a state whose rows are one-hot over n tokens.
    The set's tables for L and n come from SearchTerms.of, which keeps
    those of a set of built-in constraints from call to call.
    Returns the (K, L) int64 ids picked for each state and the (K,) mask
    of the states made feasible (every violation 0); a feasible state
    keeps its own ids, and so does a state left infeasible.  No
    probability rows are built: on one-hot rows every flip costs ln 2,
    so a pattern's KL cost is its number of flips, its Hamming distance
    to the state.

    The pick is the qualifying pattern with the fewest flips, then the
    smallest ids, as oracle.enumerate_fewest_flips picks it: by the closed
    form (_fewest_flips) when the set has one (SearchTerms.fewest_flips),
    else by the dynamic program (_FlipDP) when it takes the set
    (SearchTerms.dp), where hard_violations_batch confirms the pick.  Other
    sets (two LinearScores, a constraint without terms), and each state
    the program leaves infeasible or whose pick the check refuses (a
    LinearScore mean within rounding of tau), go through the best-first
    search (_decode_search), which makes the same pick.  A state is left
    infeasible when no pattern qualifies, or when the search runs out of
    expansions.
    """
    states = np.asarray(states, dtype=np.int64)
    terms = SearchTerms.of(cs, states.shape[1], n)
    if terms.fewest_flips is not None:
        return _fewest_flips(states, n, terms.fewest_flips), np.ones(states.shape[0], dtype=bool)
    ids, feasible = states.copy(), np.zeros(states.shape[0], dtype=bool)
    if terms.dp is not None:
        ids, feasible = terms.dp.pick(states)
        # The program sums the float table in its own order; the pick
        # stands where the scores the sampler checks agree.
        feasible[feasible] = (cs.hard_violations_batch(ids[feasible]) <= 0.0).all(axis=1)
    rest = np.flatnonzero(~feasible)
    if rest.shape[0]:
        ids[rest], feasible[rest] = _decode_search(cs, terms, states[rest])
    return ids, feasible


# Prefixes _decode_search may expand for one state before it reports the
# state infeasible.
SEARCH_EXPANSIONS = 2**14

# Cells of a chunk of _FlipDP's tables: the suffix table and a step's
# temporaries of all the chunk's states.  A set whose one state needs
# more has no program.
DP_CHUNK_CELLS = 2**20


class _FlipDP:
    """project_ids's pick by a dynamic program over positions, for a set
    whose constraints all have position terms, at most one of them
    inexact (the float constraint, a LinearScore), with a positive scale
    and no absolute value.

    Each exact constraint's table sum, with each row shifted so that its
    least entry is 0, only grows along the positions; it is capped at the
    sum from which the constraint's verdict no longer changes.  A cell
    holds one capped sum per exact constraint: moves[i, v, p] is cell p
    after position i takes token v, and holds[p] says whether every exact
    constraint holds at p.  weights is the float constraint's (L, N) table
    (zero without one) and budget the largest sum of it at which that
    constraint holds, (tau - offset) / scale (0 without one), raised by
    a bound on the rounding of both sums (see of).

    For each state, the suffix table holds, per position i, cell p and
    flip count r, the least weights sum over positions i.. of a completion
    from p that ends at a cell that holds with exactly r flips (inf when
    none does).  The fewest flips is the least r whose entry at position
    0 and the start cell is within the budget.  A forward pass then takes,
    at each position, the smallest token whose rest still completes with
    the flips and the budget left, so the pick is the least pattern in
    lex order among those with the fewest flips.  Sums are rounded in the
    program's own order and hard_scores rounds in its own, so the raised
    budget keeps every pattern hard_scores accepts, and project_ids
    confirms every pick: only a pattern within rounding of tau can be
    picked and then refused.  A state whose budget runs out by rounding
    on the way through the forward pass is left infeasible.
    _decode_search reads the suffix table to bound its search.

    Tokens whose moves agree at every position form a group (for a
    TokenCount, its token and all the others); the backward pass steps
    over groups, with each state's least weight in the group when the
    position keeps its token (stay) and when it flips (flip).  States go
    through in chunks of at most DP_CHUNK_CELLS table cells.
    """

    def __init__(self, moves, holds, weights, budget):
        seq_len, n, cells = moves.shape
        width = seq_len + 2  # an inf column, then flip counts 0..L
        self.moves, self.weights, self.budget = moves, weights, budget
        # The table after the last position: no flip left, at a cell that
        # holds.
        self.last = np.full((cells, width), np.inf)
        self.last[holds, 1] = 0.0
        # The flat index of suffix[k, i + 1, moves[i, v, p], 1] less that
        # of suffix[k, 0, 0, 1] (see _pick).
        self.offsets = moves * width + (np.arange(seq_len)[:, None, None] + 1) * (cells * width)
        # Each group's moves, and per position and token held, the least
        # weight in each group without a flip and with one.
        columns = moves.transpose(1, 0, 2).reshape(n, -1)
        _, first, group = np.unique(columns, axis=0, return_index=True, return_inverse=True)
        self.group_moves = moves[:, first]
        self.stay = np.where(group.reshape(-1, 1) == np.arange(first.shape[0]), weights[:, :, None], np.inf)
        least = np.sort(np.concatenate((self.stay, np.full_like(self.stay[:, :1], np.inf)), axis=1), axis=1)
        holder = np.arange(n)[:, None] == self.stay.argmin(axis=1)[:, None, :]
        self.flip = np.where(holder, least[:, 1:2], least[:, :1])
        self.chunk = DP_CHUNK_CELLS // (cells * width * (seq_len + 1 + 3 * first.shape[0]))

    @classmethod
    def of(cls, cs: ConstraintSet, terms: list, seq_len: int, n: int) -> _FlipDP | None:
        """The program for the set with these PositionTerms on (L, N)
        tables, or None when it takes none."""
        if any(t is None for t in terms):
            return None
        inexact = [(c, t) for c, t in zip(cs, terms) if not t.exact]
        weights, budget = np.zeros((seq_len, n)), 0.0
        if len(inexact) > 1:
            return None
        if inexact:
            c, t = inexact[0]
            if t.absolute or not t.scale > 0:
                return None
            weights = np.asarray(t.table, dtype=np.float64)
            # The program's sum and hard_scores', of L terms each, lie within
            # (L - 1) u A of the exact sum, u = 2^-53 and A = sum_i max_v
            # |weights[i, v]| (Higham, Accuracy and Stability of Numerical
            # Algorithms, 4.2); phi's and the budget's roundings add a few
            # u (|tau| + |offset|) / scale.  8 (L + 4) u times both covers
            # them with room to spare.
            slack = float(np.abs(weights).max(axis=1).sum()) + (abs(c.tau) + abs(t.offset)) / t.scale
            budget = (c.tau - t.offset) / t.scale + 8.0 * (seq_len + 4) * 2.0**-53 * slack
            if not np.isfinite(budget):  # inf, the sum of no completion, would pass
                return None
        moves = np.zeros((seq_len, n, 1), dtype=np.intp)
        holds = np.ones(1, dtype=bool)
        for c, t in zip(cs, terms):
            if not t.exact:
                continue
            table = np.asarray(t.table, dtype=np.int64)
            least = table.min(axis=1)
            table = table - least[:, None]
            span = int(table.max(axis=1).sum())
            if span >= DP_CHUNK_CELLS:
                return None
            # The verdict at each shifted sum, by hard_violations_batch's
            # operations; it is constant from cap on.
            score = t.scale * (np.arange(span + 1) + int(least.sum())) + t.offset
            ok = (np.abs(score) if t.absolute else score) - c.tau <= 0.0
            changes = np.flatnonzero(ok[1:] != ok[:-1])
            cap = int(changes[-1]) + 1 if changes.shape[0] else 0
            if moves.shape[2] * (cap + 1) * (seq_len + 2) ** 2 > DP_CHUNK_CELLS:
                return None
            step = np.minimum(np.arange(cap + 1) + table[:, :, None], cap)
            moves = (moves[:, :, :, None] * (cap + 1) + step[:, :, None, :]).reshape(seq_len, n, -1)
            holds = (holds[:, None] & ok[None, : cap + 1]).reshape(-1)
        dp = cls(moves, holds, weights, budget)
        return dp if dp.chunk > 0 else None

    def pick(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(ids, feasible) for a (K, L) stack of states, as project_ids
        returns them before its check; ids are not meaningful where
        feasible is False."""
        ids = np.empty_like(states)
        feasible = np.empty(states.shape[0], dtype=bool)
        for lo in range(0, states.shape[0], self.chunk):
            part = slice(lo, lo + self.chunk)
            ids[part], feasible[part] = self._pick(states[part])
        return ids, feasible

    def suffix(self, states: np.ndarray) -> np.ndarray:
        """The backward pass: the (K, L + 1, cells, L + 2) suffix table of
        a (K, L) stack of states, at most chunk of them.  Entry [k, i, p,
        r + 1] is the least weights sum of positions i.. from cell p with
        exactly r flips from state k; column 0 is inf, so that a flip
        with none left reads inf."""
        k_states, seq_len = states.shape
        cells, width = self.last.shape
        positions = np.arange(seq_len)
        suffix = np.empty((k_states, seq_len + 1, cells, width))
        suffix[:, seq_len] = self.last
        suffix[:, :seq_len, :, 0] = np.inf
        stay = self.stay[positions, states][:, :, :, None, None]
        flip = self.flip[positions, states][:, :, :, None, None]
        for i in range(seq_len - 1, -1, -1):
            after = suffix[:, i + 1].take(self.group_moves[i], axis=1)
            least = after[..., 1:] + stay[:, i]
            np.minimum(least, after[..., :-1] + flip[:, i], out=least).min(axis=1, out=suffix[:, i, :, 1:])
        return suffix

    def _pick(self, states):
        k_states, seq_len = states.shape
        suffix = self.suffix(states)
        ok = suffix[:, 0, 0, 1:] <= self.budget
        feasible = ok.any(axis=1)
        need = ok.argmax(axis=1)
        rows = np.arange(k_states)
        flat = suffix.ravel()
        start = rows * suffix[0].size + 1
        flipped = states[:, :, None] != np.arange(self.weights.shape[1])
        cell = np.zeros(k_states, dtype=np.intp)
        left = np.full(k_states, self.budget)
        ids = np.empty_like(states)
        for i in range(seq_len):
            if not need.any():
                # No flip left: each state keeps the rest of its ids.
                ids[:, i:] = states[:, i:]
                feasible &= suffix[rows, i, cell, 1] <= left
                break
            rest = left[:, None] - self.weights[i]
            ok = flat.take(self.offsets[i][:, cell].T + (start + need)[:, None] - flipped[:, i]) <= rest
            v = ok.argmax(axis=1)
            feasible &= ok[rows, v]
            ids[:, i] = v
            need -= flipped[rows, i, v]
            cell = self.moves[i, v, cell]
            left = rest[rows, v]
        return ids, feasible


def _fewest_flips(states: np.ndarray, n: int, parts: tuple) -> np.ndarray:
    """project_ids's pick, the fewest flips and then the smallest ids, for
    each of a (K, L) stack of one-hot states over n tokens under a set
    with a closed form (see _closed_form for parts).

    The constraints own disjoint rows, so each is solved on its own
    rows.  A state whose table sum S = sum_i table[i, x_i] is d above
    the interval [lo, hi] where the constraint holds moves d positions
    holding a 1 to their row's least 0 token; d below lo, d positions
    holding a 0 to their row's least 1 token.  The positions whose new
    token is smaller than the one held go first, left to right, then
    the others, right to left.  As [lo, hi] is reachable, there are
    always d such positions.

    A flip moves S by at most one, so no qualifying pattern has fewer
    than d flips, and one with d moves each flipped position one step
    toward the interval; the least token of its row that does so gives
    the smallest ids.  Among such patterns the least in lex order moves
    the leftmost positions whose new token is smaller than the held one,
    and of the rest the rightmost, whose new token is larger.
    """
    k_states, seq_len = states.shape
    ids = states
    positions = np.arange(seq_len)
    # A part reads and moves only its own rows, so every part reads the
    # states' cells.
    cell = states + positions * n
    for table, ranks, targets, needs, sides in parts:
        total = table.take(cell).sum(axis=1)
        need = needs[total]
        side = sides[total][:, None]
        # Each state's movable positions in their order, and the first
        # need of them.
        rank = ranks[side, cell]
        last = np.sort(rank, axis=1)[np.arange(k_states), need - 1]
        moved = (rank <= last[:, None]) & (need > 0)[:, None]
        ids = np.where(moved, targets[side, positions], ids)
    return ids


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
    vals = row.tolist()
    if vals.index(max(vals)) == token:
        return row
    # A stable descending order: equal masses keep ascending ids.
    order = [u for u in sorted(range(len(vals)), key=vals.__getitem__, reverse=True) if u != token]
    acc = vals[token]
    k = 0
    while k < len(order):
        level = (acc + vals[order[k]]) / (k + 2)
        acc += vals[order[k]]
        k += 1
        if k == len(order) or vals[order[k]] <= level:
            break
    level = acc / (k + 1)
    eps = min(eps, level / 2)
    out = row.copy()
    out[order[:k]] = level - eps
    out[token] = level + k * eps
    return out


# A decided flip's KL: -log of the mass pooling leaves on the old token.
FLIP_KL = float(-np.log(_force_argmax_row(np.array([1.0, 0.0]), 1))[0])


def flip_kl(states: np.ndarray, picks: np.ndarray, n: int) -> np.ndarray:
    """(K,) KL from the one-hot rows of each (L,) id row of states to
    those rows pooled (or forced) to decode to its row of picks.

    FLIP_KL sits at the old token of each moved position in a zero
    (K, L, N) array, and each state's L * N entries are summed in one
    reduction, as kl_rows sums them; flips times FLIP_KL can differ in
    the last bit.
    """
    k, length = states.shape
    terms = np.zeros((k, length, n))
    rows, cols = np.nonzero(states != picks)
    terms[rows, cols, states[rows, cols]] = FLIP_KL
    return terms.reshape(k, length * n).sum(axis=1)


def _row_flip_costs(rows: np.ndarray) -> np.ndarray:
    """Exact KL cost of making each token the argmax of each row.

    Entry (i, v) is the KL over row i's support from rows[i] to
    _force_argmax_row(rows[i], v, eps=0.0); zero when v already
    decodes, as that row comes back unchanged.
    """
    seq_len, n = rows.shape
    table = np.empty((seq_len, n))
    for i in range(seq_len):
        row = rows[i]
        mask = row > 0
        support = row[mask]
        for v in range(n):
            pooled = _force_argmax_row(row, v, eps=0.0)
            table[i, v] = np.sum(support * np.log(support / pooled[mask]))
    return table


class SearchTerms:
    """A constraint set's projection tables for length-long sequences over
    n tokens.

    fewest_flips holds _fewest_flips's parts when the set has a closed
    form on one-hot states, and is None otherwise (see _closed_form); dp
    is the set's _FlipDP when it has no closed form and the program takes
    it, and None otherwise.  bounds holds the programs that bound
    _decode_search, built on first use: one program for all the
    constraints with position terms when _FlipDP takes them together,
    else one for each such constraint it takes alone.  Every field is read from the constraints' PositionTerms when
    the tables are built, so it holds for as long as they are not
    changed: project_ids and alm_project take one from SearchTerms.of on
    every call.
    """

    def __init__(self, cs: ConstraintSet, seq_len: int, n: int):
        terms = [c.position_terms(seq_len, n) for c in cs]
        self.shape = (seq_len, n)
        self.fewest_flips = _closed_form(cs, terms, seq_len)
        self.dp = None if self.fewest_flips is not None else _FlipDP.of(cs, terms, seq_len, n)
        self._with_terms = [(c, t) for c, t in zip(cs, terms) if t is not None]

    @cached_property
    def bounds(self) -> list[_FlipDP]:
        if not self._with_terms:
            return []
        together = _FlipDP.of(*zip(*self._with_terms), *self.shape)
        if together is not None:
            return [together]
        alone = (_FlipDP.of([c], [t], *self.shape) for c, t in self._with_terms)
        return [dp for dp in alone if dp is not None]

    @classmethod
    def of(cls, cs: ConstraintSet, seq_len: int, n: int) -> SearchTerms:
        """cs's SearchTerms for (L, N) tables, kept on cs and reused while
        (L, N) and every field of every constraint hold the values they
        held when it was built.  Fields are compared by value, arrays by
        their bytes, so a changed tau or weights edited in place build
        anew.  A set with a constraint of a type other than the built-in
        ones is built anew on every call: its terms may read more than
        its fields."""
        key = _fields_key(cs, seq_len, n)
        if key is None:
            return cls(cs, seq_len, n)
        kept = getattr(cs, "_kept_terms", None)
        if kept is not None and kept[0] == key:
            return kept[1]
        terms = cls(cs, seq_len, n)
        object.__setattr__(cs, "_kept_terms", (key, terms))  # cs is frozen
        return terms


# The constraint types whose position terms and tau are read from their
# fields alone.
_BUILT_IN = (LinearScore, TokenCount, Forbidden, Position)


def _fields_key(cs: ConstraintSet, seq_len: int, n: int) -> tuple | None:
    """(L, N), then each constraint's type and its fields with their
    types, an array as its dtype, shape and bytes; None when a
    constraint's type is not built in.  A field's type is in the key
    because equal values of other types (1, 1.0, True) need not build
    equal terms."""
    key: list = [seq_len, n]
    for c in cs:
        if type(c) not in _BUILT_IN:
            return None
        key.append(type(c))
        for name, value in vars(c).items():
            if isinstance(value, np.ndarray):
                value = (value.dtype.str, value.shape, value.tobytes())
            key.append((name, type(value), value))
    return tuple(key)


def _closed_form(cs: ConstraintSet, terms: list, seq_len: int) -> tuple | None:
    """_fewest_flips's parts for the set, or None when it has no closed
    form: it has one when every constraint's terms are exact with a 0/1
    table, no two constraints have a nonzero entry in one row, and each
    constraint holds at some table sum a pattern can reach.

    A part is, per constraint with the interval [lo, hi] of reachable
    sums at which it holds: its (L, N) table, flattened; for each side
    (0: a state whose sum is below lo, 1: above hi), the flattened
    (L, N) rank of position i holding token v among the positions that
    move (i when the new token is smaller than v, else 2L - 1 - i, and
    2L when position i cannot move from v) and the (L,) token each row
    moves to (its least token with a 1 on side 0, with a 0 on side 1);
    and, indexed by the sum 0..L, the flips it needs and its side.
    """
    parts = []
    owned = np.zeros(seq_len, dtype=bool)
    every_sum = np.arange(seq_len + 1)
    positions = every_sum[:seq_len, None]
    for c, t in zip(cs, terms):
        if t is None or not t.exact:
            return None
        table = np.asarray(t.table)
        if ((table != 0) & (table != 1)).any():
            return None
        ones = table.any(axis=1)
        if (ones & owned).any():
            return None
        owned |= ones
        # The constraint's scores, exact on integers, at the sums a
        # pattern reaches; it holds where score - tau <= 0, that is
        # score <= tau.
        score = float(t.scale) * every_sum + float(t.offset)
        holds = (np.abs(score) if t.absolute else score) <= c.tau
        holds[: table.min(axis=1).sum()] = False
        holds[ones.sum() + 1 :] = False
        holds = np.flatnonzero(holds)
        if holds.shape[0] == 0:
            return None
        lo, hi = holds[0], holds[-1]
        n = table.shape[1]
        least_one = np.where(ones, table.argmax(axis=1), n)
        least_zero = np.where(table.all(axis=1), n, table.argmin(axis=1))
        targets = np.stack((least_one, least_zero))
        ranks = np.where(targets[:, :, None] < np.arange(n), positions, 2 * seq_len - 1 - positions)
        movable = (table == np.arange(2)[:, None, None]) & (targets < n)[:, :, None]
        ranks[~movable] = 2 * seq_len
        needs = np.maximum(np.maximum(every_sum - hi, lo - every_sum), 0)
        parts.append((table.ravel(), ranks.reshape(2, -1), targets, needs, (every_sum > hi).astype(np.intp)))
    return tuple(parts)


def _decode_search(
    cs: ConstraintSet, terms: SearchTerms, bases: np.ndarray, costs: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """For each state, the first pattern in (cost, lex) order that cs accepts.

    bases is a (K, L) stack of id rows.  Without costs each row is a
    one-hot state, and a pattern costs its flips, the positions where it
    differs from the state.  With costs, a (K, L, N) table, each row is
    the decode of soft rows, and a pattern sigma of state k costs
    costs[k, i, sigma_i] summed left to right.  terms is cs's SearchTerms
    for (L, N).  Returns the (K, L) int64 patterns and the (K,) mask of
    the states for which one was found; a state without one keeps its
    row.  A pattern is accepted when hard_violations_batch finds no
    violation in it.

    Each state's patterns come from _cheapest_patterns, bounded by the
    programs of terms.bounds: for each, the suffix table of the state's
    row gives the fewest flips r with which the rest of a pattern can
    take a prefix's cell of the program to one that holds, within the
    budget the prefix's weights leave (the program's rounding allowance
    included).  A state whose root is dropped makes no expansion; one
    that makes SEARCH_EXPANSIONS of them without an accepted pattern is
    reported without one.
    """
    k_states, seq_len = bases.shape
    one_hot = costs is None
    if one_hot:
        costs = (np.arange(terms.shape[1]) != bases[:, :, None]).astype(np.int64)
    bounds = terms.bounds
    tables = [(dp.moves.tolist(), dp.weights.tolist(), dp.budget) for dp in bounds]
    ids, found = bases.copy(), np.zeros(k_states, dtype=bool)
    chunk = min([dp.chunk for dp in bounds] + [max(k_states, 1)])
    for lo in range(0, k_states, chunk):
        # Per program, entry [k, i, p, r] is minus the least weights sum
        # of positions i.. from cell p with at most r flips; it grows with
        # r, so bisect_left finds the fewest flips within a budget.
        reach = [-np.minimum.accumulate(dp.suffix(bases[lo : lo + chunk])[..., 1:], axis=3) for dp in bounds]
        for k in range(lo, min(lo + chunk, k_states)):
            programs = [(*tab, r[k - lo].tolist()) for tab, r in zip(tables, reach)]
            for pattern in _cheapest_patterns(costs[k].tolist(), programs, one_hot, SEARCH_EXPANSIONS):
                if (cs.hard_violations_batch(np.asarray([pattern])) <= 0.0).all():
                    ids[k], found[k] = pattern, True
                    break
    return ids, found


def _cheapest_patterns(table: list, programs: list, one_hot: bool, expansions: float = math.inf) -> Iterator[tuple]:
    """One state's patterns of finite cost that no program rules out, in
    (cost, lex) order.

    table is the state's (L, N) costs, a pattern sigma costing
    table[i][sigma_i] summed left to right; with one_hot each cost is a
    flip count.  programs holds (moves, weights, budget, reach) per
    bounding program, as lists, with the state's reach (see
    _decode_search).  A best-first search over prefixes (_best_first),
    which stops after the given number of expansions.  A heap item (key,
    prefix, cost, cells, lefts) stands for every pattern that starts with
    prefix, and holds its cost and each program's cell and budget left.
    A prefix for which some program has no completion is dropped.  With
    one_hot a prefix's key is the larger of its parent's key and its
    flips plus the most flips a program needs for the rest; else it is
    the prefix's cost plus each later position's least cost, added left
    to right.  A rounded sum never falls when a term grows, so a key
    never exceeds the cost of a pattern under it nor falls below its
    parent's, and a whole pattern's key is its cost: whole patterns come
    out in (cost, lex) order.
    """
    seq_len = len(table)
    # Each position's tokens of finite cost, with their costs.
    moves = [[(v, step) for v, step in enumerate(row) if step < math.inf] for row in table]
    least = [min(row) for row in table]
    # Adding a zero cost leaves a sum as it is, so each depth keeps only
    # the nonzero least costs after it.
    later = [[m for m in least[i + 1 :] if m] for i in range(seq_len)]

    def expand(item):
        key, prefix, cost, cells, lefts = item
        i = len(prefix)
        # Each program's tables at position i, with the prefix's cell and budget.
        here = [(p[0][i], p[1][i], p[3][i + 1], cell, left) for p, cell, left in zip(programs, cells, lefts)]
        for v, step in moves[i]:
            child_cells, child_lefts, need = [], [], 0
            for program_moves, weights, reach, cell, left in here:
                cell = program_moves[v][cell]
                left -= weights[v]
                r = bisect_left(reach[cell], -left)
                if r > seq_len:  # no completion holds
                    break
                if r > need:
                    need = r
                child_cells.append(cell)
                child_lefts.append(left)
            else:
                child_cost = child_key = cost + step
                if one_hot:
                    child_key = max(key, child_cost + need)
                else:
                    # Left to right, as the scan sums: not sum(), which
                    # compensates its rounding from Python 3.12.
                    for m in later[i]:
                        child_key += m
                yield child_key, prefix + (v,), child_cost, tuple(child_cells), tuple(child_lefts)

    budgets = tuple(budget for _, _, budget, _ in programs)
    need = max([bisect_left(p[3][0][0], -budget) for p, budget in zip(programs, budgets)], default=0)
    if need > seq_len:
        return
    root = (need if one_hot else 0, (), 0, (0,) * len(programs), budgets)
    yield from _best_first(root, expand, seq_len, expansions)


def _best_first(root: tuple, expand, length: int, budget: float = math.inf) -> Iterator[tuple]:
    """The whole prefixes under root, in the order of their heap items.

    An item is (key, prefix, ...) and stands for every sequence of the
    given length that starts with prefix; expand(item) gives its
    children, each one token longer.  When no child's key is below its
    parent's, no key exceeds the cost of a whole prefix under it, and a
    whole prefix's key is its cost, they come out in (cost, lex) order:
    a tuple sorts before its extensions, so nothing left in the heap
    sorts before a whole prefix popped.  Stops after budget expansions.
    """
    heap = [root]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        item = pop(heap)
        if len(item[1]) == length:
            yield item[1]
        elif budget > 0:
            budget -= 1
            for child in expand(item):
                push(heap, child)
        else:
            return


def position_project(x_in: SeqDist, position: int, token: int) -> SeqDist:
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
    new_row = _force_argmax_row(row, token)
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

    The database also keeps novelty_project_ids's searches in cursors,
    one _ShellWalk per distinct id row, keyed by (n, ids).  A search has
    passed only sequences the database holds, and add is the database's
    only change, so a search stays valid: its next pick is still the
    cheapest absent decode.  Clearing cursors discards work, never
    correctness.
    """

    def __init__(self, seqs=(), mask_id: int | None = None):
        self._seen: set[Sequence] = set(seqs)
        self.mask_id = mask_id
        self.cursors: dict[tuple, Iterator[tuple]] = {}

    def __contains__(self, seq: Sequence) -> bool:
        return seq in self._seen or (self.mask_id is not None and self.mask_id in seq.ids)

    def __len__(self) -> int:
        return len(self._seen)

    def add(self, seq: Sequence) -> None:
        self._seen.add(seq)

    def claim(self, seq: Sequence) -> bool:
        """Add seq unless it is stored already; returns whether it was
        added.  One hash of seq; seq must not hold mask_id, which this
        does not check."""
        seen = self._seen
        size = len(seen)
        seen.add(seq)
        return len(seen) > size

    @classmethod
    def from_corpus(cls, corpus: Corpus) -> "NoveltyDb":
        return cls((s for s, _ in corpus.entries), mask_id=corpus.vocab.mask_id)


def novelty_project(x_in: SeqDist, db: NoveltyDb) -> SeqDist:
    """Force the decode to the cheapest sequence absent from db.

    Candidate cost is the argmax probability given up position by
    position, sum_i (max_v x[i, v] - x[i, sigma_i]), summed left to
    right; the minimum is found in whole-sequence cost order, breaking
    ties toward the lexicographically smallest sequence, by the
    best-first search over prefixes (_cheapest_patterns) on the gaps,
    with no bounds and MASK's gaps infinite, started on each call and
    kept nowhere; the first decode db claims is the pick.  The selected sequence is added to db; rows that already
    decode to it pass through unchanged, and otherwise only the positions
    whose decode moves are forced, by _force_argmax_row; the rows are not
    renormalised.

    Raises NoveltySaturationError when db covers all N^L sequences.
    """
    rows = x_in.rows
    gaps = rows.max(axis=1, keepdims=True) - rows
    # A decode holding db's MASK costs inf, so the search never yields
    # it; it yields in-range tuples, so no candidate needs Sequence's
    # checks.
    gaps[:, np.arange(rows.shape[1]) == db.mask_id] = math.inf
    for seq in _cheapest_patterns(gaps.tolist(), [], False):
        if db.claim(Sequence.unchecked(seq)):
            break
    else:
        raise NoveltySaturationError("database already contains every sequence")
    decoded = rows.argmax(axis=1).tolist()
    if decoded == list(seq):
        return x_in
    out = rows.copy()
    for i, (a, v) in enumerate(zip(decoded, seq)):
        if a != v:
            out[i] = _force_argmax_row(rows[i], v)
    return SeqDist(out)


def novelty_project_ids(state: np.ndarray, n: int, db: NoveltyDb) -> tuple[int, ...]:
    """novelty_project of the one-hot rows of state, given and returned as
    token ids: claims the cheapest sequence absent from db and returns
    its ids.

    state is an (L,) row of ids below n.  On its one-hot rows a decode's
    cost is its Hamming distance from state, so the claim is the first
    sequence of _ShellWalk(state) that db lacks.  The walk is kept in
    db.cursors keyed by (n, ids), so each distinct state resumes one
    walk however many calls hand it in.

    Raises NoveltySaturationError when db covers all N^L sequences.
    """
    ids = tuple(np.asarray(state).tolist())
    key = (n, ids)
    walk = db.cursors.get(key)
    if walk is None:
        if not ids:
            raise ValueError("empty sequence")
        if not all(0 <= v < n for v in ids):
            raise ValueError(f"state ids must lie in [0, {n})")
        walk = db.cursors[key] = iter(_ShellWalk(ids, n, db.mask_id))
    # The walk yields in-range tuples free of db's MASK, so no candidate
    # needs Sequence's checks.
    for seq in walk:
        if db.claim(Sequence.unchecked(seq)):
            return seq
    raise NoveltySaturationError("database already contains every sequence")


class _ShellWalk:
    """Every sequence over the n tokens but mask_id, in (Hamming distance
    from ids, lex) order: novelty_project's order on the one-hot rows
    of ids, whose gaps are 0.0 at each position's token and 1.0 elsewhere.

    Shell d holds the sequences at distance d.  A position holding MASK
    changes in every one of them, so with m such positions the shells
    run from d = m to L.  Shell 0 is ids itself.  In lex order shell 1
    is the moves to a smaller token, positions left to right, then the
    moves to a larger token, positions right to left.  Every other shell
    is a depth-first walk over the positions, tokens ascending, that
    spends exactly d flips; on a walk's last flip the rest of the
    sequence is shell 1 of the rest of ids.  Iterating gives a
    generator, which resumes where its caller's last claim stopped.  The
    generators refer to the walk and not back, so dropping one frees it
    at once, with no cycle left for the garbage collector.
    """

    __slots__ = ("ids", "mask_id", "tokens", "must", "can")

    def __init__(self, ids: tuple, n: int, mask_id: int | None):
        self.ids, self.mask_id = ids, mask_id
        self.tokens = tokens = tuple(v for v in range(n) if v != mask_id)
        length = len(ids)
        # must[i] counts the MASK positions from i on, which every
        # sequence changes; can[i] the positions from i on that can
        # change at all.
        must, can = [0] * (length + 1), [0] * (length + 1)
        for i in range(length - 1, -1, -1):
            must[i] = must[i + 1] + (ids[i] == mask_id)
            can[i] = can[i + 1] + (ids[i] == mask_id or len(tokens) > 1)
        self.must, self.can = must, can

    def __iter__(self) -> Iterator[tuple]:
        if not self.tokens:
            return
        if not self.must[0]:
            yield self.ids
        for d in range(max(self.must[0], 1), self.can[0] + 1):
            yield from self._flips((), 0, d)

    def _flips(self, head: tuple, i: int, budget: int) -> Iterator[tuple]:
        """head + the sequences budget flips from ids[i:], in lex order."""
        if budget == 1:
            yield from self._one_flip(head, i)
            return
        v0, must, can = self.ids[i], self.must[i + 1], self.can[i + 1]
        for v in self.tokens:
            left = budget - (v != v0)
            if must <= left <= can:
                yield from self._flips(head + (v,), i + 1, left)

    def _one_flip(self, head: tuple, i: int) -> Iterator[tuple]:
        """head + the sequences one flip from ids[i:], in lex order."""
        ids, tokens = self.ids, self.tokens
        if self.must[i]:
            k = ids.index(self.mask_id, i)
            before, after = head + ids[i:k], ids[k + 1 :]
            for v in tokens:
                yield before + (v,) + after
            return
        for k in range(i, len(ids)):
            before, after, v0 = head + ids[i:k], ids[k + 1 :], ids[k]
            for v in tokens:
                if v >= v0:
                    break
                yield before + (v,) + after
        for k in range(len(ids) - 1, i - 1, -1):
            before, after, v0 = head + ids[i:k], ids[k + 1 :], ids[k]
            for v in tokens:
                if v > v0:
                    yield before + (v,) + after

