"""Projection operators that force decoded feasibility on probability rows.

Three operators cover the three constraint regimes:

  alm_project       KL projection for any constraint mix: a lattice
                    search over argmax patterns on one-hot rows, else
                    an iterative augmented-Lagrangian solve over the
                    differentiable constraint surrogates
  position_project  closed-form KL projection for "position p decodes to
                    token v"
  novelty_project   the cheapest decode not yet in a database, found in
                    whole-sequence cost order by a Lawler k-best search
                    (_NoveltyCursor) that is resumed for each distinct
                    input, then closed-form row edits to force it

All three take a stack of probability rows x and return a nearby stack y
whose decoded sequence is feasible, keeping KL(x || y) small.

  novelty_project_ids  novelty_project's pick for the one-hot rows of an
                    (L,) id row, given and returned as token ids, with
                    no rows built: there a decode's cost is its Hamming
                    distance from the ids, so the search is a resumable
                    walk over Hamming shells in lex order (_ShellWalk)
                    with no heap; the sampler's novelty step calls it

  project_ids       the decode alm_project's lattice search picks for
                    each of a (K, L) stack of one-hot states, given and
                    returned as token ids, with no rows built: in closed
                    form (_fewest_flips: the fewest flips, then the
                    smallest ids) for one TokenCount or Forbidden,
                    Position pins on distinct positions, and user sets
                    of exact 0/1 tables on rows of their own; for a
                    lone LinearScore by single moves (_linear_descent),
                    handing the states near tau or near a tie to the
                    search; otherwise (mixed families, pins sharing a
                    position, constraints without terms) in one batched
                    search (_decode_search); pooled_rows turns a picked
                    decode back into the minimum-KL rows

Each sweep of the lattice search bounds every move's constraint scores
and cost on grids built from per-position tables
(Constraint.position_terms, stacked once in SearchTerms), with a
tolerance that covers float rounding, and scores exactly only the moves
those bounds leave able to win, so its result is that of scoring every
move.  When every table is integer the grid holds each move's exact
excess and nothing is scored again; on integer cost tables a state that
qualifies at the least cost any qualifying pattern can have stops with
no sweep to confirm it.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import backend
from .constraints import ConstraintSet, LinearScore
from .core import Corpus, SeqDist, Sequence, check_counts, decode


@dataclass(frozen=True)
class AlmConfig:
    """Augmented-Lagrangian solver settings.

    The objective on candidate rows y is

        KL(x || y) + sum_i lam_i * d_i + (mu_i / 2) * d_i^2

    where d_i = max(0, g_i(phi(y)) - tau_i) uses the relaxed constraint
    scores on phi, the noiseless relaxation at RELAX_TEMPERATURE.  lam
    starts at zero and mu at mu_init.  Inner iterations take eta-sized
    gradient steps in logit coordinates; outer iterations raise lam by
    mu * d (measured on the decoded iterate) and scale mu by MU_GROWTH up
    to MU_MAX.  The loop stops once every decoded violation is 0, that
    is, every constraint's score is at most its tau.
    """

    mu_init: float = 1.0
    eta: float = 0.2
    max_inner_iter: int = 10
    max_outer_iter: int = 1000

    def __post_init__(self):
        if not self.eta > 0:  # NaN fails these comparisons too
            raise ValueError("eta must be positive")
        check_counts(self, max_inner_iter=1, max_outer_iter=1)
        if not 0 < self.mu_init <= MU_MAX:
            raise ValueError(f"need 0 < mu_init <= {MU_MAX}")


@dataclass
class AlmResult:
    """Outcome of one augmented-Lagrangian projection."""

    projected: SeqDist
    feasible: bool
    outer_iters: int
    final_violation: np.ndarray
    kl_moved: float


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

# The penalty weight mu grows by MU_GROWTH per outer iteration left
# infeasible, up to MU_MAX; the penalties score the noiseless relaxation
# at RELAX_TEMPERATURE.
MU_GROWTH = 2.0
MU_MAX = 1000.0
RELAX_TEMPERATURE = 0.5


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
    xi: np.ndarray | None,
    temp: float,
) -> float:
    """Augmented-Lagrangian objective at logits z for anchor rows x_rows.

    Value is KL(x || softmax(z)) plus, per constraint, lam * d plus
    (mu / 2) * d^2 with d = max(0, relaxed_score(phi) - tau) evaluated
    on the relaxed rows phi.  The solver itself only ever consumes the
    gradient; this scalar exists so the gradient can be checked against
    finite differences of an independently coded value.  Raises
    ValueError unless temp is positive.
    """
    _check_temperature(temp)
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
    penalty term had a relaxed score above its tau at z.  This is the
    exact inner-loop step direction used by alm_project.  Raises
    ValueError unless temp is positive.
    """
    _check_temperature(temp)
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


def alm_project(x_in: SeqDist, cs: ConstraintSet | SearchTerms, config: AlmConfig = AlmConfig()) -> AlmResult:
    """Project rows x_in to a nearby stack whose decode satisfies cs.

    An already-feasible input is returned unchanged with zero outer
    iterations.  An input of one-hot rows (the sampler's states) is
    decided by project_ids from its own pattern, also with zero outer
    iterations; the gradient loop runs only when project_ids leaves a
    violation, and on soft rows.  When the iteration budget runs out
    the best iterate found (smallest worst-case decoded violation) is
    returned with feasible=False.  cs is the constraint set, or its
    SearchTerms for x_in's shape, as project_ids takes it; given the
    set, an infeasible input builds one SearchTerms, which both of the
    call's searches use.
    """
    ops = backend.ops
    terms = cs if isinstance(cs, SearchTerms) else None
    if terms is not None:
        cs = terms.cs
    x_rows = x_in.rows
    m = len(cs)
    lam = np.zeros(m)
    mu = np.full(m, config.mu_init, dtype=np.float64)

    base = decode(x_rows).ids
    hard = cs.hard_violations(Sequence(base))
    if float(hard.max()) <= 0.0:
        return AlmResult(projected=x_in, feasible=True, outer_iters=0, final_violation=hard, kl_moved=0.0)
    if terms is None:
        terms = SearchTerms(cs, *x_rows.shape)

    if _one_hot_mask(x_rows).all():
        # On one-hot rows the loop only hands its pattern to the closing
        # search; the search alone decides whenever it reaches a
        # qualifying pattern from the input's own.
        ids, feasible = project_ids(np.asarray([base]), x_rows.shape[1], terms)
        if feasible[0]:
            return _pooled_result(x_rows, cs, tuple(ids[0].tolist()), True, 0)

    z = np.log(np.maximum(x_rows, Z_INIT_FLOOR))
    y = ops.row_softmax(z)
    hard = cs.hard_violations(decode(y))
    best_rows, best_hard = y, hard
    outer = 0
    stalled = 0
    prev_decode = decode(y).ids

    while float(hard.max()) > 0.0 and outer < config.max_outer_iter:
        outer += 1
        z_before = z.copy()
        outer_any_active = False
        for _ in range(config.max_inner_iter):
            dz, any_active = alm_gradient(z, x_rows, cs, lam, mu, None, RELAX_TEMPERATURE)
            outer_any_active = outer_any_active or any_active
            z = z - config.eta * dz
        y = ops.row_softmax(z)
        dec = decode(y)
        hard = cs.hard_violations(dec)
        if float(hard.max()) < float(best_hard.max()):
            best_rows, best_hard = y, hard
        if float(hard.max()) > 0.0:
            lam = lam + mu * hard
            mu = np.minimum(mu * MU_GROWTH, MU_MAX)
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

    # The loop's job is to pick which argmax pattern to decode to; for a
    # fixed pattern the minimum-KL rows have a closed form (per-row
    # pooling).  A short lattice search around the iterate's pattern then
    # lands on the cheapest nearby qualifying pattern instead of wherever
    # the penalty dynamics overshot, and can also repair patterns the
    # gated multiplier term cannot reach.  A feasible best iterate starts
    # the search at zero excess, so only an infeasible one gets past it.
    found, residual = _decode_search(
        _row_flip_costs(x_rows)[None], terms, np.asarray([decode(best_rows).ids]), np.asarray([base])
    )
    ids, residual = tuple(found[0].tolist()), float(residual[0])
    loop_excess = float(best_hard.sum())
    if residual == 0.0 or residual < loop_excess:
        return _pooled_result(x_rows, cs, ids, residual == 0.0, outer)
    projected = SeqDist.normalized(best_rows)
    return AlmResult(
        projected=projected,
        feasible=False,
        outer_iters=outer,
        final_violation=best_hard,
        kl_moved=ops.kl_rows(x_rows, projected.rows),
    )


def project_ids(states: np.ndarray, n: int, cs: ConstraintSet | SearchTerms) -> tuple[np.ndarray, np.ndarray]:
    """Decode targets of a (K, L) stack of one-hot states, by their ids.

    Row k holds the ids of a state whose rows are one-hot over n tokens.
    cs is the constraint set, or its SearchTerms for L and n, which a
    caller that projects many stacks under unchanged constraints builds
    once.
    Returns the (K, L) int64 ids that alm_project's lattice search picks
    for each state and the (K,) mask of the states it made feasible
    (every violation 0); a feasible state keeps its own ids.  No
    probability rows are built: on one-hot rows every flip costs ln 2,
    so a pattern's summed cost is a strictly increasing function of its
    Hamming distance to the state, equal distances give equal cost bits,
    and the search ranks patterns by that distance.

    When the set has a closed form (SearchTerms.fewest_flips: one
    count or forbidden constraint, position pins on distinct positions,
    or any constraints with exact 0/1 tables on rows of their own, that
    some pattern satisfies), every state gets its pick from
    _fewest_flips and qualifies.  A lone LinearScore's states take
    _linear_descent, single moves scored where they can win, and only
    those it hands off (a score near tau, a move near a tie) go through
    one batched search (_decode_search).  Every other set (mixed
    families, two pins on one position, a constraint without terms, a
    set no pattern satisfies) sends all K states through that search.
    A state left infeasible needs alm_project's gradient loop, which
    this function does not run.
    """
    states = np.asarray(states, dtype=np.int64)
    terms = _terms_for(cs, states.shape[1], n)
    if terms.fewest_flips is not None:
        return _fewest_flips(states, n, terms.fewest_flips), np.ones(states.shape[0], dtype=bool)
    if not terms.lone_linear:
        return _search_one_hot(states, n, terms)
    ids, feasible, rest = _linear_descent(states, terms)
    if rest.shape[0]:
        ids[rest], feasible[rest] = _search_one_hot(states[rest], n, terms)
    return ids, feasible


def _search_one_hot(states: np.ndarray, n: int, terms: SearchTerms) -> tuple[np.ndarray, np.ndarray]:
    """_decode_search from each of a (K, L) stack of one-hot states, as
    (ids, feasible)."""
    flips = (np.arange(n) != states[:, :, None]).astype(np.int8)
    ids, residual = _decode_search(flips, terms, states, states)
    return ids, residual == 0.0


def _linear_descent(states: np.ndarray, terms: SearchTerms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_decode_search's pick for each of a (K, L) stack of one-hot states
    under a lone LinearScore, by single moves only, where it is sure to
    be that pick.

    Returns the (K, L) ids reached, the (K,) mask of states that hold
    there, and the indices of the states it hands off: their ids and
    feasible entries are to be filled by _decode_search from the state.

    Each sweep estimates every single move of each failing state as its
    excess plus the move's change of table sum, within tol / 2 of the
    move's excess as hard_violations_batch gives it (tol is the search's
    own, 8 (L + 4) u A; see _decode_search).  It scores exactly only the
    moves estimated within tol of the least estimate or of tau; a move
    estimated more than tol below tau holds, and every other move has
    a greater excess than some scored one.  The state takes the least
    (excess, flips, ids) key among them, ids ranked as _fewest_flips
    ranks single moves, and stops once it holds.

    A state whose excess is at most 4 tol, or whose least estimate lies
    within 2 tol of zero, is handed off; one whose every estimate is
    above 2 tol stops.  Otherwise the search's pair moves cannot win: in
    exact arithmetic a pair scores above its single move by the
    reduction of the flip it reverts, which was above tol when taken as
    that sweep's least excess, and no pair qualifies from a score more
    than 4 tol above tau, nor does a cheaper move once the state holds.
    So pairs and sideways moves matter only near tau or near a tie,
    where the state is handed off.
    """
    seq_len = states.shape[1]
    table = terms.tables[:, :, 0]
    n = table.shape[1]
    tol = 0.0 if terms.tol is None else float(terms.tol[0])
    tokens = np.arange(n)
    positions = np.arange(seq_len)
    # A single move (i, v)'s ids rank: i when v is below the token held,
    # else 2L - 1 - i, then v.
    rank_left = positions[:, None] * n + tokens
    rank_right = (2 * seq_len - 1 - positions[:, None]) * n + tokens
    ids = states.copy()
    excess = terms.cs.hard_violations_batch(states)[:, 0]
    live = np.flatnonzero(excess != 0.0)
    handed = []
    # A state that does not hold after a step has flipped a position it
    # held at the start, so L + 1 sweeps settle every state; any left
    # over is handed off.
    for _ in range(seq_len + 1):
        if live.shape[0] == 0:
            break
        cur, base, e = ids[live], states[live], excess[live]
        # delta[k, i, v]: the change of table sum when position i of
        # state k moves to token v; no move to the token held.
        delta = table - table[positions, cur][:, :, None]
        delta[cur[:, :, None] == tokens] = np.inf
        best = delta.reshape(live.shape[0], seq_len * n).min(axis=1)
        # Comparisons that a NaN fails hand the state off.
        clear = e > 4.0 * tol
        step = clear & (best < -2.0 * tol)
        handed.append(live[~(step | (clear & (best > 2.0 * tol)))])
        live, cur, base, e, best, delta = (a[step] for a in (live, cur, base, e, best, delta))
        estimate = delta + e[:, None, None]
        move_excess = np.where(estimate < -tol, 0.0, np.inf)
        scored = (delta <= (best + tol)[:, None, None]) | (np.abs(estimate) <= tol)
        owner, at, to = np.nonzero(scored)
        rows = cur[owner]
        rows[np.arange(owner.shape[0]), at] = to
        move_excess[owner, at, to] = terms.cs.hard_violations_batch(rows)[:, 0]
        # The flips each move adds (-1, 0 or 1), then its ids rank.
        flips = (base[:, :, None] != tokens).astype(np.int64) - (cur != base)[:, :, None]
        order = (flips + 1) * (2 * seq_len * n) + np.where(tokens < cur[:, :, None], rank_left, rank_right)
        move_excess = move_excess.reshape(live.shape[0], seq_len * n)
        least = move_excess.min(axis=1)
        pick = np.where(move_excess == least[:, None], order.reshape(move_excess.shape), _INT64_MAX).argmin(axis=1)
        ids[live, pick // n] = pick % n
        excess[live] = least
        live = live[least != 0.0]
    handed.append(live)
    return ids, excess == 0.0, np.sort(np.concatenate(handed))


def _fewest_flips(states: np.ndarray, n: int, parts: tuple) -> np.ndarray:
    """The search's pick for each of a (K, L) stack of one-hot states
    over n tokens under a set with a closed form (see _closed_form for
    parts).

    The constraints own disjoint rows, so each is solved on its own
    rows.  A state whose table sum S = sum_i table[i, x_i] is d above
    the interval [lo, hi] where the constraint holds moves d positions
    holding a 1 to their row's least 0 token; d below lo, d positions
    holding a 0 to their row's least 1 token.  The positions whose new
    token is smaller than the one held go first, left to right, then
    the others, right to left.  As [lo, hi] is reachable, there are
    always d such positions.

    This is what _decode_search reaches.  Its first key is the summed
    excess, which is convex in each S, zero exactly on [lo, hi] and
    strictly monotone off it, so while a constraint is off its interval
    every sweep takes a single flip that moves its S one step closer:
    a flip that moves no S, or a pair move (a revert and a flip), does
    not lower the excess as much.  Those flips all cost one, and the
    least ids among them change the leftmost movable position whose new
    token is smaller than its held one, else the rightmost.  On the
    interval's edge every strictly cheaper move reverts a flip and
    leaves it, so the state stops at d flips, the fewest any qualifying
    pattern needs.
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


def pooled_rows(x_rows: np.ndarray, ids) -> SeqDist:
    """The minimum-KL rows of x_rows that decode to ids, row by row."""
    return SeqDist.normalized(np.stack([_force_argmax_row(x_rows[i], ids[i]) for i in range(x_rows.shape[0])]))


def _pooled_result(x_rows, cs, ids, feasible, outer) -> AlmResult:
    """AlmResult for the minimum-KL rows of x_rows that decode to ids."""
    projected = pooled_rows(x_rows, ids)
    return AlmResult(
        projected=projected,
        feasible=feasible,
        outer_iters=outer,
        final_violation=cs.hard_violations(Sequence(ids)),
        kl_moved=backend.ops.kl_rows(x_rows, projected.rows),
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


def _segment_starts(labels: np.ndarray) -> np.ndarray:
    """Whether each row opens a run of equal labels."""
    return np.concatenate(([True], labels[1:] != labels[:-1]))


def _first_min(cands: np.ndarray, cost: np.ndarray, excess: np.ndarray, segment: np.ndarray) -> np.ndarray:
    """Per segment, the first row of cands at the least (excess, cost, ids) key.

    segment labels each row with its segment; the result holds one row
    index per segment, in label order.  Each is the row
    np.lexsort(tuple(cands[:, ::-1].T) + (cost, excess))[0] picks on its
    segment alone: one stable sort of all rows by segment, then key, so a
    full tie keeps the segment's lowest index.
    """
    order = np.lexsort(tuple(cands[:, ::-1].T) + (cost, excess, segment))
    return order[_segment_starts(segment[order])]


# Grid cells per chunk of move groups: SEARCH_CHUNK_ROWS * L, the ids
# of that many candidate rows, unless one group alone is wider.  Caps
# the search's temporaries however many states a batch holds.
SEARCH_CHUNK_ROWS = 1024

# The search's tolerance is 8 (L + 4) u A, u being the unit roundoff of
# float64 (see _decode_search).
_TOL_ULPS = 8.0 * 2.0**-53


class SearchTerms:
    """A constraint set with every constraint's PositionTerms on
    length-long sequences over n tokens, stacked along a last axis of m.

    cs is the set.  tables is (L, N, m) float64, each constraint's table
    times its scale, and zero for a constraint without terms (free);
    offset and taus are (m,) arrays, and so are tol, absolute and free
    unless no constraint needs them (None).  fewest_flips holds
    _fewest_flips's parts when the set has a closed form on one-hot
    states, and is None otherwise (see _closed_form); lone_linear says
    whether the set is one LinearScore (see _linear_descent).  Every
    field is read from the constraints when the stack is built, so it
    holds for as long as they are not changed: a sampling run builds one
    and hands it to project_ids in place of its ConstraintSet.
    """

    def __init__(self, cs: ConstraintSet, seq_len: int, n: int):
        self.cs = cs
        terms = [c.position_terms(seq_len, n) for c in cs]
        zero = np.zeros((seq_len, n))
        scaled = [zero if t is None else t.scale * np.asarray(t.table, dtype=np.float64) for t in terms]
        self.tables = np.stack(scaled, axis=-1)
        self.offset = np.asarray([0.0 if t is None else t.offset for t in terms], dtype=np.float64)
        self.taus = np.asarray([c.tau for c in cs], dtype=np.float64)
        tol = [0.0 if t is None or t.exact else _tolerance(h, t.offset) for t, h in zip(terms, scaled)]
        absolute = [t is not None and t.absolute for t in terms]
        free = [t is None for t in terms]
        self.absolute = np.asarray(absolute) if any(absolute) else None
        self.free = np.asarray(free) if any(free) else None
        self.tol = np.asarray(tol) if any(tol) or self.free is not None else None
        self.fewest_flips = _closed_form(cs, terms, seq_len)
        self.lone_linear = len(cs) == 1 and type(cs.constraints[0]) is LinearScore

    def excess_bounds(self, score: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bounds of the total excess, the summed
        max(0, score - tau) over the m constraints, at scores (..., m)
        within tolerance of the exact ones, overwriting score; one array
        twice when every score is exact."""
        if self.tol is None:
            if self.absolute is not None:
                np.abs(score, out=score, where=self.absolute)
            excess = self._total(score)
            return excess, excess
        lo = score - self.tol
        hi = score
        hi += self.tol
        if self.absolute is not None:  # |x| over x in [lo, hi]
            lo, hi = (
                np.where(self.absolute, np.maximum(np.maximum(lo, -hi), 0.0), lo),
                np.where(self.absolute, np.maximum(-lo, hi), hi),
            )
        if self.free is not None:  # no terms: the score is unbounded
            lo[..., self.free] = -np.inf
            hi[..., self.free] = np.inf
        return self._total(lo), self._total(hi)

    def _total(self, score):
        # The operations of hard_violations_batch, then the sum over
        # constraints, in place: each is monotone in the score.
        score -= self.taus
        return np.maximum(score, 0.0, out=score).sum(axis=-1)


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


def _tolerance(scaled: np.ndarray, offset: float) -> float:
    """8 (L + 4) u A for a scaled (L, N) table; see _decode_search."""
    return _TOL_ULPS * (scaled.shape[0] + 4) * (np.abs(scaled).max(axis=1).sum() + abs(offset))


def _terms_for(cs: ConstraintSet | SearchTerms, seq_len: int, n: int) -> SearchTerms:
    """cs's SearchTerms for (L, N) tables; raises ValueError when cs is
    SearchTerms for another shape."""
    terms = cs if isinstance(cs, SearchTerms) else SearchTerms(cs, seq_len, n)
    if terms.tables.shape[:2] != (seq_len, n):
        raise ValueError(f"search terms are for {terms.tables.shape[:2]} tables, not {(seq_len, n)}")
    return terms


def _decode_search(
    tables: np.ndarray,
    cs: ConstraintSet | SearchTerms,
    starts: np.ndarray,
    bases: np.ndarray,
    max_sweeps: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Steepest descent over argmax patterns near each of K start patterns.

    tables[k, i, v] is state k's cost of decoding position i to token v
    (a flip-cost table, or, on one-hot rows, whether v differs from the
    state's own token); cs is the constraint set, or its SearchTerms for
    the tables' L and N; starts and bases are (K, L) id arrays.  Returns
    the (K, L) int64 patterns reached and the (K,) total hard violation
    left at each.

    Patterns are ordered by (total hard violation, summed per-row cost,
    the ids themselves): descent first repairs violations one flip per
    sweep, then minimizes cost among qualifying patterns, those whose
    every score is at most its tau (total violation 0); the ids
    component keeps ties deterministic.  Violations are totalled
    rather than maxed so that multi-constraint repairs always have a
    downhill flip available.  Moves are single-position changes plus
    pairs that revert one already-changed position back to the base
    while changing another, which lets a misplaced flip migrate to a
    cheaper row.  Each state starts from the better of its start and
    base patterns, the start on a tie (scored once when starts is
    bases).  A qualifying state only takes strictly cheaper moves.  Each
    state moves to the least key among its moves if that is below its
    current key, and otherwise stops, so each result equals that of
    scoring its moves one by one.

    On integer tables a state also stops, with no sweep to confirm it,
    once it qualifies at a cost no qualifying pattern goes below:
    sum_i min_v t[i, v] when its base qualifies, and otherwise that sum
    plus min_j (min_{v != base_j} t[j, v] - min_v t[j, v]), as such a
    pattern differs from the base somewhere.  Integer costs are exact,
    so no strictly cheaper move exists.

    Each sweep takes the moves of every state still moving at once, in
    groups: a state's single moves, then one group per changed position
    reverted.  A chunk of whole groups, at most SEARCH_CHUNK_ROWS * L
    grid cells, is first bounded on (G, L, N) grids whose cell (g, i, v)
    is group g's pattern with position i at token v (a cell at the token
    held or at the reverted position is the current pattern or one of
    its single moves, so it changes no state's least key):

      - each constraint's score, phi of its PositionTerms table sum (the
        group's L entries, plus the moved position's new entry less its
        held one), all constraints at once on a stacked (L, N, m) table;
      - each move's cost, updated the same way from the group's L
        entries of the cost table; exact on integer tables.

    A score or cost from float entries carries a tolerance tol =
    8 (L + 4) u A, where u = 2^-53 and A = |scale| sum_i max_v
    |table[i, v]| + |offset| (a cost table has scale 1, offset 0).  A
    float sum of k terms, by any tree, is within (k - 1) u / (1 - (k -
    1) u) times the terms' total magnitude of the exact sum (Higham,
    Accuracy and Stability of Numerical Algorithms, section 4.2).  The
    exact value, hard_scores (L terms summed by any tree, then phi) or
    cost_of (L costs left to right), is thus within about (L + 2) u A of
    phi at the exact sum.  The grid value adds L + 3 terms, each table
    entry rounded once when scaled: the group's L entries, the offset,
    and the moved position's new entry and held one, whose magnitudes
    total at most 3 A; it is within about (3L + 9) u A.  The two together
    stay below tol with room for rounding score +- tol.  Integer tables
    with integer scale and offset give exact scores (no tolerance).
    Score bounds then go through the very operations of
    hard_violations_batch and of the excess total, all monotone, so they
    bound each move's exact excess; a constraint without PositionTerms
    has scores in (-inf, inf) and bounds no move.  When every
    constraint's scores are exact, the two bounds are one value: the
    move's exact excess, the value hard_violations_batch and the
    excess total give.

    A move is pruned when it cannot be its state's least key below the
    current key:

      1. its lowest possible excess is above the least of its state's
         current excess and the highest possible excesses of its state's
         moves in the chunk; or
      2. its state qualifies, and its lowest possible cost is not below
         the current cost.

    Comparisons with a NaN bound fail, and such a move stays.  Only the
    survivors get id rows, exact cost (the integer update, or cost_of on
    float tables) and exact excess: the grid's when every score is
    exact, and otherwise from one ConstraintSet.hard_violations_batch
    call per chunk.  When a sweep fits in one chunk, one _first_min
    picks each state's least (excess, cost, ids) key over the live
    states' own patterns, put first, and the survivors; otherwise it
    picks each chunk's winners first, and then once more over the own
    patterns and those winners.  A state whose pick is its own pattern
    stops.
    """
    k_states, seq_len, n = tables.shape
    if max_sweeps is None:
        max_sweeps = seq_len + 8
    terms = _terms_for(cs, seq_len, n)
    cs = terms.cs
    flat = tables.reshape(k_states * seq_len, n)
    positions = np.arange(seq_len)
    same = starts is bases
    starts = np.asarray(starts, dtype=np.int64)
    bases = starts if same else np.asarray(bases, dtype=np.int64)
    # Integer tables give exact costs by update, with no cost_of.
    exact = not np.issubdtype(tables.dtype, np.floating)

    def excess_of(cands):
        return cs.hard_violations_batch(cands).sum(axis=-1)

    def cost_of(cands, owner):
        return np.cumsum(flat[(owner * seq_len)[:, None] + positions, cands], axis=1)[:, -1]

    # Each state starts from the least key of its start and its base,
    # the start on a tie.
    everyone = np.arange(k_states)
    cur, cur_excess, cur_cost = starts.copy(), excess_of(starts), cost_of(starts, everyone)
    base_excess = cur_excess
    if not same:
        both = np.concatenate((starts, bases))
        excess = np.concatenate((cur_excess, excess_of(bases)))
        cost = np.concatenate((cur_cost, cost_of(bases, everyone)))
        base_excess = excess[k_states:]
        pick = _first_min(both, cost, excess, np.concatenate((everyone, everyone)))
        cur, cur_excess, cur_cost = both[pick], excess[pick], cost[pick]
    if n == 1:  # no other token to move to
        return cur, cur_excess

    # Flat indices: entry (i, v) of an (L, N) table is i * N + v, and
    # entry (k, i, v) of the (K, L, N) tables is k * L * N + i * N + v.
    h = terms.tables.reshape(seq_len * n, -1)
    entries = tables.ravel()
    cost_tol = None if exact else _TOL_ULPS * (seq_len + 4) * np.abs(tables).max(axis=2).sum(axis=1)
    cells = seq_len * n
    per_chunk = max(1, SEARCH_CHUNK_ROWS * seq_len // cells)
    at_position = positions * n
    live = everyone
    if exact:  # a state qualifying at its floor has no cheaper move left
        floor =_least_qualifying_cost(tables, bases, base_excess == 0.0)
        live = np.flatnonzero((cur_excess != 0.0) | (cur_cost > floor))

    def survivors(gs, gr, cost_cap):
        """(candidate rows, their states, their exact costs and excesses)
        of the moves of groups gs (states) with reverted positions gr (-1
        for none) that survive the bounds; cost_cap[k] is the highest
        cost state k can take, by the strictly-cheaper rule."""
        # Each group's pattern before its move, its scaled table sums and
        # its cost.
        start_ids = cur[gs]
        paired = np.flatnonzero(gr >= 0)
        start_ids[paired, gr[paired]] = bases[gs[paired], gr[paired]]
        held = start_ids + at_position
        held_terms = h[held]
        held_cost = entries.take((gs * cells)[:, None] + held)
        # Grid cell (g, i, v): group g's pattern with position i at token
        # v.  A cell at the token held, or at the reverted position, is
        # the current pattern or one of its single moves: it can neither
        # go below the current key nor hide a lesser move, so it stays.
        score = terms.tables - held_terms[:, :, None]
        score += (held_terms.sum(axis=1) + terms.offset)[:, None, None]
        exc_lo, exc_hi = terms.excess_bounds(score)
        cost = tables[gs] + held_cost.sum(axis=1)[:, None, None]
        cost -= held_cost[:, :, None]
        cost_lo = cost if exact else cost - cost_tol[gs][:, None, None]
        # Per group, then per state: the least highest possible excess.
        least_excess = exc_hi.reshape(gs.shape[0], cells).min(axis=1)
        opens = _segment_starts(gs)
        if not opens.all():
            least_excess = np.minimum.reduceat(least_excess, np.flatnonzero(opens))[np.cumsum(opens) - 1]
        least_excess = np.minimum(least_excess, cur_excess[gs])
        # Comparisons that NaN bounds fail keep their moves.
        prune = exc_lo > least_excess[:, None, None]
        prune |= cost_lo > cost_cap[gs][:, None, None]
        cell = np.flatnonzero(np.logical_not(prune, out=prune))
        group, pos, tok = np.unravel_index(cell, exc_lo.shape)
        cands = start_ids[group]
        cands[np.arange(cell.shape[0]), pos] = tok
        owner = gs[group]
        cost = cost.ravel()[cell] if exact else cost_of(cands, owner)
        # Exact scores leave one bound, the exact excess; no survivor
        # leaves nothing to score.
        excess = exc_lo.ravel()[cell] if terms.tol is None or cell.shape[0] == 0 else excess_of(cands)
        return cands, owner, cost, excess

    for _ in range(max_sweeps):
        if live.shape[0] == 0:
            break
        # Groups: each live state's single moves (revert -1), then one
        # group per position it has changed, reverted to base.
        opts = np.ones((live.shape[0], seq_len + 1), dtype=bool)
        opts[:, 1:] = cur[live] != bases[live]
        group_state, group_revert = np.nonzero(opts)
        group_state = live[group_state]
        group_revert -= 1
        # A qualifying state only takes strictly cheaper moves.
        qualifies = cur_excess == 0.0
        limit = np.where(qualifies, cur_cost, np.inf)
        cost_cap = np.where(qualifies, np.nextafter(cur_cost, -np.inf), np.inf)
        # Each live state's own pattern comes first, so a move wins only
        # at a strictly smaller key.
        found = [(cur[live], cur_cost[live], cur_excess[live], live)]
        chunked = group_state.shape[0] > per_chunk
        for g in range(0, group_state.shape[0], per_chunk):
            chunk = slice(g, g + per_chunk)
            cands, owner, cost, excess = survivors(group_state[chunk], group_revert[chunk], cost_cap)
            if cands.shape[0] == 0:
                continue
            excess[cost >= limit.take(owner)] = np.inf
            if chunked:  # keep only each state's winner in this chunk
                pick = _first_min(cands, cost, excess, owner)
                cands, owner, cost, excess = cands[pick], owner[pick], cost[pick], excess[pick]
            found.append((cands, cost, excess, owner))
        cands, cost, excess, owner = (np.concatenate(parts) for parts in zip(*found))
        pick = _first_min(cands, cost, excess, owner)
        pick = pick[pick >= live.shape[0]]
        live = owner[pick]
        cur[live], cur_cost[live], cur_excess[live] = cands[pick], cost[pick], excess[pick]
        if exact:
            live = live[(cur_excess[live] != 0.0) | (cur_cost[live] > floor[live])]
    return cur, cur_excess


_INT64_MAX = np.iinfo(np.int64).max


def _least_qualifying_cost(tables: np.ndarray, bases: np.ndarray, base_qualifies: np.ndarray) -> np.ndarray:
    """(K,) least summed cost a qualifying pattern of each state can have
    on integer (K, L, N) tables with N >= 2; see _decode_search."""
    costs = tables.astype(np.int64)
    least = costs.min(axis=2)
    floor = least.sum(axis=1)
    # With each base entry at the largest int64, the min over the other
    # N - 1 tokens is the min over the row.
    costs.reshape(-1)[np.arange(0, costs.size, tables.shape[2]) + bases.ravel()] = _INT64_MAX
    step = (costs.min(axis=2) - least).min(axis=1)
    return np.where(base_qualifies, floor, floor + step)


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

    The database also holds the novelty searches in cursors, one per
    distinct input: novelty_project keys a _NoveltyCursor over its rows
    by (shape, bytes), and novelty_project_ids keys a _ShellWalk over
    its id row by (n, ids).  A search has passed only sequences the
    database holds, and add is the database's only change, so the
    database only grows and a search stays valid: its next pick is still
    the cheapest absent decode.  Clearing cursors discards work, never
    correctness.
    """

    def __init__(self, seqs=(), mask_id: int | None = None):
        self._seen: set[Sequence] = set(seqs)
        self.mask_id = mask_id
        self.cursors: dict[tuple, _NoveltyCursor | Iterator[tuple]] = {}

    def __contains__(self, seq: Sequence) -> bool:
        return seq in self._seen or (self.mask_id is not None and self.mask_id in seq.ids)

    def __len__(self) -> int:
        return len(self._seen)

    def add(self, seq: Sequence) -> None:
        self._seen.add(seq)

    @classmethod
    def from_corpus(cls, corpus: Corpus) -> "NoveltyDb":
        return cls((s for s, _ in corpus.entries), mask_id=corpus.vocab.mask_id)


class _NoveltyCursor:
    """One input's decodes in (cost, lex) order, resumable across calls.

    Built from the input's rows, it keeps what every call on them reads:
    gaps, the flip cost max_v x[i, v] - x[i, u] of each position and
    token as nested tuples, and decode, the rows' argmax ids.

    Lawler's k-best partition (Management Science 18(7), 1972).  Each
    position's tokens are ranked by (gap, id); the root decode takes
    every position's first-ranked token.  A heap item
    (cost, bound, seq, j, r) stands for seq and its subtree: seq[:j] is
    fixed, position j holds its rank-r token or a later one, and every
    later position is free.  Expanding it pushes, for each i >= j, seq
    with position i moved to its next-ranked token (and every later
    position at its first-ranked token, as seq already holds them),
    with fixed prefix length i.  A child differs from its parent at one
    position, by a token of larger (gap, id), so its cost, summed left
    to right like oracle.enumerate_novelty's, is no smaller.

    On an exact gap tie the child is also lexicographically larger, so
    heap order is (cost, lex) order.  Rounding can still tie two sums
    whose gaps differ by a few ulps, and then a descendant may be
    lexicographically smaller at equal cost.  So a subtree whose free
    positions hold such a near tie carries bound, a lower bound on its
    descendants (its decode with zeros from the first near-tied
    position on), and its decode is re-pushed as an expanded item
    (j = -1) once its children are in the heap; elsewhere bound is seq
    itself and the decode is final when popped.
    """

    __slots__ = ("gaps", "decode", "orders", "tied_from", "heap")

    def __init__(self, rows: np.ndarray, mask_id: int | None):
        gaps = rows.max(axis=1, keepdims=True) - rows  # flip cost per position/token
        length = gaps.shape[0]
        self.gaps = tuple(map(tuple, gaps.tolist()))
        self.decode = rows.argmax(axis=1).tolist()
        ranked = np.argsort(gaps, axis=1, kind="stable").tolist()
        # Every completion of a decode holding a banned MASK is in db already.
        self.orders = tuple(tuple(v for v in row if v != mask_id) for row in ranked)
        # A left-to-right sum of L nonnegative terms is off by at most
        # about (L - 1) * 2^-53 times the exact sum (Higham, Accuracy and
        # Stability of Numerical Algorithms, section 4.2), so two sums
        # that differ in one term by more than tol, which covers that
        # error on both with room to spare, round to different floats.
        ascending = np.sort(gaps, axis=1)
        tol = 8.0 * length * 2.0**-53 * float(ascending[:, -1].sum())
        steps = ascending[:, 1:] - ascending[:, :-1]
        near = ((steps > 0.0) & (steps <= tol)).any(axis=1).tolist()
        tied_from = [length] * (length + 1)
        for i in range(length - 1, -1, -1):
            tied_from[i] = i if near[i] else tied_from[i + 1]
        self.tied_from = tuple(tied_from)
        self.heap: list[tuple] = []
        if all(self.orders):
            root = tuple(order[0] for order in self.orders)
            cost = 0.0
            for row, v in zip(self.gaps, root):
                cost += row[v]
            self.heap.append((cost, self._bound(root, 0), root, 0, 0))

    def _bound(self, seq: tuple, i: int) -> tuple:
        k = self.tied_from[i]
        return seq if k == len(seq) else seq[:k] + (0,) * (len(seq) - k)

    def next_absent(self, db: NoveltyDb) -> Sequence:
        """Pop decodes until one is absent from db; raises
        NoveltySaturationError once the heap is empty."""
        heap, orders, gaps = self.heap, self.orders, self.gaps
        length = len(orders)
        while heap:
            cost, bound, seq, j, r = heapq.heappop(heap)
            if j >= 0:
                prefix = 0.0
                for i in range(j):
                    prefix += gaps[i][seq[i]]
                for i in range(j, length):
                    k = r + 1 if i == j else 1
                    if k < len(orders[i]):
                        v = orders[i][k]
                        child = seq[:i] + (v,) + seq[i + 1 :]
                        child_cost = prefix + gaps[i][v]
                        for p in range(i + 1, length):
                            child_cost += gaps[p][seq[p]]
                        heapq.heappush(heap, (child_cost, self._bound(child, i), child, i, k))
                    prefix += gaps[i][seq[i]]
                if bound is not seq:
                    heapq.heappush(heap, (cost, seq, seq, -1, 0))
                    continue
            candidate = Sequence(seq)
            if candidate not in db:
                return candidate
        raise NoveltySaturationError("database already contains every sequence")


def novelty_project(x_in: SeqDist, db: NoveltyDb) -> SeqDist:
    """Force the decode to the cheapest sequence absent from db.

    Candidate cost is the argmax probability given up position by
    position, sum_i (max_v x[i, v] - x[i, sigma_i]), summed left to
    right; the minimum is found in whole-sequence cost order, breaking
    ties toward the lexicographically smallest sequence.  The search is
    resumed per distinct input: db keeps a cursor for these rows (see
    NoveltyDb), built on the first call with them, so a later call with
    equal rows goes on from where this one stopped and reuses the
    cursor's gaps and decode.  The selected sequence is added to db;
    rows that already decode to it pass through unchanged, and otherwise
    only the positions whose decode moves are forced (forced_rows).

    Raises NoveltySaturationError when db covers all N^L sequences.
    """
    rows = x_in.rows
    key = (rows.shape, rows.tobytes())
    cursor = db.cursors.get(key)
    if cursor is None:
        cursor = db.cursors[key] = _NoveltyCursor(rows, db.mask_id)
    selected = cursor.next_absent(db)
    db.add(selected)
    if cursor.decode == list(selected.ids):
        return x_in
    return SeqDist(forced_rows(rows, cursor.decode, selected.ids))


def novelty_project_ids(state: np.ndarray, n: int, db: NoveltyDb) -> tuple[int, ...]:
    """novelty_project of the one-hot rows of state, given and returned as
    token ids: claims the cheapest sequence absent from db and returns
    its ids.

    state is an (L,) row of ids below n.  On its one-hot rows a decode's
    cost is its Hamming distance from state, so the claim is the first
    sequence of _ShellWalk(state) that db lacks.  The walk is kept in
    db keyed by (n, ids), which never equals novelty_project's
    (shape, bytes) key, so each distinct state resumes one walk however
    many calls hand it in.

    Raises NoveltySaturationError when db covers all N^L sequences.
    """
    ids = tuple(np.asarray(state).tolist())
    key = (n, ids)
    walk = db.cursors.get(key)
    if walk is None:
        if not all(0 <= v < n for v in ids):
            raise ValueError(f"state ids must lie in [0, {n})")
        walk = db.cursors[key] = iter(_ShellWalk(ids, n, db.mask_id))
    for seq in walk:
        candidate = Sequence(seq)
        if candidate not in db:
            db.add(candidate)
            return seq
    raise NoveltySaturationError("database already contains every sequence")


class _ShellWalk:
    """Every sequence over the n tokens but mask_id, in (Hamming distance
    from ids, lex) order: _NoveltyCursor's order on the one-hot rows of
    ids, whose gaps are 0.0 at each position's token and 1.0 elsewhere.

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


def forced_rows(rows: np.ndarray, decode: list, ids) -> np.ndarray:
    """A copy of rows, whose argmax ids are decode, with each row where
    ids differs from decode forced to decode to ids by _force_argmax_row;
    not renormalised."""
    out = rows.copy()
    for i, (a, v) in enumerate(zip(decode, ids)):
        if a != v:
            out[i] = _force_argmax_row(rows[i], v)
    return out
