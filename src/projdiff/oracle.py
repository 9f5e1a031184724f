"""Independent reference implementations used to validate the fast paths.

Everything here recomputes results from first principles (direct
enumeration, no shared numerical code with the modules under test) and
is intentionally brute-force.  Problem sizes are capped accordingly.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .constraints import ConstraintSet
from .core import Corpus, SeqDist, Sequence
from .noise import NoiseKernel


def enumerate_posterior(corpus: Corpus, kernel: NoiseKernel, xt_decoded: Sequence, a_t: float) -> SeqDist:
    """Posterior marginals by explicit Bayes over every corpus entry.

    Per-position likelihood of observing w given entry token e at signal
    level a:

      masked:  a if w = e, (1 - a) if w = MASK, else 0
      uniform: a * 1[w = e] + (1 - a) / N

    Raises ValueError when every entry has zero likelihood.
    """
    n = kernel.vocab_size
    mask_id = kernel.mask_id
    posterior: list[float] = []
    for entry_seq, prior_w in corpus.entries:
        like = 1.0
        for w, e in zip(xt_decoded, entry_seq):
            if kernel.kind == "masked":
                if w == mask_id:
                    like *= 1.0 - a_t
                elif w == e:
                    like *= a_t
                else:
                    like = 0.0
                    break
            else:
                like *= a_t * (1.0 if w == e else 0.0) + (1.0 - a_t) / n
        posterior.append(prior_w * like)
    total = sum(posterior)
    if total <= 0.0:
        raise ValueError("no corpus entry compatible with the observation")
    length = corpus.length
    rows = [[0.0] * n for _ in range(length)]
    for (entry_seq, _), post_w in zip(corpus.entries, posterior):
        for i, e in enumerate(entry_seq):
            rows[i][e] += post_w / total
    return SeqDist.normalized(np.asarray(rows))


MAX_GRID_N = 4
MAX_GRID_STEP = 1e-3 * (1 + 1e-9)


@lru_cache(maxsize=64)
def _grid_scan(row_key: tuple[float, ...], grid_step: float) -> tuple[tuple[float, ...], tuple[tuple[int, ...] | None, ...]]:
    """Scan the whole simplex grid once for a row, splitting by argmax.

    Returns, for each token v, the minimum of KL(row || q) over grid
    points q whose argmax (ties to the lowest id) is v, together with the
    integer grid coordinates attaining it.  Tokens whose region contains
    no finite-KL point get (inf, None).
    """
    r = np.asarray(row_key)
    n = r.shape[0]
    g = round(1.0 / grid_step)
    logtab = np.full(g + 1, -np.inf)
    logtab[1:] = np.log(np.arange(1, g + 1) / g)
    const = float(sum(p * math.log(p) for p in row_key if p > 0.0))
    supp = [v for v in range(n) if r[v] > 0.0]

    best_kl = [math.inf] * n
    best_counts: list[tuple[int, ...] | None] = [None] * n

    def consider(counts_by_token: list[np.ndarray]):
        # counts_by_token: n aligned integer arrays, one grid point per index
        cost = np.zeros(counts_by_token[0].shape)
        for v in supp:
            cost = cost - r[v] * logtab[counts_by_token[v]]
        mx = counts_by_token[0].copy()
        for v in range(1, n):
            np.maximum(mx, counts_by_token[v], out=mx)
        assigned = np.full(cost.shape, -1, dtype=np.int64)
        for v in range(n):
            hit = (assigned < 0) & (counts_by_token[v] == mx)
            assigned[hit] = v
        for v in range(n):
            sel = assigned == v
            if not np.any(sel):
                continue
            kl_sel = cost[sel]
            j = int(np.argmin(kl_sel))
            val = const + float(kl_sel[j])
            if val < best_kl[v]:
                best_kl[v] = val
                idx = np.flatnonzero(sel)[j]
                best_counts[v] = tuple(int(c[idx]) for c in counts_by_token)

    if n == 1:
        consider([np.asarray([g])])
    elif n == 2:
        c1 = np.arange(g + 1)
        consider([c1, g - c1])
    elif n == 3:
        for a in range(g + 1):
            c2 = np.arange(g - a + 1)
            consider([np.full_like(c2, a), c2, g - a - c2])
    else:
        for a in range(g + 1):
            rest = g - a
            c2g, c3g = np.meshgrid(np.arange(rest + 1), np.arange(rest + 1), indexing="ij")
            keep = c2g + c3g <= rest
            c2 = c2g[keep]
            c3 = c3g[keep]
            consider([np.full_like(c2, a), c2, c3, rest - c2 - c3])

    return tuple(best_kl), tuple(best_counts)


def grid_kl_project(row, constraint, grid_step: float = 1e-3) -> tuple[np.ndarray, float]:
    """Exhaustive KL projection of one probability row onto a constraint.

    Minimizes KL(row || q) over all simplex grid points q (coordinates
    are multiples of grid_step) whose argmax token, as a length-1
    sequence, satisfies the constraint's hard form.  Returns the best
    point and its KL.
    """
    r = np.asarray(row, dtype=np.float64)
    if r.ndim != 1:
        raise ValueError("expected a single probability row")
    n = r.shape[0]
    if n > MAX_GRID_N:
        raise ValueError(f"grid search capped at N <= {MAX_GRID_N}")
    if grid_step > MAX_GRID_STEP:
        raise ValueError("grid_step must be <= 1e-3")
    feasible = [v for v in range(n) if constraint.hard_violation(Sequence((v,))) == 0.0]
    if not feasible:
        raise ValueError("no feasible argmax token")
    kls, points = _grid_scan(tuple(float(x) for x in r), float(grid_step))
    g = round(1.0 / grid_step)
    best_v = min(feasible, key=lambda v: kls[v])
    if points[best_v] is None:
        raise ValueError("no finite-divergence feasible grid point")
    q = np.asarray(points[best_v]) / g
    return q, float(kls[best_v])


MAX_NOVELTY_SPACE = 4096


def enumerate_novelty(x_in, db) -> tuple[Sequence, float]:
    """Cheapest not-yet-seen decode by scanning all N^L sequences.

    The cost of a candidate is the total argmax-probability given up:
    sum_i (max_v rows[i, v] - rows[i, sigma_i]).  Ties resolve to the
    lexicographically smallest sequence.  Raises ValueError when db
    already contains every sequence.
    """
    rows = x_in.rows if isinstance(x_in, SeqDist) else np.asarray(x_in)
    length, n = rows.shape
    if n**length > MAX_NOVELTY_SPACE:
        raise ValueError(f"novelty enumeration capped at N^L <= {MAX_NOVELTY_SPACE}")
    rowmax = [float(max(rows[i])) for i in range(length)]
    best: tuple[Sequence, float] | None = None
    for ids in itertools.product(range(n), repeat=length):
        seq = Sequence(ids)
        if seq in db:
            continue
        cost = 0.0
        for i, v in enumerate(ids):
            cost += rowmax[i] - float(rows[i][v])
        if best is None or cost < best[1]:
            best = (seq, cost)
    if best is None:
        raise ValueError("every sequence is already in the database")
    return best


MAX_FLIP_SPACE = 4096


def _feasible_patterns(length: int, n: int, cs: ConstraintSet) -> tuple[np.ndarray, np.ndarray]:
    """All N^L patterns in lexicographic order and which are feasible.

    A pattern is feasible when it has no hard violation.  Raises
    ValueError when N^L exceeds MAX_FLIP_SPACE and when no pattern is
    feasible.
    """
    if n**length > MAX_FLIP_SPACE:
        raise ValueError(f"pattern enumeration capped at N^L <= {MAX_FLIP_SPACE}")
    patterns = np.asarray(list(itertools.product(range(n), repeat=length)), dtype=np.int64)
    feasible = (cs.hard_violations_batch(patterns) <= 0.0).all(axis=1)
    if not feasible.any():
        raise ValueError("no pattern satisfies the constraints")
    return patterns, feasible


def enumerate_fewest_flips(x_in, cs: ConstraintSet) -> tuple[Sequence, float]:
    """Cheapest feasible decode of one-hot rows by scanning all N^L patterns.

    On a one-hot row, moving the argmax to any other token pools 1 and 0
    at 1/2, so every flip costs ln 2 and the minimum-KL feasible pattern
    is the one with the fewest flips.  A pattern is feasible when it has
    no hard violation.  Ties resolve to the lexicographically
    smallest pattern.  Returns the pattern and its cost, flips * ln 2.
    Raises ValueError on rows that are not one-hot and when no pattern
    is feasible.
    """
    rows = x_in.rows if isinstance(x_in, SeqDist) else np.asarray(x_in)
    length, n = rows.shape
    if not (np.isin(rows, (0.0, 1.0)).all() and (rows.sum(axis=1) == 1.0).all()):
        raise ValueError("expected one-hot rows")
    patterns, feasible = _feasible_patterns(length, n, cs)
    flips = np.where(feasible, (patterns != rows.argmax(axis=1)).sum(axis=1), length + 1)
    k = int(np.argmin(flips))
    return Sequence(tuple(int(v) for v in patterns[k])), int(flips[k]) * math.log(2.0)


def pooled_flip_cost(row, token: int) -> float:
    """Least KL(row || q) over the points q whose argmax is token.

    The minimizer pools token with some set A of competitors: token and
    each member of A take their mean mass, and every other coordinate
    keeps its own.  Every set A is tried; a pooled point with an
    unpooled coordinate above the pooled level does not decode to token
    and is dropped, and the least KL among the rest is returned.
    """
    r = [float(x) for x in row]
    others = [u for u in range(len(r)) if u != token]
    best = math.inf
    for size in range(len(others) + 1):
        for pool in itertools.combinations(others, size):
            level = (r[token] + sum(r[u] for u in pool)) / (size + 1)
            if any(r[u] > level for u in others if u not in pool):
                continue
            kl = sum(r[u] * math.log(r[u] / level) for u in (token, *pool) if r[u] > 0.0)
            best = min(best, kl)
    return best


def enumerate_cheapest_pattern(rows: np.ndarray, cs: ConstraintSet) -> tuple[Sequence, float]:
    """Cheapest feasible decode of any (L, N) rows by scanning all N^L patterns.

    A pattern costs the sum over positions of pooled_flip_cost, the
    least KL that gives each row its token as argmax; the minimum-KL
    rows that decode to a pattern change each row on its own, so this
    is the KL of the cheapest feasible projection.  A pattern is
    feasible when it has no hard violation.  Ties resolve to the
    lexicographically smallest pattern.  Returns the pattern and its
    cost.  Raises ValueError when no pattern is feasible.
    """
    length, n = rows.shape
    patterns, feasible = _feasible_patterns(length, n, cs)
    table = np.asarray([[pooled_flip_cost(row, v) for v in range(n)] for row in rows])
    costs = np.where(feasible, table[np.arange(length), patterns].sum(axis=1), np.inf)
    k = int(np.argmin(costs))
    return Sequence(tuple(int(v) for v in patterns[k])), float(costs[k])
