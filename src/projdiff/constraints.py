"""Sequence-level constraints with relaxed and hard evaluations.

Every constraint exposes a scalar score g with the convention that the
constraint holds iff g <= tau, so the violation max(0, g - tau) is zero
exactly on the feasible set.  Each score comes in two forms:

  hard_scores(ids)     evaluated on a (K, L) stack of decoded id
                       sequences, one score per sequence; hard_score(seq)
                       is the same computation on one sequence
  relaxed_score(dist)  evaluated on (L, N) probability rows, typically
                       the sharpened relaxation of a candidate

relaxed_grad returns the (L, N) gradient of the relaxed score so that an
optimizer can move probability rows; at one-hot rows the two scores
coincide for all families here.

position_terms(length, n) optionally writes the hard score as a sum of
per-position table entries passed through a map phi (PositionTerms).
Projection reads these tables to find a one-hot state's pattern with
the fewest flips.  A set whose every constraint has exact terms
(integer table, scale and offset) with a 0/1 table, no two constraints
using one row, is projected in closed form (projection._fewest_flips):
TokenCount, Forbidden, and Position pins on distinct positions.  Any
other set whose constraints all have terms, at most one of them inexact
(a LinearScore), is projected by a dynamic program over positions
(projection._FlipDP) that tracks each exact constraint's table sum and
the least sum of the inexact one's table.  A set holding a constraint
without terms (the base class returns None), or two inexact ones, goes
through an exact best-first search (projection._decode_search), which
accepts a pattern by hard_scores and bounds its search by the tables of
the constraints that have them.  Projection reads the tables when it
projects, and a set made of the built-in types keeps them for its next
projection while every field holds its value, so a constraint changed
between two projections is read afresh by the second.
The fields that index tables or count occurrences (token, k, position)
must be integers.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .core import Sequence, Vocabulary, as_rows, check_counts


@dataclass(frozen=True)
class PositionTerms:
    """A hard score as a per-position table and an affine map phi.

    In exact arithmetic hard_score(ids) = phi(sum_i table[i, ids[i]]) on
    every length-long id sequence, where table is (L, N) and phi(S) =
    scale * S + offset, or its absolute value when absolute is set.
    hard_scores may evaluate this in floating point in any order: sum the
    L terms by any tree, then apply phi with at most three roundings.
    An integer table with integer scale and offset declares the scores
    exact.
    """

    table: np.ndarray
    scale: float
    offset: float
    absolute: bool = False

    @property
    def exact(self) -> bool:
        """Whether the table is integer and so are scale and offset."""
        integer = np.issubdtype(np.asarray(self.table).dtype, np.integer)
        return integer and float(self.scale).is_integer() and float(self.offset).is_integer()


class Constraint:
    """Interface; see module docstring for the score convention.

    A subclass must define hard_scores (and, for alm_gradient's relaxed
    penalties, relaxed_score and relaxed_grad).  It may define position_terms
    when its hard score has that form; projection then finds a one-hot
    state's pattern with the fewest flips from the table, and bounds its
    search by it in a set that needs the search.
    """

    name: str
    tau: float

    def hard_scores(self, ids: np.ndarray) -> np.ndarray:
        """Scores of the (K, L) integer id rows, shape (K,)."""
        raise NotImplementedError

    def hard_score(self, seq: Sequence) -> float:
        return float(self.hard_scores(np.asarray([seq.ids]))[0])

    def position_terms(self, length: int, n: int) -> PositionTerms | None:
        """The hard score's per-position form on length-long sequences
        over n tokens, or None when it has none (a set holding it is
        then projected by the best-first search, which scores its
        patterns by hard_scores alone)."""
        return None

    def relaxed_score(self, dist) -> float:
        raise NotImplementedError

    def relaxed_grad(self, dist) -> np.ndarray:
        raise NotImplementedError

    def check_fits(self, n: int, length: int) -> None:
        """Raise ValueError unless the constraint applies to length-long
        sequences over token ids 0..n-1; by default, checks self.token."""
        if not 0 <= self.token < n:
            raise ValueError(f"{self.name}: token {self.token} is outside 0..{n - 1}")

    def hard_violation(self, seq: Sequence) -> float:
        return max(0.0, self.hard_score(seq) - self.tau)

    def _check_tau(self):
        if not self.tau >= 0:  # NaN fails this too
            raise ValueError(f"{self.name}: tau must be nonnegative, got {self.tau!r}")


@dataclass
class LinearScore(Constraint):
    """Mean per-position linear functional: g = (1/L) sum_i w . rows_i.

    With weights in [0, 1] this models a bounded attribute score (for
    example, the fraction of flagged tokens) capped at tau.
    """

    weights: np.ndarray
    tau: float
    name: str = "linear_score"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 1:
            raise ValueError("weights must be a vector over the vocabulary")
        if not np.isfinite(self.weights).all():
            raise ValueError(f"{self.name}: weights must be finite")
        self._check_tau()

    def check_fits(self, n: int, length: int) -> None:
        if self.weights.shape != (n,):
            raise ValueError(f"{self.name}: weights have shape {self.weights.shape}, need ({n},)")

    def hard_scores(self, ids: np.ndarray) -> np.ndarray:
        # The sum and division np.mean makes, without its overhead.
        return self.weights.take(ids).sum(axis=1) / ids.shape[1]

    def position_terms(self, length: int, n: int) -> PositionTerms:
        return PositionTerms(np.broadcast_to(self.weights, (length, n)), 1.0 / length, 0.0)

    def relaxed_score(self, dist) -> float:
        rows = as_rows(dist)
        return float((rows @ self.weights).mean())

    def relaxed_grad(self, dist) -> np.ndarray:
        rows = as_rows(dist)
        return np.tile(self.weights / rows.shape[0], (rows.shape[0], 1))

    @classmethod
    def from_weights_file(cls, path, vocab: Vocabulary, tau: float, name: str = "linear_score") -> "LinearScore":
        """Read token<TAB>weight lines; unlisted tokens weigh zero."""
        w = np.zeros(vocab.size)
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise ValueError(f"{path}:{lineno}: expected token<TAB>weight")
                w[vocab.id_of(parts[0])] = float(parts[1])
        return cls(w, tau, name)


_OPS = ("le", "ge", "eq")


@dataclass
class TokenCount(Constraint):
    """Occurrence count of one token compared against a target k.

      le: g = count - k      (at most k occurrences when tau = 0)
      ge: g = k - count      (at least k)
      eq: g = |count - k|    (exactly k)

    The relaxed count is the summed probability of the token across
    positions; for eq the gradient at the kink count = k is taken as 0.
    """

    token: int
    op: str
    k: int
    tau: float = 0.0
    name: str = ""

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"op must be one of {_OPS}, got {self.op!r}")
        # check_fits checks the token's range against the vocabulary.
        check_counts(self, token=-math.inf, k=0)
        if not self.name:
            sym = {"le": "<=", "ge": ">=", "eq": "=="}[self.op]
            self.name = f"count[{self.token}]{sym}{self.k}"
        self._check_tau()

    def _score(self, count: float) -> float:
        if self.op == "le":
            return count - self.k
        if self.op == "ge":
            return self.k - count
        return abs(count - self.k)

    def hard_scores(self, ids: np.ndarray) -> np.ndarray:
        return self._score((ids == self.token).sum(axis=1).astype(np.float64))

    def position_terms(self, length: int, n: int) -> PositionTerms:
        table = np.zeros((length, n), dtype=np.int64)
        table[:, self.token] = 1
        if self.op == "ge":
            return PositionTerms(table, -1, self.k)
        return PositionTerms(table, 1, -self.k, absolute=self.op == "eq")

    def relaxed_score(self, dist) -> float:
        rows = as_rows(dist)
        return self._score(float(rows[:, self.token].sum()))

    def relaxed_grad(self, dist) -> np.ndarray:
        rows = as_rows(dist)
        g = np.zeros_like(rows)
        count = float(rows[:, self.token].sum())
        if self.op == "le":
            sign = 1.0
        elif self.op == "ge":
            sign = -1.0
        else:
            sign = float(np.sign(count - self.k))
        g[:, self.token] = sign
        return g


class Forbidden(TokenCount):
    """The token must not occur: count <= 0."""

    def __init__(self, token: int, tau: float = 0.0, name: str = ""):
        super().__init__(token=token, op="le", k=0, tau=tau, name=name or f"forbidden[{token}]")


@dataclass
class Position(Constraint):
    """Position p must decode to token v.

    The score is the argmax margin at row p, max_{u != v} rows[p, u] -
    rows[p, v], which is negative exactly when v dominates the row.  On a
    one-hot row the score is -1 when satisfied and +1 when not, so with
    tau = 0 the hard constraint is exact token equality.
    """

    position: int
    token: int
    tau: float = 0.0
    name: str = ""

    def __post_init__(self):
        check_counts(self, position=0, token=-math.inf)
        if not self.name:
            self.name = f"position[{self.position}]={self.token}"
        self._check_tau()

    def check_fits(self, n: int, length: int) -> None:
        if self.position >= length:
            raise ValueError(f"{self.name}: position {self.position} is outside 0..{length - 1}")
        super().check_fits(n, length)

    def hard_scores(self, ids: np.ndarray) -> np.ndarray:
        if self.position >= ids.shape[1]:
            raise ValueError(f"{self.name}: sequence too short")
        return np.where(ids[:, self.position] == self.token, -1.0, 1.0)

    def position_terms(self, length: int, n: int) -> PositionTerms:
        if self.position >= length:
            raise ValueError(f"{self.name}: sequence too short")
        table = np.zeros((length, n), dtype=np.int64)
        table[self.position, self.token] = 1
        return PositionTerms(table, -2, 1)

    def _rival(self, row: np.ndarray) -> int:
        masked = row.copy()
        masked[self.token] = -np.inf
        return int(np.argmax(masked))

    def relaxed_score(self, dist) -> float:
        rows = as_rows(dist)
        row = rows[self.position]
        return float(row[self._rival(row)] - row[self.token])

    def relaxed_grad(self, dist) -> np.ndarray:
        rows = as_rows(dist)
        g = np.zeros_like(rows)
        g[self.position, self._rival(rows[self.position])] = 1.0
        g[self.position, self.token] = -1.0
        return g


@dataclass(frozen=True)
class ConstraintSet:
    """Ordered collection of uniquely named constraints."""

    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        if len(self.constraints) == 0:
            raise ValueError("constraint set is empty")
        names = [c.name for c in self.constraints]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate constraint names: {names}")

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.constraints]

    def check_fits(self, n: int, length: int) -> None:
        """Raise ValueError naming the first constraint that does not
        apply to length-long sequences over token ids 0..n-1."""
        for c in self.constraints:
            c.check_fits(n, length)

    def hard_violations_batch(self, ids) -> np.ndarray:
        """Hard violations of every constraint on a stack of sequences.

        ids is a (K, L) integer array of decoded sequences; the result is
        the (K, m) array whose entry (k, j) is max(0, g_j(ids[k]) -
        tau_j) for the j-th of the m constraints.
        """
        ids = np.ascontiguousarray(ids)
        out = np.empty((ids.shape[0], len(self.constraints)))
        for j, c in enumerate(self.constraints):
            out[:, j] = c.hard_scores(ids) - c.tau
        return np.maximum(out, 0.0, out=out)

    def hard_violations(self, seq: Sequence) -> np.ndarray:
        return self.hard_violations_batch(np.asarray([seq.ids]))[0]

    def satisfied(self, seq: Sequence) -> bool:
        return bool(np.all(self.hard_violations(seq) <= 0.0))


def parse_constraint_spec(spec, vocab: Vocabulary, base_dir: str = ".") -> ConstraintSet:
    """Build a ConstraintSet from a parsed JSON array of objects.

    Each object carries a "type" plus type-specific fields:

      {"type": "token_count", "token": "a", "op": "le", "k": 2, "tau": 0}
      {"type": "forbidden", "token": "b"}
      {"type": "position", "position": 0, "token": "a"}
      {"type": "linear_score", "weights_file": "w.tsv", "tau": 0.25}

    Token fields are token strings resolved against the vocabulary;
    weights_file paths resolve relative to base_dir.  k and position
    must be JSON integers: 2.5, true or "3" raise ValueError, as they
    do in the constructors.  tau must be a JSON number: true, "0.5" or
    null raise ValueError.
    """
    if not isinstance(spec, list):
        raise ValueError("constraint spec must be a JSON array")
    out: list[Constraint] = []
    for i, obj in enumerate(spec):
        if not isinstance(obj, dict) or "type" not in obj:
            raise ValueError(f"constraint {i}: expected an object with a 'type'")
        ctype = obj["type"]
        tau = obj.get("tau", 0.0)
        if isinstance(tau, bool) or not isinstance(tau, numbers.Real):
            raise ValueError(f"constraint {i}: tau must be a number, got {tau!r}")
        tau = float(tau)
        name = obj.get("name", "")
        if ctype == "token_count":
            out.append(
                TokenCount(
                    token=vocab.id_of(obj["token"]),
                    op=obj.get("op", "le"),
                    k=obj["k"],
                    tau=tau,
                    name=name,
                )
            )
        elif ctype == "forbidden":
            out.append(Forbidden(vocab.id_of(obj["token"]), tau=tau, name=name))
        elif ctype == "position":
            out.append(Position(obj["position"], vocab.id_of(obj["token"]), tau=tau, name=name))
        elif ctype == "linear_score":
            path = os.path.join(base_dir, obj["weights_file"])
            out.append(LinearScore.from_weights_file(path, vocab, tau, name or "linear_score"))
        else:
            raise ValueError(f"constraint {i}: unknown type {ctype!r}")
    return ConstraintSet(tuple(out))


def load_constraint_file(path, vocab: Vocabulary) -> ConstraintSet:
    with open(path) as fh:
        spec = json.load(fh)
    return parse_constraint_spec(spec, vocab, base_dir=os.path.dirname(os.path.abspath(path)))
