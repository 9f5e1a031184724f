"""Output checks computed apart from the program.

Every check works on plain id arrays and on the workload's own numbers
(corpus entries, constraint parameters), never on the program's
constraint objects, metrics or stored samples.  Each returns one
boolean per emitted sample; a sample that fails any check counts as a
failed operation.
"""

from __future__ import annotations

import numpy as np

from workloads import CallSpec, Workload

TV_LIMIT = 0.05


def constraint_violations(specs, weights: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """(K, m) hard violations max(0, g - tau) of K id rows under m specs."""
    cols = []
    for spec in specs:
        kind = spec[0]
        if kind == "linear":
            score, tau = weights[ids].mean(axis=1), spec[1]
        elif kind == "count":
            _, token, op, k = spec
            count = (ids == token).sum(axis=1).astype(np.float64)
            score = {"le": count - k, "ge": k - count, "eq": np.abs(count - k)}[op]
            tau = 0.0
        elif kind == "position":
            _, position, token = spec
            score, tau = np.where(ids[:, position] == token, -1.0, 1.0), 0.0
        elif kind == "forbidden":
            score, tau = (ids == spec[1]).sum(axis=1).astype(np.float64), 0.0
        else:
            raise ValueError(f"unknown constraint spec {spec!r}")
        cols.append(np.maximum(score - tau, 0.0))
    return np.stack(cols, axis=1)


def corpus_law(entries) -> dict[tuple[int, ...], float]:
    total = sum(w for _, w in entries)
    return {ids: w / total for ids, w in entries}


def total_variation(ids: np.ndarray, law: dict[tuple[int, ...], float]) -> float:
    """TV distance between the empirical law of the rows of ids and law."""
    rows, counts = np.unique(ids, axis=0, return_counts=True)
    emp = {tuple(int(v) for v in r): c / ids.shape[0] for r, c in zip(rows, counts)}
    support = set(emp) | set(law)
    return 0.5 * sum(abs(emp.get(s, 0.0) - law.get(s, 0.0)) for s in support)


class Bigram:
    """Add-one bigram over the vocabulary plus a shared BOS/EOS state.

    Fitted on the normalized corpus weights; each sequence of length L
    is scored over its L + 1 transitions.
    """

    def __init__(self, entries, vocab_size: int):
        n = vocab_size
        total = sum(w for _, w in entries)
        counts = np.zeros((n + 1, n + 1))
        for ids, w in entries:
            path = (n,) + ids + (n,)
            for a, b in zip(path, path[1:]):
                counts[a, b] += w / total
        smoothed = counts + 1.0
        self.log_probs = np.log(smoothed / smoothed.sum(axis=1, keepdims=True))
        self.n = n

    def perplexities(self, ids: np.ndarray) -> np.ndarray:
        k, length = ids.shape
        edge = np.full((k, 1), self.n)
        path = np.concatenate([edge, ids, edge], axis=1)
        ll = self.log_probs[path[:, :-1], path[:, 1:]].sum(axis=1)
        return np.exp(-ll / (length + 1))


def as_ids(seqs, length: int) -> np.ndarray | None:
    """(K, L) int array of emitted sequences; None if any has another length."""
    rows = [tuple(s.ids) for s in seqs]
    if any(len(r) != length for r in rows):
        return None
    return np.array(rows, dtype=np.int64).reshape(len(rows), length)


def sample_ok(workload: Workload, call: CallSpec, ids: np.ndarray) -> np.ndarray:
    """One flag per emitted row: True when the row passes every check."""
    spec = workload.corpora[call.corpus]
    ok = np.all((ids >= 0) & (ids < spec.vocab_size), axis=1)
    if spec.mask_id is not None:
        ok &= ~np.any(ids == spec.mask_id, axis=1)
    if call.mode == "alm":
        safe = np.where(ok[:, None], ids, 0)
        viol = constraint_violations(call.constraints, workload.linear_weights(call.corpus), safe)
        ok &= np.all(viol <= 0.0, axis=1)
    elif call.mode == "novelty":
        corpus = {ids_ for ids_, _ in spec.entries()}
        seen: dict[tuple[int, ...], int] = {}
        keys = [tuple(int(v) for v in row) for row in ids]
        for key in keys:
            seen[key] = seen.get(key, 0) + 1
        ok &= np.array([key not in corpus and seen[key] == 1 for key in keys], dtype=bool)
    elif call.mode == "none":
        if total_variation(ids, corpus_law(spec.entries())) > TV_LIMIT:
            ok[:] = False
    return ok
