"""Numpy implementations of the hot row operations.

Reached through ``backend.ops``.  All inputs are float64 arrays; none
are modified in place.
"""

import numpy as np

PROB_FLOOR = 1e-12


def row_softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of an (R, N) logit array."""
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def row_softmax_vjp(y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Backpropagate dy through y = row_softmax(z); returns dz.

    dz_v = y_v * (dy_v - sum_j dy_j y_j), per row.
    """
    inner = (dy * y).sum(axis=1, keepdims=True)
    return y * (dy - inner)


def relax_forward(y: np.ndarray, xi, temperature: float) -> np.ndarray:
    """Tempered softmax of log-probabilities plus optional Gumbel noise.

    phi = row_softmax((log max(y, floor) + xi) / temperature).  The floor
    keeps zero coordinates finite; xi may be None for the deterministic
    variant.
    """
    logs = np.log(np.maximum(y, PROB_FLOOR))
    if xi is not None:
        logs = logs + xi
    return row_softmax(logs / temperature)


def relax_vjp(phi: np.ndarray, y: np.ndarray, temperature: float, dphi: np.ndarray) -> np.ndarray:
    """Backpropagate dphi through relax_forward; returns dy.

    Uses the analytic Jacobian d phi_j / d y_v =
    phi_j (1[j=v] - phi_v) / (temperature * y_v) evaluated at the floored
    input, so dy_v = phi_v (dphi_v - sum_j dphi_j phi_j) / (temperature * y_v).
    """
    yf = np.maximum(y, PROB_FLOOR)
    inner = (dphi * phi).sum(axis=1, keepdims=True)
    return phi * (dphi - inner) / (temperature * yf)


def kl_rows(p: np.ndarray, q: np.ndarray) -> float:
    """Sum over rows of KL(p_row || q_row) in nats; inf if q lacks support."""
    support = p > 0
    if np.any(q[support] == 0):
        return float("inf")
    terms = np.where(support, p * (np.log(np.where(support, p, 1.0)) - np.log(np.where(q > 0, q, 1.0))), 0.0)
    return float(terms.sum())


def sample_rows(probs: np.ndarray, u: np.ndarray, index: np.ndarray | None = None) -> np.ndarray:
    """Draw one index per uniform by inverting a row's CDF at it.

    probs is (R, N) with rows summing to one; u is (K,) in [0, 1).  Draw
    i inverts u[i] against row index[i], or against row i when index is
    None (then K = R).  In block form probs is (U, L, N), u is (B, L) and
    index is (B,): draw (i, j) inverts u[i, j] against row j of block
    index[i], or of block i when index is None (then B = U), and the
    draws come back as (B, L).  Each row's cumulative sum is taken once,
    however many draws share it.  A draw counts the first N - 1 points
    of its row's CDF that lie below its uniform, so it is at most N - 1
    whatever rounding leaves in the last point.
    """
    if probs.ndim == 2:
        cdf = np.cumsum(probs[:, :-1], axis=1).T  # (N - 1, R), so that the count sums over axis 0
    else:
        cdf = np.cumsum(probs[:, :, :-1], axis=2).transpose(2, 0, 1)  # (N - 1, U, L)
    if index is not None:
        cdf = cdf.take(index, axis=1)
    return (cdf < u).sum(axis=0, dtype=np.int64)


def one_hot_rows(ids: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros((ids.shape[0], n))
    out[np.arange(ids.shape[0]), ids] = 1.0
    return out


def argmax_rows(rows: np.ndarray) -> np.ndarray:
    return np.argmax(rows, axis=1).astype(np.int64)
