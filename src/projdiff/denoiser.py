"""Exact posterior denoising over a finite weighted corpus.

Given a corrupted sequence w observed at signal level a, Bayes' rule over
the corpus entries x with weights p(x) gives

    p(x | w) = p(x) * prod_i q(w_i | x_i, a) / Z

where q is the per-position forward kernel.  The denoised estimate is the
stack of per-position marginals of this posterior.  Because the forward
process factorizes over positions, per-entry likelihoods reduce to
counting positions:

  masked:  q = a if w_i = x_i, (1 - a) if w_i = MASK, else 0.  Every
           compatible entry matches on all unmasked positions, so the
           likelihood is constant across compatible entries and the
           posterior just restricts the prior to them.  Observations
           with the same set of compatible entries, in whatever state,
           share one posterior, and a batch computes it once per set.
  uniform: q = a * 1[w_i = x_i] + (1 - a)/N, so the likelihood is
           proportional to (1 + a N / (1 - a)) ** #matches.
"""

from __future__ import annotations

import numpy as np

from .core import Corpus, SeqDist, Sequence, _distinct_rows, decode
from .noise import NoiseKernel


class IncompatibleEvidenceError(ValueError):
    """No corpus entry has positive likelihood for the observed sequence."""


def _posterior_weights(corpus: Corpus, kernel: NoiseKernel, ids: np.ndarray, a_t: float) -> np.ndarray:
    """Unnormalized posterior entry weights for a (B, L) batch of observations.

    Returns (B, M); a zero row means the observation is incompatible with
    every entry.  Every posterior path range-checks a_t and the ids here.
    """
    if not 0.0 <= a_t <= 1.0:
        raise ValueError(f"signal level {a_t} outside [0, 1]")
    entries = corpus.sequences()  # (M, L)
    prior = corpus.weights()  # (M,)
    if ids.shape[1] != entries.shape[1]:
        raise ValueError("observed length differs from corpus length")
    n = kernel.vocab_size
    # The masked kernel's table is indexed by the ids.
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ValueError(f"token ids must lie in [0, {n})")
    if kernel.kind == "masked":
        # The prior restricted to the compatible entries.
        return prior * _compatible(corpus, kernel, ids)
    # Token indicators of the observations times the entries' one-hots
    # count each entry's matching positions; small integers, so exact.
    observed = (ids[:, :, None] == np.arange(n)).reshape(len(ids), -1).astype(float)
    matches = observed @ _entry_onehots(corpus, n).reshape(len(entries), -1).T  # (B, M)
    if a_t >= 1.0:
        return prior * (matches == entries.shape[1])
    ratio = 1.0 + a_t * n / (1.0 - a_t)
    return prior * np.power(ratio, matches)


def _weighted_marginals(corpus: Corpus, n: int, weights: np.ndarray):
    """(rows, empty) for (U, M) unnormalized entry weights: the (U, L, N)
    marginals of the posteriors they define, and the (U,) mask of the
    all-zero rows, whose marginals are zero.

    The entry sum is an einsum, whose order does not depend on the batch,
    where a BLAS product's can, so a row of weights gives the same
    marginals in any batch.
    """
    totals = weights.sum(axis=1)
    empty = totals <= 0.0  # every weight of such a row is 0
    totals[empty] = 1.0
    rows = np.einsum("um,mln->uln", weights / totals[:, None], _entry_onehots(corpus, n))
    return rows, empty


def exact_posterior(corpus: Corpus, kernel: NoiseKernel, xt_decoded: Sequence, a_t: float) -> SeqDist:
    """Per-position marginals of the exact corpus posterior, computed as
    a one-row batch of the sampler's path.

    Raises IncompatibleEvidenceError when no entry has positive
    likelihood (only possible under the masked kernel).
    """
    weights = _posterior_weights(corpus, kernel, xt_decoded.as_array()[None, :], a_t)
    rows, empty = _weighted_marginals(corpus, kernel.vocab_size, weights)
    if empty[0]:
        raise IncompatibleEvidenceError(f"no corpus entry compatible with {xt_decoded.ids}")
    return SeqDist(rows[0])


def _entry_onehots(corpus: Corpus, n: int) -> np.ndarray:
    """(M, L, N) one-hot expansion of the corpus entries.

    Cached on the corpus instance so the cache's lifetime matches the
    object's; a module-level table keyed by id() would hand a recycled id
    a stale array.
    """
    cached = getattr(corpus, "_onehot_cache", None)
    if cached is not None and cached.shape[2] == n:
        return cached
    entries = corpus.sequences()
    m, length = entries.shape
    out = np.zeros((m, length, n))
    out[np.arange(m)[:, None], np.arange(length)[None, :], entries] = 1.0
    corpus._onehot_cache = out
    return out


def _entry_matches(corpus: Corpus, n: int, mask_id: int) -> tuple[np.ndarray, np.ndarray]:
    """(table, offsets): the (L * N, W) uint64 table whose row i * N + v
    has bit m % 64 of word m // 64 set when entry m holds token v at
    position i, with every entry matching MASK, and the (L,) row offsets
    i * N.

    An (L,) row of ids below n is compatible with entry m when that bit
    is set in every row ids + offsets of the table.  Cached on the corpus
    instance, as _entry_onehots is.
    """
    cached = getattr(corpus, "_match_cache", None)
    if cached is not None and cached[0] == (n, mask_id):
        return cached[1], cached[2]
    entries = corpus.sequences()
    m, length = entries.shape
    words = -(-m // 64)
    holds = np.zeros((length, n, 64 * words), dtype=bool)
    holds[np.arange(length)[:, None], entries.T, np.arange(m)] = True
    holds[:, mask_id, :m] = True
    table = np.packbits(holds, axis=2, bitorder="little").view("<u8").reshape(length * n, words)
    offsets = np.arange(length) * n
    corpus._match_cache = ((n, mask_id), table, offsets)
    return table, offsets


def _compatible(corpus: Corpus, kernel: NoiseKernel, ids: np.ndarray) -> np.ndarray:
    """(B, M) booleans: which entries are compatible under the masked
    kernel with each row of a (B, L) batch of ids in [0, N), that is,
    hold every token of the row but MASK."""
    table, offsets = _entry_matches(corpus, kernel.vocab_size, kernel.mask_id)
    words = np.bitwise_and.reduce(table.take(ids + offsets, axis=0), axis=1)  # (B, W)
    return np.unpackbits(words.view(np.uint8), axis=1, count=corpus.size, bitorder="little").view(bool)


def _distinct_weights(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(first, index) for a (U, M) batch of entry weight rows.

    first holds the first row of each distinct weight row, in order, and
    row u equals row first[index[u]]; index is None when no row repeats,
    and then first is every row.  A dict keyed by each row's bytes finds
    the first rows: at 16 rows that takes a few microseconds, where
    np.unique takes about 11.
    """
    u = len(weights)
    blob, w = weights.tobytes(), weights.itemsize * weights.shape[1]
    seen: dict[bytes, int] = {}
    firsts = [seen.setdefault(blob[k * w : (k + 1) * w], k) for k in range(u)]
    if len(seen) == u:
        return np.arange(u), None
    first = np.fromiter(seen.values(), np.intp, len(seen))
    return first, first.searchsorted(firsts)


class ExactBayesDenoiser:
    """Callable denoiser (xt, a_t, kernel) -> SeqDist over the exact corpus
    posterior.

    When evidence is incompatible with every corpus entry the denoiser
    falls back to the prior per-position marginals instead of raising;
    fallback_count records how often that happened.  A call is a one-row
    posterior_batch.

    The batch methods return (states, rows, inverse) for a (B, L) batch:
    (K, L) states, their (K, L, N) marginals, and the (B,) index with
    rows[inverse] holding each chain's rows.  Block k is one distinct
    posterior and states[k] a state of a chain that has it.  Under the
    uniform kernel a block is a distinct state, and states[inverse]
    equals the batch.  Under the masked kernel the posterior is the
    prior restricted to the entries compatible with the state, so a
    block is a distinct set of compatible entries, and chains in
    different states can share it.  A batch of at least
    core._DEDUPE_MIN_ROWS rows first finds its distinct states.  When no
    two chains share a block, states is the batch itself and inverse the
    identity.  A block's rows are a function of its state or set alone,
    so every chain gets the rows it would get on its own, and
    fallback_count counts every chain, repeats included.  Every method
    raises ValueError for a signal level outside [0, 1].
    """

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self.fallback_count = 0
        self._prior_rows = None

    def _prior(self) -> np.ndarray:
        if self._prior_rows is None:
            rows = self.corpus.prior_marginals()
            self._prior_rows = rows / rows.sum(axis=1, keepdims=True)
        return self._prior_rows

    def __call__(self, xt: SeqDist, a_t: float, kernel: NoiseKernel) -> SeqDist:
        _, rows, _ = self.posterior_batch(decode(xt).as_array()[None, :], a_t, kernel)
        return SeqDist(rows[0])

    def posterior_batch(self, ids: np.ndarray, a_t: float, kernel: NoiseKernel):
        """(states, rows, inverse) of the posterior marginals of a (B, L)
        batch of decoded states; an incompatible state gets the prior's."""
        states, inverse = _distinct_rows(ids)
        weights = _posterior_weights(self.corpus, kernel, states, a_t)
        if kernel.kind == "masked":
            # The weights are the prior on the state's compatible entries,
            # so states with one compatible set share one row of them.
            first, index = _distinct_weights(weights)
            if index is not None:
                states, weights = states[first], weights[first]
                inverse = index if inverse is None else index.take(inverse)
        rows, empty = _weighted_marginals(self.corpus, kernel.vocab_size, weights)
        if empty.any():
            self.fallback_count += int(np.count_nonzero(empty if inverse is None else empty.take(inverse)))
            rows[empty] = self._prior()
        return states, rows, np.arange(len(states)) if inverse is None else inverse

    def posterior_loo_batch(self, ids: np.ndarray, a_t: float, kernel: NoiseKernel):
        """(states, rows, inverse) of the leave-one-out posterior marginals.

        Entry (u, i) of rows is the posterior marginal of position i with
        the likelihood factor of position i's own observation divided out.
        The reverse transition needs this form: multiplying it by the
        single-position transition likelihood reproduces the exact
        conditional, whereas the full posterior would double count the
        current token.  Under the masked kernel a masked position
        contributes a constant factor, so there the leave-one-out and
        full posteriors coincide and the full one is returned.
        """
        if kernel.kind == "masked":
            return self.posterior_batch(ids, a_t, kernel)
        if a_t >= 1.0:
            raise ValueError("leave-one-out posterior undefined at a_t = 1")
        states, inverse = _distinct_rows(ids)
        entries = self.corpus.sequences()
        weights = _posterior_weights(self.corpus, kernel, states, a_t)  # (U, M)
        eq = states[:, None, :] == entries[None, :, :]  # (U, M, L)
        n = kernel.vocab_size
        ratio = 1.0 + a_t * n / (1.0 - a_t)
        loo = weights[:, :, None] / np.where(eq, ratio, 1.0)  # (U, M, L)
        onehots = _entry_onehots(self.corpus, n)
        rows = np.einsum("uml,mln->uln", loo, onehots)
        rows = rows / rows.sum(axis=2, keepdims=True)
        return states, rows, np.arange(len(states)) if inverse is None else inverse
