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
           with the same set of compatible entries, in whatever state
           and at whatever signal level, share one posterior, and the
           exact denoiser computes it once per set (SetTable).
  uniform: q = a * 1[w_i = x_i] + (1 - a)/N, so the likelihood is
           proportional to (1 + a N / (1 - a)) ** #matches.
"""

from __future__ import annotations

import numpy as np

from .core import Corpus, SeqDist, Sequence, _distinct_rows
from .noise import NoiseKernel


class IncompatibleEvidenceError(ValueError):
    """No corpus entry has positive likelihood for the observed sequence."""


def _check_batch(corpus: Corpus, kernel: NoiseKernel, ids: np.ndarray, a_t: float) -> None:
    """Raise ValueError unless a_t lies in [0, 1], ids is a (B, L) batch
    of ids in [0, N), and a masked kernel's N is the corpus vocabulary's
    size; every posterior path checks here."""
    if not 0.0 <= a_t <= 1.0:
        raise ValueError(f"signal level {a_t} outside [0, 1]")
    if ids.shape[1] != corpus.length:
        raise ValueError("observed length differs from corpus length")
    n = kernel.vocab_size
    # A state no entry matches takes the prior's vocabulary-wide rows.
    if kernel.kind == "masked" and n != corpus.vocab.size:
        raise ValueError(f"masked kernel has {n} tokens, the corpus vocabulary {corpus.vocab.size}")
    # The masked kernel's table is indexed by the ids.
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ValueError(f"token ids must lie in [0, {n})")


def _posterior_weights(corpus: Corpus, kernel: NoiseKernel, ids: np.ndarray, a_t: float) -> np.ndarray:
    """Unnormalized posterior entry weights for a (B, L) batch of observations.

    Returns (B, M); a zero row means the observation is incompatible with
    every entry.
    """
    _check_batch(corpus, kernel, ids, a_t)
    entries = corpus.sequences()  # (M, L)
    prior = corpus.weights()  # (M,)
    n = kernel.vocab_size
    if kernel.kind == "masked":
        # The prior restricted to the compatible entries.
        return prior * _unpack(corpus, _compatible_words(corpus, kernel, ids))
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


def _compatible_words(corpus: Corpus, kernel: NoiseKernel, ids: np.ndarray) -> np.ndarray:
    """(B, W) uint64 words of the entries compatible under the masked
    kernel with each row of a (B, L) batch of ids in [0, N), that is,
    holding every token of the row but MASK: bit m % 64 of word m // 64
    is set when entry m is."""
    table, offsets = _entry_matches(corpus, kernel.vocab_size, kernel.mask_id)
    return np.bitwise_and.reduce(table.take(ids + offsets, axis=0), axis=1)


def _unpack(corpus: Corpus, words: np.ndarray) -> np.ndarray:
    """(B, M) booleans of the entries set in (B, W) compatibility words."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=corpus.size, bitorder="little").view(bool)


class SetTable:
    """The masked kernel's denoised rows of every compatible-entry set
    one denoiser has met under one masked kernel, each built once.

    A set's rows are the prior restricted to its entries, whatever the
    state or signal level, so a step builds only the sets new to the
    table and reads the rest.  slots maps a set's key, its packed
    compatibility words (a Python int for a corpus of up to 64 entries,
    else the words' bytes), to its slot k: rows[k] holds the set's (L, N)
    rows and empty[k] whether it has no entry, in which case they are the
    prior's.  Both buffers have room to grow.  The table lives as long as
    its denoiser, so it holds every distinct set the denoiser has met
    under its kernel, across sampling runs.
    """

    def __init__(self):
        self.slots: dict = {}
        self.rows: np.ndarray | None = None
        self.empty: np.ndarray | None = None

    def add(self, keys: list, rows: np.ndarray, empty: np.ndarray) -> None:
        """Give J new keys the next J slots, holding their (J, L, N) rows
        and (J,) empty flags; a full buffer doubles."""
        k = len(self.slots)
        for key in keys:
            self.slots[key] = len(self.slots)
        if self.rows is None or len(self.slots) > len(self.rows):
            capacity = max(8, 2 * len(self.slots))
            grown, flags = np.empty((capacity,) + rows.shape[1:]), np.empty(capacity, dtype=bool)
            if k:
                grown[:k], flags[:k] = self.rows[:k], self.empty[:k]
            self.rows, self.empty = grown, flags
        self.rows[k : len(self.slots)] = rows
        self.empty[k : len(self.slots)] = empty


class ExactBayesDenoiser:
    """The exact corpus posterior as the sampler's model, which calls its
    posterior_loo_batch(ids, a_t, kernel) alone.

    When evidence is incompatible with every corpus entry the denoiser
    falls back to the prior per-position marginals instead of raising;
    fallback_count records how often that happened.

    The batch methods return (states, rows, inverse) for a (B, L) batch:
    (K, L) states, their (K, L, N) marginals, and the (B,) index with
    rows[inverse] holding each chain's rows.  Block k is one distinct
    posterior and states[k] a state of a chain that has it.  Under the
    uniform kernel a block is a distinct state, and states[inverse]
    equals the batch.  Under the masked kernel the posterior is the
    prior restricted to the entries compatible with the state, so a
    block is a distinct set of compatible entries, and chains in
    different states can share it.  Its rows do not depend on the
    signal level either: the denoiser keeps them in a SetTable of its
    own per masked kernel, keyed by (N, MASK id) as _entry_matches keys
    its bit table, and builds only the sets new to it, so each set is
    built once for as long as the denoiser lives.  A batch of at least
    core._DEDUPE_MIN_ROWS rows first finds its distinct states.  When no
    two chains share a block, states is the batch itself and inverse
    the identity.  A block's rows are a function of its state or set
    alone, so every chain gets the rows it would get on its own, and
    fallback_count counts every chain, repeats included.  Every method
    raises ValueError for a signal level outside [0, 1].
    """

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self.fallback_count = 0
        self._prior_rows = None
        self._tables: dict[tuple[int, int], SetTable] = {}

    def _prior(self) -> np.ndarray:
        if self._prior_rows is None:
            rows = self.corpus.prior_marginals()
            self._prior_rows = rows / rows.sum(axis=1, keepdims=True)
        return self._prior_rows

    def posterior_batch(self, ids: np.ndarray, a_t: float, kernel: NoiseKernel):
        """(states, rows, inverse) of the posterior marginals of a (B, L)
        batch of decoded states; an incompatible state gets the prior's."""
        states, inverse = _distinct_rows(ids)
        if kernel.kind == "masked":
            _check_batch(self.corpus, kernel, states, a_t)
            states, rows, empty, inverse = self._set_blocks(states, inverse, kernel)
        else:
            weights = _posterior_weights(self.corpus, kernel, states, a_t)
            rows, empty = _weighted_marginals(self.corpus, kernel.vocab_size, weights)
        if empty.any():
            self.fallback_count += int(np.count_nonzero(empty if inverse is None else empty.take(inverse)))
            if kernel.kind != "masked":  # a table's rows hold the prior's
                rows[empty] = self._prior()
        return states, rows, np.arange(len(states)) if inverse is None else inverse

    def _set_blocks(self, states: np.ndarray, inverse: np.ndarray | None, kernel: NoiseKernel):
        """(states, rows, empty, inverse) of the masked kernel's blocks for
        (U, L) distinct states, whose chains take them by inverse (None
        for the identity): one block per distinct compatible set, its
        rows gathered from the kernel's table after the sets new to it
        are built."""
        table = self._tables.setdefault((kernel.vocab_size, kernel.mask_id), SetTable())
        words = _compatible_words(self.corpus, kernel, states)  # (U, W)
        if words.shape[1] == 1:
            keys = words[:, 0].tolist()
        else:
            blob, w = words.tobytes(), words.itemsize * words.shape[1]
            keys = [blob[u * w : (u + 1) * w] for u in range(len(words))]
        # The first state of each distinct set, in order, and for each
        # state the first state with its set.
        seen: dict = {}
        firsts = [seen.setdefault(key, u) for u, key in enumerate(keys)]
        slots = table.slots
        new = [u for key, u in seen.items() if key not in slots]
        if new or table.rows is None:
            weights = self.corpus.weights() * _unpack(self.corpus, words[new])
            rows, empty = _weighted_marginals(self.corpus, kernel.vocab_size, weights)
            if empty.any():  # the prior's rows are as wide as the vocabulary, not N
                rows[empty] = self._prior()
            table.add([keys[u] for u in new], rows, empty)
        block = [slots[key] for key in seen]
        if len(seen) < len(keys):
            first = np.fromiter(seen.values(), np.intp, len(seen))
            index = first.searchsorted(firsts)
            states = states[first]
            inverse = index if inverse is None else index.take(inverse)
        return states, table.rows.take(block, axis=0), table.empty.take(block), inverse

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
