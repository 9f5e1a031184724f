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
           posterior just restricts the prior to them.
  uniform: q = a * 1[w_i = x_i] + (1 - a)/N, so the likelihood is
           proportional to (1 + a N / (1 - a)) ** #matches.
"""

from __future__ import annotations

import numpy as np

from .core import Corpus, SeqDist, Sequence, decode
from .noise import NoiseKernel


class IncompatibleEvidenceError(ValueError):
    """No corpus entry has positive likelihood for the observed sequence."""


def _posterior_weights(corpus: Corpus, kernel: NoiseKernel, ids: np.ndarray, a_t: float) -> np.ndarray:
    """Unnormalized posterior entry weights for a (B, L) batch of observations.

    Returns (B, M); a zero row means the observation is incompatible with
    every entry.  Every posterior path range-checks a_t here.
    """
    if not 0.0 <= a_t <= 1.0:
        raise ValueError(f"signal level {a_t} outside [0, 1]")
    entries = corpus.sequences()  # (M, L)
    prior = corpus.weights()  # (M,)
    if ids.shape[1] != entries.shape[1]:
        raise ValueError("observed length differs from corpus length")
    n = kernel.vocab_size
    # Token indicators of the observations times the entries' one-hots
    # count each entry's matching positions; small integers, so exact.
    observed = (ids[:, :, None] == np.arange(n)).reshape(len(ids), -1).astype(float)
    matches = observed @ _entry_onehots(corpus, n).reshape(len(entries), -1).T  # (B, M)
    if kernel.kind == "masked":
        # No entry holds MASK, so a compatible entry matches every unmasked position.
        return prior * (matches == (ids != kernel.mask_id).sum(axis=1, keepdims=True))
    if a_t >= 1.0:
        return prior * (matches == entries.shape[1])
    ratio = 1.0 + a_t * n / (1.0 - a_t)
    return prior * np.power(ratio, matches)


def _marginals(corpus: Corpus, kernel: NoiseKernel, states: np.ndarray, a_t: float):
    """(rows, empty) for a (U, L) batch of states: their (U, L, N)
    posterior marginals, and the (U,) mask of the states no corpus entry
    is compatible with, whose rows are zero.

    The entry sum is an einsum, whose order does not depend on the batch,
    where a BLAS product's can, so a state's row is the same in any batch.
    """
    weights = _posterior_weights(corpus, kernel, states, a_t)
    totals = weights.sum(axis=1, keepdims=True)
    empty = totals[:, 0] <= 0.0  # every weight of such a row is 0
    totals[empty] = 1.0
    rows = np.einsum("um,mln->uln", weights / totals, _entry_onehots(corpus, kernel.vocab_size))
    return rows, empty


def exact_posterior(corpus: Corpus, kernel: NoiseKernel, xt_decoded: Sequence, a_t: float) -> SeqDist:
    """Per-position marginals of the exact corpus posterior, computed as
    a one-row batch of the sampler's path.

    Raises IncompatibleEvidenceError when no entry has positive
    likelihood (only possible under the masked kernel).
    """
    rows, empty = _marginals(corpus, kernel, xt_decoded.as_array()[None, :], a_t)
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


_CODE_LIMIT = 2**63

# Smaller batches are computed as they are.  On the c01 shape (16 chains,
# L=10) about one state in eight repeats, and finding the repeats took
# longer inside a sampling run (about 24 us per call) than the rows they
# spared.
_DEDUPE_MIN_ROWS = 64


def _distinct_rows(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(states, inverse) for the rows of a (B, L) integer batch.

    states are the distinct rows in lexicographic order, as
    np.unique(ids, axis=0) gives them, and states[inverse] equals ids;
    (ids, None) when no row repeats or B < _DEDUPE_MIN_ROWS.  Rows fold
    into one int64 code, column by column in base radix; when the next
    column would overflow int64, the partial codes are replaced by their
    ranks first, so the fold stays exact for any length.
    """
    b, length = ids.shape
    if b < _DEDUPE_MIN_ROWS or length == 0:
        return ids, None
    lo = int(ids.min())
    radix = int(ids.max()) - lo + 1
    if radix * b >= _CODE_LIMIT:  # too wide to fold even after ranking
        states, inverse = np.unique(ids, axis=0, return_inverse=True)
        return (ids, None) if len(states) == b else (states, inverse.reshape(-1))
    digits = np.subtract(ids, lo, dtype=np.int64) if lo else ids
    code, bound, j = None, 1, 0  # every code lies in [0, bound)
    while j < length:
        if bound * radix >= _CODE_LIMIT:
            seen = np.unique(code)
            code, bound = np.searchsorted(seen, code), len(seen)
        k = length - j
        while bound * radix**k >= _CODE_LIMIT:
            k -= 1
        part = digits[:, j : j + k] @ radix ** np.arange(k - 1, -1, -1, dtype=np.int64)
        code = part if code is None else code * radix**k + part
        bound *= radix**k
        j += k
    if bound <= 4 * b:  # a rank table over the code range costs about a sort
        present = np.zeros(bound, dtype=bool)
        present[code] = True
        rank = np.cumsum(present) - 1
        count = int(rank[-1]) + 1
        inverse = rank[code]
    else:
        ordered = np.sort(code)
        new = np.concatenate(([True], ordered[1:] != ordered[:-1]))
        count = np.count_nonzero(new)
        inverse = np.searchsorted(ordered[new], code) if count < b else None
    if count == b:
        return ids, None
    first = np.empty(count, dtype=np.intp)
    first[inverse] = np.arange(b)
    return ids[first], inverse


class ExactBayesDenoiser:
    """Callable denoiser (xt, a_t, kernel) -> SeqDist over the exact corpus
    posterior.

    When evidence is incompatible with every corpus entry the denoiser
    falls back to the prior per-position marginals instead of raising;
    fallback_count records how often that happened.  A call is a one-row
    posterior_batch.

    The batch methods return (states, rows, inverse): the (U, L) distinct
    states of a (B, L) batch, their (U, L, N) marginals, and the (B,)
    index with states[inverse] equal to the batch, so rows[inverse] holds
    each chain's rows.  A batch of at least _DEDUPE_MIN_ROWS rows computes
    each distinct state once; below that size, or when no state repeats,
    states is the batch itself and inverse the identity.  A row's
    marginals are a function of its state alone, so every chain gets the
    row it would get on its own, and fallback_count counts every chain,
    repeats included.  Every method raises ValueError for a signal level
    outside [0, 1].
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
        rows, empty = _marginals(self.corpus, kernel, states, a_t)
        if np.any(empty):
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
