"""Core types: vocabulary, sequences, per-position distributions, noise
schedules, and weighted sequence corpora.

A sequence of length L over a vocabulary of N tokens is represented either
discretely (integer ids) or as a stack of L categorical distributions over
the N tokens.  All numeric state is float64.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import backend

ROW_SUM_TOL = 1e-9


def check_counts(obj, **minimums) -> None:
    """Raise ValueError unless each named field of obj is an integer (a
    bool is not) no smaller than its minimum."""
    for name, low in minimums.items():
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < low:
            raise ValueError(f"{name} must be >= {low}")


def as_rows(dist) -> np.ndarray:
    """Accept a SeqDist or a raw (L, N) array and return the array."""
    if isinstance(dist, SeqDist):
        return dist.rows
    return np.asarray(dist, dtype=np.float64)


@dataclass(frozen=True)
class Vocabulary:
    """Token strings with integer ids; optionally one id is a MASK marker.

    The MASK token is an ordinary member of the vocabulary (it occupies an
    id and a simplex coordinate) but never appears in corpus data.
    """

    tokens: tuple[str, ...]
    mask_id: int | None = None

    def __post_init__(self):
        if len(self.tokens) == 0:
            raise ValueError("vocabulary is empty")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")
        if self.mask_id is not None and not 0 <= self.mask_id < len(self.tokens):
            raise ValueError(f"mask_id {self.mask_id} out of range")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def size(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        try:
            return self.tokens.index(token)
        except ValueError:
            raise ValueError(f"unknown token {token!r}") from None

    def token_of(self, idx: int) -> str:
        return self.tokens[idx]

    @classmethod
    def from_file(cls, path) -> "Vocabulary":
        """Read one token per line; a ``#mask <token>`` line names the MASK."""
        tokens: list[str] = []
        mask_token = None
        with open(path) as fh:
            for raw in fh:
                line = raw.strip()
                if not line:
                    continue
                if line.startswith("#mask"):
                    parts = line.split(None, 1)
                    if len(parts) != 2:
                        raise ValueError("malformed #mask header")
                    mask_token = parts[1].strip()
                    continue
                tokens.append(line)
        mask_id = None
        if mask_token is not None:
            if mask_token not in tokens:
                raise ValueError(f"mask token {mask_token!r} not in token list")
            mask_id = tokens.index(mask_token)
        return cls(tuple(tokens), mask_id)

    def to_file(self, path) -> None:
        with open(path, "w") as fh:
            if self.mask_id is not None:
                fh.write(f"#mask {self.tokens[self.mask_id]}\n")
            for tok in self.tokens:
                fh.write(tok + "\n")


_CODE_LIMIT = 2**63

# Smaller batches skip the search for repeated states: the denoiser
# takes them as they are (under the masked kernel it still shares rows
# between chains with equal compatible-entry sets, found through a dict),
# and Sequence.from_id_array shares their equal rows through a dict.  On
# the c01 shape (16 chains, L=10) about one state in eight repeats, and
# finding the repeats took longer inside a sampling run (about 24 us per
# call) than the rows they spared.  With the threshold at 16, five
# alternating pairs of 8 s perfbench runs on a 2-core VM read samples/s
# -12.5% on linear and -8.9% on token (medians; slower in every pair),
# measured while each distinct state still got its own denoised,
# mixture and CDF rows.
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


@dataclass(frozen=True)
class Sequence:
    """An immutable, hashable tuple of token ids."""

    ids: tuple[int, ...]

    def __post_init__(self):
        if len(self.ids) == 0:
            raise ValueError("empty sequence")
        if min(self.ids) < 0:
            raise ValueError("negative token id")

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> int:
        return self.ids[i]

    def __iter__(self):
        return iter(self.ids)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.ids, dtype=np.int64)

    def tokens(self, vocab: Vocabulary) -> list[str]:
        return [vocab.token_of(i) for i in self.ids]

    @classmethod
    def from_tokens(cls, tokens, vocab: Vocabulary) -> "Sequence":
        return cls(tuple(vocab.id_of(t) for t in tokens))

    @classmethod
    def unchecked(cls, ids: tuple[int, ...]) -> "Sequence":
        """A Sequence of a non-empty tuple of ids known to be non-negative,
        built without the constructor's checks."""
        seq = object.__new__(cls)
        seq.__dict__["ids"] = ids
        return seq

    @classmethod
    def from_id_array(cls, ids: np.ndarray) -> list["Sequence"]:
        """One Sequence per row of a (K, L) integer array.

        The array is checked once as a whole, with the same errors as the
        constructor, so no object runs a check of its own.  Equal rows
        share one object, which a Sequence's immutability allows: sampled
        rows repeat heavily, and each object spared is an allocation the
        garbage collector would otherwise trace.  From _DEDUPE_MIN_ROWS
        rows on, _distinct_rows finds the distinct rows, one object is
        built for each, and the rows take theirs by the inverse index;
        smaller arrays share through a dict keyed by the row tuples.
        """
        ids = np.asarray(ids)
        if ids.ndim != 2:
            raise ValueError(f"expected a 2-d id array, got shape {ids.shape}")
        if ids.shape[0] == 0:
            return []
        if ids.shape[1] == 0:
            raise ValueError("empty sequence")
        if ids.min() < 0:
            raise ValueError("negative token id")
        unchecked = cls.unchecked
        if len(ids) >= _DEDUPE_MIN_ROWS:
            states, inverse = _distinct_rows(ids)
            made = np.empty(len(states), dtype=object)
            for k, row in enumerate(map(tuple, states.tolist())):
                made[k] = unchecked(row)
            return (made if inverse is None else made.take(inverse)).tolist()
        shared: dict[tuple, Sequence] = {}
        out = []
        for row in map(tuple, ids.tolist()):
            seq = shared.get(row)
            if seq is None:
                seq = shared[row] = unchecked(row)
            out.append(seq)
        return out


class SeqDist:
    """L rows of categorical distributions over N tokens.

    Rows live on the probability simplex: nonnegative (not NaN), each
    summing to one within 1e-9.  The backing array is read only;
    operations return new instances.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: np.ndarray):
        arr = np.array(rows, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise ValueError(f"expected 2-d rows, got shape {arr.shape}")
        if arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValueError("empty distribution")
        # Both checks are negated so that NaN, which fails every
        # comparison, fails them.
        if not arr.min() >= 0:
            raise ValueError("negative or NaN probability")
        deviation = np.abs(arr.sum(axis=1) - 1.0)
        if not deviation.max() <= ROW_SUM_TOL:
            raise ValueError(f"row sums deviate from 1 by {float(deviation.max()):.3e}")
        arr.setflags(write=False)
        self.rows = arr

    @property
    def length(self) -> int:
        return self.rows.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.rows.shape[1]

    def __len__(self) -> int:
        return self.rows.shape[0]

    def row(self, i: int) -> np.ndarray:
        return self.rows[i]

    @classmethod
    def normalized(cls, rows: np.ndarray) -> "SeqDist":
        """Build from nonnegative rows, renormalizing each to sum one."""
        arr = np.asarray(rows, dtype=np.float64)
        sums = arr.sum(axis=1, keepdims=True)
        if not np.all((sums > 0) & (sums < np.inf)):
            raise ValueError("cannot normalize a zero, infinite or NaN row")
        return cls(arr / sums)

    @classmethod
    def one_hot(cls, seq: Sequence, n: int) -> "SeqDist":
        arr = np.zeros((len(seq), n))
        for i, v in enumerate(seq):
            if v >= n:
                raise ValueError(f"token id {v} out of range for N={n}")
            arr[i, v] = 1.0
        return cls(arr)


def decode(dist: SeqDist | np.ndarray) -> Sequence:
    """Row-wise argmax; ties resolve to the lowest token id."""
    rows = as_rows(dist)
    return Sequence(tuple(int(i) for i in np.argmax(rows, axis=1)))


def kl_divergence(p, q) -> float:
    """KL(p || q) in nats, summed over all rows.

    Zero-probability coordinates of p contribute zero.  Mass of p on a
    zero of q makes the divergence infinite.
    """
    pr = as_rows(p)
    qr = as_rows(q)
    if pr.shape != qr.shape:
        raise ValueError(f"shape mismatch {pr.shape} vs {qr.shape}")
    return backend.ops.kl_rows(pr, qr)


@dataclass(frozen=True)
class Schedule:
    """Signal-retention schedule alpha(t) on the integer grid t = 0..T.

    alpha(0) = 1 (no corruption) and alpha(T) <= 1e-4 (total corruption),
    strictly decreasing in between.  Two kinds:

      linear:    alpha(t) = 1 - t/T
      loglinear: alpha(t) = exp((t/T) * ln 1e-4)
    """

    kind: str
    num_steps: int

    _KINDS = ("linear", "loglinear")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.num_steps < 1:
            raise ValueError("num_steps must be >= 1")

    def alpha(self, t: int) -> float:
        if not 0 <= t <= self.num_steps:
            raise ValueError(f"t={t} outside 0..{self.num_steps}")
        frac = t / self.num_steps
        if self.kind == "linear":
            return 1.0 - frac
        return math.exp(frac * math.log(1e-4))


@dataclass
class Corpus:
    """Weighted set of fixed-length sequences, the generative target.

    Duplicate sequences merge (weights add) and weights normalize to sum
    one.  All sequences share one length; ids stay in vocabulary range and
    the MASK token, if any, never appears.
    """

    vocab: Vocabulary
    entries: list[tuple[Sequence, float]] = field(default_factory=list)

    def __post_init__(self):
        if not self.entries:
            raise ValueError("empty corpus")
        merged: dict[Sequence, float] = {}
        length = len(self.entries[0][0])
        n = self.vocab.size
        for seq, w in self.entries:
            if len(seq) != length:
                raise ValueError("corpus sequences differ in length")
            if w <= 0:
                raise ValueError("corpus weight must be positive")
            for v in seq:
                if v >= n:
                    raise ValueError(f"token id {v} out of vocabulary range")
                if self.vocab.mask_id is not None and v == self.vocab.mask_id:
                    raise ValueError("MASK token appears in corpus data")
            merged[seq] = merged.get(seq, 0.0) + float(w)
        total = sum(merged.values())
        self.entries = [(s, w / total) for s, w in merged.items()]
        self._seq_array = np.stack([s.as_array() for s, _ in self.entries])
        self._weight_array = np.asarray([w for _, w in self.entries])

    @property
    def length(self) -> int:
        return len(self.entries[0][0])

    @property
    def size(self) -> int:
        return len(self.entries)

    def sequences(self) -> np.ndarray:
        """(M, L) int64 array of the distinct corpus sequences."""
        return self._seq_array

    def weights(self) -> np.ndarray:
        """(M,) normalized weights aligned with sequences()."""
        return self._weight_array

    def weight_of(self, seq: Sequence) -> float:
        for s, w in self.entries:
            if s == seq:
                return w
        return 0.0

    def prior_marginals(self) -> np.ndarray:
        """(L, N) weighted per-position token frequencies."""
        out = np.zeros((self.length, self.vocab.size))
        for seq, w in self.entries:
            for i, v in enumerate(seq):
                out[i, v] += w
        return out

    @classmethod
    def from_file(cls, path, vocab: Vocabulary) -> "Corpus":
        """Read whitespace-separated token lines, optional trailing
        tab-separated weight (default 1.0)."""
        entries = []
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.rstrip("\n")
                if not line.strip():
                    continue
                weight = 1.0
                if "\t" in line:
                    body, tail = line.rsplit("\t", 1)
                    try:
                        weight = float(tail)
                    except ValueError:
                        raise ValueError(f"{path}:{lineno}: bad weight {tail!r}") from None
                else:
                    body = line
                toks = body.split()
                if not toks:
                    raise ValueError(f"{path}:{lineno}: no tokens")
                entries.append((Sequence.from_tokens(toks, vocab), weight))
        return cls(vocab, entries)

    def to_file(self, path) -> None:
        with open(path, "w") as fh:
            for seq, w in self.entries:
                fh.write(" ".join(seq.tokens(self.vocab)) + f"\t{w!r}\n")


def write_sequences(path, seqs, vocab: Vocabulary) -> None:
    """Write sequences one per line as whitespace-separated tokens."""
    with open(path, "w") as fh:
        for seq in seqs:
            fh.write(" ".join(seq.tokens(vocab)) + "\n")


def read_sequences(path, vocab: Vocabulary) -> list[Sequence]:
    out = []
    with open(path) as fh:
        for raw in fh:
            toks = raw.split()
            if toks:
                out.append(Sequence.from_tokens(toks, vocab))
    return out
