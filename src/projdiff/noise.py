"""Categorical corruption process and its reverse-time transition.

Forward corruption interpolates each position toward a reference
distribution nu: at signal level a the marginal is a * onehot(x0) +
(1 - a) * nu.  Two kernels are supported: "masked" (nu is a point mass
on the MASK token) and "uniform" (nu is uniform over the vocabulary).

The reverse transition from level a_t up to a_s (a_s > a_t) samples each
position from the single-position conditional given the current token
and a denoised estimate x0_hat of the clean token.  For the masked
kernel this conditional has a closed split: a position whose current row
is not the reference point mass is already settled and passes through
unchanged, while a masked position samples from

    ((1 - a_s) * nu + (a_s - a_t) * x0_hat) / (1 - a_t).

The uniform kernel resamples every position from the Bayes combination
of the step transition likelihood with the denoised estimate,

    propto (r * 1[j = cur] + (1 - r)/N) * (a_s * x0_hat_j + (1 - a_s)/N),
    r = a_t / a_s.

For exactness x0_hat should exclude the current position's own evidence
(see the denoiser's leave-one-out form); feeding the full posterior
counts the current token twice, which is a mild extra sharpening.

reverse_mixture_rows gives the rows of this transition; the sampler
builds them once per block of chains that share their denoised rows (a
distinct compatible-entry set under the masked kernel, a distinct state
under the uniform kernel) and draws from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import backend
from .core import ROW_SUM_TOL, SeqDist, Sequence, Vocabulary


@dataclass(frozen=True)
class NoiseKernel:
    """Reference distribution nu plus the kernel kind that induced it."""

    kind: str
    ref: np.ndarray = field(repr=False)

    KINDS = ("masked", "uniform")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        ref = np.asarray(self.ref, dtype=np.float64)
        if ref.ndim != 1 or ref.shape[0] < 2:
            raise ValueError("reference distribution needs at least 2 tokens")
        if abs(float(ref.sum()) - 1.0) > ROW_SUM_TOL or np.any(ref < 0):
            raise ValueError("reference is not a distribution")
        ref = ref.copy()
        ref.setflags(write=False)
        object.__setattr__(self, "ref", ref)

    @property
    def vocab_size(self) -> int:
        return self.ref.shape[0]

    @cached_property
    def mask_id(self) -> int | None:
        if self.kind != "masked":
            return None
        return int(np.argmax(self.ref))

    @classmethod
    def masked(cls, vocab: Vocabulary) -> "NoiseKernel":
        if vocab.mask_id is None:
            raise ValueError("masked kernel requires a vocabulary with a MASK token")
        ref = np.zeros(vocab.size)
        ref[vocab.mask_id] = 1.0
        return cls("masked", ref)

    @classmethod
    def uniform(cls, n: int) -> "NoiseKernel":
        return cls("uniform", np.full(n, 1.0 / n))

    @classmethod
    def for_vocab(cls, kind: str, vocab: Vocabulary) -> "NoiseKernel":
        if kind == "masked":
            return cls.masked(vocab)
        if kind == "uniform":
            return cls.uniform(vocab.size)
        raise ValueError(f"unknown kernel kind {kind!r}")


def _check_level(a: float) -> float:
    a = float(a)
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"signal level {a} outside [0, 1]")
    return a


def _forward_rows(kernel: NoiseKernel, x0: Sequence, a_t: float) -> np.ndarray:
    """(L, N) rows a_t * onehot(x0) + (1 - a_t) * nu."""
    a_t = _check_level(a_t)
    ids = x0.as_array()
    n = kernel.vocab_size
    if ids.max() >= n:
        raise ValueError(f"token id {ids.max()} out of range")
    rows = np.empty((len(ids), n))
    rows[:] = (1.0 - a_t) * kernel.ref
    rows[np.arange(len(ids)), ids] += a_t
    return rows


def forward_marginal(kernel: NoiseKernel, x0: Sequence, a_t: float) -> SeqDist:
    """Marginal of the corrupted sequence at signal level a_t."""
    return SeqDist(_forward_rows(kernel, x0, a_t))


def forward_sample(kernel: NoiseKernel, x0: Sequence, a_t: float, rng: np.random.Generator) -> Sequence:
    """Draw a corrupted sequence from the forward marginal; consumes exactly L uniforms."""
    rows = _forward_rows(kernel, x0, a_t)
    u = rng.random(len(rows))
    return Sequence(tuple(backend.ops.sample_rows(rows, u).tolist()))


def reverse_mixture_rows(
    kernel: NoiseKernel,
    denoised_rows: np.ndarray,
    a_t: float,
    a_s: float,
    current_ids: np.ndarray | None = None,
) -> np.ndarray:
    """Per-position categorical the reverse step samples from.

    For the uniform kernel the conditional depends on the current token
    per position, so current_ids (R,) is required; the masked kernel's
    mixture is the same for any current masked position and ignores it.
    """
    if not a_s > a_t:
        raise ValueError(f"need a_s > a_t, got a_s={a_s}, a_t={a_t}")
    if a_t >= 1.0:
        raise ValueError("a_t = 1 leaves no noise to reverse")
    if kernel.kind == "masked":
        scale = 1.0 / (1.0 - a_t)
        return ((1.0 - a_s) * scale) * kernel.ref + ((a_s - a_t) * scale) * denoised_rows
    if current_ids is None:
        raise ValueError("uniform kernel reverse requires the current tokens")
    n = kernel.vocab_size
    r = a_t / a_s
    lik = np.full_like(denoised_rows, (1.0 - r) / n)
    lik[np.arange(denoised_rows.shape[0]), current_ids] += r
    mix = lik * (a_s * denoised_rows + (1.0 - a_s) / n)
    return mix / mix.sum(axis=1, keepdims=True)
