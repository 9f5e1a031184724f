"""Differentiable surrogate for row-wise argmax decoding.

The relaxation maps each probability row d to

    phi = softmax((log d + xi) / temperature)

with optional Gumbel noise xi = -log(-log U).  Low temperatures sharpen
rows toward their argmax while keeping the map differentiable, which
lets constraint scores defined on decoded sequences receive gradients.
At temperature 1 with no noise the map is the identity on zero-free rows.

Gradients flow back through backend.ops.relax_vjp, which applies the
closed-form Jacobian

    d phi_j / d d_v = phi_j (1[j = v] - phi_v) / (temperature * d_v)

evaluated with d floored at a small constant so zero coordinates stay
finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backend
from .core import SeqDist, as_rows, check_counts


@dataclass(frozen=True)
class RelaxConfig:
    """Temperature and noise policy for the relaxation.

    With stochastic=True a fixed noise draw, seeded by rng_seed, is reused
    for every call so that repeated evaluations inside one optimization
    see a consistent objective.
    """

    temperature: float = 0.5
    stochastic: bool = False
    rng_seed: int = 0

    def __post_init__(self):
        if not self.temperature > 0:  # NaN fails this too
            raise ValueError("temperature must be positive")
        check_counts(self, rng_seed=0)

    def noise(self, shape: tuple[int, int]) -> np.ndarray | None:
        if not self.stochastic:
            return None
        u = np.random.default_rng(self.rng_seed).random(shape)
        return -np.log(-np.log(np.clip(u, 1e-300, 1.0 - 1e-16)))


def gumbel_softmax(dist, config: RelaxConfig = RelaxConfig()) -> SeqDist:
    """Apply the relaxation row-wise; rows stay on the simplex."""
    rows = as_rows(dist)
    phi = backend.ops.relax_forward(rows, config.noise(rows.shape), config.temperature)
    return SeqDist(phi)
