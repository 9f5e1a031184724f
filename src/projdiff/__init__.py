"""Discrete diffusion sampling with hard sequence-level constraints.

Sequences are generated by a categorical reverse-diffusion chain over a
toy corpus; scheduled projection steps inside the loop force decoded
feasibility while staying close, in KL, to the unconstrained dynamics.
"""

from . import backend, oracle
from .constraints import (
    Constraint,
    ConstraintSet,
    Forbidden,
    LinearScore,
    Position,
    PositionTerms,
    TokenCount,
    load_constraint_file,
    parse_constraint_spec,
)
from .core import (
    Corpus,
    Schedule,
    SeqDist,
    Sequence,
    Vocabulary,
    decode,
    kl_divergence,
    read_sequences,
    write_sequences,
)
from .denoiser import ExactBayesDenoiser, IncompatibleEvidenceError, exact_posterior
from .metrics import BigramModel, entropy, novelty_count, perplexity, summarize, violation_rate, write_metrics
from .noise import NoiseKernel, forward_marginal, forward_sample
from .projection import (
    AlmConfig,
    AlmResult,
    NoveltyDb,
    NoveltySaturationError,
    alm_project,
    novelty_project,
    position_project,
)
from .sampler import (
    InfeasibleSampleError,
    SampleConfig,
    TraceRecord,
    sample_constrained,
    sample_unconstrained,
    violation_contraction,
)

__version__ = "0.1.0"

__all__ = [
    "AlmConfig",
    "AlmResult",
    "BigramModel",
    "Constraint",
    "ConstraintSet",
    "Corpus",
    "ExactBayesDenoiser",
    "Forbidden",
    "IncompatibleEvidenceError",
    "InfeasibleSampleError",
    "LinearScore",
    "NoiseKernel",
    "NoveltyDb",
    "NoveltySaturationError",
    "Position",
    "PositionTerms",
    "SampleConfig",
    "Schedule",
    "SeqDist",
    "Sequence",
    "TokenCount",
    "TraceRecord",
    "Vocabulary",
    "alm_project",
    "backend",
    "decode",
    "entropy",
    "exact_posterior",
    "forward_marginal",
    "forward_sample",
    "kl_divergence",
    "load_constraint_file",
    "novelty_count",
    "novelty_project",
    "oracle",
    "parse_constraint_spec",
    "perplexity",
    "position_project",
    "read_sequences",
    "sample_constrained",
    "sample_unconstrained",
    "summarize",
    "violation_contraction",
    "violation_rate",
    "write_metrics",
    "write_sequences",
]
