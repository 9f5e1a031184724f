"""Per-layer spans recorded around the calls into each projdiff module.

The tracer replaces module and class attributes with timing wrappers
for the duration of a `with` block and restores them afterwards; the
program's own files are not changed.  Entering it again adds to the
same totals.  Spans nest through a stack: a
span's self time is its duration minus the durations of the spans it
directly contains, so the self times of all spans add up to the time of
the outermost ones.  Spans are aggregated per layer as they close
(count, inclusive time, self time) rather than stored one by one, which
keeps memory flat on long runs.

A private helper that a later version of the program removes is skipped
and listed in `absent`.
"""

from __future__ import annotations

import time
import types
from dataclasses import dataclass

import numpy as np


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


def _rows(x) -> np.ndarray:
    return x.rows if hasattr(x, "rows") else np.asarray(x)


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    support = p > 0
    return float(np.sum(p[support] * (np.log(p[support]) - np.log(q[support]))))


class Tracer:
    ROW_OPS = ("sample_rows", "one_hot_rows", "argmax_rows")
    PRIVATE = {"search": "_decode_search", "flipcost": "_row_flip_costs", "pooling": "_force_argmax_row"}

    def __init__(self, pd):
        self.pd = pd
        self.layers: dict[str, LayerStats] = {}
        self.outer_s = 0.0
        self.stack: list[list] = []  # [layer, seconds covered by child spans]
        self.counters = {
            "states": 0,
            "unchanged": 0,
            "infeasible": 0,
            "kl_moved": 0.0,
            "outer_iters": 0,
            "relaxed_evals": 0,
        }
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _close(self, layer: str, elapsed: float, child_s: float) -> None:
        stats = self.layers.setdefault(layer, LayerStats())
        stats.calls += 1
        stats.busy_s += elapsed
        stats.self_s += elapsed - child_s
        if self.stack:
            self.stack[-1][1] += elapsed
        else:
            self.outer_s += elapsed

    def span(self, layer: str, fn, after=None):
        """Wrap fn in a span; after(args, kwargs, result) updates counters.

        The counter update is timed as a span of its own layer,
        "tracer", so that it is charged neither to the wrapped layer nor
        to the sampler's self time.
        """
        self.layers.setdefault(layer, LayerStats())
        stack = self.stack

        def traced(*args, **kwargs):
            # A layer re-entered from inside itself stays one span.
            if any(frame[0] == layer for frame in stack):
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self._close(layer, elapsed, frame[1])
            if after is not None:
                start = time.perf_counter()
                after(args, kwargs, out)
                self._close("tracer", time.perf_counter() - start, 0.0)
            return out

        return traced

    def _patch(self, owner, name: str, replacement) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    # -- counters ------------------------------------------------------

    def _count_states(self, args, kwargs, out) -> None:
        self.counters["states"] += int(args[1].shape[0])

    def _count_projection(self, args, kwargs, out) -> None:
        before = _rows(args[0])
        alm = hasattr(out, "projected")
        after = _rows(out.projected) if alm else _rows(out)
        self.counters["unchanged"] += int(np.array_equal(before, after))
        self.counters["kl_moved"] += _kl(before, after)
        if alm:
            self.counters["infeasible"] += int(not out.feasible)
            self.counters["outer_iters"] += int(out.outer_iters)

    def _count_relaxed(self, fn):
        counters = self.counters

        def call(*args, **kwargs):
            counters["relaxed_evals"] += 1
            return fn(*args, **kwargs)

        return call

    def __enter__(self):
        pd = self.pd
        sampler, projection, backend = pd.sampler, pd.projection, pd.backend
        for name in ("posterior_batch", "posterior_loo_batch"):
            fn = getattr(pd.ExactBayesDenoiser, name)
            self._patch(pd.ExactBayesDenoiser, name, self.span("denoiser", fn, self._count_states))
        self._patch(sampler, "reverse_mixture_rows", self.span("noise", sampler.reverse_mixture_rows))
        real_ops = backend.ops
        proxy = types.SimpleNamespace(**{k: getattr(real_ops, k) for k in dir(real_ops) if not k.startswith("__")})
        for name in self.ROW_OPS:
            setattr(proxy, name, self.span("rowops", getattr(real_ops, name)))
        self._patch(backend, "ops", proxy)
        count = self._count_projection
        self._patch(sampler, "alm_project", self.span("projection", sampler.alm_project, count))
        self._patch(sampler, "position_project", self.span("projection", sampler.position_project, count))
        novelty = self.span("novelty", sampler.novelty_project)
        self._patch(sampler, "novelty_project", self.span("projection", novelty, count))
        self._patch(projection, "alm_gradient", self.span("alm.gradient", projection.alm_gradient))
        for layer, name in self.PRIVATE.items():
            if hasattr(projection, name):
                self._patch(projection, name, self.span(layer, getattr(projection, name)))
            elif layer not in self.absent:
                self.absent.append(layer)
        self._patch(pd.ConstraintSet, "hard_violations", self.span("constraints.hard", pd.ConstraintSet.hard_violations))
        for cls in (pd.LinearScore, pd.TokenCount, pd.Position):
            for name in ("relaxed_score", "relaxed_grad"):
                if name in vars(cls):
                    self._patch(cls, name, self._count_relaxed(vars(cls)[name]))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        return False
