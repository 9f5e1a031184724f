"""The benchmark's tracer must find every name it patches in the package.

perfbench/tracer.py wraps module and class attributes of projdiff by
name; a rename or removal on the program side breaks `--trace 1` runs.
"""

import importlib.util
import os
import sys

import pytest

import projdiff

from conftest import NoTerms, make_corpus, make_vocab

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_patch_point():
    tracer = load_tracer().Tracer(projdiff)
    original = projdiff.sampler.position_project
    with tracer:
        assert tracer.absent == []
        assert projdiff.sampler.position_project is not original
    assert projdiff.sampler.position_project is original


@pytest.mark.parametrize("kernel", ["masked", "uniform"])
def test_traced_reverse_step_reaches_every_layer(kernel):
    # The per-state reverse step must still pass through the wrapped
    # denoiser, mixture and row-op entry points, with the whole batch
    # handed to the denoiser, so the benchmark's layer split sees it.
    vocab = make_vocab(3, with_mask=(kernel == "masked"))
    corpus = make_corpus(vocab, length=3, n_entries=6, seed=5)
    chains, steps = 100, 4
    config = projdiff.SampleConfig(steps=steps, length=3, kernel=kernel, num_samples=chains, rng_seed=0)
    tracer = load_tracer().Tracer(projdiff)
    with tracer:
        projdiff.sample_unconstrained(corpus, config)
    for layer in ("denoiser", "noise", "rowops"):
        assert tracer.layers[layer].calls > 0, layer
    assert tracer.counters["states"] == chains * steps


def test_traced_plain_search_set_reaches_the_search_layer():
    # A set holding a constraint without position terms takes the
    # best-first search, _decode_search, which the tracer times as its
    # search layer.
    corpus = make_corpus(make_vocab(4), length=5, n_entries=8, seed=11)
    cs = projdiff.ConstraintSet((projdiff.TokenCount(token=0, op="le", k=1), NoTerms()))
    config = projdiff.SampleConfig(steps=6, length=5, num_samples=16, rng_seed=0)
    tracer = load_tracer().Tracer(projdiff)
    with tracer:
        seqs, _ = projdiff.sample_constrained(corpus, cs, config)
    assert tracer.layers["search"].calls > 0
    assert all(cs.satisfied(s) for s in seqs)
