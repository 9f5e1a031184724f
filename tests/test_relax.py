"""Differentiable argmax relaxation: the forward map."""

import numpy as np
import pytest

from projdiff.core import SeqDist, decode
from projdiff.relax import RelaxConfig, gumbel_softmax


def random_rows(seed, length=3, n=4, floor=1e-3):
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(n), size=length)
    rows = np.maximum(rows, floor)
    return rows / rows.sum(axis=1, keepdims=True)


def test_identity_at_unit_temperature():
    rows = random_rows(0)
    out = gumbel_softmax(SeqDist(rows), RelaxConfig(temperature=1.0))
    assert np.allclose(out.rows, rows, atol=1e-12)


def test_low_temperature_sharpens_toward_argmax():
    rows = random_rows(1)
    sharp = gumbel_softmax(SeqDist(rows), RelaxConfig(temperature=0.05))
    assert decode(sharp) == decode(SeqDist(rows))
    assert np.all(sharp.rows.max(axis=1) > rows.max(axis=1))
    assert np.all(sharp.rows.max(axis=1) > 0.99)


def test_rows_stay_on_simplex():
    rows = random_rows(2)
    out = gumbel_softmax(SeqDist(rows), RelaxConfig(temperature=0.5))
    assert np.all(out.rows >= 0)
    assert np.allclose(out.rows.sum(axis=1), 1.0)


def test_argmax_preserved_without_noise():
    for seed in range(20):
        rows = random_rows(seed)
        out = gumbel_softmax(SeqDist(rows), RelaxConfig(temperature=0.5))
        assert decode(out) == decode(SeqDist(rows))


def test_stochastic_draw_is_reproducible():
    rows = random_rows(3)
    cfg = RelaxConfig(temperature=0.5, stochastic=True, rng_seed=42)
    a = gumbel_softmax(SeqDist(rows), cfg)
    b = gumbel_softmax(SeqDist(rows), cfg)
    assert np.array_equal(a.rows, b.rows)
    other = gumbel_softmax(SeqDist(rows), RelaxConfig(temperature=0.5, stochastic=True, rng_seed=43))
    assert not np.array_equal(a.rows, other.rows)


def test_temperature_must_be_positive():
    with pytest.raises(ValueError):
        RelaxConfig(temperature=0.0)


@pytest.mark.parametrize("temperature", [float("nan"), -0.5])
def test_nan_or_negative_temperature_is_refused_by_name(temperature):
    # A NaN temperature used to pass and fail later, in SeqDist, naming
    # no setting.
    with pytest.raises(ValueError, match=r"^temperature must be positive$"):
        RelaxConfig(temperature=temperature)


@pytest.mark.parametrize("seed", [1.5, True, -3])
def test_noise_seed_must_be_a_nonnegative_integer(seed):
    with pytest.raises(ValueError, match="rng_seed"):
        RelaxConfig(stochastic=True, rng_seed=seed)


def test_zero_coordinates_survive_via_floor():
    rows = np.array([[1.0, 0.0, 0.0]])
    out = gumbel_softmax(SeqDist(rows), RelaxConfig(temperature=0.5))
    assert np.all(np.isfinite(out.rows))
    assert out.rows[0, 0] > 0.999

