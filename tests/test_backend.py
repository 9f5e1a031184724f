"""Edge cases of the row operations served by ``backend.ops``."""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projdiff import _ops_numpy, backend
from projdiff.sampler import _Engine


def test_ops_is_numpy():
    assert backend.ops is _ops_numpy
    assert backend.active_name == "python"


def test_argmax_tie_breaks_to_lowest():
    rows = np.array([[0.5, 0.5, 0.0], [0.2, 0.4, 0.4]])
    assert np.array_equal(backend.ops.argmax_rows(rows), [0, 1])


def test_kl_rows_infinite_case():
    p = np.array([[1.0, 0.0]])
    q = np.array([[0.0, 1.0]])
    assert backend.ops.kl_rows(p, q) == float("inf")


@pytest.mark.parametrize(
    "u_val, expected",
    [
        (0.0, [0, 0]),
        (0.3 - 1e-16, [0, 0]),  # just under the first CDF step of row 0
        (0.3, [0, 0]),
        (1.0 - 1e-16, [1, 0]),  # row 1 never picks its zero-mass id
    ],
)
def test_sample_rows_edge_uniforms(u_val, expected):
    probs = np.array([[0.3, 0.7], [1.0, 0.0]])
    got = backend.ops.sample_rows(probs, np.array([u_val, u_val]))
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("n", [1, 2, 4, 13])
def test_sample_rows_index_equals_the_gathered_rows(n):
    # Draw i against row index[i] must equal the draw against a stacked
    # copy of that row, and the count over its full CDF row written out,
    # including uniforms that fall on a CDF step.
    rng = np.random.default_rng(n)
    probs = rng.dirichlet(np.ones(n), size=7)
    probs[0] = np.eye(n)[n - 1]
    index = rng.integers(0, 7, 500)
    u = rng.random(500)
    u[:20] = np.cumsum(probs[index[:20]], axis=1)[:, 0]
    u[20] = 0.0
    got = backend.ops.sample_rows(probs, u, index)
    assert got.dtype == np.int64
    assert np.array_equal(got, backend.ops.sample_rows(probs[index], u))
    assert np.array_equal(got, np.minimum((np.cumsum(probs[index], axis=1) < u[:, None]).sum(axis=1), n - 1))
    assert np.array_equal(backend.ops.sample_rows(probs, u[:7]), backend.ops.sample_rows(probs, u[:7], np.arange(7)))


def _masked_engine(mask_id):
    """The attributes _Engine._draw reads, for a masked kernel."""
    return types.SimpleNamespace(kernel=types.SimpleNamespace(kind="masked", mask_id=mask_id))


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from([1, 2, 4, 13]),
    blocks=st.integers(1, 5),
    length=st.integers(1, 4),
    chains=st.integers(1, 12),
    zero_mass=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_rows_blocks_equal_the_gathered_rows(n, blocks, length, chains, zero_mass, seed):
    # Draw (i, j) of the block form inverts u[i, j] against row j of block
    # index[i]: the 2-D call on the gathered rows must agree, and so must
    # the count over the full CDF row capped at N - 1, including uniforms
    # on a CDF step (the last one may round past 1), 0.0 and 1 - 1e-16.
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(n), size=(blocks, length))
    if zero_mass:
        probs[rng.random(probs.shape) < 0.4] = 0.0
        probs[..., rng.integers(0, n)] += 0.25  # each row keeps some mass
        probs /= probs.sum(axis=2, keepdims=True)
    index = rng.integers(0, blocks, chains)
    gathered = probs[index]  # (B, L, N)
    u = rng.random((chains, length))
    kind = rng.integers(0, 4, u.shape)
    steps = np.cumsum(gathered, axis=2)
    on_step = np.take_along_axis(steps, rng.integers(0, n, u.shape)[..., None], axis=2)[..., 0]
    u = np.select([kind == 1, kind == 2, kind == 3], [on_step, 0.0, 1.0 - 1e-16], u)

    got = backend.ops.sample_rows(probs, u, index)
    assert got.dtype == np.int64 and got.shape == (chains, length)
    flat = backend.ops.sample_rows(gathered.reshape(-1, n), u.ravel())
    assert np.array_equal(got, flat.reshape(chains, length))
    assert np.array_equal(got, np.minimum((steps < u[..., None]).sum(axis=2), n - 1))
    assert np.array_equal(got, backend.ops.sample_rows(gathered, u))

    # The masked kernel's draw: with the identity (each chain its own
    # block of rows) it indexes rows by flat position, and must give the
    # draw that reads each chain's block through its index.
    mask_id = int(rng.integers(0, n))
    prev = rng.integers(0, n, (chains, length))
    prev[rng.random(prev.shape) < 0.5] = mask_id
    engine = _masked_engine(mask_id)
    by_position = _Engine._draw(engine, prev, gathered.reshape(-1, n), None, u)
    by_index = _Engine._draw(engine, prev, probs.reshape(-1, n), index, u)
    assert np.array_equal(by_position, by_index)
    masked = prev == mask_id
    assert np.array_equal(by_position[~masked], prev[~masked])
    assert np.array_equal(by_position[masked], got[masked])
