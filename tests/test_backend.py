"""Edge cases of the row operations served by ``backend.ops``."""

import numpy as np
import pytest

from projdiff import _ops_numpy, backend


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
