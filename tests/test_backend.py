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
