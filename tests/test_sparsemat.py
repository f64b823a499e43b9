import numpy as np
import pytest

from mathrank.sparsemat import SparseWeightMatrix

from conftest import entries


def from_entries(shape, triples):
    """The matrix of (row, col, value) triples, through from_arrays."""
    rows, cols, vals = zip(*triples) if triples else ((), (), ())
    return SparseWeightMatrix.from_arrays(shape, rows, cols, vals)


def random_matrix(rng, n_rows, n_cols, density=0.2):
    dense = (rng.random((n_rows, n_cols)) < density) * rng.random((n_rows, n_cols))
    rows, cols = np.nonzero(dense)
    return SparseWeightMatrix.from_arrays(
        (n_rows, n_cols), rows, cols, dense[rows, cols]), dense


def test_entries_stored_column_major():
    m = from_entries(
        (3, 3), [(2, 1, 0.5), (0, 0, 1.0), (1, 1, 0.1), (0, 2, 2.0)])
    assert entries(m) == [
        (0, 0, 1.0), (1, 1, 0.1), (2, 1, 0.5), (0, 2, 2.0)]
    assert m.nnz == 4
    assert list(m.colidx) == [0, 1, 1, 2]


def test_to_dense_round_trip(rng):
    m, dense = random_matrix(rng, 7, 5)
    np.testing.assert_array_equal(m.to_dense(), dense)


def test_column_sums(rng):
    m, dense = random_matrix(rng, 8, 6)
    np.testing.assert_allclose(m.column_sums(), dense.sum(axis=0), atol=1e-15)


def test_column_sums_with_empty_columns():
    m = from_entries((2, 3), [(0, 2, 3.0), (1, 2, 1.0)])
    np.testing.assert_array_equal(m.column_sums(), [0.0, 0.0, 4.0])


def test_matvec_matches_dense(rng):
    m, dense = random_matrix(rng, 9, 7)
    x = rng.random(7)
    np.testing.assert_allclose(m.matvec(x), dense @ x, atol=1e-15)


def test_matvec_of_empty_matrix_is_float_zero():
    y = from_entries((3, 2), []).matvec(np.ones(2))
    assert y.dtype == np.float64
    np.testing.assert_array_equal(y, np.zeros(3))


def large_random_matrix(rng, n=100_000, nnz=500_000):
    """n x n with about nnz distinct entries and positive weights."""
    flat = np.unique(rng.integers(0, n * n, size=nnz))
    vals = rng.uniform(0.05, 1.0, size=flat.size)
    return SparseWeightMatrix.from_arrays((n, n), flat // n, flat % n, vals)


def longdouble_sums(index, weights, n):
    out = np.zeros(n, dtype=np.longdouble)
    np.add.at(out, index, weights.astype(np.longdouble))
    return out


def test_matvec_precision_at_scale(rng):
    # Each row is a short sum of positive terms, so it must stay within a few
    # ulps of the extended-precision result however many rows precede it.
    m = large_random_matrix(rng)
    x = rng.random(m.shape[1])
    ref = longdouble_sums(
        m.rowidx, m.values.astype(np.longdouble) * x[m.colidx], m.shape[0])
    np.testing.assert_allclose(m.matvec(x), ref.astype(np.float64), rtol=1e-13, atol=0)


def test_column_sums_precision_at_scale(rng):
    m = large_random_matrix(rng)
    ref = longdouble_sums(m.colidx, m.values, m.shape[1])
    np.testing.assert_allclose(m.column_sums(), ref.astype(np.float64), rtol=1e-13, atol=0)


def test_duplicate_entries_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        from_entries((2, 2), [(0, 1, 1.0), (0, 1, 2.0)])


@pytest.mark.parametrize("entry", [(-1, 0, 1.0), (2, 0, 1.0), (0, -1, 1.0), (0, 2, 1.0)])
def test_out_of_bounds_rejected(entry):
    with pytest.raises(ValueError, match="out of bounds"):
        from_entries((2, 2), [entry])


@pytest.mark.parametrize("weight", [0.0, -0.5])
def test_nonpositive_weights_rejected(weight):
    with pytest.raises(ValueError, match="positive"):
        from_entries((2, 2), [(0, 1, weight)])


def test_empty_matrix():
    m = from_entries((4, 4), [])
    assert m.nnz == 0
    np.testing.assert_array_equal(m.to_dense(), np.zeros((4, 4)))
    np.testing.assert_array_equal(m.column_sums(), np.zeros(4))


def test_with_values_keeps_pattern():
    m = from_entries((2, 2), [(0, 1, 1.0), (1, 0, 2.0)])
    m2 = m.with_values(np.array([0.5, 0.25]))
    assert entries(m2) == [(1, 0, 0.5), (0, 1, 0.25)]
    with pytest.raises(ValueError):
        m.with_values(np.array([1.0]))


def test_arrays_are_read_only():
    m = from_entries((2, 2), [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        m.values[0] = 2.0
    with pytest.raises(ValueError):
        m.rowidx[0] = 1
