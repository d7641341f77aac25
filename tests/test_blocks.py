import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bdcopt.blocks import BlockPartition, vector_from_csv_row, vector_to_csv_row


def test_partition_invariants():
    part = BlockPartition([2, 3, 1])
    assert part.total_dim == 6
    assert part.n_blocks == 3
    assert part.offsets == (0, 2, 5, 6)
    assert part.slice_of(1) == slice(2, 5)
    with pytest.raises(IndexError):
        part.slice_of(3)


def test_partition_rejects_bad_dims():
    with pytest.raises(ValueError):
        BlockPartition([])
    with pytest.raises(ValueError):
        BlockPartition([2, 0, 1])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5),
       st.integers(0, 2 ** 31 - 1))
def test_extraction_covers_vector(dims, seed):
    part = BlockPartition(dims)
    data = np.random.default_rng(seed).standard_normal(part.total_dim)
    stitched = np.concatenate([data[part.slice_of(i)] for i in range(part.n_blocks)])
    np.testing.assert_array_equal(stitched, data)


def test_csv_row_round_trip():
    x = np.array([1.0, -2.5, 1e-17, np.pi])
    row = vector_to_csv_row(x)
    assert "," in row and "\n" not in row
    np.testing.assert_array_equal(vector_from_csv_row(row), x)
