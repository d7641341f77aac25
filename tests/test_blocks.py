import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bdcopt.blocks import BlockPartition, vector_from_csv_row, write_csv


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


def test_csv_row_round_trip(tmp_path):
    x = np.array([1.0, -2.5, 1e-17, np.pi])
    path = write_csv(tmp_path / "row.csv", ["a", "b", "c", "d"], [x])
    header, row = path.read_text().split("\n")[:2]
    assert header == "a,b,c,d" and path.read_text().endswith(row + "\n")
    np.testing.assert_array_equal(vector_from_csv_row(row), x)


def test_write_csv_format(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["i", "n", "x"],
                     [(3, np.int64(-2), 0.1), (0, 1, np.float64(2.0))])
    assert path.read_text() == "i,n,x\n3,-2,0.1\n0,1,2.0\n"
    assert write_csv(tmp_path / "e.csv", ["k"], []).read_text() == "k\n"
