"""Coordinate-block bookkeeping: partitions, the one full-precision CSV
format every emitted table uses, the one rule every numeric setting
keeps, and the one check of finite problem data.

A partition splits the coordinates of a dense vector into contiguous,
non-overlapping blocks.  Blocks are addressed by ``(offset, length)`` views,
never by selection matrices, so extraction is O(1) slicing.
"""

import numpy as np

__all__ = [
    "all_finite",
    "as_ints",
    "at_least",
    "BlockPartition",
    "write_csv",
    "vector_from_csv_row",
]


def at_least(name, value, low):
    """The setting rule: ``value`` is a finite number ``>= low`` (NaN fails
    the comparison and gets its message; ``+inf`` gets its own)."""
    if not value >= low:
        raise ValueError("%s must be >= %d, got %r" % (name, low, value))
    if value == np.inf:
        raise ValueError("%s must be finite, got %r" % (name, value))


def all_finite(name, data):
    """The data rule: every entry of the array ``data`` is finite; the first
    NaN or infinity raises, named with ``name`` and its index."""
    bad = np.argwhere(~np.isfinite(data))
    if len(bad):
        at = tuple(int(i) for i in bad[0])
        raise ValueError("%s must be finite, got %r at index %r"
                         % (name, float(data[at]), at))


def as_ints(name, values):
    """``values`` as a tuple of ints; a fractional value raises, not truncates."""
    ints = []
    for v in values:
        if v != int(v):
            raise ValueError("%s must be integers, got %r" % (name, v))
        ints.append(int(v))
    return tuple(ints)


class BlockPartition:
    """Contiguous non-overlapping partition of ``[0, d)`` into ``n`` blocks.

    Parameters
    ----------
    block_dims : sequence of int
        Positive block sizes ``d_1, ..., d_n``.
    """

    def __init__(self, block_dims):
        dims = as_ints("block dimensions", block_dims)
        if len(dims) == 0:
            raise ValueError("partition needs at least one block")
        if any(d < 1 for d in dims):
            raise ValueError("block dimensions must be positive, got %r" % (dims,))
        self.block_dims = dims
        offs = [0]
        for d in dims:
            offs.append(offs[-1] + d)
        self.offsets = tuple(offs)
        self.total_dim = offs[-1]
        self.n_blocks = len(dims)

    def slice_of(self, i):
        """Return the ``slice`` addressing block ``i``."""
        if not 0 <= i < self.n_blocks:
            raise IndexError(
                "block index %d out of range for %d blocks" % (i, self.n_blocks)
            )
        return slice(self.offsets[i], self.offsets[i + 1])

    def __eq__(self, other):
        return isinstance(other, BlockPartition) and self.block_dims == other.block_dims

    def __hash__(self):
        return hash(self.block_dims)

    def __repr__(self):
        return "BlockPartition(%r)" % (list(self.block_dims),)


def write_csv(path, header, rows):
    """Write a header line and one line per row, ending in a newline.

    Integers print with ``str``; every other value prints as
    ``repr(float(v))``, which round-trips exactly.  Returns ``path``.
    """
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            str(v) if isinstance(v, (int, np.integer)) else repr(float(v)) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def vector_from_csv_row(row):
    return np.array([float(t) for t in row.strip().split(",")]) if row.strip() else np.array([])
