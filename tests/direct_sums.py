"""The laid-out reference of a ``spectral.BlockDiagonal``: tests compare
a direct sum the engine solves block by block with the order-n matrix it
stands for."""

import numpy as np

from torsionlab.spectral import BlockDiagonal


def laid_out(A):
    """The order-n array of a block-diagonal operator, each block written
    at its indices and zeros elsewhere; an array is returned as it is."""
    if not isinstance(A, BlockDiagonal):
        return A
    out = np.zeros(A.shape, dtype=np.result_type(np.float64, *A.blocks))
    for idx, block in zip(A.index, A.blocks):
        out[np.ix_(idx, idx)] = block
    return out
