"""Full-space views of the per-slot blocks, for tests that compare the block route with the dense oracle."""

import numpy as np


def full_indices(space):
    """Full-space index of every block state, -1 where the cutoff removed it."""
    partners = space.blocks()
    return np.where(partners >= 0, np.arange(space.fiber_dim) * space.base_dim + partners, -1)


def complete_mask(space):
    """Full-space mask of the present states of complete blocks, the states every residual is read on."""
    index = full_indices(space)[space.block_complete()]
    mask = np.zeros(space.dim, dtype=bool)
    mask[index[index >= 0]] = True
    return mask


def complete_max(space, diff, rows=slice(None)):
    """Largest |entry| of the full-space matrix ``diff`` (on the index slice ``rows``) between those states."""
    mask = complete_mask(space)[rows]
    return float(np.abs(diff[np.ix_(mask, mask)]).max())
