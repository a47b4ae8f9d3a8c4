"""Full-space views of the per-slot blocks, for tests that compare the block route with the dense oracle."""

import numpy as np

from crspin.operators import degree_gram


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


def to_stack(space, keys):
    """Dense (n_blocks, fiber_dim, fiber_dim) stack of keyed blocks (``SectionSpace.stack``), 0 where no key is."""
    out = np.zeros((len(space.blocks()), space.fiber_dim, space.fiber_dim), dtype=complex)
    for (s, c), vec in keys.items():
        out[:, s, c] = vec
    return out


def box_keys(space, dirac):
    """box on the blocks as keys {(s, c): (n_blocks,) vector}: half of each degree's Gram of D (``degree_gram``)."""
    out = {}
    for q in range(space.m + 1):
        fib = space.module.grade_slice(q)
        gram, states = degree_gram(space, dirac, q), range(fib.start, fib.stop)
        out.update({(s, c): 0.5 * gram[:, i, j] for i, s in enumerate(states) for j, c in enumerate(states)})
    return out
