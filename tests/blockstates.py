"""Full-space views of the per-slot blocks, for tests that compare the block route with the dense oracle, and a
recorder of the degree Grams that no sector pass forms."""

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


def to_stack(space, keys):
    """Dense (n_blocks, fiber_dim, fiber_dim) stack of keyed blocks (``SectionSpace.stack``), 0 where no key is."""
    out = np.zeros((len(space.blocks()), space.fiber_dim, space.fiber_dim), dtype=complex)
    for (s, c), vec in keys.items():
        out[:, s, c] = vec
    return out


def box_keys(space, dirac):
    """box on the blocks as keys {(s, c): (n_blocks,) vector}: half of D^2's degree blocks (``square_rows``)."""
    degree = space.module.degrees
    return {(s, c): 0.5 * vec for row in space.square_rows(dirac) for (s, c), vec in row.items()
            if degree[s] == degree[c]}


def record_grams(patch):
    """Shapes of every square (n_blocks, d, d) array that ``np.zeros`` allocates: a degree's Gram, which no block
    reader forms, since the kernel counts read D^2's certified diagonal."""
    grams, zeros = [], np.zeros

    def recording(shape, *args, **kwargs):
        if np.ndim(shape) == 1 and len(shape) == 3 and shape[1] == shape[2]:
            grams.append(tuple(shape))
        return zeros(shape, *args, **kwargs)

    patch.setattr(np, "zeros", recording)
    return grams
