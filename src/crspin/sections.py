"""Finite-dimensional section spaces for the flat model geometries.

The Heisenberg quotients and the torus circle bundles both carry a
transverse circle symmetry, so sections of the spinor bundle split into
weight sectors.  On a fixed sector the horizontal derivatives along the
unitary frame satisfy canonical commutation relations

    [nabla_{E_a}, nabla_{Ebar_b}] = t delta_ab,        nabla_T = i t,

with one real parameter t per sector: t = k on the weight-k sector of a
Heisenberg quotient and t = -s/2 on the fiber-weight-s sector of a torus
circle bundle (the contact form is twice the connection form, which is
where the half comes from).

Two concrete realizations cover all sectors:

* t == 0: Fourier modes of the flat base torus.  Every derivative matrix
  is diagonal, so operator identities close to rounding on the whole
  truncated space.
* t != 0: a tensor product of m harmonic oscillator ladders cut off at
  ``ladder_levels`` states per slot.  Truncation only corrupts matrix
  elements that pass through the top rung; states with one level of
  headroom in every slot are flagged by the ``interior`` mask, and matrix
  elements of quadratic expressions between interior states are exact.

Kernel counts computed on a single ladder copy carry a physical
degeneracy; the ``multiplicity`` attribute records that integer factor
(|k|^m on the Heisenberg quotient, |s c|^m on a flux-c torus bundle) so
dimension tables can be scaled without enlarging any matrix.

The full section space is spanned by (fiber basis) x (base coefficient),
fiber index major, so the fixed-degree blocks of the spinor fiber stay
contiguous after taking Kronecker products.  Every full-space operator is
a sum of such products, and ``SectionSpace.mixed`` is the one place that
forms them: ``mixed(A, B)`` is kron(A, B), the lifts of a pure fiber
or pure base operator are ``mixed`` with an identity factor, and
``dense(terms)`` sums a list of (fiber, base) terms.  Callers never
multiply two lifted matrices.

The operators the spectral checks need also conserve one label per slot
a, so they split into blocks of at most 2^m rows.  On ladder sectors the
label is J_a = bit_a + n_a for t > 0 and J_a = bit_a - n_a for t < 0
(bit_a is the a-th fiber occupation, n_a the a-th ladder occupation); on
Fourier sectors it is the frequency.  ``blocks()`` is the partner table:
row j lists, for every fiber state, the base index that completes it to
label j, or -1 where the cutoff removed that state; ``block_complete()``
flags the blocks the top cutoff removed no state of.  ``stack(terms)``
forms the blocks of a sum of (fiber, base) Kronecker terms, entry for
entry the same products ``mixed`` forms, without the dim x dim matrix.
It checks each term against the partner table it gathers with: every
full-space state sits in exactly one block, so a term keeps its blocks
exactly when its in-block entries are as many as the nonzeros of its
Kronecker product.  It raises on a term with fewer, naming the first
entry that leaves its block, since the blocks cannot hold it.

``horizontal_laplacians()`` holds the base matrices of nabla_10*
nabla_10 and nabla_01* nabla_01, formed once per space.
"""

from __future__ import annotations

import itertools

import numpy as np

from .clifford import SpinorModule
from .models import (
    HeisenbergModel,
    PseudoHermitianModel,
    TorusBundleModel,
    TorusLattice,
    default_truncation,
)

__all__ = ["SectionSpace"]


def _ladder_annihilation(levels: int) -> np.ndarray:
    mat = np.zeros((levels, levels), dtype=complex)
    for n in range(1, levels):
        mat[n - 1, n] = np.sqrt(n)
    return mat


def _slot_operator(mat: np.ndarray, slot: int, m: int) -> np.ndarray:
    """Embed a single-ladder operator into slot ``slot`` of an m-fold product."""
    levels = mat.shape[0]
    out = np.eye(1, dtype=complex)
    for j in range(m):
        out = np.kron(out, mat if j == slot else np.eye(levels, dtype=complex))
    return out


class SectionSpace:
    """Matrix realization of one weight sector of a flat model geometry.

    Parameters
    ----------
    model : HeisenbergModel or TorusBundleModel
        The geometry.  Sphere models carry curvature data only and are
        rejected here.
    sector : int, optional
        Overrides the sector weight stored on the model (``k`` for the
        Heisenberg quotient, ``s`` for the torus bundle).

    Attributes
    ----------
    t : float
        Commutator scalar of the sector; ``nabla_T`` acts as ``1j * t``.
    multiplicity : int
        Physical degeneracy of the realized copy (1 on Fourier sectors).
    nabla_e, nabla_ebar : list of ndarray
        Base-space matrices of the derivatives along E_a and Ebar_a.
    interior : ndarray of bool
        Base coefficients whose quadratic matrix elements are exact.
    ladder_levels : int
        States kept per slot on ladder sectors (the truncation's value).
    labels : ndarray
        One row per base coefficient: dual frequencies (Fourier) or
        ladder occupation numbers.
    """

    def __init__(self, model: PseudoHermitianModel, sector: int | None = None):
        if not isinstance(model, (HeisenbergModel, TorusBundleModel)):
            raise ValueError(f"{model.kind} model has no section space")
        if sector is not None and (isinstance(sector, bool) or not isinstance(sector, int)):
            raise ValueError(f"sector must be an integer, got {sector!r}")
        self.model = model
        self.m = model.m
        self.module = SpinorModule(model.m)
        self.fiber_dim = self.module.dim
        trunc = model.truncation or default_truncation(model.m)
        self.ladder_levels = trunc.ladder_levels

        if isinstance(model, HeisenbergModel):
            self.sector = model.k if sector is None else sector
            self.t = float(self.sector)
            self.multiplicity = abs(self.sector) ** self.m if self.sector else 1
            lattice = TorusLattice(self.m)
        else:
            self.sector = model.s if sector is None else sector
            self.t = -self.sector / 2.0
            self.multiplicity = abs(self.sector * model.flux) ** self.m if self.sector else 1
            lattice = model.lattice

        if self.t == 0.0:
            self.kind = "fourier"
            self._build_fourier(lattice, trunc.fourier_radius)
        else:
            self.kind = "ladder"
            self._build_ladder(self.ladder_levels)

        self.base_dim = self.nabla_e[0].shape[0]
        self.dim = self.fiber_dim * self.base_dim
        # fiber occupations, one row per fiber state: bit a is set when slot a+1 is in the subset
        self._bits = np.array([[a in s for a in range(1, self.m + 1)] for s in self.module.subsets], dtype=int)
        self._partners = self._laplacians = None

    def _build_fourier(self, lattice: TorusLattice, radius: int):
        freqs = lattice.dual_frequencies(radius)
        m = self.m
        # E_a = (e_a - i Je_a)/2 acts on exp(i w.x) as i * (w_x - i w_y)/2
        zeta = 0.5 * (freqs[:, :m] - 1j * freqs[:, m:])
        self.nabla_e = [np.diag(1j * zeta[:, a]) for a in range(m)]
        self.nabla_ebar = [np.diag(1j * np.conj(zeta[:, a])) for a in range(m)]
        self.interior = np.ones(len(freqs), dtype=bool)
        self.labels = freqs

    def _build_ladder(self, levels: int):
        m = self.m
        lower = _ladder_annihilation(levels)
        raise_root = np.sqrt(abs(self.t))
        self.nabla_e = []
        self.nabla_ebar = []
        for a in range(m):
            low = _slot_operator(lower, a, m)
            high = low.conj().T
            if self.t > 0:
                self.nabla_ebar.append(raise_root * low)
                self.nabla_e.append(-raise_root * high)
            else:
                self.nabla_e.append(raise_root * low)
                self.nabla_ebar.append(-raise_root * high)
        occ = np.array(list(itertools.product(range(levels), repeat=m)), dtype=int)
        self.labels = occ
        self.interior = np.all(occ <= levels - 2, axis=1)

    # -- real-frame derivatives ------------------------------------------

    def nabla_real(self, i: int) -> np.ndarray:
        """Derivative along the real frame vector s_i (order e_1..e_m, Je_1..Je_m)."""
        if not 0 <= i < 2 * self.m:
            raise ValueError(f"frame index out of range: {i}")
        if i < self.m:
            return self.nabla_e[i] + self.nabla_ebar[i]
        a = i - self.m
        return 1j * (self.nabla_e[a] - self.nabla_ebar[a])

    def horizontal_laplacians(self) -> tuple[np.ndarray, np.ndarray]:
        """Base-space matrices of nabla_10* nabla_10 and nabla_01* nabla_01, formed once, read-only.

        nabla_10* nabla_10 = -2 sum_a nabla_{Ebar_a} nabla_{E_a} and
        nabla_01* nabla_01 = -2 sum_a nabla_{E_a} nabla_{Ebar_a}.
        """
        if self._laplacians is None:
            lap10 = np.zeros((self.base_dim, self.base_dim), dtype=complex)
            lap01 = np.zeros_like(lap10)
            for a in range(self.m):
                lap10 -= 2.0 * self.nabla_ebar[a] @ self.nabla_e[a]
                lap01 -= 2.0 * self.nabla_e[a] @ self.nabla_ebar[a]
            lap10.flags.writeable = lap01.flags.writeable = False
            self._laplacians = lap10, lap01
        return self._laplacians

    # -- lifting to the full space ---------------------------------------

    def mixed(self, fiber_mat: np.ndarray, base_mat: np.ndarray) -> np.ndarray:
        """Full-space matrix of the product operator fiber_mat (x) base_mat, from C-ordered
        factors: np.kron copies its product once more for a transposed one (half the ladder operators)."""
        return np.kron(*(np.ascontiguousarray(f, dtype=complex) for f in (fiber_mat, base_mat)))

    def lift_fiber(self, mat: np.ndarray) -> np.ndarray:
        """Fiber operator acting as the identity on base coefficients."""
        return self.mixed(mat, np.eye(self.base_dim))

    def lift_base(self, mat: np.ndarray) -> np.ndarray:
        """Base operator acting as the identity on the spinor fiber."""
        return self.mixed(np.eye(self.fiber_dim), mat)

    # -- per-slot blocks --------------------------------------------------

    def blocks(self) -> np.ndarray:
        """Partner table of the per-slot blocks, shape (n_blocks, fiber_dim), read-only.

        Entry [j, s] is the base index n that puts fiber state s in block j,
        or -1 where n falls outside the truncation.  Ladder blocks are the
        labels J in [0, L]^m (t > 0, n = J - bits) or [1 - L, 1]^m (t < 0,
        n = bits - J) in lexicographic order; Fourier blocks are the
        frequencies, with every fiber state present.
        """
        if self._partners is None:
            if self.kind == "fourier":
                partners = np.repeat(np.arange(self.base_dim)[:, None], self.fiber_dim, axis=1)
                complete = np.ones(self.base_dim, dtype=bool)
            else:
                levels, bits = self.ladder_levels, self._bits
                span = range(levels + 1) if self.t > 0 else range(1 - levels, 2)
                labels = np.array(list(itertools.product(span, repeat=self.m)), dtype=int)
                occ = labels[:, None, :] - bits if self.t > 0 else bits - labels[:, None, :]
                valid = np.all((occ >= 0) & (occ < levels), axis=2)
                # base index of an occupation tuple, slot 0 most significant (``labels`` order)
                partners = np.where(valid, occ @ levels ** np.arange(self.m - 1, -1, -1), -1)
                complete = ~np.any(occ >= levels, axis=(1, 2))
            partners.flags.writeable = complete.flags.writeable = False
            self._partners, self._complete = partners, complete
        return self._partners

    def block_complete(self) -> np.ndarray:
        """Completeness flag of each per-slot block (``blocks()`` order), read-only.

        A block is complete when the top cutoff removed none of its states:
        on ladder sectors no partner has an occupation >= ``ladder_levels``
        (all J_a <= L - 1 for t > 0, all J_a >= 2 - L for t < 0); every
        Fourier block is complete.  D and box act on a complete block
        exactly as the untruncated operators do, so its null vectors are
        kernel, and null vectors of any other block are cutoff artifacts.
        """
        self.blocks()
        return self._complete

    def dense(self, terms) -> np.ndarray:
        """Full-space matrix of sum(mixed(F, B) for F, B in terms), summed in place."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for fiber_mat, base_mat in terms:
            out += self.mixed(fiber_mat, base_mat)
        return out

    def stack(self, terms) -> np.ndarray:
        """Blocks of ``dense(terms)``, shape (n_blocks, fiber_dim, fiber_dim).

        Entry [j, s, s'] is the full-space entry between the block-j states
        of fiber states s and s', formed by the same products and sums as
        the full-space matrix; entries of states the cutoff removed are 0.
        Every full-space state sits in exactly one block, so a term keeps
        its blocks exactly when its gathered in-block entries number
        nnz(fiber) * nnz(base), the nonzeros of its Kronecker product; a
        term with fewer raises ``ValueError`` instead of being dropped
        (``_refuse``).  ``terms`` is iterated once.
        """
        partners = self.blocks()
        present = partners >= 0
        base = np.where(present, partners, 0)
        rows, cols = base[:, :, None], base[:, None, :]
        cut = ~(present[:, :, None] & present[:, None, :])
        out = np.zeros(cut.shape, dtype=complex)
        for index, (fiber_mat, base_mat) in enumerate(terms):
            fiber_mat, base_mat = np.asarray(fiber_mat, dtype=complex), np.asarray(base_mat, dtype=complex)
            entries = fiber_mat[None] * base_mat[rows, cols]
            entries[cut] = 0.0
            if np.count_nonzero(entries) != np.count_nonzero(fiber_mat) * np.count_nonzero(base_mat):
                self._refuse(index, fiber_mat, base_mat)
            out += entries
        return out

    def _refuse(self, index: int, fiber_mat: np.ndarray, base_mat: np.ndarray):
        """Raise ``ValueError`` naming the first nonzero entry of fiber_mat (x) base_mat that leaves its block.

        Entries run fiber entry major, each factor's nonzeros in row-major
        order; the state-to-block map is built only here.
        """
        partners = self.blocks()
        block, state = np.nonzero(partners >= 0)
        block_of = np.empty((self.fiber_dim, self.base_dim), dtype=int)
        block_of[state, partners[block, state]] = block
        fiber_rows, fiber_cols = np.nonzero(fiber_mat)
        base_rows, base_cols = np.nonzero(base_mat)
        leaves = (block_of[fiber_rows[:, None], base_rows[None, :]]
                  != block_of[fiber_cols[:, None], base_cols[None, :]])
        i, j = np.argwhere(leaves)[0]
        raise ValueError(f"{self.model.kind} sector {self.sector}: term {index} moves states between "
                         f"per-slot blocks (fiber entry ({fiber_rows[i]}, {fiber_cols[i]}), "
                         f"base entry ({base_rows[j]}, {base_cols[j]}))")

    def block_interior(self) -> np.ndarray:
        """Interior flags of the block states, shaped like ``blocks()``; False where the cutoff removed a state."""
        partners = self.blocks()
        return (partners >= 0) & self.interior[np.maximum(partners, 0)]

    def block_interior_max(self, stack: np.ndarray, states: slice = slice(None)) -> float:
        """Largest |entry| of ``stack`` (per-slot blocks on the fiber states ``states``) between interior states."""
        inside = self.block_interior()[:, states]
        entries = stack[inside[:, :, None] & inside[:, None, :]]
        return float(np.abs(entries).max()) if entries.size else 0.0

    def interior_max(self, diff: np.ndarray, block: slice = slice(None)) -> float:
        """Largest |entry| of ``diff`` (a matrix on the index slice ``block``) between interior coefficients."""
        mask = np.tile(self.interior, self.fiber_dim)[block]
        diff = diff[np.ix_(mask, mask)]
        return float(np.abs(diff).max()) if diff.size else 0.0

    def grade_block(self, q: int) -> slice:
        """Index slice of the degree-q spinor block in the full space."""
        fib = self.module.grade_slice(q)
        return slice(fib.start * self.base_dim, fib.stop * self.base_dim)

    def describe(self) -> str:
        return (
            f"{self.model.kind} sector {self.sector}: {self.kind} base, "
            f"t={self.t:g}, dim {self.fiber_dim}x{self.base_dim}, "
            f"multiplicity {self.multiplicity}"
        )
