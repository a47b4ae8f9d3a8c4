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
forms them: ``mixed(A, B)`` is kron(A, B), and the lifts of a pure fiber
or pure base operator are ``mixed`` with an identity factor.  Callers
never multiply two lifted matrices.
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
    labels : ndarray
        One row per base coefficient: dual frequencies (Fourier) or
        ladder occupation numbers.
    """

    def __init__(self, model: PseudoHermitianModel, sector: int | None = None):
        if not isinstance(model, (HeisenbergModel, TorusBundleModel)):
            raise ValueError(f"{model.kind} model has no section space")
        self.model = model
        self.m = model.m
        self.module = SpinorModule(model.m)
        self.fiber_dim = self.module.dim
        trunc = model.truncation or default_truncation(model.m)

        if isinstance(model, HeisenbergModel):
            self.sector = model.k if sector is None else int(sector)
            self.t = float(self.sector)
            self.multiplicity = abs(self.sector) ** self.m if self.sector else 1
            lattice = TorusLattice(self.m)
        else:
            self.sector = model.s if sector is None else int(sector)
            self.t = -self.sector / 2.0
            self.multiplicity = abs(self.sector * model.flux) ** self.m if self.sector else 1
            lattice = model.lattice

        if self.t == 0.0:
            self.kind = "fourier"
            self._build_fourier(lattice, trunc.fourier_radius)
        else:
            self.kind = "ladder"
            self._build_ladder(trunc.ladder_levels)

        self.base_dim = self.nabla_e[0].shape[0]
        self.dim = self.fiber_dim * self.base_dim

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

    def interior_mask(self) -> np.ndarray:
        """Interior flags expanded to the full fiber x base index set."""
        return np.tile(self.interior, self.fiber_dim)

    def interior_max(self, diff: np.ndarray, block: slice = slice(None)) -> float:
        """Largest |entry| of ``diff`` (a matrix on the index slice ``block``) between interior coefficients."""
        mask = self.interior_mask()[block]
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
