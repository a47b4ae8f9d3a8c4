"""Finite-dimensional section spaces for the flat model geometries.

The Heisenberg quotients and the torus circle bundles both carry a
transverse circle symmetry, so sections of the spinor bundle split into
weight sectors.  On a fixed sector the horizontal derivatives along the
unitary frame satisfy canonical commutation relations

    [nabla_{E_a}, nabla_{Ebar_b}] = t delta_ab,        nabla_T = i t,

with one real parameter t per sector, which the model's class gives
(``realize``): t = k on the weight-k sector of a Heisenberg quotient and
t = -s/2 on the fiber-weight-s sector of a torus circle bundle (the
contact form is twice the connection form, which is where the half comes
from).

Two concrete realizations cover all sectors:

* t == 0: Fourier modes of the flat base torus.  Every derivative is
  diagonal, so operator identities close to rounding on the whole
  truncated space.
* t != 0: a tensor product of m harmonic oscillator ladders cut off at
  ``ladder_levels`` states per slot.  The cutoff is the one truncation
  notion: a per-slot block either lost states to it or is *complete*,
  acted on as the untruncated operators act (``block_complete``), and
  every residual is read on the present states of complete blocks
  (``complete_max``).  Slot products are formed one rung higher
  (``products``), so second-order base factors are exact on every kept
  level.

Base operators are held in label space as *base factors*, never as
base_dim x base_dim matrices: a vector holding a diagonal (Fourier
derivatives, horizontal Laplacians, the identity) or a ``SlotOp``, one
slot's L x L ladder matrix (ladder derivatives); ``products`` multiplies
them slot by slot.  The full section space is spanned by (fiber basis) x
(base coefficient), fiber index major, so the degree blocks of the fiber
stay contiguous, and every full-space operator is a list of (fiber
matrix, base factor) Kronecker terms.

The checks read the terms' per-slot blocks of at most 2^m states: each
operator conserves one label per slot (``blocks``, ``block_complete``).
``stack`` gathers a term list into them one filled fiber position at a
time (m 2^m of 4^m for D), each straight into its key, and
``square_rows`` squares such keys one fiber row at a time, so no whole
square is held.  The dense oracle that tests and the acceptance gate
read expands the terms instead: ``base_matrix`` is the one expansion of
a factor, ``mixed(A, B)`` is kron(A, B), the lifts are ``mixed`` with an
identity factor, and ``dense`` sums a list.  No check calls any of them.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .clifford import SpinorModule, _integer
from .models import PseudoHermitianModel, TorusLattice

__all__ = ["SectionSpace", "SlotOp"]


def _ladder_annihilation(levels: int) -> np.ndarray:
    mat = np.zeros((levels, levels), dtype=complex)
    for n in range(1, levels):
        mat[n - 1, n] = np.sqrt(n)
    return mat


class SlotOp(NamedTuple):
    """Base factor of a ladder sector: the L x L matrix ``mat`` on slot ``slot``, the identity on the others."""

    slot: int
    mat: np.ndarray


class SectionSpace:
    """Matrix realization of one weight sector of a flat model geometry.

    Parameters
    ----------
    model : PseudoHermitianModel
        The geometry, whose class realizes the sector (``realize``); the
        sphere carries curvature data only, and its class refuses.
    sector : int, optional
        Overrides the sector weight stored on the model (``k`` for the
        Heisenberg quotient, ``s`` for the torus bundle).

    Attributes
    ----------
    t : float
        Commutator scalar of the sector; ``nabla_T`` acts as ``1j * t``.
    multiplicity : int
        Physical degeneracy of the realized copy, which scales kernel counts:
        |k|^m on a Heisenberg quotient, |s c|^m on a flux-c torus bundle, 1 on Fourier sectors.
    nabla_e, nabla_ebar : list
        Base factors of the derivatives along E_a and Ebar_a: ``SlotOp``
        (slot a) on ladder sectors, diagonal vectors on Fourier sectors.
    ladder_levels : int
        States kept per slot on ladder sectors (the truncation's value).
    labels : ndarray
        One row per base coefficient: dual frequencies (Fourier) or
        ladder occupation numbers.
    """

    def __init__(self, model: PseudoHermitianModel, sector: int | None = None):
        self.sector, self.t, self.multiplicity, lattice = model.realize(sector)
        self.model = model
        self.m = model.m
        self.module = SpinorModule(model.m)
        self.fiber_dim = self.module.dim
        self.ladder_levels = model.truncation.ladder_levels

        if self.t == 0.0:
            self.kind = "fourier"
            self._build_fourier(lattice, model.truncation.fourier_radius)
        else:
            self.kind = "ladder"
            self._build_ladder(self.ladder_levels)

        self.base_dim = len(self.labels)
        self.dim = self.fiber_dim * self.base_dim
        # fiber occupations, one row per fiber state: bit a is set when slot a+1 is in the subset
        self._bits = np.array([[a in s for a in range(1, self.m + 1)] for s in self.module.subsets], dtype=int)
        self._partners = self._inside = self._laplacians = None

    def _build_fourier(self, lattice: TorusLattice, radius: int):
        freqs = lattice.dual_frequencies(radius)
        m = self.m
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, without numpy's warning
            finite = np.isfinite((0.25 * freqs**2).sum(axis=1)).all()  # the base Laplacian, |zeta|^2 summed over slots
        if not finite:
            raise ValueError(f"{self.model.kind} sector {self.sector}: the Fourier sector's base Laplacian is not "
                             f"finite (largest dual frequency {np.abs(freqs).max():.2e})")
        # E_a = (e_a - i Je_a)/2 acts on exp(i w.x) as i * (w_x - i w_y)/2
        zeta = 0.5 * (freqs[:, :m] - 1j * freqs[:, m:])
        self.nabla_e = [1j * zeta[:, a] for a in range(m)]
        self.nabla_ebar = [1j * np.conj(zeta[:, a]) for a in range(m)]
        self.labels = freqs

    def _build_ladder(self, levels: int):
        m = self.m
        lower = _ladder_annihilation(levels)
        raise_root = np.sqrt(abs(self.t))
        low = [SlotOp(a, raise_root * lower) for a in range(m)]
        high = [SlotOp(a, -raise_root * lower.conj().T) for a in range(m)]
        self.nabla_e, self.nabla_ebar = (high, low) if self.t > 0 else (low, high)
        self.labels = np.array(list(itertools.product(range(levels), repeat=m)), dtype=int)

    # -- real-frame derivatives ------------------------------------------

    def nabla_real(self, i: int):
        """Base factor of the derivative along the real frame vector s_i (order e_1..e_m, Je_1..Je_m)."""
        if not 0 <= _integer(i, "frame index") < 2 * self.m:
            raise ValueError(f"frame index out of range: {i}")
        a = i % self.m
        e, ebar = (f.mat if self.kind == "ladder" else f for f in (self.nabla_e[a], self.nabla_ebar[a]))
        d = e + ebar if i < self.m else 1j * (e - ebar)
        return SlotOp(a, d) if self.kind == "ladder" else d

    def products(self, pairs) -> list:
        """Base factors of sum(c * left right for c, left, right in pairs), each pair two derivatives of one slot
        or two diagonals: the diagonal as a vector, then each slot's off-diagonal ``SlotOp``.

        A slot's product is formed on L + 1 levels and cut to the kept L x L block, so it is exact on every
        kept level; this is the one place that knows the extra rung.  A ladder derivative is x a + y a^H for
        its slot's annihilation matrix a, which fixes it on L + 1 levels.
        """
        diag = np.zeros(self.base_dim, dtype=complex)
        off = {}
        up = _ladder_annihilation(self.ladder_levels + 1)
        for coeff, left, right in pairs:
            if isinstance(left, SlotOp):
                wide = [f.mat[0, 1] * up + f.mat[1, 0] * up.T for f in (left, right)]
                prod = coeff * (wide[0] @ wide[1])[:-1, :-1]
                diag += np.diagonal(prod)[self.labels[:, left.slot]]
                off[left.slot] = off.get(left.slot, 0.0) + (prod - np.diag(np.diagonal(prod)))
            else:
                diag += coeff * (left * right)
        return [diag, *(SlotOp(a, mat) for a, mat in off.items())]

    def horizontal_laplacians(self) -> tuple[np.ndarray, np.ndarray]:
        """Diagonals of nabla_10* nabla_10 = -2 sum_a nabla_{Ebar_a} nabla_{E_a} and nabla_01* nabla_01 =
        -2 sum_a nabla_{E_a} nabla_{Ebar_a} as read-only base vectors, formed once.  Both are diagonal:
        number operators per slot on ladder sectors, exact on every kept level, |zeta|^2 on Fourier ones."""
        if self._laplacians is None:
            lap10 = self.products([(-2.0, ebar, e) for e, ebar in zip(self.nabla_e, self.nabla_ebar)])[0]
            lap01 = self.products([(-2.0, e, ebar) for e, ebar in zip(self.nabla_e, self.nabla_ebar)])[0]
            lap10.flags.writeable = lap01.flags.writeable = False
            self._laplacians = lap10, lap01
        return self._laplacians

    # -- lifting to the full space ---------------------------------------

    def base_matrix(self, factor) -> np.ndarray:
        """Dense base_dim^2 matrix of a base factor (vector or ``SlotOp``); the oracle's one expansion."""
        if isinstance(factor, SlotOp):
            out = np.eye(1, dtype=complex)
            for j in range(self.m):
                out = np.kron(out, factor.mat if j == factor.slot else np.eye(self.ladder_levels))
            return out
        return np.diag(np.asarray(factor, dtype=complex))

    def mixed(self, fiber_mat: np.ndarray, base) -> np.ndarray:
        """Full-space matrix of the product operator fiber_mat (x) base, from C-ordered factors:
        np.kron copies its product once more for a transposed one."""
        return np.kron(*(np.ascontiguousarray(f, dtype=complex) for f in (fiber_mat, self.base_matrix(base))))

    def lift_fiber(self, mat: np.ndarray) -> np.ndarray:
        """Fiber operator acting as the identity on base coefficients."""
        return self.mixed(mat, np.ones(self.base_dim))

    def lift_base(self, factor) -> np.ndarray:
        """Base factor acting as the identity on the spinor fiber.  No check reads it; it stays because the
        benchmark's tracer wraps both lifts by name (``SECTION_METHODS`` in ``perfbench/tracing.py``)."""
        return self.mixed(np.eye(self.fiber_dim), factor)

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
        """Full-space matrix of sum(mixed(F, B) for F, B in terms), summed in place; the dense oracle."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for fiber_mat, base_mat in terms:
            out += self.mixed(fiber_mat, base_mat)
        return out

    def stack(self, terms) -> dict:
        """Blocks of ``dense(terms)`` for (fiber matrix, base factor) terms as keys {(s, s'): (n_blocks,) vector}.

        Entry j of key (s, s') is the full-space entry between the block-j states of fiber states s and s', the same
        products of the same floats as in ``dense``, summed in term order; entries of removed states are 0, and a fiber
        position no term fills has no key.  Each key is gathered from the partner columns of s and s': a ``SlotOp`` at
        their occupations of its slot where the other slots' fiber bits agree, a vector where both are one base index.
        A term with fewer gathered entries than nnz(fiber) * nnz(base) (nnz(mat) * L^(m-1) for a ``SlotOp``) leaves its
        blocks and raises ``ValueError`` (``_refuse``).  ``terms`` is iterated once.
        """
        partners = self.blocks()
        out = {}
        for index, (fiber_mat, factor) in enumerate(terms):
            fiber_mat = np.asarray(fiber_mat, dtype=complex)
            rows, cols = np.nonzero(fiber_mat)  # the term is 0 off these fiber entries
            if isinstance(factor, SlotOp):
                occ = self.labels[:, factor.slot]
                agree = np.delete(self._bits[rows] == self._bits[cols], factor.slot, axis=1).all(axis=1)
                missing = len(rows) * np.count_nonzero(factor.mat) * self.ladder_levels ** (self.m - 1)
            else:
                factor = np.asarray(factor, dtype=complex)
                missing = len(rows) * np.count_nonzero(factor)
            for i, key in enumerate(zip(rows.tolist(), cols.tolist())):
                row, col = (np.ascontiguousarray(partners[:, c]) for c in key)  # unstrided copies, each read repeatedly
                gathered = (np.where(agree[i], factor.mat[occ[row], occ[col]], 0.0) if isinstance(factor, SlotOp)
                            else np.where(row == col, factor[row], 0.0))
                vec = fiber_mat[key] * gathered
                vec[(row < 0) | (col < 0)] = 0.0  # removed states, where a -1 partner gathered a last entry
                missing -= np.count_nonzero(vec)
                out[key] = out[key] + vec if key in out else vec
            if missing:
                self._refuse(index, fiber_mat, factor)
        return out

    def square_rows(self, keys: dict):
        """Fiber rows s = 0, 1, ... of the square of keyed blocks (``stack``), one at a time, each as its keys
        {(s, s'): (n_blocks,) vector}, empty where no term reaches the row: a row join (Gustavson), so no whole
        square is held.  Entry (s, s') sums keys[s, k] keys[k, s'] over k."""
        degree = self.module.degrees
        rows = {}
        # each row's keys of higher fiber degree first, in key order within a degree: the order in which D^H D sums
        # a column's keys, D+'s before D-'s, so D^2's degree blocks are D's Grams bit for bit while D is Hermitian
        for (s, col), vec in sorted(keys.items(), key=lambda item: -degree[item[0][1]]):
            rows.setdefault(s, []).append((col, vec))
        for s in range(self.fiber_dim):
            out = {}
            for k, a in rows.get(s, ()):
                for col, b in rows.get(k, ()):
                    # a * b rounded as ``@`` rounds a one-term product, so one-term Gram entries and the spectra
                    # read off them keep their floats; numpy's complex multiply rounds otherwise
                    term = np.einsum("i,i->i", a, b)
                    out[s, col] = out[s, col] + term if (s, col) in out else term
            yield out

    def _refuse(self, index: int, fiber_mat: np.ndarray, factor):
        """Raise ``ValueError`` naming the first nonzero entry of fiber_mat (x) factor that leaves its block.

        Entries run fiber entry major, each factor's nonzeros in row-major order; the state-to-block
        map and the base factor's nonzeros are listed only here."""
        partners = self.blocks()
        block, state = np.nonzero(partners >= 0)
        block_of = np.empty((self.fiber_dim, self.base_dim), dtype=int)
        block_of[state, partners[block, state]] = block
        fiber_rows, fiber_cols = np.nonzero(fiber_mat)
        if isinstance(factor, SlotOp):
            # row r holds mat's row at r's occupation of the slot; a column moves only that digit
            mat_rows, mat_cols = np.nonzero(factor.mat)
            base_rows, k = np.nonzero(self.labels[:, factor.slot, None] == mat_rows)
            base_cols = base_rows + (mat_cols[k] - mat_rows[k]) * self.ladder_levels ** (self.m - 1 - factor.slot)
        else:
            base_rows = base_cols = np.flatnonzero(factor)
        leaves = (block_of[fiber_rows[:, None], base_rows[None, :]]
                  != block_of[fiber_cols[:, None], base_cols[None, :]])
        i, j = np.argwhere(leaves)[0]
        raise ValueError(f"{self.model.kind} sector {self.sector}: term {index} moves states between "
                         f"per-slot blocks (fiber entry ({fiber_rows[i]}, {fiber_cols[i]}), "
                         f"base entry ({base_rows[j]}, {base_cols[j]}))")

    def complete_max(self, keys: dict) -> float:
        """Largest |entry| of keyed blocks (``stack``, ``square_rows``) between present states of complete blocks,
        where the truncated operators act as the untruncated ones; every residual is read here, reduced by
        ``np.max`` so that a NaN reaches the report."""
        if self._inside is None:  # the present states of complete blocks, formed once per space
            self._inside = (self.blocks() >= 0) & self.block_complete()[:, None]
            self._inside.flags.writeable = False
        return float(np.max([np.abs(vec[self._inside[:, s] & self._inside[:, col]]).max(initial=0.0)
                             for (s, col), vec in keys.items()], initial=0.0))

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
