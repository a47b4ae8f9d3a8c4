"""Dirac-type operators on truncated section spaces.

Everything here is assembled from two commuting layers: Clifford
generator matrices acting on the spinor fiber (``clifford``) and base
factors acting on base coefficients (``sections``).  Every operator is a
list of (fiber matrix, base factor) Kronecker terms, D+ and D- written
once (``dplus_terms``, ``dminus_terms``): ``SectionSpace.stack`` gathers
a list into the per-slot blocks every check reads, where
``block_square`` and ``block_grading_defect`` read squares and grading,
and ``SectionSpace.dense`` sums it into the full-space matrix that the
``assemble_*`` oracles return.  The Reeb formula is one such list too
(``nabla_T_terms``), and ``nabla_T_defect`` compares its blocks with i t.
In the unitary frame the Kohn-Dirac operator splits as

    D = D_plus + D_minus,
    D_plus  = 2 sum_a c(E_a) nabla_{Ebar_a},
    D_minus = 2 sum_a c(Ebar_a) nabla_{E_a},

where D_plus raises the fiber degree by one (so it shifts the grading
eigenvalue mu = m - 2q by -2) and D_minus lowers it.  Both squares
vanish identically, even on the truncated spaces, because the fiber
parts anticommute while the base parts commute slot by slot.

The connection Laplacians use the dual-frame normalization fixed by
g(E_a, Ebar_b) = delta_ab / 2:

    nabla_10* nabla_10 = -2 sum_a nabla_{Ebar_a} nabla_{E_a},
    nabla_01* nabla_01 = -2 sum_a nabla_{E_a} nabla_{Ebar_a},

and the sub-Laplacian is their sum, equal to minus the sum of squared
real-frame derivatives.

Twistor operators project the full covariant derivative onto the kernel
of Clifford contraction, with the degree-dependent weights
a_q = 1/(2(q+1)) and b_q = 1/(2(m-q+1)).  Their output is stacked over
2m coframe slots (the E_a slots first, then the Ebar_a slots).

Kernel counts rest on structure: a null vector in a complete per-slot
block (``SectionSpace.block_complete``, no state lost to the top cutoff)
is kernel, and one in any other block is a cutoff artifact.  Two routes
apply this rule.  ``kernel_report`` eigensolves the full-space degree
blocks of a dense operator and stays the reference.
``block_kernel_report`` reads the per-slot blocks: per degree it takes
the Gram matrix (or, for a Hermitian degree-preserving operator, the
diagonal block) of the fixed fiber slice and makes one batched
eigensolve per pattern of kept states.  ``dirac_kernel``, which the
spectral checks read, takes the block route, so they form no full-space
matrix.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .clifford import annihilation_matrix, creation_matrix, two_form_matrix
from .models import rho_frame_components
from .sections import SectionSpace

__all__ = [
    "OperatorMatrix",
    "dplus_terms",
    "dminus_terms",
    "assemble_dplus",
    "assemble_dminus",
    "assemble_kohn_dirac",
    "nabla_T_terms",
    "nabla_T_defect",
    "sub_laplacian_defect",
    "assemble_twistor",
    "twistor_contraction",
    "block_square",
    "block_grading_defect",
    "cluster_eigenvalues",
    "kernel_report",
    "block_kernel_report",
    "dirac_kernel",
    "KernelCount",
]


@dataclass
class OperatorMatrix:
    """Dense operator together with its section space and grading metadata.

    ``mu_shift`` records how the operator moves the grading eigenvalue
    mu = m - 2q: -2 for degree-raising, +2 for degree-lowering, 0 for
    block-diagonal, None when the operator mixes shifts (D itself) or
    does not map the space to itself (twistor stacks).
    """

    mat: np.ndarray
    space: SectionSpace
    name: str = ""
    mu_shift: int | None = None

    @property
    def dim(self) -> int:
        return self.mat.shape[1]

    def hermitian_defect(self) -> float:
        if self.mat.shape[0] != self.mat.shape[1]:
            return np.inf
        return np.abs(self.mat - self.mat.conj().T).max()


def dplus_terms(space: SectionSpace) -> list:
    """(fiber, base) Kronecker terms of D+ = 2 sum_a c(E_a) nabla_{Ebar_a}."""
    return [(2.0 * creation_matrix(space.m, a), space.nabla_ebar[a - 1]) for a in range(1, space.m + 1)]


def dminus_terms(space: SectionSpace) -> list:
    """(fiber, base) Kronecker terms of D- = 2 sum_a c(Ebar_a) nabla_{E_a}, c(Ebar_a) = -annihilation."""
    return [(-2.0 * annihilation_matrix(space.m, a), space.nabla_e[a - 1]) for a in range(1, space.m + 1)]


def assemble_dplus(space: SectionSpace) -> OperatorMatrix:
    """Degree-raising half of the Kohn-Dirac operator."""
    return OperatorMatrix(space.dense(dplus_terms(space)), space, name="D+", mu_shift=-2)


def assemble_dminus(space: SectionSpace) -> OperatorMatrix:
    """Degree-lowering half of the Kohn-Dirac operator; adjoint of D+."""
    return OperatorMatrix(space.dense(dminus_terms(space)), space, name="D-", mu_shift=2)


def assemble_kohn_dirac(space: SectionSpace) -> OperatorMatrix:
    mat = assemble_dplus(space).mat + assemble_dminus(space).mat
    return OperatorMatrix(mat, space, name="D", mu_shift=None)


def sub_laplacian_defect(space: SectionSpace) -> float:
    """Largest matrix element separating the sub-Laplacian's two routes, compared on their base factors
    (both act as the identity on the fiber).

    The complex route sums the unitary frame's two connection Laplacians,
    a diagonal; the real route sums minus the squares of the 2m real-frame
    derivatives, whose off-diagonal part counts whole.
    """
    complex_diag = sum(space.horizontal_laplacians())
    real_diag, *real_off = space.products([(-1.0, d, d) for d in map(space.nabla_real, range(2 * space.m))])
    return float(max([np.abs(complex_diag - real_diag).max(), *(np.abs(f.mat).max() for f in real_off)]))


def nabla_T_terms(space: SectionSpace) -> list:
    """(fiber, base) Kronecker terms of the bracket in the Reeb formula

        nabla_T = (i/4m) (2 nabla_10*nabla_10 - 2 nabla_01*nabla_01 + i c(rho) - ell scal / (2(m+2))),

    an independent route to the sector weight's i t (``nabla_T_defect``).
    """
    m, model = space.m, space.model
    lap10, lap01 = space.horizontal_laplacians()
    eye_fiber, eye_base = np.eye(space.fiber_dim), np.ones(space.base_dim)
    return [(eye_fiber, 2.0 * lap10 - 2.0 * lap01),
            (1j * two_form_matrix(m, rho_frame_components(model.rho)), eye_base),
            (-(model.ell * model.scal_w / (2.0 * (m + 2))) * eye_fiber, eye_base)]


def nabla_T_defect(space: SectionSpace) -> float:
    """Largest matrix element separating the Reeb formula from i t on complete blocks, read off per-slot blocks.

    The formula's terms keep the per-slot blocks (``stack`` refuses any
    that would not) and the direct route is i t times the identity, so
    the blocks carry every nonzero entry of the full-space difference.
    """
    formula = (1j / (4.0 * space.m)) * space.stack(nabla_T_terms(space))
    return space.complete_max(formula - 1j * space.t * np.eye(space.fiber_dim))


def twistor_weights(m: int, q: int) -> tuple[float, float]:
    """(a_q, b_q) projection weights for the degree-q twistor operator."""
    return 1.0 / (2.0 * (q + 1)), 1.0 / (2.0 * (m - q + 1))


def _twistor_slots(space: SectionSpace, inject, weight, c_self, c_other, nabla) -> list:
    """Slots nabla_a + weight c_self[a] (2 sum_b c_other[b] nabla_b) on the ``inject`` block.

    The bracket is D+ or D- written out as its Kronecker terms.
    """
    return [
        space.mixed(inject, nabla[a])
        + sum(space.mixed(2.0 * weight * c_self[a] @ c_other[b] @ inject, nabla[b]) for b in range(space.m))
        for a in range(space.m)
    ]


def assemble_twistor(space: SectionSpace, q: int) -> OperatorMatrix:
    """Twistor operator on the degree-q block, stacked over 2m coframe slots.

    Rows are grouped as m full-space slots for the E_a coframe directions
    followed by m slots for the Ebar_a directions; the image lies in the
    kernel of Clifford contraction.
    """
    if not 0 <= q <= space.m:
        raise ValueError(f"degree q out of range: {q}")
    m = space.m
    a_q, b_q = twistor_weights(m, q)
    inject = np.eye(space.fiber_dim)[:, space.module.grade_slice(q)]
    c_e = [creation_matrix(m, a) for a in range(1, m + 1)]
    c_ebar = [-annihilation_matrix(m, a) for a in range(1, m + 1)]
    slots = _twistor_slots(space, inject, b_q, c_e, c_ebar, space.nabla_e)
    slots += _twistor_slots(space, inject, a_q, c_ebar, c_e, space.nabla_ebar)
    return OperatorMatrix(np.vstack(slots), space, name=f"P({q})", mu_shift=None)


def twistor_contraction(space: SectionSpace, q: int) -> np.ndarray:
    """Clifford contraction matrix on the 2m-slot stack produced by the twistor assembly.

    A coframe slot u in the E_a group contributes 2 Ebar_a . u and a slot
    in the Ebar_a group contributes 2 E_a . u; the metric duality of the
    half-normalized frame supplies the factor 2.
    """
    if not 0 <= q <= space.m:
        raise ValueError(f"degree q out of range: {q}")
    m = space.m
    blocks = [space.lift_fiber(-2.0 * annihilation_matrix(m, a)) for a in range(1, m + 1)]
    blocks += [space.lift_fiber(2.0 * creation_matrix(m, a)) for a in range(1, m + 1)]
    return np.hstack(blocks)


def block_square(stack: np.ndarray) -> np.ndarray:
    """A @ A block by block, for the per-slot blocks ``stack`` of an operator A (``SectionSpace.stack``).

    The blocks carry every nonzero entry of A, so these are the blocks of
    the full-space square.  ``np.einsum`` sums each entry in an order that
    rounds like the dense ``zgemm`` on most spaces; a batched ``@`` rounds
    differently more often.
    """
    return np.einsum("bij,bjk->bik", stack, stack)


def block_grading_defect(space: SectionSpace, stack: np.ndarray, degree_shift: int) -> float:
    """Largest |entry| of the per-slot blocks ``stack`` between fiber states whose
    degrees differ (output minus input) by other than ``degree_shift``."""
    degree = np.array([len(s) for s in space.module.subsets])
    entries = stack[:, degree[:, None] - degree[None, :] != degree_shift]
    return float(np.abs(entries).max()) if entries.size else 0.0


def cluster_eigenvalues(evals, tol: float = 1e-8) -> list[tuple[float, int]]:
    """Group sorted eigenvalues into (value, multiplicity) clusters.

    Two neighbours belong to the same cluster when they differ by at most
    tol * (1 + |value|); the reported value is the cluster mean.
    """
    clusters: list[tuple[float, int]] = []
    for val in evals:
        if clusters and abs(val - clusters[-1][0]) <= tol * (1.0 + abs(val)):
            mean, n = clusters[-1]
            clusters[-1] = ((mean * n + val) / (n + 1), n + 1)
        else:
            clusters.append((float(val), 1))
    return clusters


@dataclass(frozen=True)
class KernelCount:
    """Kernel dimension of one grading block, split by per-slot block completeness.

    ``dim`` counts null vectors in complete blocks
    (``SectionSpace.block_complete``), where the truncated operator acts
    as the untruncated one, so they are kernel; ``spurious`` counts null
    vectors in blocks the top cutoff cut into, which are cutoff artifacts.
    ``eigenvalues`` is the degree's full ascending spectrum (on the block
    route the sorted union of the per-slot block spectra), read-only.
    """

    dim: int
    spurious: int
    eigenvalues: np.ndarray | None = field(default=None, repr=False, compare=False)


def _kernel_count(dim: int, spurious: int, spectra: list) -> KernelCount:
    """KernelCount whose eigenvalues are the sorted, read-only union of ``spectra``."""
    eigenvalues = np.sort(np.concatenate(spectra))
    eigenvalues.flags.writeable = False
    return KernelCount(dim, spurious, eigenvalues)


def kernel_report(op: OperatorMatrix, tol: float = 1e-8) -> dict[int, KernelCount]:
    """Per-degree kernel counts of a dense operator, via its square when needed; the test reference.

    The null count of each degree block comes from one eigensolve.  The
    states of complete blocks span an invariant subspace, so ``dim`` is
    the null count of the principal submatrix on them and ``spurious``
    the rest.
    """
    if tol <= 0:
        raise ValueError("kernel tolerance must be positive")
    space = op.space
    sq = op.mat
    if op.mu_shift != 0 or op.hermitian_defect() > 1e-10 * (1.0 + np.abs(op.mat).max()):
        sq = op.mat.conj().T @ op.mat
    partners = space.blocks()
    block, state = np.nonzero(partners >= 0)
    complete = np.zeros(space.dim, dtype=bool)  # fiber-major full-space index of every block state
    complete[state * space.base_dim + partners[block, state]] = space.block_complete()[block]
    out: dict[int, KernelCount] = {}
    for q in range(space.m + 1):
        rows = space.grade_block(q)
        sub, keep = sq[rows, rows], complete[rows]
        evals = np.linalg.eigvalsh(sub)
        dim = int((np.abs(np.linalg.eigvalsh(sub[np.ix_(keep, keep)])) <= tol).sum())
        out[q] = _kernel_count(dim, int((np.abs(evals) <= tol).sum()) - dim, [evals])
    return out


def block_kernel_report(
    space: SectionSpace, stack: np.ndarray, tol: float = 1e-8, gram: bool = True
) -> dict[int, KernelCount]:
    """``kernel_report`` of the operator whose per-slot blocks are ``stack`` (``SectionSpace.stack``).

    Degree q is eigensolved through the Gram matrix of the fixed fiber
    slice ``grade_slice(q)`` of every block, or, with ``gram=False`` (a
    Hermitian operator that keeps the degree), through the slice's
    diagonal blocks.  Blocks that keep the same states of that slice share
    one batched ``eigvalsh``.  Each block's null count goes to ``dim`` if
    the block is complete and to ``spurious`` if not.
    """
    if tol <= 0:
        raise ValueError("kernel tolerance must be positive")
    present = space.blocks() >= 0
    complete = space.block_complete()
    out: dict[int, KernelCount] = {}
    for q in range(space.m + 1):
        fib = space.module.grade_slice(q)
        if gram:
            cols = stack[:, :, fib]
            mats = np.einsum("bki,bkj->bij", cols.conj(), cols)
        else:
            mats = stack[:, fib, fib]
        keep = np.ascontiguousarray(present[:, fib])
        _, first, which = np.unique(keep.view(np.dtype((np.void, keep.shape[1]))).ravel(),
                                    return_index=True, return_inverse=True)
        dim = spurious = 0
        spectra = []
        for i, j in enumerate(first):
            states = np.flatnonzero(keep[j])
            if states.size:
                pick = which == i
                evals = np.linalg.eigvalsh(mats[np.ix_(pick, states, states)])
                null, whole = (np.abs(evals) <= tol).sum(axis=1), complete[pick]
                dim += int(null[whole].sum())
                spurious += int(null[~whole].sum())
                spectra.append(evals.ravel())
        out[q] = _kernel_count(dim, spurious, spectra)
    return out


_DIRAC_KERNELS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def dirac_kernel(space: SectionSpace, tol: float = 1e-8) -> dict[int, KernelCount]:
    """Kernel counts of the Kohn-Dirac operator from its per-slot blocks, at most once per space and tolerance.

    The counts equal ``kernel_report(assemble_kohn_dirac(space))``; no
    full-space matrix is formed.  Only the counts and read-only
    eigenvalues are kept, and only while the space lives.
    """
    reports = _DIRAC_KERNELS.setdefault(space, {})
    if tol not in reports:
        stack = space.stack(dplus_terms(space) + dminus_terms(space))
        reports[tol] = block_kernel_report(space, stack, tol=tol)
    return dict(reports[tol])

