"""Dirac-type operators on truncated section spaces.

Everything here is assembled from two commuting layers: Clifford
generator matrices acting on the spinor fiber (``clifford``) and base
factors acting on base coefficients (``sections``).  Every operator is a
list of (fiber matrix, base factor) Kronecker terms, D+ and D- written
once (``dplus_terms``, ``dminus_terms``): ``SectionSpace.stack`` gathers
a list into the keyed per-slot blocks every check reads, and
``SectionSpace.dense`` sums it into the full-space matrix that the
``assemble_*`` oracles return.  The Reeb formula is one such list too
(``nabla_T_terms``), and ``nabla_T_defect`` compares its keys with i t.
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
a_q = 1/(2(q+1)) and b_q = 1/(2(m-q+1)) (``twistor_weights``).  The
conformal check forms its twistors pointwise (``weitzenboeck._twistor``);
their dense oracle is a test helper, since no check of a run reads it.

D's term lists are stacked in one place, ``dirac_blocks``, with their
``grading_defects``: each term's largest fiber entry off its degree
shift, which the identities check reports as a row.

Kernel counts rest on structure: a null vector in a complete per-slot
block (``SectionSpace.block_complete``, no state lost to the top cutoff)
is kernel, and one in any other block is a cutoff artifact.
``kernel_report`` eigensolves the full-space degree blocks of a dense
operator and stays the reference.  The blocks need no eigensolve: the
Clifford generators anticommute, so D^2 is diagonal on each per-slot
block, and ``diagonal_kernel_count`` counts the null entries of a
degree's diagonal, which the sector pass certifies
(``weitzenboeck.SectorPass.graded``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clifford import TOLERANCE_DEFAULTS, _positive, annihilation_matrix, creation_matrix, two_form_matrix
from .models import rho_frame_components
from .sections import SectionSpace

__all__ = [
    "OperatorMatrix",
    "dplus_terms",
    "dminus_terms",
    "grading_defects",
    "dirac_blocks",
    "assemble_dplus",
    "assemble_dminus",
    "assemble_kohn_dirac",
    "nabla_T_terms",
    "nabla_T_defect",
    "sub_laplacian_defect",
    "cluster_eigenvalues",
    "kernel_report",
    "diagonal_kernel_count",
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
    mu_shift: int | None = None

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


def grading_defects(space: SectionSpace, plus_terms, minus_terms) -> list[float]:
    """Largest |fiber entry| of each term of ``plus_terms + minus_terms`` off its degree shift (output minus
    input degree): +1 for a D+ term, -1 for a D- term."""
    degree = np.array(space.module.degrees)
    shift = degree[:, None] - degree[None, :]
    return [float(np.abs(fiber[shift != step]).max()) for terms, step in ((plus_terms, 1), (minus_terms, -1))
            for fiber, _ in terms]


def dirac_blocks(space: SectionSpace) -> tuple[dict, list[float]]:
    """Keys of D = D+ + D- on the per-slot blocks and the ``grading_defects`` of its terms; the one stack of D."""
    plus_terms, minus_terms = dplus_terms(space), dminus_terms(space)
    return space.stack(plus_terms + minus_terms), grading_defects(space, plus_terms, minus_terms)


def assemble_dplus(space: SectionSpace) -> OperatorMatrix:
    """Degree-raising half of the Kohn-Dirac operator."""
    return OperatorMatrix(space.dense(dplus_terms(space)), space, mu_shift=-2)


def assemble_dminus(space: SectionSpace) -> OperatorMatrix:
    """Degree-lowering half of the Kohn-Dirac operator; adjoint of D+."""
    return OperatorMatrix(space.dense(dminus_terms(space)), space, mu_shift=2)


def assemble_kohn_dirac(space: SectionSpace) -> OperatorMatrix:
    mat = assemble_dplus(space).mat + assemble_dminus(space).mat
    return OperatorMatrix(mat, space, mu_shift=None)


def sub_laplacian_defect(space: SectionSpace) -> float:
    """Largest matrix element separating the sub-Laplacian's two routes, compared on their base factors
    (both act as the identity on the fiber).

    The complex route sums the unitary frame's two connection Laplacians,
    a diagonal; the real route sums minus the squares of the 2m real-frame
    derivatives, whose off-diagonal part counts whole.
    """
    complex_diag = sum(space.horizontal_laplacians())
    real_diag, *real_off = space.products([(-1.0, d, d) for d in map(space.nabla_real, range(2 * space.m))])
    return float(np.max([np.abs(complex_diag - real_diag).max(), *(np.abs(f.mat).max() for f in real_off)]))


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
    """Largest matrix element separating the Reeb formula from i t on complete blocks.  The formula's terms keep
    the per-slot blocks (``stack`` refuses any that would not) and i t is diagonal, so the formula's keys and the
    diagonal carry every nonzero entry of the full-space difference."""
    formula = {key: vec * (1j / (4.0 * space.m)) for key, vec in space.stack(nabla_T_terms(space)).items()}
    zeros = np.zeros(len(space.blocks()))
    formula.update({(s, s): formula.get((s, s), zeros) - 1j * space.t for s in range(space.fiber_dim)})
    return space.complete_max(formula)


def twistor_weights(m: int, q: int) -> tuple[float, float]:
    """(a_q, b_q) projection weights for the degree-q twistor operator."""
    return 1.0 / (2.0 * (q + 1)), 1.0 / (2.0 * (m - q + 1))


def cluster_eigenvalues(evals, tol: float = TOLERANCE_DEFAULTS["spectral"]) -> list[tuple[float, int]]:
    """Group sorted eigenvalues into (value, multiplicity) clusters.

    Two neighbours belong to the same cluster when they differ by at most
    tol * (1 + |value|) of the later one; the reported value is the cluster
    mean, from the correctly rounded sum of its members (``math.fsum``), so
    it does not drift with the multiplicity as a running mean does.
    """
    tol = _positive(tol, "cluster tolerance")
    values = np.asarray(evals, dtype=float)
    joins = np.abs(np.diff(values)) <= tol * (1.0 + np.abs(values[1:]))  # a NaN neighbour joins nothing
    cuts = [0, *(np.flatnonzero(~joins) + 1).tolist(), values.size]
    # fsum reads each cluster's slice in place: a list of a cluster's floats costs more than the slice
    return [(math.fsum(values[a:b]) / (b - a), b - a) for a, b in zip(cuts, cuts[1:]) if b > a]


@dataclass(frozen=True)
class KernelCount:
    """Kernel dimension of one grading block, split by per-slot block completeness.

    ``dim`` counts null vectors in complete blocks
    (``SectionSpace.block_complete``), where the truncated operator acts
    as the untruncated one, so they are kernel; ``spurious`` counts null
    vectors in blocks the top cutoff cut into, which are cutoff artifacts.
    ``eigenvalues`` is the degree's full ascending spectrum (on the block
    route D^2's certified diagonal on the present states), read-only.
    """

    dim: int
    spurious: int
    eigenvalues: np.ndarray | None = field(default=None, repr=False, compare=False)


def _kernel_count(dim: int, spurious: int, spectrum: np.ndarray) -> KernelCount:
    """KernelCount whose eigenvalues are ``spectrum`` sorted, read-only."""
    eigenvalues = np.sort(spectrum)
    eigenvalues.flags.writeable = False
    return KernelCount(dim, spurious, eigenvalues)


def kernel_report(op: OperatorMatrix, tol: float = TOLERANCE_DEFAULTS["spectral"]) -> dict[int, KernelCount]:
    """Per-degree kernel counts of a dense operator, via its square when needed; the test reference.

    The null count of each degree block comes from one eigensolve.  The
    states of complete blocks span an invariant subspace, so ``dim`` is
    the null count of the principal submatrix on them and ``spurious``
    the rest.
    """
    tol = _positive(tol, "kernel tolerance")
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
        out[q] = _kernel_count(dim, int((np.abs(evals) <= tol).sum()) - dim, evals)
    return out


def diagonal_kernel_count(space: SectionSpace, q: int, diagonal: np.ndarray,
                          tol: float = TOLERANCE_DEFAULTS["spectral"]) -> KernelCount:
    """Degree q's kernel count off D^2's certified diagonal, an (n_blocks, d_q) real array on ``grade_slice(q)``:
    each null entry of a present state counts to ``dim`` if its block is complete and to ``spurious`` if not."""
    tol = _positive(tol, "kernel tolerance")
    present = space.blocks()[:, space.module.grade_slice(q)] >= 0
    null = (np.abs(diagonal) <= tol) & present
    dim = int(null[space.block_complete()].sum())
    return _kernel_count(dim, int(null.sum()) - dim, diagonal[present])
