"""Twisted Kohn-Rossi cohomology of the flat model geometries.

The (0,q)-form side of the story.  Antiholomorphic multi-indices of
degree q are identified with the degree-q subsets spanning the spinor
fiber, so the tangential Cauchy-Riemann complex reuses the fiber
creation/annihilation matrices:

    dbar  = sqrt(2) sum_a w_a (x) nabla_{Ebar_a},
    dbar* = honest matrix adjoint,
    box   = dbar* dbar + dbar dbar* = (P^H P + P P^H) / 2,   P = D+ = sqrt(2) dbar,

where w_a wedges the a-th antiholomorphic coframe element.  Degree q's block
of D^2 is M P + P M with M = D-, which is D's degree Gram P^H P + M^H M and 2
box_q when M = P^H.  The readers here, ``shift_table``,
``sector_identity_residual`` and ``dirac_kernel``, take the shift defects
and the kernel counts, ker D_q = ker box_q, off a sector's one pass,
``weitzenboeck.sector_pass``, which reads both off D^2's rows and refuses
them (``SectorPass.graded``) unless D^2's degree blocks are 2 box with
their diagonal as spectrum.  The
dense oracle ``kohn_laplacian`` builds box from D+ alone, so D^2 = 2 box on
the degree blocks (acceptance criterion 4) compares two routes that part when
D- is not the adjoint of D+.

On a weight sector with commutator scalar t the Kohn Laplacian differs
from the holomorphic connection Laplacian by a multiple of the fiber
weight operator N = -2t:

    box - box_bar = (m - q) N       (on degree-q forms),

which is the circle-bundle shift mechanism: positive-weight sectors of a
positively polarized bundle have no cohomology below the top degree.
Analytic dimensions come from the classical line-bundle counts on the
base torus; every analytic value is cross-checked against the spectral
kernel of the assembled Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .clifford import TOLERANCE_DEFAULTS, _integer
from .models import TorusBundleModel, TorusLattice
from .operators import KernelCount, OperatorMatrix, assemble_dplus
from .sections import SectionSpace
from .weitzenboeck import sector_pass

__all__ = [
    "CohomologyTable",
    "TableRow",
    "kohn_laplacian",
    "sector_identity_residual",
    "dirac_kernel",
    "torus_line_bundle_cohomology",
    "shift_table",
    "harmonic_spinor_table",
]

MODEL_LEVEL_NOTE = (
    "m=1 rows are model-level spectral counts; no harmonic-theory "
    "identification is claimed in one CR dimension"
)


def kohn_laplacian(space: SectionSpace) -> OperatorMatrix:
    """dbar* dbar + dbar dbar* as a full-space matrix, from the dense D+ one slab (q+1, q) at a time."""
    dplus = assemble_dplus(space).mat
    slabs = [space.grade_block(q) for q in range(space.m + 1)]
    box = np.zeros_like(dplus)
    for low, high in zip(slabs, slabs[1:]):
        step = dplus[high, low]
        adj = step.conj().T
        box[low, low] += adj @ step
        box[high, high] += step @ adj
    box *= 0.5
    return OperatorMatrix(box, space, mu_shift=0)


def sector_identity_residual(space: SectionSpace) -> dict[int, float]:
    """Per-degree ``gram_shift_defect`` off the space's own ``sector_pass``, refused as ``SectorPass.graded`` refuses."""
    return sector_pass(space).graded("shift")


def dirac_kernel(space: SectionSpace, tol: float = TOLERANCE_DEFAULTS["spectral"]) -> dict[int, KernelCount]:
    """Kernel counts of the Kohn-Dirac operator off the space's own ``sector_pass``, equal to
    ``kernel_report(assemble_kohn_dirac(space))``; refused as ``SectorPass.graded`` refuses."""
    return sector_pass(space, tol).graded("kernel")


def torus_line_bundle_cohomology(lattice: TorusLattice, c: int, s: int, q: int) -> int:
    """h^q of the s-th power of a degree-c polarizing line bundle on the torus.

    Positive total degree concentrates in degree zero with dimension
    (s c)^m, negative total degree in the top degree with |s c|^m, and the
    trivial power contributes the constant forms C(m, q).  These counts
    are validated against truncated spectral kernels in the test suite
    before being used anywhere.
    """
    if not isinstance(lattice, TorusLattice):
        raise ValueError("analytic cohomology needs a flat torus base")
    if _integer(c, "polarization degree") == 0:
        raise ValueError("polarization degree must be a nonzero integer, got 0")
    _integer(s, "power s")
    m = lattice.m
    _integer(q, "form degree", 0, m)
    degree = s * c
    if degree > 0:
        return degree**m if q == 0 else 0
    if degree < 0:
        return (-degree) ** m if q == m else 0
    return comb(m, q)


@dataclass
class TableRow:
    q: int
    s: int
    dim: int
    method: str  # "analytic" | "spectral"
    status: str  # "certified" | "lower-bound"


@dataclass
class CohomologyTable:
    """Per-(degree, sector) dimension table; the CLI writes it as an artifact."""

    model_name: str
    rows: list[TableRow] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def sorted_rows(self) -> list[TableRow]:
        return sorted(self.rows, key=lambda r: (r.s, r.q, r.method))

    def dims(self, method: str | None = None) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for row in self.sorted_rows():
            if method is None or row.method == method:
                out[(row.q, row.s)] = row.dim
        return out


def _row_status(m: int, q: int) -> str:
    # extremal degrees are infinite dimensional in general; per-sector
    # counts there are reported as truncation lower bounds
    return "lower-bound" if q in (0, m) else "certified"


def _kernel_rows(space: SectionSpace, report: dict[int, KernelCount]) -> list[TableRow]:
    return [TableRow(q, space.sector, count.dim * space.multiplicity, "spectral", _row_status(space.m, q))
            for q, count in sorted(report.items())]


def shift_table(model: TorusBundleModel, s_range=(0,), tol=TOLERANCE_DEFAULTS["spectral"], sector=None,
                shift_tol=TOLERANCE_DEFAULTS["dual_assembly"]) -> CohomologyTable:
    """Analytic and spectral Kohn-Rossi dimensions per fiber-weight sector.

    The analytic route identifies the weight-s sector with forms valued
    in the degree -(s c) power bundle on the base torus (the sign is the
    pinned sector convention: raising the fiber weight lowers the bundle
    degree).  The spectral route counts harmonic spinors, ker D_q = ker
    box_q, on complete per-slot blocks (null vectors of cut blocks are
    cutoff artifacts), once a sector's largest shift defect is at most
    ``shift_tol`` (a NaN defect is not).  ``sector(s)`` gives the
    weight-s ``SectorPass`` with its shift defects and kernel counts
    (default: ``sector_pass`` on a new space, the counts at ``tol``).
    """
    if not isinstance(model, TorusBundleModel):
        raise ValueError("the shift isomorphism table needs a torus circle bundle")
    if sector is None:
        def sector(s):
            return sector_pass(SectionSpace(model, sector=s), tol)
    table = CohomologyTable(model_name=model.describe())
    if model.m == 1:
        table.notes.append(MODEL_LEVEL_NOTE)
    for s in s_range:
        reads = sector(s)
        # np.max, not max: a NaN defect must reach the guard, which refuses all but a defect <= shift_tol
        if not (worst := np.max(list(reads.graded("shift").values()))) <= shift_tol:
            raise RuntimeError(f"shift identity fails on sector {s}: defect {worst:.2e} on complete blocks")
        spectral = {row.q: row for row in _kernel_rows(reads.space, reads.graded("kernel"))}
        for q in range(model.m + 1):
            analytic = torus_line_bundle_cohomology(model.lattice, model.flux, -s, q)
            table.rows.append(TableRow(q, s, analytic, "analytic", _row_status(model.m, q)))
            table.rows.append(spectral[q])
    return table


def harmonic_spinor_table(space: SectionSpace, counts: dict[int, KernelCount]) -> CohomologyTable:
    """Kernel dimensions of the Kohn-Dirac operator, reported per degree, from its kernel ``counts``.

    The counts are ``dirac_kernel``'s per grading block, and the tests
    require them to match the form-side table entry for entry; the
    degree-q spinors and the (0,q) coframe monomials are indexed by the
    same q-element subsets, so the two sides share their basis.
    """
    table = CohomologyTable(model_name=space.model.describe(), rows=_kernel_rows(space, counts))
    if space.m == 1:
        table.notes.append(MODEL_LEVEL_NOTE)
    return table
