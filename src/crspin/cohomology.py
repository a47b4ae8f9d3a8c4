"""Twisted Kohn-Rossi cohomology of the flat model geometries.

The (0,q)-form side of the story.  Antiholomorphic multi-indices of
degree q are identified with the degree-q subsets spanning the spinor
fiber, so the tangential Cauchy-Riemann complex reuses the fiber
creation/annihilation matrices:

    dbar  = sqrt(2) sum_a w_a (x) nabla_{Ebar_a},
    dbar* = honest matrix adjoint,
    box   = dbar* dbar + dbar dbar* = (P^H P + P P^H) / 2,   P = D+ = sqrt(2) dbar,

where w_a wedges the a-th antiholomorphic coframe element.  On the
per-slot blocks box is joined one fiber row at a time from D's keys one
degree up, D+'s (``kohn_laplacian_blocks``), read per sector only for the
shift defects (``shift_defects``); the dense oracle is ``kohn_laplacian``.
Both read nabla_{Ebar} only, while D- reads nabla_E: D^2 = 2 box on the
degree blocks compares D+ D- + D- D+ with D+^H D+ + D+ D+^H, two routes
that part when D- is not the adjoint of D+.

Kernels are counted once, on the spinor side.  Degree q's Gram matrix of
D is P_q^H P_q + M_q^H M_q with M = D-, which is 2 box_q when M = P^H, so
ker D_q = ker box_q and the spectral rows of both tables are the Dirac
kernel counts (``operators.block_kernel_report``), which the tables take
as given; the identities check's adjointness row guards M = P^H.

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

from .clifford import _integer
from .models import TorusBundleModel, TorusLattice
from .operators import KernelCount, OperatorMatrix, _refuse_off_shift, assemble_dplus, block_kernel_report, dirac_blocks
from .sections import SectionSpace

__all__ = [
    "CohomologyTable",
    "TableRow",
    "kohn_laplacian",
    "kohn_laplacian_blocks",
    "sector_identity_residual",
    "shift_defects",
    "torus_line_bundle_cohomology",
    "shift_table",
    "harmonic_spinor_table",
]

MODEL_LEVEL_NOTE = (
    "m=1 rows are model-level spectral counts; no harmonic-theory "
    "identification is claimed in one CR dimension"
)


def kohn_laplacian_blocks(space: SectionSpace, dirac: dict):
    """box's fiber rows on the per-slot blocks as keys, one at a time: the degree-keeping part of S S / 2 for
    S = P + P^H, P D's keys one degree up (``dirac_blocks``), which are D+'s."""
    degree = space.module.degrees
    plus = {(s, c): vec for (s, c), vec in dirac.items() if degree[s] == degree[c] + 1}
    both = {**plus, **{(c, s): vec.conj() for (s, c), vec in plus.items()}}
    for s, row in enumerate(space.product_rows(both, both)):
        yield {(s, c): 0.5 * vec for (_, c), vec in row.items() if degree[c] == degree[s]}


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
    """``shift_defects`` of the space's own gather of D, after refusing a D term off its degree shift."""
    dirac, grading = dirac_blocks(space)
    _refuse_off_shift(space, grading)
    return shift_defects(space, dirac)


def shift_defects(space: SectionSpace, dirac: dict) -> dict[int, float]:
    """Defect of box - box_bar = (m - q) N on complete blocks, per degree q, with box's rows joined from D's keys.

    box_bar = nabla_10* nabla_10 = I (x) diag(lap10), the base bundle's connection Laplacian, comes off the
    diagonal of each row of box with (m - q) N.  Both sides are zero between blocks and between degrees, so
    the rows carry every nonzero entry of the full-space difference.
    """
    lap10, partners = space.horizontal_laplacians()[0], space.blocks()
    weight, zeros = -2.0 * space.t, np.zeros(len(partners))
    out: dict[int, list] = {q: [] for q in range(space.m + 1)}
    for s, row in enumerate(kohn_laplacian_blocks(space, dirac)):
        q = space.module.degrees[s]
        row[s, s] = row.get((s, s), zeros) - lap10[partners[:, s]] - (space.m - q) * weight
        out[q].append(space.complete_max(row))
    return {q: float(np.max(defects)) for q, defects in out.items()}


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


def shift_table(model: TorusBundleModel, s_range=(0,), tol=1e-8, sector=None) -> CohomologyTable:
    """Analytic and spectral Kohn-Rossi dimensions per fiber-weight sector.

    The analytic route identifies the weight-s sector with forms valued
    in the degree -(s c) power bundle on the base torus (the sign is the
    pinned sector convention: raising the fiber weight lowers the bundle
    degree).  The spectral route counts harmonic spinors: ker D_q = ker
    box_q (the module docstring says why), so once a sector's blocks pass
    the circle-bundle shift identity its rows are the Dirac kernel
    counts on complete per-slot blocks; null vectors of blocks the cutoff
    cut into are artifacts and are not counted.  ``sector(s)`` gives the
    weight-s space, its shift defects per degree and its kernel counts
    (default: one gather of D on a new space, refused off its shifts).
    """
    if not isinstance(model, TorusBundleModel):
        raise ValueError("the shift isomorphism table needs a torus circle bundle")
    if sector is None:
        def sector(s):
            space = SectionSpace(model, sector=s)
            dirac, grading = dirac_blocks(space)
            _refuse_off_shift(space, grading)
            return space, shift_defects(space, dirac), block_kernel_report(space, dirac, tol=tol)
    table = CohomologyTable(model_name=model.describe())
    if model.m == 1:
        table.notes.append(MODEL_LEVEL_NOTE)
    for s in s_range:
        space, defects, counts = sector(s)
        if (worst := max(defects.values())) > 1e-10:
            raise RuntimeError(f"shift identity fails on sector {s}: defect {worst:.2e} on complete blocks")
        spectral = {row.q: row for row in _kernel_rows(space, counts)}
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
