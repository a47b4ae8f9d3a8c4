"""Twisted Kohn-Rossi cohomology of the flat model geometries.

The (0,q)-form side of the story.  Antiholomorphic multi-indices of
degree q are identified with the degree-q subsets spanning the spinor
fiber, so the tangential Cauchy-Riemann complex reuses the fiber
creation/annihilation matrices:

    dbar  = sqrt(2) sum_a w_a (x) nabla_{Ebar_a},
    dbar* = honest matrix adjoint,
    box   = dbar* dbar + dbar dbar* = (P^H P + P P^H) / 2,   P = D+ = sqrt(2) dbar,

where w_a wedges the a-th antiholomorphic coframe element.  D+ keeps the
per-slot blocks, so box's blocks are the batched products of D+'s stacked
blocks (``kohn_laplacian_blocks``); the shift table and the sector
identity read them, and ``kohn_laplacian`` forms the same products of the
dense D+ degree block by degree block.  Both read nabla_{Ebar} only,
while the degree-lowering Dirac half D- reads nabla_E: D^2 = 2 box on the
degree blocks compares D+ D- + D- D+ with D+^H D+ + D+ D+^H, two routes
that part when D- is not the adjoint of D+.

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

import csv
import io
import json
from dataclasses import dataclass, field
from math import comb
from typing import NamedTuple

import numpy as np

from .models import TorusBundleModel, TorusLattice
from .operators import KernelCount, OperatorMatrix, assemble_dplus, block_kernel_report, dirac_kernel, dplus_terms
from .sections import SectionSpace

__all__ = [
    "CohomologyTable",
    "TableRow",
    "kohn_laplacian",
    "kohn_laplacian_blocks",
    "ShiftSector",
    "shift_sector",
    "sector_identity_residual",
    "torus_line_bundle_cohomology",
    "shift_table",
    "harmonic_spinor_table",
    "spinor_form_basis_map",
]

MODEL_LEVEL_NOTE = (
    "m=1 rows are model-level spectral counts; no harmonic-theory "
    "identification is claimed in one CR dimension"
)


def kohn_laplacian_blocks(space: SectionSpace) -> np.ndarray:
    """Per-slot blocks of box, (P^H P + P P^H) / 2 for the stacked blocks P of D+, block by block."""
    plus = space.stack(dplus_terms(space))
    box = np.einsum("bki,bkj->bij", plus.conj(), plus)
    box += np.einsum("bik,bjk->bij", plus, plus.conj())
    box *= 0.5
    return box


def kohn_laplacian(space: SectionSpace) -> OperatorMatrix:
    """dbar* dbar + dbar dbar* as a full-space matrix, (P^H P + P P^H) / 2 of the dense D+ by degree blocks."""
    plus = assemble_dplus(space).mat
    box = np.zeros_like(plus)
    grades = [space.grade_block(q) for q in range(space.m + 1)]
    for low, high in zip(grades, grades[1:]):
        step = plus[high, low]
        box[low, low] += step.conj().T @ step
        box[high, high] += step @ step.conj().T
    box *= 0.5
    return OperatorMatrix(box, space, name="box", mu_shift=0)


class ShiftSector(NamedTuple):
    """One weight sector: its space, the per-slot blocks of its Kohn Laplacian and their shift defects per degree."""

    space: SectionSpace
    box: np.ndarray
    defects: dict[int, float]


def shift_sector(space: SectionSpace) -> ShiftSector:
    """The box blocks of ``space`` and their defects against the shift identity (``sector_identity_residual``)."""
    box = kohn_laplacian_blocks(space)
    return ShiftSector(space, box, _shift_defects(space, box))


def sector_identity_residual(space: SectionSpace) -> dict[int, float]:
    """Defect of box - box_bar = (m - q) N on complete blocks, per degree q, read off the per-slot blocks."""
    return shift_sector(space).defects


def _shift_defects(space: SectionSpace, box: np.ndarray) -> dict[int, float]:
    """Defect per degree of the stacked Kohn Laplacian ``box`` against box_bar + (m - q) N on complete blocks.

    box_bar = nabla_10* nabla_10 is the connection Laplacian of the base
    bundle.  Both sides are zero between blocks, so the blocks carry every
    nonzero entry of the full-space difference.
    """
    box_bar = space.stack([(np.eye(space.fiber_dim), space.horizontal_laplacians()[0])])
    weight = -2.0 * space.t
    out: dict[int, float] = {}
    for q in range(space.m + 1):
        fib = space.module.grade_slice(q)
        diff = box[:, fib, fib] - box_bar[:, fib, fib] - (space.m - q) * weight * np.eye(fib.stop - fib.start)
        out[q] = space.complete_max(diff, fib)
    return out


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
    if not isinstance(c, int) or c == 0:
        raise ValueError(f"polarization degree must be a nonzero integer, got {c!r}")
    if not isinstance(s, int):
        raise ValueError(f"power must be an integer, got {s!r}")
    m = lattice.m
    if not 0 <= q <= m:
        raise ValueError(f"form degree out of range: {q}")
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
    """Per-(degree, sector) dimension table with emission helpers."""

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

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["q", "s", "dim", "method", "status"])
        for row in self.sorted_rows():
            writer.writerow([row.q, row.s, row.dim, row.method, row.status])
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {
            "model": self.model_name,
            "notes": sorted(self.notes),
            "rows": [
                {"q": r.q, "s": r.s, "dim": r.dim, "method": r.method, "status": r.status}
                for r in self.sorted_rows()
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _row_status(m: int, q: int) -> str:
    # extremal degrees are infinite dimensional in general; per-sector
    # counts there are reported as truncation lower bounds
    return "lower-bound" if q in (0, m) else "certified"


def _kernel_rows(space: SectionSpace, report: dict[int, KernelCount]) -> list[TableRow]:
    return [TableRow(q, space.sector, count.dim * space.multiplicity, "spectral", _row_status(space.m, q))
            for q, count in sorted(report.items())]


def shift_table(model: TorusBundleModel, q_range=None, s_range=(0,), tol=1e-8, sector=None) -> CohomologyTable:
    """Analytic and spectral Kohn-Rossi dimensions per fiber-weight sector.

    The analytic route identifies the weight-s sector with forms valued
    in the degree -(s c) power bundle on the base torus (the sign is the
    pinned sector convention: raising the fiber weight lowers the bundle
    degree).  The spectral route counts the null vectors of the Kohn
    Laplacian in complete per-slot blocks (``block_kernel_report``), once
    its blocks pass the circle-bundle shift identity; null vectors of
    blocks the cutoff cut into are artifacts and are not counted.
    ``sector(s)`` gives the weight-s ``ShiftSector`` (default: formed here on a new space).
    """
    if not isinstance(model, TorusBundleModel):
        raise ValueError("the shift isomorphism table needs a torus circle bundle")
    sector = sector or (lambda s: shift_sector(SectionSpace(model, sector=int(s))))
    qs = list(q_range) if q_range is not None else list(range(model.m + 1))
    table = CohomologyTable(model_name=model.describe())
    if model.m == 1:
        table.notes.append(MODEL_LEVEL_NOTE)
    for s in s_range:
        space, box, defects = sector(s)
        if (worst := max(defects.values())) > 1e-10:
            raise RuntimeError(f"shift identity fails on sector {s}: defect {worst:.2e} on complete blocks")
        report = block_kernel_report(space, box, tol=tol, gram=False)
        spectral = {row.q: row for row in _kernel_rows(space, report)}
        for q in qs:
            analytic = torus_line_bundle_cohomology(model.lattice, model.flux, -int(s), q)
            table.rows.append(TableRow(q, int(s), analytic, "analytic", _row_status(model.m, q)))
            table.rows.append(spectral[q])
    return table


def harmonic_spinor_table(space: SectionSpace, tol: float = 1e-8) -> CohomologyTable:
    """Kernel dimensions of the Kohn-Dirac operator, reported per degree.

    Computed on the spinor side (``dirac_kernel`` per grading block) and
    required by the tests to match the form-side table entry for entry;
    the two sides share their basis through ``spinor_form_basis_map``.
    """
    report = dirac_kernel(space, tol=tol)
    table = CohomologyTable(model_name=space.model.describe(), rows=_kernel_rows(space, report))
    if space.m == 1:
        table.notes.append(MODEL_LEVEL_NOTE)
    return table


def spinor_form_basis_map(space: SectionSpace, q: int):
    """Pairs (spinor subset, antiholomorphic multi-index) realizing the degree-q bijection.

    The spinor fiber basis of degree q and the (0,q) coframe monomials
    are indexed by the same q-element subsets, so the bijection is the
    identity on coefficients; it is returned explicitly so tests can
    conjugate operators through it.
    """
    if not 0 <= q <= space.m:
        raise ValueError(f"degree out of range: {q}")
    pairs = []
    for subset in space.module.subsets:
        if len(subset) == q:
            pairs.append((subset, tuple(sorted(subset))))
    return pairs
