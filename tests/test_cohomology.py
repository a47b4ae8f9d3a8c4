import copy
import re
import tracemalloc
from math import comb

import numpy as np
import pytest
from blockstates import record_grams

from crspin.cohomology import (
    CohomologyTable,
    dirac_kernel,
    harmonic_spinor_table,
    kohn_laplacian,
    sector_identity_residual,
    sector_pass,
    shift_table,
    torus_line_bundle_cohomology,
)
from crspin import cohomology, operators
from crspin.models import TorusLattice, TruncationSpec, cr_alpha_bundle, heisenberg_model
from crspin.operators import assemble_dplus, assemble_kohn_dirac, kernel_report
from crspin.sections import SectionSpace, SlotOp
from crspin.weitzenboeck import dl_residual, sl_residual


# ---------------------------------------------------------------------------
# overlap-fermion oracle: an independent lattice computation of the index
# h^0 - h^1 of a degree-d line bundle on a 2-torus.  A naive finite-difference
# dbar cannot detect the index (square matrices have symmetric kernels), so we
# use the standard overlap construction: the index equals half the spectral
# asymmetry of the Hermitian Wilson operator.
# ---------------------------------------------------------------------------


def _flux_links(n, d):
    """U(1) link phases with uniform flux 2 pi d / n^2 per plaquette."""
    alpha = -2.0 * np.pi * d / n**2
    ux = np.ones((n, n), dtype=complex)
    uy = np.ones((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            ux[i, j] = np.exp(1j * alpha * j)
    for i in range(n):
        uy[i, n - 1] = np.exp(2j * np.pi * d * i / n)
    return ux, uy


def _covariant_shifts(n, d):
    ux, uy = _flux_links(n, d)
    size = n * n
    tx = np.zeros((size, size), dtype=complex)
    ty = np.zeros((size, size), dtype=complex)
    for i in range(n):
        for j in range(n):
            row = i * n + j
            tx[row, ((i + 1) % n) * n + j] = ux[i, j]
            ty[row, i * n + (j + 1) % n] = uy[i, j]
    return tx, ty


def overlap_index(n, d, mass=1.0):
    """Half the spectral asymmetry of the Hermitian Wilson-Dirac operator.

    With gamma_1 = sigma_1, gamma_2 = sigma_2 the chirality operator is
    -i gamma_1 gamma_2 = sigma_3, and for positive uniform flux the
    continuum zero modes sit at chirality +1 (they are killed by the
    lowering half of the magnetic ladder).  The asymmetry is therefore
    taken as (n_plus - n_minus)/2, which reproduces the continuum index.
    """
    tx, ty = _covariant_shifts(n, d)
    size = n * n
    eye = np.eye(size)
    g1 = np.array([[0, 1], [1, 0]], dtype=complex)
    g2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    g5 = np.array([[1, 0], [0, -1]], dtype=complex)
    dw = np.kron(np.eye(2), -mass * eye).astype(complex)
    for gamma, t in ((g1, tx), (g2, ty)):
        dw += 0.5 * np.kron(gamma, t - t.conj().T)
        dw += 0.5 * np.kron(np.eye(2), 2 * eye - t - t.conj().T)
    hw = np.kron(g5, eye) @ dw
    evals = np.linalg.eigvalsh(hw)
    assert np.abs(evals).min() > 1e-8, "Wilson operator not admissible at this flux"
    return int(round((np.sum(evals > 0) - np.sum(evals < 0)) / 2))


def test_overlap_oracle_vanishes_without_flux():
    assert overlap_index(8, 0) == 0


@pytest.mark.parametrize("d", [1, 2, 3, -1, -2])
def test_analytic_line_bundle_counts_match_overlap_index(d):
    lattice = TorusLattice(1)
    euler = torus_line_bundle_cohomology(lattice, 1, d, 0) - torus_line_bundle_cohomology(
        lattice, 1, d, 1
    )
    assert euler == d
    assert overlap_index(10, d) == euler


# ---------------------------------------------------------------------------
# Kohn Laplacian and the Dirac square
# ---------------------------------------------------------------------------

SPACES = [
    SectionSpace(heisenberg_model(1, k=0)),
    SectionSpace(heisenberg_model(2, k=1)),
    SectionSpace(cr_alpha_bundle(1, c=1, s=2)),
    SectionSpace(cr_alpha_bundle(2, c=1, s=-1)),
]


@pytest.mark.parametrize("space", SPACES, ids=lambda sp: sp.describe())
def test_dirac_square_is_twice_kohn_laplacian(space):
    dirac = assemble_kohn_dirac(space).mat
    box = kohn_laplacian(space).mat
    assert np.abs(dirac @ dirac - 2.0 * box).max() <= 1e-10
    assert np.abs(box - box.conj().T).max() <= 1e-12
    assert np.linalg.eigvalsh(box).min() >= -1e-10


@pytest.mark.parametrize("scale", [-1.0, 1.01])
@pytest.mark.parametrize("space", [SPACES[1], SPACES[3], SectionSpace(heisenberg_model(2, k=0))],
                         ids=lambda sp: sp.describe())
def test_kohn_laplacian_is_a_second_route_to_the_dirac_square(space, scale):
    # box reads nabla_Ebar only and D- reads nabla_E: on a space whose nabla_E
    # is no longer minus the adjoint of nabla_Ebar, D^2 = 2 box must part on
    # the diagonal blocks, where D^2 = D+ D- + D- D+
    broken = copy.copy(space)
    broken.nabla_e = [d._replace(mat=scale * d.mat) if isinstance(d, SlotOp) else scale * d for d in space.nabla_e]
    dirac = assemble_kohn_dirac(broken).mat
    diff = dirac @ dirac - 2.0 * kohn_laplacian(broken).mat
    gap = max(np.abs(diff[rows, rows]).max() for rows in map(space.grade_block, range(space.m + 1)))
    assert gap > 1e-3


@pytest.mark.parametrize("k", [-1, 0, 1])
def test_kohn_laplacian_allocates_no_full_space_product(k):
    # one accumulator plus one Kronecker term at a time; two dense products of
    # full-space matrices would peak at about four outputs
    space = SectionSpace(heisenberg_model(2, k=k, truncation=TruncationSpec(fourier_radius=1, ladder_levels=8)))
    tracemalloc.start()
    try:
        box = kohn_laplacian(space).mat
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * box.nbytes


def test_flat_kernel_dimensions_are_binomials():
    for m in (1, 2):
        space = SectionSpace(heisenberg_model(m, k=0))
        report = kernel_report(kohn_laplacian(space))
        assert {q: rep.dim for q, rep in report.items()} == {q: comb(m, q) for q in range(m + 1)}


def test_flat_harmonic_forms_are_projectable():
    # weight-zero harmonic forms descend to the base: kernel vectors are
    # supported on the frequency-zero mode
    space = SectionSpace(heisenberg_model(2, k=0))
    box = kohn_laplacian(space).mat
    const = np.nonzero(np.linalg.norm(space.labels, axis=1) == 0)[0][0]
    evals, vecs = np.linalg.eigh(box)
    for idx in np.nonzero(np.abs(evals) <= 1e-8)[0]:
        vec = vecs[:, idx].reshape(space.fiber_dim, space.base_dim)
        off = np.delete(vec, const, axis=1)
        assert np.abs(off).max() <= 1e-10


def test_harmonic_iff_closed_and_coclosed():
    space = SectionSpace(cr_alpha_bundle(1, c=1, s=-1))
    box = kohn_laplacian(space).mat
    dplus = assemble_dplus(space).mat
    stacked = np.vstack([dplus, dplus.conj().T])
    for q in range(space.m + 1):
        block = space.grade_block(q)
        box_null = np.count_nonzero(np.abs(np.linalg.eigvalsh(box[block, block])) <= 1e-8)
        sv = np.linalg.svd(stacked[:, block], compute_uv=False)
        joint_null = np.count_nonzero(sv**2 <= 1e-8)
        assert box_null == joint_null


# ---------------------------------------------------------------------------
# analytic counts and the shift identity
# ---------------------------------------------------------------------------


def test_trivial_power_gives_binomials():
    lattice = TorusLattice(2)
    for q in range(3):
        assert torus_line_bundle_cohomology(lattice, 1, 0, q) == comb(2, q)


def test_line_bundle_count_validation():
    lattice = TorusLattice(1)
    with pytest.raises(ValueError):
        torus_line_bundle_cohomology("torus", 1, 0, 0)
    with pytest.raises(ValueError):
        torus_line_bundle_cohomology(lattice, 0, 1, 0)
    with pytest.raises(ValueError):
        torus_line_bundle_cohomology(lattice, 1, 0.5, 0)
    for q in (5, True, 1.0):
        with pytest.raises(ValueError, match=rf"form degree must lie in 0\.\.1, got {q}$"):
            torus_line_bundle_cohomology(lattice, 1, 0, q)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("s", [-2, -1, 0, 1, 2])
def test_sector_identity(m, s):
    space = SectionSpace(cr_alpha_bundle(m, c=1, s=s))
    residuals = sector_identity_residual(space)
    assert max(residuals.values()) <= 1e-10
    # the fiber weight operator N = -2t Id is s Id on the weight-s sector
    assert -2.0 * space.t == s


def test_holomorphic_laplacian_matches_kohn_on_weight_zero():
    space = SectionSpace(cr_alpha_bundle(2, c=1, s=0))
    box_bar = space.dense([(np.eye(space.fiber_dim), space.horizontal_laplacians()[0])])
    assert np.abs(kohn_laplacian(space).mat - box_bar).max() <= 1e-12


@pytest.mark.parametrize("m,c", [(1, 1), (1, 2), (2, 1)])
def test_shift_table_analytic_and_spectral_agree(m, c):
    model = cr_alpha_bundle(m, c=c)
    table = shift_table(model, s_range=range(-2, 3))
    analytic = table.dims("analytic")
    spectral = table.dims("spectral")
    assert set(analytic) == set(spectral)
    assert analytic == spectral
    for s in range(1, 3):
        for q in range(m):
            assert analytic[(q, s)] == 0
    for q in range(m + 1):
        assert analytic[(q, 0)] == comb(m, q)


def test_shift_table_multiplicity():
    table = shift_table(cr_alpha_bundle(1, c=2), s_range=[1])
    assert table.dims("spectral")[(1, 1)] == 2
    assert table.dims("analytic")[(1, 1)] == 2


def test_shift_table_rejects_other_models():
    with pytest.raises(ValueError):
        shift_table(heisenberg_model(1, k=0))


def test_the_shift_guard_refuses_a_nan_defect():
    # a finite lattice of determinant 1 whose base Laplacian overflows: both degrees' shift defects read NaN,
    # and NaN > shift_tol is false, so the guard must refuse all but a defect <= shift_tol
    model = cr_alpha_bundle(TorusLattice(1, np.diag([1e-160, 1e160])), c=1, truncation=TruncationSpec(1, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(list(sector_identity_residual(SectionSpace(model)).values())).all()
        with pytest.raises(RuntimeError, match="shift identity fails on sector 0: defect nan on complete blocks"):
            shift_table(model, s_range=[0])


def test_a_nan_grading_defect_after_a_finite_one_reaches_the_row(monkeypatch):
    # Python's max keeps the finite first defect over the later NaN, so the row must take np.max over the terms
    grading = operators.grading_defects
    monkeypatch.setattr(operators, "grading_defects", lambda *args: [*grading(*args)[:-1], np.nan])
    reads = sector_pass(SectionSpace(heisenberg_model(2, k=1)))
    assert np.isnan(reads.rows["grading_defect"]) and reads.refused.endswith("(largest nan)")


@pytest.mark.parametrize("model", [heisenberg_model(2, k=1), heisenberg_model(2, k=0), cr_alpha_bundle(2, c=1, s=1)],
                         ids=["heisenberg-ladder", "heisenberg-fourier", "torus"])
def test_a_sector_pass_fills_every_reduction(model):
    # one shape of pass: no keyword chooses what it reads, and each reduction is its library reader's value
    space = SectionSpace(model)
    reads = sector_pass(space)
    assert reads.refused is None
    assert reads.shift == sector_identity_residual(space) and list(reads.shift) == list(range(space.m + 1))
    assert {q: (c.dim, c.spurious) for q, c in reads.kernel.items()} == {
        q: (c.dim, c.spurious) for q, c in dirac_kernel(space).items()}
    assert list(reads.rows) == ["dirac_plus_squared", "dirac_minus_squared", "adjoint_defect", "grading_defect"]
    lichnerowicz, covariant = reads.square
    assert lichnerowicz == sl_residual(space) and list(covariant) == list(range(-space.m, space.m + 1, 2))
    assert all(covariant[ell] == dl_residual(space, ell) for ell in covariant)


LIBRARY_READERS = {
    "dirac_kernel": lambda model: [dirac_kernel(SectionSpace(model, sector=s)) for s in (-1, 0, 1)],
    "sector_identity_residual":
        lambda model: [sector_identity_residual(SectionSpace(model, sector=s)) for s in (-1, 0, 1)],
    "shift_table": lambda model: shift_table(model, s_range=(-1, 0, 1)),
    "sl_residual": lambda model: [sl_residual(SectionSpace(model, sector=s)) for s in (-1, 0, 1)],
    "dl_residual": lambda model: [dl_residual(SectionSpace(model, sector=s), 0) for s in (-1, 0, 1)],
}


@pytest.mark.parametrize("reader", LIBRARY_READERS)
def test_library_readers_gather_d_once_per_sector_and_form_no_gram(monkeypatch, reader):
    # the run's guarantee (test_cli.py::test_run_forms_one_dirac_square_per_check_family) through one sector_pass,
    # which counts kernels off D^2's diagonal once per degree and sector of m = 2 for every reader
    gathers, joins = [], []
    gather, join = cohomology.dirac_blocks, SectionSpace.square_rows

    def counting_gather(space):
        gathers.append(space.sector)
        return gather(space)

    def counting_join(space, keys):
        joins.append(space.sector)
        return join(space, keys)

    monkeypatch.setattr(cohomology, "dirac_blocks", counting_gather)
    monkeypatch.setattr(SectionSpace, "square_rows", counting_join)
    grams = record_grams(monkeypatch)
    counts = []
    count = cohomology.diagonal_kernel_count
    monkeypatch.setattr(cohomology, "diagonal_kernel_count", lambda *args: counts.append(args[1]) or count(*args))
    LIBRARY_READERS[reader](cr_alpha_bundle(2, c=1))
    assert gathers == joins == [-1, 0, 1] and grams == [] and len(counts) == 9


@pytest.mark.parametrize("reader", LIBRARY_READERS)
def test_a_memory_error_in_a_library_reader_names_its_reader(monkeypatch, reader):
    # both readers of degree 1 fail; every pass reads the shift defects of a row first, so every reader fails there
    shift, count = cohomology.gram_shift_defect, cohomology.diagonal_kernel_count

    def refuse(read, degree):
        def fail(space, *args):
            if degree(space, *args) == 1:
                raise MemoryError("Unable to allocate 3.06 GiB for an array with shape (65536, 56, 56)")
            return read(space, *args)
        return fail

    monkeypatch.setattr(cohomology, "gram_shift_defect", refuse(shift, lambda space, s, row: space.module.degrees[s]))
    monkeypatch.setattr(cohomology, "diagonal_kernel_count", refuse(count, lambda space, q, *rest: q))
    with pytest.raises(MemoryError, match=r"^Unable to allocate 3\.06 GiB .* \(in shift defects\)$"):
        LIBRARY_READERS[reader](cr_alpha_bundle(2, c=1))


@pytest.mark.parametrize("s", [1.5, True, "1"])
def test_shift_table_refuses_a_sector_that_is_no_integer(s):
    # each of these used to be read as sector 1
    with pytest.raises(ValueError, match=re.escape(f"sector must be an integer, got {s!r}")):
        shift_table(cr_alpha_bundle(1, c=1), s_range=[s])


# ---------------------------------------------------------------------------
# spinor-side table and basis bijection
# ---------------------------------------------------------------------------


def test_spinor_table_matches_form_table():
    for model, s in ((heisenberg_model(2, k=0), 0), (cr_alpha_bundle(2, c=1, s=1), 1)):
        space = SectionSpace(model)
        spinor = harmonic_spinor_table(space, dirac_kernel(space))
        box_report = kernel_report(kohn_laplacian(space))
        for row in spinor.rows:
            assert row.dim == box_report[row.q].dim * space.multiplicity
    space = SectionSpace(cr_alpha_bundle(2, c=1, s=1))
    table = harmonic_spinor_table(space, dirac_kernel(space))
    assert table.dims()[(1, 1)] == 0


def test_shift_table_passes_tolerances_to_kernel_counts(monkeypatch):
    model = cr_alpha_bundle(1, c=1)
    everything = shift_table(model, s_range=[0], tol=1000.0)
    space = SectionSpace(model, sector=0)
    assert everything.dims(method="spectral") == {(0, 0): space.base_dim, (1, 0): space.base_dim}
    assert shift_table(model, s_range=[0]).dims(method="spectral") == {(0, 0): 1, (1, 0): 1}
    seen = []
    count = cohomology.diagonal_kernel_count

    def recording_kernel(space, q, diagonal, tol=1e-8):
        seen.append(tol)
        return count(space, q, diagonal, tol)

    monkeypatch.setattr(cohomology, "diagonal_kernel_count", recording_kernel)
    shift_table(model, s_range=[-1, 1], tol=1e-6)
    # the spectral rows are the Dirac kernel's counts, ker D_q = ker box_q: one per degree and sector
    assert seen == [1e-6] * 4


def test_extremal_rows_are_lower_bounds_only():
    table = shift_table(cr_alpha_bundle(2, c=1), s_range=[0])
    status = {row.q: row.status for row in table.rows if row.method == "analytic"}
    assert status == {0: "lower-bound", 1: "certified", 2: "lower-bound"}
