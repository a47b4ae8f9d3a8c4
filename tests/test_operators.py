import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from crspin import operators, weitzenboeck
from crspin.clifford import annihilation_matrix, creation_matrix
from crspin.models import TruncationSpec, cr_alpha_bundle, heisenberg_model
from crspin.operators import (
    OperatorMatrix,
    assemble_dminus,
    assemble_dplus,
    assemble_kohn_dirac,
    assemble_nabla_T,
    assemble_sub_laplacian,
    assemble_twistor,
    block_kernel_report,
    dirac_kernel,
    grading_defect,
    gram,
    kernel_dim,
    kernel_report,
    nabla_T_defect,
    spectrum,
    sub_laplacian_defect,
    theta_operator,
    twistor_contraction,
)
from crspin.sections import SectionSpace


def spectral_spaces():
    out = []
    for m in (1, 2):
        for k in (0, 1, 2):
            out.append(SectionSpace(heisenberg_model(m, k=k)))
        for s in (-2, -1, 0, 1, 2):
            out.append(SectionSpace(cr_alpha_bundle(m, c=1, s=s)))
    return out


SPACES = spectral_spaces()
IDS = [sp.describe() for sp in SPACES]


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_half_dirac_squares_vanish(space):
    dplus = assemble_dplus(space).mat
    dminus = assemble_dminus(space).mat
    assert np.abs(dplus @ dplus).max() <= 1e-12
    assert np.abs(dminus @ dminus).max() <= 1e-12


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_kronecker_assembly_equals_lifted_products(space):
    # the products of padded full-space lifts the assemblers used to form
    m = space.m
    c_e = [space.lift_fiber(creation_matrix(m, a)) for a in range(1, m + 1)]
    c_ebar = [-space.lift_fiber(annihilation_matrix(m, a)) for a in range(1, m + 1)]
    d_e = [space.lift_base(mat) for mat in space.nabla_e]
    d_ebar = [space.lift_base(mat) for mat in space.nabla_ebar]
    assert np.array_equal(assemble_dplus(space).mat, sum(2.0 * c @ d for c, d in zip(c_e, d_ebar)))
    assert np.array_equal(assemble_dminus(space).mat, sum(2.0 * c @ d for c, d in zip(c_ebar, d_e)))


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_dminus_is_adjoint_of_dplus(space):
    dplus = assemble_dplus(space).mat
    dminus = assemble_dminus(space).mat
    assert np.abs(dminus - dplus.conj().T).max() <= 1e-12


@pytest.mark.parametrize("space", SPACES[:4], ids=IDS[:4])
def test_grading_commutators(space):
    theta = theta_operator(space).mat
    for op, sign in ((assemble_dplus(space), -2.0), (assemble_dminus(space), 2.0)):
        comm = theta @ op.mat - op.mat @ theta
        assert np.abs(comm - sign * op.mat).max() <= 1e-12
        assert grading_defect(op) <= 1e-14


def test_recorded_shift_must_match_sparsity():
    space = SPACES[1]
    lying = OperatorMatrix(assemble_dplus(space).mat, space, name="D+", mu_shift=2)
    assert grading_defect(lying) > 0.1


@pytest.mark.parametrize("space", SPACES[:6], ids=IDS[:6])
def test_kohn_dirac_hermitian_and_block_diagonal_square(space):
    dirac = assemble_kohn_dirac(space)
    assert dirac.hermitian_defect() <= 1e-12
    square = OperatorMatrix(dirac.mat @ dirac.mat, space, mu_shift=0)
    assert grading_defect(square) <= 1e-12


def test_dplus_kills_constant_modes():
    space = SectionSpace(heisenberg_model(1, k=0))
    dplus = assemble_dplus(space).mat
    const = np.nonzero(np.linalg.norm(space.labels, axis=1) == 0)[0][0]
    for f in range(space.fiber_dim):
        col = dplus[:, f * space.base_dim + const]
        assert np.abs(col).max() == 0.0


def test_flat_dirac_square_spectrum_against_fourier_oracle():
    # independent enumeration: on the unit torus the square of the Kohn-Dirac
    # operator acts on each Fourier mode e^{2 pi i n.x} as 4 pi^2 |n|^2, twice
    # per mode (once per fiber degree)
    space = SectionSpace(heisenberg_model(1, k=0))
    radius = 3
    expected = []
    for nx in range(-radius, radius + 1):
        for ny in range(-radius, radius + 1):
            expected += [4.0 * np.pi**2 * (nx**2 + ny**2)] * 2
    expected = np.sort(expected)
    dirac = assemble_kohn_dirac(space)
    evals = np.sort(np.linalg.eigvalsh(dirac.mat @ dirac.mat))
    assert evals.shape == expected.shape
    assert np.abs(evals - expected).max() <= 1e-8
    assert evals.min() >= -1e-10


def test_spectrum_clusters_and_validation():
    space = SectionSpace(heisenberg_model(1, k=0))
    zero = OperatorMatrix(np.zeros((6, 6)), space, name="0", mu_shift=0)
    assert spectrum(zero) == [(0.0, 6)]
    dplus = assemble_dplus(space)
    with pytest.raises(ValueError, match="Hermitian"):
        spectrum(dplus)
    clusters = spectrum(gram(dplus), count=1)
    assert clusters[0][0] == pytest.approx(0.0, abs=1e-10)


def test_sub_laplacian_routes_agree_and_psd():
    for space in (SPACES[0], SPACES[2], SPACES[4]):
        complex_route = assemble_sub_laplacian(space, "complex")
        real_route = assemble_sub_laplacian(space, "real")
        assert np.abs(complex_route.mat - real_route.mat).max() <= 1e-12
        assert complex_route.hermitian_defect() <= 1e-12
        evals = np.linalg.eigvalsh(complex_route.mat)
        assert evals.min() >= -1e-12
    with pytest.raises(ValueError):
        assemble_sub_laplacian(SPACES[0], "sideways")


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_sub_laplacian_defect_is_the_full_lift_maximum(space):
    full = np.abs(assemble_sub_laplacian(space, "complex").mat - assemble_sub_laplacian(space, "real").mat).max()
    assert sub_laplacian_defect(space) == full


def test_sub_laplacian_defect_allocates_no_full_space_matrix():
    space = SectionSpace(heisenberg_model(3, k=1, truncation=TruncationSpec(fourier_radius=1, ladder_levels=5)))
    assert space.dim == 1000
    tracemalloc.start()
    try:
        sub_laplacian_defect(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * space.dim**2 * np.dtype(complex).itemsize


LADDER3 = [SectionSpace(heisenberg_model(3, k=k, truncation=TruncationSpec(fourier_radius=1, ladder_levels=5)))
           for k in (-1, 1)]


@pytest.mark.parametrize("space", SPACES + LADDER3, ids=IDS + [sp.describe() for sp in LADDER3])
def test_nabla_T_defect_is_the_full_space_maximum(space):
    full = space.interior_max(assemble_nabla_T(space, "formula").mat - assemble_nabla_T(space, "direct").mat)
    assert nabla_T_defect(space) == full


def test_nabla_T_defect_allocates_no_full_space_matrix():
    space = LADDER3[1]
    tracemalloc.start()
    try:
        nabla_T_defect(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * space.dim**2 * np.dtype(complex).itemsize


def test_sub_laplacian_annihilates_constants():
    space = SectionSpace(heisenberg_model(2, k=0))
    lap = assemble_sub_laplacian(space)
    evals = np.linalg.eigvalsh(lap.mat)
    assert abs(evals.min()) <= 1e-12


@pytest.mark.parametrize(
    "model",
    [
        heisenberg_model(1, k=0),
        heisenberg_model(1, k=2),
        heisenberg_model(2, k=-1),
        cr_alpha_bundle(1, c=1, s=1),
        cr_alpha_bundle(2, c=2, s=-2),
    ],
    ids=lambda mod: mod.describe() + f"/{getattr(mod, 'k', getattr(mod, 's', '?'))}",
)
def test_nabla_T_routes_agree(model):
    space = SectionSpace(model)
    assert nabla_T_defect(space) <= 1e-10
    direct = assemble_nabla_T(space).mat
    assert np.abs(direct - 1j * space.t * np.eye(space.dim)).max() == 0.0


def test_nabla_T_vanishes_on_weight_zero():
    space = SectionSpace(heisenberg_model(2, k=0))
    assert np.abs(assemble_nabla_T(space).mat).max() == 0.0
    assert np.abs(assemble_nabla_T(space, "formula").mat).max() <= 1e-12


@pytest.mark.parametrize("space", [SPACES[0], SPACES[3], SPACES[8], SPACES[11]], ids=lambda sp: sp.describe())
def test_twistor_image_in_kernel_of_contraction(space):
    for q in range(space.m + 1):
        twistor = assemble_twistor(space, q)
        contraction = twistor_contraction(space, q)
        assert np.abs(contraction @ twistor.mat).max() <= 1e-12
    with pytest.raises(ValueError):
        assemble_twistor(space, space.m + 1)


def _twistor_route_gap(m: int, q: int) -> float:
    """Matrix twistor against the pointwise field twistor on one trig-polynomial spinor.

    On the weight-zero sector of the unit lattice the base labels are
    2 pi n, so TrigPoly frequency n is the Fourier coefficient with label
    2 pi n: the matrix route acts on the spinor's coefficients, and its
    output coefficients are summed into values at the sample points,
    where the field route evaluates the twistor slots.
    """
    space = SectionSpace(heisenberg_model(m, k=0))
    freqs = np.rint(space.labels / (2.0 * np.pi)).astype(int)
    assert np.allclose(2.0 * np.pi * freqs, space.labels)
    row = {tuple(n): i for i, n in enumerate(freqs)}

    ctx = weitzenboeck._FiberContext(m)
    field = weitzenboeck._test_spinor(ctx, q)
    vec = np.zeros(space.dim, dtype=complex)
    for fib, poly in enumerate(field):
        for n, value in poly.coeffs.items():
            vec[fib * space.base_dim + row[n]] += value
    points = weitzenboeck.default_sample_points(2 * m)
    waves = np.exp(2j * np.pi * (freqs @ points.T))
    slot_coefficients = assemble_twistor(space, q).mat @ vec[space.grade_block(q)]
    matrix_route = slot_coefficients.reshape(2 * m, space.module.dim, space.base_dim) @ waves
    phi = weitzenboeck._jet(field, points, m)
    field_route = np.concatenate([weitzenboeck._twistor(phi.d[half.direction], half, q, ctx)
                                  for half in (ctx.half10, ctx.half01)])
    assert np.abs(field_route).max() > 0.1
    return float(np.abs(matrix_route - field_route).max())


@pytest.mark.parametrize("m, q", [(m, q) for m in (1, 2) for q in range(m + 1)])
def test_twistor_matrix_matches_pointwise_field_twistor(m, q):
    assert _twistor_route_gap(m, q) <= 1e-12


@pytest.mark.parametrize("m, q", [(1, 0), (1, 1), (2, 0), (2, 2)])  # a_q != b_q
def test_twistor_cross_route_detects_swapped_weights(m, q, monkeypatch):
    weights = operators.twistor_weights
    monkeypatch.setattr(operators, "twistor_weights", lambda m, q: weights(m, q)[::-1])
    assert _twistor_route_gap(m, q) > 1e-3


def test_constant_spinor_is_twistor_null():
    # weight-zero torus sector, middle degree: constant sections are twistor spinors
    space = SectionSpace(cr_alpha_bundle(2, c=1, s=0))
    q = 1
    twistor = assemble_twistor(space, q)
    const = np.nonzero(np.linalg.norm(space.labels, axis=1) == 0)[0][0]
    block = space.grade_block(q)
    width = block.stop - block.start
    for fib in range(space.module.grade_dim(q)):
        vec = np.zeros(width, dtype=complex)
        vec[fib * space.base_dim + const] = 1.0
        assert np.abs(twistor.mat @ vec).max() <= 1e-13


def test_kernel_dims_flat_sector_are_binomials():
    space = SectionSpace(heisenberg_model(2, k=0))
    dims = kernel_dim(assemble_kohn_dirac(space))
    assert dims == {0: 1, 1: 2, 2: 1}


def test_kernel_positive_bundle_concentrates_at_top():
    space = SectionSpace(cr_alpha_bundle(2, c=1, s=1))
    dims = kernel_dim(assemble_kohn_dirac(space))
    assert dims[0] == 0 and dims[1] == 0
    assert dims[2] == 1


def test_kernel_report_flags_top_rung_artifacts():
    space = SectionSpace(heisenberg_model(1, k=1))
    report = kernel_report(assemble_kohn_dirac(space))
    assert report[0].dim == 1
    assert report[1].dim == 0
    assert report[1].spurious >= 1


def test_dirac_kernel_runs_once_per_space_and_tolerances(monkeypatch):
    calls = []

    def counting_report(space, stack, tol=1e-8, gram=True):
        calls.append((stack.shape, tol, gram))
        return block_kernel_report(space, stack, tol=tol, gram=gram)

    monkeypatch.setattr(operators, "block_kernel_report", counting_report)
    monkeypatch.setattr(operators, "kernel_report", None)  # no full-space route
    space = SectionSpace(heisenberg_model(2, k=1))
    first = dirac_kernel(space)
    assert dirac_kernel(space, 1e-8) == first
    assert calls == [((len(space.blocks()), 4, 4), 1e-8, True)]
    dirac_kernel(space, tol=1e-6)
    dirac_kernel(SectionSpace(heisenberg_model(2, k=1)))
    assert len(calls) == 3
    # callers get their own dict of frozen counts
    first.clear()
    assert len(dirac_kernel(space)) == 3 and len(calls) == 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        dirac_kernel(space)[0].dim = 7


def test_dirac_kernel_does_not_keep_its_space_alive():
    space = SectionSpace(cr_alpha_bundle(2, c=1, s=1))
    dirac_kernel(space)
    ref = weakref.ref(space)
    del space
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_dirac_kernel_eigenvalues_are_the_block_spectra(space):
    square = gram(assemble_kohn_dirac(space))
    report = dirac_kernel(space)
    assert sorted(report) == list(range(space.m + 1))
    assert report == kernel_report(assemble_kohn_dirac(space))
    for q, count in report.items():
        assert not count.eigenvalues.flags.writeable
        np.testing.assert_allclose(count.eigenvalues, np.linalg.eigvalsh(square.block(q, q)), rtol=0, atol=1e-10)


def test_kernel_of_identity_is_empty():
    space = SectionSpace(heisenberg_model(1, k=0))
    eye = OperatorMatrix(np.eye(space.dim), space, name="Id", mu_shift=0)
    assert kernel_dim(eye) == {0: 0, 1: 0}
    with pytest.raises(ValueError):
        kernel_dim(eye, tol=0.0)


def test_truncation_override_controls_dimensions():
    model = heisenberg_model(1, k=0, truncation=TruncationSpec(fourier_radius=1, ladder_levels=4))
    assert SectionSpace(model).dim == 2 * 9
