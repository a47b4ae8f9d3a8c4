import tracemalloc
from math import comb

import numpy as np
import pytest
from blockstates import complete_max, full_indices, to_stack
from twistor_oracle import assemble_twistor, twistor_contraction

from crspin import operators, weitzenboeck
from crspin.clifford import annihilation_matrix, creation_matrix, theta_matrix
from crspin.cohomology import dirac_kernel
from crspin.models import TruncationSpec, cr_alpha_bundle, heisenberg_model
from crspin.operators import (
    OperatorMatrix,
    assemble_dminus,
    assemble_dplus,
    assemble_kohn_dirac,
    cluster_eigenvalues,
    dminus_terms,
    dplus_terms,
    grading_defects,
    kernel_report,
    nabla_T_defect,
    nabla_T_terms,
    sub_laplacian_defect,
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


def sub_laplacian(space, route):
    """Full-space sub-Laplacian: the unitary frame's connection Laplacians, or minus the real-frame squares."""
    if route == "complex":
        factors = [sum(space.horizontal_laplacians())]
    else:
        factors = space.products([(-1.0, d, d) for d in map(space.nabla_real, range(2 * space.m))])
    return space.dense([(np.eye(space.fiber_dim), f) for f in factors])


def reeb_formula(space):
    """Full-space Reeb derivative by its formula, (i/4m) times the bracket of ``nabla_T_terms``."""
    return (1j / (4.0 * space.m)) * space.dense(nabla_T_terms(space))


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
    theta = space.dense([(theta_matrix(space.m), np.ones(space.base_dim))])
    for op, sign in ((assemble_dplus(space), -2.0), (assemble_dminus(space), 2.0)):
        comm = theta @ op.mat - op.mat @ theta
        assert np.abs(comm - sign * op.mat).max() <= 1e-12
    # the one grading reader, term by term: each half keeps its own shift and not the other's
    assert grading_defects(space, dplus_terms(space), dminus_terms(space)) == [0.0] * (2 * space.m)
    assert grading_defects(space, dminus_terms(space), dplus_terms(space)) == [2.0] * (2 * space.m)


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_kohn_dirac_hermitian_and_block_diagonal_square(space):
    dirac = assemble_kohn_dirac(space)
    assert dirac.hermitian_defect() <= 1e-12
    keys = space.stack(dplus_terms(space) + dminus_terms(space))
    degree = space.module.degrees
    rows = list(space.square_rows(keys))
    assert len(rows) == space.fiber_dim and all(key[0] == s for s, row in enumerate(rows) for key in row)
    # the join is the dense square on every block, summed in another order
    square, dense = to_stack(space, {key: vec for row in rows for key, vec in row.items()}), dirac.mat @ dirac.mat
    index = full_indices(space)
    for j, block in enumerate(square):
        present = index[j] >= 0
        states = index[j][present]
        np.testing.assert_allclose(block[np.ix_(present, present)], dense[np.ix_(states, states)], rtol=0, atol=1e-11)
    # D+^2 and D-^2, the only keys of D^2 between degrees, cancel
    between = [np.abs(vec).max() for row in rows for (s, c), vec in row.items() if degree[s] != degree[c]]
    assert len(between) == space.fiber_dim * comb(space.m, 2) // 2
    assert max(between, default=0.0) <= 1e-12


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


def test_cluster_eigenvalues():
    assert cluster_eigenvalues(np.zeros(6)) == [(0.0, 6)]
    assert cluster_eigenvalues([0.0, 1e-12, 1.0, 1.0 + 1e-9, 3.0]) == [(5e-13, 2), (1.0 + 5e-10, 2), (3.0, 1)]
    assert cluster_eigenvalues([0.0, 1e-6], tol=1e-8) == [(0.0, 1), (1e-6, 1)]
    assert cluster_eigenvalues([]) == []
    # a NaN joins no neighbour, so it stays in the table and fails the spectrum check
    values = cluster_eigenvalues([0.0, np.nan, 1.0])
    assert [mult for _, mult in values] == [1, 1, 1] and np.isnan(values[1][0])


def running_mean_clusters(evals, tol):
    """The per-eigenvalue loop cluster_eigenvalues replaced: each value against its cluster's running mean."""
    clusters = []
    for val in map(float, evals):
        if clusters and abs(val - clusters[-1][0]) <= tol * (1.0 + abs(val)):
            mean, n = clusters[-1]
            clusters[-1] = ((mean * n + val) / (n + 1), n + 1)
        else:
            clusters.append((val, 1))
    return clusters


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_clusters_match_the_running_mean_loop(space):
    # the same clusters as the loop; the values differ by the loop's drift, a few ulp at these multiplicities
    for count in dirac_kernel(space).values():
        reference = running_mean_clusters(count.eigenvalues, 1e-8)
        clusters = cluster_eigenvalues(count.eigenvalues)
        assert [mult for _, mult in clusters] == [mult for _, mult in reference]
        assert np.allclose([v for v, _ in clusters], [v for v, _ in reference], rtol=1e-13, atol=1e-13)


def test_sub_laplacian_routes_agree_and_psd():
    for space in (SPACES[0], SPACES[2], SPACES[4]):
        complex_route, real_route = sub_laplacian(space, "complex"), sub_laplacian(space, "real")
        assert np.abs(complex_route - real_route).max() <= 1e-12
        assert np.abs(complex_route - complex_route.conj().T).max() <= 1e-12
        evals = np.linalg.eigvalsh(complex_route)
        assert evals.min() >= -1e-12


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_sub_laplacian_defect_is_the_full_lift_maximum(space):
    full = np.abs(sub_laplacian(space, "complex") - sub_laplacian(space, "real")).max()
    assert sub_laplacian_defect(space) == full


def test_a_nan_in_a_later_base_factor_reaches_the_sub_laplacian_defect(monkeypatch):
    # Python's max keeps a finite first value over a later NaN, so the defect must take np.max over the factors
    products = SectionSpace.products

    def nan_last(self, pairs):
        diag, *off = products(self, pairs)
        return [diag, *off[:-1], off[-1]._replace(mat=np.full_like(off[-1].mat, np.nan))]

    monkeypatch.setattr(SectionSpace, "products", nan_last)
    assert np.isnan(sub_laplacian_defect(SectionSpace(heisenberg_model(2, k=1))))


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
    full = complete_max(space, reeb_formula(space) - 1j * space.t * np.eye(space.dim))
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
    # the formula's stack is scaled and shifted in place
    assert peak < 2 * len(space.blocks()) * space.fiber_dim**2 * np.dtype(complex).itemsize


def test_sub_laplacian_annihilates_constants():
    space = SectionSpace(heisenberg_model(2, k=0))
    evals = np.linalg.eigvalsh(sub_laplacian(space, "complex"))
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


def test_nabla_T_vanishes_on_weight_zero():
    space = SectionSpace(heisenberg_model(2, k=0))
    assert space.t == 0.0
    assert np.abs(reeb_formula(space)).max() <= 1e-12


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
    for fib in range(width // space.base_dim):
        vec = np.zeros(width, dtype=complex)
        vec[fib * space.base_dim + const] = 1.0
        assert np.abs(twistor.mat @ vec).max() <= 1e-13


def test_kernel_dims_flat_sector_are_binomials():
    space = SectionSpace(heisenberg_model(2, k=0))
    dims = {q: count.dim for q, count in kernel_report(assemble_kohn_dirac(space)).items()}
    assert dims == {0: 1, 1: 2, 2: 1}


def test_kernel_positive_bundle_concentrates_at_top():
    space = SectionSpace(cr_alpha_bundle(2, c=1, s=1))
    dims = {q: count.dim for q, count in kernel_report(assemble_kohn_dirac(space)).items()}
    assert dims[0] == 0 and dims[1] == 0
    assert dims[2] == 1


def test_kernel_report_flags_top_rung_artifacts():
    space = SectionSpace(heisenberg_model(1, k=1))
    report = kernel_report(assemble_kohn_dirac(space))
    assert report[0].dim == 1
    assert report[1].dim == 0
    assert report[1].spurious >= 1


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_dirac_kernel_eigenvalues_are_the_block_spectra(space):
    dirac = assemble_kohn_dirac(space).mat
    square = dirac.conj().T @ dirac
    report = dirac_kernel(space)
    assert sorted(report) == list(range(space.m + 1))
    assert report == kernel_report(assemble_kohn_dirac(space))
    for q, count in report.items():
        assert not count.eigenvalues.flags.writeable
        np.testing.assert_allclose(count.eigenvalues, np.linalg.eigvalsh(square[space.grade_block(q), space.grade_block(q)]), rtol=0, atol=1e-10)


def test_kernel_of_identity_is_empty():
    space = SectionSpace(heisenberg_model(1, k=0))
    eye = OperatorMatrix(np.eye(space.dim), space, mu_shift=0)
    assert {q: (count.dim, count.spurious) for q, count in kernel_report(eye).items()} == {0: (0, 0), 1: (0, 0)}
    for tol in (0.0, -1e-8):
        with pytest.raises(ValueError, match="kernel tolerance must be positive"):
            kernel_report(eye, tol=tol)


def test_truncation_override_controls_dimensions():
    model = heisenberg_model(1, k=0, truncation=TruncationSpec(fourier_radius=1, ladder_levels=4))
    assert SectionSpace(model).dim == 2 * 9
