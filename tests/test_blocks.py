"""The per-slot block layer: partner tables, stacked operators and the spectral checks read off them."""

import tracemalloc
from math import comb

import numpy as np
import pytest
from blockstates import box_keys, complete_max, full_indices, to_stack

from crspin import cli, operators
from crspin.cohomology import (
    dirac_kernel,
    kohn_laplacian,
    sector_identity_residual,
    sector_pass,
    shift_table,
)
from crspin.models import TruncationSpec, cr_alpha_bundle, heisenberg_model
from crspin.operators import (
    assemble_dminus,
    assemble_dplus,
    assemble_kohn_dirac,
    dirac_blocks,
    dminus_terms,
    dplus_terms,
    kernel_report,
    nabla_T_terms,
)
from crspin.sections import SectionSpace
from crspin.weitzenboeck import curvature_term

LADDER3 = TruncationSpec(fourier_radius=1, ladder_levels=5)


def block_spaces():
    out = []
    for m in (1, 2):
        for k in (0, 1, 2):
            out.append(SectionSpace(heisenberg_model(m, k=k)))
        for s in (-2, -1, 0, 1, 2):
            out.append(SectionSpace(cr_alpha_bundle(m, c=1, s=s)))
    out += [SectionSpace(heisenberg_model(3, k=k, truncation=LADDER3)) for k in (-1, 1)]
    return out


SPACES = block_spaces()
IDS = [sp.describe() for sp in SPACES]


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_blocks_cover_every_index_once(space):
    partners = space.blocks()
    assert partners.shape[1] == space.fiber_dim and not partners.flags.writeable
    assert space.blocks() is partners
    index = full_indices(space)
    assert np.array_equal(np.sort(index[index >= 0]), np.arange(space.dim))
    complete = space.block_complete()
    assert complete.shape == (len(partners),) and not complete.flags.writeable
    if space.kind == "ladder":
        assert len(partners) == (space.ladder_levels + 1) ** space.m
        assert (partners >= 0).any(axis=1).all()
        assert complete.any() and not complete.all()
    else:
        assert complete.all()


@pytest.mark.parametrize("space", SPACES, ids=IDS)
@pytest.mark.parametrize("operator", ["D", "box"])
def test_stack_is_the_dense_assembly_on_blocks(space, operator):
    # D's keys gather the dense assembly's own floats, one (n_blocks,) vector per filled fiber position; box is
    # half of D^2's degree blocks, which read D+ and D- where the dense box reads D+ alone: with D- = D+^H
    # they are the same products, summed in another order
    if operator == "D":
        keys, atol = space.stack(dplus_terms(space) + dminus_terms(space)), 0.0
        dense = assemble_kohn_dirac(space).mat
        filled = np.nonzero(sum(np.abs(fiber) for fiber, _ in dplus_terms(space) + dminus_terms(space)))
        assert sorted(keys) == sorted(zip(*(axis.tolist() for axis in filled)))
    else:
        keys, dense, atol = box_keys(space, dirac_blocks(space)[0]), kohn_laplacian(space).mat, 1e-13
    assert all(vec.shape == (len(space.blocks()),) for vec in keys.values())
    index = full_indices(space)
    on_block = np.zeros_like(dense, dtype=bool)
    for j, block in enumerate(to_stack(space, keys)):
        present = index[j] >= 0
        rows = index[j][present]
        np.testing.assert_allclose(block[np.ix_(present, present)], dense[np.ix_(rows, rows)], rtol=0, atol=atol)
        assert not block[~present].any() and not block[:, ~present].any()
        on_block[np.ix_(rows, rows)] = True
    assert not dense[~on_block].any()


# m = 3 sectors where summing a row's lower-degree keys first moves the last bits of D^2's degree blocks
ORDER_SPACES = [SectionSpace(heisenberg_model(3, k=-2, truncation=TruncationSpec(1, 3))),
                SectionSpace(cr_alpha_bundle(3, c=1, s=1, truncation=TruncationSpec(1, 3)))]


@pytest.mark.parametrize("space", SPACES + ORDER_SPACES, ids=IDS + [sp.describe() for sp in ORDER_SPACES])
def test_the_degree_blocks_of_d_squared_are_d_grams_bit_for_bit(space):
    # the kernel counts read D^2's diagonal as the spectrum of D's Grams: entry (c, c') of D^H D summed over
    # column c's keys in D's key order, D+'s (one degree up) before D-'s, which D^2 reproduces only in its own
    # summation order
    dirac, degree = dirac_blocks(space)[0], space.module.degrees
    gram = {}
    for (s, c), a in dirac.items():
        for (s2, c2), b in dirac.items():
            if s2 == s and degree[c2] == degree[c]:
                term = np.einsum("i,i->i", a.conj(), b)
                gram[c, c2] = gram[c, c2] + term if (c, c2) in gram else term
    square = {(s, c): vec for row in space.square_rows(dirac) for (s, c), vec in row.items() if degree[s] == degree[c]}
    assert square.keys() == gram.keys() and all(np.array_equal(square[key], gram[key]) for key in gram)


def block_labels(space):
    """Per-slot label J of every block, read off its first kept state: bits + n (t > 0) or bits - n (t < 0)."""
    partners = space.blocks()
    bits = np.array([[a in s for a in range(1, space.m + 1)] for s in space.module.subsets], dtype=int)
    state = np.argmax(partners >= 0, axis=1)
    occ = space.labels[partners[np.arange(len(partners)), state]]
    return [tuple(label) for label in (bits[state] + occ if space.t > 0 else bits[state] - occ).tolist()]


def ladder_model(kind, m, sector, levels):
    trunc = TruncationSpec(fourier_radius=1, ladder_levels=levels)
    if kind == "heisenberg":
        return heisenberg_model(m, k=sector, truncation=trunc)
    return cr_alpha_bundle(m, c=1, s=sector, truncation=trunc)


EXACTNESS = [(kind, 2, sector, levels) for kind in ("heisenberg", "torus_bundle")
             for sector in (-2, -1, 1, 2) for levels in (3, 5)]
EXACTNESS += [("heisenberg", 3, sector, 5) for sector in (-1, 1)]


@pytest.mark.parametrize("kind, m, sector, levels", EXACTNESS)
@pytest.mark.parametrize("operator", ["D", "box"])
def test_complete_blocks_are_exact_and_cut_blocks_are_not(kind, m, sector, levels, operator):
    # a complete block is the untruncated operator's block, so two more ladder
    # levels leave it bitwise unchanged; a block the cutoff cut into changes
    spaces = [SectionSpace(ladder_model(kind, m, sector, L)) for L in (levels, levels + 2)]
    if operator == "D":
        stacks = [to_stack(space, space.stack(dplus_terms(space) + dminus_terms(space))) for space in spaces]
    else:
        stacks = [to_stack(space, box_keys(space, dirac_blocks(space)[0])) for space in spaces]
    wider = dict(zip(block_labels(spaces[1]), stacks[1]))
    complete = spaces[0].block_complete()
    assert complete.any() and not complete.all()
    for label, block, whole in zip(block_labels(spaces[0]), stacks[0], complete):
        assert np.array_equal(block, wider[label]) == whole, label


def dense_shift_defects(space):
    """The shift identity box - box_bar = (m - q) N on full-space matrices, per degree, on complete blocks."""
    box = kohn_laplacian(space).mat
    box_bar = space.dense([(np.eye(space.fiber_dim), space.horizontal_laplacians()[0])])
    out = {}
    for q in range(space.m + 1):
        rows = space.grade_block(q)
        eye = np.eye(rows.stop - rows.start)
        out[q] = complete_max(space, box[rows, rows] - box_bar[rows, rows] - (space.m - q) * (-2.0 * space.t) * eye, rows)
    return out


@pytest.mark.parametrize("space", SPACES[:-2], ids=IDS[:-2])
def test_sector_identity_residual_is_the_dense_formula(space):
    # half of D^2's degree blocks and the dense box from D+ alone sum the same products in different orders
    blocks, dense = sector_identity_residual(space), dense_shift_defects(space)
    assert blocks.keys() == dense.keys()
    assert all(abs(blocks[q] - dense[q]) <= 1e-13 for q in dense)


@pytest.mark.parametrize("m, flux", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_shift_table_counts_are_the_dense_kohn_laplacian_kernels(m, flux):
    model = cr_alpha_bundle(m, c=flux)
    sectors = (-2, -1, 0, 1, 2)
    spectral = shift_table(model, s_range=sectors).dims(method="spectral")
    for s in sectors:
        space = SectionSpace(model, sector=s)
        for q, count in kernel_report(kohn_laplacian(space)).items():
            assert spectral[q, s] == count.dim * space.multiplicity


@pytest.mark.parametrize("space", SPACES[-2:], ids=IDS[-2:])
def test_dirac_kernel_counts_are_the_dense_counts(space):
    # m <= 2: test_operators.py::test_dirac_kernel_eigenvalues_are_the_block_spectra;
    # KernelCount equality leaves out the eigenvalues, which may round differently
    dense = kernel_report(assemble_kohn_dirac(space))
    blocks = dirac_kernel(space)
    assert blocks == dense
    for q in dense:
        np.testing.assert_allclose(blocks[q].eigenvalues, dense[q].eigenvalues, rtol=0, atol=1e-10)


def test_dirac_kernel_allocates_no_full_space_matrix():
    space = SectionSpace(heisenberg_model(3, k=1, truncation=LADDER3))
    assert space.dim == 1000
    tracemalloc.start()
    try:
        dirac_kernel(space, tol=3e-8)  # a tolerance no other test caches
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * space.dim**2 * np.dtype(complex).itemsize


@pytest.mark.parametrize("model", [heisenberg_model(4, k=0, truncation=TruncationSpec(1, 6)),
                                   heisenberg_model(5, k=1, truncation=TruncationSpec(1, 4))], ids=["m4-fourier", "m5-ladder"])
def test_the_gather_holds_little_beside_the_keys_it_returns(model):
    # each key is formed straight from two partner columns, so no (n_blocks, nnz) or (n_blocks, fiber_dim) array
    # is held beside D's keys; gathering a whole term at once holds 42 and 89 key vectors here
    space = SectionSpace(model)
    space.blocks()  # the partner table is cached on the space, not the gather's
    tracemalloc.start()
    try:
        keys = dirac_blocks(space)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - sum(vec.nbytes for vec in keys.values()) <= 16 * len(space.blocks()) * np.dtype(complex).itemsize


def test_dirac_kernel_reaches_the_fourier_sector_of_m3_without_full_space_terms(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("full-space Kronecker term formed")

    space = SectionSpace(heisenberg_model(3, k=0, truncation=TruncationSpec(fourier_radius=1, ladder_levels=6)))
    assert space.dim == 5832
    monkeypatch.setattr(SectionSpace, "mixed", refuse)
    counts = dirac_kernel(space)
    assert {q: count.dim for q, count in counts.items()} == {0: 1, 1: 3, 2: 3, 3: 1}
    assert all(count.spurious == 0 for count in counts.values())
    assert sum(count.eigenvalues.size for count in counts.values()) == space.dim


def test_block_kernels_reject_nonpositive_tolerances():
    space = SectionSpace(heisenberg_model(1, k=1))
    for tol in (0.0, -1e-8):
        with pytest.raises(ValueError, match="kernel tolerance must be positive"):
            dirac_kernel(space, tol=tol)
        with pytest.raises(ValueError, match="kernel tolerance must be positive"):
            shift_table(cr_alpha_bundle(1, c=1), s_range=[1], tol=tol)


def dense_rhs(space, laps, twist, q):
    """Full-space degree-q block of the square formula's right-hand side, summed term by term."""
    m, mu = space.m, space.m - 2 * q
    eye = np.eye(comb(m, q))
    rhs = space.mixed((1.0 - mu / m) * eye, laps[0])
    rhs += space.mixed((1.0 + mu / m) * eye, laps[1])
    rhs += space.mixed(curvature_term(space.model, twist, q), np.ones(space.base_dim))
    return rhs


def dense_grading_defect(space, mat, degree_shift):
    """Largest |entry| of the full-space ``mat`` between degrees that differ (output minus input) by other than
    ``degree_shift``."""
    grades = list(enumerate(map(space.grade_block, range(space.m + 1))))
    return max(float(np.abs(mat[rows, cols]).max()) for q_out, rows in grades for q_in, cols in grades
               if q_out - q_in != degree_shift)


def dense_identity_rows(space):
    """Every row of the identities check, from full-space matrices."""
    dplus, dminus = assemble_dplus(space).mat, assemble_dminus(space).mat
    eye = np.eye(space.fiber_dim)
    real = space.products([(-1.0, d, d) for d in map(space.nabla_real, range(2 * space.m))])
    nabla_T = (1j / (4.0 * space.m)) * space.dense(nabla_T_terms(space))
    rows = {
        "dirac_plus_squared": float(np.abs(dplus @ dplus).max()),
        "dirac_minus_squared": float(np.abs(dminus @ dminus).max()),
        "adjoint_defect": float(np.abs(dminus - dplus.conj().T).max()),
        "grading_defect": max(dense_grading_defect(space, dplus, 1), dense_grading_defect(space, dminus, -1)),
        "sub_laplacian_routes": float(np.abs(space.dense([(eye, sum(space.horizontal_laplacians()))])
                                             - space.dense([(eye, f) for f in real])).max()),
        "reeb_routes": complete_max(space, nabla_T - 1j * space.t * np.eye(space.dim)),
        "sector_identity": max(dense_shift_defects(space).values()),
    }
    dirac = assemble_kohn_dirac(space).mat
    square = dirac @ dirac
    laps = space.horizontal_laplacians()
    rhs = np.zeros_like(square)
    for q in range(space.m + 1):
        block = space.grade_block(q)
        rhs[block, block] = dense_rhs(space, laps, space.model.ell, q)
    rows["lichnerowicz_residual"] = complete_max(space, square - rhs)
    for ell in range(-space.m, space.m + 1, 2):
        q = (space.m + ell) // 2
        block = space.grade_block(q)
        rows[f"covariant_dirac_residual_ell={ell}"] = complete_max(
            space, square[block, block] - dense_rhs(space, laps, ell, q), block)
    return rows


def identity_rows(space):
    """The identities check's report on one sector of ``space.model``."""
    config = {"model": {"sectors": [space.sector]}, "tolerances": dict(cli.TOLERANCE_DEFAULTS)}
    result = cli._check_identities(space.model, config, cli._RunMemo(space.model, config))
    return result.report["sectors"][str(space.sector)]


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_identities_rows_are_the_dense_rows(space):
    # exact where the block route reads the same floats; the D·D products
    # sum in another order, so the square rows may round differently
    blocks, dense = identity_rows(space), dense_identity_rows(space)
    assert blocks.keys() == dense.keys()
    for name in ("adjoint_defect", "grading_defect"):
        assert blocks[name] == dense[name]
    for name in blocks:
        assert abs(blocks[name] - dense[name]) <= 1e-13, name


def one_diagonal_entry(terms, space):
    """``terms`` and a term with one degree-keeping fiber entry: a diagonal keeps its per-slot blocks, so
    ``stack`` takes it, and it lies in no slab the adjoint and square rows read."""
    fiber = np.zeros((space.fiber_dim, space.fiber_dim))
    fiber[1, 1] = 1e-3
    return terms + [(fiber, np.ones(space.base_dim))]


@pytest.mark.parametrize("half, mutate, failing", [
    ("dplus_terms", one_diagonal_entry, {"grading_defect"}),
    # Clifford matrices without their Jordan-Wigner signs keep the grading but no longer anticommute
    ("dplus_terms", lambda terms, space: [(np.abs(f), b) for f, b in terms], {"dirac_plus_squared", "adjoint_defect"}),
    ("dminus_terms", lambda terms, space: [(-np.abs(f), b) for f, b in terms], {"dirac_minus_squared", "adjoint_defect"}),
    # D-'s factor -2 read as -2.6
    ("dminus_terms", lambda terms, space: [(1.3 * f, b) for f, b in terms], {"adjoint_defect"}),
    # D+ without its slot-2 term: D-'s keys of slot 2 have no partner key to compare with
    ("dplus_terms", lambda terms, space: terms[:-1], {"adjoint_defect"}),
], ids=["wrong-degree-entry", "unsigned-creation", "unsigned-annihilation", "scaled-dminus", "dropped-dplus-term"])
def test_identities_algebraic_rows_fail_on_their_mutant(monkeypatch, half, mutate, failing):
    build = getattr(operators, half)
    monkeypatch.setattr(operators, half, lambda space: mutate(build(space), space))
    model = heisenberg_model(2, k=1)
    config = {"model": {"sectors": [1]}, "tolerances": dict(cli.TOLERANCE_DEFAULTS)}
    result = cli._check_identities(model, config, cli._RunMemo(model, config))
    rows = result.report["sectors"]["1"]
    algebraic = ("dirac_plus_squared", "dirac_minus_squared", "adjoint_defect", "grading_defect")
    assert not result.passed
    assert {name for name in algebraic if rows[name] > cli.TOLERANCE_DEFAULTS["algebraic"]} == failing


@pytest.mark.parametrize("k", [3000, 10**4])
def test_identities_pass_at_large_heisenberg_sectors(k):
    # the join sums D+^2's two paths as two rounded products, which cancel exactly; a dense product summed
    # them with rounding error of order k and read 3.2e-12 (k = 3000) and 7.3e-12 (k = 10^4) against 1e-12
    model = heisenberg_model(3, k=k, truncation=LADDER3)
    config = {"model": {"sectors": [k]}, "tolerances": dict(cli.TOLERANCE_DEFAULTS)}
    result = cli._check_identities(model, config, cli._RunMemo(model, config))
    assert result.passed, result.detail
    rows = result.report["sectors"][str(k)]
    assert rows["dirac_plus_squared"] == rows["dirac_minus_squared"] == 0.0


@pytest.mark.parametrize("model, sector, dim", [(heisenberg_model(3, k=1, truncation=LADDER3), 1, 1000),
                                               (cr_alpha_bundle(3, c=1, truncation=LADDER3), 0, 5832)],
                         ids=["heisenberg-ladder", "torus-fourier"])
def test_identities_check_allocates_no_full_space_matrix(model, sector, dim):
    config = {"model": {"sectors": [sector]}, "tolerances": dict(cli.TOLERANCE_DEFAULTS)}
    memo = cli._RunMemo(model, config)
    space = memo.space(sector)
    assert space.dim == dim
    tracemalloc.start()
    try:
        assert cli._check_identities(model, config, memo).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * space.dim**2 * np.dtype(complex).itemsize
    # D is held as its m 2^m filled fiber positions, D^2 is joined beside it one row at a time, and
    # D is freed before the Reeb formula is stacked: a dense (n_blocks, 2^m, 2^m) stack alone would be 2^m / m units
    assert peak < 3.5 * len(space.blocks()) * space.m * space.fiber_dim * np.dtype(complex).itemsize


@pytest.mark.parametrize("model", [heisenberg_model(3, k=1, truncation=LADDER3),
                                   cr_alpha_bundle(3, c=1, truncation=LADDER3)], ids=["heisenberg-ladder", "torus-fourier"])
def test_the_sector_pass_holds_under_one_stack(model):
    # D's m 2^m keys and one row of D^2 at a time beside them, the products of one fiber row of D, and one degree's
    # (n_blocks, d_q) diagonal; box_bar is a diagonal, not a stack
    space = SectionSpace(model)
    space.blocks(), space.block_complete(), space.horizontal_laplacians()  # cached on the space, not the pass's
    tracemalloc.start()
    try:
        sector_pass(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(space.blocks()) * space.fiber_dim**2 * np.dtype(complex).itemsize


def test_run_memo_keeps_no_stack():
    # the shift table counts ker D, and the memo keeps each sector's shift defects, not its Grams
    model = cr_alpha_bundle(3, c=1, truncation=LADDER3)
    config = {"model": {"sectors": [-1, 1]}, "tolerances": dict(cli.TOLERANCE_DEFAULTS)}
    memo = cli._RunMemo(model, config)
    for sector in (-1, 1):
        space = memo.space(sector)
        space.blocks()  # the partner table is cached on the space, not kept by the memo
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert cli._check_cohomology(model, config, memo).passed
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 0.5 * len(space.blocks()) * space.fiber_dim**2 * np.dtype(complex).itemsize


def test_cohomology_check_refuses_a_dplus_term_off_its_degree(monkeypatch):
    # D^2's degree blocks read a degree-keeping entry of D only through its square, so it would be lost unseen
    build = operators.dplus_terms
    monkeypatch.setattr(operators, "dplus_terms", lambda space: one_diagonal_entry(build(space), space))
    model = cr_alpha_bundle(2, c=1)
    config = {"model": {"sectors": [-1, 0, 1]}, "tolerances": dict(cli.TOLERANCE_DEFAULTS)}
    result = cli._run_check("cohomology", model, config, False, cli._RunMemo(model, config))
    assert not result.passed
    assert result.error.startswith("torus_bundle sector -1: term 2 has fiber entries off its degree shift")


@pytest.mark.parametrize("half, term", [("dplus_terms", 2), ("dminus_terms", 4)])
def test_dirac_kernel_refuses_a_term_off_its_degree(monkeypatch, half, term):
    # degree q's block of D^2 reads D's keys one degree away, and a degree-keeping entry only through its square
    build = getattr(operators, half)
    monkeypatch.setattr(operators, half, lambda space: one_diagonal_entry(build(space), space))
    with pytest.raises(ValueError, match=rf"heisenberg sector 1: term {term} has fiber entries off its degree shift"):
        dirac_kernel(SectionSpace(heisenberg_model(2, k=1)))


@pytest.mark.parametrize("model", [heisenberg_model(2, k=1), heisenberg_model(2, k=0), cr_alpha_bundle(2, c=1, s=1)],
                         ids=["heisenberg-ladder", "heisenberg-fourier", "torus-ladder"])
def test_dirac_kernel_refuses_clifford_generators_that_commute(monkeypatch, model):
    # slot 2's matrices without their Jordan-Wigner signs: D- = D+^H still holds bit for bit, so the adjoint refusal
    # does not fire, but c(E_1) and c(E_2) commute and D^2 is off its diagonal on degree 1, whose diagonal would
    # otherwise be read as its spectrum (q=1 counts (5, 2), (34, 0) and (5, 2))
    def unsigned(signed):
        return lambda m, a: np.abs(signed(m, a)) if a == 2 else signed(m, a)

    for name in ("creation_matrix", "annihilation_matrix"):
        monkeypatch.setattr(operators, name, unsigned(getattr(operators, name)))
    space = SectionSpace(model)
    refusal = r"D\^2 is not diagonal on degree 1 \(largest off-diagonal \d\.\d\de\+\d\d, fiber pair \(1, 2\)\)"
    with pytest.raises(ValueError, match=rf"^{model.kind} sector {space.sector}: {refusal}$"):
        dirac_kernel(space)


def test_a_nan_off_the_diagonal_of_d_squared_is_refused(monkeypatch):
    # a NaN passes every comparison with 0, so the certificate must read it as an entry off the diagonal
    join = SectionSpace.square_rows

    def nan_entry(self, keys):
        for s, row in enumerate(join(self, keys)):
            if s == 2:
                row[2, 1] = np.full(len(self.blocks()), np.nan)
            yield row

    monkeypatch.setattr(SectionSpace, "square_rows", nan_entry)
    with pytest.raises(ValueError, match=r"^heisenberg sector 1: D\^2 is not diagonal on degree 1 "
                                         r"\(largest off-diagonal nan, fiber pair \(2, 1\)\)$"):
        sector_pass(SectionSpace(heisenberg_model(2, k=1))).graded("kernel")


@pytest.mark.parametrize("model", [heisenberg_model(2, k=1), heisenberg_model(2, k=-1)], ids=["t>0", "t<0"])
def test_stack_refuses_a_term_that_leaves_its_block(model):
    space = SectionSpace(model)
    # one entry off the pattern of the D- term of slot 1, term 2 of D's list; a Fourier
    # derivative is a vector of diagonal entries, so it cannot leave its blocks
    space.nabla_e[0].mat[0, 0] += 1e-3
    refusal = r"term 2 .*fiber entry \(0, 1\), base entry \(0, 0\)"
    with pytest.raises(ValueError, match=rf"heisenberg sector {space.sector}: {refusal}"):
        dirac_kernel(space)
    # the rest of D keeps its blocks: D+ of slot 1 fills (1, 0) and (3, 2), of slot 2 (2, 0) and (3, 1)
    plus = space.stack(dplus_terms(space))
    assert list(plus) == [(1, 0), (3, 2), (2, 0), (3, 1)]
    assert all(vec.shape == (len(space.blocks()),) and vec.any() for vec in plus.values())


@pytest.mark.parametrize("k, refusal, counts", [
    (1, r"term 1 .*\(fiber entry \(2, 0\), base entry \(0, 1\)\)", {0: (1, 0), 1: (0, 2), 2: (0, 1)}),
    (0, r"term 0 .*\(fiber entry \(1, 0\), base entry \(0, 0\)\)", {0: (1, 0), 1: (2, 0), 2: (1, 0)}),
], ids=["ladder", "fourier"])
def test_stack_refuses_a_corrupted_partner_table(monkeypatch, k, refusal, counts):
    # fiber state 0 trades partners between the first two blocks that hold it; the
    # factors of D still keep every label, so only the gathered entries can show it
    space = SectionSpace(heisenberg_model(2, k=k))
    partners = space.blocks().copy()
    j, i = np.flatnonzero(partners[:, 0] >= 0)[:2]
    partners[[j, i], 0] = partners[[i, j], 0]
    monkeypatch.setattr(space, "blocks", lambda: partners)
    with pytest.raises(ValueError, match=rf"heisenberg sector {k}: {refusal}"):
        dirac_kernel(space)
    found = dirac_kernel(SectionSpace(heisenberg_model(2, k=k)))
    assert {q: (count.dim, count.spurious) for q, count in found.items()} == counts


def test_identities_check_forms_the_laplacian_pair_once_per_space(monkeypatch):
    # four rows read the pair: sub-Laplacian routes, Reeb routes, sector identity and square residuals
    calls = []
    build = SectionSpace.horizontal_laplacians

    def spy(self):
        pair = build(self)
        calls.append((self, pair))
        return pair

    monkeypatch.setattr(SectionSpace, "horizontal_laplacians", spy)
    model = heisenberg_model(2, k=1)
    config = {"model": {"sectors": [-1, 0, 1]}, "tolerances": dict(cli.TOLERANCE_DEFAULTS)}
    memo = cli._RunMemo(model, config)
    assert cli._check_identities(model, config, memo).passed
    for sector in (-1, 0, 1):
        space = memo.space(sector)
        pairs = [pair for owner, pair in calls if owner is space]
        assert len(pairs) >= 4
        assert all(pair[0] is pairs[0][0] and pair[1] is pairs[0][1] for pair in pairs)
        assert not pairs[0][0].flags.writeable and not pairs[0][1].flags.writeable


def held_arrays(value):
    """Every ndarray ``value`` holds directly or through lists, tuples and ``SlotOp``s."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (list, tuple)):
        return [array for item in value for array in held_arrays(item)]
    return []


def test_checks_hold_and_form_no_base_dim_squared_matrix():
    # base_dim 729: one base_dim x base_dim complex matrix is 8.1 MiB, and the
    # derivatives alone used to be six of them
    model = heisenberg_model(3, k=0, truncation=TruncationSpec(fourier_radius=1, ladder_levels=6))
    config = {"model": {"sectors": [0]}, "tolerances": dict(cli.TOLERANCE_DEFAULTS)}
    tracemalloc.start()
    try:
        memo = cli._RunMemo(model, config)
        for check in (cli._check_identities, cli._check_spectrum, cli._check_cohomology):
            assert check(model, config, memo).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    space = memo.space(0)
    assert space.base_dim == 729
    held = held_arrays(list(vars(space).values()))
    assert held and max(array.size for array in held) < space.base_dim**2
    assert peak < space.base_dim**2 * np.dtype(complex).itemsize
