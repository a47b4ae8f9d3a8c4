"""Tests of the curvature terms and conformal covariance checks."""

import re
from math import comb

import numpy as np
import pytest
from blockstates import complete_mask
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crspin import cli, weitzenboeck
from crspin.clifford import theta_matrix, two_form_matrix
from crspin.fields import TrigPoly
from crspin.models import (
    PseudoHermitianModel,
    TruncationSpec,
    cr_alpha_bundle,
    heisenberg_model,
    rho_frame_components,
    sphere_model,
)
from crspin.operators import assemble_kohn_dirac, dminus_terms, dplus_terms
from crspin.sections import SectionSpace
from crspin.weitzenboeck import (
    ConformalScale,
    conformal_check,
    curvature_term,
    default_sample_points,
    dl_residual,
    exponent_scan,
    q_split,
    ricci_spinor_action,
    sl_residual,
    square_residuals,
)


def random_hermitian(m, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return 0.5 * (a + a.conj().T)


# ---------------------------------------------------------------------------
# Ricci derivation and curvature terms
# ---------------------------------------------------------------------------


def test_ricci_action_matches_clifford_route():
    # Independent assembly: -(i/2) c(rho) equals the Ricci derivation
    # minus its trace, with c(rho) built from real-frame components.
    for m, seed in [(1, 3), (2, 5), (3, 7)]:
        rho = random_hermitian(m, seed)
        lhs = -0.5j * two_form_matrix(m, rho_frame_components(rho))
        rhs = ricci_spinor_action(rho) - np.real(np.trace(rho)) * np.eye(2**m)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_ricci_action_diagonal_eigenvalues():
    from crspin.clifford import SpinorModule

    m = 3
    r = np.diag([0.7, -1.3, 2.1]).astype(complex)
    act = ricci_spinor_action(r)
    module = SpinorModule(m)
    expected = np.diag([2.0 * sum(r[a - 1, a - 1].real for a in s) for s in module.subsets])
    assert np.abs(act - expected).max() < 1e-13


def test_curvature_term_zero_ricci_is_scalar():
    model = PseudoHermitianModel(m=2, scal_w=3.0)
    for ell in (-3, 0, 2):
        for q in range(3):
            mu = 2 - 2 * q
            term = curvature_term(model, ell, q)
            expected = (1.0 + ell * mu / 8.0) * 0.75
            assert term.shape == (comb(2, q), comb(2, q))
            assert np.abs(term - expected * np.eye(len(term))).max() < 1e-13


def test_curvature_term_flat_vanishes():
    model = heisenberg_model(2)
    for ell in (-2, 0, 1, 4):
        for q in range(3):
            assert np.abs(curvature_term(model, ell, q)).max() == 0.0


def test_curvature_term_hermitian():
    model = PseudoHermitianModel(m=3, rho=random_hermitian(3, 11), scal_w=2.0)
    for q in range(4):
        mat = curvature_term(model, -2, q)
        assert np.abs(mat - mat.conj().T).max() < 1e-12


def test_sphere_untwisted_interior_term_positive_definite():
    model = sphere_model(2, scal_w=1.0)
    term = curvature_term(model, 0, 1)
    evals = np.linalg.eigvalsh(term)
    assert evals.min() > 0.0


def test_curvature_term_rejects_bad_grade():
    model = sphere_model(2)
    with pytest.raises(ValueError):
        curvature_term(model, 0, 3)
    with pytest.raises(ValueError):
        curvature_term(model, 0, -1)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_curvature_term_eigenvalue_bound(data):
    # For nonnegative Webster Ricci and m ell + (m+2) mu >= 0 the block
    # is bounded below by (m - mu)(m + 2 - ell) / (m (m+2)) * scal / 4.
    m = data.draw(st.integers(1, 3))
    q = data.draw(st.integers(0, m))
    mu = m - 2 * q
    ell = data.draw(st.integers(-(m + 2), m + 2))
    assume(m * ell + (m + 2) * mu >= 0)
    seed = data.draw(st.integers(0, 10**6))
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    rho = a @ a.conj().T
    scal = float(4.0 * np.real(np.trace(rho)))
    model = PseudoHermitianModel(m=m, rho=rho, scal_w=scal)
    mat = curvature_term(model, ell, q)
    assert np.abs(mat - mat.conj().T).max() < 1e-10
    bound = (m - mu) * (m + 2 - ell) / (m * (m + 2)) * scal / 4.0
    assert np.linalg.eigvalsh(mat).min() >= bound - 1e-10


# ---------------------------------------------------------------------------
# Refined split
# ---------------------------------------------------------------------------


def generic_ricci_model(m, seed):
    rho = random_hermitian(m, seed)
    return PseudoHermitianModel(m=m, rho=rho, scal_w=float(4.0 * np.real(np.trace(rho))))


def test_q_split_reassembles_curvature_term():
    for model in [sphere_model(2, scal_w=1.7), sphere_model(3, scal_w=0.9),
                  generic_ricci_model(2, 23)]:
        m = model.m
        for ell in (-m - 2, -1, 0, 2, m + 2):
            for q in range(m + 1):
                r_star, k = q_split(model, ell, q)
                total = (2.0 * (m - q) / m) * r_star + k
                term = curvature_term(model, ell, q)
                assert np.abs(total - term).max() < 1e-12
                assert abs(np.trace(k)) < 1e-12


@pytest.mark.parametrize("ell", [True, 1.5])
@pytest.mark.parametrize("term", [curvature_term, q_split], ids=["curvature_term", "q_split"])
def test_curvature_terms_refuse_a_weight_that_is_no_integer(term, ell):
    # True used to read as weight 1, and 1.5 gave a matrix for a twist with no line bundle
    with pytest.raises(ValueError, match=rf"weight must be an integer, got {ell!r}$"):
        term(sphere_model(2), ell, 1)


def test_q_split_remainder_vanishes_at_critical_weight():
    model = sphere_model(3, scal_w=1.3)
    for q in range(4):
        _, k = q_split(model, model.m + 2, q)
        assert np.abs(k).max() < 1e-13


def test_q_split_flat_is_zero():
    model = heisenberg_model(2)
    r_star, k = q_split(model, 1, 1)
    assert np.abs(r_star).max() == 0.0
    assert np.abs(k).max() == 0.0


def test_q_split_pseudo_einstein_diagonal():
    # Pseudo-Einstein Ricci r * Id acts on the weight block by the
    # scalar 2 q r, so R_star must be that multiple of the identity.
    model = sphere_model(2, scal_w=2.0)
    r = model.scal_w / (4.0 * model.m)
    for q in range(3):
        r_star, _ = q_split(model, 0, q)
        assert np.abs(r_star - 2.0 * q * r * np.eye(r_star.shape[0])).max() < 1e-13


# ---------------------------------------------------------------------------
# Operator identities on section spaces
# ---------------------------------------------------------------------------


SL_SPACES = [
    heisenberg_model(1, k=0),
    heisenberg_model(2, k=1),
    cr_alpha_bundle(2, c=1, s=1),
]


@pytest.mark.parametrize("model", SL_SPACES, ids=lambda mdl: mdl.describe() + getattr(mdl, "kind", ""))
def test_sl_residual_small(model):
    # D^2 is far from zero on the states the residual reads, so a small residual is the identity
    space = SectionSpace(model)
    inside = (space.blocks() >= 0) & space.block_complete()[:, None]
    dirac = space.stack(dplus_terms(space) + dminus_terms(space))
    square = [np.abs(vec[inside[:, s] & inside[:, c]]).max(initial=0.0)
              for row in space.square_rows(dirac) for (s, c), vec in row.items()]
    assert max(square) > 0.5
    assert sl_residual(space) <= 1e-10


@pytest.mark.parametrize("kind", ["heisenberg", "torus_bundle"])
def test_residuals_read_the_top_kept_rung(kind, monkeypatch):
    # a state at occupation L - 1 of a complete block: the right-hand side is exact
    # there, so corrupting it must show in the residual and fail the identities check
    trunc = TruncationSpec(fourier_radius=1, ladder_levels=5)
    model = (heisenberg_model(2, k=1, truncation=trunc) if kind == "heisenberg"
             else cr_alpha_bundle(2, c=1, s=-2, truncation=trunc))
    config = {"model": {"sectors": [1 if kind == "heisenberg" else -2]}, "tolerances": dict(cli.TOLERANCE_DEFAULTS)}
    memo = cli._RunMemo(model, config)
    space = memo.space(config["model"]["sectors"][0])
    assert space.t == 1.0
    top = np.flatnonzero((space.labels == [space.ladder_levels - 1, 0]).all(axis=1))[0]
    block = np.flatnonzero(space.blocks()[:, 0] == top)[0]  # fiber state 0 at occupation (L - 1, 0)
    assert space.block_complete()[block]
    lap10, lap01 = space.horizontal_laplacians()
    corrupted = lap01.copy()
    corrupted[top] += 0.5  # nabla_01* nabla_01 enters degree 0 with weight 2
    monkeypatch.setattr(space, "horizontal_laplacians", lambda: (lap10, corrupted))
    assert abs(sl_residual(space) - 1.0) <= 1e-10
    result = cli._check_identities(model, config, memo)
    assert not result.passed
    assert abs(result.report["sectors"][str(space.sector)]["lichnerowicz_residual"] - 1.0) <= 1e-10


def test_sl_residual_detects_wrong_scalar_term():
    # Inconsistent scalar curvature on a flat model shifts the identity
    # by exactly scal / 4.
    model = heisenberg_model(1, k=0)
    model.scal_w = 1.0
    space = SectionSpace(model)
    assert abs(sl_residual(space) - 0.25) < 1e-12


@pytest.mark.parametrize("model", [heisenberg_model(1, k=0), heisenberg_model(1, k=1),
                                   heisenberg_model(2, k=0), heisenberg_model(2, k=1),
                                   cr_alpha_bundle(1, c=1, s=1), cr_alpha_bundle(2, c=1, s=-1)],
                         ids=lambda mdl: mdl.describe() + str(getattr(mdl, "k", getattr(mdl, "s", ""))))
def test_dl_residual_all_admissible_weights(model):
    space = SectionSpace(model)
    for ell in range(-model.m, model.m + 1, 2):
        assert dl_residual(space, ell) <= 1e-10


@pytest.mark.parametrize("model", [heisenberg_model(1, k=1), heisenberg_model(2, k=0),
                                   cr_alpha_bundle(2, c=1, s=-1), cr_alpha_bundle(2, c=2, s=1, ell=2)],
                         ids=lambda mdl: mdl.describe() + str(getattr(mdl, "k", getattr(mdl, "s", ""))))
def test_square_residuals_equal_single_identity_residuals(model):
    space = SectionSpace(model)
    weights = range(-model.m, model.m + 1, 2)
    single = (sl_residual(space), {ell: dl_residual(space, ell) for ell in weights})
    dirac = space.stack(dplus_terms(space) + dminus_terms(space))
    assert square_residuals(space, space.square_rows(dirac))[:2] == single


def test_lichnerowicz_residual_reads_off_degree_entries():
    # the formula keeps the degree, so an entry of D^2 between degrees is all residual;
    # the fixed-weight rows and D+^2, D-^2 read only their own degree slabs
    space = SectionSpace(heisenberg_model(2, k=1))
    dirac = space.stack(dplus_terms(space) + dminus_terms(space))
    before = square_residuals(space, space.square_rows(dirac))
    # fiber states 0 and 3 have degrees 0 and 2; take a complete block where both are present
    j = np.flatnonzero((space.blocks()[:, [0, 3]] >= 0).all(axis=1) & space.block_complete())[0]
    assert (3, 0) not in dirac
    dirac[3, 0] = np.where(np.arange(len(space.blocks())) == j, 0.5 + 0j, 0.0)
    # E = 0.5 e_30 squares to 0, so D^2 moves by DE + ED: entries (1 or 2, 0) and (3, 1 or 2), between degrees
    after = square_residuals(space, space.square_rows(dirac))
    assert before[0] <= 1e-10 and abs(after[0] - 1.0) <= 1e-10
    assert after[1:] == before[1:]


@pytest.mark.parametrize("model", [heisenberg_model(2, k=1), heisenberg_model(2, k=0)], ids=["ladder", "fourier"])
def test_square_identities_read_curvature_term(model, monkeypatch):
    # On a flat model the curvature term is zero, so shifting it by c I
    # must move every residual to c: both identities take it from
    # curvature_term, not from a copy of its formula.
    shift = 0.37
    term = weitzenboeck.curvature_term

    def shifted(model, ell, q):
        out = term(model, ell, q)
        return out + shift * np.eye(len(out))

    monkeypatch.setattr(weitzenboeck, "curvature_term", shifted)
    space = SectionSpace(model)
    assert abs(sl_residual(space) - shift) <= 1e-10
    for ell in range(-model.m, model.m + 1, 2):
        assert abs(dl_residual(space, ell) - shift) <= 1e-10


def test_dl_zero_weight_is_sub_laplacian():
    # At weight zero on the middle block the square of the Kohn-Dirac
    # operator is the sub-Laplacian plus scal / 4 (zero here).
    for model in [heisenberg_model(2, k=0), heisenberg_model(2, k=1)]:
        space = SectionSpace(model)
        dirac = assemble_kohn_dirac(space).mat
        delta = space.dense([(np.eye(space.fiber_dim), sum(space.horizontal_laplacians()))])
        block = space.grade_block(1)
        mask = complete_mask(space)[block]
        diff = ((dirac @ dirac) - delta)[block, block][np.ix_(mask, mask)]
        assert np.abs(diff).max() <= 1e-10
        assert dl_residual(space, 0) <= 1e-10


def test_dl_residual_rejects_bad_weights():
    space = SectionSpace(heisenberg_model(2, k=0))
    with pytest.raises(ValueError):
        dl_residual(space, 1)
    with pytest.raises(ValueError):
        dl_residual(space, 4)
    with pytest.raises(ValueError):
        dl_residual(space, 1.0)
    space1 = SectionSpace(heisenberg_model(1, k=0))
    with pytest.raises(ValueError):
        dl_residual(space1, 0)


def test_sl_matches_dl_on_distinguished_block():
    # The general identity restricted to mu = -ell must agree with the
    # distinguished-weight assembly, so both residuals are tiny on the
    # same space.
    space = SectionSpace(cr_alpha_bundle(2, c=1, s=2))
    assert sl_residual(space) <= 1e-10
    assert dl_residual(space, 2) <= 1e-10
    assert dl_residual(space, -2) <= 1e-10


# ---------------------------------------------------------------------------
# Conformal covariance
# ---------------------------------------------------------------------------


def flat_space(m):
    return SectionSpace(heisenberg_model(m, k=0))


def test_conformal_zero_factor_is_exact():
    space = flat_space(1)
    f = ConformalScale.cosine(1, amplitude=0.0)
    assert conformal_check(space, -1, f) == 0.0


def test_conformal_cosine_m1():
    space = flat_space(1)
    f = ConformalScale.cosine(1, axis=0, amplitude=0.3)
    assert conformal_check(space, -1, f) <= 1e-9


def test_conformal_m2_weights():
    space = flat_space(2)
    f = ConformalScale.cosine(2, axis=1, amplitude=0.2)
    assert conformal_check(space, 0, f) <= 1e-9
    assert conformal_check(space, -2, f) <= 1e-9


def test_conformal_three_scales():
    space = flat_space(1)
    scales = [
        ConformalScale.cosine(1, axis=0, amplitude=0.3),
        ConformalScale.cosine(1, axis=1, amplitude=0.15, frequency=2),
        ConformalScale(1, TrigPoly.cosine(2, 0, 0.2) + TrigPoly.sine(2, 1, 0.1)),
    ]
    for f in scales:
        assert conformal_check(space, 1, f) <= 1e-9


def test_conformal_check_covers_odd_parity():
    # No mu = -ell block exists for m = 2, ell = 1; the gradewise laws
    # are still checked.
    space = flat_space(2)
    f = ConformalScale.cosine(2, amplitude=0.1)
    assert conformal_check(space, 1, f) <= 1e-9


@pytest.mark.filterwarnings("ignore:overflow encountered in exp", "ignore:invalid value encountered")
@pytest.mark.parametrize("m", [1, 2])
def test_conformal_check_reports_nan_defects(m):
    # at ell = 5000 the exp(-weight f) weights overflow and every covariance defect is NaN; a reduction with
    # Python's max keeps the number it started from and would read 0.0, a pass
    f = ConformalScale.cosine(m, axis=0, amplitude=0.3)
    assert np.isnan(conformal_check(flat_space(m), 5000, f))


def test_exponent_scan_m1():
    # At m = 1 the twistor projections vanish identically on one of the
    # two grades, so each operator is scanned where it has content:
    # raising operators on the bottom grade, lowering on the top.
    space = flat_space(1)
    f = ConformalScale.cosine(1, axis=0, amplitude=0.3)
    scan0 = exponent_scan(space, -1, 0, f)
    scan1 = exponent_scan(space, -1, 1, f)
    informative = [(scan0, "dirac_plus"), (scan0, "twistor_10"),
                   (scan1, "dirac_minus"), (scan1, "twistor_01")]
    for scan, name in informative:
        assert scan[name][0] <= 1e-9, name
        for off in (-2, -1, 1, 2):
            assert scan[name][off] > 1e-4, name


def test_exponent_scan_m2_all_operators():
    space = flat_space(2)
    f = ConformalScale.cosine(2, axis=0, amplitude=0.25)
    scan = exponent_scan(space, 0, 1, f)
    for name, per_offset in scan.items():
        assert per_offset[0] <= 1e-9, name
        for off in (-2, -1, 1, 2):
            assert per_offset[off] > 1e-4, name


def test_degenerate_scans_have_no_power():
    # The degree-lowering half annihilates the bottom grade, and for
    # m = 1 the (0,1) twistor projection is the zero map there, so those
    # covariance defects are identically zero at every exponent; the
    # scan must not be read as a certification in that corner.
    space = flat_space(1)
    f = ConformalScale.cosine(1, amplitude=0.3)
    scan = exponent_scan(space, -1, 0, f)
    assert all(v <= 1e-12 for v in scan["dirac_minus"].values())
    assert all(v <= 1e-12 for v in scan["twistor_01"].values())


def test_conformal_rejects_bad_input():
    space = flat_space(1)
    with pytest.raises(TypeError):
        conformal_check(space, -1, 0.3)
    with pytest.raises(TypeError):
        conformal_check(space, -1, lambda x: 0.3 * np.cos(x[0]))
    with pytest.raises(ValueError):
        ConformalScale(1, TrigPoly(2, {(1, 0): 1.0}))  # not real-valued
    f2 = ConformalScale.cosine(2, amplitude=0.1)
    with pytest.raises(ValueError):
        conformal_check(space, -1, f2)
    with pytest.raises(ValueError):
        exponent_scan(space, -1, 5, ConformalScale.cosine(1, amplitude=0.1))


@pytest.mark.parametrize("q", [5, -1, 1.5, True])
def test_exponent_scan_refuses_a_grade_no_spinor_has(q):
    # no spinor has grade 5, -1 or 1.5, so a scan there would check nothing; a bool is no grade either
    with pytest.raises(ValueError, match=rf"grade q must lie in 0\.\.2, got {q}$"):
        exponent_scan(flat_space(2), 0, q, ConformalScale.cosine(2, amplitude=0.1))


@pytest.mark.parametrize("check, offset", [
    (lambda space, f: conformal_check(space, -1, f), None),
    (lambda space, f: exponent_scan(space, -1, 0, f), None),
    *((lambda space, f, offset=offset: exponent_scan(space, -1, 0, f, offsets=(0, offset)), offset)
      for offset in (True, 0.5, 1.0)),
], ids=["conformal_check", "exponent_scan", "offset-True", "offset-0.5", "offset-1.0"])
def test_conformal_entry_points_check_their_inputs(check, offset):
    space = flat_space(1)
    with pytest.raises(TypeError, match="must be a ConformalScale"):
        check(space, 0.3)
    with pytest.raises(ValueError, match="conformal factor has m = 2, section space has m = 1"):
        check(space, ConformalScale.cosine(2, amplitude=0.1))
    if offset is not None:
        # a scan perturbs the weight by integers; a bool or float offset would be a key of its own
        with pytest.raises(ValueError, match=rf"offset must be an integer, got {re.escape(repr(offset))}$"):
            check(space, ConformalScale.cosine(1, amplitude=0.1))


@pytest.mark.parametrize("mutate", [lambda direction, c_self, c_other, sign: (direction, c_other, c_self, sign),
                                    lambda direction, c_self, c_other, sign: (direction, c_self, c_other, -sign)],
                         ids=["swapped_clifford_roles", "flipped_twist_sign"])
@pytest.mark.parametrize("m, ell", [(1, -1), (2, 0)])
def test_conformal_check_detects_a_broken_half(mutate, m, ell, monkeypatch):
    # every Dirac and twistor half, flat and rescaled, reads one half description
    half = weitzenboeck._Half
    monkeypatch.setattr(weitzenboeck, "_Half", lambda *fields: half(*mutate(*fields)))
    assert conformal_check(flat_space(m), ell, ConformalScale.cosine(m, amplitude=0.3)) > 1e-3


def test_default_sample_points_shape_and_determinism():
    pts = default_sample_points(4)
    assert pts.shape == (24, 4)
    assert np.all(pts >= 0.0) and np.all(pts < 1.0)
    assert np.abs(pts - default_sample_points(4)).max() == 0.0
    assert len(np.unique(np.round(pts, 12), axis=0)) == 24
    # step * sqrt(p) + 0.05 mod 1 over the first primes, bit for bit; m = 7 samples 14 coordinates
    steps = np.arange(1.0, 25.0)[:, None]
    primes = np.array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43], dtype=float)
    for dim in (12, 14):
        assert np.array_equal(default_sample_points(dim), (steps * (np.sqrt(primes[:dim]) % 1.0) + 0.05) % 1.0)


def test_conformal_theta_weighted_terms_matter():
    # Dropping the grading term from the transformed connection must
    # break covariance: a scan offset mimicking that error is nonzero.
    # Covered implicitly by the exponent scan, but pin one magnitude so
    # a silently weakened test spinor would be caught.
    space = flat_space(1)
    f = ConformalScale.cosine(1, amplitude=0.3)
    scan = exponent_scan(space, -1, 0, f, offsets=(1,))
    assert scan["dirac_plus"][1] > 0.05


@pytest.mark.parametrize("ell", [0.5, 1.0, True])
@pytest.mark.parametrize("check", [lambda space, ell, f: conformal_check(space, ell, f),
                                   lambda space, ell, f: exponent_scan(space, ell, 0, f)],
                         ids=["conformal_check", "exponent_scan"])
def test_conformal_entry_points_refuse_a_weight_that_is_no_integer(check, ell):
    # a twist weight 0.5 has no line bundle, and True is no weight; both used to read as a pass
    with pytest.raises(ValueError, match=rf"weight must be an integer, got {ell!r}$"):
        check(flat_space(2), ell, ConformalScale.cosine(2))


def _conformal_scales(m):
    return [ConformalScale.cosine(m, axis=1, amplitude=0.25),
            ConformalScale(m, TrigPoly.cosine(2 * m, 0, 0.15) + TrigPoly.sine(2 * m, 2 * m - 1, 0.2))]


@pytest.mark.parametrize("m", [3, 4])
def test_conformal_laws_in_higher_dimensions(m):
    space = flat_space(m)  # the m = 4 space is the slow part, so both checks share it
    for f in _conformal_scales(m):
        for ell in range(-m - 2, m + 3):
            assert conformal_check(space, ell, f) <= 1e-9, (ell, f.poly)
        # on an interior grade every operator has content, so only the canonical weight is covariant
        for q in range(1, m):
            scan = exponent_scan(space, m - 2 * q, q, f)
            for name, per_offset in scan.items():
                assert per_offset[0] <= 1e-9, (q, name)
                for off in (-2, -1, 1, 2):
                    assert per_offset[off] > 1e-4, (q, name, off)
