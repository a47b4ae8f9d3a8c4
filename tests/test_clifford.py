"""Exact checks of the Clifford layer.

Everything here runs in Gaussian-rational arithmetic (no floating point)
except for the dense-matrix cross checks at the end, which pin the numeric
layer to the exact one.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crspin.clifford import (
    CliffordGenerator,
    GaussianFraction,
    SpinorModule,
    SpinorVector,
    annihilation_matrix,
    apply_generator,
    creation_matrix,
    dtheta_frame_matrix,
    generator_matrix,
    grade_projector,
    project_mu,
    theta_apply,
    theta_matrix,
    two_form_matrix,
    vector_matrix,
)

EXACT_DIMS = (1, 2, 3, 4, 5, 6)


def gen(kind, alpha, m):
    return CliffordGenerator(kind, alpha, m)


def compose(vec, *gens):
    for g in reversed(gens):
        vec = apply_generator(g, vec)
    return vec


def anticommutator(vec, g1, g2):
    return compose(vec, g1, g2) + compose(vec, g2, g1)


@pytest.mark.parametrize("m", EXACT_DIMS)
def test_creation_pairs_anticommute_exactly(m):
    module = SpinorModule(m)
    for a in range(1, m + 1):
        for b in range(1, m + 1):
            for subset in module.subsets:
                basis = module.basis_vector(subset)
                assert anticommutator(basis, gen("create", a, m), gen("create", b, m)).is_zero()
                assert anticommutator(basis, gen("annihilate", a, m), gen("annihilate", b, m)).is_zero()


@pytest.mark.parametrize("m", EXACT_DIMS)
def test_mixed_anticommutator_is_minus_delta(m):
    module = SpinorModule(m)
    for a in range(1, m + 1):
        for b in range(1, m + 1):
            for subset in module.subsets:
                basis = module.basis_vector(subset)
                got = anticommutator(basis, gen("create", a, m), gen("annihilate", b, m))
                expected = basis.scale(-1) if a == b else SpinorVector(m)
                assert got == expected


@pytest.mark.parametrize("m", EXACT_DIMS)
def test_real_vectors_square_to_minus_one(m):
    module = SpinorModule(m)
    for kind in ("real", "realJ"):
        for a in range(1, m + 1):
            for subset in module.subsets:
                basis = module.basis_vector(subset)
                assert compose(basis, gen(kind, a, m), gen(kind, a, m)) == basis.scale(-1)


@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_real_frame_clifford_relations(m):
    """c(s_i) c(s_j) + c(s_j) c(s_i) = -2 delta_ij for the full real frame."""
    module = SpinorModule(m)
    frame = [("real", a) for a in range(1, m + 1)] + [("realJ", a) for a in range(1, m + 1)]
    for ki, ai in frame:
        for kj, aj in frame:
            expected_factor = -2 if (ki, ai) == (kj, aj) else 0
            for subset in module.subsets:
                basis = module.basis_vector(subset)
                got = anticommutator(basis, gen(ki, ai, m), gen(kj, aj, m))
                assert got == basis.scale(expected_factor)


@pytest.mark.parametrize("m", EXACT_DIMS)
def test_adjoint_pairing_of_complex_frame(m):
    """<E phi, psi> = <phi, -Ebar psi> exactly on all basis pairs."""
    module = SpinorModule(m)
    for a in range(1, m + 1):
        e = gen("create", a, m)
        ebar = gen("annihilate", a, m)
        for s1 in module.subsets:
            for s2 in module.subsets:
                phi = module.basis_vector(s1)
                psi = module.basis_vector(s2)
                lhs = apply_generator(e, phi).inner(psi)
                rhs = phi.inner(apply_generator(ebar, psi).scale(-1))
                assert lhs == rhs


@pytest.mark.parametrize("m", (1, 2, 3))
def test_real_vectors_are_skew_adjoint(m):
    module = SpinorModule(m)
    for kind in ("real", "realJ"):
        for a in range(1, m + 1):
            g = gen(kind, a, m)
            for s1 in module.subsets:
                for s2 in module.subsets:
                    phi = module.basis_vector(s1)
                    psi = module.basis_vector(s2)
                    lhs = apply_generator(g, phi).inner(psi)
                    rhs = phi.inner(apply_generator(g, psi)) * -1
                    assert lhs == rhs


@pytest.mark.parametrize("m", EXACT_DIMS)
def test_theta_eigenvalues_and_grading_shift(m):
    module = SpinorModule(m)
    for subset in module.subsets:
        basis = module.basis_vector(subset)
        q = len(subset)
        assert theta_apply(basis) == basis.scale(m - 2 * q)
    # creation raises the grade, so Theta o E - E o Theta = -2 E
    for a in range(1, m + 1):
        e = gen("create", a, m)
        for subset in module.subsets:
            basis = module.basis_vector(subset)
            lhs = theta_apply(apply_generator(e, basis)) - apply_generator(e, theta_apply(basis))
            assert lhs == apply_generator(e, basis).scale(-2)
        ebar = gen("annihilate", a, m)
        for subset in module.subsets:
            basis = module.basis_vector(subset)
            lhs = theta_apply(apply_generator(ebar, basis)) - apply_generator(ebar, theta_apply(basis))
            assert lhs == apply_generator(ebar, basis).scale(2)


@pytest.mark.parametrize("m", EXACT_DIMS)
def test_grading_projections_resolve_identity(m):
    module = SpinorModule(m)
    from math import comb

    for q in range(m + 1):
        assert module.grade_dim(q) == comb(m, q)
    vec = SpinorVector(m, {s: GaussianFraction(1, len(s)) for s in module.subsets})
    total = SpinorVector(m)
    for q in range(m + 1):
        piece = project_mu(vec, q)
        for subset in piece.coeffs:
            assert len(subset) == q
        total = total + piece
    assert total == vec


@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_levi_two_form_reproduces_grading_operator(m):
    """(i/2) c(dtheta) equals the grading operator, checked exactly.

    The contraction sum_{i<j} dtheta(s_i, s_j) c(s_i) c(s_j) only involves the
    paired real directions, so it can be evaluated structurally.
    """
    module = SpinorModule(m)
    half_i = GaussianFraction(0, Fraction(1, 2))
    for subset in module.subsets:
        basis = module.basis_vector(subset)
        acc = SpinorVector(m)
        for a in range(1, m + 1):
            acc = acc + compose(basis, gen("real", a, m), gen("realJ", a, m)).scale(2)
        assert acc.scale(half_i) == theta_apply(basis)


@pytest.mark.parametrize("m", (1, 2, 3))
def test_wedge_contraction_formula_for_real_vectors(m):
    """c(real_a) = wedge - contraction and c(realJ_a) = i (wedge + contraction).

    This is the unit-coframe form of the wedge/contraction description of
    Clifford multiplication on (0, q)-forms; it pins the identification used
    by the cohomology module.
    """
    for a in range(1, m + 1):
        wedge = creation_matrix(m, a)
        contraction = annihilation_matrix(m, a)
        real = generator_matrix(CliffordGenerator("real", a, m))
        realj = generator_matrix(CliffordGenerator("realJ", a, m))
        assert np.array_equal(real, wedge - contraction)
        assert np.array_equal(realj, 1j * (wedge + contraction))


@pytest.mark.parametrize("m", EXACT_DIMS)
def test_jordan_wigner_matrices_equal_exact_generators(m):
    module = SpinorModule(m)
    for a in range(1, m + 1):
        assert np.array_equal(creation_matrix(m, a), generator_matrix(gen("create", a, m), module))
        assert np.array_equal(annihilation_matrix(m, a), -generator_matrix(gen("annihilate", a, m), module))
        for offset, kind in ((0, "real"), (m, "realJ")):
            unit = np.zeros(2 * m)
            unit[offset + a - 1] = 1.0
            assert np.array_equal(vector_matrix(m, unit), generator_matrix(gen(kind, a, m), module))


def test_cached_clifford_matrices_are_read_only():
    for mat in (creation_matrix(2, 1), annihilation_matrix(2, 2)):
        with pytest.raises(ValueError):
            mat[0, 0] = 5.0
        with pytest.raises(ValueError):
            mat *= 2.0
    assert creation_matrix(2, 1)[0, 0] == 0.0
    with pytest.raises(ValueError):
        creation_matrix(2, 3)
    with pytest.raises(ValueError):
        annihilation_matrix(0, 1)


def test_generator_validation_errors():
    with pytest.raises(ValueError):
        CliffordGenerator("creator", 1, 2)
    with pytest.raises(ValueError):
        CliffordGenerator("create", 0, 2)
    with pytest.raises(ValueError):
        CliffordGenerator("create", 3, 2)
    with pytest.raises(ValueError):
        SpinorModule(0)
    vec = SpinorModule(2).basis_vector(frozenset({1}))
    with pytest.raises(ValueError):
        apply_generator(CliffordGenerator("create", 1, 3), vec)
    with pytest.raises(ValueError):
        project_mu(vec, 5)
    with pytest.raises(ValueError):
        SpinorModule(2).basis_vector(frozenset({7}))


def test_matrix_layer_matches_structural_action():
    m = 3
    module = SpinorModule(m)
    rng = np.random.default_rng(11)
    for kind in ("create", "annihilate", "real", "realJ"):
        for a in (1, 3):
            mat = generator_matrix(CliffordGenerator(kind, a, m), module)
            vec = rng.standard_normal(module.dim) + 1j * rng.standard_normal(module.dim)
            structural = np.zeros(module.dim, dtype=complex)
            for col, subset in enumerate(module.subsets):
                image = apply_generator(
                    CliffordGenerator(kind, a, m),
                    SpinorVector(m, {subset: GaussianFraction.ONE}),
                )
                arr = image.to_array(module)
                structural += vec[col] * arr
            assert np.allclose(mat @ vec, structural, atol=1e-13)


def test_theta_matrix_equals_two_form_contraction():
    for m in (1, 2, 3):
        theta = theta_matrix(m)
        via_form = 0.5j * two_form_matrix(m, dtheta_frame_matrix(m))
        assert np.allclose(theta, via_form, atol=1e-13)
        mus = sorted(set(np.real(np.diag(theta))))
        assert mus == sorted({float(m - 2 * q) for q in range(m + 1)})


def test_grade_projectors_and_vector_matrix():
    m = 2
    total = sum(grade_projector(m, q) for q in range(m + 1))
    assert np.allclose(total, np.eye(2 ** m))
    x = np.array([1.0, 0.0, 0.0, 0.0])
    c = vector_matrix(m, x)
    assert np.allclose(c, generator_matrix(CliffordGenerator("real", 1, m)))
    with pytest.raises(ValueError):
        vector_matrix(m, np.ones(3))
    with pytest.raises(ValueError):
        two_form_matrix(m, np.ones((4, 4)))


# -- property tests ----------------------------------------------------------

small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def spinor_vectors(m):
    subsets = [frozenset(c) for q in range(m + 1) for c in __import__("itertools").combinations(range(1, m + 1), q)]
    entry = st.tuples(small_rationals, small_rationals).map(lambda t: GaussianFraction(t[0], t[1]))
    return st.fixed_dictionaries({}, optional={s: entry for s in subsets}).map(
        lambda d: SpinorVector(m, d)
    )


@settings(max_examples=60, deadline=None)
@given(vec=spinor_vectors(3), a=st.integers(1, 3), b=st.integers(1, 3))
def test_property_mixed_relation_on_arbitrary_exact_vectors(vec, a, b):
    m = 3
    got = anticommutator(vec, gen("create", a, m), gen("annihilate", b, m))
    expected = vec.scale(-1) if a == b else SpinorVector(m)
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(vec=spinor_vectors(2), a=st.integers(1, 2))
def test_property_creation_is_nilpotent_and_graded(vec, a):
    m = 2
    image = compose(vec, gen("create", a, m), gen("create", a, m))
    assert image.is_zero()
    raised = apply_generator(gen("create", a, m), project_mu(vec, 1))
    assert raised == project_mu(raised, 2)
