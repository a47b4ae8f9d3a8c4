"""Exact checks of the Clifford layer.

Every Clifford matrix has entries 0, +-1 or +-i, and so does every product
of two of them, so complex128 evaluates the algebra without rounding: each
identity below is compared with ``np.array_equal``, not a tolerance.
"""

from math import comb

import numpy as np
import pytest
from twistor_oracle import assemble_twistor, twistor_contraction

from crspin import clifford
from crspin.clifford import (
    SpinorModule,
    annihilation_matrix,
    creation_matrix,
    dtheta_frame_matrix,
    theta_matrix,
    two_form_matrix,
)
from crspin.models import heisenberg_model
from crspin.sections import SectionSpace
from crspin.weitzenboeck import curvature_term, q_split

EXACT_DIMS = (1, 2, 3, 4, 5, 6)


def anticommutator(x, y):
    return x @ y + y @ x


def commutator(x, y):
    return x @ y - y @ x


def complex_frame(m):
    """c(E_a) and c(Ebar_a) for a = 1..m."""
    c_e = [creation_matrix(m, a) for a in range(1, m + 1)]
    c_ebar = [-annihilation_matrix(m, a) for a in range(1, m + 1)]
    return c_e, c_ebar


def real_frame(m):
    """c(s_i) for the real frame (real_1..real_m, realJ_1..realJ_m): create - annihilate, then
    i (create + annihilate), from the Jordan-Wigner pair of each slot."""
    pairs = [(creation_matrix(m, a), annihilation_matrix(m, a)) for a in range(1, m + 1)]
    return [c - a for c, a in pairs] + [1j * (c + a) for c, a in pairs]


def test_jordan_wigner_signs_on_m2():
    # basis order: {}, {1}, {2}, {1, 2}; creating 2 on {1} passes one element below it
    e1 = np.zeros((4, 4))
    e1[1, 0] = e1[3, 2] = 1
    e2 = np.zeros((4, 4))
    e2[2, 0] = 1
    e2[3, 1] = -1
    assert np.array_equal(creation_matrix(2, 1), e1)
    assert np.array_equal(creation_matrix(2, 2), e2)
    assert np.array_equal(annihilation_matrix(2, 2), e2.T)


@pytest.mark.parametrize("m", EXACT_DIMS)
def test_canonical_anticommutation_relations(m):
    eye = np.eye(2 ** m)
    zero = np.zeros((2 ** m, 2 ** m))
    for a in range(1, m + 1):
        for b in range(1, m + 1):
            create_a, create_b = creation_matrix(m, a), creation_matrix(m, b)
            annihilate_a, annihilate_b = annihilation_matrix(m, a), annihilation_matrix(m, b)
            assert np.array_equal(anticommutator(create_a, create_b), zero)
            assert np.array_equal(anticommutator(annihilate_a, annihilate_b), zero)
            assert np.array_equal(anticommutator(create_a, annihilate_b), eye if a == b else zero)


@pytest.mark.parametrize("m", EXACT_DIMS)
def test_complex_frame_mixed_relation_and_adjoints(m):
    """{c(E_a), c(Ebar_b)} = -delta_ab and c(Ebar_a) = -c(E_a)^H."""
    eye = np.eye(2 ** m)
    c_e, c_ebar = complex_frame(m)
    for a in range(m):
        assert np.array_equal(c_ebar[a], -c_e[a].conj().T)
        for b in range(m):
            assert np.array_equal(anticommutator(c_e[a], c_ebar[b]), -eye if a == b else 0 * eye)


@pytest.mark.parametrize("m", EXACT_DIMS)
def test_real_frame_clifford_relations(m):
    """c(s_i) c(s_j) + c(s_j) c(s_i) = -2 delta_ij, and each c(s_i) is skew-adjoint."""
    eye = np.eye(2 ** m)
    frame = real_frame(m)
    for i, c_i in enumerate(frame):
        assert np.array_equal(c_i.conj().T, -c_i)
        for j, c_j in enumerate(frame):
            assert np.array_equal(anticommutator(c_i, c_j), -2 * eye if i == j else 0 * eye)


@pytest.mark.parametrize("m", EXACT_DIMS)
def test_real_frame_is_wedge_minus_contraction(m):
    """c(real_a) = wedge - contraction and c(realJ_a) = i (wedge + contraction), in ``two_form_matrix``'s frame.

    This is the unit-coframe form of the wedge/contraction description of
    Clifford multiplication on (0, q)-forms, in the real-frame component
    order.
    """
    frame = clifford._real_frame_matrices(m)
    assert len(frame) == 2 * m
    for a in range(1, m + 1):
        wedge, contraction = creation_matrix(m, a), annihilation_matrix(m, a)
        assert np.array_equal(frame[a - 1], wedge - contraction)
        assert np.array_equal(frame[m + a - 1], 1j * (wedge + contraction))


@pytest.mark.parametrize("m", EXACT_DIMS)
def test_levi_two_form_reproduces_grading_operator(m):
    """(i/2) c(dtheta) = Theta, and Theta is m - 2q on grade q."""
    theta = theta_matrix(m)
    assert np.array_equal(0.5j * two_form_matrix(m, dtheta_frame_matrix(m)), theta)
    module = SpinorModule(m)
    for q in range(m + 1):
        block = module.grade_slice(q)
        assert np.array_equal(np.diag(theta)[block], np.full(comb(m, q), m - 2 * q))


@pytest.mark.parametrize("m", EXACT_DIMS)
def test_theta_commutators_shift_the_grade(m):
    """[Theta, c(E_a)] = -2 c(E_a) and [Theta, c(Ebar_a)] = +2 c(Ebar_a)."""
    theta = theta_matrix(m)
    c_e, c_ebar = complex_frame(m)
    for e, ebar in zip(c_e, c_ebar):
        assert np.array_equal(commutator(theta, e), -2 * e)
        assert np.array_equal(commutator(theta, ebar), 2 * ebar)


@pytest.mark.parametrize("m", EXACT_DIMS)
def test_grade_slices_partition_the_basis(m):
    module = SpinorModule(m)
    start = 0
    for q in range(m + 1):
        block = module.grade_slice(q)
        assert (block.start, block.stop) == (start, start + comb(m, q))
        assert all(len(s) == q for s in module.subsets[block])
        start = block.stop
    assert start == module.dim == len(set(module.subsets))
    assert all(module.index_of(s) == i for i, s in enumerate(module.subsets))


@pytest.mark.parametrize("q", [True, 1.0])
@pytest.mark.parametrize("entry", [
    lambda space, q: space.module.grade_slice(q),
    lambda space, q: space.grade_block(q),
    lambda space, q: assemble_twistor(space, q),
    lambda space, q: twistor_contraction(space, q),
    lambda space, q: curvature_term(space.model, 0, q),
    lambda space, q: q_split(space.model, 0, q),
], ids=["grade_slice", "grade_block", "assemble_twistor", "twistor_contraction",
        "curvature_term", "q_split"])
def test_grade_entry_points_refuse_what_is_no_grade(entry, q):
    # a bool would index the q = 1 slice and a float the list of grade starts; neither is a grade
    space = SectionSpace(heisenberg_model(2, k=1))
    with pytest.raises(ValueError, match=rf"grade q must lie in 0\.\.2, got {q}$"):
        entry(space, q)


def test_cached_clifford_matrices_are_read_only():
    for mat in (creation_matrix(2, 1), annihilation_matrix(2, 2)):
        with pytest.raises(ValueError):
            mat[0, 0] = 5.0
        with pytest.raises(ValueError):
            mat *= 2.0
    assert creation_matrix(2, 1)[0, 0] == 0.0


def test_validation_errors():
    with pytest.raises(ValueError, match=r"frame index must lie in 1\.\.2, got 3"):
        creation_matrix(2, 3)
    with pytest.raises(ValueError, match=r"frame index must lie in 1\.\.2, got 0"):
        annihilation_matrix(2, 0)
    with pytest.raises(ValueError, match="CR dimension m must be a positive integer, got 0"):
        annihilation_matrix(0, 1)
    with pytest.raises(ValueError, match="CR dimension m must be a positive integer, got 0"):
        SpinorModule(0)
    with pytest.raises(ValueError, match=r"not a subset of 1\.\.2"):
        SpinorModule(2).index_of({7})
    with pytest.raises(ValueError, match=r"grade q must lie in 0\.\.2, got 5"):
        SpinorModule(2).grade_slice(5)
    with pytest.raises(ValueError, match="antisymmetric"):
        two_form_matrix(2, np.ones((4, 4)))
    with pytest.raises(ValueError, match="4 x 4 component matrix"):
        two_form_matrix(2, np.ones((3, 3)))
