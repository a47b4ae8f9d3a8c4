import re
import tracemalloc

import numpy as np
import pytest

from crspin.clifford import creation_matrix
from crspin.models import (
    TorusLattice,
    TruncationSpec,
    cr_alpha_bundle,
    heisenberg_model,
    sphere_model,
)
from crspin.sections import SectionSpace


def dense_nabla(space):
    """Dense base matrices of the E_a and Ebar_a derivatives, from the dense oracle's expansion."""
    return [[space.base_matrix(d) for d in factors] for factors in (space.nabla_e, space.nabla_ebar)]


def interior_residual(space, mat):
    """Largest matrix element of ``mat`` between interior coefficients."""
    mask = space.interior
    if not mask.any():
        raise ValueError("no interior coefficients at this truncation")
    sub = mat[np.ix_(mask, mask)]
    return np.abs(sub).max()


@pytest.mark.parametrize(
    "model,sector,expected_t",
    [
        (heisenberg_model(1, k=0), None, 0.0),
        (heisenberg_model(1, k=2), None, 2.0),
        (heisenberg_model(2, k=-1), None, -1.0),
        (cr_alpha_bundle(1, c=1, s=0), None, 0.0),
        (cr_alpha_bundle(1, c=1, s=1), None, -0.5),
        (cr_alpha_bundle(2, c=3, s=-2), None, 1.0),
        (heisenberg_model(2, k=0), 1, 1.0),
    ],
)
def test_sector_parameter(model, sector, expected_t):
    space = SectionSpace(model, sector=sector)
    assert space.t == expected_t


@pytest.mark.parametrize("model", [heisenberg_model(2), cr_alpha_bundle(2, c=1)], ids=["heisenberg", "torus"])
@pytest.mark.parametrize("sector", [0.7, 1.0, True, "1"])
def test_sector_must_be_an_integer(model, sector):
    # int(0.7) would build the Fourier sector 0
    with pytest.raises(ValueError, match=rf"sector must be an integer, got {re.escape(repr(sector))}$"):
        SectionSpace(model, sector=sector)


def test_commutation_relations_fourier():
    space = SectionSpace(heisenberg_model(2, k=0))
    nabla_e, nabla_ebar = dense_nabla(space)
    for a in range(2):
        for b in range(2):
            comm = nabla_e[a] @ nabla_ebar[b] - nabla_ebar[b] @ nabla_e[a]
            assert np.abs(comm).max() <= 1e-14


@pytest.mark.parametrize("model", [heisenberg_model(1, k=3), cr_alpha_bundle(2, c=2, s=1)])
def test_commutation_relations_ladder_interior(model):
    space = SectionSpace(model)
    eye = np.eye(space.base_dim)
    nabla_e, nabla_ebar = dense_nabla(space)
    for a in range(space.m):
        for b in range(space.m):
            comm = nabla_e[a] @ nabla_ebar[b] - nabla_ebar[b] @ nabla_e[a]
            target = space.t * eye if a == b else 0.0
            assert interior_residual(space, comm - target) <= 1e-13


def test_ladder_commutator_fails_at_top_rung():
    # the truncation defect is confined to non-interior states
    space = SectionSpace(heisenberg_model(1, k=1))
    (nabla_e,), (nabla_ebar,) = dense_nabla(space)
    comm = nabla_e @ nabla_ebar - nabla_ebar @ nabla_e
    defect = comm - space.t * np.eye(space.base_dim)
    assert np.abs(defect).max() > 0.5
    assert interior_residual(space, defect) <= 1e-13


@pytest.mark.parametrize(
    "model",
    [
        heisenberg_model(1, k=0),
        heisenberg_model(2, k=1),
        heisenberg_model(1, k=-2),
        cr_alpha_bundle(2, c=1, s=2),
    ],
)
def test_derivatives_are_mutually_antiadjoint(model):
    space = SectionSpace(model)
    nabla_e, nabla_ebar = dense_nabla(space)
    for a in range(space.m):
        assert np.allclose(nabla_e[a].conj().T, -nabla_ebar[a], atol=1e-14)


def test_fourier_frequencies_match_flat_laplacian():
    # -2 sum nabla_E nabla_Ebar acts diagonally as |w|^2 / 2 on exp(i w.x)
    space = SectionSpace(heisenberg_model(1, k=0))
    nabla_e, nabla_ebar = dense_nabla(space)
    op = np.zeros((space.base_dim, space.base_dim), dtype=complex)
    for a in range(space.m):
        op -= 2.0 * nabla_e[a] @ nabla_ebar[a]
    expected = 0.5 * np.sum(space.labels**2, axis=1)
    assert np.allclose(np.diag(op).real, expected, atol=1e-12)
    assert np.abs(op - np.diag(np.diag(op))).max() == 0.0


def test_stretched_lattice_changes_spectrum():
    lat = TorusLattice(1, vectors=np.diag([2.0, 1.0]))
    space = SectionSpace(cr_alpha_bundle(lat, c=1, s=0))
    freqs = np.sort(np.unique(np.round(np.sum(space.labels**2, axis=1), 9)))
    # smallest nonzero |w|^2 comes from the long period: (2 pi / 2)^2
    assert np.isclose(freqs[1], np.pi**2)


@pytest.mark.parametrize("k", [1, -3])
def test_ladder_number_operator(k):
    space = SectionSpace(heisenberg_model(2, k=k))
    nabla_e, nabla_ebar = dense_nabla(space)
    num = np.zeros((space.base_dim, space.base_dim), dtype=complex)
    for a in range(space.m):
        if space.t > 0:
            num -= nabla_e[a] @ nabla_ebar[a] / space.t
        else:
            num -= nabla_ebar[a] @ nabla_e[a] / (-space.t)
    assert np.allclose(num, np.diag(space.labels.sum(axis=1).astype(float)), atol=1e-13)


def test_multiplicity_factors():
    assert SectionSpace(heisenberg_model(2, k=0)).multiplicity == 1
    assert SectionSpace(heisenberg_model(2, k=3)).multiplicity == 9
    assert SectionSpace(cr_alpha_bundle(1, c=2, s=3)).multiplicity == 6
    assert SectionSpace(cr_alpha_bundle(2, c=-2, s=1)).multiplicity == 4


def test_dimensions_and_grade_blocks():
    model = heisenberg_model(2, k=1, truncation=TruncationSpec(fourier_radius=1, ladder_levels=4))
    space = SectionSpace(model)
    assert space.base_dim == 16
    assert space.fiber_dim == 4
    assert space.dim == 64
    widths = [space.grade_block(q).stop - space.grade_block(q).start for q in range(3)]
    assert widths == [16, 32, 16]
    assert space.grade_block(0).start == 0
    assert space.grade_block(2).stop == space.dim


def test_interior_mask_counts():
    model = heisenberg_model(2, k=1, truncation=TruncationSpec(fourier_radius=1, ladder_levels=5))
    space = SectionSpace(model)
    assert int(space.interior.sum()) == 16
    # the per-slot blocks hold every full-space state once
    assert int(space.block_interior().sum()) == 16 * space.fiber_dim


def test_kron_ordering_is_fiber_major():
    model = heisenberg_model(1, k=1, truncation=TruncationSpec(fourier_radius=1, ladder_levels=3))
    space = SectionSpace(model)
    fib = np.array([[0.0, 1.0], [0.0, 0.0]])
    lifted = space.lift_fiber(fib)
    # entry coupling (fiber 0, base j) to (fiber 1, base j)
    assert lifted[0, space.base_dim] == 1.0
    base = np.diag([1.0, 2.0, 3.0])
    assert np.allclose(np.diag(space.lift_base(base)), np.tile([1.0, 2.0, 3.0], 2))


def test_sphere_model_is_rejected():
    with pytest.raises(ValueError, match="sphere model has no section space"):
        SectionSpace(sphere_model(2))


def test_nabla_real_combinations():
    space = SectionSpace(heisenberg_model(2, k=1))
    nabla_e, nabla_ebar = dense_nabla(space)
    for a in range(space.m):
        e = space.base_matrix(space.nabla_real(a))
        je = space.base_matrix(space.nabla_real(space.m + a))
        assert np.allclose(e, nabla_e[a] + nabla_ebar[a])
        assert np.allclose(je, 1j * (nabla_e[a] - nabla_ebar[a]))
    with pytest.raises(ValueError):
        space.nabla_real(4)


@pytest.mark.parametrize("k", [-1, 1])
def test_mixed_allocates_one_full_space_matrix(k):
    # half the ladder operators are transposed views (F-ordered); np.kron of
    # such a factor copies its full-size product once more, which made peak
    # memory depend on the sign of the sector.  The margin covers the
    # ufunc's fixed-size broadcast buffer (about 160 kB).
    space = SectionSpace(heisenberg_model(2, k=k, truncation=TruncationSpec(fourier_radius=1, ladder_levels=8)))
    fiber = creation_matrix(space.m, 1)
    for base in space.nabla_e + space.nabla_ebar:
        tracemalloc.start()
        try:
            mat = space.mixed(fiber, base)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(mat, np.kron(fiber, space.base_matrix(base)))
        assert peak < 1.5 * mat.nbytes


def test_interior_max_ignores_shell_entries():
    space = SectionSpace(heisenberg_model(2, k=1))
    shell = ~np.tile(space.interior, space.fiber_dim)
    diff = np.full((space.dim, space.dim), 0.5)
    diff[shell, :] = -1e6
    diff[:, shell] = 1e6
    rows = space.grade_block(1)
    inner = rows.start + int(np.argmin(shell[rows]))
    diff[inner, inner] = -3.0
    assert space.interior_max(diff) == 3.0
    assert space.interior_max(diff[rows, rows], rows) == 3.0
    assert space.interior_max(diff[space.grade_block(0), space.grade_block(0)], space.grade_block(0)) == 0.5
