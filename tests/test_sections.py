import importlib.util
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from crspin.clifford import creation_matrix
from crspin.models import (
    HeisenbergModel,
    PseudoHermitianModel,
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
def test_commutation_relations_ladder(model):
    # ``products`` forms a slot's products one rung above the cutoff, so the
    # commutator is t on every kept level; different slots commute exactly
    space = SectionSpace(model)
    nabla_e, nabla_ebar = dense_nabla(space)
    for a in range(space.m):
        diag, *off = space.products([(1.0, space.nabla_e[a], space.nabla_ebar[a]),
                                     (-1.0, space.nabla_ebar[a], space.nabla_e[a])])
        assert np.abs(diag - space.t).max() <= 1e-13
        assert all(np.abs(f.mat).max() <= 1e-13 for f in off)
        for b in set(range(space.m)) - {a}:
            assert not (nabla_e[a] @ nabla_ebar[b] - nabla_ebar[b] @ nabla_e[a]).any()


def test_ladder_commutator_fails_at_top_rung():
    # products of the truncated L x L matrices miss only at occupation L - 1
    space = SectionSpace(heisenberg_model(1, k=1))
    (nabla_e,), (nabla_ebar,) = dense_nabla(space)
    comm = nabla_e @ nabla_ebar - nabla_ebar @ nabla_e
    defect = comm - space.t * np.eye(space.base_dim)
    top = space.labels[:, 0] == space.ladder_levels - 1
    assert np.abs(defect[np.ix_(top, top)]).max() > 0.5
    assert np.abs(defect[np.ix_(~top, ~top)]).max() <= 1e-13 and not defect[np.ix_(top, ~top)].any()


@pytest.mark.parametrize("k", [2, -1])
def test_horizontal_laplacians_are_exact_on_every_level(k):
    # 2|t| N and 2|t| (N + m) for the total occupation N, the top rung included
    space = SectionSpace(heisenberg_model(2, k=k, truncation=TruncationSpec(fourier_radius=1, ladder_levels=4)))
    total = space.labels.sum(axis=1)
    lowered, raised = 2 * abs(k) * total, 2 * abs(k) * (total + space.m)
    lap10, lap01 = space.horizontal_laplacians()
    np.testing.assert_allclose(lap10, raised if k > 0 else lowered, rtol=0, atol=1e-13)
    np.testing.assert_allclose(lap01, lowered if k > 0 else raised, rtol=0, atol=1e-13)


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
    assert SectionSpace(cr_alpha_bundle(2, c=2, s=-1)).multiplicity == 4


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


def test_complete_block_counts():
    model = heisenberg_model(2, k=1, truncation=TruncationSpec(fourier_radius=1, ladder_levels=5))
    space = SectionSpace(model)
    complete = space.block_complete()
    # labels J in [0, 5]^2, complete when both J_a <= 4
    assert len(complete) == 36 and int(complete.sum()) == 25
    # fiber state with bits b sits at occupation J - b >= 0: 5 labels per unset bit, 4 per set one
    present = (space.blocks() >= 0) & complete[:, None]
    assert present.sum(axis=0).tolist() == [25, 20, 20, 16]


def test_kron_ordering_is_fiber_major():
    model = heisenberg_model(1, k=1, truncation=TruncationSpec(fourier_radius=1, ladder_levels=3))
    space = SectionSpace(model)
    fib = np.array([[0.0, 1.0], [0.0, 0.0]])
    lifted = space.lift_fiber(fib)
    # entry coupling (fiber 0, base j) to (fiber 1, base j)
    assert lifted[0, space.base_dim] == 1.0
    assert np.allclose(np.diag(space.lift_base(np.array([1.0, 2.0, 3.0]))), np.tile([1.0, 2.0, 3.0], 2))


def test_space_has_every_method_the_tracer_wraps_by_name():
    # perfbench's tracer rebinds these SectionSpace methods by name, so a run under --trace 1 raises if one is gone
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SECTION_METHODS and all(callable(getattr(SectionSpace, name, None))
                                           for name in tracing.SECTION_METHODS)


def test_sphere_model_is_rejected():
    with pytest.raises(ValueError, match="sphere model has no section space"):
        SectionSpace(sphere_model(2))


@pytest.mark.parametrize("model, dim", [
    (HeisenbergModel(m=2), 324),  # no truncation given: the space takes the default
    (PseudoHermitianModel(m=2, truncation=TruncationSpec(1, 3)), None),  # a truncation, but no realization
], ids=["heisenberg-untruncated", "generic-truncated"])
def test_has_section_space_is_what_section_space_does(model, dim):
    # the vanishing check skips its spectral clashes where the property is False, so it must answer as the space does
    assert model.has_section_space is (dim is not None)
    if dim is None:
        with pytest.raises(ValueError, match="generic model has no section space"):
            SectionSpace(model)
    else:
        assert SectionSpace(model).dim == dim


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


def test_complete_max_ignores_cut_blocks_and_absent_states():
    space = SectionSpace(heisenberg_model(2, k=1))
    inside = (space.blocks() >= 0) & space.block_complete()[:, None]
    keys = {}
    for s in range(space.fiber_dim):
        for c in range(space.fiber_dim):
            keys[s, c] = np.full(len(inside), 0.5 + 0j)
            keys[s, c][~inside[:, s]] = -1e6
            keys[s, c][~inside[:, c]] = 1e6
    j = int(np.flatnonzero(inside[:, 1])[0])
    keys[1, 1][j] = -3.0
    assert space.complete_max(keys) == 3.0
    assert space.complete_max({(1, 1): keys[1, 1]}) == 3.0
    assert space.complete_max({(0, 0): keys[0, 0]}) == 0.5
    assert space.complete_max({}) == 0.0
    # an off-diagonal key reads the present states of both its fiber states
    keys[1, 0][j] = -4.0
    assert space.complete_max({(1, 0): keys[1, 0], (0, 1): keys[0, 1]}) == 4.0
    # a NaN on a complete block reaches the result, behind keys that read larger
    keys[3, 3][int(np.flatnonzero(inside[:, 3])[0])] = np.nan
    assert np.isnan(space.complete_max(keys))
    # a block the cutoff cut into, and a state it removed from a complete block, are never read
    assert not inside[~space.block_complete()].any() and not inside[space.block_complete()].all()
