import ast
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import crspin
from crspin import cli
from crspin.clifford import SpinorModule, creation_matrix, dtheta_frame_matrix
from crspin.cohomology import dirac_kernel, torus_line_bundle_cohomology
from crspin.fields import TrigPoly
from crspin.models import (
    MODEL_KINDS,
    HeisenbergModel,
    PseudoHermitianModel,
    SphereModel,
    TorusBundleModel,
    TorusLattice,
    TruncationSpec,
    bianchi_residual,
    complex_structure_matrix,
    cr_alpha_bundle,
    heisenberg_model,
    pseudo_einstein_residual,
    rho_frame_components,
    ricci_consistency,
    space_form_curvature,
    sphere_model,
    tau_frame_components,
    torsion_residual,
)
from crspin.operators import OperatorMatrix, assemble_kohn_dirac, cluster_eigenvalues, kernel_report
from crspin.sections import SectionSpace
from crspin.vanishing import qhat, vanishing_verdicts
from crspin.weitzenboeck import ConformalScale, _FiberContext, default_sample_points, dl_residual, sector_pass

TOL = 1e-12


def shipped_models():
    return [
        heisenberg_model(1, k=0),
        heisenberg_model(2, k=1),
        cr_alpha_bundle(1, c=1, s=0),
        cr_alpha_bundle(2, c=2, s=-1),
        sphere_model(2),
        sphere_model(3, scal_w=2.5),
    ]


@pytest.mark.parametrize("model", shipped_models(), ids=lambda mod: mod.describe())
def test_shipped_models_pass_all_consistency_checks(model):
    assert ricci_consistency(model) <= TOL
    assert bianchi_residual(model) <= TOL
    assert torsion_residual(model) <= TOL
    if model.flags.pseudo_einstein:
        assert pseudo_einstein_residual(model) <= TOL


def test_constructor_validation():
    with pytest.raises(ValueError):
        sphere_model(1)
    with pytest.raises(ValueError):
        sphere_model(2, scal_w=-1.0)
    with pytest.raises(ValueError):
        cr_alpha_bundle(1, c=0)
    with pytest.raises(ValueError):
        cr_alpha_bundle(TorusLattice(2), c=1.5)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        TorusLattice(1, vectors=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        TorusLattice(2, vectors=np.eye(3))
    with pytest.raises(ValueError):
        TruncationSpec(fourier_radius=0, ladder_levels=4)
    with pytest.raises(ValueError):
        TruncationSpec(fourier_radius=2, ladder_levels=1)
    with pytest.raises(ValueError):
        heisenberg_model(0, k=0)


def test_model_kinds_and_flags():
    heis = heisenberg_model(2, k=1)
    assert isinstance(heis, HeisenbergModel)
    assert heis.kind == "heisenberg"
    assert heis.flags.torsion_free and heis.flags.regular
    assert heis.has_section_space
    assert heis.scal_w == 0.0 and heis.scal_h == 0.0

    torus = cr_alpha_bundle(2, c=3, s=2)
    assert isinstance(torus, TorusBundleModel)
    assert torus.flux == 3 and torus.s == 2

    sph = sphere_model(2, scal_w=4.0)
    assert isinstance(sph, SphereModel)
    assert not sph.has_section_space
    assert sph.scal_h == sph.scal_w == 4.0
    # Ricci matrix is the positive pseudo-Einstein multiple
    assert np.allclose(sph.rho, (4.0 / 8.0) * np.eye(2))


def test_a_model_kind_is_its_class():
    # a constructor field let TorusBundleModel(kind="heisenberg") describe itself as a Heisenberg quotient
    assert "kind" not in {f.name for f in dataclasses.fields(PseudoHermitianModel)}
    with pytest.raises(TypeError):
        TorusBundleModel(m=2, kind="heisenberg")
    assert cr_alpha_bundle(2, c=1).describe() == "torus_bundle(m=2, ell=0)"
    classes = (PseudoHermitianModel, HeisenbergModel, TorusBundleModel, SphereModel)
    assert [cls.kind for cls in classes] == ["generic", "heisenberg", "torus_bundle", "sphere"]


def same_value(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, TorusLattice):  # a lattice compares by identity
        return isinstance(b, TorusLattice) and a.m == b.m and np.array_equal(a.period_matrix(), b.period_matrix())
    return type(a) is type(b) and a == b


def assert_same_model(one, other):
    assert type(one) is type(other)
    for f in dataclasses.fields(one):
        assert same_value(getattr(one, f.name), getattr(other, f.name)), f.name
    assert one.describe() == other.describe() and one.has_section_space == other.has_section_space


FACTORIES = {
    "heisenberg": lambda m, sector: heisenberg_model(m, k=sector),
    "torus_bundle": lambda m, sector: cr_alpha_bundle(m, c=1, s=sector),
    "sphere": lambda m, sector: sphere_model(m),
}


@pytest.mark.parametrize("kind, m, sector", [("heisenberg", 1, 0), ("heisenberg", 2, 1), ("torus_bundle", 1, 0),
                                             ("torus_bundle", 2, -1), ("sphere", 2, None), ("sphere", 3, None)])
def test_a_model_class_is_its_factory(kind, m, sector):
    # the classes defaulted to a flat, flagless model that the factories filled in: SphereModel(m=2) had scal_w 0.0
    # and rho 0, and read q=1 at ell=0 as not_forced where sphere_model(2) reads forced_zero by vani-a1
    cls = MODEL_KINDS[kind]
    direct = cls(m=m) if cls.sector_field is None else cls(m=m, **{cls.sector_field: sector})
    factory = FACTORIES[kind](m, sector)
    assert_same_model(direct, factory)
    for ell in range(-(m + 2), m + 3):
        assert vanishing_verdicts(direct, ell) == vanishing_verdicts(factory, ell)


@pytest.mark.parametrize("omitted, key, default", [
    ({"kind": "sphere", "m": 2}, "scal_w", 1.0),
    ({"kind": "torus_bundle", "m": 2, "sectors": [1]}, "flux", 1),
    ({"kind": "heisenberg", "m": 1}, "truncation", {"fourier_radius": 3, "ladder_levels": 10}),
    ({"kind": "torus_bundle", "m": 2}, "truncation", {"fourier_radius": 1, "ladder_levels": 6}),
])
def test_an_omitted_config_key_takes_the_class_default(tmp_path, omitted, key, default):
    built = []
    for name, model in (("omitted", omitted), ("spelled", {**omitted, key: default})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"model": model}))
        built.append(cli.build_model(cli.load_config(str(path))))
    assert_same_model(*built)


@pytest.mark.parametrize("build", [lambda: sphere_model(1), lambda: SphereModel(m=1)], ids=["sphere_model", "class"])
def test_a_sphere_below_m_2_is_refused(build):
    with pytest.raises(ValueError, match="^sphere CR dimension m must be an integer >= 2, got 1$"):
        build()


def _one_space():
    return SectionSpace(heisenberg_model(1, k=1))


RECORDS = {
    "heisenberg_model": lambda: heisenberg_model(2),
    "cr_alpha_bundle": lambda: cr_alpha_bundle(2, c=1),
    "sphere_model": lambda: sphere_model(2),
    "TorusLattice": lambda: TorusLattice(2, vectors=np.eye(4)),
    "OperatorMatrix": lambda: OperatorMatrix(np.eye(4), _one_space()),
    "SectorPass": lambda: sector_pass(_one_space()),
    "_Half": lambda: _FiberContext(2).half10,
}


@pytest.mark.parametrize("build", RECORDS.values(), ids=RECORDS)
def test_records_holding_arrays_compare_and_hash_by_identity(build):
    # field-wise equality compared arrays elementwise and raised ValueError, and hashing a frozen record hashed its
    # arrays and dicts and raised TypeError
    record, twin = build(), build()
    assert record in [twin, record] and record != twin
    assert len({record, twin, record}) == 2


def test_sphere_ricci_form_is_positive_multiple_of_levi_form():
    model = sphere_model(3, scal_w=6.0)
    frame = rho_frame_components(model.rho)
    # rho = (scal/4m) dtheta as two-forms, hence as frame component matrices
    assert np.allclose(frame, (6.0 / 12.0) * dtheta_frame_matrix(3), atol=TOL)
    assert np.allclose(frame, -frame.T, atol=TOL)


def test_space_form_curvature_reproduces_ricci_form_trace():
    """The constant-curvature ansatz must integrate back to rho = kappa (m+1) dtheta."""
    for m in (2, 3):
        kappa = 0.7
        riem = space_form_curvature(m, kappa)
        jmat = complex_structure_matrix(m)
        rho = 0.5 * np.einsum("ijpr,pr->ij", riem, jmat)
        assert np.allclose(rho, kappa * (m + 1) * dtheta_frame_matrix(m), atol=TOL)


def test_tau_frame_components_symmetry_and_anticommutation():
    rng = np.random.default_rng(5)
    m = 3
    raw = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    tau = raw + raw.T  # complex symmetric
    frame = tau_frame_components(tau)
    jmat = complex_structure_matrix(m)
    assert np.allclose(frame, frame.T, atol=TOL)
    assert abs(np.trace(frame)) <= 1e-12
    assert np.allclose(frame @ jmat, -jmat @ frame, atol=TOL)


def test_negative_control_inconsistent_curvature_is_flagged():
    good = sphere_model(2, scal_w=2.0)
    assert bianchi_residual(good) <= TOL

    # break the first Bianchi identity by keeping only one of the paired terms
    m = 2
    delta = np.eye(2 * m)
    bad_riem = np.einsum("jk,il->ijkl", delta, delta) - 0.5 * np.einsum("ik,jl->ijkl", delta, delta)
    bad = SphereModel(
        m=m,
        rho=good.rho.copy(),
        scal_w=good.scal_w,
        flags=good.flags,
        curvature=bad_riem,
        scal_h=good.scal_h,
    )
    assert bianchi_residual(bad) > 0.1

    # break the scalar/trace tie
    skew = SphereModel(
        m=m,
        rho=good.rho.copy(),
        scal_w=good.scal_w + 1.0,
        flags=good.flags,
        curvature=good.curvature.copy(),
        scal_h=good.scal_h,
    )
    assert ricci_consistency(skew) > 0.5


def test_negative_control_torsion():
    model = heisenberg_model(1, k=0)
    model.tau = np.array([[1.0 + 0j]])
    # a 1x1 symmetric tau is fine as a matrix, and its endomorphism is traceless
    assert torsion_residual(model) <= TOL
    model2 = heisenberg_model(2, k=0)
    model2.tau = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)  # antisymmetric: invalid
    assert torsion_residual(model2) > 1.0


def test_lattice_dual_frequencies():
    lat = TorusLattice(1)
    freqs = lat.dual_frequencies(1)
    assert freqs.shape == (9, 2)
    norms = sorted(float(np.linalg.norm(f)) for f in freqs)
    assert norms[0] == 0.0
    assert np.isclose(norms[1], 2 * np.pi)

    stretched = TorusLattice(1, vectors=np.diag([2.0, 1.0]))
    freqs2 = stretched.dual_frequencies(1)
    norms2 = sorted(float(np.linalg.norm(f)) for f in freqs2)
    assert np.isclose(norms2[1], np.pi)


BOOL_AS_INT = {
    "dl_residual ell": (lambda: dl_residual(SectionSpace(heisenberg_model(1, k=1)), True), "weight"),
    "qhat m": (lambda: qhat(True, 1), "CR dimension m"),
    "qhat ell": (lambda: qhat(2, True), "weight"),
    "vanishing_verdicts ell": (lambda: vanishing_verdicts(heisenberg_model(2), True), "weight"),
    "PseudoHermitianModel m": (lambda: PseudoHermitianModel(m=True), "CR dimension m"),
    "PseudoHermitianModel ell": (lambda: PseudoHermitianModel(m=1, ell=True), "spin\\^C weight"),
    "HeisenbergModel k": (lambda: heisenberg_model(1, k=True), "Heisenberg sector k"),
    "TorusBundleModel s": (lambda: cr_alpha_bundle(1, 1, s=True), "fiber weight s"),
    "TorusBundleModel flux": (lambda: TorusBundleModel(m=1, flux=True), "flux"),
    "cr_alpha_bundle c": (lambda: cr_alpha_bundle(1, True), "flux"),
    "TorusLattice m": (lambda: TorusLattice(True), "complex dimension m"),
    "torus_line_bundle_cohomology c": (lambda: torus_line_bundle_cohomology(TorusLattice(1), True, 1, 0),
                                       "polarization degree"),
    "torus_line_bundle_cohomology s": (lambda: torus_line_bundle_cohomology(TorusLattice(1), 1, True, 0),
                                       "power s"),
    "SpinorModule m": (lambda: SpinorModule(True), "CR dimension m"),
    "SpinorModule.index_of element": (lambda: SpinorModule(2).index_of([True]), "subset element"),
    "creation_matrix alpha": (lambda: creation_matrix(2, True), "frame index"),
    "TruncationSpec fourier_radius": (lambda: TruncationSpec(fourier_radius=True, ladder_levels=4), "fourier_radius"),
    "TrigPoly.cosine axis": (lambda: TrigPoly.cosine(2, True), "axis"),
    "TrigPoly.frame_derivative a": (lambda: TrigPoly.cosine(2, 0).frame_derivative("e", True), "frame index"),
    "TorusLattice.dual_frequencies radius": (lambda: TorusLattice(1).dual_frequencies(True), "radius"),
    "default_sample_points dim": (lambda: default_sample_points(True), "dimension"),
    "ConformalScale m": (lambda: ConformalScale(True, TrigPoly.cosine(2, 0)), "CR dimension m"),
    "SectionSpace.nabla_real i": (lambda: SectionSpace(heisenberg_model(1, k=1)).nabla_real(True), "frame index"),
    "sphere_model scal_w": (lambda: sphere_model(2, scal_w=True), "sphere Webster scalar scal_w"),
    "dirac_kernel tol": (lambda: dirac_kernel(SectionSpace(heisenberg_model(1, k=0)), tol=True), "kernel tolerance"),
    "kernel_report tol": (lambda: kernel_report(assemble_kohn_dirac(SectionSpace(heisenberg_model(1, k=0))), tol=True),
                          "kernel tolerance"),
}


@pytest.mark.parametrize("case", BOOL_AS_INT)
def test_bool_is_refused_as_an_integer(case):
    """True is an int to isinstance, so each integer check refuses bool by name."""
    build, name = BOOL_AS_INT[case]
    with pytest.raises(ValueError, match=f"{name} must .*got True"):
        build()


@pytest.mark.parametrize("flux", [0, -1, -2])
@pytest.mark.parametrize("build", [lambda c: TorusBundleModel(m=1, flux=c), lambda c: cr_alpha_bundle(2, c)],
                         ids=["TorusBundleModel", "cr_alpha_bundle"])
def test_a_flux_below_1_is_refused(build, flux):
    # dtheta has the sign of the flux, and the models fix the Levi form dtheta(E_a, conj(E_b)) = i delta_ab
    with pytest.raises(ValueError, match=f"^flux must be a positive integer, got {flux}$"):
        build(flux)


@pytest.mark.parametrize("build, message", [
    (lambda: TrigPoly(2.5), "dimension must be an integer >= 0, got 2.5"),
    (lambda: TrigPoly.cosine(2, 1.0), "axis must be an integer, got 1.0"),
    (lambda: SectionSpace(heisenberg_model(1, k=1)).nabla_real(1.0), "frame index must be an integer, got 1.0"),
    (lambda: SpinorModule(2).index_of([1.5]), "subset element must be an integer, got 1.5"),
    (lambda: SpinorModule(2).index_of([2.9]), "subset element must be an integer, got 2.9"),
], ids=["TrigPoly dim", "TrigPoly.cosine axis", "SectionSpace.nabla_real i", "SpinorModule.index_of 1.5",
        "SpinorModule.index_of 2.9"])
def test_float_is_refused_as_an_integer(build, message):
    # int() used to truncate the dimension and the subset elements (2.9 read as {2}); the axis and the frame index
    # indexed a list with a float
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


NOT_POSITIVE_FINITE = {
    "sphere_model scal_w": (lambda value: sphere_model(2, scal_w=value), "sphere Webster scalar scal_w"),
    "SphereModel scal_w": (lambda value: SphereModel(m=2, scal_w=value), "sphere Webster scalar scal_w"),
    "dirac_kernel tol": (lambda value: dirac_kernel(SectionSpace(heisenberg_model(1, k=0)), tol=value),
                         "kernel tolerance"),
    "kernel_report tol": (lambda value: kernel_report(assemble_kohn_dirac(SectionSpace(heisenberg_model(1, k=0))),
                                                      tol=value), "kernel tolerance"),
    "cluster_eigenvalues tol": (lambda value: cluster_eigenvalues([0.0, 1e-12, 1.0], tol=value),
                                "cluster tolerance"),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("case", NOT_POSITIVE_FINITE)
def test_nonfinite_is_refused_as_a_positive_number(case, value):
    """NaN passes a plain ``<= 0`` test: a NaN tolerance counted no kernel or cluster, and a NaN scal_w built a sphere."""
    build, name = NOT_POSITIVE_FINITE[case]
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {value!r}$"):
        build(value)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build, message", [
    (lambda: TorusLattice(1, vectors=[[NAN, 0.0], [0.0, 1.0]]), "lattice basis must be finite and nonsingular"),
    (lambda: TorusLattice(1, vectors=[[INF, 0.0], [0.0, 1.0]]), "lattice basis must be finite and nonsingular"),
    (lambda: TorusLattice(1, vectors=[[1.0, 2.0], [0.5, 1.0]]), "lattice basis must be finite and nonsingular"),
    (lambda: PseudoHermitianModel(m=1, rho=[[NAN]]), "Ricci matrix must be finite"),
    (lambda: PseudoHermitianModel(m=1, rho=[[INF]]), "Ricci matrix must be finite"),
    (lambda: PseudoHermitianModel(m=1, tau=[[INF]]), "torsion matrix must be finite"),
    (lambda: PseudoHermitianModel(m=1, tau=[[NAN]]), "torsion matrix must be finite"),
    (lambda: PseudoHermitianModel(m=1, curvature=np.full((2, 2, 2, 2), NAN)), "curvature components must be finite"),
    (lambda: PseudoHermitianModel(m=2, scal_w=NAN), "Webster scalar scal_w must be finite"),
    (lambda: PseudoHermitianModel(m=2, scal_w=INF), "Webster scalar scal_w must be finite"),
    (lambda: PseudoHermitianModel(m=2, scal_h=NAN), "base scalar curvature scal_h must be finite"),
    (lambda: PseudoHermitianModel(m=2, scal_h=-INF), "base scalar curvature scal_h must be finite"),
], ids=["lattice nan", "lattice inf", "lattice singular", "rho nan", "rho inf", "tau inf", "tau nan", "curvature nan",
        "scal_w nan", "scal_w inf", "scal_h nan", "scal_h -inf"])
def test_nonfinite_model_data_is_refused(build, message):
    # abs(det) < 1e-12 and the Hermitian test are both false for NaN, so a NaN lattice built a space with NaN labels;
    # a NaN scal_w read as a NaN Ricci consistency and a q=1 vanishing verdict of not_forced
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("m, basis, accepted", [
    (2, 1e-4 * np.eye(4), True),  # condition number 1, determinant 1e-16
    (3, 0.003 * np.eye(6), True),  # condition number 1, determinant 7.3e-16
    (2, np.diag([1e8, 1e8, 1e8, 1e-20]), False),  # condition number 1e28, determinant 1e4
], ids=["1e-4 I", "0.003 I", "cond 1e28"])
def test_lattice_nonsingularity_is_scale_free(m, basis, accepted):
    # |det| < 1e-12 refused a small square lattice and accepted one whose dual frequencies reached 6.3e20
    if not accepted:
        with pytest.raises(ValueError, match="^lattice basis must be finite and nonsingular$"):
            TorusLattice(m, vectors=basis)
        return
    freqs = TorusLattice(m, vectors=basis).dual_frequencies(1)
    np.testing.assert_allclose(freqs, TorusLattice(m).dual_frequencies(1) / basis[0, 0], rtol=1e-15)


def test_dirac_kernel_memo_does_not_read_true_as_one():
    # True == 1.0, so any lookup keyed on the tolerance before the check would return the tol=1.0 counts
    space = SectionSpace(heisenberg_model(1, k=0))
    dirac_kernel(space, tol=1.0)
    with pytest.raises(ValueError, match="kernel tolerance must .*got True"):
        dirac_kernel(space, tol=True)


def _bool_checks(path):
    """(innermost enclosing function or None, line) of every isinstance(x, bool) call in the file."""
    tree = ast.parse(path.read_text())
    funcs = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance" \
                and len(node.args) == 2:
            types = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(isinstance(t, ast.Name) and t.id == "bool" for t in types):
                inner = [f for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                yield (max(inner, key=lambda f: f.lineno).name if inner else None), node.lineno


def test_the_bool_rule_is_written_in_one_place():
    """The library's argument guards are clifford's two helpers; the CLI's config and cell-format helpers own theirs."""
    allowed = {("clifford.py", "_integer"), ("clifford.py", "_positive"), ("cli.py", "_expect_int"),
               ("cli.py", "_expect_positive"), ("cli.py", "_format_cell")}
    found = {(path.name, func): line for path in sorted(Path(crspin.__file__).parent.glob("*.py"))
             for func, line in _bool_checks(path)}
    assert {("clifford.py", "_integer"), ("clifford.py", "_positive")} <= set(found)
    stray = {key: line for key, line in found.items() if key not in allowed}
    assert not stray, f"isinstance(..., bool) outside the argument guards: {stray}"
