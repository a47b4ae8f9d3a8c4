from fractions import Fraction

import numpy as np
import pytest

from crspin.cohomology import CohomologyTable, TableRow, shift_table
from crspin.models import (
    ModelFlags,
    PseudoHermitianModel,
    cr_alpha_bundle,
    heisenberg_model,
    sphere_model,
)
from crspin.sections import SectionSpace
from crspin.vanishing import (
    CLAUSE_PRIORITY,
    obstruction_check,
    qhat,
    spectral_consistency,
    vanishing_verdicts,
)


def test_qhat_worked_examples():
    assert qhat(4, -3) == 1
    assert isinstance(qhat(4, -3), Fraction)
    assert qhat(2, 0) == 1
    assert qhat(3, 0) == Fraction(3, 2)
    assert qhat(2, 2) == Fraction(3, 2)
    for m in (2, 4, 6):
        assert qhat(m, 0) == Fraction(m, 2)


def test_qhat_degree_sits_at_threshold_weight():
    # mu at the distinguished degree equals -m ell / (m+2), exactly
    for m in range(1, 6):
        for ell in range(-m - 3, m + 4):
            assert Fraction(m) - 2 * qhat(m, ell) == Fraction(-m * ell, m + 2)


def test_qhat_validates_inputs():
    with pytest.raises(ValueError):
        qhat(0, 1)
    with pytest.raises(ValueError):
        qhat(2, 1.5)


@pytest.mark.parametrize("m, p, message", [
    (True, 1, "CR dimension m must be a positive integer, got True"),
    (2.0, 1, "CR dimension m must be a positive integer, got 2.0"),
    (0, 0, "CR dimension m must be a positive integer, got 0"),
    (2, True, "weight must be an integer, got True"),
    (2, 1.0, "weight must be an integer, got 1.0"),
])
def test_qhat_refuses_what_is_no_dimension_or_weight(m, p, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        qhat(m, p)


def test_clause_priority_endpoints():
    assert CLAUSE_PRIORITY[0] == "vani-a1"
    assert CLAUSE_PRIORITY[-1] == "vani-Q"


def test_sphere_m3_untwisted_verdicts():
    report = vanishing_verdicts(sphere_model(3), 0)
    assert report.m == 3 and report.ell == 0
    assert report.verdict(0).status == "extremal_exempt"
    assert report.verdict(3).status == "extremal_exempt"
    v1 = report.verdict(1)
    assert v1.status == "forced_zero"
    assert v1.clause == "vani-a2"
    assert v1.mu == 1
    v2 = report.verdict(2)
    assert v2.status == "forced_zero"
    assert v2.clause == "vani-a3"
    assert v2.mu == -1
    assert report.forced() == [1, 2]


def test_sphere_m2_untwisted_middle_block():
    report = vanishing_verdicts(sphere_model(2), 0)
    v = report.verdict(1)
    # the middle block sits exactly on the threshold weight
    assert v.clause == "vani-a1"
    for clause in ("vani-c", "VanKR-2", "VanKR-4", "RegVan-a", "vani-Q"):
        assert clause in v.satisfied
    assert v.witnesses["scal_h"] == 1.0
    assert v.witnesses["mu_threshold"] == "0"


def test_sphere_canonical_weight_uses_kohn_rossi_clause():
    # at ell = m+2 the scalar prefactor of the threshold clauses vanishes,
    # so only the untwisted Kohn-Rossi clause (and direct positivity) apply
    report = vanishing_verdicts(sphere_model(2), 4)
    v = report.verdict(1)
    assert v.status == "forced_zero"
    assert v.clause == "VanKR-3"
    assert v.satisfied == ["VanKR-3", "vani-Q"]


def test_sphere_opposite_canonical_weight_direct_positivity():
    report = vanishing_verdicts(sphere_model(2), -4)
    v = report.verdict(1)
    assert v.status == "forced_zero"
    assert v.clause == "vani-Q"
    assert v.satisfied == ["vani-Q"]
    # pseudo-Einstein curvature term eigenvalue: scal/(4m) (m^2-mu^2)/m
    assert np.isclose(v.witnesses["curvature_term_min"], 0.25, atol=1e-12)


def test_sphere_full_weight_sweep_forced():
    for m in (2, 3):
        model = sphere_model(m)
        for ell in range(-(m + 2), m + 3):
            report = vanishing_verdicts(model, ell)
            assert report.verdict(0).status == "extremal_exempt"
            assert report.verdict(m).status == "extremal_exempt"
            for q in range(1, m):
                v = report.verdict(q)
                assert v.status == "forced_zero", (m, ell, q)
                assert v.clause in CLAUSE_PRIORITY


def test_flat_models_fire_no_clause():
    models = [heisenberg_model(1), heisenberg_model(2, k=1), cr_alpha_bundle(2, c=1, s=1)]
    for model in models:
        for ell in (-3, 0, 2):
            report = vanishing_verdicts(model, ell)
            assert report.forced() == []
            for v in report.verdicts:
                if v.q in (0, model.m):
                    assert v.status == "extremal_exempt"
                else:
                    assert v.status == "not_forced"
                    assert v.satisfied == []


def test_threshold_trichotomy_covers_small_weights():
    # positive-definite Ricci with scal > 0 and |ell| < m+2: one of the
    # three threshold clauses always applies on interior blocks
    for m in (2, 3, 4):
        model = PseudoHermitianModel(m=m, rho=np.eye(m), scal_w=float(4 * m))
        for ell in range(-m - 1, m + 2):
            report = vanishing_verdicts(model, ell)
            for q in range(1, m):
                v = report.verdict(q)
                assert v.status == "forced_zero"
                assert v.clause in ("vani-a1", "vani-a2", "vani-a3")


def test_negative_semidefinite_umbrella_clauses():
    model = PseudoHermitianModel(m=2, rho=-np.eye(2), scal_w=-8.0)
    report = vanishing_verdicts(model, 5)
    v = report.verdict(1)
    assert v.status == "forced_zero"
    assert v.clause == "vani-a2"
    assert v.satisfied == ["vani-a2", "vani-b", "VanKR-1"]
    assert v.witnesses["a2_prefactor"] == 8.0


def test_indefinite_ricci_blocks_semidefinite_clauses():
    model = PseudoHermitianModel(m=2, rho=np.diag([1.0, -1.0]), scal_w=1.0)
    report = vanishing_verdicts(model, 2)
    v = report.verdict(1)
    assert v.status == "not_forced"
    assert v.satisfied == []


def test_regvan_missing_base_scalar_errors():
    model = PseudoHermitianModel(
        m=2,
        rho=np.zeros((2, 2)),
        flags=ModelFlags(torsion_free=True, regular=True),
        scal_h=None,
    )
    with pytest.raises(ValueError, match="scal_h"):
        vanishing_verdicts(model, 0)


def test_extremal_blocks_always_exempt():
    cases = [
        (sphere_model(2), 4),
        (sphere_model(3), -5),
        (heisenberg_model(2), 0),
        (PseudoHermitianModel(m=2, rho=-np.eye(2), scal_w=-8.0), 7),
    ]
    for model, ell in cases:
        report = vanishing_verdicts(model, ell)
        for q in (0, model.m):
            v = report.verdict(q)
            assert v.status == "extremal_exempt"
            assert v.clause is None


def test_verdict_weight_validation():
    with pytest.raises(ValueError):
        vanishing_verdicts(sphere_model(2), 1.5)


def test_report_table_and_verdict_lookup():
    report = vanishing_verdicts(sphere_model(3), 0)
    table = report.to_table()
    assert "extremal_exempt" in table
    assert "vani-a2" in table
    with pytest.raises(KeyError):
        report.verdict(7)


def test_obstruction_flat_torus_weight_zero():
    model = cr_alpha_bundle(2, c=1, s=0)
    table = shift_table(model, s_range=(0,))
    verdict = obstruction_check(model, 0, table)
    assert verdict.status == "obstructed"
    assert verdict.q_hat == "1"
    assert "positive Webster scalar curvature" in verdict.message


def test_obstruction_not_applicable_large_weight():
    verdict = obstruction_check(sphere_model(2), 4, CohomologyTable(model_name="unused"))
    assert verdict.status == "not_applicable"
    assert "not below" in verdict.message


def test_obstruction_not_applicable_fractional_degree():
    verdict = obstruction_check(heisenberg_model(3), 0, CohomologyTable(model_name="unused"))
    assert verdict.status == "not_applicable"
    assert verdict.q_hat == "3/2"


def test_obstruction_refuses_lower_bounds():
    table = CohomologyTable(
        model_name="manual",
        rows=[TableRow(q=1, s=0, dim=0, method="spectral", status="lower-bound")],
    )
    with pytest.raises(RuntimeError, match="enlarge the truncation"):
        obstruction_check(heisenberg_model(2), 0, table)


def test_obstruction_certified_positive_wins_over_refusal():
    table = CohomologyTable(
        model_name="manual",
        rows=[
            TableRow(q=1, s=-1, dim=0, method="spectral", status="lower-bound"),
            TableRow(q=1, s=0, dim=3, method="analytic", status="certified"),
        ],
    )
    verdict = obstruction_check(heisenberg_model(2), 0, table)
    assert verdict.status == "obstructed"


def test_obstruction_not_obstructed_on_certified_zeros():
    table = CohomologyTable(
        model_name="manual",
        rows=[
            TableRow(q=1, s=0, dim=0, method="analytic", status="certified"),
            TableRow(q=1, s=0, dim=0, method="spectral", status="certified"),
            TableRow(q=0, s=0, dim=5, method="analytic", status="lower-bound"),
        ],
    )
    verdict = obstruction_check(heisenberg_model(2), 0, table)
    assert verdict.status == "not_obstructed"
    assert "s=0,analytic" in verdict.entries


def test_obstruction_empty_degree_errors():
    table = CohomologyTable(
        model_name="manual",
        rows=[TableRow(q=0, s=0, dim=1, method="analytic", status="lower-bound")],
    )
    with pytest.raises(ValueError, match="no rows"):
        obstruction_check(heisenberg_model(2), 0, table)


def test_curvature_term_bound_on_shipped_models():
    # positive semidefinite Ricci with m ell + (m+2) mu >= 0 bounds the
    # curvature term below by (m-mu)(m+2-ell)/(m(m+2)) scal/4
    from crspin.weitzenboeck import curvature_term

    for m in (2, 3):
        model = sphere_model(m)
        for ell in range(-(m + 2), m + 3):
            for q in range(m + 1):
                mu = m - 2 * q
                if m * ell + (m + 2) * mu < 0:
                    continue
                bound = (m - mu) * (m + 2 - ell) / (m * (m + 2)) * model.scal_w / 4.0
                term_min = np.linalg.eigvalsh(curvature_term(model, ell, q)).min()
                assert term_min >= bound - 1e-10


def test_spectral_consistency_on_flat_bundle():
    model = cr_alpha_bundle(2, c=1, s=1)
    report = vanishing_verdicts(model, 0)
    space = SectionSpace(model)
    assert spectral_consistency(report, space) == {}


def test_spectral_consistency_dimension_mismatch():
    report = vanishing_verdicts(sphere_model(3), 0)
    space = SectionSpace(cr_alpha_bundle(2, c=1, s=1))
    with pytest.raises(ValueError, match="dimension"):
        spectral_consistency(report, space)
