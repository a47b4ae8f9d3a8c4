"""Decision engine for the vanishing theorems.

Evaluates, per weight block, the hypotheses of every vanishing clause
against a model's curvature data and emits a verdict table: which blocks
carry no harmonic spinors (equivalently, which twisted Kohn-Rossi groups
are forced to vanish), and by which clause.  On the homogeneous models
the pointwise quantifiers collapse: "semidefinite on M" becomes a sign
condition on the Ricci eigenvalues and "nonnegative, positive somewhere"
becomes plain positivity of the constant.

Clause names used throughout (and in the emitted artifacts):

  vani-a1    weight block sits exactly at mu = -m ell/(m+2), scal > 0
  vani-a2    block above the threshold, Ricci semidefinite,
             (m+2-ell) scal > 0
  vani-a3    block below the threshold, Ricci semidefinite,
             (m+2+ell) scal > 0
  vani-b     |ell| > m+2, Ricci negative semidefinite and nonzero
  vani-c     |ell| < m+2, Ricci positive semidefinite and nonzero
  VanKR-1/2  the Kohn-Rossi form of vani-b/vani-c (m >= 2, interior q)
  VanKR-3    Ricci positive definite, canonical (untwisted) structure
  VanKR-4    spin case, even m, middle degree, scal > 0
  RegVan-a   regular torsion-free circle bundle over a base with
             scal_h > 0, at the distinguished degree
  vani-Q     direct positive definiteness of the curvature term (covers
             the ell = -(m+2) corner no named clause reaches)

Extremal blocks q in {0, m} are exempt: no clause ever forces them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .clifford import _integer
from .cohomology import dirac_kernel
from .models import PseudoHermitianModel
from .weitzenboeck import curvature_term

__all__ = [
    "VanishingVerdict",
    "VanishingReport",
    "ObstructionVerdict",
    "qhat",
    "vanishing_verdicts",
    "obstruction_check",
    "spectral_consistency",
    "kernel_clashes",
    "CLAUSE_PRIORITY",
]

CLAUSE_PRIORITY = (
    "vani-a1",
    "vani-a2",
    "vani-a3",
    "vani-b",
    "vani-c",
    "VanKR-1",
    "VanKR-2",
    "VanKR-3",
    "VanKR-4",
    "RegVan-a",
    "vani-Q",
)

_EIG_TOL = 1e-12


def qhat(m: int, ell: int) -> Fraction:
    """Distinguished form degree m (m + ell + 2) / (2 (m + 2)), exact.

    Integrality (denominator 1) is exactly the condition under which the
    obstruction corollary applies.
    """
    _integer(m, "CR dimension m", low=1)
    _integer(ell, "weight")
    return Fraction(m * (m + ell + 2), 2 * (m + 2))


@dataclass
class VanishingVerdict:
    q: int
    mu: int
    status: str  # "forced_zero" | "not_forced" | "extremal_exempt"
    clause: str | None = None
    satisfied: list = field(default_factory=list)
    witnesses: dict = field(default_factory=dict)


@dataclass
class VanishingReport:
    model_name: str
    m: int
    ell: int
    verdicts: list = field(default_factory=list)

    def verdict(self, q: int) -> VanishingVerdict:
        for v in self.verdicts:
            if v.q == q:
                return v
        raise KeyError(f"no verdict for q={q}")

    def forced(self) -> list:
        return [v.q for v in self.verdicts if v.status == "forced_zero"]

    def to_table(self) -> str:
        lines = [f"vanishing report: {self.model_name}, weight ell={self.ell}"]
        lines.append(f"{'q':>3} {'mu':>4}  {'verdict':<16} {'clause':<10} also satisfied")
        for v in self.verdicts:
            also = ", ".join(c for c in v.satisfied if c != v.clause)
            lines.append(
                f"{v.q:>3} {v.mu:>4}  {v.status:<16} {v.clause or '-':<10} {also}"
            )
        return "\n".join(lines) + "\n"


def _ricci_profile(model: PseudoHermitianModel) -> dict:
    eigs = np.linalg.eigvalsh(model.rho)
    return {
        "rho_min": float(eigs.min()),
        "rho_max": float(eigs.max()),
        "psd": bool(eigs.min() >= -_EIG_TOL),
        "nsd": bool(eigs.max() <= _EIG_TOL),
        "pdef": bool(eigs.min() > _EIG_TOL),
        "nonzero": bool(np.abs(eigs).max() > _EIG_TOL),
    }


def _evaluate_clauses(model, ell, q, profile):
    """All satisfied clauses at interior grade q, with their witnesses."""
    m = model.m
    mu = m - 2 * q
    scal = float(model.scal_w)
    threshold = Fraction(-m * ell, m + 2)
    semidefinite = profile["psd"] or profile["nsd"]
    satisfied = []
    witnesses = {
        "mu": mu,
        "mu_threshold": str(threshold),
        "scal_w": scal,
        "rho_min": profile["rho_min"],
        "rho_max": profile["rho_max"],
    }

    if Fraction(mu) == threshold and scal > 0:
        satisfied.append("vani-a1")
    if Fraction(mu) > threshold and semidefinite and (m + 2 - ell) * scal > 0:
        satisfied.append("vani-a2")
        witnesses["a2_prefactor"] = (m + 2 - ell) * scal
    if Fraction(mu) < threshold and semidefinite and (m + 2 + ell) * scal > 0:
        satisfied.append("vani-a3")
        witnesses["a3_prefactor"] = (m + 2 + ell) * scal
    if abs(ell) > m + 2 and profile["nsd"] and profile["nonzero"]:
        satisfied.append("vani-b")
    if abs(ell) < m + 2 and profile["psd"] and profile["nonzero"]:
        satisfied.append("vani-c")

    interior = m >= 2 and 1 <= q <= m - 1
    if interior and abs(ell) > m + 2 and profile["nsd"] and profile["nonzero"]:
        satisfied.append("VanKR-1")
    if interior and abs(ell) < m + 2 and profile["psd"] and profile["nonzero"]:
        satisfied.append("VanKR-2")
    if interior and profile["pdef"] and ell == m + 2:
        # weight m+2 is the canonical structure: the twist line bundle
        # is trivial, which is what the untwisted Kohn-Rossi clause needs
        satisfied.append("VanKR-3")
    if interior and m % 2 == 0 and ell == 0 and q == m // 2 and scal > 0:
        satisfied.append("VanKR-4")

    if model.flags.regular and model.flags.torsion_free and m >= 2:
        if model.scal_h is None:
            raise ValueError(
                "regular circle-bundle clauses need the base scalar curvature "
                "(scal_h) on a regular torsion-free model"
            )
        degree = qhat(m, ell)
        if (
            abs(ell) < m + 2
            and degree.denominator == 1
            and q == int(degree)
            and model.scal_h > 0
        ):
            satisfied.append("RegVan-a")
            witnesses["scal_h"] = float(model.scal_h)

    term_min = float(np.linalg.eigvalsh(curvature_term(model, ell, q)).min())
    witnesses["curvature_term_min"] = term_min
    if term_min > _EIG_TOL:
        satisfied.append("vani-Q")

    return satisfied, witnesses


def vanishing_verdicts(model: PseudoHermitianModel, ell: int) -> VanishingReport:
    """Evaluate every vanishing clause on the model at the given weight.

    Each non-extremal grade receives the strongest applicable clause in
    the fixed priority order (the remaining satisfied clauses are listed
    alongside); extremal grades are exempt by construction.
    """
    _integer(ell, "weight")
    m = model.m
    profile = _ricci_profile(model)
    report = VanishingReport(model_name=model.describe(), m=m, ell=ell)
    for q in range(m + 1):
        mu = m - 2 * q
        if q in (0, m):
            report.verdicts.append(
                VanishingVerdict(q=q, mu=mu, status="extremal_exempt", witnesses={"mu": mu})
            )
            continue
        satisfied, witnesses = _evaluate_clauses(model, ell, q, profile)
        ranked = [c for c in CLAUSE_PRIORITY if c in satisfied]
        if ranked:
            report.verdicts.append(
                VanishingVerdict(
                    q=q,
                    mu=mu,
                    status="forced_zero",
                    clause=ranked[0],
                    satisfied=ranked,
                    witnesses=witnesses,
                )
            )
        else:
            report.verdicts.append(
                VanishingVerdict(q=q, mu=mu, status="not_forced", witnesses=witnesses)
            )
    return report


@dataclass
class ObstructionVerdict:
    status: str  # "obstructed" | "not_obstructed" | "not_applicable"
    message: str
    q_hat: str
    entries: dict = field(default_factory=dict)


def obstruction_check(model: PseudoHermitianModel, ell: int, hq_table) -> ObstructionVerdict:
    """Positive-scalar-curvature obstruction from a cohomology table.

    Applies when |ell| < m+2 and the distinguished degree is integral: a
    certified nonzero dimension there obstructs every adapted structure
    of positive Webster scalar curvature.  Lower-bound-only entries at
    the distinguished degree refuse a verdict rather than guessing.
    """
    m = model.m
    degree = qhat(m, ell)
    if abs(ell) >= m + 2:
        return ObstructionVerdict(
            status="not_applicable",
            message=f"|ell| = {abs(ell)} is not below m+2 = {m + 2}",
            q_hat=str(degree),
        )
    if degree.denominator != 1:
        return ObstructionVerdict(
            status="not_applicable",
            message=f"distinguished degree {degree} is not an integer",
            q_hat=str(degree),
        )
    q = int(degree)

    entries = {}
    uncertified = []
    for row in hq_table.sorted_rows():
        if row.q != q:
            continue
        key = f"s={row.s},{row.method}"
        entries[key] = {"dim": row.dim, "status": row.status}
        if row.status == "certified" and row.dim > 0:
            return ObstructionVerdict(
                status="obstructed",
                message=(
                    f"h_{q} > 0 (certified): no adapted pseudo-Hermitian structure "
                    "of positive Webster scalar curvature exists on this CR structure"
                ),
                q_hat=str(degree),
                entries=entries,
            )
        if row.status != "certified":
            uncertified.append(key)
    if not entries:
        raise ValueError(f"cohomology table has no rows at the distinguished degree q={q}")
    if uncertified:
        raise RuntimeError(
            f"entries at q={q} are lower bounds only ({', '.join(sorted(uncertified))}); "
            "enlarge the truncation before drawing obstruction conclusions"
        )
    return ObstructionVerdict(
        status="not_obstructed",
        message=f"all certified dimensions at q={q} vanish",
        q_hat=str(degree),
        entries=entries,
    )


def spectral_consistency(report: VanishingReport, space, tol: float = 1e-8) -> dict:
    """``kernel_clashes`` of the space's ``dirac_kernel``; empty means consistent."""
    if space.m != report.m:
        raise ValueError("section space and vanishing report have different CR dimension")
    return kernel_clashes(report, dirac_kernel(space, tol=tol))


def kernel_clashes(report: VanishingReport, counts: dict) -> dict:
    """{q: kernel dimension} of the per-degree kernel ``counts`` at every forced_zero verdict they contradict."""
    return {v.q: counts[v.q].dim for v in report.verdicts if v.status == "forced_zero" and counts[v.q].dim > 0}
