"""Check one crspin process's artifacts against the recorded reference.

No byte comparison: a legitimate reassociation of floating-point sums must
not fail the benchmark.  What must hold:

* the exit code and every check's ``passed``/``error`` equal the reference;
* kernel dims, cohomology dims (spectral and analytic), vanishing statuses
  and clauses, spectral clashes and the obstruction status equal the
  reference, as do the names of the residuals and defects reported;
* every residual and defect stays within its tolerance.

``spurious`` counts and the text of shell warnings are left out on
purpose: they are truncation diagnostics expected to change.
"""

from __future__ import annotations

import json
from pathlib import Path

# crspin's documented defaults; the generated configs set no tolerances
TOLERANCES = {"algebraic": 1e-12, "dual_assembly": 1e-10, "spectral": 1e-8, "conformal": 1e-9}
ALGEBRAIC_RESIDUALS = {"dirac_plus_squared", "dirac_minus_squared", "adjoint_defect", "grading_defect"}


def digest(out_dir) -> dict:
    """The parts of every ``*_report.json`` that must equal the reference."""
    out = {}
    for path in sorted(Path(out_dir).glob("*_report.json")):
        report = json.loads(path.read_text())
        results = report["results"]
        entry = {"passed": report["passed"], "error": report["error"]}
        check = report["check"]
        if check == "identities":
            entry["residuals"] = {sector: sorted(values) for sector, values in results["sectors"].items()}
        elif check == "spectrum":
            entry["kernel_dims"] = {
                sector: {q: count["dim"] for q, count in data["kernel"].items()}
                for sector, data in results["sectors"].items()
            }
        elif check == "cohomology":
            entry["dims"] = results["dims"]
            entry["dims_analytic"] = results.get("dims_analytic")
        elif check == "vanishing":
            entry["verdicts"] = [[v["q"], v["status"], v["clause"]] for v in results["verdicts"]]
            entry["spectral_clashes"] = results["spectral_clashes"]
            entry["obstruction"] = results["obstruction"]["status"]
        elif check == "conformal":
            entry["sectors"] = sorted(results["sectors"])
        out[check] = entry
    return out


def tolerance_failures(out_dir) -> list[str]:
    """Residuals and defects above their tolerance, one message each."""
    failures = []
    out = Path(out_dir)

    def load(check):
        path = out / f"{check}_report.json"
        return json.loads(path.read_text())["results"] if path.exists() else None

    identities = load("identities")
    for sector, values in (identities or {}).get("sectors", {}).items():
        for name, value in values.items():
            tol = TOLERANCES["algebraic" if name in ALGEBRAIC_RESIDUALS else "dual_assembly"]
            if not value <= tol:
                failures.append(f"identities sector {sector} {name} = {value:.3e} above {tol:.0e}")
    spectrum = load("spectrum")
    if spectrum is not None and not spectrum["min_eigenvalue"] >= -TOLERANCES["spectral"]:
        failures.append(f"spectrum min eigenvalue {spectrum['min_eigenvalue']:.3e}")
    conformal = load("conformal")
    for sector, defect in (conformal or {}).get("sectors", {}).items():
        if not defect <= TOLERANCES["conformal"]:
            failures.append(f"conformal sector {sector} defect {defect:.3e} above {TOLERANCES['conformal']:.0e}")
    return failures


def _first_difference(expected, actual, path="") -> str | None:
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            found = _first_difference(expected.get(key), actual.get(key), f"{path}.{key}")
            if found:
                return found
        return None
    if expected != actual:
        return f"{path.lstrip('.')}: expected {expected!r}, got {actual!r}"
    return None


def problems(out_dir, exit_code: int, reference: dict | None) -> list[str]:
    """Everything wrong with one process's outcome; empty when it is correct."""
    if reference is None:
        return ["no recorded reference for this config"]
    found = []
    if exit_code != reference["exit"]:
        found.append(f"exit code {exit_code}, expected {reference['exit']}")
    try:
        difference = _first_difference(reference["digest"], digest(out_dir))
        found.extend(tolerance_failures(out_dir))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return found + [f"unreadable report: {exc!r}"]
    if difference:
        found.append(difference)
    return found
