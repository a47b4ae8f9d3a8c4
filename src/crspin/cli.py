"""Batch driver: run check suites on a configured model and emit artifacts.

Usage::

    crspin run --config cfg.json [--check NAME ...] [--strict] [--out DIR] [--format csv|json]

Config schema (JSON object; unknown keys are rejected with their path, and a
kind takes the model keys its class declares, ``models.MODEL_KINDS[kind].config_keys``):

    {
      "model": {
        "kind": "heisenberg" | "torus_bundle" | "sphere",   required
        "m": <int >= 1>,                                    required
        "ell": <int, |ell| <= 2**53>,                        default 0
        "sectors": [<distinct int, |s| <= 2**53>, ...],      default [0]
            weight sectors to realize: k for the Heisenberg quotient,
            s for the torus bundle (not accepted for the sphere)
        "flux": <int, 1 <= flux <= 2**53>,                  torus_bundle only, default 1
        "scal_w": <positive finite number>,                 sphere only, default 1.0
        "truncation": {"fourier_radius": <int >= 1>,
                       "ladder_levels": <int >= 2>}         optional
      },
      "checks": ["identities", "spectrum", "cohomology",
                 "vanishing", "conformal"],                 optional; --check overrides
      "tolerances": {                                       optional, all positive, finite
        "algebraic": 1e-12,      exact operator identities
        "dual_assembly": 1e-10,  independent assembly routes, Weitzenboeck residuals
        "spectral": 1e-8,        kernel and eigenvalue thresholds
        "conformal": 1e-9        covariance defects
      }
    }

Every check writes ``<name>_report.json`` plus a table artifact in the
chosen format into the output directory.  Outputs are deterministic:
fixed basis ordering, seedless dense eigensolvers, sorted JSON keys, and
CSV floats in full-precision scientific notation, so reruns of the same
config are byte-identical.  Exit status: 0 when every requested check
passes, 1 when any check fails or errors, 2 on config problems and on an
``--out`` directory that cannot be made or cleared, before any check runs.
Clearing removes every file a run can write (``_ARTIFACT_NAME``) and
nothing else, so a reused directory holds only the latest run's files.
At exit a run process freezes the GC (``gc.freeze`` from ``atexit``), so
CPython's final cyclic sweep skips the ~22 000 objects numpy and the
stdlib leave tracked: the OS frees them anyway, and the sweep took ~17 ms.

Truncation diagnostics (null vectors in per-slot blocks the top cutoff
cut into, counted as ``spurious``) are reported as warnings; under
``--strict`` they fail the run.

The checks of one run share a per-run memo, the one per-sector cache:
each sector's SectionSpace is built once, and on its first use the one
sector pass (``weitzenboeck.sector_pass``, which the library's readers
call too) gathers D's keys, joins D^2 once, and reads every reduction
off its rows, whichever checks run: the shift defects of box = D^2 / 2
(identities, the shift table's guard), the identities rows, and the kernel
counts off D^2's certified diagonal (spectrum, vanishing, the cohomology
table).  No check forms a full-space matrix.  A check that reads a
sector whose pass raised reports that error; a ``MemoryError`` names its
reader ("D^2", "kernel counts", ...).  A term off its degree shift, or
D- off the adjoint of D+, is an identities row that the kernel and shift
table readers refuse (``SectorPass.graded``), as they refuse a D^2 off
its diagonal.
The conformal check evaluates exact trigonometric polynomials and their
frame derivatives at fixed sample points and depends only on the CR
dimension, not on the sector, so it is evaluated once and that one value
is reported under every sector key.
"""

from __future__ import annotations

import argparse
import atexit
import csv
import gc
import io
import json
import math
import re
import sys
from dataclasses import asdict, dataclass, field
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from .clifford import TOLERANCE_DEFAULTS
from .cohomology import shift_table
from .models import MODEL_KINDS, default_truncation
from .operators import cluster_eigenvalues, nabla_T_defect, sub_laplacian_defect
from .sections import SectionSpace
from .weitzenboeck import ConformalScale, SectorPass, conformal_check, sector_pass

__all__ = ["main", "run", "load_config", "ConfigError", "CHECK_NAMES"]

CHECK_NAMES = ("identities", "spectrum", "cohomology", "vanishing", "conformal")

# every file a run can write: the check reports, and the tables in either format
_ARTIFACT_NAME = re.compile(rf"(?:{'|'.join(CHECK_NAMES)})_report\.json|(?:identities_residuals|cohomology_table"
                            r"|spectrum_sector(?:0|-?[1-9][0-9]*)|vanishing_table|conformal_defects)\.(?:csv|json)")


class ConfigError(Exception):
    """Config validation failure; the message carries the offending key path."""


def _expect_mapping(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"at {path}: expected an object, got {type(obj).__name__}")


def _expect_int(obj, path, low=None):
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(f"at {path}: expected an integer, got {obj!r}")
    if low is not None and obj < low:
        raise ConfigError(f"at {path}: must be >= {low}, got {obj}")
    return obj


def _expect_exact(obj, path):
    # above 2**53 an integer is no longer an exact float, and a sector's t = -s/2 reads it as one
    if abs(_expect_int(obj, path)) > 2**53:
        raise ConfigError(f"at {path}: must be at most 2**53 in magnitude")
    return obj


def _expect_positive(obj, path):
    # json reads NaN and Infinity, which pass a plain comparison with 0
    if isinstance(obj, bool) or not isinstance(obj, (int, float)) or not 0 < obj < math.inf:
        raise ConfigError(f"at {path}: must be a positive finite number, got {obj!r}")
    return float(obj)


def _reject_unknown(obj, allowed, path):
    for key in sorted(set(obj) - set(allowed)):
        raise ConfigError(f"at {path}.{key}: unknown key")


def _expect_sectors(sectors, m):
    if not isinstance(sectors, list) or not sectors:
        raise ConfigError(f"at model.sectors: expected a nonempty list, got {sectors!r}")
    sectors = [_expect_exact(s, f"model.sectors[{i}]") for i, s in enumerate(sectors)]
    for i, s in enumerate(sectors):
        if s in sectors[:i]:
            raise ConfigError(f"at model.sectors[{i}]: duplicate sector {s}")
    return sectors


def _expect_flux(flux, m):
    if _expect_exact(flux, "model.flux") <= 0:  # see models.cr_alpha_bundle
        raise ConfigError(f"at model.flux: must be positive, got {flux}")
    return flux


def _expect_truncation(trunc_raw, m):
    _expect_mapping(trunc_raw, "model.truncation")
    _reject_unknown(trunc_raw, {"fourier_radius", "ladder_levels"}, "model.truncation")
    trunc = asdict(default_truncation(m)) | trunc_raw  # an omitted field takes the model's default
    return {key: _expect_int(trunc[key], f"model.truncation.{key}", low=low)
            for key, low in (("fourier_radius", 1), ("ladder_levels", 2))}


# each model key's default and validator, run on the keys a kind's class declares (an omitted truncation stays out)
_MODEL_VALUES = {
    "scal_w": (1.0, lambda value, m: _expect_positive(value, "model.scal_w")),
    "sectors": ([0], _expect_sectors),
    "flux": (1, _expect_flux),
    "truncation": (None, _expect_truncation),
}


def load_config(path: str) -> dict:
    """Parse and validate a config file into a normalized dict."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"parse error at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ConfigError(f"parse error: {exc}") from exc
    _expect_mapping(raw, "top level")
    _reject_unknown(raw, {"model", "checks", "tolerances"}, "config")

    if "model" not in raw:
        raise ConfigError("at config.model: required key missing")
    model_raw = raw["model"]
    _expect_mapping(model_raw, "model")
    kind = model_raw.get("kind")
    if not isinstance(kind, str) or kind not in MODEL_KINDS:  # a json list or object is unhashable: no dict lookup
        raise ConfigError(f"at model.kind: expected one of {sorted(MODEL_KINDS)}, got {kind!r}")
    _reject_unknown(model_raw, {"kind", "m", "ell", *MODEL_KINDS[kind].config_keys}, "model")
    if "m" not in model_raw:
        raise ConfigError("at model.m: required key missing")
    m = _expect_int(model_raw["m"], "model.m", low=1)
    ell = _expect_exact(model_raw.get("ell", 0), "model.ell")

    model = {"kind": kind, "m": m, "ell": ell}
    for key in MODEL_KINDS[kind].config_keys:
        default, validate = _MODEL_VALUES[key]
        if key in model_raw or default is not None:
            model[key] = validate(model_raw.get(key, default), m)

    checks = raw.get("checks", [])
    if not isinstance(checks, list):
        raise ConfigError(f"at config.checks: expected a list, got {checks!r}")
    for name in checks:
        if name not in CHECK_NAMES:
            raise ConfigError(f"at config.checks: unknown check {name!r} (choices: {', '.join(CHECK_NAMES)})")

    tolerances = dict(TOLERANCE_DEFAULTS)
    tol_raw = raw.get("tolerances", {})
    _expect_mapping(tol_raw, "tolerances")
    _reject_unknown(tol_raw, TOLERANCE_DEFAULTS, "tolerances")
    for key, value in tol_raw.items():
        tolerances[key] = _expect_positive(value, f"tolerances.{key}")

    return {"model": model, "checks": list(checks), "tolerances": tolerances}


def build_model(config: dict):
    try:
        return MODEL_KINDS[config["model"]["kind"]].from_config(config["model"])
    except ValueError as exc:
        raise ConfigError(f"at model: {exc}") from exc


@dataclass
class CheckResult:
    name: str
    passed: bool
    report: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    error: str | None = None
    detail: str = ""


class _RunMemo:
    """Objects the checks of one run share: sector spaces, one ``sector_pass`` per sector, and the shift table.

    A pass counts kernels at the run's spectral tolerance.  A pass that raises is kept as its exception, without
    the traceback and the context whose frames hold D's keys, and raised again for each later check.  Only
    successful space builds are kept, so a failed build fails each check that asks for it.
    """

    def __init__(self, model, config):
        self.model = model
        self.config = config
        # a model without a sector list (the sphere) reaches SectionSpace, where its class refuses a section space
        self.sectors = config["model"].get("sectors", [None])
        self._spaces = {}
        self._passes = {}

    def space(self, sector) -> SectionSpace:
        if sector not in self._spaces:
            self._spaces[sector] = SectionSpace(self.model, sector=sector)
        return self._spaces[sector]

    def reductions(self, sector) -> SectorPass:
        """The sector's one ``sector_pass``, or the exception it raised."""
        if sector not in self._passes:
            try:
                self._passes[sector] = sector_pass(self.space(sector), self.config["tolerances"]["spectral"])
            except Exception as exc:
                exc.__context__ = None
                self._passes[sector] = exc.with_traceback(None)
        out = self._passes[sector]
        if isinstance(out, Exception):
            raise out.with_traceback(None)
        return out

    @cached_property
    def shift_table(self):
        return shift_table(self.model, s_range=tuple(self.sectors), sector=self.reductions,
                           shift_tol=self.config["tolerances"]["dual_assembly"])


def _check_identities(model, config, memo: _RunMemo) -> CheckResult:
    tol = config["tolerances"]
    rows = []
    per_sector = {}
    for sector in memo.sectors:
        space = memo.space(sector)
        reads = memo.reductions(sector)
        lichnerowicz, covariant = reads.square
        residuals = {(name, "algebraic"): value for name, value in reads.rows.items()}
        residuals.update({
            ("sub_laplacian_routes", "dual_assembly"): sub_laplacian_defect(space),
            ("reeb_routes", "dual_assembly"): float(nabla_T_defect(space)),
            # np.max, not max: a NaN degree must reach the row
            ("sector_identity", "dual_assembly"): np.max(list(reads.shift.values())),
            ("lichnerowicz_residual", "dual_assembly"): lichnerowicz,
        })
        residuals.update({(f"covariant_dirac_residual_ell={ell}", "dual_assembly"): v for ell, v in covariant.items()})
        sector_report = {}
        for (name, tol_key), value in residuals.items():
            value = float(value)
            ok = value <= tol[tol_key]
            rows.append([sector, name, value, tol[tol_key], ok])
            sector_report[name] = value
        per_sector[str(sector)] = sector_report
    failed = [r for r in rows if not r[4]]
    detail = ""
    if failed:
        worst = failed[int(np.argmax([r[2] for r in failed]))]  # the first NaN if there is one
        detail = f"sector {worst[0]} {worst[1]} = {worst[2]:.3e} above {worst[3]:.1e}"
    return CheckResult(
        name="identities",
        passed=not failed,
        report={"sectors": per_sector},
        tables={"identities_residuals": {
            "header": ["sector", "residual", "value", "tolerance", "passed"],
            "rows": rows,
        }},
        detail=detail,
    )


def _check_spectrum(model, config, memo: _RunMemo) -> CheckResult:
    tol = config["tolerances"]
    warnings = []
    per_sector = {}
    tables = {}
    min_eig = np.inf
    for sector in memo.sectors:
        space = memo.space(sector)
        rows = []
        kernels = {}
        for q, count in memo.reductions(sector).graded("kernel").items():
            evals = count.eigenvalues
            # np.minimum, not min: a NaN eigenvalue must fail the check
            min_eig = float(np.minimum(min_eig, np.min(evals, initial=np.inf)))
            for value, mult in cluster_eigenvalues(evals, tol=tol["spectral"]):
                rows.append([q, value, mult])
            kernels[str(q)] = {"dim": count.dim, "spurious": count.spurious}
            if 0 < q < space.m and count.spurious:
                warnings.append(f"sector {sector} q={q}: truncation shell activity (spurious={count.spurious})")
        tables[f"spectrum_sector{sector}"] = {"header": ["q", "eigenvalue", "multiplicity"], "rows": rows}
        per_sector[str(sector)] = {"kernel": kernels}
    passed = min_eig >= -tol["spectral"]
    detail = "" if passed else f"Dirac square has eigenvalue {min_eig:.3e} below -{tol['spectral']:.1e}"
    return CheckResult(
        name="spectrum",
        passed=passed,
        report={"sectors": per_sector, "min_eigenvalue": float(min_eig)},
        tables=tables,
        warnings=warnings,
        detail=detail,
    )


def _check_cohomology(model, config, memo: _RunMemo) -> CheckResult:
    table = memo.shift_table
    analytic = table.dims(method="analytic")
    spectral = table.dims(method="spectral")
    mismatches = {
        key: (analytic[key], spectral[key])
        for key in sorted(set(analytic) & set(spectral))
        if analytic[key] != spectral[key]
    }
    detail = ""
    if mismatches:
        key, (a, b) = next(iter(mismatches.items()))
        detail = f"(q, s)={key}: analytic {a} != spectral {b}"
    report = {
        "dims": {f"q={q},s={s}": dim for (q, s), dim in spectral.items()},
        "notes": sorted(table.notes),
    }
    if analytic:
        report["dims_analytic"] = {f"q={q},s={s}": dim for (q, s), dim in analytic.items()}
    fmt_rows = [[r.q, r.s, r.dim, r.method, r.status] for r in table.sorted_rows()]
    return CheckResult(
        name="cohomology",
        passed=not mismatches,
        report=report,
        tables={"cohomology_table": {
            "header": ["q", "s", "dim", "method", "status"],
            "rows": fmt_rows,
        }},
        detail=detail,
    )


def _check_vanishing(model, config, memo: _RunMemo) -> CheckResult:
    # imported here: a run without this check never loads vanishing or fractions
    from .vanishing import kernel_clashes, obstruction_check, qhat, vanishing_verdicts

    warnings = []
    verdicts = vanishing_verdicts(model, model.ell)
    payload = {"model": verdicts.model_name, "m": verdicts.m, "ell": verdicts.ell,
               "verdicts": [asdict(v) for v in verdicts.verdicts]}
    clashes = {}
    if model.has_section_space:
        for sector in memo.sectors:
            for q, dim in kernel_clashes(verdicts, memo.reductions(sector).graded("kernel")).items():
                clashes[f"sector={sector},q={q}"] = dim
    payload["spectral_clashes"] = clashes

    degree = qhat(model.m, model.ell)
    if model.analytic_dim is not None and abs(model.ell) < model.m + 2 and degree.denominator == 1:
        try:
            payload["obstruction"] = asdict(obstruction_check(model, model.ell, memo.shift_table))
        except RuntimeError as exc:
            warnings.append(str(exc))
            payload["obstruction"] = {"status": "undecided", "message": str(exc), "q_hat": str(degree)}
    else:
        reason = ("no cohomology table for this model kind" if model.analytic_dim is None
                  else "distinguished degree test does not apply")
        payload["obstruction"] = {"status": "not_evaluated", "message": reason, "q_hat": str(degree)}

    rows = [
        [v.q, v.mu, v.status, v.clause or "", ";".join(v.satisfied)]
        for v in verdicts.verdicts
    ]
    detail = "" if not clashes else f"forced_zero contradicted by spectral kernel: {clashes}"
    return CheckResult(
        name="vanishing",
        passed=not clashes,
        report=payload,
        tables={"vanishing_table": {
            "header": ["q", "mu", "status", "clause", "satisfied"],
            "rows": rows,
        }},
        warnings=warnings,
        detail=detail,
    )


def _check_conformal(model, config, memo: _RunMemo) -> CheckResult:
    tol = config["tolerances"]
    sectors = memo.sectors
    # sector independent (see the module docstring): one evaluation
    space = memo.space(sectors[0])
    defect = float(conformal_check(space, model.ell, ConformalScale.cosine(space.m, axis=0, amplitude=0.3)))
    ok = defect <= tol["conformal"]
    rows = [[sector, defect, tol["conformal"], ok] for sector in sectors]
    per_sector = {str(sector): defect for sector in sectors}
    failed = [r for r in rows if not r[3]]
    detail = ""
    if failed:
        worst = max(failed, key=lambda r: r[1])
        detail = f"sector {worst[0]} defect {worst[1]:.3e} above {tol['conformal']:.1e}"
    return CheckResult(
        name="conformal",
        passed=not failed,
        report={"sectors": per_sector, "scale": "cosine(axis=0, amplitude=0.3)"},
        tables={"conformal_defects": {
            "header": ["sector", "defect", "tolerance", "passed"],
            "rows": rows,
        }},
        detail=detail,
    )


_CHECK_RUNNERS = {
    "identities": _check_identities,
    "spectrum": _check_spectrum,
    "cohomology": _check_cohomology,
    "vanishing": _check_vanishing,
    "conformal": _check_conformal,
}


def _run_check(name, model, config, strict, memo: _RunMemo) -> CheckResult:
    try:
        result = _CHECK_RUNNERS[name](model, config, memo)
    except (ValueError, RuntimeError, MemoryError) as exc:
        return CheckResult(name=name, passed=False, error=str(exc) or type(exc).__name__)
    if strict and result.warnings and result.passed:
        result.passed = False
        result.detail = f"strict: {result.warnings[0]}"
    return result


def _native(value):
    # numpy scalars (np.bool_ in particular) are not JSON serializable
    if isinstance(value, np.generic):
        return value.item()
    return value


def _format_cell(value) -> str:
    value = _native(value)
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.17e}"
    return str(value)


def _table_csv(table) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table["header"])
    for row in table["rows"]:
        writer.writerow([_format_cell(v) for v in row])
    return buf.getvalue()


def _table_json(table) -> str:
    records = [
        dict(zip(table["header"], [_native(v) for v in row])) for row in table["rows"]
    ]
    return json.dumps(records, sort_keys=True, indent=2) + "\n"


def _write_artifacts(results, model, out, fmt) -> list[Path]:
    written = []
    for result in results:
        payload = {
            "check": result.name,
            "model": model.describe(),
            "passed": result.passed,
            "warnings": sorted(result.warnings),
            "error": result.error,
            "results": result.report,
        }
        path = out / f"{result.name}_report.json"
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        written.append(path)
        for name in sorted(result.tables):
            table = result.tables[name]
            if fmt == "csv":
                path = out / f"{name}.csv"
                path.write_text(_table_csv(table))
            else:
                path = out / f"{name}.json"
                path.write_text(_table_json(table))
            written.append(path)
    return written


def run(config: dict, checks=None, strict=False, out_dir="crspin-artifacts", fmt="csv") -> int:
    """Execute the requested checks and write artifacts; 0 iff all pass."""
    names = list(checks) if checks else list(config["checks"])
    if not names:
        raise ConfigError('at config.checks: no checks requested (add a "checks" list or pass --check)')
    for name in names:
        if name not in CHECK_NAMES:
            raise ConfigError(f"unknown check {name!r} (choices: {', '.join(CHECK_NAMES)})")
    model = build_model(config)
    out = Path(out_dir)
    try:  # before any check runs, which a directory that cannot be made would waste
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"at --out: cannot create the directory ({exc})") from exc
    try:  # a previous run's files that this run does not rewrite would read as its own
        for path in out.iterdir():
            if _ARTIFACT_NAME.fullmatch(path.name):
                path.unlink()
    except OSError as exc:
        raise ConfigError(f"at --out: cannot remove a previous run's artifact ({exc})") from exc
    memo = _RunMemo(model, config)
    results = [_run_check(name, model, config, strict, memo) for name in dict.fromkeys(names)]
    written = _write_artifacts(results, model, out, fmt)
    for result in results:
        if result.error is not None:
            print(f"check {result.name}: ERROR ({result.error})")
        elif result.passed:
            print(f"check {result.name}: PASS")
        else:
            print(f"check {result.name}: FAIL ({result.detail})")
        for warning in result.warnings:
            print(f"  warning: {warning}")
    print(f"wrote {len(written)} artifact files to {out_dir}")
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crspin",
        description="Verify spinor-calculus identities, spectra, cohomology tables, "
        "and vanishing verdicts on CR model geometries.",
    )
    runp = parser.add_subparsers(dest="command", required=True).add_parser(
        "run", help="run the checks listed in the config")
    runp.add_argument("--config", required=True, help="path to a JSON config file")
    runp.add_argument("--check", action="append", choices=CHECK_NAMES, default=None,
                      help="run this check instead of the config list (repeatable)")
    runp.add_argument("--strict", action="store_true",
                      help="promote truncation warnings to failures")
    runp.add_argument("--out", default="crspin-artifacts", help="artifact output directory")
    runp.add_argument("--format", choices=("csv", "json"), default="csv",
                      help="table artifact format (reports are always JSON)")
    return parser


@cache
def _freeze_gc_at_exit():
    # cached: repeated in-process main() calls register it once
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _freeze_gc_at_exit()
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        return run(config, checks=args.check, strict=args.strict, out_dir=args.out, fmt=args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
