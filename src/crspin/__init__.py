"""Spinor calculus on strictly pseudoconvex CR model geometries.

The exported names load on first access (PEP 562): ``import crspin``
imports no submodule, and ``crspin.X`` or ``from crspin import X``
imports the submodule that defines X (and what that one imports).  So a
``crspin run`` process compiles only what ``crspin.cli`` and its
requested checks import.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "models": ("ModelFlags", "PseudoHermitianModel", "TorusLattice", "TruncationSpec",
               "cr_alpha_bundle", "heisenberg_model", "sphere_model"),
    "sections": ("SectionSpace",),
    "operators": ("assemble_dminus", "assemble_dplus", "assemble_kohn_dirac", "kernel_report"),
    "cohomology": ("CohomologyTable", "harmonic_spinor_table", "kohn_laplacian", "shift_table",
                   "torus_line_bundle_cohomology"),
    "weitzenboeck": ("ConformalScale", "conformal_check", "curvature_term", "dl_residual",
                     "exponent_scan", "sl_residual"),
    "vanishing": ("VanishingReport", "obstruction_check", "qhat", "vanishing_verdicts"),
}
_SUBMODULE = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
