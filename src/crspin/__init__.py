"""Spinor calculus on strictly pseudoconvex CR model geometries."""

from .models import (
    ModelFlags,
    PseudoHermitianModel,
    TorusLattice,
    TruncationSpec,
    cr_alpha_bundle,
    heisenberg_model,
    sphere_model,
)
from .sections import SectionSpace
from .operators import (
    assemble_dminus,
    assemble_dplus,
    assemble_kohn_dirac,
    assemble_twistor,
    kernel_report,
)
from .cohomology import (
    CohomologyTable,
    harmonic_spinor_table,
    kohn_laplacian,
    shift_table,
    torus_line_bundle_cohomology,
)
from .weitzenboeck import (
    ConformalScale,
    conformal_check,
    curvature_term,
    dl_residual,
    exponent_scan,
    sl_residual,
)
from .vanishing import (
    VanishingReport,
    obstruction_check,
    qhat,
    spin_c_exists,
    vanishing_verdicts,
)

__version__ = "0.1.0"

__all__ = [
    "ModelFlags",
    "PseudoHermitianModel",
    "TorusLattice",
    "TruncationSpec",
    "cr_alpha_bundle",
    "heisenberg_model",
    "sphere_model",
    "SectionSpace",
    "assemble_dminus",
    "assemble_dplus",
    "assemble_kohn_dirac",
    "assemble_twistor",
    "kernel_report",
    "CohomologyTable",
    "harmonic_spinor_table",
    "kohn_laplacian",
    "shift_table",
    "torus_line_bundle_cohomology",
    "ConformalScale",
    "conformal_check",
    "curvature_term",
    "dl_residual",
    "exponent_scan",
    "sl_residual",
    "VanishingReport",
    "obstruction_check",
    "qhat",
    "spin_c_exists",
    "vanishing_verdicts",
]
