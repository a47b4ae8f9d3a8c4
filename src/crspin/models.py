"""Pseudo-Hermitian model geometries.

Three families ship with the package:

* Heisenberg quotients (flat Webster geometry, Fourier/ladder sectors
  labeled by the Reeb weight k),
* circle bundles over flat complex tori with integral flux (flat Webster
  geometry, sectors labeled by the integer fiber weight s),
* the standard CR sphere (curvature data only; it has no desk-scale section
  space here, but all curvature-level checks run on it).

A model stores frame-level tensor data for the fixed unitary frame in which
the Levi form is dtheta(E_a, conj(E_b)) = i * delta_ab, equivalently
g(E_a, conj(E_b)) = delta_ab / 2.  The Ricci form is parametrized by a
Hermitian matrix R via rho(E_a, conj(E_b)) = i * R_ab, so pseudo-Einstein
means R = (scal/4m) * identity and the scalar curvature is tied to R by
scal = 4 tr R.  Real-frame component order everywhere is
(e_1..e_m, Je_1..Je_m).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .clifford import _integer, _positive, dtheta_frame_matrix

__all__ = [
    "ModelFlags",
    "TruncationSpec",
    "TorusLattice",
    "PseudoHermitianModel",
    "HeisenbergModel",
    "TorusBundleModel",
    "SphereModel",
    "heisenberg_model",
    "cr_alpha_bundle",
    "sphere_model",
    "ricci_consistency",
    "bianchi_residual",
    "torsion_residual",
    "pseudo_einstein_residual",
    "rho_frame_components",
    "tau_frame_components",
    "complex_structure_matrix",
]


@dataclass(frozen=True)
class ModelFlags:
    torsion_free: bool = False
    regular: bool = False
    pseudo_einstein: bool = False


@dataclass(frozen=True)
class TruncationSpec:
    """Desk-scale truncation sizes for the section-space engine.

    ``fourier_radius`` bounds each integer frequency coordinate of the
    weight-zero (Fourier) sectors; ``ladder_levels`` is the top oscillator
    level kept in each complex direction for weighted sectors.
    """

    fourier_radius: int
    ladder_levels: int

    def __post_init__(self):
        _integer(self.fourier_radius, "fourier_radius", low=1)
        _integer(self.ladder_levels, "ladder_levels", low=2)


def default_truncation(m: int) -> TruncationSpec:
    if m == 1:
        return TruncationSpec(fourier_radius=3, ladder_levels=10)
    return TruncationSpec(fourier_radius=1, ladder_levels=6)


@dataclass(frozen=True)
class TorusLattice:
    """Period lattice of a flat complex torus of complex dimension m.

    ``vectors`` holds the 2m period vectors as columns, in the real
    coordinates (x_1..x_m, y_1..y_m) matching the frame order.  The default
    is the unit square lattice.
    """

    m: int
    vectors: np.ndarray | None = None

    def __post_init__(self):
        _integer(self.m, "complex dimension m", low=1)
        if self.vectors is not None:
            mat = np.asarray(self.vectors, dtype=float)
            if mat.shape != (2 * self.m, 2 * self.m):
                raise ValueError(f"lattice basis must be {2 * self.m} x {2 * self.m}, got {mat.shape}")
            if not np.isfinite(mat).all() or abs(np.linalg.det(mat)) < 1e-12:
                raise ValueError("lattice basis must be finite and nonsingular")
            object.__setattr__(self, "vectors", mat)

    def period_matrix(self) -> np.ndarray:
        if self.vectors is None:
            return np.eye(2 * self.m)
        return self.vectors

    def dual_frequencies(self, radius: int) -> np.ndarray:
        """All dual-lattice frequency vectors 2 pi B^{-T} n with |n_i| <= radius."""
        gens = 2.0 * np.pi * np.linalg.inv(self.period_matrix()).T
        rng = range(-_integer(radius, "radius", low=0), radius + 1)
        grids = np.meshgrid(*([list(rng)] * (2 * self.m)), indexing="ij")
        ns = np.stack([g.ravel() for g in grids], axis=1)
        return ns @ gens.T


@dataclass(kw_only=True)
class PseudoHermitianModel:
    """Frame-level data of a compact pseudo-Hermitian model geometry; ``kind`` names the class."""

    kind: ClassVar[str] = "generic"
    m: int
    ell: int = 0
    tau: np.ndarray = None
    rho: np.ndarray = None
    scal_w: float = 0.0
    flags: ModelFlags = field(default_factory=ModelFlags)
    curvature: np.ndarray = None
    scal_h: float | None = None
    truncation: TruncationSpec | None = None

    def __post_init__(self):
        _integer(self.m, "CR dimension m", low=1)
        _integer(self.ell, "spin^C weight")
        m = self.m
        for name, label, shape, dtype in (("tau", "torsion matrix", (m, m), complex),
                                          ("rho", "Ricci matrix", (m, m), complex),
                                          ("curvature", "curvature components", (2 * m,) * 4, float)):
            value = np.zeros(shape, dtype) if getattr(self, name) is None else np.asarray(getattr(self, name), dtype)
            if value.shape != shape:
                raise ValueError(f"{label} must have shape {shape}, got {value.shape}")
            if not np.isfinite(value).all():
                raise ValueError(f"{label} must be finite")
            setattr(self, name, value)
        if np.linalg.norm(self.rho - self.rho.conj().T) > 1e-12:
            raise ValueError("Ricci matrix must be Hermitian")
        for label, value in (("Webster scalar scal_w", self.scal_w), ("base scalar curvature scal_h", self.scal_h)):
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{label} must be finite")

    @property
    def has_section_space(self) -> bool:
        return self.truncation is not None

    def describe(self) -> str:
        return f"{self.kind}(m={self.m}, ell={self.ell})"


@dataclass(kw_only=True)
class HeisenbergModel(PseudoHermitianModel):
    kind: ClassVar[str] = "heisenberg"
    k: int = 0

    def __post_init__(self):
        super().__post_init__()
        _integer(self.k, "Heisenberg sector k")


@dataclass(kw_only=True)
class TorusBundleModel(PseudoHermitianModel):
    kind: ClassVar[str] = "torus_bundle"
    lattice: TorusLattice = None
    flux: int = 1
    s: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.lattice is None:
            self.lattice = TorusLattice(self.m)
        if self.lattice.m != self.m:
            raise ValueError("lattice dimension does not match the model")
        _integer(self.flux, "flux", low=1)  # see cr_alpha_bundle
        _integer(self.s, "fiber weight s")


@dataclass(kw_only=True)
class SphereModel(PseudoHermitianModel):
    kind: ClassVar[str] = "sphere"


def heisenberg_model(m: int, k: int = 0, truncation: TruncationSpec | None = None, ell: int = 0) -> HeisenbergModel:
    """Compact Heisenberg quotient with flat Webster geometry, sector weight k."""
    return HeisenbergModel(
        m=m,
        ell=ell,
        k=k,
        flags=ModelFlags(torsion_free=True, regular=True, pseudo_einstein=True),
        scal_h=0.0,
        truncation=truncation or default_truncation(m),
    )


def cr_alpha_bundle(
    lattice: TorusLattice | int,
    c: int,
    s: int = 0,
    truncation: TruncationSpec | None = None,
    ell: int = 0,
) -> TorusBundleModel:
    """Circle bundle over a flat complex torus with positive integral flux c.

    The contact form is twice the connection form, so the Webster geometry
    is flat, torsion-free, and invariant under the fiber action, and dtheta
    has the sign of c: the Levi form dtheta(E_a, conj(E_b)) = i * delta_ab
    that every model fixes needs c > 0.  s labels the integer weight of the
    fiber representation.
    """
    if isinstance(lattice, int):
        lattice = TorusLattice(lattice)
    m = lattice.m
    return TorusBundleModel(
        m=m,
        ell=ell,
        lattice=lattice,
        flux=c,
        s=s,
        flags=ModelFlags(torsion_free=True, regular=True, pseudo_einstein=True),
        scal_h=0.0,
        truncation=truncation or default_truncation(m),
    )


def space_form_curvature(m: int, kappa: float) -> np.ndarray:
    """Webster curvature components of constant holomorphic sectional type.

    R(s_i, s_j) s_k = kappa * [ g_jk s_i - g_ik s_j + w_jk J s_i
    - w_ik J s_j - 2 w_ij J s_k ] with w(X, Y) = g(JX, Y).
    """
    n = 2 * m
    delta = np.eye(n)
    jmat = complex_structure_matrix(m)
    w = jmat.T  # w[i, l] = g(J s_i, s_l)
    riem = np.zeros((n, n, n, n))
    riem += np.einsum("jk,il->ijkl", delta, delta)
    riem -= np.einsum("ik,jl->ijkl", delta, delta)
    riem += np.einsum("jk,il->ijkl", w, w)
    riem -= np.einsum("ik,jl->ijkl", w, w)
    riem -= 2.0 * np.einsum("ij,kl->ijkl", w, w)
    return kappa * riem


def sphere_model(m: int, scal_w: float = 1.0, ell: int = 0) -> SphereModel:
    """Standard CR sphere data: pseudo-Einstein with constant positive scalar.

    Curvature data only; there is no desk-scale section space attached, so
    spectral checks must be run on the flat models instead.
    """
    _integer(m, "sphere CR dimension m", low=2)
    scal_w = _positive(scal_w, "sphere Webster scalar scal_w")
    kappa = scal_w / (4.0 * m * (m + 1))
    return SphereModel(
        m=m,
        ell=ell,
        rho=(scal_w / (4.0 * m)) * np.eye(m),
        scal_w=scal_w,
        flags=ModelFlags(torsion_free=True, regular=True, pseudo_einstein=True),
        curvature=space_form_curvature(m, kappa),
        scal_h=scal_w,
    )


def complex_structure_matrix(m: int) -> np.ndarray:
    """J in the real frame order (e_1..e_m, Je_1..Je_m)."""
    j = np.zeros((2 * m, 2 * m))
    j[m:, :m] = np.eye(m)
    j[:m, m:] = -np.eye(m)
    return j


def rho_frame_components(rho: np.ndarray) -> np.ndarray:
    """Real-frame components of the Ricci form from its Hermitian matrix."""
    r = np.asarray(rho, dtype=complex)
    m = r.shape[0]
    out = np.zeros((2 * m, 2 * m))
    out[:m, :m] = -2.0 * np.imag(r)
    out[m:, m:] = -2.0 * np.imag(r)
    out[:m, m:] = 2.0 * np.real(r)
    out[m:, :m] = -2.0 * np.real(r).T
    return out


def tau_frame_components(tau: np.ndarray) -> np.ndarray:
    """Real-frame endomorphism of the Webster torsion from its complex matrix."""
    t = np.asarray(tau, dtype=complex)
    m = t.shape[0]
    out = np.zeros((2 * m, 2 * m))
    out[:m, :m] = np.real(t).T
    out[m:, :m] = -np.imag(t).T
    out[:m, m:] = -np.imag(t).T
    out[m:, m:] = -np.real(t).T
    return out


def torsion_residual(model: PseudoHermitianModel) -> float:
    """How far the stored torsion is from symmetric and trace-free."""
    sym = float(np.linalg.norm(model.tau - model.tau.T))
    trace = float(abs(np.trace(tau_frame_components(model.tau))))
    return max(sym, trace)


def pseudo_einstein_residual(model: PseudoHermitianModel) -> float:
    """Distance of the Ricci matrix from the pseudo-Einstein multiple of dtheta."""
    target = (model.scal_w / (4.0 * model.m)) * np.eye(model.m)
    return float(np.linalg.norm(model.rho - target))


def _rho_from_curvature(model: PseudoHermitianModel) -> np.ndarray:
    """rho(X, Y) = (1/2) sum_r g(R(X, Y) J s_r, s_r) from stored components.

    With J s_r = sum_p J[p, r] s_p this is half the contraction of the last
    two curvature slots against J.
    """
    jmat = complex_structure_matrix(model.m)
    return 0.5 * np.einsum("ijpr,pr->ij", model.curvature, jmat)


def ricci_consistency(model: PseudoHermitianModel) -> float:
    """Residual of the Ricci-data consistency relations; zero on shipped models.

    Checks that the scalar curvature is the trace of the Ricci matrix, that
    the stored curvature components reproduce the Ricci form, and that the
    Webster Ricci tensor assembled from rho and tau has the right trace.
    """
    m = model.m
    res = [abs(model.scal_w - 4.0 * float(np.real(np.trace(model.rho))))]
    rho_frame = rho_frame_components(model.rho)
    res.append(float(np.linalg.norm(_rho_from_curvature(model) - rho_frame)))
    jmat = complex_structure_matrix(m)
    tau_bilinear = tau_frame_components(model.tau)  # g(tau s_i, s_j), symmetric
    ric = rho_frame @ jmat + 2.0 * (m - 1) * tau_bilinear @ jmat
    res.append(abs(float(np.trace(ric)) - model.scal_w))
    res.append(torsion_residual(model))
    if model.flags.pseudo_einstein:
        res.append(pseudo_einstein_residual(model))
    return max(res)


def bianchi_residual(model: PseudoHermitianModel) -> float:
    """Max norm over frame triples of the first Bianchi identity defect.

    cyclic sum of R(X, Y) Z  minus  cyclic sum of dtheta(X, Y) tau(Z).
    """
    n = 2 * model.m
    riem = model.curvature
    dth = dtheta_frame_matrix(model.m)
    tau_endo = tau_frame_components(model.tau)
    worst = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = np.zeros(n)
                rhs = np.zeros(n)
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    lhs = lhs + riem[a, b, c, :]
                    rhs = rhs + dth[a, b] * tau_endo[:, c]
                worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst
