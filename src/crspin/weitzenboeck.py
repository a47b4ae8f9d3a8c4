"""Curvature terms of the square of the Kohn-Dirac operator.

The square of the Kohn-Dirac operator differs from a weighted sum of the
two horizontal connection Laplacians by a zeroth-order curvature term on
each spinor weight block.  This module assembles those curvature terms
from the model's Webster Ricci data, splits them into a Ricci derivation
part and a trace-free remainder, and measures the residuals of the full
operator identities on concrete section spaces.

It also hosts the conformal covariance checks: under a rescaling of the
contact form by exp(2 f), suitably weighted powers of exp(-f) intertwine
the Dirac and twistor components on the flat models.  Those checks are
pointwise in f with exact trigonometric-polynomial derivatives, so they
are independent of the Fourier/ladder truncations used elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import (
    SpinorModule,
    annihilation_matrix,
    creation_matrix,
    theta_matrix,
    two_form_matrix,
)
from .fields import (
    TrigPoly,
    apply_fiber,
    evaluate_field,
    field_add,
    field_derivative,
    field_scale,
    scalar_multiply,
    spinor_field,
)
from .models import PseudoHermitianModel, rho_frame_components
from .operators import (
    assemble_kohn_dirac,
    horizontal_laplacians,
    twistor_weights,
)
from .sections import SectionSpace

__all__ = [
    "CurvatureTerm",
    "curvature_term",
    "ricci_spinor_action",
    "q_split",
    "sl_residual",
    "dl_residual",
    "square_residuals",
    "ConformalScale",
    "conformal_check",
    "exponent_scan",
    "default_sample_points",
]


@dataclass
class CurvatureTerm:
    """Zeroth-order curvature block of the Kohn-Dirac square.

    ``as_matrix`` acts on the weight block mu = m - 2q of the spinor
    fiber and is Hermitian whenever the model's Ricci matrix is.
    """

    q: int
    mu: int
    ell: int
    as_matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.as_matrix.shape[0]


def curvature_term(model: PseudoHermitianModel, ell: int, q: int) -> CurvatureTerm:
    """Curvature term of the Kohn-Dirac square on the weight-q block.

    The block operator is

        -(i/2) (ell/(m+2) + mu/m) c(rho)
            + (1 + ell mu / (m (m+2))) scal / 4,

    restricted to the grade-q part of the fiber (mu = m - 2q).
    """
    m = model.m
    block = SpinorModule(m).grade_slice(q)
    mu = m - 2 * q
    crho = two_form_matrix(m, rho_frame_components(model.rho))
    coeff = ell / (m + 2) + mu / m
    scalar = (1.0 + ell * mu / (m * (m + 2))) * model.scal_w / 4.0
    full = -0.5j * coeff * crho + scalar * np.eye(crho.shape[0])
    return CurvatureTerm(q=q, mu=mu, ell=ell, as_matrix=full[block, block])


def ricci_spinor_action(rho: np.ndarray) -> np.ndarray:
    """Derivation action of the Webster Ricci endomorphism on the fiber.

    Sends e_S to 2 sum_{a in S} (R e)_... concretely it is
    2 sum_{ab} R_ab w_a a_b in terms of signed creation/annihilation,
    so a diagonalized Ricci matrix with eigenvalues r_a acts on a basis
    subset S by 2 sum_{a in S} r_a.  The Clifford action of the Ricci
    two-form is recovered through

        -(i/2) c(rho) = ricci_spinor_action(rho) - trace(rho) Id.
    """
    rho = np.asarray(rho, dtype=complex)
    m = rho.shape[0]
    module = SpinorModule(m)
    out = np.zeros((module.dim, module.dim), dtype=complex)
    for a in range(1, m + 1):
        for b in range(1, m + 1):
            if rho[a - 1, b - 1] != 0:
                out += 2.0 * rho[a - 1, b - 1] * (
                    creation_matrix(m, b) @ annihilation_matrix(m, a)
                )
    return out


def q_split(model: PseudoHermitianModel, ell: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Split the curvature term into Ricci derivation and remainder.

    Returns (R_star, K) on the weight-q block with

        curvature term = (2 (m - q) / m) R_star + K,

    where R_star is the restricted Ricci derivation, K is trace-free,
    and K vanishes identically at ell = m + 2.
    """
    m = model.m
    block = SpinorModule(m).grade_slice(q)
    mu = m - 2 * q
    r_star = ricci_spinor_action(model.rho)[block, block]
    trace_r = float(np.real(np.trace(model.rho)))
    ident = np.eye(r_star.shape[0])
    k = ((ell - m - 2) / (m + 2)) * (r_star - trace_r * (1.0 - mu / m) * ident)
    return r_star, k


def _residuals(space: SectionSpace, square, lichnerowicz: bool, weights) -> tuple[float | None, dict[int, float]]:
    """Interior residuals of the identities below, all read off one D^2."""
    model, m = space.model, space.m
    lap10, lap01 = horizontal_laplacians(space)
    crho = two_form_matrix(m, rho_frame_components(model.rho))
    sl = None
    if lichnerowicz:
        theta = theta_matrix(m)
        eye = np.eye(space.fiber_dim)
        rhs = space.mixed(eye - theta / m, lap10)
        rhs += space.mixed(eye + theta / m, lap01)
        rhs += space.lift_fiber(-0.5j * ((model.ell / (m + 2)) * eye + theta / m) @ crho)
        rhs += space.lift_fiber((model.scal_w / 4.0) * (eye + (model.ell / (m * (m + 2))) * theta))
        sl = space.interior_max(square - rhs)
    dl = {}
    for ell in weights:
        block = space.grade_block((m + ell) // 2)
        rhs = space.lift_base(((m + ell) / m) * lap10 + ((m - ell) / m) * lap01)[block, block]
        rhs = rhs + (1j * ell / (m * (m + 2))) * space.lift_fiber(crho)[block, block]
        rhs = rhs + (1.0 - ell**2 / (m * (m + 2))) * (model.scal_w / 4.0) * np.eye(rhs.shape[0])
        dl[ell] = space.interior_max(square[block, block] - rhs, block)
    return sl, dl


def sl_residual(space: SectionSpace) -> float:
    """Interior residual of the Schroedinger-Lichnerowicz identity.

    Compares D^2 against the weighted sum of horizontal Laplacians plus
    the curvature term, all as assembled matrices, on the interior
    coefficients of the section space (ladder truncations distort only
    the top-rung shell).
    """
    return _residuals(space, np.linalg.matrix_power(assemble_kohn_dirac(space).mat, 2), True, ())[0]


def dl_residual(space: SectionSpace, ell: int) -> float:
    """Interior residual of the distinguished-weight Laplacian identity.

    On the mu = -ell weight block the Kohn-Dirac square equals

        ((m+ell)/m) nabla_10* nabla_10 + ((m-ell)/m) nabla_01* nabla_01
            + i ell c(rho) / (m (m+2)) + (1 - ell^2/(m (m+2))) scal / 4.

    The weight must satisfy ell in {-m, -m+2, ..., m}; on the flat
    models the twist enters only through these coefficients, so a single
    section space realizes every admissible weight.
    """
    m = space.m
    if not isinstance(ell, int):
        raise ValueError(f"weight must be an integer, got {ell!r}")
    if (m + ell) % 2 != 0 or abs(ell) > m:
        raise ValueError(
            f"no weight block mu = {-ell} for m = {m}; ell must lie in {{-m, -m+2, ..., m}}"
        )
    return _residuals(space, np.linalg.matrix_power(assemble_kohn_dirac(space).mat, 2), False, (ell,))[1][ell]


def square_residuals(space: SectionSpace, square: np.ndarray) -> tuple[float, dict[int, float]]:
    """(``sl_residual``, {ell: ``dl_residual``} at every admissible ell), bit for bit, off the Dirac ``square`` D @ D."""
    return _residuals(space, square, True, range(-space.m, space.m + 1, 2))


# ---------------------------------------------------------------------------
# Conformal covariance
# ---------------------------------------------------------------------------


class ConformalScale:
    """Real trigonometric-polynomial log-factor of a conformal rescaling.

    Wraps a TrigPoly on the 2m base coordinates and exposes exact frame
    derivatives; the contact form rescales by exp(2 f).
    """

    def __init__(self, m: int, poly: TrigPoly):
        if not isinstance(poly, TrigPoly):
            raise TypeError(
                "conformal factor must be a TrigPoly with exact derivatives, "
                f"got {type(poly).__name__}"
            )
        if poly.dim != 2 * m:
            raise ValueError(f"factor must live on {2 * m} base coordinates, got {poly.dim}")
        for freq, val in poly.coeffs.items():
            mirror = tuple(-fi for fi in freq)
            if abs(poly.coeffs.get(mirror, 0j) - np.conj(val)) > 1e-12:
                raise ValueError("conformal factor must be real-valued")
        self.m = m
        self.poly = poly

    @classmethod
    def cosine(cls, m: int, axis: int = 0, amplitude: float = 0.3, frequency: int = 1):
        return cls(m, TrigPoly.cosine(2 * m, axis, amplitude, frequency))

    def deriv_e(self, a: int) -> TrigPoly:
        dx = self.poly.derivative(a - 1)
        dy = self.poly.derivative(self.m + a - 1)
        return 0.5 * dx + (-0.5j) * dy

    def deriv_ebar(self, a: int) -> TrigPoly:
        dx = self.poly.derivative(a - 1)
        dy = self.poly.derivative(self.m + a - 1)
        return 0.5 * dx + 0.5j * dy

    def value(self, point) -> float:
        return float(np.real(self.poly(point)))


class _FiberContext:
    def __init__(self, m: int):
        self.m = m
        self.module = SpinorModule(m)
        self.c_e = [creation_matrix(m, a) for a in range(1, m + 1)]
        self.c_ebar = [-annihilation_matrix(m, a) for a in range(1, m + 1)]
        self.theta = theta_matrix(m)


def _zero_field(ctx: _FiberContext) -> np.ndarray:
    return spinor_field(ctx.module)


def _grad10_clifford(field, f: ConformalScale, ctx: _FiberContext) -> np.ndarray:
    """c(grad_10 f) phi = 2 sum_b Ebar_b(f) c(E_b) phi."""
    out = _zero_field(ctx)
    for b in range(1, ctx.m + 1):
        out = field_add(out, scalar_multiply(2.0 * f.deriv_ebar(b), apply_fiber(ctx.c_e[b - 1], field)))
    return out


def _grad01_clifford(field, f: ConformalScale, ctx: _FiberContext) -> np.ndarray:
    """c(grad_01 f) phi = 2 sum_b E_b(f) c(Ebar_b) phi."""
    out = _zero_field(ctx)
    for b in range(1, ctx.m + 1):
        out = field_add(out, scalar_multiply(2.0 * f.deriv_e(b), apply_fiber(ctx.c_ebar[b - 1], field)))
    return out


def _nabla_tilde(field, direction: str, a: int, f: ConformalScale, ell: int, ctx: _FiberContext):
    """Rescaled-connection derivative of a spinor field, componentwise.

    Encodes the transformation of the pseudo-Hermitian spin connection
    under theta -> exp(2f) theta, including the twist-line shift.
    """
    m = ctx.m
    out = field_derivative(field, direction, a, m)
    theta_field = apply_fiber(ctx.theta, field)
    if direction == "e":
        out = field_add(out, field_scale(-1.0, apply_fiber(ctx.c_e[a - 1], _grad01_clifford(field, f, ctx))))
        df = f.deriv_e(a)
        out = field_add(out, scalar_multiply(((ell - 2) / 2.0) * df, field))
        out = field_add(out, scalar_multiply(-0.5 * df, theta_field))
    else:
        out = field_add(out, field_scale(-1.0, apply_fiber(ctx.c_ebar[a - 1], _grad10_clifford(field, f, ctx))))
        df = f.deriv_ebar(a)
        out = field_add(out, scalar_multiply((-(ell + 2) / 2.0) * df, field))
        out = field_add(out, scalar_multiply(0.5 * df, theta_field))
    return out


def _dirac_plus_field(field, ctx: _FiberContext):
    out = _zero_field(ctx)
    for a in range(1, ctx.m + 1):
        out = field_add(out, apply_fiber(2.0 * ctx.c_e[a - 1], field_derivative(field, "ebar", a, ctx.m)))
    return out


def _dirac_minus_field(field, ctx: _FiberContext):
    out = _zero_field(ctx)
    for a in range(1, ctx.m + 1):
        out = field_add(out, apply_fiber(2.0 * ctx.c_ebar[a - 1], field_derivative(field, "e", a, ctx.m)))
    return out


def _dirac_plus_tilde(field, f: ConformalScale, ell: int, weight: float, ctx: _FiberContext):
    """exp((weight+1) f) D~_+ (exp(-weight f) phi), a trig-polynomial field."""
    out = _zero_field(ctx)
    for a in range(1, ctx.m + 1):
        inner = field_add(
            scalar_multiply(-weight * f.deriv_ebar(a), field),
            _nabla_tilde(field, "ebar", a, f, ell, ctx),
        )
        out = field_add(out, apply_fiber(2.0 * ctx.c_e[a - 1], inner))
    return out


def _dirac_minus_tilde(field, f: ConformalScale, ell: int, weight: float, ctx: _FiberContext):
    out = _zero_field(ctx)
    for a in range(1, ctx.m + 1):
        inner = field_add(
            scalar_multiply(-weight * f.deriv_e(a), field),
            _nabla_tilde(field, "e", a, f, ell, ctx),
        )
        out = field_add(out, apply_fiber(2.0 * ctx.c_ebar[a - 1], inner))
    return out


def _twistor01_slots(field, q: int, ctx: _FiberContext):
    a_q, _ = twistor_weights(ctx.m, q)
    dplus = _dirac_plus_field(field, ctx)
    slots = []
    for a in range(1, ctx.m + 1):
        slot = field_add(
            field_derivative(field, "ebar", a, ctx.m),
            apply_fiber(a_q * ctx.c_ebar[a - 1], dplus),
        )
        slots.append(slot)
    return slots


def _twistor10_slots(field, q: int, ctx: _FiberContext):
    _, b_q = twistor_weights(ctx.m, q)
    dminus = _dirac_minus_field(field, ctx)
    slots = []
    for a in range(1, ctx.m + 1):
        slot = field_add(
            field_derivative(field, "e", a, ctx.m),
            apply_fiber(b_q * ctx.c_e[a - 1], dminus),
        )
        slots.append(slot)
    return slots


def _twistor01_tilde_slots(field, f, ell, weight, q, ctx: _FiberContext):
    a_q, _ = twistor_weights(ctx.m, q)
    dplus = _dirac_plus_tilde(field, f, ell, weight, ctx)
    slots = []
    for a in range(1, ctx.m + 1):
        slot = field_add(
            scalar_multiply(-weight * f.deriv_ebar(a), field),
            _nabla_tilde(field, "ebar", a, f, ell, ctx),
        )
        slot = field_add(slot, apply_fiber(a_q * ctx.c_ebar[a - 1], dplus))
        slots.append(slot)
    return slots


def _twistor10_tilde_slots(field, f, ell, weight, q, ctx: _FiberContext):
    _, b_q = twistor_weights(ctx.m, q)
    dminus = _dirac_minus_tilde(field, f, ell, weight, ctx)
    slots = []
    for a in range(1, ctx.m + 1):
        slot = field_add(
            scalar_multiply(-weight * f.deriv_e(a), field),
            _nabla_tilde(field, "e", a, f, ell, ctx),
        )
        slot = field_add(slot, apply_fiber(b_q * ctx.c_e[a - 1], dminus))
        slots.append(slot)
    return slots


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def default_sample_points(dim: int, count: int = 24) -> np.ndarray:
    """Deterministic low-discrepancy sample points on the unit torus."""
    if dim > len(_PRIMES):
        raise ValueError(f"at most {len(_PRIMES)} coordinates supported")
    alphas = np.sqrt(np.array(_PRIMES[:dim], dtype=float)) % 1.0
    steps = np.arange(1, count + 1, dtype=float)[:, None]
    return (steps * alphas + 0.05) % 1.0


def _test_spinor(ctx: _FiberContext, q: int) -> np.ndarray:
    """Deterministic grade-q spinor field with generic trig components."""
    dim = 2 * ctx.m
    comps = {}
    idx = 0
    for subset in ctx.module.subsets:
        if len(subset) != q:
            continue
        coeffs = {(0,) * dim: 0.35 + 0.15j * (idx + 1)}
        n1 = [0] * dim
        n1[idx % dim] = 1
        coeffs[tuple(n1)] = 0.2 - 0.05j * (idx + 2)
        n2 = [0] * dim
        n2[(idx + 1) % dim] = -1
        n2[idx % dim] += 1
        coeffs[tuple(n2)] = 0.07 + 0.11j
        comps[subset] = TrigPoly(dim, coeffs)
        idx += 1
    return spinor_field(ctx.module, comps)


def _pointwise_defect(lhs_fields, rhs_fields, weight_exponent, f: ConformalScale, points) -> float:
    worst = 0.0
    for point in points:
        scale = np.exp(-weight_exponent * f.value(point))
        for lhs, rhs in zip(lhs_fields, rhs_fields):
            diff = evaluate_field(lhs, point) - evaluate_field(rhs, point)
            worst = max(worst, scale * float(np.abs(diff).max()))
    return worst


def _covariance_defects(ctx, ell, q, f, points, offsets=(0,)):
    """Pointwise covariance defects of the four graded operators at grade q.

    Returns {name: {offset: defect}} where offset perturbs the canonical
    exp(-v f) weight by an integer.
    """
    mu = ctx.m - 2 * q
    field = _test_spinor(ctx, q)
    v_plus = ctx.m + 1 - (mu + ell) / 2.0
    v_minus = ctx.m + 1 + (mu + ell) / 2.0
    w_plus = (mu - ell) / 2.0 - 1.0
    w_minus = (ell - mu) / 2.0 - 1.0

    dplus_ref = [_dirac_plus_field(field, ctx)]
    dminus_ref = [_dirac_minus_field(field, ctx)]
    t01_ref = _twistor01_slots(field, q, ctx)
    t10_ref = _twistor10_slots(field, q, ctx)

    out = {"dirac_plus": {}, "dirac_minus": {}, "twistor_01": {}, "twistor_10": {}}
    for off in offsets:
        out["dirac_plus"][off] = _pointwise_defect(
            [_dirac_plus_tilde(field, f, ell, v_plus + off, ctx)], dplus_ref, v_plus + off + 1.0, f, points
        )
        out["dirac_minus"][off] = _pointwise_defect(
            [_dirac_minus_tilde(field, f, ell, v_minus + off, ctx)], dminus_ref, v_minus + off + 1.0, f, points
        )
        out["twistor_01"][off] = _pointwise_defect(
            _twistor01_tilde_slots(field, f, ell, w_plus + off, q, ctx), t01_ref, w_plus + off + 1.0, f, points
        )
        out["twistor_10"][off] = _pointwise_defect(
            _twistor10_tilde_slots(field, f, ell, w_minus + off, q, ctx), t10_ref, w_minus + off + 1.0, f, points
        )
    return out


def conformal_check(space: SectionSpace, ell: int, f: ConformalScale, sample_points=None) -> float:
    """Worst pointwise defect of the conformal covariance laws.

    For every weight block the degree-raising and degree-lowering Dirac
    halves and both twistor components are conjugated by their canonical
    exp(-v f) powers and compared against the flat operators at the
    sample points; on the block mu = -ell (when it exists) the full
    Kohn-Dirac operator is additionally checked at weight m + 1 against
    weight m + 2 on the output.  Everything is evaluated with exact
    derivatives of the trigonometric factor, so the result is
    truncation-independent.
    """
    if not isinstance(f, ConformalScale):
        raise TypeError(f"conformal factor must be a ConformalScale, got {type(f).__name__}")
    m = space.m
    if f.m != m:
        raise ValueError(f"conformal factor has m = {f.m}, section space has m = {m}")
    ctx = _FiberContext(m)
    if sample_points is None:
        sample_points = default_sample_points(2 * m)
    points = np.atleast_2d(np.asarray(sample_points, dtype=float))
    if points.shape[1] != 2 * m:
        raise ValueError(f"sample points need {2 * m} coordinates, got {points.shape[1]}")

    worst = 0.0
    for q in range(m + 1):
        defects = _covariance_defects(ctx, ell, q, f, points)
        worst = max(worst, *(d[0] for d in defects.values()))

    if (m + ell) % 2 == 0 and abs(ell) <= m:
        q = (m + ell) // 2
        field = _test_spinor(ctx, q)
        weight = float(m + 1)
        lhs = field_add(
            _dirac_plus_tilde(field, f, ell, weight, ctx),
            _dirac_minus_tilde(field, f, ell, weight, ctx),
        )
        rhs = field_add(_dirac_plus_field(field, ctx), _dirac_minus_field(field, ctx))
        worst = max(worst, _pointwise_defect([lhs], [rhs], weight + 1.0, f, points))
    return worst


def exponent_scan(
    space: SectionSpace,
    ell: int,
    q: int,
    f: ConformalScale,
    offsets=(-2, -1, 0, 1, 2),
    sample_points=None,
) -> dict:
    """Covariance defects with integer-perturbed conformal weights.

    Returns {operator: {offset: defect}}; the canonical weights are the
    offset-0 entries and are the only ones expected to vanish.  Note
    that some operators are identically zero on extreme grades (the
    lowering half on q = 0, the raising half on q = m, and for m = 1
    also one twistor projection on each), where the scan is flat and
    carries no information.
    """
    if not isinstance(f, ConformalScale):
        raise TypeError(f"conformal factor must be a ConformalScale, got {type(f).__name__}")
    m = space.m
    if not 0 <= q <= m:
        raise ValueError(f"grade q must lie in 0..{m}, got {q}")
    ctx = _FiberContext(m)
    if sample_points is None:
        sample_points = default_sample_points(2 * m)
    points = np.atleast_2d(np.asarray(sample_points, dtype=float))
    return _covariance_defects(ctx, ell, q, f, points, offsets=tuple(offsets))
