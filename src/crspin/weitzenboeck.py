"""Curvature terms and identities of the square of the Kohn-Dirac operator.

On the spinor weight block mu = m - 2q the square formula at twist ell is

    D^2 = ((m - mu)/m) nabla_10* nabla_10 + ((m + mu)/m) nabla_01* nabla_01
          + curvature_term(model, ell, q).

This module assembles the curvature terms from the model's Webster Ricci
data, splits them into a Ricci derivation part and a trace-free
remainder, and measures residuals of the formula on section spaces: the
Lichnerowicz identity is the formula on every block at the model's
twist, and the fixed-weight identity is its twist-ell case on the block
mu = -ell.  Both read D^2 as per-slot blocks (``SectionSpace.stack``,
``block_square``) on the present states of complete blocks
(``SectionSpace.complete_max``).  The weighted horizontal Laplacians do
not depend on the twist, so they are stacked once on the whole fiber
(``_laplacian_stack``), and each twist adds its curvature term on the
degree slices it reads, so no full-space matrix is formed.

It also hosts the conformal covariance checks: under a rescaling of the
contact form by exp(2 f), suitably weighted powers of exp(-f) intertwine
the Dirac and twistor halves on the flat models; each half is written
once, for a (1,0) or (0,1) half description.  Each law is a pointwise
identity in f, df, phi and dphi, so a check evaluates f and its test
spinors, with their exact trigonometric-polynomial frame derivatives,
once at its sample points (``_jet``) and forms both sides as arrays
there: fiber matrices act by ``@`` and scalar factors broadcast.  The
derivatives are exact, so the checks are independent of the
Fourier/ladder truncations used elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .clifford import (
    SpinorModule,
    annihilation_matrix,
    creation_matrix,
    theta_matrix,
    two_form_matrix,
)
from .fields import TrigPoly
from .models import PseudoHermitianModel, rho_frame_components
from .operators import (
    block_square,
    dminus_terms,
    dplus_terms,
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

    The matrix is 2 sum_{ab} rho_ab w_b a_a, with w_b the creation and
    a_a the annihilation matrix of the signed fiber basis, so a diagonal
    Ricci matrix with eigenvalues r_a acts on the basis spinor e_S by
    2 sum_{a in S} r_a.  The Clifford action of the Ricci
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


def _laplacian_stack(space: SectionSpace) -> np.ndarray:
    """Per-slot blocks of ((m - mu)/m) nabla_10* nabla_10 + ((m + mu)/m) nabla_01* nabla_01 on each weight
    block mu = m - 2q: the square formula's right-hand side without its curvature term, whole fiber."""
    m = space.m
    mu = np.array([m - 2 * len(s) for s in space.module.subsets])
    lap10, lap01 = space.horizontal_laplacians()
    return space.stack([(np.diag(1.0 - mu / m), lap10), (np.diag(1.0 + mu / m), lap01)])


def _dirac_square(space: SectionSpace) -> np.ndarray:
    """Per-slot blocks of D^2, D = D+ + D-."""
    return block_square(space.stack(dplus_terms(space) + dminus_terms(space)))


def sl_residual(space: SectionSpace) -> float:
    """Residual of the Schroedinger-Lichnerowicz identity on complete blocks.

    Compares D^2 against the weighted sum of horizontal Laplacians plus
    the curvature term at the model's twist, on the present states of the
    per-slot blocks the ladder cutoff left complete, where both sides are
    the untruncated operators' blocks.  Between degrees the residual is
    D^2's own entry.
    """
    return square_residuals(space, _dirac_square(space))[0]


def dl_residual(space: SectionSpace, ell: int) -> float:
    """Residual of the distinguished-weight Laplacian identity on complete blocks.

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
    return square_residuals(space, _dirac_square(space))[1][ell]


def square_residuals(space: SectionSpace, square: np.ndarray) -> tuple[float, dict[int, float]]:
    """(``sl_residual``, {ell: ``dl_residual``} at every admissible ell) off ``square``.

    ``square`` holds the per-slot blocks of D^2, shape (n_blocks, 2^m, 2^m),
    as ``block_square`` forms them from the blocks of D.  The horizontal
    Laplacians are stacked once; each twist adds its curvature term on
    the degree slices it reads, and the model's twist on the whole stack,
    in place.
    """
    m, model = space.m, space.model
    laps = _laplacian_stack(space)
    curvature = np.zeros((space.fiber_dim, space.fiber_dim), dtype=complex)
    covariant = {}
    for q in range(m + 1):
        fib = space.module.grade_slice(q)
        curvature[fib, fib] = curvature_term(model, model.ell, q).as_matrix
        # the fixed-weight identity at twist ell = 2q - m is read on its block mu = -ell
        rhs = laps[:, fib, fib] + curvature_term(model, 2 * q - m, q).as_matrix
        covariant[2 * q - m] = space.complete_max(square[:, fib, fib] - rhs, fib)
    laps += curvature
    return space.complete_max(np.subtract(square, laps, out=laps)), covariant


# ---------------------------------------------------------------------------
# Conformal covariance
# ---------------------------------------------------------------------------


class ConformalScale:
    """Real trigonometric-polynomial log-factor of a conformal rescaling.

    Wraps a TrigPoly on the 2m base coordinates; the contact form
    rescales by exp(2 f).
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


class _Jet(NamedTuple):
    """Trig polynomials at the sample points: ``value`` (k, P) and ``d[direction]`` (m, k, P).

    ``d["e"][a - 1]`` holds the exact E_a derivatives, ``d["ebar"][a - 1]`` the Ebar_a ones.
    """

    value: np.ndarray
    d: dict


def _jet(polys, points: np.ndarray, m: int) -> _Jet:
    """Values and exact frame derivatives of the trig polynomials ``polys`` at ``points``."""
    return _Jet(np.array([p(points) for p in polys]),
                {direction: np.array([[p.frame_derivative(direction, a)(points) for p in polys]
                                      for a in range(1, m + 1)])
                 for direction in ("e", "ebar")})


@dataclass(frozen=True)
class _Half:
    """The (1,0) half (frame E_a, twist sign +1) or the (0,1) half (frame Ebar_a, sign -1).

    Frame vector a acts by Clifford multiplication ``c_self[a - 1]``;
    ``c_other`` stacks the conjugate frame's.  Both have shape (m, 2^m, 2^m).
    """

    direction: str
    c_self: np.ndarray
    c_other: np.ndarray
    sign: int


class _FiberContext:
    def __init__(self, m: int):
        self.m = m
        self.module = SpinorModule(m)
        self.theta = theta_matrix(m)
        c_e = np.array([creation_matrix(m, a) for a in range(1, m + 1)])
        c_ebar = np.array([-annihilation_matrix(m, a) for a in range(1, m + 1)])
        self.half10 = _Half("e", c_e, c_ebar, 1)
        self.half01 = _Half("ebar", c_ebar, c_e, -1)


def _nabla_tilde(phi: _Jet, f: _Jet, half: _Half, ell: int, weight: float, ctx: _FiberContext) -> np.ndarray:
    """exp(weight f) nabla~_a (exp(-weight f) phi) along the half's frame, shape (m, 2^m, P).

    nabla~ is the spin connection of exp(2f) theta with its twist-line shift:
    nabla_a - c_self[a] c(grad f) + ((sign ell - 2)/2 - (sign/2) Theta) df_a,
    where c(grad f) = 2 sum_b df_b c_other[b] and df_a is f's derivative along the frame.
    """
    df = f.d[half.direction]
    df_phi = df * phi.value
    grad = 2.0 * (half.c_other @ df_phi).sum(axis=0)
    return (phi.d[half.direction] - half.c_self @ grad
            + ((half.sign * ell - 2) / 2.0 - weight) * df_phi
            - (0.5 * half.sign) * df * (ctx.theta @ phi.value))


def _dirac(inners: np.ndarray, half: _Half) -> np.ndarray:
    """The half's Dirac operator 2 sum_a c_other[a] inner_a: D- on (1,0), D+ on (0,1)."""
    return 2.0 * (half.c_other @ inners).sum(axis=0)


def _twistor(inners: np.ndarray, half: _Half, q: int, ctx: _FiberContext) -> np.ndarray:
    """The half's twistor slots inner_a + w_q c_self[a] (its Dirac operator), w_q = b_q on (1,0), a_q on (0,1)."""
    a_q, b_q = twistor_weights(ctx.m, q)
    w_q = b_q if half is ctx.half10 else a_q
    return inners + w_q * (half.c_self @ _dirac(inners, half))


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def default_sample_points(dim: int, count: int = 24) -> np.ndarray:
    """Deterministic low-discrepancy sample points on the unit torus."""
    if dim > len(_PRIMES):
        raise ValueError(f"at most {len(_PRIMES)} coordinates supported")
    alphas = np.sqrt(np.array(_PRIMES[:dim], dtype=float)) % 1.0
    steps = np.arange(1, count + 1, dtype=float)[:, None]
    return (steps * alphas + 0.05) % 1.0


def _test_spinor(ctx: _FiberContext, q: int) -> list[TrigPoly]:
    """Deterministic grade-q spinor field with generic trig components, one TrigPoly per fiber state."""
    dim = 2 * ctx.m
    components = []
    idx = 0
    for subset in ctx.module.subsets:
        if len(subset) != q:
            components.append(TrigPoly(dim))
            continue
        coeffs = {(0,) * dim: 0.35 + 0.15j * (idx + 1)}
        n1 = [0] * dim
        n1[idx % dim] = 1
        coeffs[tuple(n1)] = 0.2 - 0.05j * (idx + 2)
        n2 = [0] * dim
        n2[(idx + 1) % dim] = -1
        n2[idx % dim] += 1
        coeffs[tuple(n2)] = 0.07 + 0.11j
        components.append(TrigPoly(dim, coeffs))
        idx += 1
    return components


def _pointwise_defect(lhs: np.ndarray, rhs: np.ndarray, weight_exponent: float, f: _Jet) -> float:
    """max over sample points of exp(-weight_exponent f) |lhs - rhs|; the last axis runs over the points."""
    return float(np.max(np.exp(-weight_exponent * f.value.real) * np.abs(lhs - rhs)))


def _conformal_inputs(space: SectionSpace, ell: int, f: ConformalScale, sample_points) -> tuple[_FiberContext, np.ndarray, _Jet]:
    """Fiber context, sample points and f's jet there, after checking ell, f and the points against the space."""
    if isinstance(ell, bool) or not isinstance(ell, int):
        raise ValueError(f"weight must be an integer, got {ell!r}")
    if not isinstance(f, ConformalScale):
        raise TypeError(f"conformal factor must be a ConformalScale, got {type(f).__name__}")
    m = space.m
    if f.m != m:
        raise ValueError(f"conformal factor has m = {f.m}, section space has m = {m}")
    if sample_points is None:
        sample_points = default_sample_points(2 * m)
    points = np.atleast_2d(np.asarray(sample_points, dtype=float))
    if points.shape[1] != 2 * m:
        raise ValueError(f"sample points need {2 * m} coordinates, got {points.shape[1]}")
    return _FiberContext(m), points, _jet([f.poly], points, m)


def _covariance_defects(ctx, ell, q, f: _Jet, points, offsets=(0,)):
    """Pointwise covariance defects of the four graded operators at grade q.

    Returns {name: {offset: defect}} where offset perturbs the canonical
    exp(-v f) weight by an integer.
    """
    mu = ctx.m - 2 * q
    phi = _jet(_test_spinor(ctx, q), points, ctx.m)

    def twistor(inners, half):
        return _twistor(inners, half, q, ctx)

    entries = {
        "dirac_plus": (_dirac, ctx.half01, ctx.m + 1 - (mu + ell) / 2.0),
        "dirac_minus": (_dirac, ctx.half10, ctx.m + 1 + (mu + ell) / 2.0),
        "twistor_01": (twistor, ctx.half01, (mu - ell) / 2.0 - 1.0),
        "twistor_10": (twistor, ctx.half10, (ell - mu) / 2.0 - 1.0),
    }
    out = {}
    for name, (operator, half, weight) in entries.items():
        reference = operator(phi.d[half.direction], half)
        out[name] = {
            off: _pointwise_defect(operator(_nabla_tilde(phi, f, half, ell, weight + off, ctx), half),
                                   reference, weight + off + 1.0, f)
            for off in offsets
        }
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
    ctx, points, fjet = _conformal_inputs(space, ell, f, sample_points)
    m = space.m
    worst = 0.0
    for q in range(m + 1):
        defects = _covariance_defects(ctx, ell, q, fjet, points)
        worst = max(worst, *(d[0] for d in defects.values()))

    if (m + ell) % 2 == 0 and abs(ell) <= m:
        phi = _jet(_test_spinor(ctx, (m + ell) // 2), points, m)
        weight = float(m + 1)
        halves = (ctx.half01, ctx.half10)
        lhs = sum(_dirac(_nabla_tilde(phi, fjet, half, ell, weight, ctx), half) for half in halves)
        rhs = sum(_dirac(phi.d[half.direction], half) for half in halves)
        worst = max(worst, _pointwise_defect(lhs, rhs, weight + 1.0, fjet))
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
    ctx, points, fjet = _conformal_inputs(space, ell, f, sample_points)
    if isinstance(q, bool) or not isinstance(q, int) or not 0 <= q <= space.m:
        raise ValueError(f"grade q must lie in 0..{space.m}, got {q}")
    return _covariance_defects(ctx, ell, q, fjet, points, offsets=tuple(offsets))
