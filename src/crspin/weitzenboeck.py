"""Curvature terms and identities of the square of the Kohn-Dirac operator.

On the spinor weight block mu = m - 2q the square formula at twist ell is

    D^2 = ((m - mu)/m) nabla_10* nabla_10 + ((m + mu)/m) nabla_01* nabla_01
          + curvature_term(model, ell, q).

This module assembles the curvature terms from the model's Webster Ricci
data, splits them into a Ricci derivation part and a trace-free
remainder, and measures residuals of the formula on section spaces: the
Lichnerowicz identity is the formula on every block at the model's
twist, and the fixed-weight identity is its twist-ell case on the block
mu = -ell.  Both are identities of D^2, as is the Kohn Laplacian shift
box - box_bar = (m - q) N, and every reader of a sector's D goes through
one pass, ``sector_pass``: it gathers D once (``operators.dirac_blocks``),
joins D^2 once (``SectionSpace.square_rows``) and reads each fiber row in
one loop, on every call, for the shift defects (``gram_shift_defect``),
D^2's degree diagonal for the kernel counts, ker D_q = ker box_q, and the
Lichnerowicz and fixed-weight residuals and D+-^2 maxima, on the present
states of complete blocks (``complete_max``): no whole D^2 and no
full-space matrix is formed.  The Clifford generators anticommute, so
D^2 is diagonal on each per-slot block; the pass certifies that, and the
diagonal is then the spectrum, with no eigensolve.  It keeps only these
reductions, names its reader in a ``MemoryError``, and its record alone
refuses a D term off its degree shift, a D- off the adjoint of D+ or a
D^2 off its diagonal (``SectorPass.graded``).  ``sl_residual``,
``dl_residual``, the run's memo and ``cohomology``'s readers call it.

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

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .clifford import (
    SpinorModule,
    _integer,
    _positive,
    annihilation_matrix,
    creation_matrix,
    theta_matrix,
    two_form_matrix,
)
from .fields import TrigPoly
from .models import PseudoHermitianModel, rho_frame_components
from .operators import KernelCount, diagonal_kernel_count, dirac_blocks, twistor_weights
from .sections import SectionSpace

__all__ = [
    "curvature_term",
    "ricci_spinor_action",
    "q_split",
    "sl_residual",
    "dl_residual",
    "SectorPass",
    "sector_pass",
    "gram_shift_defect",
    "ConformalScale",
    "conformal_check",
    "exponent_scan",
    "default_sample_points",
]


def curvature_term(model: PseudoHermitianModel, ell: int, q: int) -> np.ndarray:
    """Curvature term of the Kohn-Dirac square on the weight-q block, Hermitian whenever the model's Ricci matrix is.

    The block operator is

        -(i/2) (ell/(m+2) + mu/m) c(rho)
            + (1 + ell mu / (m (m+2))) scal / 4,

    restricted to the grade-q part of the fiber (mu = m - 2q).
    """
    _integer(ell, "weight")
    m = model.m
    block = SpinorModule(m).grade_slice(q)
    mu = m - 2 * q
    crho = two_form_matrix(m, rho_frame_components(model.rho))
    coeff = ell / (m + 2) + mu / m
    scalar = (1.0 + ell * mu / (m * (m + 2))) * model.scal_w / 4.0
    full = -0.5j * coeff * crho + scalar * np.eye(crho.shape[0])
    return full[block, block]


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
    _integer(ell, "weight")
    m = model.m
    block = SpinorModule(m).grade_slice(q)
    mu = m - 2 * q
    r_star = ricci_spinor_action(model.rho)[block, block]
    trace_r = float(np.real(np.trace(model.rho)))
    ident = np.eye(r_star.shape[0])
    k = ((ell - m - 2) / (m + 2)) * (r_star - trace_r * (1.0 - mu / m) * ident)
    return r_star, k


def sl_residual(space: SectionSpace) -> float:
    """Residual of the Schroedinger-Lichnerowicz identity on complete blocks, off the space's own sector pass: D^2
    against the weighted sum of horizontal Laplacians plus the curvature term at the model's twist, where both
    sides are the untruncated operators' blocks.  Between degrees the residual is D^2's own entry."""
    return sector_pass(space).square[0]


def dl_residual(space: SectionSpace, ell: int) -> float:
    """Residual of the distinguished-weight Laplacian identity on complete blocks.

    On the mu = -ell weight block the Kohn-Dirac square equals

        ((m+ell)/m) nabla_10* nabla_10 + ((m-ell)/m) nabla_01* nabla_01
            + i ell c(rho) / (m (m+2)) + (1 - ell^2/(m (m+2))) scal / 4.

    The weight must satisfy ell in {-m, -m+2, ..., m}; on the flat
    models the twist enters only through these coefficients, so a single
    section space realizes every admissible weight, read off its own
    sector pass.
    """
    m = space.m
    _integer(ell, "weight")
    if (m + ell) % 2 != 0 or abs(ell) > m:
        raise ValueError(
            f"no weight block mu = {-ell} for m = {m}; ell must lie in {{-m, -m+2, ..., m}}"
        )
    return sector_pass(space).square[1][ell]


def _less_curvature(row: dict, s: int, start: int, curvature: np.ndarray) -> dict:
    """Keys of fiber row s of D^2 (``row``) on the degree columns from ``start`` minus row s - start of the curvature
    term there; a column where the row has no key and the term is 0 stays 0 and is left out."""
    zeros = np.zeros_like(row[s, s])
    return {(s, start + j): row.get((s, start + j), zeros) - value for j, value in enumerate(curvature[s - start])
            if (s, start + j) in row or value != 0}


def gram_shift_defect(space: SectionSpace, s: int, row: dict) -> float:
    """Defect of box - box_bar = (m - q) N on fiber row s of degree q's complete blocks, box = D^2 / 2 read off
    ``row``, D^2's keys of that row on the degree-q columns; box_bar = I (x) diag(lap10) is a diagonal.  Both sides
    are zero between blocks and between degrees, so the rows hold every nonzero entry of the difference."""
    q, lap10 = space.module.degrees[s], space.horizontal_laplacians()[0]
    box = {key: 0.5 * vec for key, vec in row.items()}
    box[s, s] = box.get((s, s), 0.0) - lap10[space.blocks()[:, s]] - (space.m - q) * (-2.0 * space.t)
    return space.complete_max(box)


@dataclass(frozen=True)
class SectorPass:
    """One sector's reductions of D (``sector_pass``), never its keys: why the degree-block readers are ``refused``
    (None if they are not), the per-degree ``shift`` defects and ``kernel`` counts, the identities ``rows`` and
    D^2's ``square`` residuals (Lichnerowicz, {ell: fixed-weight})."""

    space: SectionSpace
    refused: str | None
    shift: dict[int, float]
    kernel: dict[int, KernelCount]
    rows: dict
    square: tuple

    def graded(self, key: str):
        """The ``shift`` or ``kernel`` reduction, or ``ValueError`` naming the sector and why it is ``refused``: D^2's
        degree blocks miss a D term off its degree shift, are D's Grams and 2 box only while D- = D+^H, and have
        their diagonal as spectrum only while every entry off it is 0."""
        if self.refused:
            raise ValueError(f"{self.space.model.kind} sector {self.space.sector}: {self.refused}")
        return getattr(self, key)


def sector_pass(space: SectionSpace, tol: float = 1e-8) -> SectorPass:
    """One gather of D (``operators.dirac_blocks``) and one join of D^2 (``SectionSpace.square_rows``), read in one
    loop over D^2's fiber rows.  On the row of a degree-q state s it reads, in this order:

    * its degree-q keys for the ``shift`` defects (``gram_shift_defect``);
    * its diagonal key into degree q's (n_blocks, d_q) diagonal for the kernel counts at ``tol``
      (``diagonal_kernel_count``), and its other degree-q keys, whole, for the certificate that they are 0 on every
      block, complete and cut (``stack`` zeroes D at removed states, so D^2 is exactly 0 there);
    * with the weighted horizontal Laplacians taken off its diagonal key, the curvature term at twist 2q - m off its
      degree-q keys for the fixed-weight residual and the model's for the Lichnerowicz residual, whose formula keeps
      the degree, so the row's other keys count as they stand;
    * its keys two degrees down and up, D+^2 and D-^2 (D+ fills D's keys one degree up and D- those one degree
      down), for their maxima on every block.

    A ``MemoryError`` names its reader."""
    tol = _positive(tol, "kernel tolerance")
    m, model, degree = space.m, space.model, space.module.degrees
    reader, defects, counts, off_diagonal = "the gather", {}, {}, {}
    lichnerowicz, covariant, plus, minus = [], {2 * q - m: [] for q in range(m + 1)}, [0.0], [0.0]
    try:
        dirac, grading = dirac_blocks(space)
        # D-'s key (s, c) one degree down against D+'s (c, s), a missing key read as 0
        pairs = sorted({(s, c) if degree[s] < degree[c] else (c, s)
                        for s, c in dirac if abs(degree[s] - degree[c]) == 1})
        adjoint = [np.abs(dirac.get((s, c), 0.0) - np.conj(dirac.get((c, s), 0.0))).max() for s, c in pairs]
        at = int(np.argmax(adjoint))  # the first NaN if there is one
        refused = next((f"term {index} has fiber entries off its degree shift (largest {defect:.2e})"
                        for index, defect in enumerate(grading) if defect), None)
        if refused is None and adjoint[at]:
            refused = f"D- is not the adjoint of D+ (largest defect {adjoint[at]:.2e}, fiber pair {pairs[at]})"
        reader = "D^2"
        (lap10, lap01), partners = space.horizontal_laplacians(), space.blocks()
        twists = [(curvature_term(model, 2 * q - m, q), curvature_term(model, model.ell, q)) for q in range(m + 1)]
        for s, row in enumerate(space.square_rows(dirac)):
            q, fib = degree[s], space.module.grade_slice(degree[s])
            block = {key: vec for key, vec in row.items() if degree[key[1]] == q}
            reader = "shift defects"
            defects.setdefault(q, []).append(gram_shift_defect(space, s, block))
            reader = "kernel counts"
            if s == fib.start:
                diagonal = np.zeros((len(partners), fib.stop - fib.start))
            diagonal[:, s - fib.start] = block.get((s, s), 0.0).real
            off_diagonal.update({(s, c): np.abs(vec).max() for (_, c), vec in block.items() if c != s})
            if s == fib.stop - 1:
                counts[q] = diagonal_kernel_count(space, q, diagonal, tol)
            reader = "D^2"
            mu = m - 2 * q
            weighted = (1.0 - mu / m) * lap10[partners[:, s]] + (1.0 + mu / m) * lap01[partners[:, s]]
            row[s, s] = row[s, s] - weighted if (s, s) in row else -weighted
            # the fixed-weight identity at twist ell = 2q - m is read on its block mu = -ell
            covariant[2 * q - m].append(space.complete_max(_less_curvature(row, s, fib.start, twists[q][0])))
            row.update(_less_curvature(row, s, fib.start, twists[q][1]))
            lichnerowicz.append(space.complete_max(row))
            plus += [np.abs(vec).max() for (_, c), vec in row.items() if degree[c] == q - 2]
            minus += [np.abs(vec).max() for (_, c), vec in row.items() if degree[c] == q + 2]
    except MemoryError as exc:
        raise MemoryError(f"{exc} (in {reader})") from None
    if off_diagonal and refused is None:
        pair = list(off_diagonal)[int(np.argmax(list(off_diagonal.values())))]  # the first NaN if there is one
        if off_diagonal[pair]:
            refused = (f"D^2 is not diagonal on degree {degree[pair[0]]} "
                       f"(largest off-diagonal {off_diagonal[pair]:.2e}, fiber pair {pair})")
    # np.max, not max: a NaN row must reach the report; grading is read off the terms' fiber matrices, so D+^2 and
    # D-^2 see every entry only while it passes
    rows = {"dirac_plus_squared": float(np.max(plus)), "dirac_minus_squared": float(np.max(minus)),
            "adjoint_defect": float(adjoint[at]), "grading_defect": float(np.max(grading))}
    return SectorPass(space, refused, {q: float(np.max(v)) for q, v in defects.items()}, counts, rows,
                      (float(np.max(lichnerowicz)), {ell: float(np.max(v)) for ell, v in covariant.items()}))


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
        if poly.dim != 2 * _integer(m, "CR dimension m", low=1):
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


def default_sample_points(dim: int) -> np.ndarray:
    """Deterministic low-discrepancy sample points on the unit torus: the fractional parts of
    step * sqrt(p) + 0.05, step = 1..24, for the first ``dim`` primes p."""
    primes = list(itertools.islice((n for n in itertools.count(2) if all(n % d for d in range(2, n))),
                                    _integer(dim, "dimension", low=1)))
    alphas = np.sqrt(np.array(primes, dtype=float)) % 1.0
    steps = np.arange(1, 25, dtype=float)[:, None]
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
    with np.errstate(over="ignore", invalid="ignore"):  # a weight that overflows gives a NaN defect, which fails
        return float(np.max(np.exp(-weight_exponent * f.value.real) * np.abs(lhs - rhs)))


def _conformal_inputs(space: SectionSpace, ell: int, f: ConformalScale) -> tuple[_FiberContext, np.ndarray, _Jet]:
    """Fiber context, the default sample points and f's jet there, after checking ell and f against the space."""
    _integer(ell, "weight")
    if not isinstance(f, ConformalScale):
        raise TypeError(f"conformal factor must be a ConformalScale, got {type(f).__name__}")
    m = space.m
    if f.m != m:
        raise ValueError(f"conformal factor has m = {f.m}, section space has m = {m}")
    points = default_sample_points(2 * m)
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


def conformal_check(space: SectionSpace, ell: int, f: ConformalScale) -> float:
    """Worst pointwise defect of the conformal covariance laws.

    For every weight block the degree-raising and degree-lowering Dirac
    halves and both twistor components are conjugated by their canonical
    exp(-v f) powers and compared against the flat operators at the
    ``default_sample_points``.  On the block mu = -ell (when it exists) the
    full Kohn-Dirac operator's law, at weight m + 1 against weight m + 2 on
    the output, is the sum of its halves' laws, which are read there: the
    halves' outputs lie in disjoint fiber degrees.  Everything is evaluated
    with exact derivatives of the trigonometric factor, so the result is
    truncation-independent.
    """
    ctx, points, fjet = _conformal_inputs(space, ell, f)
    defects = [d[0] for q in range(space.m + 1) for d in _covariance_defects(ctx, ell, q, fjet, points).values()]
    # np.max, not max: a NaN defect must reach the report
    return float(np.max(defects))


def exponent_scan(
    space: SectionSpace,
    ell: int,
    q: int,
    f: ConformalScale,
    offsets=(-2, -1, 0, 1, 2),
) -> dict:
    """Covariance defects with integer-perturbed conformal weights, at the ``default_sample_points``.

    Returns {operator: {offset: defect}} over the int ``offsets`` (a bool
    or float is refused); the canonical weights are the offset-0 entries
    and are the only ones expected to vanish.  Note
    that some operators are identically zero on extreme grades (the
    lowering half on q = 0, the raising half on q = m, and for m = 1
    also one twistor projection on each), where the scan is flat and
    carries no information.
    """
    ctx, points, fjet = _conformal_inputs(space, ell, f)
    space.module.grade_slice(q)  # refuses a grade no spinor has
    return _covariance_defects(ctx, ell, q, fjet, points, offsets=tuple(_integer(off, "offset") for off in offsets))
