"""Spinor module and Clifford algebra of the Levi distribution.

The rank 2^m spinor module is realized on the exterior algebra of C^m.
Basis spinors are labeled by subsets S of {1, ..., m} and listed in order of
increasing grade q = |S| (lexicographic within a grade), so the grading
blocks are contiguous.  The frame conventions, fixed once and validated by
the exact test suite:

* the holomorphic frame vector with index a acts as the signed creation
  operator (kind ``create``),
* its conjugate acts as minus the matching annihilation operator
  (kind ``annihilate``),
* the underlying real frame vectors are ``real`` = create - annihilate and
  ``realJ`` = i * (create + annihilate),
* the grading operator induced by the contact form acts on grade q by the
  integer m - 2q.

With these choices every generator matrix has Gaussian-integer entries, the
creation/annihilation pairs satisfy the anticommutation relations on the
nose, real vectors are skew-adjoint with square -1, and the two-form
contraction of the Levi form reproduces the grading operator exactly.  All
of this can therefore be checked in exact rational arithmetic, which is what
:class:`GaussianFraction` provides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Dict, FrozenSet, Iterable, Tuple, Union

import numpy as np

__all__ = [
    "GaussianFraction",
    "SpinorModule",
    "SpinorVector",
    "CliffordGenerator",
    "GENERATOR_KINDS",
    "apply_generator",
    "theta_apply",
    "project_mu",
    "generator_matrix",
    "theta_matrix",
    "grade_projector",
    "creation_matrix",
    "annihilation_matrix",
    "vector_matrix",
    "two_form_matrix",
    "dtheta_frame_matrix",
]

GENERATOR_KINDS = ("create", "annihilate", "real", "realJ")

_RationalLike = Union[int, Fraction]


class GaussianFraction:
    """Exact complex number with rational real and imaginary parts.

    The stdlib has exact rationals but no exact complex rationals; this is
    the minimal closure of Fraction under the arithmetic the spinor algebra
    needs (ring operations, conjugation, comparison with zero).
    """

    __slots__ = ("re", "im")

    def __init__(self, re: _RationalLike = 0, im: _RationalLike = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def coerce(cls, value) -> "GaussianFraction":
        if isinstance(value, GaussianFraction):
            return value
        if isinstance(value, complex):
            raise TypeError("refusing to coerce a float complex into exact arithmetic")
        return cls(value)

    def __add__(self, other):
        other = GaussianFraction.coerce(other)
        return GaussianFraction(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianFraction(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussianFraction.coerce(other))

    def __rsub__(self, other):
        return GaussianFraction.coerce(other) + (-self)

    def __mul__(self, other):
        other = GaussianFraction.coerce(other)
        return GaussianFraction(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianFraction":
        return GaussianFraction(self.re, -self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GaussianFraction(other)
        if not isinstance(other, GaussianFraction):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"GaussianFraction({self.re!r}, {self.im!r})"


GaussianFraction.ZERO = GaussianFraction(0)
GaussianFraction.ONE = GaussianFraction(1)
GaussianFraction.I = GaussianFraction(0, 1)

Subset = FrozenSet[int]


def _normalize_subset(subset: Iterable[int]) -> Subset:
    return frozenset(int(a) for a in subset)


def _sign(subset: Subset, alpha: int) -> int:
    """Jordan-Wigner sign: parity of elements of ``subset`` below ``alpha``."""
    return -1 if sum(1 for s in subset if s < alpha) % 2 else 1


class SpinorModule:
    """Indexing data for the rank 2^m spinor module."""

    def __init__(self, m: int):
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"CR dimension m must be a positive integer, got {m!r}")
        self.m = m
        self.dim = 2 ** m
        self.subsets: Tuple[Subset, ...] = tuple(
            frozenset(c) for q in range(m + 1) for c in combinations(range(1, m + 1), q)
        )
        self._position = {s: i for i, s in enumerate(self.subsets)}
        self._grade_start = [0] * (m + 2)
        for q in range(m + 1):
            self._grade_start[q + 1] = self._grade_start[q] + comb(m, q)

    def index_of(self, subset: Iterable[int]) -> int:
        key = _normalize_subset(subset)
        try:
            return self._position[key]
        except KeyError:
            raise ValueError(f"{set(subset)!r} is not a subset of 1..{self.m}") from None

    def grade_slice(self, q: int) -> slice:
        if not 0 <= q <= self.m:
            raise ValueError(f"grade q must lie in 0..{self.m}, got {q}")
        return slice(self._grade_start[q], self._grade_start[q + 1])

    def grade_dim(self, q: int) -> int:
        return comb(self.m, q)

    def basis_vector(self, subset: Iterable[int]) -> "SpinorVector":
        key = _normalize_subset(subset)
        self.index_of(key)
        return SpinorVector(self.m, {key: GaussianFraction.ONE})


class SpinorVector:
    """Sparse spinor with exact or floating coefficients over the subset basis."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: Dict[Subset, object] | None = None):
        self.m = m
        self.coeffs: Dict[Subset, object] = {}
        if coeffs:
            for subset, value in coeffs.items():
                key = _normalize_subset(subset)
                if any(a < 1 or a > m for a in key):
                    raise ValueError(f"{set(subset)!r} is not a subset of 1..{m}")
                if value:
                    self.coeffs[key] = value

    def _check_mate(self, other: "SpinorVector") -> None:
        if self.m != other.m:
            raise ValueError(f"mismatched spinor modules: m={self.m} vs m={other.m}")

    def __add__(self, other: "SpinorVector") -> "SpinorVector":
        self._check_mate(other)
        out = dict(self.coeffs)
        for subset, value in other.coeffs.items():
            total = out.get(subset, 0) + value
            if total:
                out[subset] = total
            else:
                out.pop(subset, None)
        return SpinorVector(self.m, out)

    def __sub__(self, other: "SpinorVector") -> "SpinorVector":
        return self + other.scale(-1)

    def scale(self, factor) -> "SpinorVector":
        if not factor:
            return SpinorVector(self.m)
        return SpinorVector(self.m, {s: factor * v for s, v in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def inner(self, other: "SpinorVector"):
        """Hermitian inner product, conjugate-linear in ``self``."""
        self._check_mate(other)
        total = None
        for subset, value in self.coeffs.items():
            if subset in other.coeffs:
                term = _conj(value) * other.coeffs[subset]
                total = term if total is None else total + term
        if total is None:
            return GaussianFraction.ZERO if self._exact() else 0j
        return total

    def _exact(self) -> bool:
        return all(isinstance(v, (GaussianFraction, int, Fraction)) for v in self.coeffs.values())

    def to_array(self, module: SpinorModule) -> np.ndarray:
        if module.m != self.m:
            raise ValueError("module dimension mismatch")
        out = np.zeros(module.dim, dtype=complex)
        for subset, value in self.coeffs.items():
            out[module.index_of(subset)] = value.to_complex() if isinstance(value, GaussianFraction) else complex(value)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpinorVector):
            return NotImplemented
        return self.m == other.m and (self - other).is_zero()

    def __repr__(self):
        terms = {tuple(sorted(s)): v for s, v in self.coeffs.items()}
        return f"SpinorVector(m={self.m}, {terms!r})"


def _conj(value):
    if isinstance(value, GaussianFraction):
        return value.conjugate()
    if isinstance(value, complex):
        return value.conjugate()
    return value


@dataclass(frozen=True)
class CliffordGenerator:
    """One frame generator acting on the spinor module of CR dimension m.

    ``create``/``annihilate`` are the complex frame directions (a holomorphic
    vector and its conjugate), ``real``/``realJ`` the two real frame vectors
    spanning the same complex line.
    """

    kind: str
    index: int
    m: int

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}; expected one of {GENERATOR_KINDS}")
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"CR dimension m must be a positive integer, got {self.m!r}")
        if not isinstance(self.index, int) or not 1 <= self.index <= self.m:
            raise ValueError(f"frame index must lie in 1..{self.m}, got {self.index!r}")


def _apply_create(vec: SpinorVector, alpha: int) -> SpinorVector:
    out: Dict[Subset, object] = {}
    for subset, value in vec.coeffs.items():
        if alpha in subset:
            continue
        out[subset | {alpha}] = value * _sign(subset, alpha)
    return SpinorVector(vec.m, out)


def _apply_annihilate_raw(vec: SpinorVector, alpha: int) -> SpinorVector:
    out: Dict[Subset, object] = {}
    for subset, value in vec.coeffs.items():
        if alpha not in subset:
            continue
        out[subset - {alpha}] = value * _sign(subset, alpha)
    return SpinorVector(vec.m, out)


def apply_generator(gen: CliffordGenerator, vec: SpinorVector) -> SpinorVector:
    """Clifford-multiply ``vec`` by one frame generator.

    Exact when the coefficients are exact; raises on module mismatch.
    """
    if gen.m != vec.m:
        raise ValueError(f"generator lives on m={gen.m} but vector on m={vec.m}")
    a = gen.index
    if gen.kind == "create":
        return _apply_create(vec, a)
    if gen.kind == "annihilate":
        return _apply_annihilate_raw(vec, a).scale(-1)
    if gen.kind == "real":
        return _apply_create(vec, a) - _apply_annihilate_raw(vec, a)
    # realJ = i * (create + raw annihilation)
    factor = GaussianFraction.I if vec._exact() else 1j
    return (_apply_create(vec, a) + _apply_annihilate_raw(vec, a)).scale(factor)


def theta_apply(vec: SpinorVector) -> SpinorVector:
    """Apply the grading operator of the contact form: grade q scales by m - 2q."""
    m = vec.m
    return SpinorVector(m, {s: v * (m - 2 * len(s)) for s, v in vec.coeffs.items() if m != 2 * len(s)})


def project_mu(vec: SpinorVector, q: int) -> SpinorVector:
    """Project onto the grading eigenspace of grade q (eigenvalue m - 2q)."""
    if not 0 <= q <= vec.m:
        raise ValueError(f"grade q must lie in 0..{vec.m}, got {q}")
    return SpinorVector(vec.m, {s: v for s, v in vec.coeffs.items() if len(s) == q})


# ---------------------------------------------------------------------------
# dense matrix layer (complex128, fixed subset basis ordering)
# ---------------------------------------------------------------------------


def _matrix_from_action(module: SpinorModule, action) -> np.ndarray:
    out = np.zeros((module.dim, module.dim), dtype=complex)
    for col, subset in enumerate(module.subsets):
        image = action(SpinorVector(module.m, {subset: GaussianFraction.ONE}))
        for target, value in image.coeffs.items():
            scalar = value.to_complex() if isinstance(value, GaussianFraction) else complex(value)
            out[module.index_of(target), col] = scalar
    return out


def generator_matrix(gen: CliffordGenerator, module: SpinorModule | None = None) -> np.ndarray:
    module = module or SpinorModule(gen.m)
    if module.m != gen.m:
        raise ValueError("module dimension mismatch")
    return _matrix_from_action(module, lambda v: apply_generator(gen, v))


@lru_cache(maxsize=None)
def _jordan_wigner(m: int, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (creation, annihilation) matrices of slot ``alpha``.

    Creation sends S (alpha not in S) to S | {alpha} with the sign of
    ``_sign``; annihilation is its transpose.  ``generator_matrix`` builds
    the same matrices from the exact action and is kept as the test oracle.
    """
    module = SpinorModule(m)
    create = np.zeros((module.dim, module.dim), dtype=complex)
    for col, subset in enumerate(module.subsets):
        if alpha not in subset:
            create[module.index_of(subset | {alpha}), col] = _sign(subset, alpha)
    annihilate = create.T.copy()
    create.flags.writeable = annihilate.flags.writeable = False
    return create, annihilate


def creation_matrix(m: int, alpha: int) -> np.ndarray:
    """Signed wedge (creation) operator; equals the ``create`` generator.  Read-only."""
    CliffordGenerator("create", alpha, m)  # validates m and alpha
    return _jordan_wigner(m, alpha)[0]


def annihilation_matrix(m: int, alpha: int) -> np.ndarray:
    """Signed contraction (annihilation) operator; minus the ``annihilate`` generator.  Read-only."""
    CliffordGenerator("annihilate", alpha, m)
    return _jordan_wigner(m, alpha)[1]


def theta_matrix(m: int) -> np.ndarray:
    module = SpinorModule(m)
    return np.diag([float(m - 2 * len(s)) for s in module.subsets]).astype(complex)


def grade_projector(m: int, q: int) -> np.ndarray:
    module = SpinorModule(m)
    if not 0 <= q <= m:
        raise ValueError(f"grade q must lie in 0..{m}, got {q}")
    diag = [1.0 if len(s) == q else 0.0 for s in module.subsets]
    return np.diag(diag).astype(complex)


def _real_frame_matrices(m: int) -> tuple[np.ndarray, ...]:
    """c(real_a) = create - annihilate, then c(realJ_a) = i (create + annihilate)."""
    pairs = [_jordan_wigner(m, a) for a in range(1, m + 1)]
    return tuple([c - a for c, a in pairs] + [1j * (c + a) for c, a in pairs])


def vector_matrix(m: int, coefficients: np.ndarray) -> np.ndarray:
    """Clifford action of a real frame vector with the given 2m components.

    Component order is (real_1, ..., real_m, realJ_1, ..., realJ_m).
    """
    coefficients = np.asarray(coefficients)
    if coefficients.shape != (2 * m,):
        raise ValueError(f"expected {2 * m} frame components, got shape {coefficients.shape}")
    out = np.zeros((SpinorModule(m).dim,) * 2, dtype=complex)
    for coeff, mat in zip(coefficients, _real_frame_matrices(m)):
        if coeff:
            out += coeff * mat
    return out


def two_form_matrix(m: int, components: np.ndarray) -> np.ndarray:
    """Clifford action of a two-form given by real-frame components.

    ``components`` is the antisymmetric 2m x 2m matrix w(s_i, s_j) in the
    frame order (real_1..real_m, realJ_1..realJ_m); the action is
    sum_{i<j} w_ij c(s_i) c(s_j).
    """
    components = np.asarray(components, dtype=complex)
    if components.shape != (2 * m, 2 * m):
        raise ValueError(f"expected a {2 * m} x {2 * m} component matrix, got {components.shape}")
    if not np.allclose(components, -components.T, atol=1e-12):
        raise ValueError("two-form components must be antisymmetric")
    out = np.zeros((SpinorModule(m).dim,) * 2, dtype=complex)
    frame = _real_frame_matrices(m)
    for i in range(2 * m):
        for j in range(i + 1, 2 * m):
            if components[i, j]:
                out += components[i, j] * (frame[i] @ frame[j])
    return out


def dtheta_frame_matrix(m: int) -> np.ndarray:
    """Real-frame components of the Levi two-form: dtheta(real_a, realJ_b) = 2 delta."""
    out = np.zeros((2 * m, 2 * m))
    out[:m, m:] = 2.0 * np.eye(m)
    out[m:, :m] = -2.0 * np.eye(m)
    return out
