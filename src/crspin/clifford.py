"""Spinor module and Clifford algebra of the Levi distribution.

The rank 2^m spinor module is realized on the exterior algebra of C^m.
Basis spinors are labeled by subsets S of {1, ..., m} and listed in order of
increasing grade q = |S| (lexicographic within a grade), so the grading
blocks are contiguous.  The frame conventions:

* the holomorphic frame vector E_a acts as the signed creation operator
  ``creation_matrix(m, a)``,
* its conjugate Ebar_a acts as minus the annihilation operator
  ``annihilation_matrix(m, a)``,
* the underlying real frame vectors act as create - annihilate and
  i * (create + annihilate),
* the grading operator induced by the contact form acts on grade q by the
  integer m - 2q (``theta_matrix``).

The Clifford matrices are built from Jordan-Wigner signs, so each entry is
0, +-1 or +-i, and so is each entry of a product of two of them; the
grading operator is a diagonal of small integers.  Sums and products of
these matrices are therefore exact in complex128: the anticommutation
relations, the skew-adjointness of the real frame and the two-form
contraction of the Levi form reproducing the grading operator hold bit for
bit, which is how the test suite checks them.

This bottom module of the import graph also holds the library's argument
guards, ``_integer`` and ``_positive``, which every module calls, and the
table of default tolerances that a run's config and every default ``tol`` read.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb, inf
from typing import FrozenSet, Iterable, Tuple

import numpy as np

__all__ = [
    "SpinorModule",
    "theta_matrix",
    "creation_matrix",
    "annihilation_matrix",
    "two_form_matrix",
    "dtheta_frame_matrix",
]

Subset = FrozenSet[int]

TOLERANCE_DEFAULTS = {"algebraic": 1e-12, "dual_assembly": 1e-10, "spectral": 1e-8, "conformal": 1e-9}


def _sign(subset: Subset, alpha: int) -> int:
    """Jordan-Wigner sign: parity of elements of ``subset`` below ``alpha``."""
    return -1 if sum(1 for s in subset if s < alpha) % 2 else 1


def _integer(value, name, low=None, high=None) -> int:
    """``value`` if it is an int, not a bool, in low..high; else a ValueError naming ``name``.

    True is an int to isinstance and int() truncates 2.5, so either would
    quietly change which dimension, weight, degree or sector gets checked.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        if (low is None or low <= value) and (high is None or value <= high):
            return value
    if high is not None:
        need = f"lie in {low}..{high}"
    else:
        need = "be an integer" if low is None else "be a positive integer" if low == 1 else f"be an integer >= {low}"
    raise ValueError(f"{name} must {need}, got {value!r}")


def _positive(value, name) -> float:
    """``value`` as a float if it is a positive finite number, not a bool; else a ValueError naming ``name``.

    NaN passes a plain ``value <= 0`` test, and True reads as 1.0.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


class SpinorModule:
    """Indexing data for the rank 2^m spinor module."""

    def __init__(self, m: int):
        _integer(m, "CR dimension m", low=1)
        self.m = m
        self.dim = 2 ** m
        self.subsets: Tuple[Subset, ...] = tuple(
            frozenset(c) for q in range(m + 1) for c in combinations(range(1, m + 1), q)
        )
        self.degrees = tuple(len(s) for s in self.subsets)
        self._position = {s: i for i, s in enumerate(self.subsets)}
        self._grade_start = [0] * (m + 2)
        for q in range(m + 1):
            self._grade_start[q + 1] = self._grade_start[q] + comb(m, q)

    def index_of(self, subset: Iterable[int]) -> int:
        key = frozenset(_integer(a, "subset element") for a in subset)
        try:
            return self._position[key]
        except KeyError:
            raise ValueError(f"{set(subset)!r} is not a subset of 1..{self.m}") from None

    def grade_slice(self, q: int) -> slice:
        """Basis positions of the degree-q spinors; every grade a caller takes is checked here."""
        _integer(q, "grade q", 0, self.m)
        return slice(self._grade_start[q], self._grade_start[q + 1])


@lru_cache(maxsize=None)
def _jordan_wigner(m: int, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (creation, annihilation) matrices of slot ``alpha``.

    Creation sends S (alpha not in S) to S | {alpha} with the sign of
    ``_sign``; annihilation is its transpose.
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
    """Signed wedge (creation) operator: the action of E_alpha.  Read-only."""
    _integer(alpha, "frame index", 1, _integer(m, "CR dimension m", low=1))
    return _jordan_wigner(m, alpha)[0]


def annihilation_matrix(m: int, alpha: int) -> np.ndarray:
    """Signed contraction (annihilation) operator: minus the action of Ebar_alpha.  Read-only."""
    _integer(alpha, "frame index", 1, _integer(m, "CR dimension m", low=1))
    return _jordan_wigner(m, alpha)[1]


def theta_matrix(m: int) -> np.ndarray:
    module = SpinorModule(m)
    return np.diag([float(m - 2 * len(s)) for s in module.subsets]).astype(complex)


def _real_frame_matrices(m: int) -> tuple[np.ndarray, ...]:
    """c(real_a) = create - annihilate, then c(realJ_a) = i (create + annihilate)."""
    pairs = [_jordan_wigner(m, a) for a in range(1, m + 1)]
    return tuple([c - a for c, a in pairs] + [1j * (c + a) for c, a in pairs])


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
