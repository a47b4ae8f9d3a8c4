"""Exact trigonometric polynomials on the flat model base.

Conformal covariance is checked pointwise, so every derivative that
enters must be exact: conformal factors and test spinor components are
finite Fourier sums over the unit base torus.  A frequency vector n
(length 2m, integer) stands for the character exp(2 pi i n . x) in the
real base coordinates (x_1..x_m, y_1..y_m); derivatives along the
unitary frame vectors are the usual combinations

    E_a = (d/dx_a - i d/dy_a) / 2,      Ebar_a = (d/dx_a + i d/dy_a) / 2,

which ``TrigPoly.frame_derivative`` forms in coefficient space.  A
polynomial evaluates at one point or at an array of points; the
conformal checks evaluate every input once at their sample points and
do the rest of the algebra on those arrays.
"""

from __future__ import annotations

import numpy as np

from .clifford import _integer

__all__ = ["TrigPoly"]


class TrigPoly:
    """Finite Fourier sum with integer frequencies on a torus.

    ``coeffs`` maps integer frequency tuples of a fixed length to complex
    coefficients; zero coefficients are pruned.
    """

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: dict | None = None):
        self.dim = _integer(dim, "dimension", low=0)
        self.coeffs: dict[tuple[int, ...], complex] = {}
        if coeffs:
            for freq, val in coeffs.items():
                key = tuple(int(f) if isinstance(f, (float, np.floating, np.integer)) and f.is_integer() else f
                            for f in freq)
                if len(key) != self.dim:
                    raise ValueError(f"frequency {key} has wrong length for dimension {self.dim}")
                try:  # integral floats such as 2.0 are accepted on purpose; True, 1.5 and "1" are not
                    key = tuple(_integer(k, "frequency coordinate") for k in key)
                except ValueError:
                    raise ValueError(f"frequency {tuple(freq)} must have integer coordinates") from None
                val = complex(val)
                if val != 0:
                    self.coeffs[key] = self.coeffs.get(key, 0j) + val
            self._prune()

    def _prune(self):
        self.coeffs = {k: v for k, v in self.coeffs.items() if v != 0}

    @classmethod
    def _wave(cls, dim: int, axis: int, frequency: int, plus: complex, minus: complex) -> "TrigPoly":
        """plus * exp(2 pi i frequency x_axis) + minus * exp(-2 pi i frequency x_axis)."""
        if not 0 <= _integer(axis, "axis") < dim:
            raise ValueError(f"axis out of range: {axis}")
        freq = [0] * dim
        freq[axis] = frequency
        return cls(dim, {tuple(freq): plus}) + cls(dim, {tuple(-f for f in freq): minus})

    @classmethod
    def cosine(cls, dim: int, axis: int, amplitude: float = 1.0, frequency: int = 1) -> "TrigPoly":
        """amplitude * cos(2 pi frequency x_axis)."""
        return cls._wave(dim, axis, frequency, 0.5 * amplitude, 0.5 * amplitude)

    @classmethod
    def sine(cls, dim: int, axis: int, amplitude: float = 1.0, frequency: int = 1) -> "TrigPoly":
        """amplitude * sin(2 pi frequency x_axis)."""
        return cls._wave(dim, axis, frequency, -0.5j * amplitude, 0.5j * amplitude)

    def __add__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        out = TrigPoly(self.dim)
        out.coeffs = dict(self.coeffs)
        for freq, val in other.coeffs.items():
            out.coeffs[freq] = out.coeffs.get(freq, 0j) + val
        out._prune()
        return out

    def frame_derivative(self, direction: str, a: int) -> "TrigPoly":
        """Exact derivative along E_a ('e') or Ebar_a ('ebar'), 1-based a, on 2m base coordinates.

        E_a multiplies exp(2 pi i n . x) by pi i (n_{x_a} - i n_{y_a}), Ebar_a by
        pi i (n_{x_a} + i n_{y_a}).
        """
        if direction not in ("e", "ebar"):
            raise ValueError(f"unknown direction {direction!r}")
        m = self.dim // 2
        if self.dim % 2 or not 1 <= _integer(a, "frame index") <= m:
            raise ValueError(f"no frame vector {a} on {self.dim} base coordinates")
        conj = -1j if direction == "e" else 1j
        out = TrigPoly(self.dim)
        for freq, val in self.coeffs.items():
            scaled = 1j * np.pi * (freq[a - 1] + conj * freq[m + a - 1]) * val
            if scaled != 0:
                out.coeffs[freq] = scaled
        return out

    def __call__(self, points):
        """Value at one point (shape (dim,)) or at each row of an array of points (shape (P, dim))."""
        x = np.asarray(points, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise ValueError(f"point must have {self.dim} coordinates")
        freqs = np.array(list(self.coeffs), dtype=float).reshape(-1, self.dim)
        values = np.array(list(self.coeffs.values()), dtype=complex)
        return np.exp(2j * np.pi * (x @ freqs.T)) @ values

    def __repr__(self):
        return f"TrigPoly(dim={self.dim}, terms={len(self.coeffs)})"
