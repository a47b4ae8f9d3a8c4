"""Dense twistor oracle: the full-space twistor operator and Clifford contraction that the tests compare the
conformal check's pointwise twistor (``weitzenboeck._twistor``) against.

The weights are read through ``operators.twistor_weights`` at call time, so a test that rebinds that name
moves this oracle and leaves the pointwise route as it is.
"""

import numpy as np

from crspin import operators
from crspin.clifford import annihilation_matrix, creation_matrix
from crspin.operators import OperatorMatrix


def _twistor_slots(space, inject, weight, c_self, c_other, nabla) -> list:
    """Slots nabla_a + weight c_self[a] (2 sum_b c_other[b] nabla_b) on the ``inject`` block.

    The bracket is D+ or D- written out as its Kronecker terms.
    """
    return [
        space.mixed(inject, nabla[a])
        + sum(space.mixed(2.0 * weight * c_self[a] @ c_other[b] @ inject, nabla[b]) for b in range(space.m))
        for a in range(space.m)
    ]


def assemble_twistor(space, q: int) -> OperatorMatrix:
    """Twistor operator on the degree-q block, stacked over 2m coframe slots.

    Rows are grouped as m full-space slots for the E_a coframe directions
    followed by m slots for the Ebar_a directions; the image lies in the
    kernel of Clifford contraction.
    """
    m = space.m
    inject = np.eye(space.fiber_dim)[:, space.module.grade_slice(q)]
    a_q, b_q = operators.twistor_weights(m, q)
    c_e = [creation_matrix(m, a) for a in range(1, m + 1)]
    c_ebar = [-annihilation_matrix(m, a) for a in range(1, m + 1)]
    slots = _twistor_slots(space, inject, b_q, c_e, c_ebar, space.nabla_e)
    slots += _twistor_slots(space, inject, a_q, c_ebar, c_e, space.nabla_ebar)
    return OperatorMatrix(np.vstack(slots), space, mu_shift=None)


def twistor_contraction(space, q: int) -> np.ndarray:
    """Clifford contraction matrix on the 2m-slot stack produced by ``assemble_twistor``.

    A coframe slot u in the E_a group contributes 2 Ebar_a . u and a slot
    in the Ebar_a group contributes 2 E_a . u; the metric duality of the
    half-normalized frame supplies the factor 2.
    """
    space.module.grade_slice(q)  # refuses a grade no spinor has
    m = space.m
    blocks = [space.lift_fiber(-2.0 * annihilation_matrix(m, a)) for a in range(1, m + 1)]
    blocks += [space.lift_fiber(2.0 * creation_matrix(m, a)) for a in range(1, m + 1)]
    return np.hstack(blocks)
