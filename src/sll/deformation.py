"""The first-order isotropy relation of a deformed Hodge filtration, and
the tangent Frobenius / non-ordinary determinant of the standard display.

Given a module with Hodge frame (Y1, Y2 | X1, X2), the deformed filtration
generators are

    Y1~ = Y1 + t11 X1 + t12 X2,    Y2~ = Y2 + t21 X1 + t22 X2,

and the relation is the expansion of <Y1~, Y2~> from the pairing matrix:

    <Y1,Y2> + sum_j t2j <Y1,Xj> - sum_i t1i <Y2,Xi>
            + sum_{i,j} t1i t2j <Xi,Xj>.

The sign convention is anchored by the standard superspecial fixture,
whose frame must produce exactly p + t11*t22 - t12*t21.  The crystalline
machinery behind the relation is represented purely by this output
contract; no crystal objects are modeled.
"""

from __future__ import annotations

from . import linalg
from .errors import PreconditionError
from .series import SeriesRing
from .singularity import classify_local_ring, default_truncation

T_VARS = ("t11", "t12", "t21", "t22")


class HodgeFrame:
    """A choice of two basis indices spanning the Hodge filtration VM/pM,
    plus the complementary two indices."""

    def __init__(self, module, Y_indices, X_indices):
        if sorted([*Y_indices, *X_indices]) != [0, 1, 2, 3]:
            raise PreconditionError("frame indices must partition the basis")
        ring = module.ring
        fld = ring.field
        vbar = linalg.mat_map(module.V_matrix, ring.residue)
        if linalg.rank_field(fld, vbar) != 2:
            raise PreconditionError("V has the wrong mod-p rank for a Hodge frame")
        picked = [[fld.one() if r == i else fld.zero() for i in Y_indices] for r in range(4)]
        stacked = [vrow + prow for vrow, prow in zip(vbar, picked)]
        if linalg.rank_field(fld, stacked) != 2:
            raise PreconditionError("chosen Y vectors do not span the image of V mod p")
        self.module = module
        self.Y_indices = Y_indices
        self.X_indices = X_indices


def standard_frame(module):
    """The frame with Y = (Y1, Y2) basis slots and X = (X1, X2), valid for
    every fixture of make_standard."""
    return HodgeFrame(module, (2, 3), (0, 1))


def relation_ring(witt_ring):
    return SeriesRing(witt_ring, 4, default_truncation(witt_ring.p), T_VARS)


def pairing_relation(J, left, right, x_indices):
    """<left~, right~> for the pairing matrix J over W_n(F_q), where
    left~ = e_left + t11 e_x1 + t12 e_x2 and right~ = e_right + t21 e_x1 +
    t22 e_x2, with (x1, x2) = x_indices; left/right are basis indices."""
    sring = relation_ring(J[0][0].ring)
    t = sring.variables()  # t11, t12, t21, t22

    def deformed(index, ts):
        vec = [sring.zero()] * 4
        vec[index] = sring.one()
        for x, tk in zip(x_indices, ts):
            vec[x] = vec[x] + tk
        return vec

    J = linalg.mat_map(J, sring.constant)  # J[i][j] = <e_i, e_j>
    return linalg.bilinear(J, deformed(left, t[:2]), deformed(right, t[2:]), sring.zero())


def deformation_equation(frame):
    """The isotropy relation of the deformed filtration, a series of total
    degree <= 2 in t11, t12, t21, t22 over W_n(F_q)."""
    y1, y2 = frame.Y_indices
    return pairing_relation(frame.module.J, y1, y2, frame.X_indices)


def classify_point(frame):
    """Classification of the deformation relation's local ring: Smooth for
    Lagrangian frames, an ordinary double point with v(a') = 1 for the
    superspecial non-Lagrangian fixture."""
    return classify_local_ring(deformation_equation(frame))


# ---------------------------------------------------------------------------
# displays: the equicharacteristic tangent data


class DisplayRelations:
    """The shape F e_i = e_{i+2} + sum_j T_ij e_j, e_{i+2} = V e_i, recorded
    by its 2x2 matrix of variable coefficients over the residue field."""

    def __init__(self, ring, entries):
        if len(entries) != 2 or any(len(r) != 2 for r in entries):
            raise PreconditionError("display needs a 2x2 matrix of entries")
        for row in entries:
            for s in row:
                if s.parent != ring:
                    raise PreconditionError("display entry from a foreign ring")
                if s.constant_term():
                    raise PreconditionError("display entries vanish at the origin")
                if s.degree_bound() > 1:
                    raise PreconditionError("display entries are linear forms")
        self.ring = ring        # a SeriesRing over F_q in t11, t12, t21, t22
        self.entries = entries  # 2x2 degree-<=1 series with zero constant term


def standard_display(field):
    """The universal display: T_ij is the Teichmuller lift of the
    coordinate t_ij; at the tangent level the matrix of variables."""
    sring = SeriesRing(field, 4, 3, T_VARS)
    t = sring.variables()
    return DisplayRelations(sring, [[t[0], t[1]], [t[2], t[3]]])


def nonordinary_locus(display):
    """Defining polynomial of the non-ordinary locus: the determinant of
    the tangent Frobenius, over F_q[t].  The display's entries are that
    Frobenius on M~/VM~, [[t11, t12], [t21, t22]] for the standard one."""
    T = display.entries
    return T[0][0] * T[1][1] - T[0][1] * T[1][0]


def reduce_relation_mod_p(relation):
    """Base-change a relation over W_n(F_q) to the residue field F_q."""
    ring = relation.parent.coeff_ring
    return relation.map_coefficients(ring.residue, ring.field)
